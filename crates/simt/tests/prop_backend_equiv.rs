//! Production against the oracle: the SoA wave on the event-driven
//! time wheel must be indistinguishable from the scalar wave on the
//! cycle-stepping driver — same `RunStats`, same memory image, same
//! typed errors, and same `launch_hardened` fault semantics (injection
//! outcomes and their logged cycles, ECC verdicts, watchdog trips,
//! partial memory effects) — across randomized kernels, exec-mask
//! patterns, divergence/barrier shapes and fault plans.

use ggpu_isa::inst::{AluOp, BranchCond, IdSource, Inst, Reg};
use ggpu_prop::{cases, Rng};
use ggpu_simt::{
    AccelBackend, FaultPlan, FaultSite, Gpu, HardenedOptions, Injection, Kernel, Launch, LramModel,
    Protection, SimError, SimtConfig, WatchdogConfig,
};

const MEM_WORDS: usize = 4096;

/// Runs one launch on both backends over identically seeded machines
/// and asserts bit-identity of result and memory image.
fn assert_equiv(
    kernel: &Kernel,
    launch: &Launch,
    config: SimtConfig,
    seed_mem: &[u32],
    opts: Option<&HardenedOptions>,
) {
    let mut scalar_gpu = Gpu::new(config.with_backend(AccelBackend::Scalar), MEM_WORDS);
    let mut soa_gpu = Gpu::new(config.with_backend(AccelBackend::Soa), MEM_WORDS);
    scalar_gpu.write_words(0, seed_mem).expect("seed scalar");
    soa_gpu.write_words(0, seed_mem).expect("seed soa");

    match opts {
        None => {
            let a = scalar_gpu.launch(kernel, launch);
            let b = soa_gpu.launch(kernel, launch);
            match (a, b) {
                (Ok(sa), Ok(sb)) => assert_eq!(sa, sb, "RunStats diverge on {}", kernel.name),
                (Err(ea), Err(eb)) => assert_eq!(ea, eb, "errors diverge on {}", kernel.name),
                (a, b) => panic!("outcome diverges on {}: {a:?} vs {b:?}", kernel.name),
            }
        }
        Some(opts) => {
            let a = scalar_gpu.launch_hardened(kernel, launch, opts);
            let b = soa_gpu.launch_hardened(kernel, launch, opts);
            match (a, b) {
                (Ok(ra), Ok(rb)) => {
                    assert_eq!(
                        ra.stats, rb.stats,
                        "hardened stats diverge on {}",
                        kernel.name
                    );
                    assert_eq!(
                        ra.log.events, rb.log.events,
                        "fault logs diverge on {}",
                        kernel.name
                    );
                }
                (Err(ea), Err(eb)) => {
                    assert_eq!(ea, eb, "hardened errors diverge on {}", kernel.name)
                }
                (a, b) => panic!(
                    "hardened outcome diverges on {}: {a:?} vs {b:?}",
                    kernel.name
                ),
            }
        }
    }

    let ma = scalar_gpu.read_words(0, MEM_WORDS).expect("read scalar");
    let mb = soa_gpu.read_words(0, MEM_WORDS).expect("read soa");
    assert_eq!(ma, mb, "memory images diverge on {}", kernel.name);
}

fn small_config(rng: &mut Rng) -> SimtConfig {
    let mut c = SimtConfig::with_cus(rng.u32_in(1, 3));
    c.wavefront_size = rng.pick_copy(&[8, 16, 33, 64]);
    c.max_wavefronts_per_cu = rng.u32_in(2, 8);
    c.max_cycles = 200_000;
    c
}

fn seed_mem(rng: &mut Rng) -> Vec<u32> {
    (0..MEM_WORDS).map(|_| rng.any_u32()).collect()
}

/// Template kernels in the shape of the shipped suite: id reads,
/// ALU mixes, global loads/stores, bounded loops, divergence,
/// barriers with local memory.
fn template_kernel(rng: &mut Rng) -> Kernel {
    let which = rng.u32_in(0, 4);
    let c1 = rng.i32_in(1, 500);
    let c2 = rng.i32_in(1, 500);
    let op = rng.pick_copy(&["add", "sub", "mul", "xor", "sltu", "divu", "remu"]);
    let src = match which {
        // Straight-line ALU mix + store.
        0 => format!(
            "gid r1
             addi r2, r1, {c1}
             addi r3, r0, {c2}
             mul  r3, r1, r3
             {op} r4, r2, r3
             param r5, 0
             slli r6, r1, 2
             add  r6, r6, r5
             sw   r6, r4, 0
             ret"
        ),
        // Load-modify-store.
        1 => format!(
            "gid r1
             slli r2, r1, 2
             param r3, 0
             add  r2, r2, r3
             lw   r4, r2, 0
             addi r4, r4, {c1}
             param r5, 1
             slli r6, r1, 2
             add  r6, r6, r5
             sw   r6, r4, 0
             ret"
        ),
        // Uniform counted loop (trip count from param).
        2 => "gid  r1
              param r2, 2
              addi r3, r0, 0
              loop:
              add  r3, r3, r1
              addi r2, r2, -1
              bne  r2, r0, loop
              param r5, 0
              slli r6, r1, 2
              add  r6, r6, r5
              sw   r6, r3, 0
              ret"
        .to_string(),
        // Divergent trip counts: each lane loops gid % 8 times.
        3 => format!(
            "gid  r1
             addi r9, r0, 8
             remu r2, r1, r9
             addi r3, r0, {c1}
             loop:
             beq  r2, r0, done
             addi r3, r3, {c2}
             addi r2, r2, -1
             jmp  loop
             done:
             param r5, 0
             slli r6, r1, 2
             add  r6, r6, r5
             sw   r6, r3, 0
             ret"
        ),
        // Barrier + local-memory exchange within the workgroup.
        _ => "gid  r1
              lid  r2
              slli r3, r2, 2
              swl  r3, r1, 0
              bar
              wgsize r4
              addi r5, r4, -1
              sub  r5, r5, r2
              slli r5, r5, 2
              lwl  r6, r5, 0
              param r7, 0
              slli r8, r1, 2
              add  r8, r8, r7
              sw   r8, r6, 0
              ret"
        .to_string(),
    };
    Kernel::from_asm(format!("tmpl{which}"), &src).expect("template assembles")
}

/// A launch whose output region stays inside the seeded memory.
fn template_launch(rng: &mut Rng, config: &SimtConfig) -> Launch {
    let n = rng.u32_in(1, 300);
    let max_wg = config.wavefront_size * config.max_wavefronts_per_cu;
    let wg = rng.u32_in(1, max_wg.min(256));
    // Params: out base, aux base, trip count. Output fits: n*4 <= 8192.
    let out = rng.pick_copy(&[0u32, 0x400, 0x800]);
    Launch::new(n, wg, vec![out, 0x2000, rng.u32_in(1, 9), 3])
}

#[test]
fn template_kernels_bit_identical() {
    cases(120, |rng| {
        let config = small_config(rng);
        let kernel = template_kernel(rng);
        let launch = template_launch(rng, &config);
        let mem = seed_mem(rng);
        assert_equiv(&kernel, &launch, config, &mem, None);
    });
}

/// Banked LRAM geometries: the conflict-aware arbitration model must
/// stay bit-identical between backends — same outputs, same cycle
/// count, same conflict tally (`RunStats` equality covers
/// `lram_conflict_cycles`) — across randomized bank counts, including
/// degenerate single-bank and wider-than-wavefront geometries.
#[test]
fn banked_geometries_bit_identical() {
    cases(120, |rng| {
        let mut config = small_config(rng);
        config.lram = LramModel::Banked {
            banks: rng.pick_copy(&[1, 2, 3, 4, 8, 16]),
        };
        let kernel = template_kernel(rng);
        let launch = template_launch(rng, &config);
        let mem = seed_mem(rng);
        assert_equiv(&kernel, &launch, config, &mem, None);
    });
}

/// Banking is a timing model, never a functional one: switching from
/// the ideal LRAM to any banked geometry may slow a run down but must
/// leave the architectural results — memory image and instruction
/// tallies — untouched.
#[test]
fn banking_shifts_cycles_never_bits() {
    cases(80, |rng| {
        let ideal_config = small_config(rng);
        let mut banked_config = ideal_config;
        banked_config.lram = LramModel::Banked {
            banks: rng.pick_copy(&[2, 4, 8]),
        };
        let kernel = template_kernel(rng);
        let launch = template_launch(rng, &ideal_config);
        let mem = seed_mem(rng);

        let oracle = |c: SimtConfig| Gpu::new(c.with_backend(AccelBackend::Scalar), MEM_WORDS);
        let (mut ideal_gpu, mut banked_gpu) = (oracle(ideal_config), oracle(banked_config));
        ideal_gpu.write_words(0, &mem).expect("seed ideal");
        banked_gpu.write_words(0, &mem).expect("seed banked");
        let ideal = ideal_gpu
            .launch(&kernel, &launch)
            .expect("template kernels complete");
        let banked = banked_gpu
            .launch(&kernel, &launch)
            .expect("template kernels complete");

        assert_eq!(ideal.lram_conflict_cycles, 0, "ideal model never stalls");
        assert!(banked.cycles >= ideal.cycles, "conflicts only add beats");
        assert_eq!(ideal.vector_instructions, banked.vector_instructions);
        assert_eq!(ideal.lane_ops, banked.lane_ops);
        assert_eq!(ideal.wavefronts, banked.wavefronts);
        assert_eq!(ideal.workgroups, banked.workgroups);
        let ma = ideal_gpu.read_words(0, MEM_WORDS).expect("read ideal");
        let mb = banked_gpu.read_words(0, MEM_WORDS).expect("read banked");
        assert_eq!(ma, mb, "banking altered results on {}", kernel.name);
    });
}

fn random_reg(rng: &mut Rng) -> Reg {
    Reg::new(rng.u32_in(0, 31) as u8)
}

/// Fully random instruction streams: most runs fault or hit the cycle
/// ceiling — the typed error and the partial memory image must match
/// between backends either way.
fn random_program(rng: &mut Rng) -> Vec<Inst> {
    let len = rng.usize_in(4, 24);
    let ops = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::Divu,
        AluOp::Remu,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Sll,
        AluOp::Srl,
        AluOp::Sra,
        AluOp::Slt,
        AluOp::Sltu,
    ];
    let conds = [
        BranchCond::Eq,
        BranchCond::Ne,
        BranchCond::Lt,
        BranchCond::Ge,
        BranchCond::Ltu,
        BranchCond::Geu,
    ];
    let srcs = [
        IdSource::GlobalId,
        IdSource::LocalId,
        IdSource::GroupId,
        IdSource::GroupSize,
        IdSource::GlobalSize,
    ];
    let mut prog: Vec<Inst> = (0..len)
        .map(|_| match rng.u32_in(0, 11) {
            0 | 1 => Inst::Alu {
                op: rng.pick_copy(&ops),
                rd: random_reg(rng),
                rs1: random_reg(rng),
                rs2: random_reg(rng),
            },
            2 | 3 => Inst::AluImm {
                op: rng.pick_copy(&ops),
                rd: random_reg(rng),
                rs1: random_reg(rng),
                imm: rng.i32_in(-40, 200) as i16,
            },
            4 => Inst::ReadId {
                rd: random_reg(rng),
                src: rng.pick_copy(&srcs),
            },
            5 => Inst::Param {
                rd: random_reg(rng),
                idx: rng.u32_in(0, 9) as u8, // sometimes out of range
            },
            6 => Inst::Lw {
                rd: random_reg(rng),
                rs1: random_reg(rng),
                imm: (rng.i32_in(-4, 400) * 4) as i16,
            },
            7 => Inst::Sw {
                rs1: random_reg(rng),
                rs2: random_reg(rng),
                imm: (rng.i32_in(-4, 400) * 4) as i16,
            },
            8 => Inst::Lwl {
                rd: random_reg(rng),
                rs1: random_reg(rng),
                imm: (rng.i32_in(0, 100) * 4) as i16,
            },
            9 => Inst::Swl {
                rs1: random_reg(rng),
                rs2: random_reg(rng),
                imm: (rng.i32_in(0, 100) * 4) as i16,
            },
            10 => Inst::Branch {
                cond: rng.pick_copy(&conds),
                rs1: random_reg(rng),
                rs2: random_reg(rng),
                target: rng.u32_in(0, len as u32 + 2), // may leave program
            },
            _ => {
                if rng.chance(0.3) {
                    Inst::Bar
                } else {
                    Inst::Jmp {
                        target: rng.u32_in(0, len as u32 + 2),
                    }
                }
            }
        })
        .collect();
    if rng.chance(0.8) {
        prog.push(Inst::Ret);
    }
    prog
}

#[test]
fn random_programs_bit_identical() {
    cases(200, |rng| {
        let mut config = small_config(rng);
        config.max_cycles = 30_000;
        let kernel = Kernel {
            name: "rand".into(),
            program: random_program(rng),
        };
        let n = rng.u32_in(1, 200);
        let wg = rng.u32_in(1, config.wavefront_size * config.max_wavefronts_per_cu);
        let launch = Launch::new(n, wg, vec![0x100, 0x600, 5]);
        let mem = seed_mem(rng);
        assert_equiv(&kernel, &launch, config, &mem, None);
    });
}

fn random_site(rng: &mut Rng, config: &SimtConfig) -> FaultSite {
    let cu = rng.u32_in(0, config.compute_units); // may be out of range
    let slot = rng.u32_in(0, config.max_wavefronts_per_cu);
    let lane = rng.u32_in(0, config.wavefront_size + 4); // sometimes beyond geometry
    match rng.u32_in(0, 4) {
        0 => FaultSite::Register {
            cu,
            slot,
            lane,
            reg: rng.u32_in(0, 255) as u8,
        },
        1 => FaultSite::LocalWord {
            cu,
            word: rng.u32_in(0, 5000),
        },
        2 => FaultSite::GlobalWord {
            word: rng.u32_in(0, MEM_WORDS as u32 + 64),
        },
        3 => FaultSite::Pc { cu, slot, lane },
        _ => FaultSite::ExecMask { cu, slot, lane },
    }
}

fn random_plan(rng: &mut Rng, config: &SimtConfig) -> FaultPlan {
    let n = rng.usize_in(1, 6);
    let injections = (0..n)
        .map(|i| {
            let protection =
                rng.pick_copy(&[Protection::None, Protection::Parity, Protection::SecDed]);
            let mut inj = Injection::single(
                rng.u64_in(0, 4000),
                random_site(rng, config),
                rng.u32_in(0, 40) as u8,
                protection,
            )
            .with_label(format!("inj{i}"));
            if rng.chance(0.4) {
                inj.flips.push(rng.u32_in(0, 40) as u8);
            }
            if rng.chance(0.3) {
                inj.codeword_flips = rng.u32_in(0, 4);
            }
            inj
        })
        .collect();
    FaultPlan::new(injections)
}

/// Non-empty fault plans (register/PC/exec-mask/memory upsets, all
/// three protection schemes) plus the watchdog: outcomes, logs, typed
/// errors and partial memory effects must match.
#[test]
fn fault_plans_bit_identical() {
    cases(150, |rng| {
        let mut config = small_config(rng);
        config.max_cycles = 100_000;
        let kernel = template_kernel(rng);
        let launch = template_launch(rng, &config);
        let opts = HardenedOptions {
            plan: random_plan(rng, &config),
            watchdog: rng.chance(0.5).then(|| WatchdogConfig {
                interval: rng.u64_in(32, 2048),
                patience: rng.u32_in(1, 3),
            }),
        };
        let mem = seed_mem(rng);
        assert_equiv(&kernel, &launch, config, &mem, Some(&opts));
    });
}

/// Livelocked and slow-converging kernels under the watchdog: the trip
/// verdict and the reported heartbeat deadline must match across
/// drivers for any interval, including deadlines the time wheel jumps
/// over between two passes (long memory stalls).
#[test]
fn watchdog_verdicts_bit_identical() {
    cases(80, |rng| {
        let mut config = small_config(rng);
        // Spins the watchdog misses (a two-PC loop sampled out of
        // phase) run to this ceiling on the stepping driver.
        config.max_cycles = 20_000;
        let src = match rng.u32_in(0, 2) {
            // Pure spin: a pass every few cycles.
            0 => "spin: jmp spin",
            // Spin on a strided load: DRAM-latency gaps between passes.
            1 => {
                "gid  r1
                  slli r1, r1, 4
                  spin:
                  lw   r2, r1, 0
                  jmp  spin"
            }
            // Converges after a param-driven trip count of loads.
            _ => {
                "gid  r1
                  slli r1, r1, 4
                  param r3, 2
                  loop:
                  lw   r2, r1, 0
                  addi r3, r3, -1
                  bne  r3, r0, loop
                  ret"
            }
        };
        let kernel = Kernel::from_asm("wd", src).expect("assembles");
        let launch = template_launch(rng, &config);
        let opts = HardenedOptions {
            plan: if rng.chance(0.5) {
                random_plan(rng, &config)
            } else {
                FaultPlan::default()
            },
            watchdog: Some(WatchdogConfig {
                interval: rng.u64_in(8, 700),
                patience: rng.u32_in(1, 3),
            }),
        };
        let mem = seed_mem(rng);
        assert_equiv(&kernel, &launch, config, &mem, Some(&opts));
    });
}

/// Harness work at the edges of the time wheel's jumps: an injection
/// due just after a tripping watchdog deadline must not land before
/// that deadline's check, and one due in the span the wheel skips
/// before the cycle ceiling must still land.
#[test]
fn harness_edges_match_the_stepping_driver() {
    let spin = Kernel::from_asm("spin", "spin: jmp spin").expect("assembles");
    let launch = Launch::new(64, 64, vec![]);
    let mut config = SimtConfig::with_cus(1);
    config.max_cycles = 5_000;
    let upset = |cycle, protection| {
        Injection::single(cycle, FaultSite::GlobalWord { word: 7 }, 3, protection)
    };
    for interval in [64, 100, 257] {
        // First armed check at `interval`, then `patience` repeats of
        // the same fingerprint.
        let trip = 3 * interval;
        for offset in 1..=8 {
            let opts = HardenedOptions {
                plan: FaultPlan::new(vec![upset(trip + offset, Protection::Parity)]),
                watchdog: Some(WatchdogConfig {
                    interval,
                    patience: 2,
                }),
            };
            assert_equiv(&spin, &launch, config, &[], Some(&opts));
            let run = Gpu::new(config, MEM_WORDS).launch_hardened(&spin, &launch, &opts);
            assert_eq!(run.err(), Some(SimError::Watchdog { cycle: trip }));
        }
    }
    for offset in 0..=8 {
        let opts = HardenedOptions {
            plan: FaultPlan::new(vec![upset(config.max_cycles - offset, Protection::None)]),
            watchdog: None,
        };
        assert_equiv(&spin, &launch, config, &[], Some(&opts));
    }
}

/// Exec-mask upsets that *reactivate* never-populated lanes: the
/// revived lane resumes at PC 0 with zeroed registers and id words on
/// both backends (the SoA engine computes ids on the fly and must
/// reproduce the zeroed-ids semantics for lanes beyond `items`).
#[test]
fn exec_mask_reactivation_matches() {
    cases(80, |rng| {
        let mut config = SimtConfig::with_cus(1);
        config.max_cycles = 100_000;
        let kernel = Kernel::from_asm(
            "revive",
            "gid  r1
             lid  r2
             add  r3, r1, r2
             slli r4, r1, 2
             param r5, 0
             add  r4, r4, r5
             sw   r4, r3, 0
             ret",
        )
        .expect("assembles");
        // Partial wavefront: items < wavefront_size.
        let n = rng.u32_in(1, 40);
        let launch = Launch::new(n, 64, vec![0x200]);
        let lane = rng.u32_in(0, 63); // often a lane >= items
        let plan = FaultPlan::new(vec![Injection::single(
            rng.u64_in(0, 40),
            FaultSite::ExecMask {
                cu: 0,
                slot: 0,
                lane,
            },
            0,
            Protection::None,
        )]);
        let opts = HardenedOptions {
            plan,
            watchdog: Some(WatchdogConfig {
                interval: 512,
                patience: 2,
            }),
        };
        let mem = seed_mem(rng);
        assert_equiv(&kernel, &launch, config, &mem, Some(&opts));
    });
}

/// Divergent-barrier rejection and barrier-heavy shapes agree.
#[test]
fn divergent_barrier_cases_match() {
    cases(60, |rng| {
        let config = small_config(rng);
        // Odd lanes skip the barrier -> DivergentBarrier on both
        // backends (or clean completion when the workgroup has no odd
        // lane at the barrier wavefront).
        let kernel = Kernel::from_asm(
            "divbar",
            "gid  r1
             addi r9, r0, 2
             remu r2, r1, r9
             bne  r2, r0, skip
             bar
             skip:
             ret",
        )
        .expect("assembles");
        let n = rng.u32_in(1, 150);
        let wg = rng.u32_in(1, config.wavefront_size * config.max_wavefronts_per_cu);
        let launch = Launch::new(n, wg, vec![]);
        let mem = seed_mem(rng);
        assert_equiv(&kernel, &launch, config, &mem, None);
    });
}
