//! The generic wavefront scheduler shared by both wave engines.
//!
//! The scheduler (dispatch, round-robin issue selection, the
//! event-driven time wheel and the cycle-stepping driver,
//! fault-injection/watchdog harness hooks) is written once, generic
//! over a [`Wave`] engine that owns the per-wavefront architectural
//! state and the per-instruction lane loop. Two engines ship, each
//! paired with one driver by [`crate::Gpu`] (the only place that
//! pairs them, from [`crate::AccelBackend`]):
//!
//! * [`crate::soa::SoaWave`] on the time wheel — production: a
//!   structure-of-arrays register file, 64-bit `exec` bitmask, dense
//!   vectorizable lane loops and a reusable scratch arena.
//! * [`ScalarWave`] on the cycle-stepping driver — the oracle: per-lane
//!   `Vec`s, one scalar loop per instruction, one pass per simulated
//!   cycle.
//!
//! Both drivers execute the *same* scheduler pass, and both engines
//! the same per-lane semantics, which is what makes outputs,
//! [`RunStats`], memory images and fault semantics bit-identical
//! (enforced by `crates/simt/tests/prop_backend_equiv.rs`).

use crate::config::SimtConfig;
use crate::fault::{FaultEvent, FaultSite, Injection, InjectionOutcome, Protection};
use crate::global::GlobalMemory;
use crate::gpu::{HardenState, RunStats, SimError, LOCAL_WORDS, PARAM_SLOTS};
use crate::memsys::{Dram, SharedCache};
use crate::trace::ExecTrace;
use ggpu_isa::inst::{AluOp, IdSource, Inst};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Read-only launch context threaded through every issue.
pub(crate) struct IssueEnv<'a> {
    pub config: SimtConfig,
    pub program: &'a [Inst],
    pub params: [u32; PARAM_SLOTS],
    pub global_size: u32,
    pub workgroup_size: u32,
    /// `log2(pes_per_cu)` when the PE count is a power of two: the
    /// per-issue occupancy `div_ceil` then compiles to a shift (this
    /// runs once per issued instruction on both backends).
    pub pes_shift: Option<u32>,
}

/// What one wavefront issue did.
pub(crate) enum StepOut {
    /// The wavefront had no active lane left (e.g. after an exec-mask
    /// upset) and retired without issuing.
    Retired,
    /// One vector instruction was issued.
    Issued {
        /// The instruction, for shared latency/occupancy accounting.
        inst: Inst,
        /// Number of lanes that executed it.
        lane_count: u32,
        /// Earliest cycle the memory system can deliver the results.
        mem_ready: u64,
        /// Extra LRAM beats serializing bank conflicts (local
        /// accesses under [`crate::LramModel::Banked`]; zero
        /// otherwise). Computed inside the lane loop because the
        /// accessed words are lost once the step commits (`lwl` may
        /// overwrite its own address register).
        local_beats: u64,
    },
}

/// One wavefront's architectural state and lane-execution engine.
///
/// The contract every implementation must honour for bit-identity:
/// lanes are visited in ascending index order wherever the visit has
/// an observable side effect (memory writes, cache-port arbitration,
/// fault surfacing), and per-lane semantics match [`ScalarWave`]'s
/// scalar loops exactly.
pub(crate) trait Wave: Sized {
    /// Reusable per-scheduler scratch (lane lists, operand staging,
    /// touched-line buffers). One instance lives in the [`Sched`] and
    /// is lent to every issue, so the steady-state instruction loop
    /// performs no heap allocation.
    type Scratch: Default;

    /// A fresh wavefront covering `items` lanes.
    fn new(wf_size: u32, group_id: u32, first_global: u32, first_local: u32, items: u32) -> Self;
    /// Reinitializes a recycled wavefront in place (the dispatch
    /// arena): afterwards the wave must be indistinguishable from
    /// [`Wave::new`] with the same arguments.
    fn reinit(&mut self, group_id: u32, first_global: u32, first_local: u32, items: u32);

    fn done(&self) -> bool;
    fn at_barrier(&self) -> bool;
    fn ready_at(&self) -> u64;
    fn set_ready_at(&mut self, t: u64);
    fn group_id(&self) -> u32;

    /// Executes one vector instruction (select min active PC, fetch,
    /// run every active lane at that PC) and updates PCs, masks and
    /// barrier/done flags.
    fn step(
        &mut self,
        env: &IssueEnv<'_>,
        memory: &mut GlobalMemory,
        local_mem: &mut [u32],
        cache: &mut SharedCache,
        now: u64,
        scratch: &mut Self::Scratch,
    ) -> Result<StepOut, SimError>;

    /// Read-only replay of the *next* issue's lane selection,
    /// recording per-lane addresses, store values and branch outcomes
    /// into `trace`. Called immediately before [`Wave::step`] with the
    /// same arguments' pre-state, so what it records is exactly what
    /// the step is about to do — including accesses the step will
    /// fault on. Must not mutate any architectural or lazy engine
    /// state (the step that follows must be unaffected).
    fn observe(
        &self,
        env: &IssueEnv<'_>,
        memory_words: usize,
        local_words: usize,
        trace: &mut ExecTrace,
    );

    /// Advances every active lane past a released barrier.
    fn release_from_barrier(&mut self, now: u64);

    /// Hashes all architectural state the watchdog watches.
    fn fingerprint(&self, h: &mut DefaultHasher);

    /// `true` when `lane` exists in this wavefront's geometry.
    fn has_lane(&self, lane: u32) -> bool;
    /// Mutable view of one lane's architectural register, if resolvable.
    fn reg_slot(&mut self, lane: u32, reg: u8) -> Option<&mut u32>;
    /// Mutable view of one lane's PC, if resolvable.
    fn pc_slot(&mut self, lane: u32) -> Option<&mut u32>;
    /// Toggles one lane's execution-mask bit (the caller has checked
    /// [`Wave::has_lane`]).
    fn toggle_exec(&mut self, lane: u32);
}

/// One compute unit: resident wavefronts, scratchpad, issue stage.
/// Retired wavefronts are recycled through `pool`, so steady-state
/// dispatch performs no allocation either.
pub(crate) struct ComputeUnit<W> {
    pub wavefronts: Vec<W>,
    pool: Vec<W>,
    pub local_mem: Vec<u32>,
    pub busy_until: u64,
    pub rr_cursor: usize,
    /// Dispatch can only newly succeed after a retirement freed a
    /// slot (or on the very first pass), so the compaction/dispatch
    /// block is skipped until then. Behaviour-neutral: between a
    /// failed dispatch attempt and the next retirement no wavefront
    /// retires, so the skipped compactions are provably no-ops.
    dispatch_hint: bool,
    /// Cached liveness/readiness summary of the resident list, valid
    /// while `!dirty`. Wavefront state only changes through issue,
    /// dispatch or fault injection — each sets `dirty` — so between
    /// mutations both the pass loop and the event scan can serve an
    /// idle CU from these two words instead of rescanning its
    /// wavefront list. At 8 CUs only ~1-2 CUs issue per pass, which
    /// makes this the difference between O(total waves) and
    /// O(issuing waves) per pass.
    cached_live: bool,
    /// `min(ready_at)` over live non-barrier wavefronts (`u64::MAX`
    /// when none is issuable); paired with `cached_live` above.
    cached_ready: u64,
    dirty: bool,
}

/// Outcome of one scheduler pass (one simulated cycle's worth of
/// dispatch/issue work), used by the event-driven driver to decide
/// how far time can jump.
struct PassOutcome {
    /// Some CU held live wavefronts at pass time (pre-issue), i.e.
    /// the run is not finished.
    any_alive: bool,
    /// A wavefront retired during this pass, freeing a slot: dispatch
    /// may newly succeed next cycle.
    became_done: bool,
    /// A workgroup was dispatched during this pass.
    dispatched: bool,
}

/// One in-flight kernel run: machine state plus scheduling queues,
/// shared by the event-driven and the cycle-stepping driver so both
/// execute byte-for-byte identical passes.
pub(crate) struct Sched<'a, W: Wave> {
    env: IssueEnv<'a>,
    memory: &'a mut GlobalMemory,
    cache: SharedCache,
    cus: Vec<ComputeUnit<W>>,
    total_groups: u32,
    next_group: u32,
    stats: RunStats,
    scratch: W::Scratch,
    /// Fault-injection / watchdog harness; `None` for plain runs.
    hard: Option<&'a mut HardenState>,
    /// Soundness-oracle trace sink; `None` for plain runs.
    trace: Option<&'a mut ExecTrace>,
}

impl<'a, W: Wave> Sched<'a, W> {
    /// Builds one validated launch on wave engine `W`, ready for
    /// either driver.
    pub(crate) fn new(
        config: SimtConfig,
        program: &'a [Inst],
        params: [u32; PARAM_SLOTS],
        (global_size, workgroup_size): (u32, u32),
        memory: &'a mut GlobalMemory,
        hard: Option<&'a mut HardenState>,
        trace: Option<&'a mut ExecTrace>,
    ) -> Self {
        let total_groups = global_size.div_ceil(workgroup_size);
        Self {
            env: IssueEnv {
                config,
                program,
                params,
                global_size,
                workgroup_size,
                pes_shift: config
                    .pes_per_cu
                    .is_power_of_two()
                    .then(|| config.pes_per_cu.trailing_zeros()),
            },
            memory,
            cache: SharedCache::new(config.cache, Dram::new(config.dram)),
            cus: (0..config.compute_units)
                .map(|_| ComputeUnit {
                    wavefronts: Vec::new(),
                    pool: Vec::new(),
                    local_mem: vec![0; LOCAL_WORDS],
                    busy_until: 0,
                    rr_cursor: 0,
                    dispatch_hint: true,
                    cached_live: false,
                    cached_ready: u64::MAX,
                    dirty: true,
                })
                .collect(),
            total_groups,
            next_group: 0,
            stats: RunStats {
                workgroups: u64::from(total_groups),
                ..RunStats::default()
            },
            scratch: W::Scratch::default(),
            hard,
            trace,
        }
    }

    /// Event-driven driver: the time wheel. Runs a pass, then jumps
    /// `now` directly to the next event, accounting the skipped idle
    /// cycles arithmetically.
    pub(crate) fn run_event_driven(mut self) -> Result<RunStats, SimError> {
        let mut now: u64 = 0;
        loop {
            if now > self.env.config.max_cycles {
                // The stepping driver visits every cycle up to the
                // ceiling; land the harness work it would have done in
                // the skipped span before giving up.
                self.harness_tick(self.env.config.max_cycles)?;
                return Err(SimError::CycleLimit {
                    limit: self.env.config.max_cycles,
                });
            }
            self.harness_tick(now)?;
            let pass = self.pass(now)?;
            if !pass.any_alive && self.next_group >= self.total_groups {
                break;
            }
            now = self.advance(now, &pass)?;
        }
        self.stats.cycles = now;
        self.stats.mem = self.cache.stats();
        Ok(self.stats)
    }

    /// Cycle-stepping driver: visits every simulated cycle.
    pub(crate) fn run_cycle_stepping(mut self) -> Result<RunStats, SimError> {
        let mut now: u64 = 0;
        loop {
            if now > self.env.config.max_cycles {
                return Err(SimError::CycleLimit {
                    limit: self.env.config.max_cycles,
                });
            }
            self.harness_tick(now)?;
            let pass = self.pass(now)?;
            if !pass.any_alive && self.next_group >= self.total_groups {
                break;
            }
            now += 1;
        }
        self.stats.cycles = now;
        self.stats.mem = self.cache.stats();
        Ok(self.stats)
    }

    /// Finds the earliest simulated time after `now` at which any CU
    /// can change state, accounts the skipped idle cycles, and returns
    /// the new `now`.
    ///
    /// The next event for every CU holding live wavefronts is
    /// `max(busy_until, min ready_at over issuable wavefronts)`; a
    /// wavefront retirement (or dispatch) with workgroups still queued
    /// re-opens dispatch at `now + 1`; once no live wavefront remains
    /// anywhere, one final drain pass at `now + 1` reproduces the
    /// stepping loop's trailing busy accounting and break timing.
    ///
    /// The idle accounting adds the busy/stall increments the
    /// stepping loop would have made during the skipped cycles
    /// `now+1 ..= next-1`, in closed form: during that span no CU
    /// state changes, a CU counts as busy while `cycle < busy_until`,
    /// and as stalled for the rest of the span iff it holds live
    /// wavefronts. CUs untouched since the previous scan serve both
    /// answers from their cached summary, so each event step only
    /// rescans the one or two wavefront lists that actually changed.
    fn advance(&mut self, now: u64, pass: &PassOutcome) -> Result<u64, SimError> {
        let mut next = u64::MAX;
        for cu in self.cus.iter_mut() {
            if cu.dirty {
                // One fused pass over the resident list: liveness and
                // the earliest issuable readiness together.
                let mut any_live = false;
                let mut ready = u64::MAX;
                for w in &cu.wavefronts {
                    if w.done() {
                        continue;
                    }
                    any_live = true;
                    if !w.at_barrier() {
                        ready = ready.min(w.ready_at());
                    }
                }
                cu.cached_live = any_live;
                cu.cached_ready = ready;
                cu.dirty = false;
            }
            if !cu.cached_live {
                continue;
            }
            // A live CU always has an issuable (non-barrier) wavefront
            // with finite readiness: barrier release is immediate once
            // the whole group has arrived. An all-waiting CU would
            // otherwise stop the clock, so it is a typed scheduler
            // invariant violation rather than a silent `now + 1`
            // re-poll that spins to the cycle ceiling.
            if cu.cached_ready == u64::MAX {
                return Err(SimError::SchedulerStall { cycle: now });
            }
            next = next.min(cu.busy_until.max(cu.cached_ready));
        }
        if next == u64::MAX {
            next = now + 1; // final drain pass
        }
        if self.next_group < self.total_groups && (pass.became_done || pass.dispatched) {
            next = next.min(now + 1);
        }
        let next = next.max(now + 1);
        for cu in &self.cus {
            self.stats.busy_cycles += cu.busy_until.min(next).saturating_sub(now + 1);
            if cu.cached_live {
                self.stats.stall_cycles += next.saturating_sub(cu.busy_until.max(now + 1));
            }
        }
        Ok(next)
    }

    /// Fault-injection / watchdog hook, run before every scheduler
    /// pass. Exact no-op when no harness is attached; with an attached
    /// harness but an empty plan the only work is the (mutation-free)
    /// watchdog heartbeat, so architectural state and accounting are
    /// untouched — the zero-injection bit-identity guarantee.
    fn harness_tick(&mut self, now: u64) -> Result<(), SimError> {
        let Some(hard) = self.hard.take() else {
            return Ok(());
        };
        // `hard` is re-attached by the inner function for reuse on the
        // next pass; on error the run aborts and the owner (the
        // `launch_hardened` frame) still holds the log.
        self.harness_tick_inner(now, hard)
    }

    /// Replays, in cycle order, the harness work a cycle-stepping run
    /// does at every cycle up to `now`: injections land at their own
    /// cycle, and watchdog deadlines sit on the fixed grid
    /// `k * interval`. Between passes no architectural state changes,
    /// so the time wheel reaches the same verdicts, reports the same
    /// cycles and leaves the same state as the stepping driver.
    fn harness_tick_inner(&mut self, now: u64, hard: &'a mut HardenState) -> Result<(), SimError> {
        // The earliest grid deadline not yet evaluated, if it has come
        // due. Later deadlines in the same gap see no new issue since
        // this one, so they could not arm and are skipped.
        let due = hard
            .watchdog
            .and_then(|wd| (hard.wd_next <= now).then_some((wd, hard.wd_next)));
        // Injections up to and including the deadline precede its
        // check (the stepping driver ticks injections first).
        self.apply_injections_until(hard, due.map_or(now, |(_, d)| d))?;

        // Retirement-progress watchdog: armed only when instructions
        // were issued since the previous check (pure memory stalls
        // always resolve — modelled latencies are finite — and must
        // not trip the heartbeat).
        if let Some((wd, deadline)) = due {
            let interval = wd.interval.max(1);
            hard.wd_next = (now / interval + 1) * interval;
            let instr = self.stats.vector_instructions;
            if instr > hard.wd_last_instr {
                hard.wd_last_instr = instr;
                let fp = self.arch_fingerprint();
                if hard.wd_fp_valid && fp == hard.wd_last_fp {
                    hard.wd_streak += 1;
                    if hard.wd_streak >= wd.patience.max(1) {
                        self.hard = Some(hard);
                        return Err(SimError::Watchdog { cycle: deadline });
                    }
                } else {
                    hard.wd_streak = 0;
                    hard.wd_last_fp = fp;
                    hard.wd_fp_valid = true;
                }
            }
            self.apply_injections_until(hard, now)?;
        }
        self.hard = Some(hard);
        Ok(())
    }

    /// Applies every pending injection whose cycle is at most `until`,
    /// logging each at its own cycle.
    fn apply_injections_until(
        &mut self,
        hard: &mut HardenState,
        until: u64,
    ) -> Result<(), SimError> {
        while let Some(inj) = hard
            .injections
            .get(hard.next_inj)
            .filter(|inj| inj.cycle <= until)
        {
            hard.next_inj += 1;
            let outcome = Self::apply_injection(&mut self.cus, self.memory, inj)?;
            hard.log.events.push(FaultEvent {
                cycle: inj.cycle,
                label: inj.label.clone(),
                outcome,
            });
        }
        Ok(())
    }

    /// Hash of all architectural state the watchdog watches: PCs,
    /// activity masks, registers, IDs, barrier/done flags, LRAM and
    /// the dispatch position. Global memory is excluded for cost; a
    /// kernel making progress only through memory writes still changes
    /// registers (addresses, loop counters) every iteration.
    fn arch_fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.next_group.hash(&mut h);
        for cu in &self.cus {
            cu.local_mem.hash(&mut h);
            cu.wavefronts.len().hash(&mut h);
            for wf in &cu.wavefronts {
                wf.fingerprint(&mut h);
            }
        }
        h.finish()
    }

    /// Applies one injection to the machine. Unresolvable coordinates
    /// (index out of range, retired slot) are [`InjectionOutcome::Vacant`];
    /// protection is decided by the total codeword flip count. This
    /// function cannot panic for any `(site, cycle, bits)` input.
    fn apply_injection(
        cus: &mut [ComputeUnit<W>],
        memory: &mut GlobalMemory,
        inj: &Injection,
    ) -> Result<InjectionOutcome, SimError> {
        /// A resolved mutable view of the targeted state.
        enum Slot<'m, W: Wave> {
            Word(&'m mut u32),
            Mask(&'m mut W, u32),
        }
        fn wf_of<W: Wave>(cus: &mut [ComputeUnit<W>], cu: u32, slot: u32) -> Option<&mut W> {
            cus.get_mut(cu as usize)
                .and_then(|c| c.wavefronts.get_mut(slot as usize))
                .filter(|w| !w.done())
        }
        // Invalidate the targeted CU's cached pass summary: an upset
        // can change what the next scan would conclude (e.g. an
        // exec-mask flip feeding a retirement on the next issue).
        match inj.site {
            FaultSite::Register { cu, .. }
            | FaultSite::LocalWord { cu, .. }
            | FaultSite::Pc { cu, .. }
            | FaultSite::ExecMask { cu, .. } => {
                if let Some(c) = cus.get_mut(cu as usize) {
                    c.dirty = true;
                }
            }
            FaultSite::GlobalWord { .. } => {}
        }
        let slot: Option<Slot<'_, W>> = match inj.site {
            FaultSite::Register {
                cu,
                slot,
                lane,
                reg,
            } => wf_of(cus, cu, slot)
                .and_then(|w| w.reg_slot(lane, reg))
                .map(Slot::Word),
            FaultSite::LocalWord { cu, word } => cus
                .get_mut(cu as usize)
                .and_then(|c| c.local_mem.get_mut(word as usize))
                .map(Slot::Word),
            FaultSite::GlobalWord { word } => memory.word_mut(word as usize).map(Slot::Word),
            FaultSite::Pc { cu, slot, lane } => wf_of(cus, cu, slot)
                .and_then(|w| w.pc_slot(lane))
                .map(Slot::Word),
            FaultSite::ExecMask { cu, slot, lane } => wf_of(cus, cu, slot)
                .and_then(|w| w.has_lane(lane).then_some(w))
                .map(|w| Slot::Mask(w, lane)),
        };
        let Some(slot) = slot else {
            return Ok(InjectionOutcome::Vacant);
        };
        let apply = |slot: Slot<'_, W>| match slot {
            Slot::Word(w) => {
                for &b in &inj.flips {
                    *w ^= 1u32 << (b % 32);
                }
            }
            Slot::Mask(w, lane) => w.toggle_exec(lane),
        };
        let total = inj.codeword_flips.max(inj.flips.len() as u32);
        let detected = || {
            SimError::UncorrectableFault(crate::fault::FaultReport {
                cycle: inj.cycle,
                label: inj.label.clone(),
                domain: inj.site.domain(),
                flips: total,
            })
        };
        match inj.protection {
            Protection::None => {
                apply(slot);
                Ok(InjectionOutcome::Applied)
            }
            _ if total == 0 => Ok(InjectionOutcome::Vacant),
            Protection::Parity => {
                if total % 2 == 1 {
                    // Odd flip count inverts the parity: detected, not
                    // correctable — surfaced as a typed error.
                    Err(detected())
                } else {
                    // Even flip counts cancel in the parity sum and
                    // land silently (potential SDC).
                    apply(slot);
                    Ok(InjectionOutcome::Applied)
                }
            }
            Protection::SecDed => match total {
                1 => Ok(InjectionOutcome::Corrected),
                t if t % 2 == 0 => Err(detected()),
                _ => {
                    // Odd >= 3: the decoder sees a plausible single-bit
                    // syndrome and "corrects" the wrong bit.
                    apply(slot);
                    Ok(InjectionOutcome::MisCorrected)
                }
            },
        }
    }

    /// Executes one scheduler pass at simulated time `now`: per CU in
    /// index order, workgroup dispatch, then (unless the issue stage
    /// is occupied) round-robin selection and issue of one vector
    /// instruction. This is exactly one iteration of the
    /// cycle-stepping loop; the event-driven driver calls it only at event
    /// times.
    fn pass(&mut self, now: u64) -> Result<PassOutcome, SimError> {
        self.stats.sched_iterations += 1;
        let mut out = PassOutcome {
            any_alive: false,
            became_done: false,
            dispatched: false,
        };
        for cu in self.cus.iter_mut() {
            let may_dispatch = cu.dispatch_hint && self.next_group < self.total_groups;
            let has_live;
            if !cu.dirty && !may_dispatch {
                // Nothing mutated this CU since its summary was
                // cached and no dispatch work is pending: answer the
                // liveness/busy/stall questions from the two cached
                // words and only fall through to wavefront selection
                // when an issue is guaranteed to happen.
                if cu.cached_live {
                    out.any_alive = true;
                }
                if cu.busy_until > now {
                    self.stats.busy_cycles += 1;
                    continue;
                }
                if !cu.cached_live {
                    continue;
                }
                if cu.cached_ready > now {
                    self.stats.stall_cycles += 1;
                    continue;
                }
                // `cached_ready <= now`: some live non-barrier
                // wavefront is ready, so the round-robin scan below
                // must find one.
                has_live = true;
            } else {
                // Dispatch whole workgroups into free wavefront slots.
                // Retired wavefronts are compacted once, *before* the slot
                // computation (not per dispatched group) — into the reuse
                // pool, preserving resident order — and the round-robin
                // cursor is re-clamped so compaction cannot leave it
                // pointing past the end of the list.
                if may_dispatch {
                    let mut i = 0;
                    while i < cu.wavefronts.len() {
                        if cu.wavefronts[i].done() {
                            let retired = cu.wavefronts.remove(i);
                            cu.pool.push(retired);
                        } else {
                            i += 1;
                        }
                    }
                    if cu.rr_cursor >= cu.wavefronts.len() {
                        cu.rr_cursor = 0;
                    }
                    while self.next_group < self.total_groups {
                        // All retired wavefronts were compacted into the
                        // pool above, so every resident wavefront is live.
                        let live = cu.wavefronts.len() as u32;
                        let free = self.env.config.max_wavefronts_per_cu - live;
                        let first_item = self.next_group * self.env.workgroup_size;
                        let items_in_group = self
                            .env
                            .workgroup_size
                            .min(self.env.global_size - first_item);
                        let needed = self.env.config.wavefronts_per_group(items_in_group);
                        if needed > free {
                            // Re-armed by the next retirement on this CU.
                            cu.dispatch_hint = false;
                            break;
                        }
                        for wf_idx in 0..needed {
                            let first_local = wf_idx * self.env.config.wavefront_size;
                            let items = self
                                .env
                                .config
                                .wavefront_size
                                .min(items_in_group - first_local);
                            let wave = match cu.pool.pop() {
                                Some(mut recycled) => {
                                    recycled.reinit(
                                        self.next_group,
                                        first_item + first_local,
                                        first_local,
                                        items,
                                    );
                                    recycled
                                }
                                None => W::new(
                                    self.env.config.wavefront_size,
                                    self.next_group,
                                    first_item + first_local,
                                    first_local,
                                    items,
                                ),
                            };
                            cu.wavefronts.push(wave);
                            self.stats.wavefronts += 1;
                        }
                        self.next_group += 1;
                        out.dispatched = true;
                        cu.dirty = true;
                    }
                }

                has_live = cu.wavefronts.iter().any(|w| !w.done());
                if has_live {
                    out.any_alive = true;
                }
                if cu.busy_until > now {
                    self.stats.busy_cycles += 1;
                    continue;
                }
            }
            // Round-robin wavefront selection (wrap by subtraction:
            // the resident count is not a power of two, so `%` here
            // is a hardware divide on the hottest scheduler path).
            // The scan doubles as the event scan: it records the
            // earliest readiness among the issuable wavefronts it did
            // *not* pick, so the post-issue summary can be completed
            // in O(1) instead of rescanning the list in `advance`.
            let n_wf = cu.wavefronts.len();
            let mut chosen = None;
            let mut min_other = u64::MAX;
            let mut idx = cu.rr_cursor;
            for _ in 0..n_wf {
                if idx >= n_wf {
                    idx -= n_wf;
                }
                let wf = &cu.wavefronts[idx];
                if !wf.done() && !wf.at_barrier() {
                    let r = wf.ready_at();
                    if chosen.is_none() && r <= now {
                        chosen = Some(idx);
                    } else {
                        min_other = min_other.min(r);
                    }
                }
                idx += 1;
            }
            let Some(idx) = chosen else {
                if has_live {
                    self.stats.stall_cycles += 1;
                }
                continue;
            };
            cu.rr_cursor = if idx + 1 >= n_wf { 0 } else { idx + 1 };

            let retired = Self::issue(
                &self.env,
                self.memory,
                &mut self.cache,
                cu,
                idx,
                now,
                min_other,
                &mut self.stats,
                &mut self.scratch,
                self.trace.as_deref_mut(),
            )?;
            if retired {
                cu.dispatch_hint = true;
                out.became_done = true;
            }
        }
        Ok(out)
    }

    /// Issues one vector instruction for wavefront `idx` of `cu`:
    /// delegates the lane loop to the wave engine, then performs the
    /// engine-independent beat/latency/occupancy accounting and
    /// barrier-release bookkeeping. Returns whether a wavefront
    /// retired (freeing a dispatch slot).
    ///
    /// `min_other` is the earliest readiness among the issuable
    /// wavefronts the selection scan did *not* pick: combined with the
    /// issued wavefront's new readiness it completes the CU's cached
    /// event summary without another list scan. Barrier arrivals and
    /// retirements can move other wavefronts (group release), so those
    /// paths fall back to marking the summary dirty.
    #[allow(clippy::too_many_arguments)]
    fn issue(
        env: &IssueEnv<'_>,
        memory: &mut GlobalMemory,
        cache: &mut SharedCache,
        cu: &mut ComputeUnit<W>,
        idx: usize,
        now: u64,
        min_other: u64,
        stats: &mut RunStats,
        scratch: &mut W::Scratch,
        trace: Option<&mut ExecTrace>,
    ) -> Result<bool, SimError> {
        if let Some(trace) = trace {
            cu.wavefronts[idx].observe(env, memory.len(), cu.local_mem.len(), trace);
        }
        let wf = &mut cu.wavefronts[idx];
        let (inst, lane_count, mem_ready, local_beats) =
            match wf.step(env, memory, &mut cu.local_mem, cache, now, scratch)? {
                StepOut::Retired => {
                    cu.dirty = true;
                    return Ok(true);
                }
                StepOut::Issued {
                    inst,
                    lane_count,
                    mem_ready,
                    local_beats,
                } => (inst, lane_count, mem_ready, local_beats),
            };
        stats.vector_instructions += 1;
        stats.lane_ops += u64::from(lane_count);

        let base_beats = u64::from(
            match env.pes_shift {
                Some(s) => (lane_count + (1 << s) - 1) >> s,
                None => lane_count.div_ceil(env.config.pes_per_cu),
            }
            .max(1),
        );
        // One decode for the whole timing model: occupancy beats
        // (divides serialize on the shared iterative divider) and
        // result latency together.
        let (beats, latency) = match inst {
            Inst::Alu { op, .. } | Inst::AluImm { op, .. } => match op {
                AluOp::Mul => (base_beats, u64::from(env.config.mul_latency)),
                AluOp::Divu | AluOp::Remu => (
                    base_beats + u64::from(lane_count) * u64::from(env.config.div_serial),
                    u64::from(env.config.div_latency),
                ),
                _ => (base_beats, u64::from(env.config.alu_latency)),
            },
            // Memory latency is folded into `mem_ready`.
            Inst::Lw { .. } | Inst::Sw { .. } => (base_beats, 0),
            // Bank conflicts occupy the issue stage for extra beats:
            // the LRAM crossbar replays the beat until every bank has
            // delivered its distinct words.
            Inst::Lwl { .. } | Inst::Swl { .. } => (
                base_beats + local_beats,
                u64::from(env.config.local_latency),
            ),
            _ => (base_beats, u64::from(env.config.alu_latency)),
        };
        stats.lram_conflict_cycles += local_beats;
        let new_ready = (now + beats + latency).max(mem_ready);
        let wf = &mut cu.wavefronts[idx];
        wf.set_ready_at(new_ready);
        cu.busy_until = now + beats;
        let became_done = matches!(inst, Inst::Ret) && cu.wavefronts[idx].done();

        // Workgroup barrier release: once every live wavefront of the
        // group has arrived (or exited), advance the waiters. Checked
        // when a barrier is reached and when a wavefront retires —
        // both events can complete a group.
        if matches!(inst, Inst::Bar) || became_done {
            let group = cu.wavefronts[idx].group_id();
            Self::release_barrier_group(cu, group, now);
            cu.dirty = true;
        } else {
            // The only state change was the issued wavefront's new
            // readiness: the cached summary is exact again.
            cu.cached_ready = min_other.min(new_ready);
            cu.cached_live = true;
            cu.dirty = false;
        }
        Ok(became_done)
    }

    /// Advances every waiting wavefront of `group` past its barrier if
    /// no live wavefront of the group is still on its way there.
    fn release_barrier_group(cu: &mut ComputeUnit<W>, group: u32, now: u64) {
        let all_arrived = cu
            .wavefronts
            .iter()
            .filter(|w| !w.done() && w.group_id() == group)
            .all(|w| w.at_barrier());
        let any_waiting = cu
            .wavefronts
            .iter()
            .any(|w| !w.done() && w.group_id() == group && w.at_barrier());
        if all_arrived && any_waiting {
            for w in cu
                .wavefronts
                .iter_mut()
                .filter(|w| !w.done() && w.group_id() == group)
            {
                w.release_from_barrier(now);
            }
        }
    }
}

/// Shared `observe` tail used by both engines once they have resolved
/// the issuing PC and the ascending-ordered issue set: computes
/// per-lane addresses, store values and branch outcomes from a
/// register-read closure (`reg(ordinal, r)` reads register `r` of the
/// ordinal-th issuing lane) and records them into the trace. Only
/// memory and branch instructions leave observations.
#[allow(clippy::too_many_arguments)]
pub(crate) fn observe_issue(
    trace: &mut ExecTrace,
    env: &IssueEnv<'_>,
    pc: u32,
    lane_count: usize,
    contiguous: bool,
    memory_words: usize,
    local_words: usize,
    mut reg: impl FnMut(usize, ggpu_isa::inst::Reg) -> u32,
) {
    let Some(&inst) = env.program.get(pc as usize) else {
        return;
    };
    let pcu = pc as usize;
    let addr = |reg: &mut dyn FnMut(usize, ggpu_isa::inst::Reg) -> u32,
                l: usize,
                rs1: ggpu_isa::inst::Reg,
                imm: i16| reg(l, rs1).wrapping_add(imm as i32 as u32);
    match inst {
        Inst::Lw { rs1, imm, .. } => {
            let lanes: Vec<(u32, u32)> = (0..lane_count)
                .map(|l| (addr(&mut reg, l, rs1, imm), 0))
                .collect();
            trace.record_access(pcu, false, false, contiguous, &lanes, memory_words);
        }
        Inst::Sw { rs1, rs2, imm } => {
            let lanes: Vec<(u32, u32)> = (0..lane_count)
                .map(|l| (addr(&mut reg, l, rs1, imm), reg(l, rs2)))
                .collect();
            trace.record_access(pcu, false, true, contiguous, &lanes, memory_words);
        }
        Inst::Lwl { rs1, imm, .. } => {
            let lanes: Vec<(u32, u32)> = (0..lane_count)
                .map(|l| (addr(&mut reg, l, rs1, imm), 0))
                .collect();
            trace.record_access(pcu, true, false, contiguous, &lanes, local_words);
        }
        Inst::Swl { rs1, rs2, imm } => {
            let lanes: Vec<(u32, u32)> = (0..lane_count)
                .map(|l| (addr(&mut reg, l, rs1, imm), reg(l, rs2)))
                .collect();
            trace.record_access(pcu, true, true, contiguous, &lanes, local_words);
        }
        Inst::Branch { cond, rs1, rs2, .. } => {
            let mut any_taken = false;
            let mut any_not = false;
            for l in 0..lane_count {
                if cond.test(reg(l, rs1), reg(l, rs2)) {
                    any_taken = true;
                } else {
                    any_not = true;
                }
            }
            trace.record_branch(pcu, any_taken, any_not);
        }
        _ => {}
    }
}

/// The scalar oracle engine: per-lane `Vec`s and scalar loops,
/// byte-for-byte the historical simulator semantics. The only
/// behavioural-neutral change from the historical code is that the
/// per-instruction lane list and the per-access touched-line list live
/// in a reusable [`ScalarScratch`] instead of being allocated fresh
/// for every instruction.
pub(crate) struct ScalarWave {
    pcs: Vec<u32>,
    active: Vec<bool>,
    regs: Vec<u32>,
    global_ids: Vec<u32>,
    local_ids: Vec<u32>,
    group_id: u32,
    ready_at: u64,
    done: bool,
    at_barrier: bool,
}

/// Reusable buffers for the scalar engine's instruction loop.
#[derive(Default)]
pub(crate) struct ScalarScratch {
    /// Active lanes at the issuing PC.
    lanes: Vec<usize>,
    /// Cache lines already arbitrated for this instruction.
    touched_lines: Vec<u64>,
    /// LRAM word indices of this issue, in lane order (banked model).
    local_words: Vec<u32>,
}

impl ScalarWave {
    fn reg(&self, lane: usize, r: ggpu_isa::inst::Reg) -> u32 {
        self.regs[lane * 32 + r.index()]
    }

    fn min_active_pc(&self) -> Option<u32> {
        self.pcs
            .iter()
            .zip(&self.active)
            .filter(|(_, &a)| a)
            .map(|(&pc, _)| pc)
            .min()
    }
}

impl Wave for ScalarWave {
    type Scratch = ScalarScratch;

    fn new(wf_size: u32, group_id: u32, first_global: u32, first_local: u32, items: u32) -> Self {
        let n = wf_size as usize;
        let mut wave = Self {
            pcs: vec![0; n],
            active: vec![false; n],
            regs: vec![0; n * 32],
            global_ids: vec![0; n],
            local_ids: vec![0; n],
            group_id,
            ready_at: 0,
            done: items == 0,
            at_barrier: false,
        };
        for lane in 0..items as usize {
            wave.active[lane] = true;
            wave.global_ids[lane] = first_global + lane as u32;
            wave.local_ids[lane] = first_local + lane as u32;
        }
        wave
    }

    fn reinit(&mut self, group_id: u32, first_global: u32, first_local: u32, items: u32) {
        self.pcs.fill(0);
        self.active.fill(false);
        self.regs.fill(0);
        self.global_ids.fill(0);
        self.local_ids.fill(0);
        for lane in 0..items as usize {
            self.active[lane] = true;
            self.global_ids[lane] = first_global + lane as u32;
            self.local_ids[lane] = first_local + lane as u32;
        }
        self.group_id = group_id;
        self.ready_at = 0;
        self.done = items == 0;
        self.at_barrier = false;
    }

    fn done(&self) -> bool {
        self.done
    }

    fn at_barrier(&self) -> bool {
        self.at_barrier
    }

    fn ready_at(&self) -> u64 {
        self.ready_at
    }

    fn set_ready_at(&mut self, t: u64) {
        self.ready_at = t;
    }

    fn group_id(&self) -> u32 {
        self.group_id
    }

    fn step(
        &mut self,
        env: &IssueEnv<'_>,
        memory: &mut GlobalMemory,
        local_mem: &mut [u32],
        cache: &mut SharedCache,
        now: u64,
        scratch: &mut ScalarScratch,
    ) -> Result<StepOut, SimError> {
        let Some(pc) = self.min_active_pc() else {
            self.done = true;
            return Ok(StepOut::Retired);
        };
        let inst = *env
            .program
            .get(pc as usize)
            .ok_or(SimError::PcOutOfRange { pc })?;

        scratch.lanes.clear();
        scratch
            .lanes
            .extend((0..self.pcs.len()).filter(|&l| self.active[l] && self.pcs[l] == pc));
        let lanes = &scratch.lanes;
        let lane_count = lanes.len() as u32;
        let mut mem_ready: u64 = now;
        let mut local_beats: u64 = 0;

        match inst {
            Inst::Alu { op, rd, rs1, rs2 } => {
                for &l in lanes {
                    let v = op.apply(self.reg(l, rs1), self.reg(l, rs2));
                    self.regs[l * 32 + rd.index()] = v;
                    self.pcs[l] = pc + 1;
                }
            }
            Inst::AluImm { op, rd, rs1, imm } => {
                for &l in lanes {
                    let v = op.apply(self.reg(l, rs1), imm as i32 as u32);
                    self.regs[l * 32 + rd.index()] = v;
                    self.pcs[l] = pc + 1;
                }
            }
            Inst::Lui { rd, imm } => {
                for &l in lanes {
                    self.regs[l * 32 + rd.index()] = u32::from(imm) << 16;
                    self.pcs[l] = pc + 1;
                }
            }
            Inst::ReadId { rd, src } => {
                for &l in lanes {
                    let v = match src {
                        IdSource::GlobalId => self.global_ids[l],
                        IdSource::LocalId => self.local_ids[l],
                        IdSource::GroupId => self.group_id,
                        IdSource::GroupSize => env.workgroup_size,
                        IdSource::GlobalSize => env.global_size,
                    };
                    self.regs[l * 32 + rd.index()] = v;
                    self.pcs[l] = pc + 1;
                }
            }
            Inst::Param { rd, idx: p } => {
                // `idx` is a free u8 in the encoding; a slot outside
                // the 8 RTM words is a typed error, not an index panic.
                let v = *env
                    .params
                    .get(p as usize)
                    .ok_or(SimError::ParamOutOfRange { pc, idx: p })?;
                for &l in lanes {
                    self.regs[l * 32 + rd.index()] = v;
                    self.pcs[l] = pc + 1;
                }
            }
            Inst::Lw { rd, rs1, imm } | Inst::Sw { rs1, rs2: rd, imm } => {
                let is_store = matches!(inst, Inst::Sw { .. });
                // Coalesce: unique lines accessed once, in first-touch
                // lane order (the arbitration order is architectural:
                // it decides bank/interface queueing).
                scratch.touched_lines.clear();
                for &l in lanes {
                    let addr = self.reg(l, rs1).wrapping_add(imm as i32 as u32);
                    if !addr.is_multiple_of(4) {
                        return Err(SimError::Unaligned { addr });
                    }
                    let widx = (addr / 4) as usize;
                    if widx >= memory.len() {
                        return Err(SimError::MemoryOutOfBounds { addr });
                    }
                    if is_store {
                        memory.store(widx, self.reg(l, rd));
                    } else {
                        self.regs[l * 32 + rd.index()] = memory[widx];
                    }
                    let line = u64::from(addr) / u64::from(cache.line_bytes());
                    if !scratch.touched_lines.contains(&line) {
                        scratch.touched_lines.push(line);
                        let ready = cache.access(now, u64::from(addr), is_store);
                        mem_ready = mem_ready.max(ready);
                    }
                    self.pcs[l] = pc + 1;
                }
            }
            Inst::Lwl { rd, rs1, imm } | Inst::Swl { rs1, rs2: rd, imm } => {
                let is_store = matches!(inst, Inst::Swl { .. });
                let banked = env.config.lram.banks();
                scratch.local_words.clear();
                for &l in lanes {
                    let addr = self.reg(l, rs1).wrapping_add(imm as i32 as u32);
                    if !addr.is_multiple_of(4) {
                        return Err(SimError::Unaligned { addr });
                    }
                    let widx = (addr / 4) as usize;
                    if widx >= local_mem.len() {
                        return Err(SimError::LocalOutOfBounds { addr });
                    }
                    // Collected before the access commits: a `lwl`
                    // whose destination is its own address register
                    // destroys the address.
                    if banked.is_some() {
                        scratch.local_words.push(widx as u32);
                    }
                    if is_store {
                        local_mem[widx] = self.reg(l, rd);
                    } else {
                        self.regs[l * 32 + rd.index()] = local_mem[widx];
                    }
                    self.pcs[l] = pc + 1;
                }
                if let Some(banks) = banked {
                    local_beats = crate::memsys::lram_conflict_beats(
                        &scratch.local_words,
                        banks,
                        env.config.pes_per_cu as usize,
                    );
                }
            }
            Inst::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                for &l in lanes {
                    let taken = cond.test(self.reg(l, rs1), self.reg(l, rs2));
                    self.pcs[l] = if taken { target } else { pc + 1 };
                }
            }
            Inst::Jmp { target } => {
                for &l in lanes {
                    self.pcs[l] = target;
                }
            }
            Inst::Bar => {
                // All active lanes must arrive together (uniform
                // control flow at barriers, as on real SIMT machines).
                let active_count = self.active.iter().filter(|&&a| a).count();
                if lanes.len() != active_count {
                    return Err(SimError::DivergentBarrier { pc });
                }
                self.at_barrier = true;
                // PCs advance only on release.
            }
            Inst::Ret => {
                for &l in lanes {
                    self.active[l] = false;
                }
                if self.active.iter().all(|&a| !a) {
                    self.done = true;
                }
            }
        }
        Ok(StepOut::Issued {
            inst,
            lane_count,
            mem_ready,
            local_beats,
        })
    }

    fn observe(
        &self,
        env: &IssueEnv<'_>,
        memory_words: usize,
        local_words: usize,
        trace: &mut ExecTrace,
    ) {
        // Mirrors the selection at the top of `step`: min active PC,
        // then every active lane parked there, in ascending order.
        let Some(pc) = self.min_active_pc() else {
            return;
        };
        let lanes: Vec<usize> = (0..self.pcs.len())
            .filter(|&l| self.active[l] && self.pcs[l] == pc)
            .collect();
        let contiguous = lanes.iter().enumerate().all(|(i, &l)| i == l);
        observe_issue(
            trace,
            env,
            pc,
            lanes.len(),
            contiguous,
            memory_words,
            local_words,
            |i, r| self.reg(lanes[i], r),
        );
    }

    fn release_from_barrier(&mut self, now: u64) {
        self.at_barrier = false;
        for l in 0..self.pcs.len() {
            if self.active[l] {
                self.pcs[l] += 1;
            }
        }
        self.ready_at = self.ready_at.max(now + 1);
    }

    fn fingerprint(&self, h: &mut DefaultHasher) {
        self.pcs.hash(h);
        self.active.hash(h);
        self.regs.hash(h);
        self.global_ids.hash(h);
        self.local_ids.hash(h);
        self.group_id.hash(h);
        self.done.hash(h);
        self.at_barrier.hash(h);
    }

    fn has_lane(&self, lane: u32) -> bool {
        (lane as usize) < self.pcs.len()
    }

    fn reg_slot(&mut self, lane: u32, reg: u8) -> Option<&mut u32> {
        if !self.has_lane(lane) {
            return None;
        }
        self.regs
            .get_mut(lane as usize * 32 + usize::from(reg & 31))
    }

    fn pc_slot(&mut self, lane: u32) -> Option<&mut u32> {
        self.pcs.get_mut(lane as usize)
    }

    fn toggle_exec(&mut self, lane: u32) {
        if let Some(a) = self.active.get_mut(lane as usize) {
            *a = !*a;
        }
    }
}
