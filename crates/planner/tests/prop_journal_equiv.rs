//! Equivalence and revert-fidelity properties of the transactional
//! transform engine.
//!
//! The journal path (`TransformJournal` rebase over one copy-on-write
//! design) must be observationally *bit-identical* to the retained
//! clone-and-replay reference (`apply_plan_clone_dirty`): same designs,
//! same Verilog bytes, same advisory dirty sets, same `TimingReport`s
//! down to slack bit patterns. And every revert must restore the
//! design exactly — structural fingerprint, per-module fingerprints and
//! exported Verilog included — because the incremental STA engine keys
//! on that content.

mod common;

use common::{random_design, random_plan};
use ggpu_netlist::{to_structural_verilog, Design};
use ggpu_prop::{cases, Rng};
use ggpu_sta::analyze;
use ggpu_tech::sram::MIN_WORDS;
use ggpu_tech::units::Mhz;
use ggpu_tech::Tech;
use gpuplanner::{apply_plan_clone_dirty, apply_plan_dirty, Action, StaCache, TransformJournal};

/// Every per-module fingerprint of `d`, in arena order.
fn module_fps(d: &Design) -> Vec<u64> {
    d.module_ids().map(|id| d.module_fingerprint(id)).collect()
}

/// A random action valid against the *current* state of `design`
/// (macros may already be division parts).
fn random_action(rng: &mut Rng, design: &Design) -> Option<Action> {
    let mut candidates = Vec::new();
    for id in design.module_ids() {
        let module = design.module(id);
        for mac in &module.macros {
            if mac.config.words / 2 >= MIN_WORDS && mac.config.words % 2 == 0 {
                candidates.push(Action::Divide {
                    module: module.name.clone(),
                    macro_name: mac.name.clone(),
                    factor: 2,
                    axis: ggpu_synth::DivideAxis::Words,
                });
            }
        }
        for path in &module.paths {
            if path.depth() >= 2 {
                candidates.push(Action::Pipeline {
                    module: module.name.clone(),
                    path: path.name.clone(),
                });
            }
        }
    }
    if candidates.is_empty() {
        return None;
    }
    let idx = rng.usize_in(0, candidates.len() - 1);
    Some(candidates.swap_remove(idx))
}

#[test]
fn random_plans_journal_vs_clone_are_bit_identical() {
    let tech = Tech::l65();
    cases(48, |rng| {
        let base = random_design(rng);
        let plan = random_plan(rng, &base);
        let clock = Mhz::new(rng.f64_in(200.0, 900.0));

        let (journal, dirty_j) = apply_plan_dirty(&base, &plan).expect("journal applies");
        let (clone, dirty_c) = apply_plan_clone_dirty(&base, &plan).expect("clone applies");

        // Designs, dirty sets, fingerprints and exported Verilog all
        // agree byte-for-byte.
        assert_eq!(journal, clone, "designs diverge");
        assert_eq!(dirty_j, dirty_c, "dirty sets diverge");
        assert_eq!(
            journal.structural_fingerprint(),
            clone.structural_fingerprint()
        );
        assert_eq!(module_fps(&journal), module_fps(&clone));
        assert_eq!(
            to_structural_verilog(&journal),
            to_structural_verilog(&clone),
            "verilog diverges"
        );

        // The journal's dirty set feeds analyze_delta directly; the
        // result must match a from-scratch analysis of the clone-path
        // design down to slack bit patterns and report order, with no
        // undeclared mutations.
        let cache = StaCache::new();
        cache.analyze(&base, &tech, clock).expect("baseline times");
        let incremental = cache
            .analyze_delta(&journal, &tech, clock, &dirty_j)
            .expect("delta times");
        let full = analyze(&clone, &tech, clock).expect("full times");
        assert_eq!(incremental, full, "reports diverge");
        for (a, b) in incremental.paths().iter().zip(full.paths()) {
            assert_eq!(
                a.slack.value().to_bits(),
                b.slack.value().to_bits(),
                "slack bits diverge on {}::{}",
                a.module,
                a.path
            );
        }
        assert_eq!(cache.engine_stats().undeclared_dirty, 0);

        let f_inc = cache.max_frequency(&journal, &tech).expect("fmax");
        let f_full = ggpu_sta::max_frequency(&clone, &tech).expect("fmax");
        match (f_inc, f_full) {
            (Some(a), Some(b)) => assert_eq!(a.value().to_bits(), b.value().to_bits()),
            (a, b) => assert_eq!(a, b),
        }
    });
}

#[test]
fn random_apply_revert_walks_restore_snapshots_bit_identically() {
    cases(48, |rng| {
        let base = random_design(rng);
        let mut journal = TransformJournal::new(&base);
        // `snaps[i]` is the design state at journal depth i; deep
        // clones, so they cannot share (and thus mask) CoW state with
        // the journal's working design.
        let mut snaps: Vec<Design> = vec![base.deep_clone()];

        for _ in 0..rng.usize_in(4, 12) {
            if rng.chance(0.35) && !journal.is_empty() {
                journal.revert_last().expect("non-empty journal");
                snaps.pop();
                let want = snaps.last().expect("base snapshot remains");
                assert_eq!(journal.design(), want, "revert diverges from snapshot");
                assert_eq!(
                    journal.design().structural_fingerprint(),
                    want.structural_fingerprint()
                );
            } else if let Some(action) = random_action(rng, journal.design()) {
                if journal.apply(&action).is_ok() {
                    snaps.push(journal.design().deep_clone());
                }
            }
            assert_eq!(journal.len() + 1, snaps.len());
        }

        // Occasionally exercise a named checkpoint + rollback range.
        if rng.chance(0.5) {
            let depth = journal.len();
            let cp = journal.checkpoint("walk");
            for _ in 0..rng.usize_in(1, 3) {
                if let Some(action) = random_action(rng, journal.design()) {
                    let _ = journal.apply(&action);
                }
            }
            journal.rollback_to(&cp);
            assert_eq!(journal.len(), depth);
            assert_eq!(journal.design(), snaps.last().expect("snapshot"));
        }

        // Full unwind: apply* -> revert* restores the base design
        // bit-identically (S4's revert-fidelity property).
        while journal.revert_last().is_some() {}
        assert_eq!(journal.design(), &base);
        assert_eq!(
            journal.design().structural_fingerprint(),
            base.structural_fingerprint()
        );
        assert_eq!(module_fps(journal.design()), module_fps(&base));
        assert_eq!(
            to_structural_verilog(journal.design()),
            to_structural_verilog(&base)
        );
    });
}

#[test]
fn random_rebase_chains_match_fresh_replay() {
    // The greedy loop's actual access pattern: a chain of related
    // plans (factors double, pipelines append) rebased through one
    // journal, each compared against a fresh clone-path replay.
    cases(24, |rng| {
        let base = random_design(rng);
        let mut journal = TransformJournal::new(&base);
        let mut plan = gpuplanner::OptimizationPlan::default();
        for _ in 0..rng.usize_in(2, 5) {
            // Mutate the plan the way the DSE does.
            if rng.chance(0.6) {
                let keys: Vec<_> = {
                    let mut found = Vec::new();
                    for id in base.module_ids() {
                        let m = base.module(id);
                        for mac in &m.macros {
                            found.push((m.name.clone(), mac.name.clone(), mac.config.words));
                        }
                    }
                    found
                };
                if keys.is_empty() {
                    continue;
                }
                let (module, mac, words) = keys[rng.usize_in(0, keys.len() - 1)].clone();
                let entry = plan.divisions.entry((module, mac)).or_insert(1);
                if words / (*entry * 2) >= MIN_WORDS {
                    *entry *= 2;
                }
                plan.divisions.retain(|_, f| *f >= 2);
            } else {
                for id in base.module_ids() {
                    let m = base.module(id);
                    let key = (m.name.clone(), "logic".to_string());
                    // A second insertion on the same path would fail:
                    // the split renames it to `logic__p0`/`__p1`.
                    if m.paths.iter().any(|p| p.name == "logic")
                        && !plan.pipelines.contains(&key)
                        && rng.chance(0.5)
                    {
                        plan.pipelines.push(key);
                        break;
                    }
                }
            }
            let dirty = journal.rebase(&plan).expect("rebase applies");
            let (replay, _) = apply_plan_clone_dirty(&base, &plan).expect("replay applies");
            assert_eq!(journal.design(), &replay, "rebase diverges from replay");
            assert_eq!(
                to_structural_verilog(journal.design()),
                to_structural_verilog(&replay)
            );
            // Dirty modules are a subset of the arena and sorted.
            assert!(dirty.windows(2).all(|w| w[0] < w[1]));
        }
    });
}
