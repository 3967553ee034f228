//! Beam search over the transform journal.
//!
//! The greedy loop follows the frequency map's single advice; a beam
//! of width *k* keeps the `k` most promising candidate plans alive and
//! expands each with the remedies for its worst paths
//! ([`crate::map::advise_candidates`]). This is exactly the search the
//! clone-per-candidate flow could not afford: evaluating a candidate
//! here is a journal rebase (revert + re-apply of the differing plan
//! suffix over one copy-on-write design) plus a memoized STA query —
//! sibling candidates share their common prefix through the journal
//! and their unchanged modules through the incremental engine.
//!
//! **Never worse than greedy**: the chain built by always taking the
//! first candidate (the map's own advice) is marked *protected* and is
//! exempt from beam pruning, so whatever greedy would have found is
//! still in the beam when the search terminates. The search returns at
//! the earliest iteration in which any candidate meets the target —
//! i.e. with at most as many transform steps as greedy — picking the
//! met candidate with the highest fmax.

use crate::cache::StaCache;
use crate::dse::{original_macro_name, DseError, OptimizationPlan, Optimized};
use crate::dse::{MAX_ITERS, MIN_PROGRESS_MHZ};
use crate::journal::TransformJournal;
use crate::map::{advise_candidates, Advice};
use ggpu_netlist::Design;
use ggpu_tech::units::Mhz;
use ggpu_tech::Tech;

/// One live candidate in the beam.
#[derive(Debug, Clone)]
struct BeamState {
    plan: OptimizationPlan,
    trace: Vec<String>,
    /// Best fmax seen along this chain (greedy's progress guard).
    best: Mhz,
    /// fmax of the state's design (filled by the ranking pass).
    fmax: Mhz,
    /// `true` on the chain greedy itself would have followed.
    protected: bool,
}

/// Applies one advice to a plan, mirroring the greedy loop's plan
/// bookkeeping (division factors double; pipelines append).
fn extend_plan(plan: &OptimizationPlan, advice: &Advice) -> Option<OptimizationPlan> {
    let mut next = plan.clone();
    match advice {
        Advice::DivideMemory {
            module, macro_name, ..
        } => {
            let key = (module.clone(), original_macro_name(macro_name).to_string());
            *next.divisions.entry(key).or_insert(1) *= 2;
        }
        Advice::InsertPipeline { module, path, .. } => {
            next.pipelines.push((module.clone(), path.clone()));
        }
        Advice::Met { .. } | Advice::Stuck { .. } => return None,
    }
    Some(next)
}

/// Beam search toward `target` with `width` candidates per iteration.
///
/// See the [module docs](self); called through
/// [`crate::optimize_with_config`] when `beam_width > 1`.
pub(crate) fn optimize_beam(
    base: &Design,
    tech: &Tech,
    target: Mhz,
    cache: &StaCache,
    width: usize,
) -> Result<Optimized, DseError> {
    let mut journal = TransformJournal::new(base);
    let mut states = vec![BeamState {
        plan: OptimizationPlan::default(),
        trace: Vec::new(),
        best: Mhz::new(0.0),
        fmax: Mhz::new(0.0),
        protected: true,
    }];
    let mut global_best = Mhz::new(0.0);
    // The first analysis sees a cold cache, so no dirty-set audit
    // applies; afterwards every rebase reports its touched modules.
    let mut warmed = false;

    for _ in 0..MAX_ITERS {
        let mut met: Vec<BeamState> = Vec::new();
        let mut children: Vec<BeamState> = Vec::new();

        for state in &states {
            let touched = journal.rebase(&state.plan)?;
            let dirty = warmed.then_some(touched.as_slice());
            let candidates =
                advise_candidates(journal.design(), tech, target, cache, dirty, width + 1)?;
            warmed = true;

            match &candidates[0] {
                Advice::Met { fmax } => {
                    let mut done = state.clone();
                    done.trace.push(candidates[0].to_string());
                    done.fmax = *fmax;
                    global_best = global_best.max(*fmax);
                    met.push(done);
                    continue;
                }
                Advice::Stuck { fmax, .. } => {
                    global_best = global_best.max(*fmax);
                    continue;
                }
                Advice::DivideMemory { fmax, .. } | Advice::InsertPipeline { fmax, .. } => {
                    global_best = global_best.max(*fmax);
                    // Greedy's progress guard, per chain: a step that
                    // did not improve fmax kills the chain.
                    if fmax.value() <= state.best.value() + MIN_PROGRESS_MHZ {
                        continue;
                    }
                    for (ci, cand) in candidates.iter().enumerate() {
                        let Some(plan) = extend_plan(&state.plan, cand) else {
                            continue;
                        };
                        let mut trace = state.trace.clone();
                        trace.push(cand.to_string());
                        children.push(BeamState {
                            plan,
                            trace,
                            best: *fmax,
                            fmax: Mhz::new(0.0),
                            protected: state.protected && ci == 0,
                        });
                    }
                }
            }
        }

        if !met.is_empty() {
            // Highest fmax wins; the protected (greedy) chain wins
            // ties so width > 1 degrades gracefully toward greedy.
            let mut chosen = 0;
            for (i, m) in met.iter().enumerate().skip(1) {
                let better = m.fmax.value().total_cmp(&met[chosen].fmax.value());
                if better == std::cmp::Ordering::Greater
                    || (better == std::cmp::Ordering::Equal
                        && m.protected
                        && !met[chosen].protected)
                {
                    chosen = i;
                }
            }
            let chosen = met.swap_remove(chosen);
            journal.rebase(&chosen.plan)?;
            return Ok(Optimized {
                design: journal.into_design(),
                plan: chosen.plan,
                fmax: chosen.fmax,
                trace: chosen.trace,
            });
        }

        if children.is_empty() {
            return Err(DseError::Unreachable {
                target,
                best: global_best,
            });
        }

        // Rank children by measured fmax (descending, stable) and keep
        // the top `width`, never pruning the protected chain.
        for child in &mut children {
            journal.rebase(&child.plan)?;
            child.fmax = cache
                .max_frequency(journal.design(), tech)
                .map_err(DseError::Sta)?
                .unwrap_or(target);
            global_best = global_best.max(child.fmax);
        }
        children.sort_by(|a, b| b.fmax.value().total_cmp(&a.fmax.value()));
        let mut selected: Vec<BeamState> = Vec::with_capacity(width);
        let protected_idx = children.iter().position(|c| c.protected);
        for (i, child) in children.into_iter().enumerate() {
            if selected.len() < width {
                selected.push(child);
            } else if Some(i) == protected_idx.filter(|&p| p >= width) {
                // The greedy chain fell below the cut: it replaces the
                // weakest survivor instead of dying.
                if let Some(weakest) = selected.last_mut() {
                    *weakest = child;
                }
            }
        }
        // Each chain's progress guard baseline is its measured fmax
        // next iteration; `best` was set from the parent.
        states = selected;
    }
    Err(DseError::Unreachable {
        target,
        best: global_best,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dse::{optimize_for_with, optimize_with_config, DseConfig};
    use ggpu_rtl::{generate, GgpuConfig};

    fn base() -> Design {
        generate(&GgpuConfig::with_cus(1).unwrap()).unwrap()
    }

    #[test]
    fn beam_meets_targets_greedy_meets() {
        let tech = Tech::l65();
        let b = base();
        for t in [500.0, 590.0, 667.0] {
            let target = Mhz::new(t);
            let greedy = optimize_for_with(&b, &tech, target, &StaCache::new()).unwrap();
            let beam = optimize_with_config(
                &b,
                &tech,
                target,
                &StaCache::new(),
                &DseConfig::with_beam_width(2),
            )
            .unwrap();
            assert!(beam.fmax.value() >= target.value(), "beam misses {target}");
            assert!(
                beam.trace.len() <= greedy.trace.len(),
                "beam took more steps at {target}: {} vs {}",
                beam.trace.len(),
                greedy.trace.len()
            );
        }
    }

    #[test]
    fn beam_reports_unreachable_with_best() {
        let tech = Tech::l65();
        let err = optimize_with_config(
            &base(),
            &tech,
            Mhz::new(2000.0),
            &StaCache::new(),
            &DseConfig::with_beam_width(3),
        )
        .unwrap_err();
        match err {
            DseError::Unreachable { best, .. } => {
                assert!(best.value() > 500.0, "best {best}");
            }
            other => panic!("expected Unreachable, got {other}"),
        }
    }

    #[test]
    fn extend_plan_doubles_divisions_and_appends_pipelines() {
        let plan = OptimizationPlan::default();
        let d = Advice::DivideMemory {
            module: "m".into(),
            macro_name: "ram_d0".into(),
            fmax: Mhz::new(500.0),
        };
        let p1 = extend_plan(&plan, &d).unwrap();
        assert_eq!(p1.divisions[&("m".into(), "ram".into())], 2);
        let p2 = extend_plan(&p1, &d).unwrap();
        assert_eq!(p2.divisions[&("m".into(), "ram".into())], 4);
        let pipe = Advice::InsertPipeline {
            module: "m".into(),
            path: "logic".into(),
            fmax: Mhz::new(500.0),
        };
        let p3 = extend_plan(&p2, &pipe).unwrap();
        assert_eq!(p3.pipelines, vec![("m".into(), "logic".into())]);
        assert!(extend_plan(
            &plan,
            &Advice::Met {
                fmax: Mhz::new(1.0)
            }
        )
        .is_none());
    }
}
