//! Exact clone budget of the transactional transform engine.
//!
//! The design-clone and module-copy counters are process-wide, so this
//! file holds a single `#[test]`: it runs alone in its own process and
//! the counter deltas it reads are exact.
//!
//! * One greedy DSE run makes exactly one `Design::clone` (the
//!   journal's copy-on-write working design) however many candidates
//!   it visits — zero clones per candidate.
//! * One `apply_plan_dirty` makes exactly one design clone and copies
//!   exactly one module per planned action.

use ggpu_netlist::{design_clone_count, module_copy_count};
use ggpu_rtl::{generate, GgpuConfig};
use ggpu_tech::units::Mhz;
use ggpu_tech::Tech;
use gpuplanner::{apply_plan_dirty, optimize_for_with, StaCache};

#[test]
fn journal_clones_once_per_run_and_copies_one_module_per_action() {
    let tech = Tech::l65();
    for cus in [1, 8] {
        let base = generate(&GgpuConfig::with_cus(cus).unwrap()).unwrap();
        let target = Mhz::new(667.0);

        let clones0 = design_clone_count();
        let opt = optimize_for_with(&base, &tech, target, &StaCache::new()).unwrap();
        let run_clones = design_clone_count() - clones0;
        let candidates = opt.trace.len() - 1;
        assert!(candidates > 0, "{cus}CU@667 visits no candidate");
        assert_eq!(
            run_clones, 1,
            "{cus}CU@667: {run_clones} design clones over {candidates} candidates \
             (the journal must clone once per run, 0 per candidate)"
        );

        let actions = opt.plan.actions().len() as u64;
        let clones0 = design_clone_count();
        let copies0 = module_copy_count();
        apply_plan_dirty(&base, &opt.plan).unwrap();
        assert_eq!(
            design_clone_count() - clones0,
            1,
            "{cus}CU@667: apply_plan_dirty must clone exactly once"
        );
        assert_eq!(
            module_copy_count() - copies0,
            actions,
            "{cus}CU@667: apply_plan_dirty must copy one module per action"
        );
    }
}
