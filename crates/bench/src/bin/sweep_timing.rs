//! Wall-clock measurements backing `EXPERIMENTS.md`: the memoized +
//! threaded 24-point design-space sweep against the seed-style
//! cold-cache sequential search.
//!
//! ```text
//! cargo run --release -p ggpu-bench --bin sweep_timing
//! GGPU_THREADS=4 cargo run --release -p ggpu-bench --bin sweep_timing
//! ```

use ggpu_tech::units::Mhz;
use ggpu_tech::Tech;
use gpuplanner::{worker_threads, GpuPlanner, PlanError, Specification};
use std::time::Instant;

fn main() {
    println!(
        "host parallelism: {} thread(s) available, GGPU_THREADS={}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        std::env::var("GGPU_THREADS").unwrap_or_else(|_| "<unset>".into())
    );

    let (area, power) = (100.0, 100.0); // generous: all 24 points plan fully

    // Seed-style baseline: no memoization shared between points (a
    // fresh planner per point) and strictly sequential.
    let t = Instant::now();
    let mut planned = 0u32;
    for (cus, mhz) in GpuPlanner::sweep_points() {
        let p = GpuPlanner::new(Tech::l65());
        let spec = Specification::new(cus, Mhz::new(mhz))
            .with_max_area_mm2(area)
            .with_max_power_w(power);
        match p.plan(&spec) {
            Ok(_) => planned += 1,
            Err(PlanError::Dse(_)) => {}
            Err(e) => panic!("structural failure: {e}"),
        }
    }
    let cold_wall = t.elapsed();

    // Memoized sequential: one shared StaCache, one thread.
    let p = GpuPlanner::new(Tech::l65());
    let t = Instant::now();
    let seq = p
        .best_within_with_threads(area, power, 1)
        .expect("sweeps")
        .expect("winner");
    let seq_wall = t.elapsed();
    let (seq_hits, seq_misses) = (p.sta_cache().hits(), p.sta_cache().misses());

    // Memoized parallel: fresh planner (cold cache again, so the
    // comparison is fair), worker_threads(24) threads.
    let threads = worker_threads(24);
    let p = GpuPlanner::new(Tech::l65());
    let t = Instant::now();
    let par = p
        .best_within_with_threads(area, power, threads)
        .expect("sweeps")
        .expect("winner");
    let par_wall = t.elapsed();
    assert_eq!(seq.spec, par.spec, "winner must not depend on threads");
    assert_eq!(
        seq.plan, par.plan,
        "winning plan must not depend on threads"
    );

    println!("\n== 24-point best_within sweep ({planned} reachable points) ==");
    println!("seed-style (cold cache, sequential): {cold_wall:>10.1?}");
    println!(
        "memoized, 1 thread:                  {seq_wall:>10.1?}  (STA cache: {seq_hits} hits / {seq_misses} misses)"
    );
    println!("memoized, {threads} thread(s):               {par_wall:>10.1?}");
    println!(
        "memoization speedup {:.2}x; end-to-end vs seed {:.2}x; winner {} CUs @ {:.0}",
        cold_wall.as_secs_f64() / seq_wall.as_secs_f64(),
        cold_wall.as_secs_f64() / par_wall.as_secs_f64().max(f64::MIN_POSITIVE),
        par.spec.compute_units,
        par.spec.frequency
    );
}
