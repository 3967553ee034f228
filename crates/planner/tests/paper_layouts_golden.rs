//! Byte-for-byte pins of the paper's physical results.
//!
//! The 12 Table-I versions ({1, 2, 4, 8} CUs × {500, 590, 667} MHz)
//! are planned and implemented with the default flow, and each
//! datasheet is compared with `golden/<version>.datasheet.txt`. The 4
//! versions the paper takes through physical synthesis also pin their
//! macro placement (`golden/<version>.def`, the DEF-style report of
//! [`ggpu_pnr::to_placement_report`]). Among other things this pins
//! 8CU@667 missing its target and closing at about 600 MHz.
//!
//! A failure prints the path of the golden file and the first line
//! that differs.

use ggpu_pnr::to_placement_report;
use ggpu_tech::Tech;
use gpuplanner::{datasheet, paper_versions, physical_versions, GpuPlanner};
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(name)
}

fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    if expected == actual {
        return;
    }
    let first_diff = expected
        .lines()
        .zip(actual.lines())
        .enumerate()
        .find(|(_, (e, a))| e != a);
    match first_diff {
        Some((i, (e, a))) => panic!(
            "{} differs at line {}:\n  golden: {e}\n  actual: {a}",
            path.display(),
            i + 1
        ),
        None => panic!(
            "{} differs in length: golden {} lines, actual {} lines",
            path.display(),
            expected.lines().count(),
            actual.lines().count()
        ),
    }
}

fn file_stem(spec: &gpuplanner::Specification) -> String {
    spec.version_name().replace('@', "_")
}

#[test]
fn table1_datasheets_match_golden() {
    let planner = GpuPlanner::new(Tech::l65());
    let specs = paper_versions();
    assert_eq!(specs.len(), 12);
    for spec in &specs {
        let planned = planner.plan(spec).expect("Table-I spec plans");
        let version = planner
            .implement(&planned)
            .expect("Table-I spec implements");
        assert_golden(
            &format!("{}.datasheet.txt", file_stem(spec)),
            &datasheet(&version),
        );
    }
}

#[test]
fn paper_layouts_match_golden() {
    let planner = GpuPlanner::new(Tech::l65());
    let specs = physical_versions();
    assert_eq!(specs.len(), 4);
    for spec in &specs {
        let planned = planner.plan(spec).expect("paper layout plans");
        let version = planner
            .implement(&planned)
            .expect("paper layout implements");
        assert_golden(
            &format!("{}.def", file_stem(spec)),
            &to_placement_report(&version.layout),
        );
    }
}
