//! Bit-identity pin for the Phase-1 solver on the paper's 8×10 grid.
//!
//! The Newton engine is free to get faster, never different: kernel
//! blocking, fused row passes and carried line-search state must leave
//! every table bit and every deterministic counter where they were. This
//! test pins, per built-in platform at one worker thread, the
//! `BuildStats` counters and an FNV-1a hash over every cell's
//! `freqs_hz`/`powers_w` bit patterns.
//!
//! The pinned values may change only together with a
//! `protemp_cvx::SOLVER_REVISION` bump: a change that alters what a solve
//! computes must say so in the revision (which moves every persisted
//! artifact's fingerprint) and re-pin here in the same change. The
//! revision is asserted below so the two cannot drift apart silently.

use protemp::{AssignmentContext, ControlConfig, FrequencyTable, TableBuilder};
use protemp_sim::Platform;

/// The revision the pinned values were computed under.
const PINNED_REVISION: u32 = 5;

/// `(newton_steps, phase1_solves, certificate_screens, feasible, table hash)`.
type Pin = (u64, u64, u64, usize, u64);

/// The paper's grid: start temperatures 30–100 °C in 10 °C steps and
/// target frequencies 100 MHz–1 GHz in 100 MHz steps.
fn paper_grid() -> TableBuilder {
    TableBuilder::new()
        .tstarts((3..=10).map(|i| f64::from(i) * 10.0).collect())
        .ftargets((1..=10).map(|i| f64::from(i) * 100.0e6).collect())
        .threads(1)
}

/// FNV-1a over the table in row-major cell order: a presence byte per
/// cell, then the little-endian bits of every frequency and power.
fn table_hash(table: &FrequencyTable) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in 0..table.tstarts_c().len() {
        for c in 0..table.ftargets_hz().len() {
            match table.entry(r, c) {
                None => feed(&[0]),
                Some(a) => {
                    feed(&[1]);
                    for v in a.freqs_hz.iter().chain(&a.powers_w) {
                        feed(&v.to_bits().to_le_bytes());
                    }
                }
            }
        }
    }
    h
}

fn pin_of(platform: &Platform) -> Pin {
    let ctx = AssignmentContext::new(platform, &ControlConfig::default()).unwrap();
    let (table, stats) = paper_grid().build(&ctx).unwrap();
    (
        stats.newton_steps,
        stats.phase1_solves,
        stats.certificate_screens,
        stats.feasible,
        table_hash(&table),
    )
}

fn check(name: &str, platform: &Platform, expect: Pin) {
    let got = pin_of(platform);
    assert_eq!(
        got, expect,
        "{name}: solver output moved on the paper grid \
         (newton, phase1, screens, feasible, table hash); a change that \
         alters solves must bump SOLVER_REVISION and re-pin"
    );
}

#[test]
fn pinned_revision_matches_the_solver() {
    assert_eq!(
        protemp_cvx::SOLVER_REVISION,
        PINNED_REVISION,
        "SOLVER_REVISION moved: re-pin the paper-grid values in this file"
    );
}

#[test]
fn niagara8_paper_grid_is_pinned() {
    check(
        "niagara8",
        &Platform::niagara8(),
        (4853, 5, 8, 67, 8_061_872_365_897_947_374),
    );
}

#[test]
fn biglittle8_paper_grid_is_pinned() {
    check(
        "biglittle8",
        &Platform::biglittle8(),
        (6524, 4, 7, 55, 14_463_601_725_501_389_599),
    );
}

#[test]
fn stacked3d_paper_grid_is_pinned() {
    check(
        "stacked3d",
        &Platform::stacked3d(),
        (443, 2, 9, 57, 7_708_195_043_799_810_854),
    );
}
