//! The ladder controller's closed loop, measured in `replay`'s traced run:
//! `niagara8` over a seeded 10-s mixed trace, where every DFS window runs
//! the warm-started bisection MPC solve with the paper-grid table as the
//! certified rung. Its tick latency is a per-layer figure: on a shared
//! machine it swings too far between runs to carry an end-to-end bound.

use protemp::{LadderController, LadderTelemetry};
use protemp_sim::SimReport;

use crate::common::{
    best_of, median, mixed_trace, quantile, run_loop, LoopSetup, Outcome, RunSpec,
};

const TICK_BUDGET: usize = 2000;
/// The DFS window, seconds; a tick longer than this misses its deadline.
const WINDOW_S: f64 = 0.1;
/// Passes over the trace; each tick's time is its fastest repeat.
const PASSES: u64 = 2;

/// Simulated seconds of one pass: 100 ticks, so that ten lie beyond p90.
fn sim_s(spec: &RunSpec) -> f64 {
    if spec.tiny {
        2.0
    } else {
        10.0
    }
}

/// One pass's outcome; the controller is dropped with the pass.
struct Pass {
    report: SimReport,
    telemetry: LadderTelemetry,
    tick_s: Vec<f64>,
    over_tmax: u64,
}

impl Pass {
    /// Everything about the pass that must repeat exactly.
    fn fingerprint(&self) -> (u64, u64, u64, [u64; 5], u64, u64, usize, u64) {
        let r = &self.report;
        let t = &self.telemetry;
        (
            r.windows,
            r.work_done_s.to_bits(),
            r.core_energy_j.to_bits(),
            t.rung_counts,
            t.infeasible_probes,
            t.screened_probes,
            t.max_tick_newton,
            self.over_tmax,
        )
    }
}

/// Runs the ladder loop, gates it (zero violations, no tick from rungs
/// 1–3 or observing a core over `tmax_c`, no budget overrun, counters
/// repeat) and records its `core.ladder.*` and `core.tick*` metrics.
pub fn measure(s: &LoopSetup, spec: &RunSpec, out: &mut Outcome) {
    let sim_s = sim_s(spec);
    let trace = mixed_trace(spec.seed, sim_s / 6.0, sim_s, s.platform.num_cores());
    let passes: Vec<Pass> = (0..PASSES)
        .map(|id| {
            let ladder = LadderController::with_table(s.ctx.clone(), s.table.clone(), TICK_BUDGET);
            let run = run_loop(s, &trace, id, sim_s, ladder, "core.tick");
            Pass {
                telemetry: run.policy.inner.telemetry(),
                tick_s: run.policy.ticks.iter().map(|t| t.1).collect(),
                over_tmax: run.policy.over_tmax,
                report: run.report,
            }
        })
        .collect();

    let first = &passes[0];
    for p in &passes {
        let t = &p.telemetry;
        out.attempted += t.ticks;
        out.failed += t.rung_counts[1] + t.rung_counts[2] + t.rung_counts[3] + p.over_tmax;
        let r = &p.report;
        out.gate(
            "ladder: zero cap violations",
            r.violation_fraction == 0.0 && r.cap_violation_fraction == 0.0,
        );
        out.gate(
            "ladder: deterministic counters repeat across passes",
            p.fingerprint() == first.fingerprint(),
        );
        out.gate(
            "ladder: no tick over the Newton budget",
            t.budget_overruns == 0,
        );
    }
    let per_pass: Vec<Vec<f64>> = passes.iter().map(|p| p.tick_s.clone()).collect();
    let best = best_of(&per_pass);

    let t = &first.telemetry;
    for (k, n) in t.rung_counts.iter().enumerate() {
        out.layer(format!("core.ladder.rung{k}_ticks"), *n as f64);
    }
    out.layer("core.ladder.infeasible_probes", t.infeasible_probes as f64);
    out.layer("core.ladder.screened_probes", t.screened_probes as f64);
    out.layer("core.ladder.solver_errors", t.solver_errors as f64);
    out.layer("core.ladder.max_tick_newton", t.max_tick_newton as f64);
    let pass_totals: Vec<f64> = per_pass.iter().map(|p| p.iter().sum()).collect();
    out.layer("core.ticks", best.len() as f64);
    out.layer("core.tick_total_s", median(&pass_totals));
    out.layer("core.tick_p50_ms", quantile(&best, 0.50) * 1e3);
    out.layer("core.tick_p90_ms", quantile(&best, 0.90) * 1e3);
    out.layer(
        "core.tick_max_ms",
        best.iter().copied().fold(0.0, f64::max) * 1e3,
    );
    out.layer(
        "core.deadline_misses",
        best.iter().filter(|&&d| d > WINDOW_S).count() as f64,
    );
    let r = &first.report;
    out.report("ladder.throughput", r.throughput(), "work-s/s");
    out.report("ladder.energy_per_work", r.energy_per_work(), "J/work-s");
}
