//! `replay`: the paper's 75-s mixed trace and the compute trace on
//! `niagara8` under the Phase-2 table controller. Nearly all the time is
//! the simulator: plant stepping and the scheduler. The traced run also
//! measures the ladder controller's closed loop (see `ladder`).

use protemp::ProTempController;
use protemp_sim::SimReport;

use crate::common::{
    best_of, compute_trace, loop_setup, measure, median, mixed_trace, quantile, run_loop,
    thermal_step_ns, Outcome, RunSpec,
};
use crate::{ladder, trace};

const SETUP_REPS: usize = 5;
/// Simulated-time cap; each trace runs to completion well before it.
const MAX_SIM_S: f64 = 400.0;

/// Simulated seconds of each trace.
fn trace_s(spec: &RunSpec) -> f64 {
    if spec.tiny {
        3.0
    } else {
        75.0
    }
}

/// One trace's replay; the controller is dropped with the replay.
struct Replay {
    report: SimReport,
    windows_s: Vec<f64>,
    lookup_s: f64,
    assign_s: f64,
    counters: (u64, u64, u64),
    over_tmax: u64,
}

impl Replay {
    fn fingerprint(&self) -> (u64, usize, u64, u64, u64, (u64, u64, u64), u64) {
        let r = &self.report;
        (
            r.windows,
            r.completed,
            r.work_done_s.to_bits(),
            r.core_energy_j.to_bits(),
            r.peak_temp_c.to_bits(),
            self.counters,
            self.over_tmax,
        )
    }
}

pub fn run(spec: &RunSpec) -> Outcome {
    let mut out = Outcome::default();
    let dur = trace_s(spec);
    let s = loop_setup(&mut out, spec, SETUP_REPS, |cores| {
        vec![
            mixed_trace(spec.seed, 5.0, dur, cores),
            compute_trace(spec.seed.wrapping_add(1), dur, cores),
        ]
    });

    // Each pass replays both traces.
    let passes = measure(&mut out, spec, 1, |pass| {
        s.traces
            .iter()
            .enumerate()
            .map(|(k, tr)| {
                let id = pass * s.traces.len() as u64 + k as u64;
                let policy = ProTempController::new(s.table.clone());
                let run = run_loop(&s, tr, id, MAX_SIM_S, policy, "core.table_lookup");
                Replay {
                    lookup_s: run.policy.ticks.iter().map(|t| t.1).sum(),
                    assign_s: run.assign_s,
                    counters: run.policy.inner.counters(),
                    over_tmax: run.policy.over_tmax,
                    windows_s: run.windows_s,
                    report: run.report,
                }
            })
            .collect::<Vec<_>>()
    });

    let first = &passes[0];
    let mut sim_s = 0.0;
    let mut per_pass = Vec::new();
    for pass in &passes {
        per_pass.push(
            pass.iter()
                .flat_map(|r| r.windows_s.iter().copied())
                .collect(),
        );
        for (r, base) in pass.iter().zip(first) {
            out.requests += r.windows_s.len() as u64;
            out.attempted += r.report.windows;
            out.failed += r.over_tmax;
            sim_s += r.report.duration_s;
            out.gate(
                "replay: zero cap violations",
                r.report.violation_fraction == 0.0 && r.report.cap_violation_fraction == 0.0,
            );
            out.gate(
                "replay: deterministic counters repeat across passes",
                r.fingerprint() == base.fingerprint(),
            );
        }
    }
    out.latencies_s = best_of(&per_pass);

    let (mixed, compute) = (&first[0].report, &first[1].report);
    out.report("sim_x_realtime", sim_s / out.measured_s, "x");
    out.report(
        "tasks",
        (mixed.completed + compute.completed) as f64,
        "count",
    );
    for (label, r) in [("mixed", mixed), ("compute", compute)] {
        out.report(&format!("throughput.{label}"), r.throughput(), "work-s/s");
        out.report(
            &format!("energy_per_work.{label}"),
            r.energy_per_work(),
            "J/work-s",
        );
        out.report(
            &format!("violation_frac.{label}"),
            r.violation_fraction + r.cap_violation_fraction,
            "fraction",
        );
    }
    out.report("passes", passes.len() as f64, "count");

    // Counters of one pass (they repeat); the controller's time per pass.
    let (lookups, degraded, shutdowns) = first.iter().fold((0, 0, 0), |a, r| {
        (a.0 + r.counters.0, a.1 + r.counters.1, a.2 + r.counters.2)
    });
    let lookup_totals: Vec<f64> = passes
        .iter()
        .map(|p| p.iter().map(|r| r.lookup_s).sum())
        .collect();
    let assign_totals: Vec<f64> = passes
        .iter()
        .map(|p| p.iter().map(|r| r.assign_s).sum())
        .collect();
    out.layer("sim.assign_s", median(&assign_totals));
    out.layer("core.table_lookups", lookups as f64);
    out.layer("core.table_lookup_total_s", median(&lookup_totals));
    out.layer("core.table_degraded", degraded as f64);
    out.layer("core.table_shutdowns", shutdowns as f64);
    out.layer("sim.window_p90_ms", quantile(&out.latencies_s, 0.90) * 1e3);
    out.layer(
        "sim.windows",
        first.iter().map(|r| r.report.windows as f64).sum::<f64>(),
    );
    if trace::enabled() {
        out.layer("thermal.step_ns", thermal_step_ns(&s.platform));
        ladder::measure(&s, spec, &mut out);
    }
    out
}
