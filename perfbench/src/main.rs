//! The repository benchmark: one workload per process.
//!
//! ```text
//! perfbench --workload <design|replay|serve> --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! Prints a human-readable report, then, as its last line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Exits with 1
//! when a correctness gate fails, with 2 on a usage error. `WORKLOADS.md`
//! describes the workloads and metrics.

mod common;
mod design;
mod ladder;
mod replay;
mod serve;
mod trace;

use std::fmt::Write as _;
use std::time::Instant;

use common::{median, peak_rss_mb, quantile, trace_dir, Outcome, RunSpec};

const WORKLOADS: [&str; 3] = ["design", "replay", "serve"];

/// End-to-end metrics, reported by every workload. Tail latencies are
/// per-layer metrics: on a small shared machine their run-to-run spread
/// is too wide to bound.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_ms", "ms"),
    ("rate_per_s", "1/s"),
];

/// Per-layer metrics measured once per design scenario (suffixed with the
/// scenario's name).
const SCENARIO_LAYERS: [(&str, &str); 20] = [
    ("thermal.context_s", "s"),
    ("cvx.family_build_s", "s"),
    ("cvx.lin_rows", "count"),
    ("cvx.vars", "count"),
    ("core.sweep_s", "s"),
    ("core.sweep_newton_steps", "count"),
    ("core.sweep_phase1_solves", "count"),
    ("core.sweep_certificate_screens", "count"),
    ("core.sweep_feasible_cells", "count"),
    ("core.sweep_reduce_s", "s"),
    ("core.sweep_us_per_newton", "us"),
    ("core.sweep_workers", "count"),
    ("core.store_save_s", "s"),
    ("core.store_bytes", "bytes"),
    ("core.serve_open_s", "s"),
    ("linalg.syrk_rows_us", "us"),
    ("linalg.cholesky_us", "us"),
    ("linalg.matvec_rows_us", "us"),
    ("linalg.syrk_flops", "count"),
    ("linalg.syrk_bytes", "bytes"),
];

/// Per-layer metrics without a scenario suffix. A workload that does not
/// exercise a layer reports 0 for it.
const LAYERS: [(&str, &str); 43] = [
    ("bench.available_cores", "count"),
    ("workload.trace_gen_s", "s"),
    ("thermal.context_s", "s"),
    ("cvx.family_build_s", "s"),
    ("core.sweep_s", "s"),
    ("core.store_save_s", "s"),
    ("core.store_bytes", "bytes"),
    ("core.serve_open_s", "s"),
    ("core.ladder.rung0_ticks", "count"),
    ("core.ladder.rung1_ticks", "count"),
    ("core.ladder.rung2_ticks", "count"),
    ("core.ladder.rung3_ticks", "count"),
    ("core.ladder.rung4_ticks", "count"),
    ("core.ladder.infeasible_probes", "count"),
    ("core.ladder.screened_probes", "count"),
    ("core.ladder.solver_errors", "count"),
    ("core.ladder.max_tick_newton", "count"),
    ("core.ticks", "count"),
    ("core.tick_total_s", "s"),
    ("core.tick_p50_ms", "ms"),
    ("core.tick_p90_ms", "ms"),
    ("core.tick_max_ms", "ms"),
    ("core.deadline_misses", "count"),
    ("sim.self_s", "s"),
    ("sim.assign_s", "s"),
    ("sim.windows", "count"),
    ("sim.window_p90_ms", "ms"),
    ("thermal.step_ns", "ns"),
    ("core.table_lookups", "count"),
    ("core.table_lookup_total_s", "s"),
    ("core.table_degraded", "count"),
    ("core.table_shutdowns", "count"),
    ("core.serve.publish_s", "s"),
    ("core.serve.lookups", "count"),
    ("core.serve.misses", "count"),
    ("core.serve.torn", "count"),
    ("core.serve.lookup_p50_us", "us"),
    ("core.serve.lookup_p99_us", "us"),
    ("core.table.lookup_ns", "ns"),
    ("trace.spans", "count"),
    ("trace.coverage", "fraction"),
    ("trace.overhead_frac", "fraction"),
    ("trace.measured_s", "s"),
];

/// Every per-layer metric, in output order.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        LAYERS.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for scenario in design::SCENARIOS {
        out.extend(
            SCENARIO_LAYERS
                .iter()
                .map(|&(n, u)| (format!("{n}.{scenario}"), u)),
        );
    }
    out
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--tiny]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

struct Args {
    workload: String,
    spec: RunSpec,
    trace: bool,
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = false;
    let mut tiny = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            _ => usage(&format!("bad argument {flag} {value}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        spec: RunSpec {
            seed: seed.unwrap_or_else(|| usage("--seed takes a whole number")),
            seconds: seconds.unwrap_or_else(|| usage("--seconds takes a positive number")),
            tiny,
        },
        trace: traced,
    }
}

/// Seconds one span costs to record, measured on a scratch thread.
fn span_cost_s() -> f64 {
    std::thread::spawn(|| {
        const N: u64 = 20_000;
        let t0 = Instant::now();
        for i in 0..N {
            let _g = trace::span("bench.calibrate", i);
        }
        let per = t0.elapsed().as_secs_f64() / N as f64;
        drop(trace::take());
        per
    })
    .join()
    .expect("calibration thread")
}

/// Derives the span-based layer metrics, gates span coverage and writes
/// the spans out. Returns the trace file's path.
fn finish_trace(args: &Args, out: &mut Outcome) -> std::path::PathBuf {
    let mut threads = vec![trace::take()];
    threads.append(&mut out.extra_spans);
    // Parent indices are per thread, so derive self times thread by thread.
    let mut totals = std::collections::BTreeMap::new();
    for spans in &threads {
        for (name, (n, total, own)) in trace::totals(spans) {
            let e: &mut (u64, f64, f64) = totals.entry(name).or_default();
            *e = (e.0 + n, e.1 + total, e.2 + own);
        }
    }
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    // Simulator time per pass, so the figures do not grow with the pass count.
    let passes = out.pass_s.len().max(1) as f64;
    // The scheduler's picks are timed, not spanned: take them out too.
    let assign_s = out.layers.get("sim.assign_s").copied().unwrap_or(0.0);
    out.layer(
        "sim.self_s",
        get("sim.run_simulation").2 / passes - assign_s,
    );
    let spans: usize = threads.iter().map(Vec::len).sum();
    out.layer("trace.spans", spans as f64);
    out.layer(
        "trace.overhead_frac",
        spans as f64 * span_cost_s() / out.measured_s,
    );
    out.layer("trace.measured_s", out.measured_s);

    // Layer spans, with their self time, must account for the measured
    // wall: only the wrappers' self time is unattributed.
    let coverage = trace::coverage(&threads, out.measured_s);
    out.layer("trace.coverage", coverage);
    out.gate(
        "trace: layer spans account for the measured wall within 10%",
        coverage >= 0.9,
    );

    let mut text = String::new();
    for (i, spans) in threads.iter().enumerate() {
        trace::to_json_lines(&format!("t{i}"), spans, &mut text);
    }
    let path = trace_dir().join(format!("{}-seed{}.jsonl", args.workload, args.spec.seed));
    std::fs::write(&path, text).expect("write the span file");
    path
}

/// Requests per second at each request's fastest repeat: the distinct
/// requests over the sum of their times.
fn rate_per_s(out: &Outcome) -> f64 {
    out.latencies_s.len() as f64 / out.latencies_s.iter().sum::<f64>()
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args = parse_args();
    if args.trace {
        trace::enable();
    }
    let mut out = match args.workload.as_str() {
        "design" => design::run(&args.spec),
        "replay" => replay::run(&args.spec),
        "serve" => serve::run(&args.spec),
        other => unreachable!("unknown workload {other}"),
    };
    out.layer("bench.available_cores", common::available_cores() as f64);
    let trace_file = args.trace.then(|| finish_trace(&args, &mut out));

    let end_to_end = [
        median(&out.setup_s),
        peak_rss_mb(),
        quantile(&out.latencies_s, 0.5) * 1e3,
        rate_per_s(&out),
    ];
    let mut metrics: Vec<(String, &str, f64)> = Vec::new();
    if args.trace {
        for (name, unit) in per_layer() {
            let v = out.layers.remove(&name).unwrap_or(0.0);
            metrics.push((name, unit, v));
        }
        out.gate("every per-layer metric is declared", out.layers.is_empty());
        for name in out.layers.keys() {
            println!("undeclared per-layer metric: {name}");
        }
    } else {
        for ((name, unit), v) in END_TO_END.iter().zip(end_to_end) {
            metrics.push((name.to_string(), unit, v));
        }
    }
    out.gate(
        "every metric is finite",
        metrics.iter().all(|(_, _, v)| v.is_finite()),
    );

    println!(
        "workload {} | seed {} | trace {} | {:.2} s measured | {} requests | {} cores",
        args.workload,
        args.spec.seed,
        u8::from(args.trace),
        out.measured_s,
        out.requests,
        common::available_cores(),
    );
    for ((name, unit), v) in END_TO_END.iter().zip(end_to_end) {
        println!("  {name:<28} {v:>16.6} {unit}");
    }
    if !out.pass_s.is_empty() {
        let walls: Vec<String> = out.pass_s.iter().map(|s| format!("{s:.3}")).collect();
        println!("  pass walls (s): {}", walls.join(" "));
    }
    for (name, v, unit) in &out.summary {
        println!("  {name:<28} {v:>16.6} {unit}");
    }
    let fail_frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!("  {:<28} {fail_frac:>16.6} fraction", "fail_frac");
    for (gate, ok) in &out.gates {
        if !ok {
            println!("  GATE FAILED: {gate}");
        }
    }
    if let Some(path) = trace_file {
        println!("  spans written to {}", path.display());
    }

    let correct = out.attempted > 0 && out.failed == 0 && out.gates.iter().all(|g| g.1);
    let mut body = String::new();
    for (i, (name, unit, v)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*v)
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        out.attempted.max(1),
        out.failed
    );
    if !correct {
        std::process::exit(1);
    }
}
