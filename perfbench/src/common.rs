//! Inputs, timing wrappers and result plumbing shared by the workloads.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use protemp::{AssignmentContext, ControlConfig, FrequencyTable, TableBuilder};
use protemp_sim::{
    run_simulation, AssignmentPolicy, DfsPolicy, FirstIdle, Observation, Platform, SimConfig,
    SimReport,
};
use protemp_thermal::{DiscreteModel, IntegrationMethod, ThermalSim};
use protemp_workload::{BenchmarkProfile, Trace, TraceGenerator};

use crate::trace;

/// Size and seed of one run, from the command line.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    pub seed: u64,
    /// Wall seconds the measured phase should last.
    pub seconds: f64,
    /// Shrinks every input for the benchmark's own tests.
    pub tiny: bool,
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Wall seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Wall seconds of each distinct request (the workload defines a
    /// request), each at the fastest of its repeats.
    pub latencies_s: Vec<f64>,
    /// Requests completed in the measured phase, repeats included.
    pub requests: u64,
    /// Wall seconds of the measured phase.
    pub measured_s: f64,
    /// Wall seconds of each pass of identical work in the measured phase
    /// (empty where the workload has no passes).
    pub pass_s: Vec<f64>,
    /// Checked items and the ones that failed their check.
    pub attempted: u64,
    pub failed: u64,
    /// Named pass/fail gates besides the per-item checks.
    pub gates: Vec<(String, bool)>,
    /// Per-layer metrics this workload measured.
    pub layers: BTreeMap<String, f64>,
    /// The workload's own end-to-end figures, for the human-readable
    /// summary: `(name, value, unit)`.
    pub summary: Vec<(String, f64, &'static str)>,
    /// Spans recorded on threads other than the main one.
    pub extra_spans: Vec<Vec<trace::Span>>,
}

impl Outcome {
    pub fn gate(&mut self, name: impl Into<String>, ok: bool) {
        self.gates.push((name.into(), ok));
    }

    pub fn layer(&mut self, name: impl Into<String>, value: f64) {
        self.layers.insert(name.into(), value);
    }

    pub fn report(&mut self, name: &str, value: f64, unit: &'static str) {
        self.summary.push((name.to_string(), value, unit));
    }
}

/// Named per-layer timings of one set-up.
pub type SetupLayers = Vec<(&'static str, f64)>;

/// Runs `setup` `reps` times, each under a `bench.setup` span, and keeps
/// the last result; each earlier one is dropped before the next starts,
/// so peak memory holds one set-up. Each wall time goes to
/// `out.setup_s`; each named layer timing is recorded as a per-layer
/// metric, median over the set-ups.
pub fn repeat_setup<S>(
    out: &mut Outcome,
    reps: usize,
    mut setup: impl FnMut(usize) -> (S, SetupLayers),
) -> S {
    let mut kept = None;
    let mut layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for rep in 0..reps.max(1) {
        drop(kept.take());
        let ((s, timings), secs) = trace::timed("bench.setup", rep as u64, || setup(rep));
        out.setup_s.push(secs);
        for (name, v) in timings {
            layers.entry(name).or_default().push(v);
        }
        kept = Some(s);
    }
    for (name, v) in layers {
        out.layer(name, median(&v));
    }
    kept.expect("at least one set-up")
}

/// Repeats `pass` under the root span `bench.measure` until `spec.seconds`
/// are used up, and at least `min_passes` times (once on tiny runs).
/// Records the measured wall and each pass's wall in `out`.
pub fn measure<T>(
    out: &mut Outcome,
    spec: &RunSpec,
    min_passes: usize,
    mut pass: impl FnMut(u64) -> T,
) -> Vec<T> {
    let min_passes = if spec.tiny { 1 } else { min_passes };
    let mut passes = Vec::new();
    let t_meas = Instant::now();
    {
        let _root = trace::span(trace::ROOT, 0);
        loop {
            let p0 = Instant::now();
            passes.push(pass(passes.len() as u64));
            let pass_s = p0.elapsed().as_secs_f64();
            out.pass_s.push(pass_s);
            if passes.len() >= min_passes
                && t_meas.elapsed().as_secs_f64() + 0.5 * pass_s >= spec.seconds
            {
                break;
            }
        }
    }
    out.measured_s = t_meas.elapsed().as_secs_f64();
    passes
}

/// What `replay` and its ladder loop share: `niagara8`, the seeded
/// traces, the context with its family, and the certified paper-grid
/// table.
pub struct LoopSetup {
    pub platform: Platform,
    pub traces: Vec<Trace>,
    pub ctx: AssignmentContext,
    pub table: FrequencyTable,
}

/// Sets up `niagara8` `reps` times with the traces `traces(cores)` makes
/// and keeps the last set-up; gates that the table repeats.
pub fn loop_setup(
    out: &mut Outcome,
    spec: &RunSpec,
    reps: usize,
    traces: impl Fn(usize) -> Vec<Trace>,
) -> LoopSetup {
    let mut tables = Vec::new();
    let s = repeat_setup(out, reps, |_| {
        let platform = Platform::niagara8();
        let (traces, trace_gen_s) =
            trace::timed("workload.trace_gen", 0, || traces(platform.num_cores()));
        let (ctx, context_s) = trace::timed("thermal.context", 0, || {
            AssignmentContext::new(&platform, &ControlConfig::default())
                .expect("niagara8 forms a valid context")
        });
        let ((), family_s) = trace::timed("cvx.family_build", 0, || {
            ctx.family();
        });
        let (table, sweep_s) = trace::timed("core.sweep", 0, || {
            grid(spec)
                .threads(pinned_workers())
                .build(&ctx)
                .expect("the paper-grid table builds")
                .0
        });
        tables.push(table.clone());
        let layers = vec![
            ("workload.trace_gen_s", trace_gen_s),
            ("thermal.context_s", context_s),
            ("cvx.family_build_s", family_s),
            ("core.sweep_s", sweep_s),
        ];
        let s = LoopSetup {
            platform,
            traces,
            ctx,
            table,
        };
        (s, layers)
    });
    let agree = tables.windows(2).all(|w| w[0] == w[1]);
    out.gate("the paper-grid table repeats across set-ups", agree);
    s
}

/// One closed-loop simulation, with the policy that ran it.
pub struct LoopRun<P> {
    pub report: SimReport,
    pub policy: TimedPolicy<P>,
    /// Seconds spent in the scheduler's picks (traced runs only).
    pub assign_s: f64,
    /// Wall seconds of each DFS window, see [`TimedPolicy::window_times`].
    pub windows_s: Vec<f64>,
}

/// Simulates `trace` on the set-up's platform for at most `sim_s`
/// seconds under `policy`, whose ticks are recorded as `tick_span` spans.
pub fn run_loop<P: DfsPolicy>(
    s: &LoopSetup,
    trace: &Trace,
    id: u64,
    sim_s: f64,
    policy: P,
    tick_span: &'static str,
) -> LoopRun<P> {
    let cfg = SimConfig {
        t_init_c: 70.0,
        max_duration_s: sim_s,
        ..SimConfig::default()
    };
    let mut policy = TimedPolicy::new(policy, tick_span, cfg.tmax_c);
    let mut assign = TimedAssign {
        inner: FirstIdle,
        busy_s: 0.0,
    };
    let start = Instant::now();
    let report = trace::within("sim.run_simulation", id, || {
        run_simulation(&s.platform, trace, &mut policy, &mut assign, &cfg)
            .expect("the closed loop runs")
    });
    let end = Instant::now();
    LoopRun {
        report,
        windows_s: policy.window_times(start, end),
        assign_s: assign.busy_s,
        policy,
    }
}

/// Element-wise minimum over passes of the same requests: each request's
/// fastest repeat, which filters out interference from other processes.
pub fn best_of(passes: &[Vec<f64>]) -> Vec<f64> {
    let mut best = passes.first().cloned().unwrap_or_default();
    for p in &passes[1.min(passes.len())..] {
        for (b, v) in best.iter_mut().zip(p) {
            *b = b.min(*v);
        }
    }
    best
}

/// Nearest-rank quantile of an unsorted sample (`q` in (0, 1]).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((v.len() as f64 * q).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median by averaging the two middle values of an even-length sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Peak resident set of this process (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Worker threads the design sweep is pinned to: two, or fewer cores.
pub fn pinned_workers() -> usize {
    available_cores().min(2)
}

pub fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A scratch directory for this process under the checkout's build tree.
pub fn work_dir(label: &str) -> PathBuf {
    let dir = Path::new(".bench_build")
        .join("perfbench-work")
        .join(format!("{}-{label}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the benchmark's work directory");
    dir
}

/// Where the traced run writes its spans.
pub fn trace_dir() -> PathBuf {
    let dir = Path::new(".bench_build").join("perfbench-traces");
    std::fs::create_dir_all(&dir).expect("create the trace directory");
    dir
}

/// Temperature rows (°C) and frequency columns (Hz) of the design grid:
/// the paper's Figure 4 grid (30–100 °C × 100–1000 MHz), or a small grid
/// crossing the frontier for tiny runs.
pub fn grid_axes(spec: &RunSpec) -> (Vec<f64>, Vec<f64>) {
    if spec.tiny {
        (vec![60.0, 90.0, 100.0], vec![0.2e9, 0.4e9, 0.6e9, 0.8e9])
    } else {
        (
            (3..=10).map(|i| f64::from(i) * 10.0).collect(),
            (1..=10).map(|i| f64::from(i) * 100.0e6).collect(),
        )
    }
}

/// A table builder over [`grid_axes`].
pub fn grid(spec: &RunSpec) -> TableBuilder {
    let (t, f) = grid_axes(spec);
    TableBuilder::new().tstarts(t).ftargets(f)
}

/// The paper's mixed trace (web / multimedia / compute segments rotating
/// every `segment_s`), generated from the run's seed.
pub fn mixed_trace(seed: u64, segment_s: f64, duration_s: f64, cores: usize) -> Trace {
    TraceGenerator::new(seed).generate_mix(
        &[
            BenchmarkProfile::web_serving(),
            BenchmarkProfile::multimedia(),
            BenchmarkProfile::compute_intensive(),
        ],
        segment_s,
        duration_s,
        cores,
    )
}

/// The compute-intensive trace, generated from the run's seed.
pub fn compute_trace(seed: u64, duration_s: f64, cores: usize) -> Trace {
    TraceGenerator::new(seed).generate(&BenchmarkProfile::compute_intensive(), duration_s, cores)
}

/// SplitMix64: the benchmark's own seeded stream for query points.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + u * (hi - lo)
    }
}

/// Wraps a DFS policy: times each `frequencies` call, records a span per
/// tick, and counts ticks whose observed hottest core is over `tmax_c`.
/// Every other trait method forwards, so the engine sees the same policy.
pub struct TimedPolicy<P> {
    pub inner: P,
    span_name: &'static str,
    tmax_c: f64,
    /// Start instant and duration of each tick.
    pub ticks: Vec<(Instant, f64)>,
    pub over_tmax: u64,
}

impl<P: DfsPolicy> TimedPolicy<P> {
    pub fn new(inner: P, span_name: &'static str, tmax_c: f64) -> Self {
        TimedPolicy {
            inner,
            span_name,
            tmax_c,
            ticks: Vec::new(),
            over_tmax: 0,
        }
    }

    /// Wall time of each DFS window: from one tick's start to the next
    /// (the first window also carries the engine's start-up, the last
    /// ends at `end`).
    pub fn window_times(&self, start: Instant, end: Instant) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.ticks.len());
        for (i, (t0, _)) in self.ticks.iter().enumerate() {
            let from = if i == 0 { start } else { *t0 };
            let to = self.ticks.get(i + 1).map_or(end, |(t1, _)| *t1);
            out.push(to.duration_since(from).as_secs_f64());
        }
        out
    }
}

impl<P: DfsPolicy> DfsPolicy for TimedPolicy<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn frequencies(&mut self, obs: &Observation, platform: &Platform) -> Vec<f64> {
        if obs.max_core_temp > self.tmax_c {
            self.over_tmax += 1;
        }
        let _g = trace::span(self.span_name, obs.window_index);
        let t0 = Instant::now();
        let f = self.inner.frequencies(obs, platform);
        self.ticks.push((t0, t0.elapsed().as_secs_f64()));
        f
    }

    fn ladder_level(&self) -> Option<u8> {
        self.inner.ladder_level()
    }

    fn inject_solver_timeout(&mut self) {
        self.inner.inject_solver_timeout();
    }
}

/// Wraps an assignment policy and, in the traced run, sums the wall time
/// of its picks. A pick takes well under a microsecond and a replay makes
/// about 90 000, so they are timed rather than recorded as spans.
pub struct TimedAssign<A> {
    pub inner: A,
    pub busy_s: f64,
}

impl<A: AssignmentPolicy> AssignmentPolicy for TimedAssign<A> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn pick(&mut self, idle: &[usize], core_temps: &[f64]) -> usize {
        if !trace::enabled() {
            return self.inner.pick(idle, core_temps);
        }
        let t0 = Instant::now();
        let core = self.inner.pick(idle, core_temps);
        self.busy_s += t0.elapsed().as_secs_f64();
        core
    }
}

/// Median nanoseconds of one `ThermalSim::step` on the platform's own RC
/// network at the simulator's 0.4 ms step, under a fixed power pattern.
pub fn thermal_step_ns(platform: &Platform) -> f64 {
    let net = platform.rc_network();
    let model = DiscreteModel::new(&net, 400e-6, IntegrationMethod::ForwardEuler)
        .expect("the simulator's step is stable on every built-in platform");
    let initial = net.uniform_state(70.0);
    let mut sim = ThermalSim::from_parts(net, model, initial);
    let powers: Vec<f64> = (0..platform.num_blocks())
        .map(|b| 0.5 + 0.25 * (b % 4) as f64)
        .collect();
    const STEPS: usize = 2_000;
    let mut per_step = Vec::new();
    for _ in 0..7 {
        let t0 = Instant::now();
        for _ in 0..STEPS {
            sim.step(std::hint::black_box(&powers))
                .expect("power vector matches the block count");
        }
        per_step.push(t0.elapsed().as_secs_f64() * 1e9 / STEPS as f64);
    }
    std::hint::black_box(sim.max_core_temp());
    median(&per_step)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.95), 5.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert_ne!(Rng::new(8).next_u64(), a[0]);
    }
}
