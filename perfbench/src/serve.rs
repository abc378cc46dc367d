//! `serve`: the serving tier's read path. A `TableService` opened from a
//! `stacked3d` 8×10 artifact answers lookups in a closed read loop while
//! the 16×20 incremental refinement is published mid-flight.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use protemp::{
    AssignmentContext, BuildArtifact, ControlConfig, LookupOutcome, TableBuilder, TableService,
    TableStore,
};
use protemp_sim::Platform;

use crate::common::{
    available_cores, grid, grid_axes, median, pinned_workers, repeat_setup, work_dir, Outcome, Rng,
    RunSpec, SetupLayers,
};
use crate::trace;

const SETUP_REPS: usize = 9;
/// Lookups timed together as one latency sample, and recorded as one
/// `core.serve.lookups` span in the traced run. After each batch one more
/// lookup's answer is kept for the linearizability check.
const BATCH: usize = 16384;
/// Consecutive batches that form one round (under a second). Every batch
/// makes the same lookups, so a round's per-lookup time is its fastest
/// batch, as other workloads take each request's fastest repeat.
const ROUND: usize = 1024;

/// The 2× refinement of the design grid in both axes.
fn fine_grid(spec: &RunSpec) -> TableBuilder {
    let (t, f) = if spec.tiny {
        (
            vec![60.0, 75.0, 90.0, 95.0, 100.0],
            (2..=8).map(|i| f64::from(i) * 0.1e9).collect(),
        )
    } else {
        (
            (6..=21).map(|i| f64::from(i) * 5.0).collect(),
            (1..=20).map(|i| f64::from(i) * 50.0e6).collect(),
        )
    };
    TableBuilder::new().tstarts(t).ftargets(f)
}

struct Setup {
    service: Arc<TableService>,
    refined: BuildArtifact,
    fingerprint: u64,
    store_dir: PathBuf,
    queries: Vec<(f64, f64)>,
}

impl Drop for Setup {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.store_dir);
    }
}

fn setup(spec: &RunSpec, rep: usize) -> (Setup, SetupLayers) {
    let platform = Platform::stacked3d();
    let (ctx, context_s) = trace::timed("thermal.context", 0, || {
        AssignmentContext::new(&platform, &ControlConfig::default())
            .expect("stacked3d forms a valid context")
    });
    let ((), family_s) = trace::timed("cvx.family_build", 0, || {
        ctx.family();
    });
    let workers = pinned_workers();
    let ((coarse, refined), sweep_s) = trace::timed("core.sweep", 0, || {
        let (coarse, _) = grid(spec)
            .threads(workers)
            .build_artifact(&ctx)
            .expect("the coarse table builds");
        let (refined, _) = fine_grid(spec)
            .threads(workers)
            .build_incremental(&ctx, &coarse)
            .expect("the refinement builds");
        (coarse, refined)
    });
    let store_dir = work_dir(&format!("serve{rep}"));
    let store = TableStore::new(&store_dir);
    let ((), save_s) = trace::timed("core.store_save", 0, || {
        store.save("coarse", &coarse).expect("store save");
    });
    let store_bytes = [store.table_path("coarse"), store.certs_path("coarse")]
        .iter()
        .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
        .sum::<u64>() as f64;
    let (service, open_s) = trace::timed("core.serve_open", 0, || {
        TableService::open(&store).expect("serving tier opens the store")
    });

    // Queries inside the coarse grid's temperature range (so every one is
    // covered) and across its demand range and a little beyond.
    let (t, f) = grid_axes(spec);
    let (tlo, thi, fhi) = (t[0], t[t.len() - 1], f[f.len() - 1]);
    let mut rng = Rng::new(spec.seed);
    let queries = (0..4096)
        .map(|_| (rng.range(tlo, thi), rng.range(0.0, 1.1 * fhi)))
        .collect();
    let s = Setup {
        service: Arc::new(service),
        refined,
        fingerprint: ctx.fingerprint(),
        store_dir,
        queries,
    };
    let layers = vec![
        ("thermal.context_s", context_s),
        ("cvx.family_build_s", family_s),
        ("core.sweep_s", sweep_s),
        ("core.store_save_s", save_s),
        ("core.serve_open_s", open_s),
        ("core.store_bytes", store_bytes),
    ];
    (s, layers)
}

/// Per-lookup seconds of every batch, in logarithmic bins 0.1% wide from
/// 0.1 ns to about 50 ms. Memory stays the same however many batches a
/// run makes, so `peak_rss_mb` does not follow the lookup rate.
struct LatencyHist {
    bins: Vec<u64>,
    total: u64,
}

impl LatencyHist {
    const LO_S: f64 = 1e-10;
    const STEP: f64 = 1.001;
    const BINS: usize = 20_000;

    fn new() -> Self {
        LatencyHist {
            bins: vec![0; Self::BINS],
            total: 0,
        }
    }

    fn add(&mut self, secs: f64) {
        let i = ((secs / Self::LO_S).ln() / Self::STEP.ln()).max(0.0) as usize;
        self.bins[i.min(Self::BINS - 1)] += 1;
        self.total += 1;
    }

    fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Nearest-rank quantile, at the centre of its bin.
    fn quantile(&self, q: f64) -> f64 {
        let rank = ((self.total as f64 * q).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, n) in self.bins.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::LO_S * Self::STEP.powf(i as f64 + 0.5);
            }
        }
        0.0
    }
}

/// A lookup outcome reduced to a hash of its full `Debug` rendering (every
/// frequency, the grid cell, the degraded flag), so that the samples kept
/// for the linearizability check take a fixed amount of memory.
fn outcome_key(o: &LookupOutcome) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    format!("{o:?}").hash(&mut h);
    h.finish()
}

/// What one reader thread brings back.
struct ReaderResult {
    lookups: u64,
    hist: LatencyHist,
    /// The fastest batch of each round, per-lookup seconds.
    round_best_s: Vec<f64>,
    /// `(query index, outcome key)` of the lookup after each batch.
    samples: Vec<(usize, u64)>,
    misses: u64,
    spans: Vec<trace::Span>,
}

fn reader_loop(
    s: &Setup,
    offset: usize,
    start: &Barrier,
    stop: &AtomicBool,
    is_root: bool,
    seconds: f64,
) -> ReaderResult {
    let mut reader = s.service.reader(s.fingerprint);
    let q = &s.queries;
    let mut i = offset;
    let mut batches = 0u64;
    let mut hist = LatencyHist::new();
    let mut round_best_s = Vec::new();
    let mut best = f64::INFINITY;
    // Sized and written up front for 100 M lookups/s, so that resident
    // memory does not depend on how fast the loop runs.
    let cap = (seconds * 100e6 / BATCH as f64) as usize;
    let mut samples = vec![(usize::MAX, u64::MAX); cap];
    let mut sampled = 0;
    start.wait();
    {
        let _root = is_root.then(|| trace::span(trace::ROOT, 0));
        while !stop.load(Ordering::Relaxed) {
            {
                let _g = trace::span("core.serve.lookups", batches);
                let t0 = Instant::now();
                for _ in 0..BATCH {
                    let (t, f) = q[i % q.len()];
                    i += 1;
                    std::hint::black_box(reader.lookup_ref(t, f));
                }
                let per_lookup_s = t0.elapsed().as_secs_f64() / BATCH as f64;
                hist.add(per_lookup_s);
                best = best.min(per_lookup_s);
            }
            batches += 1;
            if batches.is_multiple_of(ROUND as u64) {
                round_best_s.push(std::mem::replace(&mut best, f64::INFINITY));
            }
            let k = i % q.len();
            if let Some(slot) = samples.get_mut(sampled) {
                let (t, f) = q[k];
                *slot = (k, outcome_key(&reader.lookup(t, f)));
                sampled += 1;
            }
        }
    }
    if best.is_finite() {
        round_best_s.push(best);
    }
    samples.truncate(sampled);
    ReaderResult {
        lookups: batches * BATCH as u64,
        hist,
        round_best_s,
        samples,
        misses: reader.served_misses(),
        spans: trace::take(),
    }
}

/// Median nanoseconds of `FrequencyTable::lookup_ref` on one thread,
/// straight on the refined table without the snapshot indirection.
fn table_lookup_ns(s: &Setup) -> f64 {
    let table = &s.refined.table;
    let mut per = Vec::new();
    for _ in 0..7 {
        let t0 = Instant::now();
        for &(t, f) in s.queries.iter().cycle().take(200_000) {
            std::hint::black_box(table.lookup_ref(std::hint::black_box(t), f));
        }
        per.push(t0.elapsed().as_secs_f64() * 1e9 / 200_000.0);
    }
    median(&per)
}

pub fn run(spec: &RunSpec) -> Outcome {
    let mut out = Outcome::default();
    let s = repeat_setup(&mut out, SETUP_REPS, |rep| setup(spec, rep));
    out.gate(
        "serve: TableService::skipped() is empty",
        s.service.skipped().is_empty(),
    );

    // Readers plus this (publishing) thread stay within the core count.
    let readers = available_cores().saturating_sub(1).max(1);
    let fp = s.fingerprint;
    let before = s.service.snapshot();
    let start = Barrier::new(readers + 1);
    let stop = AtomicBool::new(false);
    let (results, measured_s, generation, publish_s) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..readers)
            .map(|r| {
                let (s, start, stop) = (&s, &start, &stop);
                scope.spawn(move || reader_loop(s, r * 997, start, stop, r == 0, spec.seconds))
            })
            .collect();
        start.wait();
        let t_meas = Instant::now();
        std::thread::sleep(Duration::from_secs_f64(spec.seconds / 3.0));
        let (generation, publish_s) = trace::timed("core.serve.publish", 0, || {
            s.service
                .publish("refined", &s.refined)
                .expect("publish the refinement")
        });
        let rest = spec.seconds - t_meas.elapsed().as_secs_f64();
        std::thread::sleep(Duration::from_secs_f64(rest.max(0.0)));
        stop.store(true, Ordering::Relaxed);
        let measured_s = t_meas.elapsed().as_secs_f64();
        let results: Vec<ReaderResult> = handles
            .into_iter()
            .map(|h| h.join().expect("reader thread"))
            .collect();
        (results, measured_s, generation, publish_s)
    });
    out.measured_s = measured_s;
    let after = s.service.snapshot();

    let mut torn = 0u64;
    let mut misses = 0u64;
    let mut lookups = 0u64;
    let mut sampled = 0u64;
    let mut hist = LatencyHist::new();
    for r in &results {
        lookups += r.lookups;
        misses += r.misses;
        hist.merge(&r.hist);
        out.latencies_s.extend(&r.round_best_s);
        for &(k, got) in &r.samples {
            let (t, f) = s.queries[k];
            sampled += 1;
            let ok = got == outcome_key(&before.lookup(fp, t, f))
                || got == outcome_key(&after.lookup(fp, t, f));
            torn += u64::from(!ok);
        }
    }
    out.requests = lookups;
    out.attempted = sampled + lookups;
    out.failed = torn + misses;
    out.gate("serve: the publish landed as generation 1", generation == 1);
    out.gate(
        "serve: both resolutions are served after the publish",
        after.tables(fp).len() == 2,
    );

    let rate = lookups as f64 / out.measured_s;
    out.report("lookups_per_s", rate, "1/s");
    out.report("lookup_p99_us", hist.quantile(0.99) * 1e6, "us");
    out.report("readers", readers as f64, "count");

    out.layer("core.serve.publish_s", publish_s);
    out.layer("core.serve.lookups", lookups as f64);
    out.layer("core.serve.misses", misses as f64);
    out.layer("core.serve.torn", torn as f64);
    // Over every batch, not only each round's fastest.
    out.layer("core.serve.lookup_p50_us", hist.quantile(0.5) * 1e6);
    out.layer("core.serve.lookup_p99_us", hist.quantile(0.99) * 1e6);
    if trace::enabled() {
        out.layer("core.table.lookup_ns", table_lookup_ns(&s));
        out.extra_spans = results.into_iter().map(|r| r.spans).collect();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::quantile;

    #[test]
    fn histogram_quantiles_match_exact_ones_within_a_bin() {
        let values: Vec<f64> = (1..=1000).map(|i| f64::from(i) * 1e-9).collect();
        let mut a = LatencyHist::new();
        let mut b = LatencyHist::new();
        for (i, &v) in values.iter().enumerate() {
            if i % 2 == 0 {
                a.add(v)
            } else {
                b.add(v)
            }
        }
        a.merge(&b);
        for q in [0.01, 0.5, 0.99, 1.0] {
            let (got, want) = (a.quantile(q), quantile(&values, q));
            assert!((got / want - 1.0).abs() < 1e-3, "q {q}: {got} vs {want}");
        }
    }
}
