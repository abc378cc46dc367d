//! `design`: Phase 1 end to end on each built-in platform. The set-up
//! models each platform: its thermal context and the convex problem
//! family every grid point is solved over. Each pass then sweeps the
//! grid, saves to a store, opens the serving tier and checks the served
//! table.

use std::path::Path;
use std::time::Instant;

use protemp::{
    AssignmentContext, BuildArtifact, BuildStats, ControlConfig, FrequencyTable, TableService,
    TableStore,
};
use protemp_linalg::{Cholesky, Matrix};
use protemp_sim::Platform;

use crate::common::{
    best_of, grid, grid_axes, measure, median, pinned_workers, repeat_setup, work_dir, Outcome,
    Rng, RunSpec, SetupLayers,
};
use crate::trace;

pub const SCENARIOS: [&str; 3] = ["niagara8", "biglittle8", "stacked3d"];

/// Set-up repetitions (about a second each); the median is reported.
const SETUP_REPS: usize = 5;
/// Per-layer names of each scenario's context and family builds, in
/// `SCENARIOS` order.
const SETUP_LAYERS: [[&str; 2]; 3] = [
    ["thermal.context_s.niagara8", "cvx.family_build_s.niagara8"],
    [
        "thermal.context_s.biglittle8",
        "cvx.family_build_s.biglittle8",
    ],
    [
        "thermal.context_s.stacked3d",
        "cvx.family_build_s.stacked3d",
    ],
];
/// Fewest passes, so that every scenario's time is the best of three.
const MIN_PASSES: usize = 3;

fn platform(name: &str) -> Platform {
    match name {
        "niagara8" => Platform::niagara8(),
        "biglittle8" => Platform::biglittle8(),
        "stacked3d" => Platform::stacked3d(),
        other => unreachable!("unknown scenario {other}"),
    }
}

/// The design workload's set-up: each built-in platform, validated, its
/// thermal context (RC network, discretized model, reach operator) and
/// its problem family, with the build time of each.
fn contexts() -> (Vec<(&'static str, AssignmentContext)>, SetupLayers) {
    let cfg = ControlConfig::default();
    let mut layers = Vec::new();
    let ctxs = SCENARIOS
        .iter()
        .zip(SETUP_LAYERS)
        .enumerate()
        .map(|(i, (&name, [context_layer, family_layer]))| {
            let p = platform(name);
            p.validate().expect("built-in platforms validate");
            let (ctx, context_s) = trace::timed("thermal.context", i as u64, || {
                AssignmentContext::new(&p, &cfg).expect("built-in platforms form a valid context")
            });
            let ((), family_s) = trace::timed("cvx.family_build", i as u64, || {
                ctx.family();
            });
            layers.push((context_layer, context_s));
            layers.push((family_layer, family_s));
            (name, ctx)
        })
        .collect();
    (ctxs, layers)
}

/// Every grid point plus seeded query points inside the grid's range,
/// which each served table is checked against.
fn queries(spec: &RunSpec) -> Vec<(f64, f64)> {
    let (t, f) = grid_axes(spec);
    let (tlo, thi) = (t[0], t[t.len() - 1]);
    let fhi = f[f.len() - 1];
    let mut rng = Rng::new(spec.seed);
    let mut queries: Vec<(f64, f64)> = t
        .iter()
        .flat_map(|&tc| f.iter().map(move |&fh| (tc, fh)))
        .collect();
    queries.extend((0..20_000).map(|_| (rng.range(tlo, thi), rng.range(0.0, fhi))));
    queries
}

/// One scenario's pass: timings, counters and check results.
struct ScenarioRun {
    ready_s: f64,
    sweep_s: f64,
    save_s: f64,
    open_s: f64,
    stats: BuildStats,
    feasible: usize,
    store_bytes: u64,
    checked: u64,
    failed: u64,
    skipped_clean: bool,
}

fn file_len(p: &Path) -> u64 {
    std::fs::metadata(p).map_or(0, |m| m.len())
}

/// One scenario from its set-up context and family to a verified served
/// table.
fn run_scenario(
    spec: &RunSpec,
    id: u64,
    name: &'static str,
    ctx: &AssignmentContext,
    queries: &[(f64, f64)],
    dir: &Path,
) -> ScenarioRun {
    let workers = pinned_workers();
    let _g = trace::span("design.scenario", id);
    let t0 = Instant::now();
    let ((artifact, stats), sweep_s) = trace::timed("core.sweep", id, || {
        grid(spec)
            .threads(workers)
            .build_artifact(ctx)
            .expect("the Phase-1 sweep completes")
    });
    let store = TableStore::new(dir.join(name));
    let ((), save_s) = trace::timed("core.store_save", id, || {
        store.save(name, &artifact).expect("store save");
    });
    let (service, open_s) = trace::timed("core.serve_open", id, || {
        TableService::open(&store).expect("serving tier opens the store")
    });
    let ready_s = t0.elapsed().as_secs_f64();
    let store_bytes = file_len(&store.table_path(name)) + file_len(&store.certs_path(name));

    let (checked, failed, skipped_clean) = trace::within("bench.verify", id, || {
        let (cells, bad_cells) = reprop_failures(ctx, &artifact.table);
        let (lookups, bad_lookups) = served_mismatches(ctx, &service, &artifact, queries);
        (
            cells + lookups,
            bad_cells + bad_lookups,
            service.skipped().is_empty(),
        )
    });
    let _ = std::fs::remove_dir_all(store.dir());
    ScenarioRun {
        ready_s,
        sweep_s,
        save_s,
        open_s,
        stats,
        feasible: artifact.table.feasible_count(),
        store_bytes,
        checked,
        failed,
        skipped_clean,
    }
}

/// Re-propagates every feasible cell's powers through the full affine
/// reach operator: every core must stay under `tmax − margin` at every
/// step, and every sampled gradient under the cell's own bound. Returns
/// `(cells checked, cells failing)`.
fn reprop_failures(ctx: &AssignmentContext, table: &FrequencyTable) -> (u64, u64) {
    let cfg = ctx.config();
    let limit = cfg.tmax_c - cfg.margin_c;
    let n = ctx.platform().num_cores();
    let stride = cfg.gradient_stride.max(1);
    let (mut checked, mut failed) = (0u64, 0u64);
    for (r, &tstart) in table.tstarts_c().iter().enumerate() {
        let offsets = ctx.offsets_for(tstart);
        for c in 0..table.ftargets_hz().len() {
            let Some(a) = table.entry(r, c) else {
                continue;
            };
            checked += 1;
            let tgrad = a.tgrad_c.unwrap_or(f64::INFINITY);
            let mut ok = true;
            for (k, h) in ctx.reach().sensitivities().iter().enumerate() {
                let hp = h.matvec(&a.powers_w);
                let temps: Vec<f64> = (0..n).map(|i| hp[i] + offsets[k][i]).collect();
                ok &= temps.iter().all(|&t| t <= limit + 1e-6);
                if cfg.tgrad_weight > 0.0 && k % stride == 0 {
                    let hi = temps.iter().copied().fold(f64::MIN, f64::max);
                    let lo = temps.iter().copied().fold(f64::MAX, f64::min);
                    ok &= hi - lo <= tgrad + 1e-6;
                }
            }
            failed += u64::from(!ok);
        }
    }
    (checked, failed)
}

/// Every grid point and seeded query through the serving tier must equal
/// the built table's own answer, with no miss. Returns
/// `(lookups checked, lookups failing)`.
fn served_mismatches(
    ctx: &AssignmentContext,
    service: &TableService,
    artifact: &BuildArtifact,
    queries: &[(f64, f64)],
) -> (u64, u64) {
    let mut reader = service.reader(ctx.fingerprint());
    let mut failed = 0u64;
    for &(t, f) in queries {
        failed += u64::from(reader.lookup(t, f) != artifact.table.lookup(t, f));
    }
    failed += reader.served_misses();
    (queries.len() as u64, failed)
}

/// Median microseconds of the solver's row-space kernels at the family's
/// own shape: the KKT `AᵀDA` row update, the `vars × vars` Cholesky and
/// the row matvec. Returns `(syrk, cholesky, matvec, syrk flops, syrk bytes)`.
fn kernel_times(ctx: &AssignmentContext) -> (f64, f64, f64, f64, f64) {
    let proto = ctx.family().prototype();
    let rows: Vec<&[f64]> = proto.lin_rows().iter().map(Vec::as_slice).collect();
    let a = Matrix::from_rows(&rows);
    let (m, n) = a.shape();
    let idx: Vec<usize> = (0..m).collect();
    let w: Vec<f64> = (0..m).map(|i| 1.0 + (i % 7) as f64 * 0.1).collect();
    let x: Vec<f64> = (0..n).map(|j| 0.5 + j as f64 * 0.01).collect();
    let mut y = vec![0.0; m];
    let mut h = Matrix::zeros(n, n);
    let mut chol = Cholesky::zeroed(n);
    const REPS: usize = 41;
    let (mut syrk, mut fac, mut mv) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        h.set_zero();
        let t0 = Instant::now();
        h.syrk_lower_update_rows(&a, &idx, std::hint::black_box(&w));
        syrk.push(t0.elapsed().as_secs_f64() * 1e6);

        // Symmetric, positive definite copy for the factorization.
        let mut spd = h.clone();
        for i in 0..n {
            spd.row_mut(i)[i] += 1.0;
            for j in 0..i {
                let v = spd.row(i)[j];
                spd.row_mut(j)[i] = v;
            }
        }
        let t0 = Instant::now();
        chol.factor_in_place(std::hint::black_box(&spd), 0.0)
            .expect("AᵀDA + I is positive definite");
        fac.push(t0.elapsed().as_secs_f64() * 1e6);

        let t0 = Instant::now();
        a.matvec_rows_into(&idx, std::hint::black_box(&x), &mut y);
        mv.push(t0.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(&y);
    }
    let (mf, nf) = (m as f64, n as f64);
    let flops = mf * nf * (nf + 1.0);
    let bytes = 8.0 * (mf * nf + mf + nf * nf);
    (median(&syrk), median(&fac), median(&mv), flops, bytes)
}

pub fn run(spec: &RunSpec) -> Outcome {
    let mut out = Outcome::default();
    let scenarios = repeat_setup(&mut out, SETUP_REPS, |_| contexts());
    let queries = queries(spec);
    let dir = work_dir("design");

    let passes = measure(&mut out, spec, MIN_PASSES, |pass| {
        let _p = trace::span("design.pass", pass);
        scenarios
            .iter()
            .enumerate()
            .map(|(i, (name, ctx))| {
                let id = pass * SCENARIOS.len() as u64 + i as u64;
                run_scenario(spec, id, name, ctx, &queries, &dir)
            })
            .collect::<Vec<_>>()
    });
    let _ = std::fs::remove_dir_all(&dir);

    let first = &passes[0];
    for pass in &passes {
        for (run, base) in pass.iter().zip(first) {
            out.attempted += run.checked;
            out.failed += run.failed;
            let s = &run.stats;
            let b = &base.stats;
            let same = (
                s.newton_steps,
                s.phase1_solves,
                s.certificate_screens,
                run.feasible,
            ) == (
                b.newton_steps,
                b.phase1_solves,
                b.certificate_screens,
                base.feasible,
            );
            out.gate("design: deterministic counters repeat across passes", same);
            out.gate(
                "design: TableService::skipped() is empty",
                run.skipped_clean,
            );
        }
    }
    let per_pass: Vec<Vec<f64>> = passes
        .iter()
        .map(|p| p.iter().map(|r| r.ready_s).collect())
        .collect();
    out.latencies_s = best_of(&per_pass);
    out.requests = (passes.len() * SCENARIOS.len()) as u64;

    // From platform to served table: the set-up's context and family
    // builds, then a pass.
    let ready: Vec<f64> = passes
        .iter()
        .map(|p| p.iter().map(|r| r.ready_s).sum())
        .collect();
    out.report("table_ready_s", median(&out.setup_s) + median(&ready), "s");
    let feasible: usize = first.iter().map(|r| r.feasible).sum();
    out.report("feasible_cells", feasible as f64, "count");
    out.report("passes", passes.len() as f64, "count");

    let traced = trace::enabled();
    for (i, (name, ctx)) in scenarios.iter().enumerate() {
        let col = |f: &dyn Fn(&ScenarioRun) -> f64| -> f64 {
            median(&passes.iter().map(|p| f(&p[i])).collect::<Vec<_>>())
        };
        let base = &first[i];
        let sweep_s = col(&|r| r.sweep_s);
        let newton = base.stats.newton_steps as f64;
        let modelled_s: f64 = SETUP_LAYERS[i].iter().map(|l| out.layers[*l]).sum();
        out.report(
            &format!("table_ready_s.{name}"),
            modelled_s + col(&|r| r.ready_s),
            "s",
        );
        out.report(
            &format!("feasible_cells.{name}"),
            base.feasible as f64,
            "count",
        );
        out.report(&format!("newton_steps.{name}"), newton, "count");
        let family = ctx.family();
        let layers: [(&str, f64); 13] = [
            ("cvx.lin_rows", family.num_lin_rows() as f64),
            ("cvx.vars", family.num_vars() as f64),
            ("core.sweep_s", sweep_s),
            ("core.sweep_newton_steps", newton),
            ("core.sweep_phase1_solves", base.stats.phase1_solves as f64),
            (
                "core.sweep_certificate_screens",
                base.stats.certificate_screens as f64,
            ),
            ("core.sweep_feasible_cells", base.feasible as f64),
            ("core.sweep_reduce_s", col(&|r| r.stats.reduce_s)),
            ("core.sweep_us_per_newton", sweep_s * 1e6 / newton.max(1.0)),
            ("core.store_save_s", col(&|r| r.save_s)),
            ("core.store_bytes", base.store_bytes as f64),
            ("core.serve_open_s", col(&|r| r.open_s)),
            ("core.sweep_workers", base.stats.threads as f64),
        ];
        for (layer, v) in layers {
            out.layer(format!("{layer}.{name}"), v);
        }
        if traced {
            let (syrk, chol, mv, flops, bytes) = kernel_times(ctx);
            out.layer(format!("linalg.syrk_rows_us.{name}"), syrk);
            out.layer(format!("linalg.cholesky_us.{name}"), chol);
            out.layer(format!("linalg.matvec_rows_us.{name}"), mv);
            out.layer(format!("linalg.syrk_flops.{name}"), flops);
            out.layer(format!("linalg.syrk_bytes.{name}"), bytes);
        }
    }
    out
}
