//! Microbenchmarks of the substrates every figure rests on: thermal
//! stepping, linear algebra kernels, trace generation and reachability.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use protemp::{AssignmentContext, ControlConfig};
use protemp_bench::platform;
use protemp_floorplan::niagara::niagara8;
use protemp_linalg::{expm, Cholesky, Lu, Matrix};
use protemp_sim::Platform;
use protemp_thermal::{AffineReach, DiscreteModel, IntegrationMethod, RcNetwork, ThermalConfig};
use protemp_workload::{BenchmarkProfile, TraceGenerator};

/// The packed linear rows of a platform's Phase-1 problem family: the
/// matrix every Newton step's row-space kernels run over.
fn family_rows(p: &Platform) -> Matrix {
    let ctx = AssignmentContext::new(p, &ControlConfig::default()).expect("context");
    let proto = ctx.family().prototype();
    let rows: Vec<&[f64]> = proto.lin_rows().iter().map(Vec::as_slice).collect();
    Matrix::from_rows(&rows)
}

fn bench(c: &mut Criterion) {
    let net = RcNetwork::from_floorplan(&niagara8(), &ThermalConfig::default());
    let model = DiscreteModel::new(&net, 0.4e-3, IntegrationMethod::ForwardEuler).expect("model");
    let t0 = net.uniform_state(60.0);
    let u = net
        .input_vector(&net.full_power_vector(3.0))
        .expect("input");

    let mut g = c.benchmark_group("substrates");
    g.sample_size(20).measurement_time(Duration::from_secs(3));

    g.bench_function("thermal_step_37_nodes", |b| {
        b.iter(|| model.step(black_box(&t0), black_box(&u)))
    });
    g.bench_function("thermal_window_250_steps", |b| {
        b.iter(|| model.simulate(black_box(&t0), black_box(&u), 250))
    });
    g.bench_function("reach_build_250", |b| {
        b.iter(|| AffineReach::new(&net, &model, 250).expect("reach"))
    });
    g.bench_function("steady_state_solve", |b| {
        b.iter(|| {
            net.steady_state(black_box(&net.full_power_vector(3.0)))
                .expect("ss")
        })
    });

    // Linear algebra on thermal-sized matrices.
    let n = net.num_nodes();
    let spd = {
        let m = net.system_matrix();
        let mut a = m.transpose().matmul(&m).expect("square");
        for i in 0..n {
            a[(i, i)] += 1.0;
        }
        a
    };
    g.bench_function("cholesky_37", |b| {
        b.iter(|| Cholesky::factor(black_box(&spd)).expect("chol"))
    });
    g.bench_function("lu_37", |b| {
        b.iter(|| Lu::factor(black_box(&spd)).expect("lu"))
    });
    // The Newton step's row-space kernels at the hot-path shapes: the
    // `AᵀDA` assembly and the slack matvec over every family row.
    for (p, shape, with_matvec) in [
        (Platform::niagara8(), (4835, 17), true),
        (Platform::stacked3d(), (2619, 9), false),
    ] {
        let a = family_rows(&p);
        assert_eq!(
            a.shape(),
            shape,
            "family row shape moved; rename the benches"
        );
        let (m, n) = shape;
        let rows: Vec<usize> = (0..m).collect();
        let w: Vec<f64> = (0..m).map(|i| 1.0 + (i % 7) as f64 * 0.1).collect();
        let mut h = Matrix::zeros(n, n);
        g.bench_function(format!("syrk_rows_{m}x{n}"), |b| {
            b.iter(|| {
                h.set_zero();
                h.syrk_lower_update_rows(&a, &rows, black_box(&w));
            })
        });
        if with_matvec {
            let x: Vec<f64> = (0..n).map(|j| 0.5 + j as f64 * 0.01).collect();
            let mut y = vec![0.0; m];
            g.bench_function(format!("matvec_rows_{m}x{n}"), |b| {
                b.iter(|| a.matvec_rows_into(&rows, black_box(&x), &mut y))
            });
        }
    }
    g.bench_function("expm_37", |b| {
        b.iter(|| expm(black_box(&net.system_matrix().scale(-0.4e-3))).expect("expm"))
    });
    g.bench_function("matmul_37", |b| {
        let m = Matrix::identity(n);
        b.iter(|| spd.matmul(black_box(&m)).expect("matmul"))
    });

    // Trace generation (the paper's 60 k-task scale, shortened).
    g.bench_function("trace_gen_1s_compute", |b| {
        b.iter(|| TraceGenerator::new(9).generate(&BenchmarkProfile::compute_intensive(), 1.0, 8))
    });

    let _ = platform();
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
