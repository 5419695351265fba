//! Criterion bench for the **convoy engine**: CMC runtime under every
//! execution engine — the swept single-pass cursor and the time-partitioned
//! parallel driver — on the Figure-12-scale dataset profiles.
//!
//! On a single-core box the parallel driver pays its partition overhead
//! without clustering speedup, so those rows primarily document that
//! overhead; run on a multi-core machine to measure the scaling curve.

use convoy_bench::{bench_scale, prepared};
use convoy_core::CmcEngine;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use traj_datasets::ProfileName;

fn engines() -> Vec<(&'static str, CmcEngine)> {
    vec![
        ("swept", CmcEngine::Swept),
        ("parallel-2", CmcEngine::Parallel { threads: 2 }),
        ("parallel-all", CmcEngine::Parallel { threads: 0 }),
    ]
}

fn bench_engine_scaling(c: &mut Criterion) {
    let scale = bench_scale();
    let mut group = c.benchmark_group("engine_scaling");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(1));
    for name in ProfileName::ALL {
        let data = prepared(name, scale);
        for (label, engine) in engines() {
            group.bench_with_input(
                BenchmarkId::new(label, name.name()),
                &engine,
                |b, engine| b.iter(|| engine.run(&data.dataset.database, &data.query)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_engine_scaling);
criterion_main!(benches);
