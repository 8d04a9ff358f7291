//! Criterion benchmarks of the end-to-end algorithms on small workloads —
//! one group per paper experiment family (Fig. 9 / Fig. 12 / Fig. 13
//! shapes at benchmark scale), all dispatched through the unified
//! `MiningSession` API.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use desq::session::{AlgorithmSpec, MiningSession};
use desq_baselines::{LashConfig, MllibConfig};
use desq_core::{Dictionary, SequenceDb};
use desq_datagen::{amzn_like, nyt_like, to_forest, AmznConfig, NytConfig};
use desq_dist::NaiveConfig;

fn nyt() -> (Arc<Dictionary>, Arc<SequenceDb>) {
    let (d, db) = nyt_like(&NytConfig::new(3_000));
    (Arc::new(d), Arc::new(db))
}

fn amzn_f() -> (Arc<Dictionary>, Arc<SequenceDb>) {
    let (d, db) = amzn_like(&AmznConfig::new(3_000));
    let (d, db) = to_forest(&d, &db);
    (Arc::new(d), Arc::new(db))
}

fn session(dict: &Arc<Dictionary>, db: &Arc<SequenceDb>, expr: &str, sigma: u64) -> MiningSession {
    MiningSession::builder()
        .dictionary(dict.clone())
        .database(db.clone())
        .pattern_unanchored(expr)
        .sigma(sigma)
        .workers(4)
        .build()
        .unwrap()
}

/// Fig. 9 shape: the four general algorithms on a selective (N1) and a
/// loose (N4) constraint.
fn bench_fig9(c: &mut Criterion) {
    let (dict, db) = nyt();
    for (cname, sigma) in [("N1", 3u64), ("N4", 60u64)] {
        let constraint = match cname {
            "N1" => desq_dist::patterns::n1(),
            _ => desq_dist::patterns::n4(),
        };
        let base = session(&dict, &db, &constraint.expr, sigma);
        let mut group = c.benchmark_group(format!("fig9/{cname}"));
        group.sample_size(10);
        for spec in [
            AlgorithmSpec::Naive(NaiveConfig { filter: true }),
            AlgorithmSpec::d_seq(),
            AlgorithmSpec::d_cand(),
        ] {
            let run = base.with_algorithm(spec).unwrap();
            group.bench_function(BenchmarkId::new(spec.name(), sigma), |b| {
                b.iter(|| black_box(run.run().unwrap()))
            });
        }
        group.finish();
    }
}

/// Fig. 12 shape: LASH vs D-SEQ vs D-CAND in the specialized setting.
fn bench_fig12(c: &mut Criterion) {
    let (dict, db) = amzn_f();
    let sigma = 8u64;
    let base = session(&dict, &db, &desq_dist::patterns::t3(1, 5).expr, sigma);
    let mut group = c.benchmark_group("fig12/T3(8,1,5)");
    group.sample_size(10);
    for spec in [
        AlgorithmSpec::Lash(LashConfig::new(1, 5)),
        AlgorithmSpec::d_seq(),
        AlgorithmSpec::d_cand(),
    ] {
        let run = base.with_algorithm(spec).unwrap();
        group.bench_function(spec.name(), |b| b.iter(|| black_box(run.run().unwrap())));
    }
    group.finish();
}

/// Fig. 13 shape: MLlib PrefixSpan vs D-SEQ in the max-length-only setting.
fn bench_fig13(c: &mut Criterion) {
    let (dict, db) = amzn_f();
    let sigma = 150u64;
    let base = session(&dict, &db, &desq_dist::patterns::t1(5).expr, sigma);
    let mut group = c.benchmark_group("fig13/T1(150,5)");
    group.sample_size(10);
    for spec in [
        AlgorithmSpec::Mllib(MllibConfig { max_len: 5 }),
        AlgorithmSpec::d_seq(),
    ] {
        let run = base.with_algorithm(spec).unwrap();
        group.bench_function(spec.name(), |b| b.iter(|| black_box(run.run().unwrap())));
    }
    group.finish();
}

criterion_group! {
    name = algorithms;
    config = Criterion::default().sample_size(10);
    targets = bench_fig9, bench_fig12, bench_fig13
}
criterion_main!(algorithms);
