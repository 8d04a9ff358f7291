//! Head-to-head comparison of the four distributed algorithms on one
//! workload — a miniature of the paper's Fig. 9.
//!
//! Runs NAÏVE, SEMI-NAÏVE, D-SEQ and D-CAND on an NYT-like corpus under a
//! selective (N1) and a looser (N4) constraint, and prints run times and
//! shuffle sizes. All four produce identical results; they differ in what
//! they communicate. One `MiningSession` per workload drives all four.
//!
//! Run with: `cargo run --release --example compare_algorithms`

use std::sync::Arc;

use desq::core::MiningResult;
use desq::datagen::{nyt_like, NytConfig};
use desq::dist::NaiveConfig;
use desq::session::{AlgorithmSpec, MiningSession};

fn run(base: &MiningSession, spec: AlgorithmSpec) -> Option<MiningResult> {
    match base.with_algorithm(spec).and_then(|s| s.run()) {
        Ok(res) => {
            println!(
                "  {:<12} {:>8.0} ms   {:>10} B shuffled   {:>6} patterns",
                spec.name(),
                res.metrics.total_secs() * 1e3,
                res.metrics.shuffle_bytes,
                res.patterns.len()
            );
            Some(res)
        }
        Err(e) => {
            println!("  {:<12} n/a ({e})", spec.name());
            None
        }
    }
}

fn compare(base: &MiningSession) {
    let outcomes = [
        AlgorithmSpec::Naive(NaiveConfig { filter: false }),
        AlgorithmSpec::Naive(NaiveConfig { filter: true }),
        AlgorithmSpec::d_seq(),
        AlgorithmSpec::d_cand(),
    ]
    .map(|spec| run(base, spec));
    // Whatever completed must agree.
    let mut results: Vec<MiningResult> = outcomes.into_iter().flatten().collect();
    if let Some(first) = results.pop() {
        for other in &results {
            assert_eq!(first.patterns, other.patterns, "algorithms disagree!");
        }
        println!("  -> all completed algorithms returned identical results");
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (dict, db) = nyt_like(&NytConfig::new(10_000));
    let (dict, db) = (Arc::new(dict), Arc::new(db));
    let session = |expr: &str, sigma: u64| {
        MiningSession::builder()
            .dictionary(dict.clone())
            .database(db.clone())
            .pattern_unanchored(expr)
            .sigma(sigma)
            .workers(4)
            .partitions(8)
            .budget(2_000_000)
            .build()
    };

    // Selective constraint: few candidates per sequence — candidate
    // representation (D-CAND) shines.
    let n1 = desq::dist::patterns::n1();
    println!("{} `{}` (σ = 10):", n1.name, n1.expr);
    compare(&session(&n1.expr, 10)?);

    // Looser constraint: two orders of magnitude more candidates — sequence
    // representation (D-SEQ) is the robust choice.
    let n4 = desq::dist::patterns::n4();
    println!("\n{} `{}` (σ = 500):", n4.name, n4.expr);
    compare(&session(&n4.expr, 500)?);

    Ok(())
}
