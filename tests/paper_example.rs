//! End-to-end walk through every worked example of the paper on the
//! running-example database (Fig. 2 – Fig. 8), plus the session-level
//! cross-algorithm equivalence and result-ordering invariants.

use desq::baselines::{LashConfig, MllibConfig};
use desq::core::{toy, Sequence};
use desq::dist::{NaiveConfig, PivotSearch};
use desq::miner::{GapMiner, PrefixSpan};
use desq::session::{AlgorithmSpec, MiningSession};
use desq_oracle::candidates;

const NAIVE: AlgorithmSpec = AlgorithmSpec::Naive(NaiveConfig { filter: false });
const SEMI_NAIVE: AlgorithmSpec = AlgorithmSpec::Naive(NaiveConfig { filter: true });

fn toy_session(sigma: u64) -> MiningSession {
    let fx = toy::fixture();
    MiningSession::builder()
        .dictionary(fx.dict)
        .database(fx.db)
        .pattern(toy::PATTERN)
        .sigma(sigma)
        .workers(2)
        .partitions(2)
        .build()
        .unwrap()
}

/// Sec. II: the problem-statement result for σ = 2, through every
/// FST-based algorithm of the unified API.
#[test]
fn frequent_sequences_of_the_running_example() {
    let fx = toy::fixture();
    let session = toy_session(2);
    let expect: Vec<(Sequence, u64)> = vec![
        (vec![fx.a1, fx.b], 3),
        (vec![fx.a1, fx.big_a, fx.b], 2),
        (vec![fx.a1, fx.a1, fx.b], 2),
    ];
    for spec in [
        NAIVE,
        SEMI_NAIVE,
        AlgorithmSpec::d_seq(),
        AlgorithmSpec::d_cand(),
    ] {
        let res = session.with_algorithm(spec).unwrap().run().unwrap();
        assert_eq!(res.patterns, expect, "{}", spec.name());
    }
}

/// The session-level equivalence property on the Fig. 2 toy database,
/// parameterized over σ and over *all* `AlgorithmSpec` variants: within
/// each group of algorithms that implement the same constraint semantics,
/// the mined pattern sets are identical — and every result upholds the
/// documented `MiningResult` ordering invariant (sorted lexicographically),
/// asserted here in one place for all algorithms.
#[test]
fn all_algorithm_specs_agree_within_their_constraint_groups() {
    let fx = toy::fixture();
    let max_gap = fx.db.max_len(); // "arbitrary gaps" for the gap miners
    for sigma in 1..=3u64 {
        // Group 1 — the πex constraint: all six FST-based algorithms.
        let pi_ex = toy_session(sigma);
        let pi_specs = [
            AlgorithmSpec::DesqDfs,
            AlgorithmSpec::DesqCount,
            NAIVE,
            SEMI_NAIVE,
            AlgorithmSpec::d_seq(),
            AlgorithmSpec::d_cand(),
        ];
        check_group(&pi_ex, &pi_specs, "πex", sigma);

        // Group 2 — T1(σ, 3) semantics: PrefixSpan and MLlib-PrefixSpan
        // natively, DESQ via the T1 pattern expression.
        let t1 = session_for_expr(&desq::dist::patterns::t1(3).expr, sigma);
        let t1_specs = [
            AlgorithmSpec::PrefixSpan(PrefixSpan { max_len: 3 }),
            AlgorithmSpec::Mllib(MllibConfig { max_len: 3 }),
            AlgorithmSpec::DesqCount,
            AlgorithmSpec::d_seq(),
        ];
        check_group(&t1, &t1_specs, "T1", sigma);

        // Group 3 — T3(σ, γ, 3) semantics with arbitrary-gap γ: the gap
        // miner and LASH natively, DESQ via the T3 pattern expression.
        let t3 = session_for_expr(&desq::dist::patterns::t3(max_gap, 3).expr, sigma);
        let t3_specs = [
            AlgorithmSpec::GapMiner(GapMiner::new(max_gap, 3, true)),
            AlgorithmSpec::Lash(LashConfig::new(max_gap, 3)),
            AlgorithmSpec::DesqCount,
            AlgorithmSpec::d_cand(),
        ];
        check_group(&t3, &t3_specs, "T3", sigma);
    }
}

fn session_for_expr(expr: &str, sigma: u64) -> MiningSession {
    let fx = toy::fixture();
    MiningSession::builder()
        .dictionary(fx.dict)
        .database(fx.db)
        .pattern_unanchored(expr)
        .sigma(sigma)
        .workers(2)
        .partitions(3)
        .build()
        .unwrap()
}

fn check_group(base: &MiningSession, specs: &[AlgorithmSpec], what: &str, sigma: u64) {
    let mut reference: Option<(&'static str, Vec<(Sequence, u64)>)> = None;
    for spec in specs {
        let res = base.with_algorithm(*spec).unwrap().run().unwrap();
        // The documented MiningResult invariant, checked for every
        // algorithm in one place.
        assert!(
            res.is_sorted(),
            "{what}/σ={sigma}: {} violated the sort invariant",
            spec.name()
        );
        match &reference {
            None => reference = Some((spec.name(), res.patterns)),
            Some((rname, rpatterns)) => assert_eq!(
                &res.patterns,
                rpatterns,
                "{what}/σ={sigma}: {} vs {rname}",
                spec.name()
            ),
        }
    }
}

/// Fig. 3: the item-based partitioning of the example — K(T) per sequence
/// and the candidate subsequences each partition is responsible for.
#[test]
fn fig3_item_based_partitioning() {
    let fx = toy::fixture();
    let search = PivotSearch::new(&fx.fst, &fx.dict, fx.dict.last_frequent(2));
    let expected_pivots: [Vec<u32>; 5] = [
        vec![fx.a1, fx.c], // T1
        vec![fx.a1],       // T2 (e is infrequent at σ=2)
        vec![],            // T3
        vec![],            // T4 (a2 infrequent)
        vec![fx.a1],       // T5
    ];
    for (t, expect) in fx.db.sequences.iter().zip(&expected_pivots) {
        let got: Vec<u32> = search.pivots(t).iter().map(|p| p.item).collect();
        assert_eq!(&got, expect, "K({t:?})");
    }
}

/// Fig. 3 right column: the candidate representation content of P_c and
/// P_a1 for T1.
#[test]
fn fig3_candidate_representation_for_t1() {
    let fx = toy::fixture();
    let t1 = &fx.db.sequences[0];
    let cands = candidates::generate(&fx.fst, &fx.dict, t1, Some(2), usize::MAX).unwrap();
    let (pc, pa1): (Vec<Sequence>, Vec<Sequence>) = cands
        .into_iter()
        .partition(|s| desq::core::sequence::pivot(s) == fx.c);
    let mut pc: Vec<String> = pc.iter().map(|s| fx.dict.render(s)).collect();
    pc.sort();
    assert_eq!(
        pc,
        vec!["a1 c b", "a1 c c b", "a1 c d b", "a1 c d c b", "a1 d c b"]
    );
    let mut pa1: Vec<String> = pa1.iter().map(|s| fx.dict.render(s)).collect();
    pa1.sort();
    assert_eq!(pa1, vec!["a1 b", "a1 d b"]);
}

/// Sec. V-B: ρ_a1(T2) = a1 e a1 e b (two leading irrelevant e's dropped).
#[test]
fn rewriting_example() {
    let fx = toy::fixture();
    let search = PivotSearch::new(&fx.fst, &fx.dict, fx.dict.last_frequent(2));
    let t2 = &fx.db.sequences[1];
    let pr = search.pivots(t2);
    assert_eq!(pr.len(), 1);
    let rewritten = &t2[pr[0].first as usize..=pr[0].last as usize];
    assert_eq!(fx.dict.render(rewritten), "a1 e a1 e b");
}

/// Sec. VII intuition: D-SEQ's rewriting and D-CAND's NFA compression both
/// beat the naive candidate lists in shuffle volume on the toy database
/// (the toy is tiny, so compare against NAIVE which ships G_π(T) verbatim).
#[test]
fn representations_are_compact() {
    let session = toy_session(2);
    let shuffle = |spec: AlgorithmSpec| {
        session
            .with_algorithm(spec)
            .unwrap()
            .run()
            .unwrap()
            .metrics
            .shuffle_bytes
    };
    let nv = shuffle(NAIVE);
    assert!(shuffle(AlgorithmSpec::d_seq()) < nv);
    assert!(shuffle(AlgorithmSpec::d_cand()) < nv);
}

/// The partition-balance property of item-based partitioning (Sec. III-B):
/// frequent items head many partitions but the per-partition data stays
/// bounded; here we just assert every partition key is a frequent item.
#[test]
fn partitions_only_for_frequent_pivots() {
    let fx = toy::fixture();
    let search = PivotSearch::new(&fx.fst, &fx.dict, fx.dict.last_frequent(2));
    for t in &fx.db.sequences {
        for p in search.pivots(t) {
            assert!(
                fx.dict.is_frequent(p.item, 2),
                "pivot {} infrequent",
                p.item
            );
        }
    }
}
