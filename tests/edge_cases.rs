//! Edge cases and failure injection across the public API (the unified
//! `MiningSession` surface plus the error paths beneath it).

use desq::baselines::{LashConfig, MllibConfig};
use desq::core::mining::CancelToken;
use desq::core::{toy, DictionaryBuilder, Error, Fst, PatEx, SequenceDb};
use desq::datagen::{nyt_like, NytConfig};
use desq::dist::NaiveConfig;
use desq::miner::{GapMiner, PrefixSpan};
use desq::session::{AlgorithmSpec, MiningSession};

const NAIVE: AlgorithmSpec = AlgorithmSpec::Naive(NaiveConfig { filter: false });
const SEMI_NAIVE: AlgorithmSpec = AlgorithmSpec::Naive(NaiveConfig { filter: true });

/// Every `AlgorithmSpec` variant (NAÏVE in both settings), for exhaustive
/// validation sweeps.
fn all_specs() -> [AlgorithmSpec; 10] {
    [
        AlgorithmSpec::DesqDfs,
        AlgorithmSpec::DesqCount,
        AlgorithmSpec::PrefixSpan(PrefixSpan { max_len: 3 }),
        AlgorithmSpec::GapMiner(GapMiner::new(1, 3, true)),
        NAIVE,
        SEMI_NAIVE,
        AlgorithmSpec::d_seq(),
        AlgorithmSpec::d_cand(),
        AlgorithmSpec::Lash(LashConfig::new(1, 3)),
        AlgorithmSpec::Mllib(MllibConfig { max_len: 3 }),
    ]
}

fn toy_builder() -> desq::session::MiningSessionBuilder {
    let fx = toy::fixture();
    MiningSession::builder()
        .dictionary(fx.dict)
        .database(fx.db)
        .pattern(toy::PATTERN)
        .workers(2)
}

/// The single session-level validator rejects σ = 0 with the same
/// `Error::Invalid` for *every* algorithm — the check that used to be
/// duplicated in `desq_count`/`d_seq`/`d_cand` (and missing from
/// `desq_dfs`) now lives in exactly one place.
#[test]
fn zero_sigma_rejected_uniformly_across_all_algorithms() {
    for spec in all_specs() {
        let err = toy_builder().sigma(0).algorithm(spec).build().unwrap_err();
        assert!(
            matches!(err, Error::Invalid(ref m) if m.contains("sigma")),
            "{}: expected the shared sigma validation error, got {err}",
            spec.name()
        );
    }
}

/// γ = `usize::MAX` is how "no gap limit" is written (Fig. 13 runs MG-FSM
/// with γ beyond any sequence length). It must mine exactly what γ = the
/// longest sequence's length mines — no gap can be longer — for the gap
/// miner and for MG-FSM alike, not overflow `γ + 1` (a panic in a debug
/// build, an empty result in a release build).
#[test]
fn an_unbounded_gap_mines_like_the_longest_sequence() {
    let fx = toy::fixture();
    let (nyt_dict, nyt_db) = nyt_like(&NytConfig::new(2_000));
    let specs: [fn(usize) -> AlgorithmSpec; 2] = [
        |gamma| AlgorithmSpec::GapMiner(GapMiner::new(gamma, 3, false)),
        |gamma| AlgorithmSpec::Lash(LashConfig::new(gamma, 3).without_hierarchy()),
    ];
    for (what, dict, db, sigma) in [("toy", fx.dict, fx.db, 1), ("nyt", nyt_dict, nyt_db, 10)] {
        let longest = db.sequences.iter().map(Vec::len).max().unwrap();
        let builder = MiningSession::builder()
            .dictionary(dict)
            .database(db)
            .sigma(sigma)
            .workers(2);
        for spec in specs {
            let mine = |gamma| {
                let session = builder.clone().algorithm(spec(gamma)).build().unwrap();
                session.run().unwrap().patterns
            };
            let bounded = mine(longest);
            assert!(!bounded.is_empty(), "{what}: {}", spec(longest).name());
            assert_eq!(
                mine(usize::MAX),
                bounded,
                "{what}: {}",
                spec(longest).name()
            );
        }
    }
}

/// One matrix over every algorithm: a run whose cancellation token tripped
/// before it started fails with `Cancelled`, and a run whose deadline has
/// already passed fails with `DeadlineExceeded` — whether the algorithm
/// polls the token in a scheduler, in the BSP engine or per pattern.
#[test]
fn every_algorithm_stops_on_cancellation_and_on_an_expired_deadline() {
    for spec in all_specs() {
        let cancelled = CancelToken::new();
        cancelled.cancel();
        let err = toy_builder()
            .sigma(1)
            .algorithm(spec)
            .cancel_token(cancelled)
            .build()
            .unwrap()
            .run()
            .unwrap_err();
        assert!(matches!(err, Error::Cancelled(_)), "{}: {err}", spec.name());

        let err = toy_builder()
            .sigma(1)
            .algorithm(spec)
            .deadline(std::time::Duration::from_nanos(1))
            .build()
            .unwrap()
            .run()
            .unwrap_err();
        assert!(
            matches!(err, Error::DeadlineExceeded(_)),
            "{}: {err}",
            spec.name()
        );
    }
}

#[test]
fn empty_database() {
    let fx = toy::fixture();
    for spec in [AlgorithmSpec::d_seq(), AlgorithmSpec::d_cand(), NAIVE] {
        let res = MiningSession::builder()
            .dictionary(fx.dict.clone())
            .database(SequenceDb::default())
            .pattern(toy::PATTERN)
            .sigma(1)
            .algorithm(spec)
            .workers(2)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert!(res.patterns.is_empty());
        assert_eq!(res.metrics.shuffle_bytes, 0);
        assert_eq!(res.metrics.input_sequences, 0);
    }
}

#[test]
fn sigma_above_database_size() {
    let res = toy_builder()
        .sigma(100)
        .algorithm(AlgorithmSpec::d_seq())
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert!(res.patterns.is_empty());
}

#[test]
fn empty_sequences_in_database() {
    let fx = toy::fixture();
    let mut db = fx.db.clone();
    db.sequences.push(Vec::new());
    db.sequences.insert(0, Vec::new());
    let session = MiningSession::builder()
        .dictionary(fx.dict)
        .database(db)
        .pattern(toy::PATTERN)
        .sigma(2)
        .workers(2)
        .partitions(3)
        .build()
        .unwrap();
    let reference = session
        .with_algorithm(AlgorithmSpec::DesqCount)
        .unwrap()
        .run()
        .unwrap();
    let res = session
        .with_algorithm(AlgorithmSpec::d_seq())
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(res.patterns, reference.patterns);
    assert_eq!(res.patterns.len(), 3);
}

#[test]
fn pattern_that_matches_everything_vs_nothing() {
    let fx = toy::fixture();
    // Matches every sequence, outputs nothing: no frequent sequences.
    let all = MiningSession::builder()
        .dictionary(fx.dict.clone())
        .database(fx.db.clone())
        .pattern(".*")
        .sigma(1)
        .build()
        .unwrap();
    assert!(all.run().unwrap().patterns.is_empty());
    // Matches nothing (six exact c's in a row — no input has them).
    let none = MiningSession::builder()
        .dictionary(fx.dict)
        .database(fx.db)
        .pattern("(c=)(c=)(c=)(c=)(c=)(c=)")
        .sigma(1)
        .build()
        .unwrap();
    assert!(none.run().unwrap().patterns.is_empty());
}

#[test]
fn capture_of_whole_sequence() {
    let fx = toy::fixture();
    // `[(.)]*` captures every item: anchored compile — candidates are
    // exactly the full input sequences consisting of frequent items.
    let out = MiningSession::builder()
        .dictionary(fx.dict)
        .database(fx.db.clone())
        .pattern("[(.)]*")
        .sigma(1)
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert!(out
        .patterns
        .iter()
        .any(|(s, f)| *f == 1 && *s == fx.db.sequences[4]));
    assert_eq!(out.patterns.len(), 5, "{:?}", out.patterns);
}

#[test]
fn deep_hierarchy_generalization() {
    // A chain hierarchy of depth 12: a0 => a1 => ... => a11.
    let mut b = DictionaryBuilder::new();
    for i in 0..12 {
        b.item(&format!("a{i}"));
    }
    for i in 0..11 {
        b.edge(&format!("a{i}"), &format!("a{}", i + 1));
    }
    let leaf = b.id_of("a0").unwrap();
    let db = SequenceDb::new(vec![vec![leaf], vec![leaf]]);
    let (dict, db) = b.freeze(&db).unwrap();
    let out = MiningSession::builder()
        .dictionary(dict)
        .database(db)
        .pattern("(.^)")
        .sigma(2)
        .build()
        .unwrap()
        .run()
        .unwrap();
    // Every generalization level is a frequent pattern of support 2.
    assert_eq!(out.patterns.len(), 12);
    assert!(out.patterns.iter().all(|(s, f)| s.len() == 1 && *f == 2));
}

#[test]
fn weights_and_duplicates_in_database() {
    // The paper assumes distinct input sequences; the implementation must
    // count duplicates separately anyway.
    let fx = toy::fixture();
    let mut db = fx.db.clone();
    db.sequences.push(fx.db.sequences[4].clone()); // duplicate T5
    let session = MiningSession::builder()
        .dictionary(fx.dict)
        .database(db)
        .pattern(toy::PATTERN)
        .sigma(2)
        .workers(2)
        .build()
        .unwrap();
    let reference = session
        .with_algorithm(AlgorithmSpec::DesqCount)
        .unwrap()
        .run()
        .unwrap();
    let ds = session
        .with_algorithm(AlgorithmSpec::d_seq())
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(ds.patterns, reference.patterns);
    // a1 a1 b now has support 3.
    let a1a1b = vec![fx.a1, fx.a1, fx.b];
    assert_eq!(
        reference
            .patterns
            .iter()
            .find(|(s, _)| *s == a1a1b)
            .unwrap()
            .1,
        3
    );
}

#[test]
fn budget_one_always_oom_for_matching_input() {
    // The session-level budget (Limits::budget) replaces the old positional
    // budget arguments; the error names the algorithm and the knob.
    for spec in [AlgorithmSpec::d_cand(), NAIVE] {
        let err = toy_builder()
            .sigma(2)
            .algorithm(spec)
            .budget(1)
            .build()
            .unwrap()
            .run()
            .unwrap_err();
        assert!(
            matches!(err, Error::ResourceExhausted(ref m) if m.contains("budget")),
            "{}: {err}",
            spec.name()
        );
    }
}

#[test]
fn unknown_items_in_pattern_surface_cleanly() {
    let fx = toy::fixture();
    // Directly via FST compilation...
    let e = PatEx::parse("(NOPE)").unwrap();
    match Fst::compile(&e, &fx.dict) {
        Err(Error::UnknownItem(name)) => assert_eq!(name, "NOPE"),
        other => panic!("expected UnknownItem, got {other:?}"),
    }
    // ...and through the session builder, which compiles at build() time.
    let err = toy_builder()
        .pattern("(NOPE)")
        .sigma(1)
        .build()
        .unwrap_err();
    assert!(matches!(err, Error::UnknownItem(_)));
}

#[test]
fn single_worker_session_handles_many_partitions_and_reducers() {
    let res = toy_builder()
        .sigma(2)
        .algorithm(AlgorithmSpec::d_seq())
        .workers(1)
        .partitions(5)
        .reducers(16)
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(res.patterns.len(), 3);
    assert_eq!(res.metrics.reducer_bytes.len(), 16);
}

#[test]
fn corrupted_nfa_bytes_reported_as_decode_error() {
    let mut nfa = desq::core::fst::nfa::Nfa::default();
    // Flags byte with invalid bits set.
    let err = nfa.decode(&[0xff, 0x00]).unwrap_err();
    assert!(matches!(err, Error::Decode(_)));
    // Reference to a state that does not exist yet.
    // HAS_SRC (1) with src = 9 on an empty automaton.
    let err = nfa.decode(&[0x01, 0x09, 0x01, 0x02]).unwrap_err();
    assert!(matches!(err, Error::Decode(_)));
    // An OLD_TARGET edge back to an ancestor: a 2-state cycle that would
    // make a reducer expand forever.
    let err = nfa
        .decode(&[0x00, 0x01, 0x01, 0x06, 0x01, 0x01, 0x00])
        .unwrap_err();
    assert!(matches!(err, Error::Decode(_)));
}
