//! The master correctness property of this reproduction: every mining path
//! — NAÏVE, SEMI-NAÏVE, D-SEQ (all ablations), D-CAND (all ablations),
//! sequential DESQ-DFS and the brute-force DESQ-COUNT reference — produces
//! the *identical* set of frequent sequences with identical frequencies,
//! on every dataset and constraint. All paths run through the unified
//! `MiningSession` API.

use std::sync::Arc;

use desq::baselines::{LashConfig, MllibConfig};
use desq::core::{Dictionary, Sequence, SequenceDb};
use desq::datagen::{amzn_like, cw_like, nyt_like, to_forest, AmznConfig, CwConfig, NytConfig};
use desq::dist::{patterns, DCandConfig, DSeqConfig, NaiveConfig};
use desq::miner::{GapMiner, PrefixSpan};
use desq::session::{AlgorithmSpec, MiningSession};

fn shared((dict, db): (Dictionary, SequenceDb)) -> (Arc<Dictionary>, Arc<SequenceDb>) {
    (Arc::new(dict), Arc::new(db))
}

fn base_session(
    dict: &Arc<Dictionary>,
    db: &Arc<SequenceDb>,
    expr: &str,
    sigma: u64,
) -> MiningSession {
    MiningSession::builder()
        .dictionary(dict.clone())
        .database(db.clone())
        .pattern_unanchored(expr)
        .sigma(sigma)
        .workers(3)
        .partitions(5)
        .build()
        .unwrap()
}

/// Runs `spec` on `base` and returns the mined patterns.
fn mine(base: &MiningSession, spec: AlgorithmSpec) -> Vec<(Sequence, u64)> {
    base.with_algorithm(spec).unwrap().run().unwrap().patterns
}

fn check_all(dict: &Arc<Dictionary>, db: &Arc<SequenceDb>, expr: &str, sigma: u64, what: &str) {
    let base = base_session(dict, db, expr, sigma);
    let reference = mine(&base, AlgorithmSpec::DesqCount);
    assert_eq!(
        mine(&base, AlgorithmSpec::DesqDfs),
        reference,
        "{what}: DESQ-DFS vs DESQ-COUNT"
    );

    for filter in [false, true] {
        let spec = AlgorithmSpec::Naive(NaiveConfig { filter });
        assert_eq!(mine(&base, spec), reference, "{what}: {}", spec.name());
    }

    for use_grid in [true, false] {
        for rewrite in [true, false] {
            for early_stop in [true, false] {
                let cfg = DSeqConfig {
                    use_grid,
                    rewrite,
                    early_stop,
                };
                assert_eq!(
                    mine(&base, AlgorithmSpec::DSeq(cfg)),
                    reference,
                    "{what}: d_seq grid={use_grid} rewrite={rewrite} stop={early_stop}"
                );
            }
        }
    }

    for minimize in [true, false] {
        for aggregate in [true, false] {
            let cfg = DCandConfig {
                minimize,
                aggregate,
            };
            assert_eq!(
                mine(&base, AlgorithmSpec::DCand(cfg)),
                reference,
                "{what}: d_cand min={minimize} agg={aggregate}"
            );
        }
    }
}

#[test]
fn all_algorithms_agree_on_nyt_constraints() {
    let (dict, db) = shared(nyt_like(&NytConfig::new(300)));
    for c in patterns::nyt_constraints() {
        let sigma = if matches!(c.name.as_str(), "N4" | "N5") {
            20
        } else {
            2
        };
        check_all(&dict, &db, &c.expr, sigma, &c.name);
    }
}

#[test]
fn all_algorithms_agree_on_amzn_constraints() {
    let (dict, db) = shared(amzn_like(&AmznConfig::new(250)));
    for c in patterns::amzn_constraints() {
        check_all(&dict, &db, &c.expr, 3, &c.name);
    }
}

#[test]
fn all_algorithms_agree_on_traditional_constraints() {
    let (dict, db) = amzn_like(&AmznConfig::new(200));
    let (fdict, fdb) = shared(to_forest(&dict, &db));
    let (dict, db) = shared((dict, db));
    for (c, d, database) in [
        (patterns::t1(4), &dict, &db),
        (patterns::t2(1, 4), &fdict, &fdb),
        (patterns::t3(1, 4), &fdict, &fdb),
    ] {
        for sigma in [2, 5, 20] {
            check_all(
                d,
                database,
                &c.expr,
                sigma,
                &format!("{}/σ={sigma}", c.name),
            );
        }
    }
}

#[test]
fn all_algorithms_agree_on_cw() {
    let (dict, db) = shared(cw_like(&CwConfig::new(300)));
    check_all(&dict, &db, &patterns::t2(0, 4).expr, 4, "T2(0,4)");
}

#[test]
fn specialized_baselines_agree_with_general_algorithms() {
    let (dict, db) = amzn_like(&AmznConfig::new(300));
    let (fdict, fdb) = shared(to_forest(&dict, &db));

    // LASH == DESQ under T3, and == the sequential gap miner.
    for (sigma, gamma, lambda) in [(2, 1, 4), (5, 0, 3), (3, 2, 5)] {
        let base = base_session(&fdict, &fdb, &patterns::t3(gamma, lambda).expr, sigma);
        let reference = mine(&base, AlgorithmSpec::DesqCount);
        assert_eq!(
            mine(&base, AlgorithmSpec::Lash(LashConfig::new(gamma, lambda))),
            reference,
            "LASH T3({sigma},{gamma},{lambda})"
        );
        assert_eq!(
            mine(
                &base,
                AlgorithmSpec::GapMiner(GapMiner::new(gamma, lambda, true))
            ),
            reference,
            "GapMiner T3({sigma},{gamma},{lambda})"
        );
    }

    // MLlib == DESQ under T1 == sequential PrefixSpan (hierarchy-free data).
    let (flat_dict, flat_db) = shared(cw_like(&CwConfig::new(250)));
    for sigma in [3, 8] {
        let base = base_session(&flat_dict, &flat_db, &patterns::t1(4).expr, sigma);
        let reference = mine(&base, AlgorithmSpec::DesqCount);
        assert_eq!(
            mine(&base, AlgorithmSpec::Mllib(MllibConfig { max_len: 4 })),
            reference,
            "MLlib T1({sigma},4)"
        );
        assert_eq!(
            mine(&base, AlgorithmSpec::PrefixSpan(PrefixSpan { max_len: 4 })),
            reference,
            "PrefixSpan T1({sigma},4)"
        );
    }
}

/// Mines `expr` at both FST optimization levels and asserts identical
/// patterns and supports — plus the session FST's recorded sizes showing
/// the optimizer never grew the machine.
fn check_opt_levels(
    dict: &Arc<Dictionary>,
    db: &Arc<SequenceDb>,
    expr: &str,
    sigma: u64,
    what: &str,
) {
    let session = |level: desq::OptLevel| {
        MiningSession::builder()
            .dictionary(dict.clone())
            .database(db.clone())
            .pattern_unanchored(expr)
            .sigma(sigma)
            .opt_level(level)
            .build()
            .unwrap()
    };
    let oracle = session(desq::OptLevel::None).run().unwrap();
    let optimized = session(desq::OptLevel::Full);
    assert_eq!(
        optimized.run().unwrap().patterns,
        oracle.patterns,
        "{what}: Full diverged from the None oracle"
    );
    let fst = optimized.fst().unwrap();
    let (states, transitions) = (fst.num_states(), fst.num_transitions());
    let (states_before, transitions_before) =
        (fst.states_before_opt(), fst.transitions_before_opt());
    assert!(
        states <= states_before && transitions <= transitions_before,
        "{what}: optimizer grew the FST ({states_before}→{states} states, \
         {transitions_before}→{transitions} transitions)"
    );
}

#[test]
fn opt_levels_agree_on_tab3_constraints() {
    let (dict, db) = shared(nyt_like(&NytConfig::new(300)));
    for c in patterns::nyt_constraints() {
        let sigma = if matches!(c.name.as_str(), "N4" | "N5") {
            20
        } else {
            2
        };
        check_opt_levels(&dict, &db, &c.expr, sigma, &c.name);
    }
    let (adict, adb) = amzn_like(&AmznConfig::new(250));
    let (fdict, fdb) = shared(to_forest(&adict, &adb));
    let (adict, adb) = shared((adict, adb));
    for c in patterns::amzn_constraints() {
        check_opt_levels(&adict, &adb, &c.expr, 3, &c.name);
    }
    for c in [patterns::t1(4), patterns::t2(1, 4), patterns::t3(1, 4)] {
        check_opt_levels(&fdict, &fdb, &c.expr, 5, &c.name);
    }
}

#[test]
fn results_stable_across_workers_and_partitionings() {
    let (dict, db) = shared(nyt_like(&NytConfig::new(200)));
    let mut results: Vec<Vec<(Sequence, u64)>> = Vec::new();
    for workers in [1, 2, 7] {
        for nparts in [1, 3, 11] {
            let session = MiningSession::builder()
                .dictionary(dict.clone())
                .database(db.clone())
                .pattern_unanchored(&patterns::n2().expr)
                .sigma(2)
                .algorithm(AlgorithmSpec::d_seq())
                .workers(workers)
                .partitions(nparts)
                .build()
                .unwrap();
            results.push(session.run().unwrap().patterns);
        }
    }
    for r in &results[1..] {
        assert_eq!(r, &results[0]);
    }
}

/// A constraint outside the simulation front-end's step-table shape (more
/// than 64 transitions optimized, more than 64 states unoptimized): the
/// flat DFS tables, the counting walker and D-SEQ's pivot DP all run the
/// general multi-word forward pass and must still agree.
#[test]
fn general_shape_fst_agrees_across_dfs_count_and_dseq() {
    use desq::core::fst::FstIndex;
    let fx = desq::core::toy::fixture();
    let (dict, db) = shared((fx.dict, fx.db));
    let expr = ".*[(A)|(A^)|(b)|(d^)|(c)|(e)|(a1)|(a2=)|(.^)|.]{1,7}(b).*";
    for (level, state_words) in [(desq::OptLevel::Full, 1), (desq::OptLevel::None, 2)] {
        for sigma in 1..=3 {
            let base = MiningSession::builder()
                .dictionary(dict.clone())
                .database(db.clone())
                .pattern(expr)
                .sigma(sigma)
                .opt_level(level)
                .execution_policy(desq::ExecutionPolicy::Flat)
                .workers(2)
                .partitions(2)
                .build()
                .unwrap();
            let fst = base.fst().unwrap();
            assert!(!FstIndex::new(fst).step_table_eligible(), "{level:?}");
            assert_eq!(fst.num_states().div_ceil(64), state_words, "{level:?}");
            let reference = mine(&base, AlgorithmSpec::DesqCount);
            assert!(!reference.is_empty(), "{level:?} σ={sigma}");
            for spec in [AlgorithmSpec::DesqDfs, AlgorithmSpec::d_seq()] {
                assert_eq!(
                    mine(&base, spec),
                    reference,
                    "{level:?} σ={sigma}: {}",
                    spec.name()
                );
            }
        }
    }
}
