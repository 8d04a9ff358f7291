//! Engine-level properties: partition balance (Sec. III-B of the paper),
//! equivalence of the parallel engine with a sequential fold, and
//! round-trip identity of the shuffle codec.

use proptest::prelude::*;

use desq::bsp::{Combiner, Engine, InProcess};
use desq::core::codec::{decode_item_seq, encode_item_seq};
use desq::core::fx::FxHashMap;
use desq::datagen::{amzn_like, to_forest, AmznConfig};
use desq::session::{AlgorithmSpec, MiningSession};

/// Sec. III-B: with the frequency-descending item order, pivot partitions
/// of frequent items receive little data and the shuffle is reasonably
/// balanced. We assert the max/mean reducer-volume ratio stays moderate.
#[test]
fn dseq_shuffle_is_reasonably_balanced() {
    let (dict, db) = amzn_like(&AmznConfig::new(4_000));
    let (fdict, fdb) = to_forest(&dict, &db);
    let res = MiningSession::builder()
        .dictionary(fdict)
        .database(fdb)
        .pattern_unanchored(&desq::dist::patterns::t3(1, 5).expr)
        .sigma(10)
        .algorithm(AlgorithmSpec::d_seq())
        .workers(4)
        .reducers(8)
        .build()
        .unwrap()
        .run()
        .unwrap();
    let balance = res.metrics.balance();
    assert!(
        balance < 4.0,
        "max/mean reducer volume {balance:.2} suggests badly skewed partitions"
    );
    // All reducers participate.
    let active = res.metrics.reducer_bytes.iter().filter(|&&b| b > 0).count();
    assert!(active >= 6, "only {active}/8 reducers received data");
}

/// The reversed item order (pivot = most frequent item) is what the paper
/// argues *against*: it must still be correct but concentrates the work.
/// We verify the chosen order (pivot = least frequent) indeed distributes
/// records across more partitions than a single hot one.
#[test]
fn frequent_pivot_partitions_stay_small() {
    let (dict, db) = amzn_like(&AmznConfig::new(4_000));
    let (fdict, fdb) = to_forest(&dict, &db);
    let fst = desq::dist::patterns::t3(1, 5).compile(&fdict).unwrap();
    let sigma = 10;
    let last = fdict.last_frequent(sigma);
    let search = desq::dist::PivotSearch::new(&fst, &fdict, last);
    let mut per_pivot: FxHashMap<u32, usize> = FxHashMap::default();
    let mut total = 0usize;
    for seq in fdb.sequences.iter().take(1_000) {
        for p in search.pivots(seq) {
            *per_pivot.entry(p.item).or_insert(0) += 1;
            total += 1;
        }
    }
    // The most frequent item (fid 1) heads candidates only when nothing
    // rarer occurs — its partition must stay a small fraction of the total.
    let hottest_fid1 = per_pivot.get(&1).copied().unwrap_or(0);
    assert!(
        hottest_fid1 * 5 < total,
        "partition of fid 1 holds {hottest_fid1}/{total} records — item order broken?"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// map_reduce == sequential fold for a random aggregation job.
    #[test]
    fn engine_equals_sequential_fold(
        data in proptest::collection::vec(proptest::collection::vec(0u32..50, 0..20), 0..30),
        workers in 1usize..5,
        chunk in 1usize..7,
    ) {
        // Sequential reference: per key (item % 7), sum of values.
        let mut expect: std::collections::BTreeMap<u32, u64> = Default::default();
        for seq in &data {
            for &x in seq {
                *expect.entry(x % 7).or_insert(0) += u64::from(x);
            }
        }
        let engine = Engine::new(workers);
        let parts: Vec<&[Vec<u32>]> = data.chunks(chunk).collect();
        let (mut out, metrics) = engine
            .map_reduce(
                &parts,
                |part: &[Vec<u32>], emit: &mut dyn FnMut(u32, &[u8], u64)| {
                    for seq in part {
                        for &x in seq {
                            emit(x % 7, &[], u64::from(x));
                        }
                    }
                    Ok(())
                },
                || (),
                |(): &mut (), k, vs: &[(&[u8], u64)], emit: &mut dyn FnMut((Vec<u32>, u64))| {
                    emit((vec![k], vs.iter().map(|&(_, w)| w).sum()));
                    Ok(())
                },
            )
            .unwrap();
        out.sort();
        let got: std::collections::BTreeMap<u32, u64> =
            out.into_iter().map(|(k, sum)| (k[0], sum)).collect();
        prop_assert_eq!(got, expect);
        let records: usize = data.iter().map(Vec::len).sum();
        prop_assert_eq!(metrics.emitted_records as usize, records);
    }

    /// The adaptive varint/delta item-sequence codec round-trips exactly —
    /// including empty rewritten ranges and extreme item ids — when many
    /// records are concatenated and decoded arena-style.
    #[test]
    fn item_seq_codec_roundtrips(
        seqs in proptest::collection::vec(
            proptest::collection::vec(
                prop_oneof![0u32..100, 4_000_000_000u32..u32::MAX], 0..20),
            0..12),
    ) {
        let mut buf = Vec::new();
        for seq in &seqs {
            encode_item_seq(seq, &mut buf);
        }
        let mut slice = buf.as_slice();
        let mut arena: Vec<u32> = Vec::new();
        let mut spans = Vec::new();
        for _ in &seqs {
            let start = arena.len();
            let n = decode_item_seq(&mut slice, &mut arena).unwrap();
            spans.push(start..start + n);
        }
        prop_assert!(slice.is_empty(), "decode must consume everything");
        for (seq, span) in seqs.iter().zip(spans) {
            prop_assert_eq!(&arena[span], seq.as_slice());
        }
    }

    /// Weights survive the combine wire format exactly — including sums
    /// beyond `u32::MAX` — and empty payloads are legal records.
    #[test]
    fn combine_weights_roundtrip(
        weights in proptest::collection::vec(
            prop_oneof![1u64..100, u64::from(u32::MAX)..u64::MAX / 8], 1..10),
        payload in proptest::collection::vec(0u8..=255, 0..12),
    ) {
        let data: Vec<u64> = weights.clone();
        let parts: Vec<&[u64]> = data.chunks(3).collect();
        let engine = Engine::new(2).with_reducers(3);
        let payload_ref = &payload;
        let (out, _) = engine
            .map_combine_reduce_via(
                &InProcess,
                &parts,
                |part: &[u64], c: &mut Combiner| {
                    for &w in part {
                        c.emit(7, payload_ref, w);
                    }
                    Ok(())
                },
                || (),
                |(): &mut (), k, vs: &[(&[u8], u64)], emit: &mut dyn FnMut((Vec<u32>, u64))| {
                    assert_eq!(vs.len(), 1, "identical records must merge");
                    assert_eq!(vs[0].0, payload_ref.as_slice());
                    emit((vec![k], vs[0].1));
                    Ok(())
                },
            )
            .unwrap();
        let total: u64 = weights.iter().sum();
        prop_assert_eq!(out, vec![(vec![7], total)]);
    }

    /// The combiner never changes results, only record counts.
    #[test]
    fn combiner_is_transparent(
        data in proptest::collection::vec(proptest::collection::vec(0u32..10, 0..15), 1..20),
    ) {
        let engine = Engine::new(3);
        let parts: Vec<&[Vec<u32>]> = data.chunks(4).collect();
        let run_combined = || {
            let (mut out, m) = engine
                .map_combine_reduce_via(
                    &InProcess,
                    &parts,
                    |part: &[Vec<u32>], c: &mut Combiner| {
                        for seq in part {
                            for &x in seq {
                                c.emit(x % 3, &x.to_le_bytes(), 1);
                            }
                        }
                        Ok(())
                    },
                    || (),
                    |(): &mut (), k, vs: &[(&[u8], u64)], emit: &mut dyn FnMut((Vec<u32>, u64))| {
                        let total: u64 = vs
                            .iter()
                            .map(|(b, w)| {
                                u64::from(u32::from_le_bytes((*b).try_into().unwrap())) * w
                            })
                            .sum();
                        emit((vec![k], total));
                        Ok(())
                    },
                )
                .unwrap();
            out.sort();
            (out, m)
        };
        let (combined, metrics) = run_combined();

        // Sequential reference.
        let mut expect: std::collections::BTreeMap<u32, u64> = Default::default();
        for seq in &data {
            for &x in seq {
                *expect.entry(x % 3).or_insert(0) += u64::from(x);
            }
        }
        let got: std::collections::BTreeMap<u32, u64> =
            combined.into_iter().map(|(k, total)| (k[0], total)).collect();
        prop_assert_eq!(got, expect);
        prop_assert!(metrics.shuffle_records <= metrics.emitted_records);
    }
}

/// The map → reduce wire, pinned: exact shuffle accounting of every
/// distributed algorithm on the toy fixture (three map partitions, two
/// workers, three buckets), plus D-SEQ and D-CAND over a small NYT-like
/// corpus whose frequent pivots need two-byte varint keys. Routing decides
/// the per-bucket payload dictionaries, so any change to key encoding,
/// bucket routing, combining or payload interning moves these numbers.
#[test]
fn shuffle_accounting_is_pinned() {
    use desq::baselines::{LashConfig, MllibConfig};
    use desq::datagen::{nyt_like, NytConfig};
    use desq::dist::{DCandConfig, DSeqConfig, NaiveConfig};
    use desq::{Miner, MiningContext};

    type Accounting = (&'static str, u64, u64, u64, Vec<u64>);
    let account = |name, miner: &dyn Miner, ctx: &MiningContext<'_>| -> Accounting {
        let m = miner.mine(ctx).unwrap().metrics;
        let shape = (m.shuffle_bytes, m.shuffle_records, m.shuffle_payloads);
        (name, shape.0, shape.1, shape.2, m.reducer_bytes)
    };
    let no_agg = DCandConfig {
        aggregate: false,
        ..DCandConfig::default()
    };

    let fx = desq::core::toy::fixture();
    let toy = MiningContext::sequential(&fx.db, &fx.dict, 2)
        .with_fst(&fx.fst)
        .with_parallelism(2, 3)
        .with_reducers(3);
    let (dict, db) = nyt_like(&NytConfig::new(400));
    let n4 = desq::dist::patterns::n4().compile(&dict).unwrap();
    let nyt = MiningContext::sequential(&db, &dict, 3)
        .with_fst(&n4)
        .with_parallelism(2, 3)
        .with_reducers(3);
    assert!(
        dict.last_frequent(3) > 127,
        "NYT pivots must reach two-byte keys"
    );

    let got = vec![
        account("toy d-seq", &DSeqConfig::default(), &toy),
        account("toy d-cand", &DCandConfig::default(), &toy),
        account("toy d-cand no-agg", &no_agg, &toy),
        account("toy naive", &NaiveConfig { filter: false }, &toy),
        account("toy semi-naive", &NaiveConfig { filter: true }, &toy),
        account("toy lash", &LashConfig::new(1, 3), &toy),
        account("toy mllib", &MllibConfig { max_len: 3 }, &toy),
        account("nyt d-seq", &DSeqConfig::default(), &nyt),
        account("nyt d-cand", &DCandConfig::default(), &nyt),
        account("nyt d-cand no-agg", &no_agg, &nyt),
        account("nyt naive", &NaiveConfig { filter: false }, &nyt),
        account("nyt semi-naive", &NaiveConfig { filter: true }, &nyt),
    ];
    // (name, shuffle bytes, records, payloads, bytes per bucket)
    let expect: Vec<Accounting> = vec![
        ("toy d-seq", 33, 4, 3, vec![0, 0, 33]),
        ("toy d-cand", 98, 4, 4, vec![0, 0, 98]),
        ("toy d-cand no-agg", 92, 4, 0, vec![0, 0, 92]),
        ("toy naive", 191, 22, 22, vec![0, 90, 101]),
        ("toy semi-naive", 101, 12, 12, vec![0, 0, 101]),
        ("toy lash", 92, 11, 9, vec![28, 0, 64]),
        // MLlib: both rounds summed, per-bucket bytes of the second.
        ("toy mllib", 131, 22, 19, vec![22, 18, 42]),
        ("nyt d-seq", 36120, 4968, 1097, vec![11279, 12037, 12804]),
        ("nyt d-cand", 49316, 2999, 2999, vec![14117, 16570, 18629]),
        (
            "nyt d-cand no-agg",
            69301,
            4968,
            0,
            vec![19258, 23183, 26860],
        ),
        ("nyt naive", 139205, 13437, 13437, vec![43672, 47565, 47968]),
        (
            "nyt semi-naive",
            78667,
            8046,
            8046,
            vec![24191, 26469, 28007],
        ),
    ];
    assert_eq!(got, expect);
}
