//! BSP round properties: partition balance (Sec. III-B of the paper),
//! equivalence of the parallel round with a sequential fold, and
//! round-trip identity of the shuffle codec.

use std::sync::LazyLock;

use proptest::prelude::*;

use desq::bsp::{run_round, Bucket, Combiner, Exec, InProcess, ReduceUnit};
use desq::core::codec::{decode_item_seq, encode_item_seq};
use desq::core::fx::FxHashMap;
use desq::core::{Dictionary, DictionaryBuilder, Sequence, SequenceDb};
use desq::datagen::{amzn_like, to_forest, AmznConfig};
use desq::session::{AlgorithmSpec, MiningSession};
use desq::{MiningContext, MiningResult};

/// A BSP round over `db` at `workers` threads, `partitions` map tasks and
/// `reducers` buckets. A round never reads the dictionary.
fn round(db: &SequenceDb, workers: usize, partitions: usize, reducers: usize) -> MiningContext<'_> {
    static DICT: LazyLock<Dictionary> = LazyLock::new(|| {
        DictionaryBuilder::new()
            .freeze(&SequenceDb::default())
            .unwrap()
            .0
    });
    MiningContext::sequential(db, &DICT, 1)
        .with_parallelism(workers, partitions)
        .with_reducers(reducers)
}

/// The result of a round driven in this process.
fn driven(round: desq::core::Result<Option<MiningResult>>) -> MiningResult {
    round.unwrap().expect("a driven round has a result")
}

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
        for p in search.pivots(seq).0 {
            *per_pivot.entry(p).or_insert(0) += 1;
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

    /// The round == sequential fold for a random aggregation job, whether
    /// its reduce tasks are key runs or whole buckets.
    #[test]
    fn engine_equals_sequential_fold(
        data in proptest::collection::vec(proptest::collection::vec(0u32..50, 0..20), 0..30),
        workers in 1usize..5,
        partitions in 1usize..7,
        whole in 0u8..2,
    ) {
        // Sequential reference: per key (item % 7), sum of values.
        let mut expect = std::collections::BTreeMap::<u32, u64>::new();
        for seq in &data {
            for &x in seq {
                *expect.entry(x % 7).or_insert(0) += u64::from(x);
            }
        }
        let db = SequenceDb::new(data.clone());
        let res = driven(run_round(
            &round(&db, workers, partitions, workers),
            Exec::Via(&InProcess),
            if whole == 1 { ReduceUnit::Buckets } else { ReduceUnit::KeyRuns },
            |part: &[Sequence], c: &mut Combiner| {
                for &x in part.iter().flatten() {
                    c.emit(&[x % 7], &[], u64::from(x));
                }
                Ok(())
            },
            || (),
            |(): &mut (), bucket: Bucket<'_>, emit: &mut dyn FnMut((Vec<u32>, u64))| {
                for (k, vs) in bucket.groups() {
                    emit((vec![k], vs.payloads().map(|(_, w)| w).sum()));
                }
                Ok(())
            },
        ));
        let got: std::collections::BTreeMap<u32, u64> =
            res.patterns.into_iter().map(|(k, sum)| (k[0], sum)).collect();
        prop_assert_eq!(got, expect);
        let records: usize = data.iter().map(Vec::len).sum();
        prop_assert_eq!(res.metrics.emitted_records as usize, records);
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
        // Sequence `[i]` carries `weights[i]`, three to a map task.
        let db = SequenceDb::new((0..weights.len() as u32).map(|i| vec![i]).collect());
        let payload_ref = &payload;
        let res = driven(run_round(
            &round(&db, 2, weights.len().div_ceil(3), 3),
            Exec::Via(&InProcess),
            ReduceUnit::KeyRuns,
            |part: &[Sequence], c: &mut Combiner| {
                for &i in part.iter().flatten() {
                    c.emit(&[7], payload_ref, weights[i as usize]);
                }
                Ok(())
            },
            || (),
            |(): &mut (), bucket: Bucket<'_>, emit: &mut dyn FnMut((Vec<u32>, u64))| {
                for (k, vs) in bucket.groups() {
                    let merged: Vec<_> = vs.payloads().collect();
                    assert_eq!(merged.len(), 1, "identical records must merge");
                    assert_eq!(merged[0].0, payload_ref.as_slice());
                    emit((vec![k], merged[0].1));
                }
                Ok(())
            },
        ));
        let total: u64 = weights.iter().sum();
        prop_assert_eq!(res.patterns, vec![(vec![7], total)]);
    }

    /// The combiner never changes results, only record counts.
    #[test]
    fn combiner_is_transparent(
        data in proptest::collection::vec(proptest::collection::vec(0u32..10, 0..15), 1..20),
    ) {
        let db = SequenceDb::new(data.clone());
        let res = driven(run_round(
            &round(&db, 3, data.len().div_ceil(4), 3),
            Exec::Via(&InProcess),
            ReduceUnit::KeyRuns,
            |part: &[Sequence], c: &mut Combiner| {
                for &x in part.iter().flatten() {
                    c.emit(&[x % 3], &x.to_le_bytes(), 1);
                }
                Ok(())
            },
            || (),
            |(): &mut (), bucket: Bucket<'_>, emit: &mut dyn FnMut((Vec<u32>, u64))| {
                for (k, vs) in bucket.groups() {
                    let total: u64 = vs
                        .payloads()
                        .map(|(b, w)| u64::from(u32::from_le_bytes(b.try_into().unwrap())) * w)
                        .sum();
                    emit((vec![k], total));
                }
                Ok(())
            },
        ));

        // Sequential reference.
        let mut expect = std::collections::BTreeMap::<u32, u64>::new();
        for seq in &data {
            for &x in seq {
                *expect.entry(x % 3).or_insert(0) += u64::from(x);
            }
        }
        let got: std::collections::BTreeMap<u32, u64> =
            res.patterns.into_iter().map(|(k, total)| (k[0], total)).collect();
        prop_assert_eq!(got, expect);
        prop_assert!(res.metrics.shuffle_records <= res.metrics.emitted_records);
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
    use desq::Miner;

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
    // (name, shuffle bytes, records, payloads, bytes per bucket). A record
    // is payload id, weight and Δ-coded key list: a single-key record
    // carries one byte of key count more than a `(key, payload)` pair did,
    // and D-SEQ ships one record per rewritten sequence and bucket.
    let expect: Vec<Accounting> = vec![
        ("toy d-seq", 34, 3, 3, vec![0, 0, 34]),
        ("toy d-cand", 102, 4, 4, vec![0, 0, 102]),
        ("toy d-cand no-agg", 92, 4, 0, vec![0, 0, 92]),
        ("toy naive", 213, 22, 22, vec![0, 100, 113]),
        ("toy semi-naive", 113, 12, 12, vec![0, 0, 113]),
        ("toy lash", 103, 11, 9, vec![31, 0, 72]),
        // MLlib: both rounds summed, per bucket too.
        ("toy mllib", 153, 22, 19, vec![37, 47, 69]),
        ("nyt d-seq", 29011, 1097, 1097, vec![9482, 9678, 9851]),
        ("nyt d-cand", 52315, 2999, 2999, vec![14977, 17577, 19761]),
        (
            "nyt d-cand no-agg",
            69301,
            4968,
            0,
            vec![19258, 23183, 26860],
        ),
        ("nyt naive", 152642, 13437, 13437, vec![47865, 52132, 52645]),
        (
            "nyt semi-naive",
            86713,
            8046,
            8046,
            vec![26648, 29157, 30908],
        ),
    ];
    assert_eq!(got, expect);
}
