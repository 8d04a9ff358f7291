//! Engine-level properties: partition balance (Sec. III-B of the paper),
//! equivalence of the parallel engine with a sequential fold, and
//! round-trip identity of the shuffle codec.

use proptest::prelude::*;

use desq::bsp::{decode_item_seq, encode_item_seq, Engine, InProcess};
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
                |part: &[Vec<u32>], emit: &mut dyn FnMut(u32, u64)| {
                    for seq in part {
                        for &x in seq {
                            emit(x % 7, u64::from(x));
                        }
                    }
                    Ok(())
                },
                |&k, vs: Vec<u64>, emit: &mut dyn FnMut((u32, u64))| {
                    emit((k, vs.into_iter().sum()));
                    Ok(())
                },
            )
            .unwrap();
        out.sort();
        let got: std::collections::BTreeMap<u32, u64> = out.into_iter().collect();
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
                |part: &[u64], c: &mut desq::bsp::Combiner<u32>| {
                    for &w in part {
                        c.emit(&7, payload_ref, w);
                    }
                    Ok(())
                },
                || (),
                |(): &mut (), &k: &u32, vs: &[(&[u8], u64)], emit: &mut dyn FnMut((u32, u64))| {
                    assert_eq!(vs.len(), 1, "identical records must merge");
                    assert_eq!(vs[0].0, payload_ref.as_slice());
                    emit((k, vs[0].1));
                    Ok(())
                },
            )
            .unwrap();
        let total: u64 = weights.iter().sum();
        prop_assert_eq!(out, vec![(7, total)]);
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
                    |part: &[Vec<u32>], c: &mut desq::bsp::Combiner<u32>| {
                        for seq in part {
                            for &x in seq {
                                c.emit(&(x % 3), &x.to_le_bytes(), 1);
                            }
                        }
                        Ok(())
                    },
                    || (),
                    |(): &mut (), &k: &u32, vs: &[(&[u8], u64)], emit: &mut dyn FnMut((u32, u64))| {
                        let total: u64 = vs
                            .iter()
                            .map(|(b, w)| {
                                u64::from(u32::from_le_bytes((*b).try_into().unwrap())) * w
                            })
                            .sum();
                        emit((k, total));
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
            combined.into_iter().collect();
        prop_assert_eq!(got, expect);
        prop_assert!(metrics.shuffle_records <= metrics.emitted_records);
    }
}
