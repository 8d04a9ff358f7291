//! D-SEQ's reduce against hostile shuffle bytes. A real bucket — two map
//! tasks' chunks of the toy fixture, or of N5 over a slice of
//! `nyt_like(200)`, each with records carrying two or more pivot keys — is
//! replayed into the reduce as every strict prefix and every single-byte
//! mutation (all 256 values) of each chunk. Each case must mine or fail
//! with a typed error; a panic in the merge or the reducer would surface
//! as `Error::WorkerPanicked`.

use std::sync::Mutex;

use desq_core::codec::read_varint;
use desq_core::mining::MiningContext;
use desq_core::{toy, Error, MiningResult, Result, SequenceDb};
use desq_dist::bsp::transport::{PhaseStats, ReduceFn, ShuffleTransport};
use desq_dist::bsp::{Exec, InProcess, MapTaskOut};
use desq_dist::dseq::{d_seq, DSeqConfig};

/// Runs the map phase in process and hands the reduce `bucket` as the
/// one bucket's chunks instead of what the map produced, recording what it
/// replaced.
struct Replaying {
    bucket: Option<Vec<Vec<u8>>>,
    seen: Mutex<Vec<Vec<Vec<u8>>>>,
}

impl ShuffleTransport for Replaying {
    fn map_phase(
        &self,
        ctx: &MiningContext<'_>,
        tasks: usize,
        local: &(dyn Fn(usize) -> Result<MapTaskOut> + Sync),
    ) -> Result<(Vec<MapTaskOut>, PhaseStats)> {
        InProcess.map_phase(ctx, tasks, local)
    }

    fn reduce_phase(
        &self,
        ctx: &MiningContext<'_>,
        chunks: Vec<Vec<Vec<u8>>>,
        reduce: &ReduceFn<'_>,
    ) -> Result<(Vec<Vec<u8>>, PhaseStats)> {
        let chunks = match &self.bucket {
            Some(bucket) => vec![bucket.clone()],
            None => chunks,
        };
        *self.seen.lock().unwrap() = chunks.clone();
        InProcess.reduce_phase(ctx, chunks, reduce)
    }
}

/// The toy at σ = 2 on one worker, two map partitions and one bucket.
fn toy_ctx(fx: &toy::Toy) -> MiningContext<'_> {
    MiningContext::sequential(&fx.db, &fx.dict, 2)
        .with_fst(&fx.fst)
        .with_parallelism(1, 2)
}

fn replay(
    ctx: &MiningContext<'_>,
    bucket: Option<Vec<Vec<u8>>>,
) -> (Result<MiningResult>, Replaying) {
    let transport = Replaying {
        bucket,
        seen: Mutex::new(Vec::new()),
    };
    let result = d_seq(ctx, Exec::Via(&transport), DSeqConfig::default());
    (
        result.map(|res| res.expect("a driven round has a result")),
        transport,
    )
}

/// The key count of every record of a clean bucket chunk: past the
/// payload dictionary, each record is `payload id, weight, #keys`, then
/// that many key varints.
fn key_counts(chunk: &[u8]) -> Vec<u64> {
    let mut slice = chunk;
    for _ in 0..read_varint(&mut slice).unwrap() {
        let len = read_varint(&mut slice).unwrap() as usize;
        slice = &slice[len..];
    }
    let mut counts = Vec::new();
    while !slice.is_empty() {
        let [_payload, _weight, n] = [(); 3].map(|()| read_varint(&mut slice).unwrap());
        for _ in 0..n {
            read_varint(&mut slice).unwrap();
        }
        counts.push(n);
    }
    counts
}

/// Records the one bucket of a round over `ctx` and replays each of its
/// strict prefixes and single-byte mutations.
fn sweep(ctx: &MiningContext<'_>) {
    let (clean, recorded) = replay(ctx, None);
    let clean = clean.unwrap();
    let mut buckets = recorded.seen.into_inner().unwrap();
    assert_eq!(buckets.len(), 1);
    let bucket = buckets.pop().unwrap();
    assert_eq!(bucket.len(), 2, "one chunk per map task");
    assert!(
        bucket.iter().flat_map(|c| key_counts(c)).any(|n| n >= 2),
        "the sweep covers a key list"
    );
    assert_eq!(
        replay(ctx, Some(bucket.clone())).0.unwrap().patterns,
        clean.patterns
    );

    let (mut ok, mut failed) = (0usize, 0usize);
    let mut check = |case: Vec<Vec<u8>>, what: &str| match replay(ctx, Some(case)).0 {
        Ok(_) => ok += 1,
        Err(Error::WorkerPanicked(m)) => panic!("{what}: the reduce panicked: {m}"),
        Err(_) => failed += 1,
    };
    for c in 0..bucket.len() {
        for cut in 0..bucket[c].len() {
            let mut case = bucket.clone();
            case[c].truncate(cut);
            check(case, &format!("chunk {c} cut at {cut}"));
        }
        for at in 0..bucket[c].len() {
            for byte in 0..=u8::MAX {
                let mut case = bucket.clone();
                case[c][at] = byte;
                check(case, &format!("chunk {c} byte {at} = {byte:#04x}"));
            }
        }
    }
    assert!(ok > 0 && failed > 0, "{ok} mined, {failed} failed");
}

#[test]
fn every_prefix_and_byte_mutation_of_a_real_bucket_mines_or_fails_typed() {
    sweep(&toy_ctx(&toy::fixture()));
}

#[test]
fn the_sweep_covers_n5_key_lists_over_nyt_sequences() {
    // Four sequences of `nyt_like(200)` keep the sweep small; the dictionary
    // (and so σ's frequent items) is the whole corpus's.
    let (dict, db) = desq_datagen::nyt_like(&desq_datagen::NytConfig::new(200));
    let db = SequenceDb::new(db.sequences[..4].to_vec());
    let fst = desq_dist::patterns::n5().compile(&dict).unwrap();
    let ctx = MiningContext::sequential(&db, &dict, 2)
        .with_fst(&fst)
        .with_parallelism(1, 2);
    sweep(&ctx);
}

#[test]
fn the_merge_decode_errors_reach_the_caller_word_for_word() {
    let fx = toy::fixture();
    // After the dictionary (one 1-byte payload), a record is payload id,
    // weight, key count, first key, gaps.
    let cases: [(Vec<u8>, &str); 6] = [
        (vec![5], "payload dictionary: count 5 exceeds input"),
        (vec![1, 9, 0xaa], "payload: length 9 exceeds input"),
        (vec![1, 1, 0xaa, 3, 1, 1, 7], "payload id 3 out of range"),
        (vec![1, 1, 0xaa, 0, 1, 9, 7], "key count 9 exceeds input"),
        (vec![1, 1, 0xaa, 0, 1, 0], "record without keys"),
        (
            vec![1, 1, 0xaa, 0, 1, 2, 7, 0],
            "keys not strictly ascending",
        ),
    ];
    for (chunk, message) in cases {
        let err = replay(&toy_ctx(&fx), Some(vec![chunk])).0.unwrap_err();
        assert_eq!(err, Error::Decode(message.into()));
    }
}
