//! D-SEQ's reduce against hostile shuffle bytes. A real bucket — the toy
//! fixture's two map tasks' chunks — is replayed into the reduce as every
//! strict prefix and every single-byte mutation (all 256 values) of each
//! chunk. Each case must mine or fail with a typed error; a panic in the
//! merge or the reducer would surface as `Error::WorkerPanicked`.

use std::sync::Mutex;

use desq_core::mining::MiningContext;
use desq_core::{toy, Error, MiningResult, Result};
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

fn replay(fx: &toy::Toy, bucket: Option<Vec<Vec<u8>>>) -> (Result<MiningResult>, Replaying) {
    let transport = Replaying {
        bucket,
        seen: Mutex::new(Vec::new()),
    };
    let result = d_seq(&toy_ctx(fx), Exec::Via(&transport), DSeqConfig::default());
    (
        result.map(|res| res.expect("a driven round has a result")),
        transport,
    )
}

#[test]
fn every_prefix_and_byte_mutation_of_a_real_bucket_mines_or_fails_typed() {
    let fx = toy::fixture();
    let (clean, recorded) = replay(&fx, None);
    let clean = clean.unwrap();
    let mut buckets = recorded.seen.into_inner().unwrap();
    assert_eq!(buckets.len(), 1);
    let bucket = buckets.pop().unwrap();
    assert_eq!(bucket.len(), 2, "one chunk per map task");
    assert_eq!(
        replay(&fx, Some(bucket.clone())).0.unwrap().patterns,
        clean.patterns
    );

    let (mut ok, mut failed) = (0usize, 0usize);
    let mut check = |case: Vec<Vec<u8>>, what: &str| match replay(&fx, Some(case)).0 {
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
fn the_merge_decode_errors_reach_the_caller_word_for_word() {
    let fx = toy::fixture();
    let cases: [(Vec<u8>, &str); 3] = [
        (vec![5], "payload dictionary: count 5 exceeds input"),
        (vec![1, 9, 0xaa], "payload: length 9 exceeds input"),
        // One 1-byte payload, then key 7 naming payload 3 with weight 1.
        (vec![1, 1, 0xaa, 7, 3, 1], "payload id 3 out of range"),
    ];
    for (chunk, message) in cases {
        let err = replay(&fx, Some(vec![chunk])).0.unwrap_err();
        assert_eq!(err, Error::Decode(message.into()));
    }
}
