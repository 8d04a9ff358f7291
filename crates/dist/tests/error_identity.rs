//! One error taxonomy end to end: an error raised inside a reducer reaches
//! the caller of a `desq_dist` entry point as the same `desq_core::Error`
//! value whether the round ran through the in-process transport (which is
//! what `Miner::mine` runs) or on a worker behind a real `NetCoordinator`.

use std::net::SocketAddr;
use std::thread::{self, JoinHandle};

use desq_core::codec::{decode_item_seq, encode_item_seq, read_varint, write_varint};
use desq_core::mining::{Limits, Miner, MiningContext};
use desq_core::{toy, Dictionary, DictionaryBuilder, Error, Fst, PatEx, Result, SequenceDb};
use desq_dist::bsp::transport::{PhaseStats, ReduceFn, ShuffleTransport};
use desq_dist::bsp::{Exec, InProcess, MapTaskOut, NetCoordinator};
use desq_dist::dcand::{d_cand, DCandConfig};
use desq_dist::dseq::{d_seq, DSeqConfig};

const PARTS: usize = 2;

/// Three copies of `x x x x` under the chain `x → X1 → X2 → X3`, mined
/// with `(.^)(.^)(.^)(.^)`: one accepting run per sequence and a handful
/// of trie insertions on the map side, but 4⁴ candidates for the reducers
/// to expand — a run budget of 64 passes every mapper and trips in reduce.
fn wide_world() -> (Dictionary, SequenceDb, Fst) {
    let mut b = DictionaryBuilder::new();
    for name in ["x", "X1", "X2", "X3"] {
        b.item(name);
    }
    b.edge("x", "X1");
    b.edge("X1", "X2");
    b.edge("X2", "X3");
    let x = b.id_of("x").unwrap();
    let (dict, db) = b.freeze(&SequenceDb::new(vec![vec![x; 4]; 3])).unwrap();
    let fst = Fst::compile(&PatEx::parse("(.^)(.^)(.^)(.^)").unwrap(), &dict).unwrap();
    (dict, db, fst)
}

/// The wide world at σ = 1 under a work budget of 64, on two threads and
/// [`PARTS`] map partitions.
fn wide_ctx<'a>(dict: &'a Dictionary, db: &'a SequenceDb, fst: &'a Fst) -> MiningContext<'a> {
    MiningContext::sequential(db, dict, 1)
        .with_fst(fst)
        .with_limits(Limits::default().with_budget(64))
        .with_parallelism(2, PARTS)
}

fn spawn_dcand_worker(addr: SocketAddr) -> JoinHandle<()> {
    thread::spawn(move || {
        let (dict, db, fst) = wide_world();
        d_cand(
            &wide_ctx(&dict, &db, &fst),
            Exec::Worker(addr),
            DCandConfig::default(),
        )
        .expect("a failed task is the driver's error, not the worker's");
    })
}

#[test]
fn a_reducer_side_budget_error_is_the_same_value_on_every_path() {
    let (dict, db, fst) = wide_world();
    let ctx = wide_ctx(&dict, &db, &fst);
    let expect = Error::ResourceExhausted("NFA expansion exceeded budget of 64".into());

    // `Miner::mine` on one thread and one partition: `d_cand` with
    // `Exec::Via(&InProcess)`.
    let sequential = ctx.with_parallelism(1, 1);
    let local = DCandConfig::default().mine(&sequential).unwrap_err();
    assert_eq!(local, expect);

    // The same program called directly, on two threads and partitions.
    let in_process = d_cand(&ctx, Exec::Via(&InProcess), DCandConfig::default()).unwrap_err();
    assert_eq!(in_process, expect);

    // Over a NetCoordinator: raised on the worker, shipped as TaskErr.
    let coord = NetCoordinator::bind("127.0.0.1:0").unwrap();
    let worker = spawn_dcand_worker(coord.local_addr().unwrap());
    let remote = d_cand(&ctx, Exec::Via(&coord), DCandConfig::default()).unwrap_err();
    assert_eq!(remote, expect);
    drop(coord);
    worker.join().unwrap();
}

/// Damage done to a shuffled payload's bytes.
type Damage = fn(&mut Vec<u8>);

/// A transport that damages the first payload of every non-empty shuffle
/// chunk on its way from map to reduce, keeping the chunk well-formed
/// around it, so the damage is found by the reducer's own payload decode.
struct Corrupting<'a>(&'a dyn ShuffleTransport, Damage);

impl ShuffleTransport for Corrupting<'_> {
    fn map_phase(
        &self,
        ctx: &MiningContext<'_>,
        tasks: usize,
        local: &(dyn Fn(usize) -> Result<MapTaskOut> + Sync),
    ) -> Result<(Vec<MapTaskOut>, PhaseStats)> {
        let (mut outs, stats) = self.0.map_phase(ctx, tasks, local)?;
        for chunk in outs.iter_mut().flat_map(|out| out.buckets.iter_mut()) {
            if !chunk.is_empty() {
                damage_first_payload(chunk, self.1);
            }
        }
        Ok((outs, stats))
    }

    fn reduce_phase(
        &self,
        ctx: &MiningContext<'_>,
        chunks: Vec<Vec<Vec<u8>>>,
        reduce: &ReduceFn<'_>,
    ) -> Result<(Vec<Vec<u8>>, PhaseStats)> {
        self.0.reduce_phase(ctx, chunks, reduce)
    }
}

/// Re-encodes the chunk's first payload
/// (`varint(#payloads) varint(len) payload…`) after `damage`.
fn damage_first_payload(chunk: &mut Vec<u8>, damage: Damage) {
    let mut rest = chunk.as_slice();
    let count = read_varint(&mut rest).unwrap();
    let len = read_varint(&mut rest).unwrap() as usize;
    let mut payload = rest[..len].to_vec();
    damage(&mut payload);
    let mut out = Vec::new();
    write_varint(&mut out, count);
    write_varint(&mut out, payload.len() as u64);
    out.extend_from_slice(&payload);
    out.extend_from_slice(&rest[len..]);
    *chunk = out;
}

#[test]
fn a_reducer_side_decode_error_is_the_same_value_in_process_and_remote() {
    fn toy_ctx(fx: &toy::Toy) -> MiningContext<'_> {
        MiningContext::sequential(&fx.db, &fx.dict, 2)
            .with_fst(&fx.fst)
            .with_parallelism(2, PARTS)
    }
    let fx = toy::fixture();
    let config = DSeqConfig::default();
    let damages: [(Damage, Option<&str>); 3] = [
        // The item-sequence header becomes an unterminated varint.
        (|payload| payload[0] = 0xff, None),
        // A well-formed item sequence naming an item the toy dictionary
        // (seven items) does not have.
        (
            |payload| {
                let mut items = Vec::new();
                decode_item_seq(&mut payload.as_slice(), &mut items).unwrap();
                items[0] = 12;
                payload.clear();
                encode_item_seq(&items, payload);
            },
            Some("D-SEQ payload: item 12 outside the dictionary (1..=7)"),
        ),
        // One byte after the encoded item sequence.
        (
            |payload| payload.push(1),
            Some("D-SEQ payload: 1 trailing bytes"),
        ),
    ];
    for (damage, message) in damages {
        let in_process = d_seq(
            &toy_ctx(&fx),
            Exec::Via(&Corrupting(&InProcess, damage)),
            config,
        );
        let in_process = in_process.unwrap_err();
        match message {
            Some(m) => assert_eq!(in_process, Error::Decode(m.into())),
            None => assert!(matches!(in_process, Error::Decode(_)), "{in_process}"),
        }

        let coord = NetCoordinator::bind("127.0.0.1:0").unwrap();
        let addr = coord.local_addr().unwrap();
        let worker = thread::spawn(move || {
            let fx = toy::fixture();
            d_seq(&toy_ctx(&fx), Exec::Worker(addr), config)
                .expect("a failed task is the driver's error, not the worker's");
        });
        let remote = d_seq(
            &toy_ctx(&fx),
            Exec::Via(&Corrupting(&coord, damage)),
            config,
        )
        .unwrap_err();
        assert_eq!(remote, in_process);
        drop(coord);
        worker.join().unwrap();
    }
}
