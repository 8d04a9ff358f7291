//! One error taxonomy end to end: an error raised inside a reducer reaches
//! the caller of a `desq_dist` entry point as the same `desq_core::Error`
//! value whether the round ran through the in-process transport (which is
//! what the `Miner` adapters run) or on a worker behind a real
//! `NetCoordinator`.

use std::net::SocketAddr;
use std::thread::{self, JoinHandle};

use desq_bsp::transport::{PhaseStats, ReduceFn, ShuffleTransport};
use desq_bsp::{Engine, InProcess, MapTaskOut, NetConfig, NetCoordinator};
use desq_core::mining::{Limits, Miner, MiningContext};
use desq_core::{toy, Dictionary, DictionaryBuilder, Error, Fst, PatEx, Result, SequenceDb};
use desq_dist::dcand::{d_cand_via, d_cand_worker, DCandConfig};
use desq_dist::dseq::{d_seq_via, d_seq_worker, DSeqConfig};

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

fn wide_config() -> DCandConfig {
    DCandConfig::new(1).with_run_budget(64)
}

fn spawn_dcand_worker(addr: SocketAddr) -> JoinHandle<()> {
    thread::spawn(move || {
        let (dict, db, fst) = wide_world();
        let parts = db.partition(PARTS);
        let net = NetConfig::default();
        d_cand_worker(
            &Engine::new(2),
            addr,
            &net,
            &parts,
            &fst,
            &dict,
            wide_config(),
        )
        .expect("a failed task is the driver's error, not the worker's");
    })
}

#[test]
fn a_reducer_side_budget_error_is_the_same_value_on_every_path() {
    let (dict, db, fst) = wide_world();
    let engine = Engine::new(2);
    let parts = db.partition(PARTS);
    let expect = Error::ResourceExhausted("NFA expansion exceeded budget of 64".into());

    // The Miner adapter: `d_cand_via` over `InProcess`.
    let ctx = MiningContext::sequential(&db, &dict, 1)
        .with_fst(&fst)
        .with_limits(Limits::default().with_budget(64));
    let local = desq_dist::algo::DCand::default().mine(&ctx).unwrap_err();
    assert_eq!(local, expect);

    // The same program called directly.
    let in_process =
        d_cand_via(&engine, &InProcess, &parts, &fst, &dict, wide_config()).unwrap_err();
    assert_eq!(in_process, expect);

    // Over a NetCoordinator: raised on the worker, shipped as TaskErr.
    let coord = NetCoordinator::bind("127.0.0.1:0", NetConfig::default()).unwrap();
    let worker = spawn_dcand_worker(coord.local_addr().unwrap());
    let remote = d_cand_via(&engine, &coord, &parts, &fst, &dict, wide_config()).unwrap_err();
    assert_eq!(remote, expect);
    drop(coord);
    worker.join().unwrap();
}

/// A transport that overwrites the first payload byte of every non-empty
/// shuffle chunk on its way from map to reduce. The chunk still parses
/// (`varint(#payloads) varint(len) payload…` — byte 2 is inside the first
/// payload), so the damage is found by the reducer's own payload decode.
struct Corrupting<'a>(&'a dyn ShuffleTransport);

impl ShuffleTransport for Corrupting<'_> {
    fn map_phase(
        &self,
        engine: &Engine,
        tasks: usize,
        local: &(dyn Fn(usize) -> Result<MapTaskOut> + Sync),
    ) -> Result<(Vec<MapTaskOut>, PhaseStats)> {
        let (mut outs, stats) = self.0.map_phase(engine, tasks, local)?;
        for chunk in outs.iter_mut().flat_map(|out| out.buckets.iter_mut()) {
            if let Some(byte) = chunk.get_mut(2) {
                *byte = 0xff;
            }
        }
        Ok((outs, stats))
    }

    fn reduce_phase(
        &self,
        engine: &Engine,
        chunks: Vec<Vec<Vec<u8>>>,
        reduce: &ReduceFn<'_>,
    ) -> Result<(Vec<Vec<u8>>, PhaseStats)> {
        self.0.reduce_phase(engine, chunks, reduce)
    }
}

#[test]
fn a_reducer_side_decode_error_is_the_same_value_in_process_and_remote() {
    let fx = toy::fixture();
    let engine = Engine::new(2);
    let parts = fx.db.partition(PARTS);
    let config = DSeqConfig::new(2);

    let in_process = d_seq_via(
        &engine,
        &Corrupting(&InProcess),
        &parts,
        &fx.fst,
        &fx.dict,
        config,
    )
    .unwrap_err();
    assert!(matches!(in_process, Error::Decode(_)), "{in_process}");

    let coord = NetCoordinator::bind("127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = coord.local_addr().unwrap();
    let worker = thread::spawn(move || {
        let fx = toy::fixture();
        let parts = fx.db.partition(PARTS);
        let net = NetConfig::default();
        d_seq_worker(
            &Engine::new(2),
            addr,
            &net,
            &parts,
            &fx.fst,
            &fx.dict,
            config,
        )
        .expect("a failed task is the driver's error, not the worker's");
    });
    let remote = d_seq_via(
        &engine,
        &Corrupting(&coord),
        &parts,
        &fx.fst,
        &fx.dict,
        config,
    )
    .unwrap_err();
    assert_eq!(remote, in_process);
    drop(coord);
    worker.join().unwrap();
}
