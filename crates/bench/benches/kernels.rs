//! Criterion micro-benchmarks of the hot kernels:
//! FST simulation (grid construction), pivot search (grid DP vs run
//! enumeration), the ⊕ pivot merge, NFA construction/minimization/
//! serialization and decode/expansion, FST compilation at both optimizer
//! levels, shuffle codecs, local mining, and the flat counting path
//! (run-table build, run enumeration and interned counting vs the
//! `desq-oracle` crate's grid, runs and `candidates::generate`) next to
//! D-CAND's map side over the same
//! corpus — so map-over-walk (`dcand/map_n2_2k` over
//! `counting/run_table_build_n2_2k`) and reduce-over-count
//! (`nfa/decode_expand_count` over `nfa/deserialize`) read off one run —
//! and D-SEQ's reduce side: the bucket merge of one real round
//! (`bsp/merge_dseq_n4_2k`) and every pivot partition mined from prebuilt
//! tables (`dseq/partitions_*_2k`, the floor under its reducers).

use std::collections::BTreeMap;
use std::sync::Mutex;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use desq_bsp::engine::merge_bucket_sizes;
use desq_bsp::transport::{PhaseStats, ReduceFn, ShuffleTransport};
use desq_bsp::{Codec, Engine, InProcess, MapTaskOut};
use desq_core::fst::nfa::{Nfa, NfaBuilder};
use desq_core::fst::{CandidateCounter, FstIndex, RunScratch, RunWalker};
use desq_core::fx::FxHashMap;
use desq_core::mining::MiningContext;
use desq_core::{Dictionary, Fst, Sequence, SequenceDb};
use desq_datagen::{nyt_like, NytConfig};
use desq_dist::dcand::{merge_pivots, Mapper};
use desq_dist::dseq::{d_seq_via, DSeqConfig};
use desq_dist::{PivotScratch, PivotSearch};
use desq_miner::{LocalMiner, MinerConfig, MinerScratch, SeqTables};
use desq_oracle::{candidates, runs, Grid};

fn workload() -> (Dictionary, SequenceDb, Fst) {
    let (dict, db) = nyt_like(&NytConfig::new(2_000));
    let fst = desq_dist::patterns::n4().compile(&dict).unwrap();
    (dict, db, fst)
}

fn bench_grid(c: &mut Criterion) {
    let (dict, db, fst) = workload();
    let seqs: Vec<_> = db.sequences.iter().take(100).collect();
    c.bench_function("grid/build_n4_100seqs", |b| {
        b.iter(|| {
            for seq in &seqs {
                black_box(Grid::build(&fst, &dict, seq));
            }
        })
    });
}

fn bench_pivot_search(c: &mut Criterion) {
    let (dict, db, fst) = workload();
    let last = dict.last_frequent(40);
    let search = PivotSearch::new(&fst, &dict, last);
    let seqs: Vec<_> = db.sequences.iter().take(100).collect();
    c.bench_function("pivots/grid_n4_100seqs", |b| {
        b.iter(|| {
            for seq in &seqs {
                black_box(search.pivots(seq));
            }
        })
    });
    // The table build alone (simulation front-end, hoisted scratch) —
    // compare with mining/table_build_* and counting/run_table_build_*.
    c.bench_function("pivots/prepare_n4_100seqs", |b| {
        let mut scratch = PivotScratch::default();
        b.iter(|| {
            let mut accepted = 0usize;
            for seq in &seqs {
                accepted += usize::from(search.safe_range(seq, &mut scratch).is_some());
            }
            black_box(accepted)
        })
    });
    // The no-grid ablation: run enumeration over the same tables.
    c.bench_function("pivots/enumerated_n4_100seqs", |b| {
        let (mut scratch, mut ranges) = (PivotScratch::default(), Vec::new());
        b.iter(|| {
            for seq in &seqs {
                search
                    .pivots_enumerated_into(seq, usize::MAX, &mut scratch, &mut ranges)
                    .unwrap();
                black_box(&ranges);
            }
        })
    });
}

fn bench_merge(c: &mut Criterion) {
    let sets: Vec<Vec<u32>> = (0..20)
        .map(|i| vec![i + 1, i + 5, i + 11, i + 40])
        .collect();
    c.bench_function("pivots/merge_20sets", |b| {
        b.iter(|| black_box(merge_pivots(black_box(&sets))))
    });
}

fn bench_nfa(c: &mut Criterion) {
    // Runs over a shared-suffix structure — the typical D-CAND shape.
    let paths: Vec<Vec<Vec<u32>>> = (0..50u32)
        .map(|i| {
            let mut p = vec![vec![100 + i]];
            p.extend((1..=6).map(|j| vec![j, j + 1]));
            p
        })
        .collect();
    // One builder and one decoder, reused the way a map / reduce task does.
    let mut tries = NfaBuilder::default();
    let mut build = move |sink: &mut dyn FnMut(&[u8])| {
        tries.clear();
        for p in &paths {
            tries.insert(1, p.iter().map(Vec::as_slice));
        }
        tries.finish(true, |_, bytes| sink(bytes));
    };
    c.bench_function("nfa/build_minimize_serialize", |b| {
        b.iter(|| {
            build(&mut |bytes| {
                black_box(bytes);
            })
        })
    });
    let mut bytes = Vec::new();
    build(&mut |b| bytes = b.to_vec());
    let mut nfa = Nfa::default();
    c.bench_function("nfa/deserialize", |b| {
        b.iter(|| black_box(nfa.decode(black_box(&bytes))).unwrap())
    });
    c.bench_function("nfa/decode_expand_count", |b| {
        b.iter(|| {
            let mut counter = CandidateCounter::new();
            nfa.decode(black_box(&bytes)).unwrap();
            counter.begin_sequence(1);
            nfa.for_each(usize::MAX, |candidate| {
                counter.observe(candidate);
            })
            .unwrap();
            black_box(counter.len())
        })
    });
}

fn bench_fst_opt(c: &mut Criterion) {
    // Compilation with and without the optimizer pipeline, per Tab. III
    // NYT constraint — the Full-vs-None delta is the cost of
    // pair-determinization + suffix-sharing minimization, paid once per
    // pattern expression (and amortized by the serve FST cache).
    let (dict, _) = nyt_like(&NytConfig::new(500));
    for constraint in desq_dist::patterns::nyt_constraints() {
        let pexp = desq_core::PatEx::parse(&constraint.expr)
            .unwrap()
            .unanchored();
        let name = constraint.name.to_lowercase();
        c.bench_function(format!("fst_opt/compile_none_{name}").as_str(), |b| {
            b.iter(|| {
                black_box(Fst::compile_with(&pexp, &dict, desq_core::OptLevel::None).unwrap())
            })
        });
        c.bench_function(format!("fst_opt/compile_full_{name}").as_str(), |b| {
            b.iter(|| {
                black_box(Fst::compile_with(&pexp, &dict, desq_core::OptLevel::Full).unwrap())
            })
        });
    }
}

fn bench_codec(c: &mut Criterion) {
    let seqs: Vec<Vec<u32>> = (0..1000)
        .map(|i| (0..20).map(|j| i * 7 + j).collect())
        .collect();
    c.bench_function("codec/encode_1000x20", |b| {
        b.iter(|| {
            let mut buf = Vec::new();
            for s in &seqs {
                s.encode(&mut buf);
            }
            black_box(buf)
        })
    });
    let mut buf = Vec::new();
    for s in &seqs {
        s.encode(&mut buf);
    }
    c.bench_function("codec/decode_1000x20", |b| {
        b.iter(|| {
            let mut slice = buf.as_slice();
            let mut n = 0usize;
            while !slice.is_empty() {
                n += Vec::<u32>::decode(&mut slice).unwrap().len();
            }
            black_box(n)
        })
    });
}

fn bench_local_mining(c: &mut Criterion) {
    let (dict, db, fst) = workload();
    let inputs: Vec<desq_miner::WeightedInput<'_>> = db
        .sequences
        .iter()
        .take(300)
        .map(|s| (s.as_slice(), 1))
        .collect();
    // Miner construction (the derived FST index) — runs once per mining
    // job, and once per pivot partition in D-SEQ's reduce.
    c.bench_function("mining/miner_build_n4", |b| {
        b.iter(|| black_box(LocalMiner::new(&fst, &dict, MinerConfig::sequential(30))))
    });
    let miner = LocalMiner::new(&fst, &dict, MinerConfig::sequential(30));
    // The per-sequence flat simulation tables (match masks + aliveness +
    // ε-completion DP + output arenas) — the preprocessing the DFS
    // amortizes. (Unlike the pre-PR-3 "desq_dfs_n4_300seqs" numbers, the
    // mining benches below exclude miner construction, measured above.)
    c.bench_function("mining/table_build_n4_300seqs", |b| {
        b.iter(|| black_box(miner.prepare_tables(&inputs, 1).unwrap()))
    });
    // ε-closure + child expansion of the root node over all prepared
    // sequences (the kernel every search-tree node runs).
    let tables = miner.prepare_tables(&inputs, 1).unwrap();
    c.bench_function("mining/root_expand_n4_300seqs", |b| {
        b.iter(|| black_box(miner.first_level_count(&tables)))
    });
    c.bench_function("mining/desq_dfs_n4_300seqs", |b| {
        b.iter(|| black_box(miner.mine(&inputs).unwrap()))
    });
    c.bench_function("mining/desq_dfs_n4_300seqs_w4", |b| {
        b.iter(|| black_box(miner.mine_with_workers(&inputs, 4, None).unwrap()))
    });
}

fn bench_counting(c: &mut Criterion) {
    // The DESQ-COUNT workload shape: a selective constraint over many
    // sequences, most of which are rejected — table build dominates.
    let (dict, db) = nyt_like(&NytConfig::new(2_000));
    let fst = desq_dist::patterns::n2().compile(&dict).unwrap();
    let sigma = 10u64;
    let max_item = dict.last_frequent(sigma);
    let index = FstIndex::new(&fst);
    let walker = RunWalker::new(&fst, &dict, &index, max_item);
    let seqs: Vec<&Sequence> = db.sequences.iter().collect();

    // The same front-end build through the DESQ-DFS consumer, which adds
    // the ε-completion DP and keeps every accepted sequence's tables.
    c.bench_function("mining/table_build_n2_2k", |b| {
        let miner = LocalMiner::new(&fst, &dict, MinerConfig::sequential(sigma));
        let inputs: Vec<desq_miner::WeightedInput<'_>> =
            seqs.iter().map(|s| (s.as_slice(), 1)).collect();
        b.iter(|| black_box(miner.prepare_tables(&inputs, 1).unwrap()))
    });
    // Run-table build: flat walker tables vs the seed-era Grid.
    c.bench_function("counting/run_table_build_n2_2k", |b| {
        let mut scratch = RunScratch::default();
        b.iter(|| {
            let mut accepted = 0usize;
            for seq in &seqs {
                accepted += usize::from(walker.build_tables(seq, &mut scratch));
            }
            black_box(accepted)
        })
    });
    // D-CAND's map side on the same walk: build + minimize + serialize
    // every pivot NFA of every sequence, one mapper (one scratch).
    c.bench_function("dcand/map_n2_2k", |b| {
        let mut mapper = Mapper::new(&fst, &dict, &index, sigma, usize::MAX, true);
        b.iter(|| {
            let mut shipped = 0usize;
            for seq in &seqs {
                mapper.map(seq, |_, bytes| shipped += bytes.len()).unwrap();
            }
            black_box(shipped)
        })
    });
    c.bench_function("counting/grid_build_n2_2k", |b| {
        b.iter(|| {
            let mut accepted = 0usize;
            for seq in &seqs {
                accepted += usize::from(Grid::build(&fst, &dict, seq).accepts());
            }
            black_box(accepted)
        })
    });

    // Accepting-run enumeration: flat walk vs grid-backed transition walk.
    c.bench_function("counting/flat_run_enum_n2_2k", |b| {
        let mut scratch = RunScratch::default();
        b.iter(|| {
            let mut visited = 0usize;
            for seq in &seqs {
                walker.for_each_run(seq, &mut scratch, |sets| {
                    visited += sets.len();
                    true
                });
            }
            black_box(visited)
        })
    });
    c.bench_function("counting/oracle_run_enum_n2_2k", |b| {
        b.iter(|| {
            let mut visited = 0usize;
            for seq in &seqs {
                let grid = Grid::build(&fst, &dict, seq);
                runs::for_each_accepting_run(&fst, &dict, seq, &grid, |path| {
                    visited += path.len();
                    true
                });
            }
            black_box(visited)
        })
    });

    // End-to-end counting: interned byte keys vs Cartesian products into
    // hash sets plus a `FxHashMap<Sequence, u64>` count map.
    c.bench_function("counting/flat_count_n2_2k", |b| {
        let mut scratch = RunScratch::default();
        b.iter(|| {
            let mut counter = CandidateCounter::new();
            for seq in &seqs {
                walker
                    .count_candidates(seq, 1, usize::MAX, &mut scratch, &mut counter, |_, _| {})
                    .unwrap();
            }
            black_box(counter.patterns(sigma))
        })
    });
    c.bench_function("counting/oracle_generate_n2_2k", |b| {
        b.iter(|| {
            let mut counts: FxHashMap<Sequence, u64> = FxHashMap::default();
            for seq in &seqs {
                for cand in candidates::generate(&fst, &dict, seq, Some(sigma), usize::MAX).unwrap()
                {
                    *counts.entry(cand).or_insert(0) += 1;
                }
            }
            black_box(
                counts
                    .into_iter()
                    .filter(|&(_, f)| f >= sigma)
                    .collect::<Vec<_>>(),
            )
        })
    });
}

/// Passes a round through in process and keeps a copy of the chunks its
/// reduce phase receives.
#[derive(Default)]
struct Recording(Mutex<Vec<Vec<Vec<u8>>>>);

impl ShuffleTransport for Recording {
    fn map_phase(
        &self,
        engine: &Engine,
        tasks: usize,
        local: &(dyn Fn(usize) -> desq_core::Result<MapTaskOut> + Sync),
    ) -> desq_core::Result<(Vec<MapTaskOut>, PhaseStats)> {
        InProcess.map_phase(engine, tasks, local)
    }

    fn reduce_phase(
        &self,
        engine: &Engine,
        chunks: Vec<Vec<Vec<u8>>>,
        reduce: &ReduceFn<'_>,
    ) -> desq_core::Result<(Vec<Vec<u8>>, PhaseStats)> {
        *self.0.lock().unwrap() = chunks.clone();
        InProcess.reduce_phase(engine, chunks, reduce)
    }
}

fn bench_dseq(c: &mut Criterion) {
    // D-SEQ's reduce side on nyt_like(2000) at σ = 10, split the way the
    // benchmark's `dist_loose` rounds split it (two partitions, two
    // buckets). The merge runs over the bucket chunks of one real round.
    let sigma = 10;
    let (dict, db) = nyt_like(&NytConfig::new(2_000));
    let n4 = desq_dist::patterns::n4().compile(&dict).unwrap();
    let ctx = MiningContext::sequential(&db, &dict, sigma)
        .with_fst(&n4)
        .with_parallelism(2, 2);
    let recording = Recording::default();
    d_seq_via(&ctx, &recording, DSeqConfig::default()).unwrap();
    let buckets = recording.0.into_inner().unwrap();
    c.bench_function("bsp/merge_dseq_n4_2k", |b| {
        b.iter(|| {
            let mut merged = (0, 0);
            for bucket in &buckets {
                let (groups, recs) = merge_bucket_sizes::<u32>(bucket).unwrap();
                merged = (merged.0 + groups, merged.1 + recs);
            }
            black_box(merged)
        })
    });

    for constraint in [desq_dist::patterns::n4(), desq_dist::patterns::n5()] {
        let fst = constraint.compile(&dict).unwrap();
        let name = constraint.name.to_lowercase();
        // The partition floor: every pivot partition mined from prebuilt
        // tables and pre-grouped picks — D-SEQ's reducers without the
        // shuffle, the merge or the table build. Each distinct rewritten
        // range gets one table, each (pivot, range) one weighted pick.
        let last = dict.last_frequent(sigma);
        let search = PivotSearch::new(&fst, &dict, last);
        let builder =
            LocalMiner::with_index(&fst, &dict, MinerConfig::sequential(sigma), search.index());
        let (mut tables, mut scratch) = (SeqTables::default(), MinerScratch::default());
        let mut table_of: FxHashMap<&[u32], u32> = FxHashMap::default();
        let mut picks: BTreeMap<u32, FxHashMap<u32, u64>> = BTreeMap::new();
        let (mut pivot_scratch, mut ranges) = (PivotScratch::default(), Vec::new());
        for seq in &db.sequences {
            search.pivots_into(seq, &mut pivot_scratch, &mut ranges);
            let Some(pr) = ranges.first() else { continue };
            let range = &seq[pr.first as usize..=pr.last as usize];
            let table = *table_of
                .entry(range)
                .or_insert_with(|| builder.append_tables(range, &mut tables, &mut scratch));
            for pr in &ranges {
                *picks.entry(pr.item).or_default().entry(table).or_default() += 1;
            }
        }
        let partitions: Vec<(u32, Vec<(u32, u64)>)> = picks
            .into_iter()
            .map(|(pivot, picks)| (pivot, picks.into_iter().collect()))
            .collect();
        c.bench_function(format!("dseq/partitions_{name}_2k").as_str(), |b| {
            b.iter(|| {
                let mut patterns = 0usize;
                for (pivot, picks) in &partitions {
                    let cfg = MinerConfig::for_pivot(sigma, *pivot, true);
                    LocalMiner::with_index(&fst, &dict, cfg, search.index()).mine_picks(
                        &tables,
                        picks,
                        &mut scratch,
                        &mut |_, _| patterns += 1,
                    );
                }
                black_box(patterns)
            })
        });
    }
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(10);
    targets = bench_grid, bench_pivot_search, bench_merge, bench_nfa, bench_fst_opt,
              bench_codec, bench_local_mining, bench_counting, bench_dseq
}
criterion_main!(kernels);
