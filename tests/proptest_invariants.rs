//! Property-based tests of the core invariants, on random hierarchies,
//! databases and pattern expressions.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use desq::core::fst::nfa::{Nfa, NfaBuilder};
use desq::core::fst::sim::get_bit;
use desq::core::fst::{RunScratch, RunWalker};
use desq::core::{Dictionary, DictionaryBuilder, Error, Fst, ItemId, PatEx, Sequence, SequenceDb};
use desq::dist::dcand::Mapper;
use desq::dist::pivots::merge_pivots;
use desq::dist::{NaiveConfig, PivotScratch, PivotSearch};
use desq::miner::{LocalMiner, MinerConfig, MinerScratch, Pick, SeqTables, WeightedInput};
use desq::session::{AlgorithmSpec, MiningSession};
use desq::{ExecutionPolicy, OptLevel};
use desq_oracle::{candidates, runs, Grid};

const BUDGET: usize = 100_000;

/// A session over a random world and a pre-compiled FST, with the
/// property-test work budget.
fn world_session(
    world: &World,
    fst: &Fst,
    sigma: u64,
    workers: usize,
    parts: usize,
) -> MiningSession {
    MiningSession::builder()
        .dictionary(world.dict.clone())
        .database(world.db.clone())
        .fst(fst.clone())
        .sigma(sigma)
        .budget(BUDGET)
        .workers(workers)
        .partitions(parts)
        .build()
        .unwrap()
}

/// A random DAG dictionary over items `i0..i{n-1}` (edges only from later to
/// earlier items — acyclic by construction), frozen over a random database.
#[derive(Debug, Clone)]
struct World {
    dict: Dictionary,
    db: SequenceDb,
}

fn arb_world() -> impl Strategy<Value = World> {
    (3usize..7)
        .prop_flat_map(|n| {
            let edges = proptest::collection::vec((1..n, 0..n), 0..n);
            let seqs =
                proptest::collection::vec(proptest::collection::vec(1..=n as ItemId, 0..7), 1..6);
            (Just(n), edges, seqs)
        })
        .prop_map(|(n, edges, seqs)| {
            let mut b = DictionaryBuilder::new();
            for i in 0..n {
                b.item(&format!("i{i}"));
            }
            for (child, parent) in edges {
                if parent < child {
                    b.edge(&format!("i{child}"), &format!("i{parent}"));
                }
            }
            let (dict, db) = b.freeze(&SequenceDb::new(seqs)).unwrap();
            World { dict, db }
        })
}

fn arb_pexp(items: usize) -> impl Strategy<Value = PatEx> {
    let leaf = prop_oneof![
        (0..items).prop_map(|i| PatEx::Item {
            name: format!("i{i}"),
            exact: false,
            up: false
        }),
        (0..items).prop_map(|i| PatEx::Item {
            name: format!("i{i}"),
            exact: true,
            up: false
        }),
        (0..items).prop_map(|i| PatEx::Item {
            name: format!("i{i}"),
            exact: false,
            up: true
        }),
        Just(PatEx::Dot { up: false }),
        Just(PatEx::Dot { up: true }),
    ];
    leaf.prop_recursive(3, 12, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| PatEx::Capture(Box::new(e))),
            inner.clone().prop_map(|e| PatEx::Star(Box::new(e))),
            inner.clone().prop_map(|e| PatEx::Plus(Box::new(e))),
            inner.clone().prop_map(|e| PatEx::Optional(Box::new(e))),
            proptest::collection::vec(inner.clone(), 2..3).prop_map(PatEx::Concat),
            proptest::collection::vec(inner.clone(), 2..3).prop_map(PatEx::Alt),
            (inner, 0u32..2, 1u32..3).prop_map(|(e, mn, extra)| PatEx::Range {
                inner: Box::new(e),
                min: mn,
                max: Some(mn + extra),
            }),
        ]
    })
}

/// Twelve optional hops, each over `e`, `(.^)` and every item of the world
/// captured: compiled at `OptLevel::None` this is far beyond 64 transitions
/// (the front-end's general, multi-word shape) and it accepts every short
/// sequence, so the grids it is checked on are densely alive.
fn widen(e: &PatEx, items: usize) -> PatEx {
    let mut alts = vec![e.clone(), PatEx::Capture(Box::new(PatEx::Dot { up: true }))];
    alts.extend((0..items).map(|i| {
        PatEx::Capture(Box::new(PatEx::Item {
            name: format!("i{i}"),
            exact: false,
            up: false,
        }))
    }));
    let hop = PatEx::Optional(Box::new(PatEx::Alt(alts)));
    PatEx::Concat(vec![hop; 12])
}

/// Checks one `RunWalker::build_tables` per sequence against the `Grid`
/// reference and the transitions' own `matches` / `outputs`: acceptance,
/// the aliveness set, the mask rows restricted to forward-reachable sources
/// (a matching transition into an alive target makes its source alive, so
/// Grid aliveness alone describes those bits) and the output-set id of
/// every `(position, label)`, resolved at the walker's σ cut.
fn check_sim_against_grid(
    fst: &Fst,
    world: &World,
    sigma: u64,
    scratch: &mut RunScratch,
) -> Result<(), String> {
    let dict = &world.dict;
    let index = fst.index();
    let max_item = dict.last_frequent(sigma);
    let walker = RunWalker::new(fst, dict, index, max_item);
    let (w, l) = (index.words(), index.num_labels());
    let mut buf = Vec::new();
    for seq in &world.db.sequences {
        let grid = Grid::build(fst, dict, seq);
        let accepted = walker.build_tables(seq, scratch);
        let tables = scratch.tables();
        prop_assert_eq!(accepted, grid.is_alive(0, fst.initial()), "seq {:?}", seq);
        if !accepted {
            prop_assert!(tables.mask().is_empty() && tables.ids().is_empty());
            continue;
        }
        for i in 0..=seq.len() {
            for q in 0..fst.num_states() {
                let alive = grid.is_alive(i, q as u32);
                prop_assert_eq!(get_bit(scratch.alive(i), q), alive, "alive({}, {})", i, q);
                prop_assert!(!alive || get_bit(scratch.reachable(i), q));
            }
        }
        for (i, &t) in seq.iter().enumerate() {
            let row = &tables.mask()[i * w..(i + 1) * w];
            let mut used = vec![false; l];
            for q in 0..fst.num_states() {
                for (tr, ixtr) in fst.transitions(q as u32).iter().zip(index.state(q)) {
                    let expect = grid.is_alive(i, q as u32)
                        && tr.matches(t, dict)
                        && grid.is_alive(i + 1, tr.to);
                    let bit = row[ixtr.word as usize] & ixtr.mask != 0;
                    prop_assert_eq!(bit, expect, "bit ({}, {} → {}) of {:?}", i, q, tr.to, seq);
                    if bit && ixtr.label >= 0 {
                        used[ixtr.label as usize] = true;
                    }
                }
            }
            for (li, label) in index.labels().iter().enumerate() {
                let id = tables.ids()[i * l + li];
                prop_assert!(used[li] || id == 0, "id ({}, {}) of {:?}", i, li, seq);
                buf.clear();
                if used[li] {
                    label.outputs(t, dict, &mut buf);
                    buf.retain(|&o| o <= max_item);
                }
                prop_assert_eq!(tables.set(id, max_item), &buf[..]);
            }
        }
        prop_assert_eq!(tables.ids().len(), seq.len() * l);
    }
    Ok(())
}

/// D-SEQ's reducer shape against sequential DESQ-DFS: tables appended by
/// one miner from each shipped sequence's rewritten range, mined as
/// one-key buckets. For every pivot `p`, with early stopping on and off,
/// the bucket {p} — a pick per sequence with pivot `p`, capped at `p` and
/// carrying the position one scan of its table places for it, as D-SEQ's
/// reducers compute it — finds exactly the sequential patterns whose
/// largest item is `p`.
fn check_partitions(fst: &Fst, world: &World, sigma: u64) -> Result<(), String> {
    let dict = &world.dict;
    let last = dict.last_frequent(sigma);
    let search = PivotSearch::new(fst, dict, last);
    let inputs: Vec<WeightedInput<'_>> = world
        .db
        .sequences
        .iter()
        .map(|s| (s.as_slice(), 1))
        .collect();
    let miner = LocalMiner::new(fst, dict, MinerConfig::sequential(sigma));
    let sequential = miner.mine(&inputs).unwrap();
    let (mut tables, mut scratch) = (SeqTables::default(), MinerScratch::default());
    let mut partitions: BTreeMap<ItemId, Vec<u32>> = BTreeMap::new();
    for seq in &world.db.sequences {
        let (pivots, range) = search.pivots(seq);
        let Some(range) = range else { continue };
        let table = miner
            .append_tables(&seq[range], &mut tables, &mut scratch)
            .unwrap()
            .expect("a pivot's rewritten range is accepted");
        for &p in &pivots {
            partitions.entry(p).or_default().push(table);
        }
    }
    for p in 1..=dict.max_fid() {
        let expect: Vec<(Sequence, u64)> = sequential
            .iter()
            .filter(|(s, _)| desq::core::sequence::pivot(s) == p)
            .cloned()
            .collect();
        let tables_of = partitions.get(&p).map_or(&[][..], Vec::as_slice);
        for early_stop in [false, true] {
            let pick = |&table: &u32| Pick {
                table,
                weight: 1,
                min_key: p,
                max_key: p,
                stop: match early_stop {
                    true => miner.key_stop(&tables, table, &[p]).unwrap_or(0),
                    false => u32::MAX,
                },
            };
            let picks: Vec<Pick> = tables_of.iter().map(pick).collect();
            let mut mined = Vec::new();
            miner
                .mine_picks(
                    &tables,
                    &picks,
                    &mut scratch,
                    None,
                    &|q| q == p,
                    &mut |s, f| mined.push((s, f)),
                )
                .unwrap();
            prop_assert_eq!(
                &desq::miner::sort_patterns(mined),
                &expect,
                "pivot {} early_stop {}",
                p,
                early_stop
            );
        }
    }
    Ok(())
}

/// The pivots of `G^σ_π(T)` by definition (the oracle's candidates), or
/// `None` when the oracle exceeds the work budget.
fn definition_pivots(fst: &Fst, world: &World, seq: &[ItemId], sigma: u64) -> Option<Vec<ItemId>> {
    let cands = candidates::generate(fst, &world.dict, seq, Some(sigma), BUDGET).ok()?;
    let mut pivots: Vec<ItemId> = cands
        .iter()
        .map(|s| desq::core::sequence::pivot(s))
        .collect();
    pivots.sort_unstable();
    pivots.dedup();
    Some(pivots)
}

/// Brute-force pivot set of a run: pivots of every candidate in the
/// Cartesian product of the output sets.
fn pivots_by_product(sets: &[Vec<ItemId>]) -> Vec<ItemId> {
    let mut out: Vec<ItemId> = Vec::new();
    let mut idx = vec![0usize; sets.len()];
    loop {
        let max = idx.iter().zip(sets).map(|(&i, s)| s[i]).max().unwrap();
        if !out.contains(&max) {
            out.push(max);
        }
        // odometer
        let mut d = 0;
        loop {
            if d == sets.len() {
                out.sort_unstable();
                return out;
            }
            idx[d] += 1;
            if idx[d] < sets[d].len() {
                break;
            }
            idx[d] = 0;
            d += 1;
        }
    }
}

/// Every item sequence a label-set path represents (one item per set).
fn cartesian(path: &[Vec<ItemId>]) -> Vec<Sequence> {
    path.iter().fold(vec![Vec::new()], |prefixes, set| {
        prefixes
            .iter()
            .flat_map(|p| set.iter().map(move |&w| [p.as_slice(), &[w]].concat()))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Th. 1: the ⊕ merge, folded over a run's sets, equals the
    /// brute-force pivot computation.
    #[test]
    fn pivot_merge_matches_cartesian_product(
        sets in proptest::collection::vec(
            proptest::collection::btree_set(1u32..12, 1..4), 1..5)
    ) {
        let sets: Vec<Vec<ItemId>> = sets
            .into_iter()
            .map(|s| s.into_iter().collect::<Vec<_>>())
            .collect();
        prop_assert_eq!(merge_pivots(&sets), pivots_by_product(&sets));
    }

    /// Pattern expressions render and re-parse to the same AST.
    #[test]
    fn pexp_display_parse_roundtrip(e in arb_pexp(4)) {
        let shown = e.to_string();
        let back = PatEx::parse(&shown).unwrap();
        prop_assert_eq!(back, e, "display form: {}", shown);
    }

    /// The flat pivot DP (bit-packed reachability + ⊕ merges over sorted
    /// arrays, per-thread scratch) returns exactly the pivot *ranges* of
    /// the no-grid run enumeration on random dictionaries, FSTs and
    /// sequences — items and rewritten bounds alike — and one scratch
    /// shared by both variants across sequences leaks no state.
    #[test]
    fn flat_pivot_dp_matches_enumeration(
        world in arb_world(), e in arb_pexp(4), sigma in 1u64..3
    ) {
        let fst = match Fst::compile(&e, &world.dict) {
            Ok(f) => f,
            Err(_) => return Ok(()), // pattern references an absent item
        };
        let search = PivotSearch::new(&fst, &world.dict, world.dict.last_frequent(sigma));
        let mut scratch = PivotScratch::default();
        let (mut dp, mut enumerated) = (Vec::new(), Vec::new());
        for seq in &world.db.sequences {
            let Ok(range) =
                search.pivots_enumerated_into(seq, BUDGET, &mut scratch, &mut enumerated)
            else {
                continue; // run explosion: enumeration unavailable
            };
            let dp_range = search.pivots_into(seq, &mut scratch, &mut dp);
            prop_assert_eq!((&dp, dp_range), (&enumerated, range), "seq {:?}", seq);
        }
    }

    /// The no-grid variant's budget bound is the oracle's run count: at
    /// every budget from 1 up, `pivots_enumerated_into` fails with
    /// `ResourceExhausted` iff the sequence has more accepting runs than
    /// the budget, and otherwise returns the pivots of `G^σ_π(T)` with the
    /// grid DP's ranges.
    #[test]
    fn no_grid_budget_bound_matches_the_oracle_run_count(
        world in arb_world(), e in arb_pexp(4), sigma in 1u64..3
    ) {
        const MAX_BUDGET: usize = 24;
        let fst = match Fst::compile(&e, &world.dict) {
            Ok(f) => f,
            Err(_) => return Ok(()), // pattern references an absent item
        };
        let search = PivotSearch::new(&fst, &world.dict, world.dict.last_frequent(sigma));
        let mut scratch = PivotScratch::default();
        let (mut dp, mut got) = (Vec::new(), Vec::new());
        for seq in &world.db.sequences {
            let grid = Grid::build(&fst, &world.dict, seq);
            let runs = runs::count_accepting_runs(&fst, &world.dict, seq, &grid, MAX_BUDGET + 1);
            let definition = definition_pivots(&fst, &world, seq, sigma);
            let dp_range = search.pivots_into(seq, &mut scratch, &mut dp);
            for budget in 1..=MAX_BUDGET {
                match search.pivots_enumerated_into(seq, budget, &mut scratch, &mut got) {
                    Ok(range) => {
                        prop_assert!(runs <= budget, "{} runs, budget {}, {:?}", runs, budget, seq);
                        prop_assert_eq!(&got, &dp, "budget {}, {:?}", budget, seq);
                        prop_assert_eq!(&range, &dp_range, "budget {}, {:?}", budget, seq);
                        if let Some(definition) = &definition {
                            prop_assert_eq!(&got, definition, "budget {}, {:?}", budget, seq);
                        }
                    }
                    Err(Error::ResourceExhausted(msg)) => {
                        prop_assert!(runs > budget, "{} runs, budget {}, {:?}", runs, budget, seq);
                        prop_assert_eq!(
                            msg, format!("pivot enumeration exceeded budget of {budget}")
                        );
                    }
                    Err(other) => prop_assert!(false, "unexpected error {}", other),
                }
            }
        }
    }

    /// The shared simulation front-end (`fst::sim`) builds what the `Grid`
    /// reference describes, in both of its shapes — the single-word
    /// step-table shape and the general multi-word one — with one scratch
    /// carried across both FSTs (the step table must re-key).
    #[test]
    fn sim_front_end_matches_grid_in_both_shapes(
        world in arb_world(), e in arb_pexp(4), sigma in 1u64..3
    ) {
        let fst = match Fst::compile(&e, &world.dict) {
            Ok(f) => f,
            Err(_) => return Ok(()), // pattern references an absent item
        };
        let wide = widen(&e, world.dict.max_fid() as usize);
        let wide = Fst::compile_with(&wide, &world.dict, OptLevel::None).unwrap();
        prop_assert!(!wide.index().step_table_eligible());
        let mut scratch = RunScratch::default();
        for fst in [&fst, &wide, &fst] {
            check_sim_against_grid(fst, &world, sigma, &mut scratch)?;
        }
    }

    /// The flat counting path (run walker + interned candidate counter)
    /// is observationally equivalent to the `candidates::generate` oracle
    /// on random dictionaries, pattern expressions and databases:
    /// identical pattern sets and counts (byte-identical after sorting),
    /// identical work metrics, and budget-exhaustion parity —
    /// `Error::ResourceExhausted` fires at the same effective work bound,
    /// with and without the σ filter.
    #[test]
    fn flat_counting_matches_generate(
        world in arb_world(), e in arb_pexp(4), sigma in 0u64..3, small_budget in 1usize..40
    ) {
        use desq::core::fst::{CandidateCounter, RunScratch, RunWalker};
        use desq::core::fx::FxHashMap;

        let fst = match Fst::compile(&e, &world.dict) {
            Ok(f) => f,
            Err(_) => return Ok(()), // pattern references an absent item
        };
        // σ = 0 exercises the unfiltered (NAÏVE) configuration.
        let sigma_opt = (sigma > 0).then_some(sigma);

        let oracle = |budget: usize| -> Result<(Vec<(Sequence, u64)>, u64), Error> {
            let mut counts: FxHashMap<Sequence, u64> = FxHashMap::default();
            let mut work = 0u64;
            for seq in &world.db.sequences {
                let cands = candidates::generate(&fst, &world.dict, seq, sigma_opt, budget)?;
                work += cands.len() as u64;
                for c in cands {
                    *counts.entry(c).or_insert(0) += 1;
                }
            }
            let mut out: Vec<(Sequence, u64)> = counts.into_iter().collect();
            out.sort();
            Ok((out, work))
        };
        let flat = |budget: usize| -> Result<(Vec<(Sequence, u64)>, u64), Error> {
            let walker = match sigma_opt {
                Some(s) => {
                    RunWalker::new(&fst, &world.dict, fst.index(), world.dict.last_frequent(s))
                }
                None => RunWalker::unfiltered(&fst, &world.dict),
            };
            let mut scratch = RunScratch::default();
            let mut counter = CandidateCounter::new();
            for seq in &world.db.sequences {
                walker.count_candidates(seq, 1, budget, &mut scratch, &mut counter, |_, _| {})?;
            }
            let mut out = counter.patterns(0);
            out.sort();
            Ok((out, counter.observed()))
        };

        for budget in [BUDGET, small_budget] {
            match (oracle(budget), flat(budget)) {
                (Ok((a, aw)), Ok((b, bw))) => {
                    prop_assert_eq!(&b, &a, "budget {}", budget);
                    prop_assert_eq!(bw, aw, "work metric, budget {}", budget);
                }
                (Err(Error::ResourceExhausted(_)), Err(Error::ResourceExhausted(_))) => {}
                (a, b) => prop_assert!(
                    false,
                    "budget parity violated at {}: oracle {:?} vs flat {:?}",
                    budget,
                    a.map(|(p, _)| p.len()),
                    b.map(|(p, _)| p.len())
                ),
            }
        }
    }

    /// The FST optimizer is observationally invisible: `OptLevel::Full`
    /// yields identical per-sequence candidate sets, pattern sets,
    /// supports and `count_candidates` work as the `OptLevel::None`
    /// oracle (work is first-per-sequence observations, which merging
    /// duplicate runs cannot change), and never grows the machine.
    #[test]
    fn optimized_fst_matches_oracle(
        world in arb_world(), e in arb_pexp(4), sigma in 0u64..3
    ) {
        use desq::core::fst::{CandidateCounter, RunScratch, RunWalker};
        use desq::core::OptLevel;
        use std::collections::BTreeSet;

        let full = match Fst::compile_with(&e, &world.dict, OptLevel::Full) {
            Ok(f) => f,
            Err(_) => return Ok(()), // pattern references an absent item
        };
        let none = Fst::compile_with(&e, &world.dict, OptLevel::None).unwrap();
        prop_assert!(full.num_states() <= none.num_states());
        prop_assert!(full.num_transitions() <= none.num_transitions());
        prop_assert_eq!(full.states_before_opt(), none.num_states());
        prop_assert_eq!(full.transitions_before_opt(), none.num_transitions());
        prop_assert_eq!(full.accepts_empty(), none.accepts_empty());

        let sigma_opt = (sigma > 0).then_some(sigma);
        for seq in &world.db.sequences {
            let a = candidates::generate(&none, &world.dict, seq, sigma_opt, BUDGET);
            let b = candidates::generate(&full, &world.dict, seq, sigma_opt, BUDGET);
            match (a, b) {
                (Ok(a), Ok(b)) => {
                    let a: BTreeSet<Sequence> = a.into_iter().collect();
                    let b: BTreeSet<Sequence> = b.into_iter().collect();
                    prop_assert_eq!(b, a, "candidate set diverged on {:?}", seq);
                }
                // Run explosion on either side: the enumeration oracle is
                // unavailable (the optimized side may legitimately finish
                // where the oracle exhausts).
                _ => return Ok(()),
            }
        }

        let count = |fst: &Fst| -> Result<(Vec<(Sequence, u64)>, u64), Error> {
            let walker = match sigma_opt {
                Some(s) => {
                    RunWalker::new(fst, &world.dict, fst.index(), world.dict.last_frequent(s))
                }
                None => RunWalker::unfiltered(fst, &world.dict),
            };
            let mut scratch = RunScratch::default();
            let mut counter = CandidateCounter::new();
            for seq in &world.db.sequences {
                walker.count_candidates(seq, 1, BUDGET, &mut scratch, &mut counter, |_, _| {})?;
            }
            let mut out = counter.patterns(0);
            out.sort();
            Ok((out, counter.observed()))
        };
        match (count(&none), count(&full)) {
            (Ok((a, aw)), Ok((b, bw))) => {
                prop_assert_eq!(&b, &a, "pattern sets or supports diverged");
                prop_assert_eq!(bw, aw, "counting work diverged");
            }
            // The optimized machine does no more work than the oracle, so
            // exhaustion on the oracle side alone is the optimizer winning.
            (Err(Error::ResourceExhausted(_)), _) => {}
            (a, b) => prop_assert!(
                false,
                "oracle {:?} vs optimized {:?}",
                a.map(|(p, _)| p.len()),
                b.map(|(p, _)| p.len())
            ),
        }
    }

    /// The grid pivot search equals the definition (pivots of G^σ_π(T)),
    /// and run-enumerated pivot search agrees.
    #[test]
    fn pivot_search_matches_definition(world in arb_world(), e in arb_pexp(4), sigma in 1u64..3) {
        let fst = match Fst::compile(&e, &world.dict) {
            Ok(f) => f,
            Err(_) => return Ok(()), // pattern references an absent item
        };
        let last = world.dict.last_frequent(sigma);
        let search = PivotSearch::new(&fst, &world.dict, last);
        let (mut scratch, mut enumerated) = (PivotScratch::default(), Vec::new());
        for seq in &world.db.sequences {
            let Some(expect) = definition_pivots(&fst, &world, seq, sigma) else {
                continue; // exploded: skip this sequence
            };
            prop_assert_eq!(&search.pivots(seq).0, &expect, "seq {:?}", seq);
            if search.pivots_enumerated_into(seq, BUDGET, &mut scratch, &mut enumerated).is_ok() {
                prop_assert_eq!(&enumerated, &expect, "enumerated, seq {:?}", seq);
            }
        }
    }

    /// D-SEQ's per-pivot rewriting preserves the pivot-k candidate sets
    /// exactly (including the safety clamps for adversarial FSTs).
    #[test]
    fn rewriting_preserves_pivot_candidates(
        world in arb_world(), e in arb_pexp(4), sigma in 1u64..3
    ) {
        let fst = match Fst::compile(&e, &world.dict) {
            Ok(f) => f,
            Err(_) => return Ok(()),
        };
        let last = world.dict.last_frequent(sigma);
        let search = PivotSearch::new(&fst, &world.dict, last);
        for seq in &world.db.sequences {
            let full = match candidates::generate(&fst, &world.dict, seq, Some(sigma), BUDGET) {
                Ok(c) => c,
                Err(_) => continue,
            };
            let (pivots, range) = search.pivots(seq);
            let Some(range) = range else { continue };
            let cut = match candidates::generate(
                &fst, &world.dict, &seq[range.clone()], Some(sigma), BUDGET,
            ) {
                Ok(c) => c,
                Err(_) => continue,
            };
            for p in pivots {
                let fk: std::collections::BTreeSet<&Sequence> = full
                    .iter()
                    .filter(|s| desq::core::sequence::pivot(s) == p)
                    .collect();
                let ck: std::collections::BTreeSet<&Sequence> = cut
                    .iter()
                    .filter(|s| desq::core::sequence::pivot(s) == p)
                    .collect();
                prop_assert_eq!(fk, ck, "pivot {} of {:?} (range {:?})", p, seq, range);
            }
        }
    }

    /// Pivot partitions mine the sequential result (see
    /// `check_partitions`), on the random expression captured and
    /// unanchored — random expressions rarely capture on their own — and
    /// on T3(1, 3), whose multi-item patterns put items on both sides of
    /// their pivot.
    #[test]
    fn pivot_partitions_mine_the_sequential_patterns_of_their_pivot(
        world in arb_world(), e in arb_pexp(4), sigma in 1u64..3
    ) {
        let captured = Fst::compile(&PatEx::Capture(Box::new(e)).unanchored(), &world.dict);
        let t3 = desq::dist::patterns::t3(1, 3).compile(&world.dict).unwrap();
        for fst in captured.iter().chain([&t3]) {
            check_partitions(fst, &world, sigma)?;
        }
    }

    /// The full distributed algorithms agree with the brute-force reference
    /// on random worlds and patterns — all dispatched through the session.
    #[test]
    fn distributed_matches_reference(
        world in arb_world(), e in arb_pexp(4), sigma in 1u64..3
    ) {
        let fst = match Fst::compile(&e, &world.dict) {
            Ok(f) => f,
            Err(_) => return Ok(()),
        };
        let base = world_session(&world, &fst, sigma, 2, 2);
        let reference = match base.with_algorithm(AlgorithmSpec::DesqCount).unwrap().run() {
            Ok(r) => r.patterns,
            Err(_) => return Ok(()), // candidate explosion: skip
        };
        let ds = base.with_algorithm(AlgorithmSpec::d_seq()).unwrap().run().unwrap();
        prop_assert_eq!(&ds.patterns, &reference, "d_seq");
        if let Ok(dc) = base.with_algorithm(AlgorithmSpec::d_cand()).unwrap().run() {
            prop_assert_eq!(&dc.patterns, &reference, "d_cand");
        }
    }

    /// Session-level invariants on random worlds: results are sorted (the
    /// documented `MiningResult` invariant), stable across worker/partition
    /// counts, metrics are non-trivial, and σ = 0 is rejected with
    /// `Error::Invalid` regardless of the algorithm.
    #[test]
    fn session_invariants_hold_on_random_worlds(
        world in arb_world(), e in arb_pexp(4), sigma in 1u64..3,
        workers in 1usize..4, parts in 1usize..5,
    ) {
        let fst = match Fst::compile(&e, &world.dict) {
            Ok(f) => f,
            Err(_) => return Ok(()),
        };
        let base = world_session(&world, &fst, sigma, workers, parts);
        let reference = match base.with_algorithm(AlgorithmSpec::d_seq()).unwrap().run() {
            Ok(r) => r,
            Err(_) => return Ok(()),
        };
        prop_assert!(reference.is_sorted());
        prop_assert_eq!(reference.metrics.input_sequences, world.db.len() as u64);
        prop_assert_eq!(reference.metrics.output_records, reference.patterns.len() as u64);
        prop_assert_eq!(reference.metrics.workers, workers as u64);
        // Stability: a different parallelism yields the identical result.
        let other = world_session(&world, &fst, sigma, 1, 3)
            .with_algorithm(AlgorithmSpec::d_seq()).unwrap().run().unwrap();
        prop_assert_eq!(&other.patterns, &reference.patterns);
        // The shared validator rejects σ = 0 for every algorithm.
        let zero = MiningSession::builder()
            .dictionary(world.dict.clone())
            .database(world.db.clone())
            .fst(fst)
            .sigma(0)
            .build();
        prop_assert!(matches!(zero, Err(Error::Invalid(_))));
    }

    /// Parallel local mining (sharded first-level children) is
    /// result-identical to sequential mining on random worlds, for the
    /// eager and streaming entry points.
    #[test]
    fn parallel_local_mining_matches_sequential(
        world in arb_world(), e in arb_pexp(4), sigma in 1u64..3,
    ) {
        let fst = match Fst::compile(&e, &world.dict) {
            Ok(f) => f,
            Err(_) => return Ok(()),
        };
        let inputs: Vec<WeightedInput<'_>> = world
            .db
            .sequences
            .iter()
            .map(|s| (s.as_slice(), 1))
            .collect();
        let miner = LocalMiner::new(&fst, &world.dict, MinerConfig::sequential(sigma));
        let sequential = miner.mine(&inputs).unwrap();
        for workers in 2usize..=4 {
            let (parallel, timings) = miner.mine_with_workers(&inputs, workers, None).unwrap();
            prop_assert_eq!(&parallel, &sequential, "workers = {}", workers);
            prop_assert_eq!(timings.len(), workers);
            // Streaming shards agree as a set.
            let mut streamed = Vec::new();
            let (completed, _) = miner.mine_each_with_workers(&inputs, workers, None, &mut |p, f| {
                streamed.push((p, f));
                true
            }).unwrap();
            prop_assert!(completed);
            streamed.sort_unstable();
            prop_assert_eq!(&streamed, &sequential, "streamed, workers = {}", workers);
        }
    }

    /// The hybrid execution paths agree on random worlds: `Flat` (forced
    /// table materialization), `Lean` (forced counting path) and `Auto`
    /// (the cost model) produce identical patterns through the session,
    /// at 1 and 3 workers. A forced `Lean` may exhaust a tiny budget
    /// (`ResourceExhausted` propagates); `Auto` must transparently fall
    /// back to the flat path instead and still match it.
    #[test]
    fn execution_policies_agree_on_random_worlds(
        world in arb_world(), e in arb_pexp(4), sigma in 1u64..3,
        small_budget in 1usize..40,
    ) {
        let fst = match Fst::compile(&e, &world.dict) {
            Ok(f) => f,
            Err(_) => return Ok(()),
        };
        let build = |exec: ExecutionPolicy, budget: usize, workers: usize| {
            MiningSession::builder()
                .dictionary(world.dict.clone())
                .database(world.db.clone())
                .fst(fst.clone())
                .sigma(sigma)
                .budget(budget)
                .workers(workers)
                .algorithm(AlgorithmSpec::DesqDfs)
                .execution_policy(exec)
                .build()
                .unwrap()
        };
        let flat = build(ExecutionPolicy::Flat, BUDGET, 1).run().unwrap();
        for workers in [1usize, 3] {
            for budget in [BUDGET, small_budget] {
                let auto = build(ExecutionPolicy::Auto, budget, workers).run().unwrap();
                prop_assert_eq!(
                    &auto.patterns, &flat.patterns,
                    "auto, workers = {}, budget = {}", workers, budget
                );
                match build(ExecutionPolicy::Lean, budget, workers).run() {
                    Ok(lean) => prop_assert_eq!(
                        &lean.patterns, &flat.patterns,
                        "lean, workers = {}, budget = {}", workers, budget
                    ),
                    Err(Error::ResourceExhausted(_)) => {}
                    Err(err) => prop_assert!(false, "lean failed unexpectedly: {}", err),
                }
            }
        }
    }

    /// The naive distributed baselines agree with the reference on random
    /// worlds, and pivot search returns well-formed, frequent pivot ranges.
    #[test]
    fn naive_baselines_and_pivot_ranges_are_sound(
        world in arb_world(), e in arb_pexp(4), sigma in 1u64..3
    ) {
        let fst = match Fst::compile(&e, &world.dict) {
            Ok(f) => f,
            Err(_) => return Ok(()),
        };
        let reference = match world_session(&world, &fst, sigma, 1, 1)
            .with_algorithm(AlgorithmSpec::DesqCount).unwrap().run() {
            Ok(r) => r.patterns,
            Err(_) => return Ok(()), // candidate explosion: skip
        };
        let base = world_session(&world, &fst, sigma, 2, 3);
        for filter in [false, true] {
            let spec = AlgorithmSpec::Naive(NaiveConfig { filter });
            if let Ok(res) = base.with_algorithm(spec).unwrap().run() {
                prop_assert_eq!(&res.patterns, &reference, "{}", spec.name());
            }
        }
        let search = PivotSearch::new(&fst, &world.dict, world.dict.last_frequent(sigma));
        for seq in &world.db.sequences {
            let (pivots, range) = search.pivots(seq);
            prop_assert_eq!(pivots.is_empty(), range.is_none(), "range of {:?}", seq);
            if let Some(range) = range {
                prop_assert!(range.start() <= range.end(), "range of {:?}", seq);
                prop_assert!(*range.end() < seq.len(), "range end of {:?}", seq);
            }
            for p in pivots {
                prop_assert!(
                    world.dict.is_frequent(p, sigma),
                    "infrequent pivot {} of {:?}", p, seq
                );
            }
        }
    }

    /// NFA tries: minimization preserves the language and never grows;
    /// serialization round-trips and forgets the insertion order.
    #[test]
    fn nfa_invariants(
        paths in proptest::collection::vec(
            proptest::collection::vec(
                proptest::collection::btree_set(1u32..9, 1..3), 1..5),
            1..6)
    ) {
        let paths: Vec<Vec<Vec<ItemId>>> = paths
            .into_iter()
            .map(|p| p.into_iter().map(|s| s.into_iter().collect()).collect())
            .collect();
        let mut tries = NfaBuilder::default();
        let mut build = |paths: &mut dyn Iterator<Item = &Vec<Vec<ItemId>>>, minimize| {
            tries.clear();
            for p in paths {
                tries.insert(1, p.iter().map(Vec::as_slice));
            }
            let mut payload = Vec::new();
            tries.finish(minimize, |_, bytes| payload = bytes.to_vec());
            payload
        };
        let raw = build(&mut paths.iter(), false);
        let min = build(&mut paths.iter(), true);
        prop_assert_eq!(&min, &build(&mut paths.iter().rev(), true));
        let decode = |bytes: &[u8]| {
            let mut nfa = Nfa::default();
            nfa.decode(bytes).unwrap();
            nfa
        };
        let (mut raw, mut min) = (decode(&raw), decode(&min));
        prop_assert!(min.num_states() <= raw.num_states());
        let expect: BTreeSet<Sequence> = paths.iter().flat_map(|p| cartesian(p)).collect();
        prop_assert_eq!(&raw.language(), &expect);
        prop_assert_eq!(&min.language(), &expect);
    }

    /// D-CAND's map side against an oracle that touches no trie code: per
    /// input sequence, the languages of the decoded per-pivot payloads are
    /// exactly `G^σ_π(T)` grouped by pivot (`max(item)`), with and without
    /// minimization, with one mapper reused across the database.
    #[test]
    fn dcand_payloads_represent_the_candidates_by_pivot(
        world in arb_world(), e in arb_pexp(4), sigma in 1u64..3
    ) {
        let fst = match Fst::compile(&e, &world.dict) {
            Ok(f) => f,
            Err(_) => return Ok(()),
        };
        // Random expressions rarely capture; the widened one accepts every
        // short sequence with many runs, generalizations and pivots.
        let wide = widen(&e, world.dict.max_fid() as usize);
        let wide = Fst::compile_with(&wide, &world.dict, OptLevel::None).unwrap();
        for (fst, minimize) in [(&fst, true), (&wide, false), (&wide, true)] {
            let mut mapper = Mapper::new(fst, &world.dict, sigma, BUDGET, minimize);
            let mut nfa = Nfa::default();
            for seq in &world.db.sequences {
                let Ok(cands) = candidates::generate(fst, &world.dict, seq, Some(sigma), BUDGET)
                else {
                    continue; // candidate explosion: skip
                };
                let mut expect: BTreeMap<ItemId, BTreeSet<Sequence>> = BTreeMap::new();
                for c in cands {
                    expect.entry(desq::core::sequence::pivot(&c)).or_default().insert(c);
                }
                let mut got = BTreeMap::new();
                let mapped = mapper.map(seq, |p, bytes| {
                    nfa.decode(bytes).unwrap();
                    assert!(got.insert(p, nfa.language()).is_none(), "pivot {p} emitted twice");
                });
                if mapped.is_ok() {
                    prop_assert_eq!(got, expect, "min={} seq={:?}", minimize, seq);
                }
            }
        }
    }

    /// Dictionary freezing: fids are frequency-ranked and hierarchy is
    /// preserved under renaming.
    #[test]
    fn dictionary_freeze_invariants(world in arb_world()) {
        let d = &world.dict;
        // Non-increasing document frequencies.
        for fid in 1..d.max_fid() {
            prop_assert!(d.doc_freq(fid) >= d.doc_freq(fid + 1));
        }
        // Ancestor lists contain self and only valid fids, sorted.
        for fid in 1..=d.max_fid() {
            let anc = d.ancestors(fid);
            prop_assert!(anc.contains(&fid));
            prop_assert!(anc.windows(2).all(|w| w[0] < w[1]));
            for &a in anc {
                prop_assert!(a >= 1 && a <= d.max_fid());
            }
        }
        // Recoded sequences stay in range.
        for seq in &world.db.sequences {
            for &t in seq {
                prop_assert!(t >= 1 && t <= d.max_fid());
            }
        }
    }
}

/// Work stealing splits real search trees: DESQ-DFS at three workers on
/// `nyt_like(2000)` under N4 runs more than the one root task — shallow
/// nodes hand subtrees to thieves — and still mines exactly the one-worker
/// result, eagerly and streamed.
#[test]
fn task_splitting_matches_sequential() {
    let (dict, db) = desq::datagen::nyt_like(&desq::datagen::NytConfig::new(2_000));
    let fst = desq::dist::patterns::n4().compile(&dict).unwrap();
    let session = |workers| {
        MiningSession::builder()
            .dictionary(dict.clone())
            .database(db.clone())
            .fst(fst.clone())
            .sigma(10)
            .algorithm(AlgorithmSpec::DesqDfs)
            .execution_policy(ExecutionPolicy::Flat)
            .workers(workers)
            .build()
            .unwrap()
    };
    let sequential = session(1).run().unwrap();
    assert!(!sequential.patterns.is_empty());
    let parallel = session(3).run().unwrap();
    assert_eq!(parallel.patterns, sequential.patterns);
    assert_eq!(parallel.metrics.workers, 3);
    assert!(parallel.metrics.tasks > 1, "{:?}", parallel.metrics);
    let mut stream = session(3).stream();
    let mut streamed: Vec<(Sequence, u64)> = stream.by_ref().collect();
    let metrics = stream.finish().unwrap();
    assert_eq!(metrics.workers, 3, "{metrics:?}");
    assert_eq!(metrics.worker_nanos.len(), 3, "{metrics:?}");
    streamed.sort_unstable();
    assert_eq!(streamed, sequential.patterns);
}
