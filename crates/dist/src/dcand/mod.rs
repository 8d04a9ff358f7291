//! D-CAND: distributed mining with compressed candidate representations
//! (Sec. VI of the paper).
//!
//! For every input sequence `T`, the mapper ([`Mapper`]) enumerates the
//! accepting runs of the FST, σ-filters their output sets, and computes the
//! pivot set of each run by folding the ⊕ merge of Th. 1 over its output
//! sets ([`crate::pivots::merge_pivots`]). For
//! every pivot `p` it builds a trie/NFA representing exactly the candidates
//! of `G^σ_π(T)` with pivot `p`: each run is decomposed by the *first
//! position producing `p`* into product terms (`< p` before, `= p` at, `≤ p`
//! after the first occurrence), which keeps the per-position-set Cartesian
//! semantics intact. All pivot tries of a sequence live in one reusable
//! arena ([`NfaBuilder`]); the serialized NFA is shipped to partition `P_p`;
//! identical NFAs are aggregated into weighted ones by the engine's combiner
//! (Sec. VI-A "Aggregation"), and suffix-sharing minimization shrinks them
//! further ([`NfaBuilder::finish`]).
//!
//! Reducers decode the NFAs ([`Nfa`]) and stream every represented
//! candidate into a count table that de-duplicates per NFA, weighted by the
//! number of source sequences — DESQ-COUNT over compressed inputs. Run
//! enumeration and NFA expansion are bounded by the context's work budget
//! (`Limits::budget`), the analog of the paper's executor memory limit:
//! loose constraints (e.g.
//! `T1` at low σ) exhaust it exactly where the paper reports out-of-memory
//! failures.

#[cfg(test)]
mod reference;

use std::cmp::Ordering;

use desq_core::fst::flat::RunSets;
use desq_core::fst::nfa::{Nfa, NfaBuilder};
use desq_core::fst::{CandidateCounter, RunScratch, RunWalker};
use desq_core::mining::{Miner, MiningContext};
use desq_core::{Dictionary, Error, Fst, ItemId, Result, Sequence};

use crate::bsp::{engine::map_reduce, run_round, Combiner, Exec, InProcess, ReduceUnit};
use crate::pivots::oplus_fold;
use crate::MiningResult;

/// D-CAND (Sec. VI). Its two flags are the Fig. 10b ablation; the default
/// turns both on (full D-CAND). σ and the per-sequence work budget (map
/// side: accepting runs walked and trie insertions; reduce side: NFA
/// expansion steps — exceeding it is the paper's OOM analog) come from the
/// [`MiningContext`].
#[derive(Debug, Clone, Copy)]
pub struct DCandConfig {
    /// Merge suffix-equivalent NFA states before serialization
    /// (Fig. 10b "full D-CAND" vs "tries").
    pub minimize: bool,
    /// Aggregate identical serialized NFAs into weighted records via the
    /// engine's combiner (Fig. 10b "tries" vs "tries, no agg").
    pub aggregate: bool,
}

impl Default for DCandConfig {
    fn default() -> DCandConfig {
        DCandConfig {
            minimize: true,
            aggregate: true,
        }
    }
}

impl Miner for DCandConfig {
    fn name(&self) -> &'static str {
        "D-CAND"
    }

    fn mine(&self, ctx: &MiningContext<'_>) -> Result<MiningResult> {
        if self.aggregate {
            Ok(d_cand(ctx, Exec::Via(&InProcess), *self)?.expect("a driven round has a result"))
        } else {
            // Fig. 10b's no-aggregation ablation is not a combining round.
            d_cand_no_agg(ctx, *self)
        }
    }
}

/// Decomposes `path` (σ-filtered, ε-free output sets of one accepting run)
/// into product terms whose union is exactly the pivot-`p` candidates of
/// the run, and inserts them into `p`'s trie. Term `j` fixes the *first*
/// occurrence of `p` at position `j`: items `< p` before, `p` at, `≤ p`
/// after — so terms are disjoint and their union complete. The sets are
/// sorted, so each restriction is a prefix of its set, non-empty iff the
/// set's minimum passes; a term with an empty restriction represents
/// nothing and is skipped before anything is written. Returns `false` when
/// the work budget is exhausted.
fn insert_pivot_terms<'s>(
    tries: &mut NfaBuilder,
    path: &RunSets<'s>,
    p: ItemId,
    budget: usize,
    work: &mut usize,
) -> bool {
    let n = path.len();
    for j in 0..n {
        let first = path.set(j);
        if let Ok(at) = first.binary_search(&p) {
            if (j + 1..n).all(|i| path.set(i)[0] <= p) {
                *work += 1;
                if *work > budget {
                    return false;
                }
                let restrict = |(i, set): (usize, &'s [ItemId])| match i.cmp(&j) {
                    Ordering::Less => &set[..set.partition_point(|&w| w < p)],
                    Ordering::Equal => &set[at..=at],
                    Ordering::Greater => &set[..set.partition_point(|&w| w <= p)],
                };
                tries.insert(p, path.iter().enumerate().map(restrict));
            }
        }
        if first[0] >= p {
            // Every later term needs an item `< p` at this position.
            break;
        }
    }
    true
}

/// D-CAND's map side for one map task: walks a sequence's accepting runs,
/// builds its per-pivot NFAs and serializes them, all in scratch reused
/// across the task's sequences.
pub struct Mapper<'a> {
    walker: RunWalker<'a>,
    budget: usize,
    minimize: bool,
    runs: RunScratch,
    tries: NfaBuilder,
    /// The current run's pivot set.
    pivots: Vec<ItemId>,
}

impl<'a> Mapper<'a> {
    /// A mapper for `fst` at threshold `sigma` under a per-sequence work
    /// `budget`, minimizing its NFAs iff `minimize`.
    pub fn new(
        fst: &'a Fst,
        dict: &'a Dictionary,
        sigma: u64,
        budget: usize,
        minimize: bool,
    ) -> Self {
        Mapper {
            walker: RunWalker::new(fst, dict, fst.index(), dict.last_frequent(sigma)),
            budget,
            minimize,
            runs: RunScratch::default(),
            tries: NfaBuilder::default(),
            pivots: Vec::new(),
        }
    }

    /// Hands `emit` the serialized NFA of every pivot of `seq`, in
    /// ascending pivot order: σ-filtered output sets come straight from the
    /// walker's output-set directory, and each run's pivot set and
    /// first-occurrence decomposition are processed as the run is
    /// enumerated. The byte slices are only valid inside `emit`.
    pub fn map(&mut self, seq: &[ItemId], emit: impl FnMut(ItemId, &[u8])) -> Result<()> {
        let budget = self.budget;
        let (tries, pivots) = (&mut self.tries, &mut self.pivots);
        tries.clear();
        let mut work = 0usize;
        let mut exhausted = None;
        self.walker.for_each_run(seq, &mut self.runs, |sets| {
            work += 1;
            if work > budget {
                exhausted = Some("run enumeration");
                return false;
            }
            if sets.is_dead() || sets.is_empty() {
                // σ-killed runs count enumeration work but represent nothing;
                // all-ε runs only produce the empty candidate.
                return true;
            }
            oplus_fold(sets.iter(), pivots);
            for &p in pivots.iter() {
                if !insert_pivot_terms(tries, sets, p, budget, &mut work) {
                    exhausted = Some("trie construction");
                    return false;
                }
            }
            true
        });
        if let Some(phase) = exhausted {
            return Err(Error::ResourceExhausted(format!(
                "D-CAND {phase} exceeded budget of {budget}"
            )));
        }
        tries.finish(self.minimize, emit);
        Ok(())
    }
}

/// D-CAND's reduce body over NFA byte slices, in both of its rounds:
/// decode each NFA into the worker's reusable arena and stream its
/// candidates into an interned count table (whose per-sequence epoch
/// de-duplicates the candidates an NFA represents more than once),
/// weighted by source multiplicity — DESQ-COUNT over compressed inputs,
/// σ-filtered, each NFA's expansion bounded by `budget`.
fn expand_and_count<'p>(
    sigma: u64,
    budget: usize,
    nfa: &mut Nfa,
    inputs: impl IntoIterator<Item = (&'p [u8], u64)>,
    emit: &mut dyn FnMut((Sequence, u64)),
) -> Result<()> {
    let mut counter = CandidateCounter::new();
    for (bytes, weight) in inputs {
        nfa.decode(bytes)?;
        counter.begin_sequence(weight);
        nfa.for_each(budget, |candidate| {
            counter.observe(candidate);
        })?;
    }
    for pattern in counter.patterns(sigma) {
        emit(pattern);
    }
    Ok(())
}

/// Runs D-CAND on `ctx` the way `exec` says (see [`crate::dseq::d_seq`]
/// for the contract). Only the aggregating variant is a combining round:
/// [`DCandConfig::aggregate`] must be `true` (the no-aggregation ablation
/// runs in process only, through [`Miner::mine`]).
pub fn d_cand(
    ctx: &MiningContext<'_>,
    exec: Exec<'_>,
    config: DCandConfig,
) -> Result<Option<MiningResult>> {
    ctx.validate()?;
    if !config.aggregate {
        return Err(Error::Invalid(
            "D-CAND without aggregation is not a combining round \
             (the Fig. 10b no-agg ablation runs in process only)"
                .into(),
        ));
    }
    let (fst, dict, sigma, budget) = (ctx.fst()?, ctx.dict, ctx.sigma, ctx.limits.budget);
    let map = |part: &[Sequence], out: &mut Combiner| {
        let mut mapper = Mapper::new(fst, dict, sigma, budget, config.minimize);
        for seq in part {
            // The serialized NFA goes through the byte-payload path:
            // combined by content, interned per bucket chunk.
            mapper.map(seq, |p, bytes| out.emit(&[p], bytes, 1))?;
        }
        Ok(())
    };
    run_round(
        ctx,
        exec,
        ReduceUnit::KeyRuns,
        map,
        Nfa::default,
        |nfa, bucket, emit| {
            for (_, group) in bucket.groups() {
                expand_and_count(sigma, budget, nfa, group.payloads(), emit)?;
            }
            Ok(())
        },
    )
}

/// D-CAND's no-aggregation ablation (Fig. 10b, "tries, no agg") on the
/// combiner-less round: every NFA copy is shipped and expanded, with no
/// combining on either side.
fn d_cand_no_agg(ctx: &MiningContext<'_>, config: DCandConfig) -> Result<MiningResult> {
    ctx.validate()?;
    let (fst, dict, sigma, budget) = (ctx.fst()?, ctx.dict, ctx.sigma, ctx.limits.budget);
    map_reduce(
        ctx,
        |part: &[Sequence], emit: &mut dyn FnMut(ItemId, &[u8], u64)| {
            let mut mapper = Mapper::new(fst, dict, sigma, budget, config.minimize);
            for seq in part {
                mapper.map(seq, |p, bytes| emit(p, bytes, 1))?;
            }
            Ok(())
        },
        Nfa::default,
        |nfa, _pivot, inputs, emit| {
            expand_and_count(sigma, budget, nfa, inputs.iter().copied(), emit)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::reference::{self, TrieBuilder};
    use super::*;
    use crate::patterns;
    use desq_core::mining::Limits;
    use desq_core::{toy, SequenceDb};
    use desq_datagen::{nyt_like, NytConfig};

    type Payloads = Result<Vec<(ItemId, Vec<u8>)>>;

    /// The owned-`Vec` reference's payloads for `seq`.
    fn reference_payloads(mapper: &Mapper<'_>, seq: &Sequence) -> Payloads {
        let scratch = &mut RunScratch::default();
        reference::representations(&mapper.walker, seq, mapper.budget, mapper.minimize, scratch)
    }

    fn flat_payloads(mapper: &mut Mapper<'_>, seq: &Sequence) -> Payloads {
        let mut out = Vec::new();
        mapper.map(seq, |p, bytes| out.push((p, bytes.to_vec())))?;
        Ok(out)
    }

    /// N1–N3 compiled over `nyt_like(2000)`.
    fn nyt_2k() -> (Dictionary, SequenceDb, Vec<Fst>) {
        let (dict, db) = nyt_like(&NytConfig::new(2_000));
        let fsts = [patterns::n1(), patterns::n2(), patterns::n3()]
            .iter()
            .map(|c| c.compile(&dict).unwrap())
            .collect();
        (dict, db, fsts)
    }

    /// D-CAND at `sigma` through [`Miner::mine`], which routes the
    /// no-aggregation ablation to [`d_cand_no_agg`] and everything else to
    /// [`d_cand`] over [`InProcess`].
    fn mine(
        db: &SequenceDb,
        dict: &Dictionary,
        fst: &Fst,
        sigma: u64,
        config: DCandConfig,
        (workers, partitions): (usize, usize),
    ) -> Result<MiningResult> {
        let ctx = MiningContext::sequential(db, dict, sigma)
            .with_fst(fst)
            .with_parallelism(workers, partitions);
        config.mine(&ctx)
    }

    fn assert_matches_desq_count(
        db: &SequenceDb,
        dict: &Dictionary,
        fst: &Fst,
        sigma: u64,
        what: &str,
    ) {
        let reference = desq_miner::algo::DesqCount
            .mine(&MiningContext::sequential(db, dict, sigma).with_fst(fst))
            .unwrap()
            .patterns;
        for minimize in [false, true] {
            for aggregate in [false, true] {
                let cfg = DCandConfig {
                    minimize,
                    aggregate,
                };
                let res = mine(db, dict, fst, sigma, cfg, (2, 3)).unwrap();
                assert_eq!(
                    res.patterns, reference,
                    "{what} σ={sigma} min={minimize} agg={aggregate}"
                );
            }
        }
    }

    #[test]
    fn toy_matches_reference_across_configs() {
        let fx = toy::fixture();
        for sigma in 1..=4 {
            assert_matches_desq_count(&fx.db, &fx.dict, &fx.fst, sigma, "toy");
        }
        let (dict, db, fsts) = nyt_2k();
        for (fst, name) in fsts.iter().zip(["N1", "N2", "N3"]) {
            assert_matches_desq_count(&db, &dict, fst, 10, name);
        }
    }

    /// xorshift64 — enough randomness for path families, no dev-dependency.
    fn next(state: &mut u64, bound: u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state % bound
    }

    /// Random label-set path families (the shape of the `nfa_invariants`
    /// proptest), three keys interleaved in one reused builder: the flat
    /// bytes equal the owned reference's per-key tries, with and without
    /// minimization, whatever the insertion order.
    #[test]
    fn flat_bytes_equal_reference_on_random_path_families() {
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut tries = NfaBuilder::default();
        for round in 0..300 {
            let mut family: Vec<(ItemId, Vec<Vec<ItemId>>)> = Vec::new();
            for _ in 0..1 + next(&mut rng, 12) {
                let path = (0..1 + next(&mut rng, 4))
                    .map(|_| {
                        let mut set: Vec<ItemId> = (0..1 + next(&mut rng, 2))
                            .map(|_| 1 + next(&mut rng, 8) as ItemId)
                            .collect();
                        set.sort_unstable();
                        set.dedup();
                        set
                    })
                    .collect();
                family.push((1 + next(&mut rng, 3) as ItemId, path));
            }
            for minimize in [false, true] {
                let mut expect: Vec<(ItemId, Vec<u8>)> = Vec::new();
                for key in 1..=3 {
                    let mut trie = TrieBuilder::default();
                    let mut any = false;
                    for (_, path) in family.iter().filter(|(k, _)| *k == key) {
                        trie.insert(path);
                        any = true;
                    }
                    if any {
                        let nfa = if minimize {
                            trie.minimize()
                        } else {
                            trie.into_nfa()
                        };
                        expect.push((key, nfa.serialize()));
                    }
                }
                for reversed in [false, true] {
                    tries.clear();
                    let mut order: Vec<_> = family.iter().collect();
                    if reversed {
                        order.reverse();
                    }
                    for (key, path) in order {
                        tries.insert(*key, path.iter().map(Vec::as_slice));
                    }
                    let mut got = Vec::new();
                    tries.finish(minimize, |k, bytes| got.push((k, bytes.to_vec())));
                    assert_eq!(got, expect, "round {round} min={minimize} rev={reversed}");
                }
            }
        }
    }

    /// Every payload of every `nyt_like(2000)` sequence under N1–N3, σ ∈
    /// {1, 10}, with and without minimization — one mapper (one scratch)
    /// per configuration, reused across all sequences.
    #[test]
    fn flat_bytes_equal_reference_on_nyt_2k() {
        let (dict, db, fsts) = nyt_2k();
        let mut nfas = 0usize;
        for fst in &fsts {
            for sigma in [1, 10] {
                for minimize in [false, true] {
                    let mut mapper = Mapper::new(fst, &dict, sigma, usize::MAX, minimize);
                    for seq in &db.sequences {
                        let got = flat_payloads(&mut mapper, seq).unwrap();
                        let expect = reference_payloads(&mapper, seq).unwrap();
                        assert_eq!(got, expect, "σ={sigma} min={minimize} seq={seq:?}");
                        nfas += got.len();
                    }
                }
            }
        }
        assert!(nfas > 1_000, "only {nfas} NFAs compared");
    }

    /// The wire format of the paper's running example (toy fixture, σ = 2),
    /// as a literal: a change to both sides at once cannot slip through.
    #[test]
    fn toy_payloads_are_golden() {
        let fx = toy::fixture();
        let mut mapper = Mapper::new(&fx.fst, &fx.dict, 2, usize::MAX, true);
        let got: Vec<Vec<(ItemId, Vec<u8>)>> = fx
            .db
            .sequences
            .iter()
            .map(|seq| flat_payloads(&mut mapper, seq).unwrap())
            .collect();
        let t2 = vec![(4, vec![0, 1, 4, 4, 1, 1, 1, 1, 2, 2, 4, 6, 1, 1, 2])];
        let golden = vec![
            vec![
                (4, vec![0, 1, 4, 4, 1, 1, 1, 1, 1, 3, 6, 1, 1, 2]),
                (
                    5,
                    vec![
                        0, 1, 4, 0, 1, 3, 0, 1, 5, 4, 1, 1, 1, 1, 1, 5, 6, 1, 1, 4, 0, 1, 3, 6, 1,
                        1, 4, 2, 1, 5, 3, 3, 5, 1, 5, 3,
                    ],
                ),
            ],
            t2.clone(),
            vec![],
            vec![],
            t2,
        ];
        assert_eq!(got, golden);
    }

    /// Old and new charge the same work: at every budget from 0 up to k
    /// (the exact work of the sequence, the first budget that passes) both
    /// sides fail with the same message or pass with the same result — on
    /// the map side and on the reduce side.
    #[test]
    fn budgets_fail_and_pass_where_the_reference_does() {
        let fx = toy::fixture();
        let mut nfa = Nfa::default();
        for seq in &fx.db.sequences {
            let map_at = |budget: usize| {
                let mut mapper = Mapper::new(&fx.fst, &fx.dict, 2, budget, true);
                let flat = flat_payloads(&mut mapper, seq).map_err(|e| e.to_string());
                let owned = reference_payloads(&mapper, seq).map_err(|e| e.to_string());
                assert_eq!(flat, owned, "map budget {budget}");
                owned
            };
            assert!((0..200).any(|budget| map_at(budget).is_ok()));
            for (_, bytes) in map_at(usize::MAX).unwrap() {
                let owned = reference::Nfa::deserialize(&bytes).unwrap();
                nfa.decode(&bytes).unwrap();
                let mut reduce_at = |budget: usize| {
                    let mut flat = std::collections::BTreeSet::new();
                    let walked = nfa.for_each(budget, |c| {
                        flat.insert(c.to_vec());
                    });
                    let flat = walked.map(|()| flat).map_err(|e| e.to_string());
                    let owned = owned.expand(budget).map_err(|e| e.to_string());
                    assert_eq!(flat, owned, "reduce budget {budget}");
                    owned.is_ok()
                };
                assert!((0..200).any(&mut reduce_at));
            }
        }
    }

    #[test]
    fn minimization_never_grows_shuffle() {
        let fx = toy::fixture();
        let plain = DCandConfig {
            minimize: false,
            ..DCandConfig::default()
        };
        let plain = mine(&fx.db, &fx.dict, &fx.fst, 2, plain, (1, 1)).unwrap();
        let full = DCandConfig::default();
        let minimized = mine(&fx.db, &fx.dict, &fx.fst, 2, full, (1, 1)).unwrap();
        assert!(minimized.metrics.shuffle_bytes <= plain.metrics.shuffle_bytes);
    }

    #[test]
    fn budget_one_exhausts_on_matching_input() {
        let fx = toy::fixture();
        let ctx = MiningContext::sequential(&fx.db, &fx.dict, 2)
            .with_fst(&fx.fst)
            .with_limits(Limits::default().with_budget(1));
        for config in [
            DCandConfig::default(),
            DCandConfig {
                aggregate: false,
                ..DCandConfig::default()
            },
        ] {
            let err = config.mine(&ctx).unwrap_err();
            assert!(matches!(err, Error::ResourceExhausted(_)));
        }
    }

    #[test]
    fn the_no_agg_round_reports_one_reduce_task_per_bucket() {
        let fx = toy::fixture();
        let no_agg = DCandConfig {
            aggregate: false,
            ..DCandConfig::default()
        };
        let ctx = MiningContext::sequential(&fx.db, &fx.dict, 2)
            .with_fst(&fx.fst)
            .with_parallelism(2, 2)
            .with_reducers(3);
        let metrics = no_agg.mine(&ctx).unwrap().metrics;
        assert_eq!((metrics.tasks, metrics.reducer_bytes.len()), (3, 3));
    }

    #[test]
    fn zero_sigma_rejected() {
        let fx = toy::fixture();
        let full = DCandConfig::default();
        assert!(matches!(
            mine(&fx.db, &fx.dict, &fx.fst, 0, full, (1, 1)),
            Err(Error::Invalid(_))
        ));
    }
}
