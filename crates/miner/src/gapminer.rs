//! Gap-constrained pattern growth with optional hierarchy generalization —
//! the local miner of MG-FSM, LASH and the MLlib-style PrefixSpan.
//!
//! Mines sequences `S = s1...sk` with `min_len <= k <= max_len` such that
//! there are positions `i1 < ... < ik` in the input with
//! `i_{j+1} - i_j - 1 <= gamma` (at most γ uncaptured items between
//! consecutive matches) and `t_{i_j}` generalizes to `s_j` (with
//! `generalize = false`, items must match exactly). These are exactly the
//! candidate sets of the paper's traditional constraints, one family with
//! γ, λ and the hierarchy as parameters:
//! `T1(σ, λ) = (.)[.*(.)]{,λ-1}` (γ = ∞, no hierarchy, `min_len` 1 —
//! classic PrefixSpan's semantics, built by [`GapMiner::t1`]),
//! `T2(σ, γ, λ) = (.)[.{0,γ}(.)]{1,λ-1}` (no hierarchy) and
//! `T3(σ, γ, λ) = (.^)[.{0,γ}(.^)]{1,λ-1}` (hierarchy), which is asserted by
//! cross-validation tests against the FST-based miners.
//!
//! Like [`crate::LocalMiner`]'s bucket mining, the miner supports a pivot
//! restriction so it can serve as the reduce phase of the LASH-style
//! distributed baseline.

use std::time::Instant;

use desq_core::fx::FxHashMap;
use desq_core::mining::{CancelToken, Miner, MiningContext, MiningMetrics, MiningResult};
use desq_core::{Dictionary, ItemId, Result, Sequence};

use crate::WeightedInput;

/// Gap-constrained pattern growth: Tab. III's `T1(σ, λ)` ([`GapMiner::t1`]),
/// `T2(σ, γ, λ)` (no hierarchy) and `T3(σ, γ, λ)` (hierarchy) without an
/// FST, and the local miner of the LASH and MLlib baselines. `gamma`,
/// `max_len` and `generalize` are the γ, λ and hierarchy switch Fig. 12
/// varies (γ = `usize::MAX` means no gap limit); `pivot` restricts the
/// miner to one LASH partition. σ comes from the [`MiningContext`].
#[derive(Debug, Clone, Copy)]
pub struct GapMiner {
    /// Maximum gap γ between consecutive matched positions.
    pub gamma: usize,
    /// Maximum pattern length λ.
    pub max_len: usize,
    /// Generalize matched items along the hierarchy (LASH) or not (MG-FSM).
    pub generalize: bool,
    /// Partition-local mining for pivot item `k` (a LASH partition):
    /// expansions never use items greater than `k`, and only sequences
    /// containing `k` are emitted. `None` mines unrestricted.
    pub pivot: Option<ItemId>,
    /// Shortest pattern emitted: 2 for T2/T3, whose `[.{0,γ}(.)]{1,λ-1}`
    /// repeats at least once after the first item, 1 for T1.
    min_len: usize,
}

impl GapMiner {
    /// The paper's T2/T3 parameterization (no pivot).
    pub fn new(gamma: usize, max_len: usize, generalize: bool) -> GapMiner {
        GapMiner {
            gamma,
            max_len,
            generalize,
            pivot: None,
            min_len: 2,
        }
    }

    /// The paper's `T1(σ, λ)`: every subsequence of length `1..=max_len`,
    /// arbitrary gaps, no hierarchy — what Spark MLlib's PrefixSpan mines.
    pub fn t1(max_len: usize) -> GapMiner {
        GapMiner {
            min_len: 1,
            ..GapMiner::new(usize::MAX, max_len, false)
        }
    }

    /// Mines a weighted collection, borrowed from its owner (the database,
    /// or a reducer's decoded key group), at threshold `sigma`; returns
    /// `(pattern, frequency)` sorted lexicographically. Weights scale
    /// support counts; `dict`'s document frequencies, which cut the
    /// infrequent items, must bound the weighted supports (they count the
    /// database the weighted inputs summarize). `cancel`, when given, is
    /// polled once per frequent pattern, so a tripped token ends the run
    /// with its stop reason.
    pub fn mine_weighted(
        &self,
        inputs: &[WeightedInput<'_>],
        dict: &Dictionary,
        sigma: u64,
        cancel: Option<&CancelToken>,
    ) -> Result<Vec<(Sequence, u64)>> {
        let mut out = Vec::new();
        if self.max_len < self.min_len || sigma == 0 {
            return Ok(out);
        }
        let last_frequent = dict.last_frequent(sigma);
        // Root: match the first pattern item at any position.
        let mut children: FxHashMap<ItemId, Vec<(u32, u32)>> = FxHashMap::default();
        for (s, (seq, _)) in inputs.iter().enumerate() {
            for (p, &t) in seq.iter().enumerate() {
                self.outputs(t, dict, last_frequent, |w| {
                    children.entry(w).or_default().push((s as u32, p as u32));
                });
            }
        }
        let mut prefix = Vec::new();
        let mut emit = |pattern: &Sequence, freq| {
            cancel.map_or(Ok(()), CancelToken::checkpoint)?;
            out.push((pattern.clone(), freq));
            Ok(())
        };
        self.grow(
            inputs,
            dict,
            sigma,
            last_frequent,
            children,
            &mut prefix,
            &mut emit,
        )?;
        out.sort();
        Ok(out)
    }

    /// Emits the (filtered) output items for input item `t`.
    fn outputs(
        &self,
        t: ItemId,
        dict: &Dictionary,
        last_frequent: ItemId,
        mut f: impl FnMut(ItemId),
    ) {
        if t == desq_core::EPSILON {
            // ε doubles as the blank symbol in LASH-style rewrites: it
            // occupies a position (counts toward gaps) but never matches.
            return;
        }
        let max_item = self.pivot.unwrap_or(ItemId::MAX);
        if self.generalize {
            for &a in dict.ancestors(t) {
                if a <= last_frequent && a <= max_item {
                    f(a);
                }
            }
        } else if t <= last_frequent && t <= max_item {
            f(t);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn grow(
        &self,
        inputs: &[WeightedInput<'_>],
        dict: &Dictionary,
        sigma: u64,
        last_frequent: ItemId,
        children: FxHashMap<ItemId, Vec<(u32, u32)>>,
        prefix: &mut Sequence,
        emit: &mut dyn FnMut(&Sequence, u64) -> Result<()>,
    ) -> Result<()> {
        let mut children: Vec<_> = children.into_iter().collect();
        children.sort_unstable_by_key(|&(w, _)| w);
        for (w, mut entries) in children {
            entries.sort_unstable();
            if self.gamma == usize::MAX {
                // Unbounded gaps: a sequence's earliest end position has
                // the window that covers every later one's.
                entries.dedup_by_key(|&mut (s, _)| s);
            } else {
                entries.dedup();
            }
            // Weighted support: distinct sequences present in the projection.
            let mut support = 0u64;
            let mut last = u32::MAX;
            for &(s, _) in &entries {
                if s != last {
                    support += inputs[s as usize].1;
                    last = s;
                }
            }
            if support < sigma {
                continue;
            }
            prefix.push(w);
            if prefix.len() >= self.min_len {
                let pivot_ok = match self.pivot {
                    Some(k) => prefix.contains(&k),
                    None => true,
                };
                if pivot_ok {
                    emit(prefix, support)?;
                }
            }
            if prefix.len() < self.max_len {
                // Next matches within gap γ of the previous position.
                let mut next: FxHashMap<ItemId, Vec<(u32, u32)>> = FxHashMap::default();
                for &(s, p) in &entries {
                    // The γ + 1 positions after `p` (saturating: γ =
                    // `usize::MAX` is no limit).
                    let window = inputs[s as usize]
                        .0
                        .iter()
                        .enumerate()
                        .skip(p as usize + 1)
                        .take(self.gamma.saturating_add(1));
                    for (q, &t) in window {
                        self.outputs(t, dict, last_frequent, |v| {
                            next.entry(v).or_default().push((s, q as u32));
                        });
                    }
                }
                self.grow(inputs, dict, sigma, last_frequent, next, prefix, emit)?;
            }
            prefix.pop();
        }
        Ok(())
    }
}

impl Miner for GapMiner {
    fn name(&self) -> &'static str {
        "GapMiner"
    }

    fn mine(&self, ctx: &MiningContext<'_>) -> Result<MiningResult> {
        ctx.validate()?;
        let t0 = Instant::now();
        let inputs: Vec<WeightedInput<'_>> =
            ctx.db.sequences.iter().map(|s| (s.as_slice(), 1)).collect();
        let patterns = self.mine_weighted(&inputs, ctx.dict, ctx.sigma, ctx.cancel)?;
        let (n, nanos) = (patterns.len() as u64, t0.elapsed().as_nanos() as u64);
        let metrics = MiningMetrics::sequential(nanos, ctx.db.len() as u64, n, n);
        Ok(MiningResult { patterns, metrics })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desq_core::{toy, DictionaryBuilder, SequenceDb};

    /// `miner` at threshold `sigma` over `db`, rendered in fid order.
    fn mine(miner: GapMiner, db: &SequenceDb, dict: &Dictionary, sigma: u64) -> Vec<Sequence> {
        let ctx = MiningContext::sequential(db, dict, sigma);
        let patterns = miner.mine(&ctx).unwrap().patterns;
        patterns.into_iter().map(|(s, _)| s).collect()
    }

    fn render(fx: &toy::Toy, out: &[Sequence]) -> Vec<String> {
        out.iter().map(|s| fx.dict.render(s)).collect()
    }

    #[test]
    fn gap_constraint_enforced() {
        let fx = toy::fixture();
        // T1 = a1 c d c b: with γ = 0 only adjacent pairs match.
        let db = SequenceDb::new(vec![fx.db.sequences[0].clone()]);
        let out = mine(GapMiner::new(0, 2, false), &db, &fx.dict, 1);
        assert_eq!(render(&fx, &out), vec!["d c", "a1 c", "c b", "c d"]); // fid order
    }

    #[test]
    fn larger_gap_allows_skips() {
        let fx = toy::fixture();
        let db = SequenceDb::new(vec![fx.db.sequences[0].clone()]); // a1 c d c b
        let rendered = render(&fx, &mine(GapMiner::new(1, 2, false), &db, &fx.dict, 1));
        // pairs with gap <= 1
        assert!(rendered.contains(&"a1 d".to_string()));
        assert!(rendered.contains(&"d b".to_string()));
        assert!(!rendered.contains(&"a1 b".to_string()), "gap 3 > 1");
    }

    #[test]
    fn hierarchy_generalization() {
        let fx = toy::fixture();
        // T5 = a1 a1 b, generalize: a1 → {a1, A}.
        let db = SequenceDb::new(vec![fx.db.sequences[4].clone()]);
        let rendered = render(&fx, &mine(GapMiner::new(0, 2, true), &db, &fx.dict, 1));
        for want in ["a1 a1", "a1 A", "A a1", "A A", "a1 b", "A b"] {
            assert!(
                rendered.contains(&want.to_string()),
                "missing {want}: {rendered:?}"
            );
        }
    }

    #[test]
    fn max_len_and_min_len() {
        let fx = toy::fixture();
        let db = SequenceDb::new(vec![fx.db.sequences[0].clone()]);
        let out = mine(GapMiner::new(4, 3, false), &db, &fx.dict, 1);
        assert!(out.iter().all(|s| (2..=3).contains(&s.len())));
        for len in 2..=3 {
            assert!(
                out.iter().any(|s| s.len() == len),
                "no pattern of length {len}"
            );
        }
        // λ below the minimum length leaves nothing to mine.
        assert!(mine(GapMiner::new(4, 1, false), &db, &fx.dict, 1).is_empty());
    }

    #[test]
    fn pivot_restriction() {
        let fx = toy::fixture();
        let m = GapMiner {
            pivot: Some(fx.d),
            ..GapMiner::new(1, 2, false)
        };
        let out = mine(m, &fx.db, &fx.dict, 1);
        // every output contains d and nothing larger
        for s in &out {
            assert!(s.contains(&fx.d));
            assert!(s.iter().all(|&w| w <= fx.d));
        }
        assert!(!out.is_empty());
    }

    #[test]
    fn infrequent_items_never_expanded() {
        let fx = toy::fixture();
        // σ = 2: e (fid 6) and a2 (fid 7) are infrequent.
        let out = mine(GapMiner::new(2, 3, true), &fx.db, &fx.dict, 2);
        for s in &out {
            assert!(s.iter().all(|&w| w <= 5), "{s:?}");
        }
    }

    /// `T1(σ, λ)` over weighted sequences of space-separated item names,
    /// with a flat dictionary frozen from the database they summarize
    /// (each sequence repeated by its weight); rendered patterns with their
    /// supports, sorted by name.
    fn t1(seqs: &[(&str, u64)], sigma: u64, max_len: usize) -> Vec<(String, u64)> {
        let mut b = DictionaryBuilder::new();
        for (seq, _) in seqs {
            for name in seq.split_whitespace() {
                b.item(name);
            }
        }
        let ids = |seq: &str, id_of: &dyn Fn(&str) -> Option<ItemId>| -> Sequence {
            seq.split_whitespace()
                .map(|name| id_of(name).unwrap())
                .collect()
        };
        let expanded: Vec<Sequence> = seqs
            .iter()
            .flat_map(|&(seq, w)| vec![ids(seq, &|n| b.id_of(n)); w as usize])
            .collect();
        let (dict, _) = b.freeze(&SequenceDb::new(expanded)).unwrap();
        let weighted: Vec<(Sequence, u64)> = seqs
            .iter()
            .map(|&(seq, w)| (ids(seq, &|n| dict.id_of(n)), w))
            .collect();
        let inputs: Vec<WeightedInput<'_>> = weighted.iter().map(|(s, w)| (&s[..], *w)).collect();
        let out = GapMiner::t1(max_len)
            .mine_weighted(&inputs, &dict, sigma, None)
            .unwrap();
        let mut rendered: Vec<(String, u64)> =
            out.iter().map(|(s, f)| (dict.render(s), *f)).collect();
        rendered.sort();
        rendered
    }

    fn owned(patterns: &[(&str, u64)]) -> Vec<(String, u64)> {
        patterns.iter().map(|&(s, f)| (s.to_string(), f)).collect()
    }

    #[test]
    fn t1_mines_all_subsequences_up_to_max_len() {
        let out = t1(&[("a b c", 1), ("a c", 1), ("b c", 1)], 2, 2);
        let expect = [("a", 2), ("a c", 2), ("b", 2), ("b c", 2), ("c", 3)];
        assert_eq!(out, owned(&expect));
    }

    #[test]
    fn t1_max_len_limits_depth() {
        let db = [("a b c", 1), ("a b c", 1)];
        assert!(t1(&db, 2, 1).iter().all(|(s, _)| !s.contains(' ')));
        assert!(t1(&db, 2, 3).contains(&("a b c".to_string(), 2)));
    }

    #[test]
    fn t1_gaps_are_arbitrary() {
        let out = t1(&[("a x x x b", 1), ("a b", 1)], 2, 2);
        assert!(out.contains(&("a b".to_string(), 2)), "{out:?}");
    }

    #[test]
    fn t1_counts_repeated_items_once_per_sequence() {
        assert_eq!(t1(&[("e e e", 1), ("e", 1)], 2, 1), owned(&[("e", 2)]));
        // The earliest end position stands for its sequence at every depth.
        let out = t1(&[("a a b a b", 1), ("b a", 1)], 1, 3);
        assert!(out.contains(&("a a b".to_string(), 1)), "{out:?}");
        assert!(out.contains(&("b a".to_string(), 2)), "{out:?}");
        assert!(out.contains(&("a b".to_string(), 1)), "{out:?}");
    }

    #[test]
    fn t1_weights_scale_support() {
        assert_eq!(t1(&[("a b", 3), ("a", 2)], 5, 2), owned(&[("a", 5)]));
    }

    #[test]
    fn t1_empty_inputs() {
        assert!(t1(&[], 1, 3).is_empty());
        assert!(t1(&[("a", 1)], 1, 0).is_empty());
    }
}
