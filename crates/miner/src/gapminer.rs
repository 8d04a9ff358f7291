//! Gap-constrained pattern growth with optional hierarchy generalization —
//! the local miner of MG-FSM and LASH.
//!
//! Mines sequences `S = s1...sk` with `2 <= k <= max_len` such that
//! there are positions `i1 < ... < ik` in the input with
//! `i_{j+1} - i_j - 1 <= gamma` (at most γ uncaptured items between
//! consecutive matches) and `t_{i_j}` generalizes to `s_j` (with
//! `generalize = false`, items must match exactly). These are exactly the
//! candidate sets of the paper's traditional constraints
//! `T2(σ, γ, λ) = (.)[.{0,γ}(.)]{1,λ-1}` (no hierarchy) and
//! `T3(σ, γ, λ) = (.^)[.{0,γ}(.^)]{1,λ-1}` (hierarchy), which is asserted by
//! cross-validation tests against the FST-based miners.
//!
//! Like [`crate::LocalMiner`], the miner supports pivot restrictions so it
//! can serve as the reduce phase of the LASH-style distributed baseline.

use std::time::Instant;

use desq_core::fx::FxHashMap;
use desq_core::mining::{CancelToken, Miner, MiningContext, MiningResult};
use desq_core::{Dictionary, ItemId, Result, Sequence};

/// Gap-constrained pattern growth: Tab. III's `T2(σ, γ, λ)` (no hierarchy)
/// and `T3(σ, γ, λ)` (hierarchy) without an FST, and the local miner of the
/// LASH baseline. `gamma`, `max_len` and `generalize` are the γ, λ and
/// hierarchy switch Fig. 12 varies (γ = `usize::MAX` means no gap limit);
/// `pivot` restricts the miner to one LASH partition. Patterns have at
/// least two items, as in every paper setting. σ comes from the
/// [`MiningContext`].
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
}

/// Shortest pattern a [`GapMiner`] emits: T2/T3's `[.{0,γ}(.)]{1,λ-1}`
/// repeats at least once after the first item.
const MIN_LEN: usize = 2;

impl GapMiner {
    /// The paper's T2/T3 parameterization (no pivot).
    pub fn new(gamma: usize, max_len: usize, generalize: bool) -> GapMiner {
        GapMiner {
            gamma,
            max_len,
            generalize,
            pivot: None,
        }
    }

    /// Mines a weighted collection at threshold `sigma`; returns
    /// `(pattern, frequency)` sorted lexicographically. `cancel`, when
    /// given, is polled once per frequent pattern, so a tripped token ends
    /// the run with its stop reason.
    pub fn mine_weighted(
        &self,
        inputs: &[(Sequence, u64)],
        dict: &Dictionary,
        sigma: u64,
        cancel: Option<&CancelToken>,
    ) -> Result<Vec<(Sequence, u64)>> {
        let mut out = Vec::new();
        if self.max_len < MIN_LEN || sigma == 0 {
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
        inputs: &[(Sequence, u64)],
        dict: &Dictionary,
        sigma: u64,
        last_frequent: ItemId,
        children: FxHashMap<ItemId, Vec<(u32, u32)>>,
        prefix: &mut Sequence,
        emit: &mut dyn FnMut(&Sequence, u64) -> Result<()>,
    ) -> Result<()> {
        let mut items: Vec<ItemId> = children.keys().copied().collect();
        items.sort_unstable();
        for w in items {
            let mut entries = children[&w].clone();
            entries.sort_unstable();
            entries.dedup();
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
            if prefix.len() >= MIN_LEN {
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
        let inputs: Vec<(Sequence, u64)> =
            ctx.db.sequences.iter().map(|s| (s.clone(), 1)).collect();
        let patterns = self.mine_weighted(&inputs, ctx.dict, ctx.sigma, ctx.cancel)?;
        Ok(crate::sequential_result(ctx, t0, patterns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desq_core::{toy, SequenceDb};

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
        assert!(out.iter().all(|s| (MIN_LEN..=3).contains(&s.len())));
        for len in MIN_LEN..=3 {
            assert!(
                out.iter().any(|s| s.len() == len),
                "no pattern of length {len}"
            );
        }
        // λ below the minimum length leaves nothing to mine.
        assert!(mine(GapMiner::new(4, MIN_LEN - 1, false), &db, &fx.dict, 1).is_empty());
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
}
