//! PrefixSpan (Pei et al., ICDE '01) with a maximum-length constraint.
//!
//! Mines *all* subsequences (arbitrary gaps, no hierarchy) of length
//! `1..=max_len` — the semantics of the paper's constraint
//! `T1(σ, λ) = (.)[.*(.)]{,λ-1}` and of Spark MLlib's PrefixSpan. Uses
//! pseudo-projection: a projected database is a list of
//! `(sequence, suffix start)` pairs; support counting uses the first
//! occurrence of each item in each suffix.

use std::time::Instant;

use desq_core::fx::{FxHashMap, FxHashSet};
use desq_core::mining::{CancelToken, Miner, MiningContext, MiningResult};
use desq_core::{ItemId, Result, Sequence};

/// Classic PrefixSpan: all subsequences of length ≤ `max_len`, arbitrary
/// gaps, no hierarchy — Tab. III's `T1(σ, λ)` without an FST, and the local
/// miner of the MLlib-style baseline. `max_len` is the λ Fig. 13 fixes at 5;
/// σ comes from the [`MiningContext`].
#[derive(Debug, Clone, Copy)]
pub struct PrefixSpan {
    /// Maximum pattern length λ.
    pub max_len: usize,
}

impl PrefixSpan {
    /// Mines a weighted collection (weights scale support counts) at
    /// threshold `sigma`; returns `(pattern, frequency)` sorted
    /// lexicographically. `cancel`, when given, is polled once per frequent
    /// pattern, so a tripped token ends the run with its stop reason.
    pub fn mine_weighted(
        &self,
        inputs: &[(Sequence, u64)],
        sigma: u64,
        cancel: Option<&CancelToken>,
    ) -> Result<Vec<(Sequence, u64)>> {
        let mut out = Vec::new();
        if self.max_len == 0 || sigma == 0 {
            return Ok(out);
        }
        // Root projection: every sequence from position 0.
        let proj: Vec<(u32, u32)> = (0..inputs.len()).map(|i| (i as u32, 0)).collect();
        let mut prefix = Vec::new();
        self.expand(inputs, sigma, &proj, &mut prefix, &mut |pattern, freq| {
            cancel.map_or(Ok(()), CancelToken::checkpoint)?;
            out.push((pattern.clone(), freq));
            Ok(())
        })?;
        out.sort();
        Ok(out)
    }

    fn expand(
        &self,
        inputs: &[(Sequence, u64)],
        sigma: u64,
        proj: &[(u32, u32)],
        prefix: &mut Sequence,
        emit: &mut dyn FnMut(&Sequence, u64) -> Result<()>,
    ) -> Result<()> {
        // For each item: weighted support and the projected entries
        // (first occurrence per sequence suffices for both).
        let mut support: FxHashMap<ItemId, u64> = FxHashMap::default();
        let mut children: FxHashMap<ItemId, Vec<(u32, u32)>> = FxHashMap::default();
        let mut seen: FxHashSet<ItemId> = FxHashSet::default();
        for &(s, start) in proj {
            let (seq, w) = &inputs[s as usize];
            seen.clear();
            for (ofs, &t) in seq[start as usize..].iter().enumerate() {
                if seen.insert(t) {
                    *support.entry(t).or_insert(0) += w;
                    children
                        .entry(t)
                        .or_default()
                        .push((s, start + ofs as u32 + 1));
                }
            }
        }

        let mut items: Vec<ItemId> = support
            .iter()
            .filter(|&(_, &f)| f >= sigma)
            .map(|(&w, _)| w)
            .collect();
        items.sort_unstable();
        for w in items {
            prefix.push(w);
            emit(prefix, support[&w])?;
            if prefix.len() < self.max_len {
                let child = &children[&w];
                self.expand(inputs, sigma, child, prefix, emit)?;
            }
            prefix.pop();
        }
        Ok(())
    }
}

impl Miner for PrefixSpan {
    fn name(&self) -> &'static str {
        "PrefixSpan"
    }

    fn mine(&self, ctx: &MiningContext<'_>) -> Result<MiningResult> {
        ctx.validate()?;
        let t0 = Instant::now();
        let inputs: Vec<(Sequence, u64)> =
            ctx.db.sequences.iter().map(|s| (s.clone(), 1)).collect();
        let patterns = self.mine_weighted(&inputs, ctx.sigma, ctx.cancel)?;
        Ok(crate::sequential_result(ctx, t0, patterns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// PrefixSpan at threshold `sigma` over unit-weight sequences.
    fn mine(seqs: &[&[ItemId]], sigma: u64, max_len: usize) -> Vec<(Sequence, u64)> {
        let inputs: Vec<(Sequence, u64)> = seqs.iter().map(|s| (s.to_vec(), 1)).collect();
        PrefixSpan { max_len }
            .mine_weighted(&inputs, sigma, None)
            .unwrap()
    }

    #[test]
    fn mines_all_subsequences_up_to_max_len() {
        // D = { [1,2,3], [1,3], [2,3] }
        let out = mine(&[&[1, 2, 3], &[1, 3], &[2, 3]], 2, 2);
        assert_eq!(
            out,
            vec![
                (vec![1], 2),
                (vec![1, 3], 2),
                (vec![2], 2),
                (vec![2, 3], 2),
                (vec![3], 3),
            ]
        );
    }

    #[test]
    fn max_len_limits_depth() {
        let db: [&[ItemId]; 2] = [&[1, 2, 3], &[1, 2, 3]];
        let out1 = mine(&db, 2, 1);
        assert!(out1.iter().all(|(s, _)| s.len() == 1));
        let out3 = mine(&db, 2, 3);
        assert!(out3.contains(&(vec![1, 2, 3], 2)));
    }

    #[test]
    fn gaps_are_arbitrary() {
        let out = mine(&[&[1, 9, 9, 9, 2], &[1, 2]], 2, 2);
        assert!(out.contains(&(vec![1, 2], 2)));
    }

    #[test]
    fn repeated_items_counted_once_per_sequence() {
        let out = mine(&[&[5, 5, 5], &[5]], 2, 1);
        assert_eq!(out, vec![(vec![5], 2)]);
    }

    #[test]
    fn weights_scale_support() {
        let inputs = vec![(vec![1, 2], 3u64), (vec![1], 2)];
        let out = PrefixSpan { max_len: 2 }
            .mine_weighted(&inputs, 5, None)
            .unwrap();
        assert_eq!(out, vec![(vec![1], 5)]);
    }

    #[test]
    fn empty_inputs() {
        assert!(mine(&[], 1, 3).is_empty());
        assert!(mine(&[&[1]], 1, 0).is_empty());
    }
}
