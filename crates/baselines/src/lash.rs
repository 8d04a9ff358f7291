//! An MG-FSM/LASH-style distributed miner for gap/length/hierarchy
//! constraints.
//!
//! LASH (Beedkar & Gemulla, SIGMOD '15) mines sequences under maximum-gap
//! (γ), maximum-length (λ) and hierarchy constraints with item-based
//! partitioning and *specialized* rewrites that the general D-SEQ cannot
//! apply:
//!
//! * items that cannot produce any frequent output `<= p` for pivot `p` are
//!   replaced by *blanks*;
//! * maximal blank runs longer than γ split the sequence into parts — no
//!   match can bridge them;
//! * parts that cannot produce the pivot item are dropped entirely;
//! * surviving parts are re-joined with γ+1 blanks (so local mining cannot
//!   match across parts), and identical rewrites are aggregated by weight.
//!
//! The reduce phase runs the gap-constrained pattern-growth miner of
//! `desq-miner` restricted to pivot sequences. Blanks are encoded as
//! [`EPSILON`] and never match.

use desq_bsp::{Engine, InProcess};
use desq_core::mining::{Miner, MiningContext};
use desq_core::{Dictionary, ItemId, Result, Sequence, EPSILON};
use desq_dist::MiningResult;
use desq_miner::GapMiner;

/// The LASH baseline: Tab. III's `T3(σ, γ, λ)` constraint family, or
/// MG-FSM's `T2(σ, γ, λ)` with `generalize` off. Its fields are the γ, λ
/// and hierarchy switch of the Fig. 12 settings (Fig. 13 runs the MG-FSM
/// variant with γ beyond any sequence length); σ comes from the
/// [`MiningContext`].
#[derive(Debug, Clone, Copy)]
pub struct LashConfig {
    /// Maximum gap γ.
    pub gamma: usize,
    /// Maximum length λ.
    pub lambda: usize,
    /// Generalize along the hierarchy (LASH) or not (MG-FSM).
    pub generalize: bool,
}

impl LashConfig {
    /// The LASH setting `T3(σ, γ, λ)`.
    pub fn new(gamma: usize, lambda: usize) -> LashConfig {
        LashConfig {
            gamma,
            lambda,
            generalize: true,
        }
    }

    /// The MG-FSM setting `T2(σ, γ, λ)` (no hierarchy generalization).
    pub fn without_hierarchy(mut self) -> LashConfig {
        self.generalize = false;
        self
    }
}

/// Frequent output items of input item `t` for pivot `p`: ancestors (or the
/// item itself) that are frequent and `<= p`.
fn can_output(
    dict: &Dictionary,
    t: ItemId,
    p: ItemId,
    last_frequent: ItemId,
    generalize: bool,
) -> bool {
    if t == EPSILON {
        return false;
    }
    if generalize {
        dict.ancestors(t)
            .iter()
            .any(|&a| a <= p && a <= last_frequent)
    } else {
        t <= p && t <= last_frequent
    }
}

/// True iff `t` can produce the pivot item itself.
fn can_output_pivot(dict: &Dictionary, t: ItemId, p: ItemId, generalize: bool) -> bool {
    if generalize {
        dict.is_ancestor(p, t)
    } else {
        t == p
    }
}

/// The pivot items of `T`: frequent items (or ancestors) occurring in `T`.
fn pivot_items(
    dict: &Dictionary,
    seq: &[ItemId],
    last_frequent: ItemId,
    generalize: bool,
) -> Vec<ItemId> {
    let mut pivots: Vec<ItemId> = Vec::new();
    for &t in seq {
        if generalize {
            for &a in dict.ancestors(t) {
                if a <= last_frequent && !pivots.contains(&a) {
                    pivots.push(a);
                }
            }
        } else if t <= last_frequent && t != EPSILON && !pivots.contains(&t) {
            pivots.push(t);
        }
    }
    pivots.sort_unstable();
    pivots
}

/// The LASH rewrite ω_p(T): blanking, splitting, part filtering, re-joining.
/// Returns `None` if nothing relevant for pivot `p` survives.
fn rewrite(
    dict: &Dictionary,
    seq: &[ItemId],
    p: ItemId,
    last_frequent: ItemId,
    config: &LashConfig,
) -> Option<Sequence> {
    // Blank irrelevant items.
    let blanked: Vec<ItemId> = seq
        .iter()
        .map(|&t| {
            if can_output(dict, t, p, last_frequent, config.generalize) {
                t
            } else {
                EPSILON
            }
        })
        .collect();
    // Split into parts at blank runs longer than γ; keep parts that can
    // produce the pivot and at least the gap miner's two items.
    let mut parts: Vec<Vec<ItemId>> = Vec::new();
    let mut current: Vec<ItemId> = Vec::new();
    let mut blanks = 0usize;
    let mut flush = |current: &mut Vec<ItemId>| {
        // Trim trailing blanks.
        while current.last() == Some(&EPSILON) {
            current.pop();
        }
        if current.len() >= 2
            && current
                .iter()
                .any(|&t| t != EPSILON && can_output_pivot(dict, t, p, config.generalize))
        {
            parts.push(std::mem::take(current));
        } else {
            current.clear();
        }
    };
    for &t in &blanked {
        if t == EPSILON {
            blanks += 1;
            if blanks > config.gamma {
                flush(&mut current);
            } else if !current.is_empty() {
                current.push(EPSILON);
            }
        } else {
            blanks = 0;
            current.push(t);
        }
    }
    flush(&mut current);
    if parts.is_empty() {
        return None;
    }
    // Join with γ+1 blanks: local mining cannot match across parts. (A
    // second part needs a blank run longer than γ, so the separators fit
    // in the sequence whenever there are any; at γ = usize::MAX there is
    // one part.)
    let sep = config.gamma.saturating_add(1);
    let total: usize = parts.iter().map(Vec::len).sum::<usize>() + sep * (parts.len() - 1);
    let mut out = Vec::with_capacity(total);
    for (i, part) in parts.iter().enumerate() {
        if i > 0 {
            out.extend(std::iter::repeat_n(EPSILON, sep));
        }
        out.extend_from_slice(part);
    }
    Some(out)
}

impl Miner for LashConfig {
    fn name(&self) -> &'static str {
        if self.generalize {
            "LASH"
        } else {
            "MG-FSM"
        }
    }

    fn mine(&self, ctx: &MiningContext<'_>) -> Result<MiningResult> {
        ctx.validate()?;
        lash_impl(ctx, *self)
    }
}

/// One BSP round on `ctx`'s engine: LASH rewrites per pivot on the map
/// side, the pivot-restricted gap miner per partition on the reduce side.
fn lash_impl(ctx: &MiningContext<'_>, config: LashConfig) -> Result<MiningResult> {
    let (dict, sigma) = (ctx.dict, ctx.sigma);
    let t0 = std::time::Instant::now();
    let last_frequent = dict.last_frequent(sigma);

    let map = |part: &[Sequence], out: &mut desq_bsp::Combiner<ItemId>| {
        // Per-task encode buffer: each rewrite serializes once via the
        // delta item codec; identical rewrites combine by content.
        let mut payload: Vec<u8> = Vec::new();
        for seq in part {
            for p in pivot_items(dict, seq, last_frequent, config.generalize) {
                if let Some(r) = rewrite(dict, seq, p, last_frequent, &config) {
                    payload.clear();
                    desq_bsp::encode_item_seq(&r, &mut payload);
                    out.emit(&p, &payload, 1);
                }
            }
        }
        Ok(())
    };

    let reduce = |(): &mut (),
                  &p: &ItemId,
                  inputs: &[(&[u8], u64)],
                  emit: &mut dyn FnMut((Sequence, u64))|
     -> Result<()> {
        let miner = GapMiner {
            pivot: Some(p),
            ..GapMiner::new(config.gamma, config.lambda, config.generalize)
        };
        let mut decoded: Vec<(Sequence, u64)> = Vec::with_capacity(inputs.len());
        for &(bytes, w) in inputs {
            let mut slice = bytes;
            let mut seq = Sequence::new();
            desq_bsp::decode_item_seq(&mut slice, &mut seq)?;
            decoded.push((seq, w));
        }
        for (pattern, freq) in miner.mine_weighted(&decoded, dict, sigma, ctx.cancel)? {
            emit((pattern, freq));
        }
        Ok(())
    };

    let (engine, parts) = Engine::for_context(ctx);
    let round = engine.map_combine_reduce_via(&InProcess, &parts, map, || (), reduce)?;
    Ok(desq_dist::job_result(round, t0, &engine, &parts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use desq_core::toy;

    /// The toy fixture at `sigma` on two workers and `parts` partitions.
    fn toy_ctx(fx: &toy::Toy, sigma: u64, parts: usize) -> MiningContext<'_> {
        MiningContext::sequential(&fx.db, &fx.dict, sigma).with_parallelism(2, parts)
    }

    /// Brute-force FST-based reference through the Miner trait.
    fn reference(fx: &toy::Toy, fst: &desq_core::Fst, sigma: u64) -> Vec<(Sequence, u64)> {
        desq_miner::algo::DesqCount
            .mine(&MiningContext::sequential(&fx.db, &fx.dict, sigma).with_fst(fst))
            .unwrap()
            .patterns
    }

    #[test]
    fn lash_matches_gapminer_and_desq_t3_on_toy() {
        let fx = toy::fixture();
        for sigma in 1..=3u64 {
            let ctx = toy_ctx(&fx, sigma, 2);
            for gamma in 0..=2usize {
                for lambda in 2..=4usize {
                    let dist = LashConfig::new(gamma, lambda).mine(&ctx).unwrap();
                    let seq_miner = GapMiner::new(gamma, lambda, true).mine(&ctx).unwrap();
                    assert_eq!(
                        dist.patterns, seq_miner.patterns,
                        "vs GapMiner σ={sigma} γ={gamma} λ={lambda}"
                    );
                    // And against the general FST-based reference.
                    let c = desq_dist::patterns::t3(gamma, lambda);
                    let fst = c.compile(&fx.dict).unwrap();
                    let reference = reference(&fx, &fst, sigma);
                    assert_eq!(dist.patterns, reference, "vs DESQ {} σ={sigma}", c.name);
                }
            }
        }
    }

    #[test]
    fn mgfsm_variant_matches_desq_t2_on_toy() {
        let fx = toy::fixture();
        for sigma in 1..=2u64 {
            for gamma in 0..=1usize {
                let cfg = LashConfig::new(gamma, 3).without_hierarchy();
                let dist = cfg.mine(&toy_ctx(&fx, sigma, 3)).unwrap();
                let c = desq_dist::patterns::t2(gamma, 3);
                let fst = c.compile(&fx.dict).unwrap();
                let reference = reference(&fx, &fst, sigma);
                assert_eq!(dist.patterns, reference, "{} σ={sigma}", c.name);
            }
        }
    }

    #[test]
    fn rewrite_blanks_and_splits() {
        let fx = toy::fixture();
        let lf = fx.dict.last_frequent(2);
        // T2 = e e a1 e a1 e b, pivot a1, γ = 1: e is infrequent → blanks.
        // e e | a1 _ a1 | _ | b → the run "a1 _ a1" survives (contains a1,
        // len ≥ 2); after the single-blank gap "b" continues the part
        // (gap 1 ≤ γ): "a1 _ a1 _ b".
        let cfg = LashConfig::new(1, 5);
        let t2 = &fx.db.sequences[1];
        let r = rewrite(&fx.dict, t2, fx.a1, lf, &cfg).unwrap();
        assert_eq!(r, vec![fx.a1, EPSILON, fx.a1, EPSILON, fx.b]);
        // With γ = 0 the blanks split everything; singleton parts die.
        let cfg0 = LashConfig::new(0, 5);
        let r0 = rewrite(&fx.dict, t2, fx.a1, lf, &cfg0);
        assert!(r0.is_none(), "{r0:?}");
    }

    #[test]
    fn rewrite_shrinks_shuffle_versus_full_sequences() {
        let fx = toy::fixture();
        let res = LashConfig::new(1, 5).mine(&toy_ctx(&fx, 2, 2)).unwrap();
        // Rough sanity: rewritten representations for the toy db are small.
        assert!(res.metrics.shuffle_bytes < 200);
    }

    #[test]
    fn irrelevant_pivots_not_sent() {
        let fx = toy::fixture();
        let lf = fx.dict.last_frequent(2);
        // T3 = c d c b has no descendant of A: pivot A gets nothing.
        let t3 = &fx.db.sequences[2];
        let cfg = LashConfig::new(1, 5);
        assert!(rewrite(&fx.dict, t3, fx.big_a, lf, &cfg).is_none());
    }
}
