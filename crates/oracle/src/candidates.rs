//! Candidate subsequence generation: `G_π(T)` and `G^σ_π(T)` (Sec. II–III).
//!
//! Each accepting run produces a sequence of output sets; the candidate
//! subsequences of the run are the Cartesian product of those sets (ε
//! contributes nothing). `G_π(T)` is the union over all accepting runs.
//! This is the *reference semantics* the flat counting path
//! (`desq_core::fst::flat`) is checked against; no shipped algorithm
//! materializes it.

use desq_core::fx::FxHashSet;
use desq_core::{Dictionary, Error, Fst, ItemId, Result, Sequence, EPSILON};

use crate::{runs, Grid};

/// Generates the candidate subsequences of `seq`.
///
/// * `sigma = None`: unfiltered `G_π(T)`.
/// * `sigma = Some(σ)`: `G^σ_π(T)` — candidates consisting only of items with
///   `f(w, D) >= σ` (support antimonotonicity, Sec. III-A).
///
/// `budget` bounds the total work (accepting runs walked plus candidates
/// materialized); exceeding it returns [`Error::ResourceExhausted`]. This is
/// the mechanism by which the harness reproduces the paper's out-of-memory
/// failures of the naïve algorithms without exhausting actual memory.
pub fn generate(
    fst: &Fst,
    dict: &Dictionary,
    seq: &[ItemId],
    sigma: Option<u64>,
    budget: usize,
) -> Result<FxHashSet<Sequence>> {
    let grid = Grid::build(fst, dict, seq);
    let mut out: FxHashSet<Sequence> = FxHashSet::default();
    if !grid.accepts() {
        return Ok(out);
    }
    let mut work = 0usize;
    let mut exhausted = false;
    // Output-set pool, reused across runs and positions: `pool[..used]`
    // holds the current run's non-ε sets, later slots keep their
    // allocations for the next run.
    let mut pool: Vec<Vec<ItemId>> = Vec::new();
    let mut current: Sequence = Vec::new();
    let completed = runs::for_each_accepting_run(fst, dict, seq, &grid, |path| {
        work += 1;
        if work > budget {
            exhausted = true;
            return false;
        }
        // Materialize (filtered) output sets for this run.
        let mut used = 0;
        let mut dead = false;
        for (tr, &t) in path.iter().zip(seq) {
            if used == pool.len() {
                pool.push(Vec::new());
            }
            let buf = &mut pool[used];
            buf.clear();
            tr.outputs(t, dict, buf);
            if let Some(s) = sigma {
                buf.retain(|&w| w == EPSILON || dict.is_frequent(w, s));
            }
            if buf.is_empty() {
                // The run cannot produce an all-frequent candidate through
                // this transition.
                dead = true;
                break;
            }
            if *buf != [EPSILON] {
                used += 1;
            }
        }
        if dead {
            return true;
        }
        // Cartesian product over non-ε sets.
        current.clear();
        if !product(&pool[..used], 0, &mut current, &mut out, budget, &mut work) {
            exhausted = true;
            return false;
        }
        true
    });
    if exhausted || !completed {
        return Err(Error::ResourceExhausted(format!(
            "candidate generation exceeded budget of {budget}"
        )));
    }
    // The run of all-ε outputs produces the empty candidate; exclude it.
    out.remove(&Vec::new());
    Ok(out)
}

fn product(
    sets: &[Vec<ItemId>],
    depth: usize,
    current: &mut Sequence,
    out: &mut FxHashSet<Sequence>,
    budget: usize,
    work: &mut usize,
) -> bool {
    if depth == sets.len() {
        *work += 1;
        if *work > budget {
            return false;
        }
        out.insert(current.clone());
        return true;
    }
    for &w in &sets[depth] {
        if w == EPSILON {
            // Mixed sets never contain ε by construction, but be permissive.
            if !product(sets, depth + 1, current, out, budget, work) {
                return false;
            }
            continue;
        }
        current.push(w);
        let ok = product(sets, depth + 1, current, out, budget, work);
        current.pop();
        if !ok {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use desq_core::toy;

    fn named(dict: &Dictionary, cands: &FxHashSet<Sequence>) -> Vec<String> {
        let mut v: Vec<String> = cands.iter().map(|s| dict.render(s)).collect();
        v.sort();
        v
    }

    #[test]
    fn toy_candidates_match_paper_fig3() {
        let fx = toy::fixture();
        let d = &fx.dict;

        // T1 = a1 c d c b
        let c1 = generate(&fx.fst, d, &fx.db.sequences[0], None, usize::MAX).unwrap();
        assert_eq!(
            named(d, &c1),
            vec![
                "a1 b",
                "a1 c b",
                "a1 c c b",
                "a1 c d b",
                "a1 c d c b",
                "a1 d b",
                "a1 d c b"
            ]
        );

        // T2 = e e a1 e a1 e b: 11 candidates per Fig. 3.
        let c2 = generate(&fx.fst, d, &fx.db.sequences[1], None, usize::MAX).unwrap();
        assert_eq!(c2.len(), 11);
        assert_eq!(
            named(d, &c2),
            vec![
                "a1 A b",
                "a1 A e b",
                "a1 a1 b",
                "a1 a1 e b",
                "a1 b",
                "a1 e A b",
                "a1 e A e b",
                "a1 e a1 b",
                "a1 e a1 e b",
                "a1 e b",
                "a1 e e b"
            ]
        );

        // T3 produces nothing.
        let c3 = generate(&fx.fst, d, &fx.db.sequences[2], None, usize::MAX).unwrap();
        assert!(c3.is_empty());

        // T4 = a2 d b.
        let c4 = generate(&fx.fst, d, &fx.db.sequences[3], None, usize::MAX).unwrap();
        assert_eq!(named(d, &c4), vec!["a2 b", "a2 d b"]);

        // T5 = a1 a1 b.
        let c5 = generate(&fx.fst, d, &fx.db.sequences[4], None, usize::MAX).unwrap();
        assert_eq!(named(d, &c5), vec!["a1 A b", "a1 a1 b", "a1 b"]);
    }

    #[test]
    fn sigma_filters_infrequent_items() {
        let fx = toy::fixture();
        let d = &fx.dict;
        // With σ = 2, e and a2 are infrequent.
        let c2 = generate(&fx.fst, d, &fx.db.sequences[1], Some(2), usize::MAX).unwrap();
        assert_eq!(named(d, &c2), vec!["a1 A b", "a1 a1 b", "a1 b"]);
        let c4 = generate(&fx.fst, d, &fx.db.sequences[3], Some(2), usize::MAX).unwrap();
        assert!(c4.is_empty(), "all T4 candidates contain infrequent a2");
    }

    #[test]
    fn budget_exhaustion_reported() {
        let fx = toy::fixture();
        let err = generate(&fx.fst, &fx.dict, &fx.db.sequences[1], None, 3).unwrap_err();
        assert!(matches!(err, Error::ResourceExhausted(_)));
    }
}
