//! The subsequence-constraint library of Tab. III.
//!
//! Constraint expressions are written exactly as the paper prints them; the
//! paper's semantics match them *within* an input sequence, so
//! [`Constraint::compile`] wraps them in uncaptured `.*` context
//! ([`desq_core::PatEx::unanchored`]) before FST compilation. The `N`
//! constraints target the NYT-like corpus (relational phrases, typed
//! relations, copular relations, generalized n-grams), the `A` constraints
//! the AMZN-like purchase sequences, and [`t1`] / [`t2`] / [`t3`] are the
//! traditional constraint families (max length, max gap, hierarchy) used in
//! the LASH / MG-FSM / MLlib comparisons.

use desq_core::{Dictionary, Fst, PatEx, Result};

/// A named subsequence constraint with its pattern expression.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// Display name (`N1`..`N5`, `A1`..`A4`, `T1(λ)`, ...).
    pub name: String,
    /// The pattern expression as printed in Tab. III (unanchored form).
    pub expr: String,
}

impl Constraint {
    /// Creates a constraint from a name and its printed expression.
    pub fn new(name: impl Into<String>, expr: impl Into<String>) -> Constraint {
        Constraint {
            name: name.into(),
            expr: expr.into(),
        }
    }

    /// Compiles the constraint against `dict`, with unanchored `.*` context.
    pub fn compile(&self, dict: &Dictionary) -> Result<Fst> {
        compile_unanchored(&self.expr, dict)
    }
}

/// Parses `expr`, wraps it in uncaptured `.*` context on both sides, and
/// compiles it to an FST.
pub fn compile_unanchored(expr: &str, dict: &Dictionary) -> Result<Fst> {
    Fst::compile(&PatEx::parse(expr)?.unanchored(), dict)
}

/// N1 — relational phrases between entities.
pub fn n1() -> Constraint {
    Constraint::new("N1", "ENTITY (VERB+ NOUN+? PREP?) ENTITY")
}

/// N2 — typed relational phrases (entities generalized).
pub fn n2() -> Constraint {
    Constraint::new("N2", "(ENTITY^ VERB+ NOUN+? PREP? ENTITY^)")
}

/// N3 — copular relations ("X is a Y"), with the copula generalized to its
/// lemma.
pub fn n3() -> Constraint {
    Constraint::new("N3", "(ENTITY^ be^=) DET? [ADV? ADJ? NOUN]")
}

/// N4 — generalized 3-grams before a noun.
pub fn n4() -> Constraint {
    Constraint::new("N4", "(.^){3} NOUN")
}

/// N5 — generalized items in a 3-item window.
pub fn n5() -> Constraint {
    Constraint::new("N5", "[(.^). .]|[. (.^).]|[. .(.^)]")
}

/// The five NYT constraints of Tab. III.
pub fn nyt_constraints() -> Vec<Constraint> {
    vec![n1(), n2(), n3(), n4(), n5()]
}

/// A1 — electronics bought in short succession, generalized within the
/// `Electr` department.
pub fn a1() -> Constraint {
    Constraint::new("A1", "(Electr^)[.{0,2}(Electr^)]{1,4}")
}

/// A2 — books bought in short succession (no generalization).
pub fn a2() -> Constraint {
    Constraint::new("A2", "(Book)[.{0,2}(Book)]{1,4}")
}

/// A3 — what follows a digital-camera purchase, generalized.
pub fn a3() -> Constraint {
    Constraint::new("A3", "DigitalCamera[.{0,3}(.^)]{1,4}")
}

/// A4 — musical instruments bought in short succession, generalized within
/// the `MusicInstr` department.
pub fn a4() -> Constraint {
    Constraint::new("A4", "(MusicInstr^)[.{0,2}(MusicInstr^)]{1,4}")
}

/// The four AMZN constraints of Tab. III.
pub fn amzn_constraints() -> Vec<Constraint> {
    vec![a1(), a2(), a3(), a4()]
}

/// T1(λ) — all subsequences of length ≤ λ, arbitrary gaps (the MLlib
/// setting). `lambda ≥ 1`.
pub fn t1(lambda: usize) -> Constraint {
    assert!(lambda >= 1, "T1 needs λ >= 1");
    Constraint::new(
        format!("T1({lambda})"),
        format!("(.)[.*(.)]{{,{}}}", lambda - 1),
    )
}

/// T2(γ, λ) — n-grams of length 2..=λ with gaps ≤ γ, no hierarchy (the
/// MG-FSM setting). `lambda ≥ 2`.
pub fn t2(gamma: usize, lambda: usize) -> Constraint {
    assert!(lambda >= 2, "T2 needs λ >= 2");
    Constraint::new(
        format!("T2({gamma},{lambda})"),
        format!("(.)[.{{0,{gamma}}}(.)]{{1,{}}}", lambda - 1),
    )
}

/// T3(γ, λ) — like [`t2`] but with hierarchy generalization (the LASH
/// setting). `lambda ≥ 2`.
pub fn t3(gamma: usize, lambda: usize) -> Constraint {
    assert!(lambda >= 2, "T3 needs λ >= 2");
    Constraint::new(
        format!("T3({gamma},{lambda})"),
        format!("(.^)[.{{0,{gamma}}}(.^)]{{1,{}}}", lambda - 1),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use desq_core::mining::{Miner, MiningContext};
    use desq_core::toy;

    /// Sequential DESQ-DFS through the Miner trait.
    fn dfs(fx: &toy::Toy, fst: &Fst, sigma: u64) -> Vec<(desq_core::Sequence, u64)> {
        desq_miner::algo::DesqDfs
            .mine(&MiningContext::sequential(&fx.db, &fx.dict, sigma).with_fst(fst))
            .unwrap()
            .patterns
    }

    #[test]
    fn traditional_constraints_compile_on_toy() {
        let fx = toy::fixture();
        for c in [t1(1), t1(4), t2(0, 2), t2(2, 5), t3(0, 2), t3(1, 4)] {
            let fst = c
                .compile(&fx.dict)
                .unwrap_or_else(|e| panic!("{}: {e}", c.name));
            assert!(fst.num_states() > 0);
        }
    }

    #[test]
    fn t1_mines_bounded_length_subsequences() {
        let fx = toy::fixture();
        let fst = t1(2).compile(&fx.dict).unwrap();
        let out = dfs(&fx, &fst, 3);
        // Every pattern has length <= 2; singletons include frequent items.
        assert!(out.iter().all(|(s, _)| !s.is_empty() && s.len() <= 2));
        assert!(out.iter().any(|(s, _)| s == &vec![fx.b]));
        // b occurs in all 5 sequences.
        let b_freq = out.iter().find(|(s, _)| s == &vec![fx.b]).unwrap().1;
        assert_eq!(b_freq, 5);
    }

    #[test]
    fn t2_respects_gap_constraint() {
        let fx = toy::fixture();
        // γ = 0: only adjacent pairs. "c d" and "d c" are adjacent in T1/T3;
        // "a1 b" is adjacent only in T5.
        let fst = t2(0, 2).compile(&fx.dict).unwrap();
        let out = dfs(&fx, &fst, 2);
        assert!(out.contains(&(vec![fx.c, fx.d], 2)), "{out:?}");
        assert!(!out.contains(&(vec![fx.a1, fx.b], 2)), "{out:?}");
    }

    #[test]
    fn t3_generalizes_along_hierarchy() {
        let fx = toy::fixture();
        // γ = 1 admits one skipped item: a1..b in T2 (a1 e b), T4 (a2 d b,
        // generalized) and T5, so the generalized pair "A b" has support 3
        // while the concrete "a1 b" has support 2.
        let fst = t3(1, 2).compile(&fx.dict).unwrap();
        let out = dfs(&fx, &fst, 2);
        assert!(out.contains(&(vec![fx.big_a, fx.b], 3)), "{out:?}");
        assert!(out.contains(&(vec![fx.a1, fx.b], 2)), "{out:?}");
    }

    #[test]
    fn unknown_items_surface_cleanly() {
        let fx = toy::fixture();
        let c = Constraint::new("X", "(NOPE)");
        assert!(matches!(
            c.compile(&fx.dict),
            Err(desq_core::Error::UnknownItem(_))
        ));
    }

    #[test]
    fn nyt_constraints_stay_step_table_eligible_after_optimization() {
        // The flat walker's fast path requires ≤ 32 states and ≤ 64
        // transitions; the optimizer must keep (or put) every compiled NYT
        // constraint inside that envelope.
        let (dict, _) = desq_datagen::nyt_like(&desq_datagen::NytConfig::new(8));
        for c in nyt_constraints() {
            let fst = c.compile(&dict).unwrap();
            let ix = fst.index();
            assert!(
                ix.step_table_eligible(),
                "{}: {} states / {} transitions miss the fast path",
                c.name,
                fst.num_states(),
                fst.num_transitions()
            );
            // Full optimization never makes an eligible machine ineligible.
            assert!(
                !ix.step_table_eligible_before_opt() || ix.step_table_eligible(),
                "{}: optimizer pushed an eligible FST out of the fast path",
                c.name
            );
        }
    }

    #[test]
    fn constraint_names_are_stable() {
        assert_eq!(t1(5).name, "T1(5)");
        assert_eq!(t2(1, 5).name, "T2(1,5)");
        assert_eq!(t3(2, 6).name, "T3(2,6)");
        let names: Vec<String> = nyt_constraints().into_iter().map(|c| c.name).collect();
        assert_eq!(names, ["N1", "N2", "N3", "N4", "N5"]);
        let names: Vec<String> = amzn_constraints().into_iter().map(|c| c.name).collect();
        assert_eq!(names, ["A1", "A2", "A3", "A4"]);
    }
}
