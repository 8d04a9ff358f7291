//! Pattern expression → FST compilation.
//!
//! A standard Thompson construction produces a transducer with ε-input
//! edges; the [`opt`](super::opt) pipeline then yields the final [`Fst`] in
//! which every transition consumes exactly one input item: ε-removal and
//! dead-state pruning always run (the representation requires them),
//! pair-determinization and suffix-sharing minimization at
//! [`OptLevel::Full`].

use super::opt::{self, OptLevel};
use super::{Fst, InputLabel, OutputLabel};
use crate::dictionary::Dictionary;
use crate::error::{Error, Result};
use crate::pexp::PatEx;

/// Thompson-style NFST state: any number of ε edges plus at most one
/// consuming edge.
#[derive(Default, Clone)]
pub(super) struct NState {
    pub(super) eps: Vec<u32>,
    pub(super) consume: Option<(InputLabel, OutputLabel, u32)>,
}

struct Builder<'a> {
    states: Vec<NState>,
    dict: &'a Dictionary,
}

/// A sub-automaton under construction, with unique entry and exit states.
#[derive(Clone, Copy)]
struct Frag {
    start: u32,
    end: u32,
}

impl<'a> Builder<'a> {
    fn state(&mut self) -> u32 {
        self.states.push(NState::default());
        (self.states.len() - 1) as u32
    }

    fn eps(&mut self, from: u32, to: u32) {
        self.states[from as usize].eps.push(to);
    }

    fn atom(&mut self, input: InputLabel, output: OutputLabel) -> Frag {
        let start = self.state();
        let end = self.state();
        self.states[start as usize].consume = Some((input, output, end));
        Frag { start, end }
    }

    fn compile(&mut self, e: &PatEx, captured: bool) -> Result<Frag> {
        match e {
            PatEx::Item { name, exact, up } => {
                let w = self
                    .dict
                    .id_of(name)
                    .ok_or_else(|| Error::UnknownItem(name.clone()))?;
                let input = if *exact && !*up {
                    // `w=` matches exactly w.
                    InputLabel::Exact(w)
                } else {
                    // `w`, `w^`, `w^=` match any descendant of w.
                    InputLabel::Desc(w)
                };
                let output = if !captured {
                    OutputLabel::None
                } else {
                    match (up, exact) {
                        (false, false) => OutputLabel::Matched,            // (w)
                        (false, true) => OutputLabel::Const(w),            // (w=)
                        (true, false) => OutputLabel::Generalize(Some(w)), // (w^)
                        (true, true) => OutputLabel::Const(w), // (w^=): always generalize to w
                    }
                };
                Ok(self.atom(input, output))
            }
            PatEx::Dot { up } => {
                let output = if !captured {
                    OutputLabel::None
                } else if *up {
                    OutputLabel::Generalize(None) // (.^)
                } else {
                    OutputLabel::Matched // (.)
                };
                Ok(self.atom(InputLabel::Any, output))
            }
            PatEx::Capture(inner) => self.compile(inner, true),
            PatEx::Concat(es) => {
                let mut iter = es.iter();
                let first = self.compile(iter.next().expect("non-empty concat"), captured)?;
                let mut end = first.end;
                for e in iter {
                    let next = self.compile(e, captured)?;
                    self.eps(end, next.start);
                    end = next.end;
                }
                Ok(Frag {
                    start: first.start,
                    end,
                })
            }
            PatEx::Alt(es) => {
                let start = self.state();
                let end = self.state();
                for e in es {
                    let f = self.compile(e, captured)?;
                    self.eps(start, f.start);
                    self.eps(f.end, end);
                }
                Ok(Frag { start, end })
            }
            PatEx::Star(inner) => {
                let start = self.state();
                let end = self.state();
                let f = self.compile(inner, captured)?;
                self.eps(start, f.start);
                self.eps(start, end);
                self.eps(f.end, f.start);
                self.eps(f.end, end);
                Ok(Frag { start, end })
            }
            PatEx::Plus(inner) => {
                let start = self.state();
                let end = self.state();
                let f = self.compile(inner, captured)?;
                self.eps(start, f.start);
                self.eps(f.end, f.start);
                self.eps(f.end, end);
                Ok(Frag { start, end })
            }
            PatEx::Optional(inner) => {
                let start = self.state();
                let end = self.state();
                let f = self.compile(inner, captured)?;
                self.eps(start, f.start);
                self.eps(start, end);
                self.eps(f.end, end);
                Ok(Frag { start, end })
            }
            PatEx::Range { inner, min, max } => {
                // Unroll: min mandatory copies, then either a star (max =
                // None) or max - min optional copies. Each copy is an
                // independent re-compilation of the inner expression.
                let start = self.state();
                let mut cur = start;
                for _ in 0..*min {
                    let f = self.compile(inner, captured)?;
                    self.eps(cur, f.start);
                    cur = f.end;
                }
                match max {
                    None => {
                        let f = self.compile(&PatEx::Star(inner.clone()), captured)?;
                        self.eps(cur, f.start);
                        cur = f.end;
                    }
                    Some(m) => {
                        // Optional tail copies; each can be skipped straight
                        // to the end.
                        let end = self.state();
                        for _ in *min..*m {
                            let f = self.compile(inner, captured)?;
                            self.eps(cur, end);
                            self.eps(cur, f.start);
                            cur = f.end;
                        }
                        self.eps(cur, end);
                        cur = end;
                    }
                }
                Ok(Frag { start, end: cur })
            }
        }
    }
}

pub(super) fn compile(pexp: &PatEx, dict: &Dictionary, level: OptLevel) -> Result<Fst> {
    let mut b = Builder {
        states: Vec::new(),
        dict,
    };
    let frag = b.compile(pexp, false)?;
    Ok(opt::optimize(&b.states, frag.start, frag.end, level))
}

#[cfg(test)]
mod tests {
    use super::super::sim::{SimScratch, SimTables, Simulator};
    use super::super::FstIndex;
    use super::*;
    use crate::toy;
    use crate::PatEx;

    fn accepts(fst: &Fst, dict: &Dictionary, seq: &[crate::ItemId]) -> bool {
        let index = FstIndex::new(fst);
        let sim = Simulator::new(fst, dict, &index, crate::ItemId::MAX);
        sim.build(seq, &mut SimScratch::default(), &mut SimTables::default())
    }

    #[test]
    fn simple_concat() {
        let fx = toy::fixture();
        let fst = Fst::compile(&PatEx::parse("(a1)(b)").unwrap(), &fx.dict).unwrap();
        assert!(accepts(&fst, &fx.dict, &[fx.a1, fx.b]));
        assert!(!accepts(&fst, &fx.dict, &[fx.a1]));
        assert!(!accepts(&fst, &fx.dict, &[fx.b, fx.a1]));
        assert!(!accepts(&fst, &fx.dict, &[fx.a1, fx.b, fx.b]));
    }

    #[test]
    fn hierarchy_matching_in_input() {
        let fx = toy::fixture();
        // `A` (no =) matches descendants a1, a2, A.
        let fst = Fst::compile(&PatEx::parse("(A)").unwrap(), &fx.dict).unwrap();
        for w in [fx.a1, fx.a2, fx.big_a] {
            assert!(accepts(&fst, &fx.dict, &[w]));
        }
        assert!(!accepts(&fst, &fx.dict, &[fx.b]));
        // `A=` matches only A itself.
        let fst = Fst::compile(&PatEx::parse("(A=)").unwrap(), &fx.dict).unwrap();
        assert!(accepts(&fst, &fx.dict, &[fx.big_a]));
        assert!(!accepts(&fst, &fx.dict, &[fx.a1]));
    }

    #[test]
    fn star_and_plus_and_optional() {
        let fx = toy::fixture();
        let d = &fx.dict;
        let star = Fst::compile(&PatEx::parse("[(b)]*").unwrap(), d).unwrap();
        assert!(star.accepts_empty());
        assert!(accepts(&star, d, &[fx.b, fx.b, fx.b]));

        let plus = Fst::compile(&PatEx::parse("[(b)]+").unwrap(), d).unwrap();
        assert!(!plus.accepts_empty());
        assert!(accepts(&plus, d, &[fx.b]));
        assert!(accepts(&plus, d, &[fx.b, fx.b]));

        let opt = Fst::compile(&PatEx::parse("(b)?").unwrap(), d).unwrap();
        assert!(opt.accepts_empty());
        assert!(accepts(&opt, d, &[fx.b]));
        assert!(!accepts(&opt, d, &[fx.b, fx.b]));
    }

    #[test]
    fn ranges_unroll_correctly() {
        let fx = toy::fixture();
        let d = &fx.dict;
        let r = Fst::compile(&PatEx::parse("(b){2,3}").unwrap(), d).unwrap();
        assert!(!accepts(&r, d, &[fx.b]));
        assert!(accepts(&r, d, &[fx.b, fx.b]));
        assert!(accepts(&r, d, &[fx.b, fx.b, fx.b]));
        assert!(!accepts(&r, d, &[fx.b, fx.b, fx.b, fx.b]));

        let open = Fst::compile(&PatEx::parse("(b){2,}").unwrap(), d).unwrap();
        assert!(!accepts(&open, d, &[fx.b]));
        assert!(accepts(&open, d, &[fx.b; 5]));

        let zero = Fst::compile(&PatEx::parse("(b){0,2}").unwrap(), d).unwrap();
        assert!(zero.accepts_empty());
        assert!(accepts(&zero, d, &[fx.b, fx.b]));
        assert!(!accepts(&zero, d, &[fx.b, fx.b, fx.b]));
    }

    #[test]
    fn alternation() {
        let fx = toy::fixture();
        let d = &fx.dict;
        let alt = Fst::compile(&PatEx::parse("(b)|(c)").unwrap(), d).unwrap();
        assert!(accepts(&alt, d, &[fx.b]));
        assert!(accepts(&alt, d, &[fx.c]));
        assert!(!accepts(&alt, d, &[fx.d]));
    }

    #[test]
    fn unknown_item_rejected() {
        let fx = toy::fixture();
        let err = Fst::compile(&PatEx::parse("(zzz)").unwrap(), &fx.dict).unwrap_err();
        assert!(matches!(err, Error::UnknownItem(_)));
    }

    #[test]
    fn dead_states_pruned() {
        let fx = toy::fixture();
        // `(e)(zzz)`-style dead branches aside, compare sizes of a redundant
        // alternation: both branches identical → dedup keeps it small.
        let fst1 = Fst::compile(&PatEx::parse("(b)|(b)").unwrap(), &fx.dict).unwrap();
        let fst2 = Fst::compile(&PatEx::parse("(b)").unwrap(), &fx.dict).unwrap();
        // Same language; pruned/deduplicated automaton should not blow up.
        assert!(fst1.num_states() <= fst2.num_states() + 2);
    }

    #[test]
    fn toy_fst_equivalent_to_paper_fig4() {
        // The compiled FST for πex must accept exactly the inputs the paper's
        // hand-drawn FST accepts (checked on all toy sequences).
        let fx = toy::fixture();
        let expected = [true, true, false, true, true]; // T1, T2, T3, T4, T5
        for (t, want) in fx.db.sequences.iter().zip(expected) {
            assert_eq!(accepts(&fx.fst, &fx.dict, t), want, "seq {t:?}");
        }
    }
}
