//! The simulation front-end (`desq_core::fst::sim`, reached through
//! `RunWalker::build_tables`) against the `Grid` reference on the paper's
//! running example, in both of its shapes.

use desq_core::fst::sim::get_bit;
use desq_core::fst::{RunScratch, RunWalker};
use desq_core::{toy, Dictionary, Fst, ItemId, OptLevel, PatEx, Sequence};
use desq_oracle::Grid;

/// Ten alternatives per hop: at `OptLevel::None` far beyond one mask
/// word and one state word (the general shape).
const WIDE: &str = ".*[(A)|(A^)|(b)|(d^)|(c)|(e)|(a1)|(a2=)|(.^)|.]{1,7}(b).*";

fn compile(pattern: &str, dict: &Dictionary, level: OptLevel) -> Fst {
    Fst::compile_with(&PatEx::parse(pattern).unwrap(), dict, level).unwrap()
}

/// Builds `seq`'s tables in `s` and checks acceptance, the aliveness set,
/// the mask rows and the output-set id of every `(position, label)`
/// against [`Grid`] and the transitions' own `matches` / `outputs`.
fn check_against_grid(
    (fst, dict, max_item): (&Fst, &Dictionary, ItemId),
    seq: &[ItemId],
    s: &mut RunScratch,
) {
    let grid = Grid::build(fst, dict, seq);
    let ix = fst.index();
    let accepted = RunWalker::new(fst, dict, ix, max_item).build_tables(seq, s);
    let tables = s.tables();
    assert_eq!(accepted, grid.is_alive(0, fst.initial()), "seq {seq:?}");
    if !accepted {
        assert!(
            tables.mask().is_empty() && tables.ids().is_empty(),
            "seq {seq:?}"
        );
        return;
    }
    let (w, l) = (ix.words(), ix.num_labels());
    for i in 0..=seq.len() {
        for q in 0..fst.num_states() {
            let alive = grid.is_alive(i, q as u32);
            assert_eq!(get_bit(s.alive(i), q), alive, "alive({i}, {q}) of {seq:?}");
            assert!(!alive || get_bit(s.reachable(i), q));
        }
    }
    let mut buf = Vec::new();
    for (i, &t) in seq.iter().enumerate() {
        let row = &tables.mask()[i * w..(i + 1) * w];
        let mut used = vec![false; l];
        for q in 0..fst.num_states() {
            for (tr, ixtr) in fst.transitions(q as u32).iter().zip(ix.state(q)) {
                // A matching transition into an alive target makes its
                // source alive, so Grid aliveness alone describes the
                // bits of forward-reachable sources.
                let expect = grid.is_alive(i, q as u32)
                    && tr.matches(t, dict)
                    && grid.is_alive(i + 1, tr.to);
                let bit = row[ixtr.word as usize] & ixtr.mask != 0;
                assert_eq!(bit, expect, "bit ({i}, {q} → {}) of {seq:?}", tr.to);
                if bit && ixtr.label >= 0 {
                    used[ixtr.label as usize] = true;
                }
            }
        }
        // Every hit's id resolves to the label's outputs on the item, cut
        // at the walker's bound; a label without a hit has the empty set.
        for (li, label) in ix.labels().iter().enumerate() {
            let id = tables.ids()[i * l + li];
            assert!(used[li] || id == 0, "id ({i}, {li}) of {seq:?}");
            buf.clear();
            if used[li] {
                label.outputs(t, dict, &mut buf);
                buf.retain(|&o| o <= max_item);
            }
            assert_eq!(tables.set(id, max_item), &buf[..], "set ({i}, {li})");
        }
    }
    assert_eq!(tables.ids().len(), seq.len() * l);
}

#[test]
fn both_shapes_match_the_grid_on_toy() {
    let fx = toy::fixture();
    let mut s = RunScratch::default();
    let wide_full = compile(WIDE, &fx.dict, OptLevel::Full);
    let wide_none = compile(WIDE, &fx.dict, OptLevel::None);
    for (fst, step_table, state_words) in [
        (&fx.fst, true, 1),
        (&wide_full, false, 1),
        (&wide_none, false, 2),
    ] {
        assert_eq!(fst.index().step_table_eligible(), step_table);
        assert_eq!(fst.num_states().div_ceil(64), state_words);
        for sigma in [1, 2, 4] {
            let max_item = fx.dict.last_frequent(sigma);
            for seq in fx.db.sequences.iter().chain([&Sequence::new()]) {
                check_against_grid((fst, &fx.dict, max_item), seq, &mut s);
            }
        }
    }
}

#[test]
fn the_step_table_predicate_flips_at_32_states_and_64_transitions() {
    // Two chains of `(a1)` / `(b)` hops, widened at the last hop: 31 hops
    // with 2 · 30 + 4 transitions (32 states, 64 transitions: the step-table
    // shape) and 32 hops with 2 · 31 + 3 (33 states, 65: the general shape).
    // Both build what the `Grid` reference says, on accepted sequences and
    // on ones rejected at the last or at an inner position.
    let fx = toy::fixture();
    let at_bound = compile("[(a1)|(b)]{30}[(a1)|(b)|(c)|(d)]", &fx.dict, OptLevel::Full);
    let past_bound = compile("[(a1)|(b)]{31}[(a1)|(b)|(c)]", &fx.dict, OptLevel::Full);
    let mut s = RunScratch::default();
    for (fst, shape, step_table) in [(&at_bound, (32, 64), true), (&past_bound, (33, 65), false)] {
        assert_eq!((fst.num_states(), fst.num_transitions()), shape);
        assert_eq!(fst.index().step_table_eligible(), step_table, "{shape:?}");
        let hops = shape.0 - 1;
        for last in [fx.a1, fx.b, fx.c, fx.d, fx.e] {
            for pattern in 0..4 {
                let mut seq: Sequence = (0..hops - 1)
                    .map(|k| [fx.a1, fx.b, fx.b][(k + pattern) % 3])
                    .collect();
                if pattern == 3 {
                    seq[hops / 2] = fx.c;
                }
                seq.push(last);
                for sigma in [1, 2] {
                    let max_item = fx.dict.last_frequent(sigma);
                    check_against_grid((fst, &fx.dict, max_item), &seq, &mut s);
                }
            }
        }
    }
}
