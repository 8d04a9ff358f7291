//! The simulation front-end (`desq_core::fst::sim`) against the `Grid`
//! reference on the paper's running example, in both of its shapes.

use desq_core::fst::sim::get_bit;
use desq_core::fst::{FstIndex, SimScratch, SimTables, Simulator};
use desq_core::{toy, Dictionary, Fst, ItemId, OptLevel, PatEx, Sequence};
use desq_oracle::Grid;

/// Ten alternatives per hop: at `OptLevel::None` far beyond one mask
/// word and one state word (the general shape).
const WIDE: &str = ".*[(A)|(A^)|(b)|(d^)|(c)|(e)|(a1)|(a2=)|(.^)|.]{1,7}(b).*";

fn compile(pattern: &str, dict: &Dictionary, level: OptLevel) -> Fst {
    Fst::compile_with(&PatEx::parse(pattern).unwrap(), dict, level).unwrap()
}

/// Builds `seq` into cleared `tables` and checks acceptance, the
/// aliveness set, the mask rows and the output arena against [`Grid`]
/// and the transitions' own `matches` / `outputs`.
fn check_against_grid(
    (fst, dict, ix, max_item): (&Fst, &Dictionary, &FstIndex, ItemId),
    seq: &[ItemId],
    s: &mut SimScratch,
    tables: &mut SimTables,
) {
    tables.clear();
    let grid = Grid::build(fst, dict, seq);
    let accepted = Simulator::new(fst, dict, ix, max_item).build(seq, s, tables);
    assert_eq!(accepted, grid.is_alive(0, fst.initial()), "seq {seq:?}");
    if !accepted {
        assert_eq!(*tables, SimTables::default(), "seq {seq:?}");
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
        for (li, label) in ix.labels().iter().enumerate() {
            buf.clear();
            if used[li] {
                label.outputs(t, dict, &mut buf);
                buf.retain(|&o| o <= max_item);
            }
            let set = i * l + li;
            let (a, b) = (tables.offsets()[set], tables.offsets()[set + 1]);
            assert_eq!(&tables.outs()[a as usize..b as usize], &buf[..]);
        }
    }
    assert_eq!(tables.offsets().len(), seq.len() * l + 1);
}

#[test]
fn both_shapes_match_the_grid_on_toy() {
    let fx = toy::fixture();
    let mut s = SimScratch::default();
    let mut tables = SimTables::default();
    let wide_full = compile(WIDE, &fx.dict, OptLevel::Full);
    let wide_none = compile(WIDE, &fx.dict, OptLevel::None);
    for (fst, step_table, state_words) in [
        (&fx.fst, true, 1),
        (&wide_full, false, 1),
        (&wide_none, false, 2),
    ] {
        let index = FstIndex::new(fst);
        assert_eq!(index.step_table_eligible(), step_table);
        assert_eq!(fst.num_states().div_ceil(64), state_words);
        for sigma in [1, 2, 4] {
            let max_item = fx.dict.last_frequent(sigma);
            for seq in fx.db.sequences.iter().chain([&Sequence::new()]) {
                check_against_grid((fst, &fx.dict, &index, max_item), seq, &mut s, &mut tables);
            }
        }
    }
}
