//! Fig. 12: the LASH setting — generalization overhead of D-SEQ/D-CAND over
//! the specialized LASH algorithm (max gap, max length, hierarchy).

use std::sync::Arc;

use crate::common::{run_spec, Outcome};
use desq::session::AlgorithmSpec;
use desq_baselines::LashConfig;
use desq_bench::report::Table;
use desq_bench::workloads::{self, session_for, sigma_for};
use desq_core::{Dictionary, SequenceDb};

#[allow(clippy::too_many_arguments)] // a table row is exactly this wide
fn row(
    t: &mut Table,
    name: &str,
    dict: &Arc<Dictionary>,
    db: &Arc<SequenceDb>,
    sigma: u64,
    gamma: usize,
    lambda: usize,
    hierarchy: bool,
) {
    let c = if hierarchy {
        desq_dist::patterns::t3(gamma, lambda)
    } else {
        desq_dist::patterns::t2(gamma, lambda)
    };
    // One session carries both the compiled T2/T3 constraint (for
    // D-SEQ/D-CAND) and the parameters LASH mines natively.
    let base = session_for(dict, db, &c, sigma);

    let mut lash_cfg = LashConfig::new(gamma, lambda);
    if !hierarchy {
        lash_cfg = lash_cfg.without_hierarchy();
    }
    let l = run_spec(&base, AlgorithmSpec::Lash(lash_cfg));
    let ds = run_spec(&base, AlgorithmSpec::d_seq());
    let dc = run_spec(&base, AlgorithmSpec::d_cand());

    // Generalization overhead, the paper's headline number for Fig. 12.
    let overhead = |o: &Outcome| match (o, &l) {
        (Outcome::Done(res), Outcome::Done(lres)) => {
            format!(
                "{:.1}x",
                res.metrics.total_secs() / lres.metrics.total_secs()
            )
        }
        _ => "-".to_string(),
    };
    if let (Some(a), Some(b)) = (l.result(), ds.result()) {
        assert_eq!(a.patterns, b.patterns, "{name}: LASH and D-SEQ disagree");
    }
    if let (Some(a), Some(b)) = (l.result(), dc.result()) {
        assert_eq!(a.patterns, b.patterns, "{name}: LASH and D-CAND disagree");
    }
    let ds_cell = format!("{} ({})", ds.time(), overhead(&ds));
    let dc_cell = format!("{} ({})", dc.time(), overhead(&dc));
    t.row(vec![name.to_string(), l.time(), ds_cell, dc_cell]);
}

pub fn run() {
    let (f_dict, f_db) = workloads::shared(workloads::amzn_f());
    let lo = sigma_for(&f_db, 0.0025, 5);
    let vlo = sigma_for(&f_db, 0.00025, 2);
    let mut a = Table::new(
        "Fig. 12a: LASH setting on AMZN-F (time, overhead vs LASH)",
        &["constraint", "LASH", "D-SEQ", "D-CAND"],
    );
    row(
        &mut a,
        &format!("T3({lo},1,5)"),
        &f_dict,
        &f_db,
        lo,
        1,
        5,
        true,
    );
    row(
        &mut a,
        &format!("T3({vlo},1,5)"),
        &f_dict,
        &f_db,
        vlo,
        1,
        5,
        true,
    );
    row(
        &mut a,
        &format!("T3({lo},2,5)"),
        &f_dict,
        &f_db,
        lo,
        2,
        5,
        true,
    );
    row(
        &mut a,
        &format!("T3({lo},1,6)"),
        &f_dict,
        &f_db,
        lo,
        1,
        6,
        true,
    );
    a.print();

    let (cw_dict, cw_db) = workloads::shared(workloads::cw());
    let s1 = sigma_for(&cw_db, 0.002, 5);
    let s2 = sigma_for(&cw_db, 0.02, 20);
    let mut b = Table::new(
        "Fig. 12b: MG-FSM setting on CW50 (no hierarchy)",
        &["constraint", "LASH", "D-SEQ", "D-CAND"],
    );
    row(
        &mut b,
        &format!("T2({s1},0,5)"),
        &cw_dict,
        &cw_db,
        s1,
        0,
        5,
        false,
    );
    row(
        &mut b,
        &format!("T2({s2},0,5)"),
        &cw_dict,
        &cw_db,
        s2,
        0,
        5,
        false,
    );
    b.print();
    println!(
        "paper shape: D-SEQ within 1.3x-2.5x and D-CAND within 0.9x-2.8x of the\n\
         specialized LASH — acceptable generalization overhead."
    );
}
