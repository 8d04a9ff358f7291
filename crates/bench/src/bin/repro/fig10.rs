//! Fig. 10: component ablations of D-SEQ (grid, rewrites, early stopping)
//! and D-CAND (NFA minimization, aggregation).
//!
//! D-SEQ's reducers mine a bucket as one search tree where its inputs
//! share keys, so Fig. 10a's early-stopping column measures the
//! heuristic's bucket form: an input stops reading past the last position
//! that outputs one of its bucket keys while the prefix's largest item is
//! below them. A bucket mined one key at a time gets the per-key stop.
//! Every column caps an input's outputs at its largest key; the "no stop"
//! columns drop the stop only (see [`DSeqConfig::early_stop`]).

use std::sync::Arc;

use crate::common::run_spec;
use desq::session::{AlgorithmSpec, MiningSession};
use desq_bench::report::Table;
use desq_bench::workloads::{self, session_for, sigma_for};
use desq_core::{Dictionary, SequenceDb};
use desq_dist::patterns::{self, Constraint};
use desq_dist::{DCandConfig, DSeqConfig};

struct Workload {
    constraint: Constraint,
    dict: Arc<Dictionary>,
    db: Arc<SequenceDb>,
    sigma: u64,
}

impl Workload {
    fn session(&self) -> MiningSession {
        session_for(&self.dict, &self.db, &self.constraint, self.sigma)
    }
}

fn dseq_ablation(t: &mut Table, w: &Workload) {
    let base = w.session();
    // The boolean flags are the cumulative enhancements of Fig. 10a; σ and
    // budget come from the session.
    let variants: [(&str, DSeqConfig); 4] = [
        (
            "no stop, no rewrites, no grid",
            DSeqConfig {
                use_grid: false,
                rewrite: false,
                early_stop: false,
            },
        ),
        (
            "no stop, no rewrites",
            DSeqConfig {
                rewrite: false,
                early_stop: false,
                ..DSeqConfig::default()
            },
        ),
        (
            "no stop",
            DSeqConfig {
                early_stop: false,
                ..DSeqConfig::default()
            },
        ),
        ("full D-SEQ", DSeqConfig::default()),
    ];
    let mut reference: Option<Vec<(Vec<u32>, u64)>> = None;
    let mut cells = vec![format!("{}(σ={})", w.constraint.name, w.sigma)];
    for (_, cfg) in &variants {
        let o = run_spec(&base, AlgorithmSpec::DSeq(*cfg));
        if let Some(res) = o.result() {
            match &reference {
                None => reference = Some(res.patterns.clone()),
                Some(r) => assert_eq!(r, &res.patterns, "ablation changed the result"),
            }
        }
        cells.push(o.time());
    }
    t.row(cells);
}

fn dcand_ablation(t: &mut Table, w: &Workload) {
    let base = w.session();
    let variants: [(&str, DCandConfig); 3] = [
        (
            "tries, no agg",
            DCandConfig {
                minimize: false,
                aggregate: false,
            },
        ),
        (
            "tries",
            DCandConfig {
                minimize: false,
                ..DCandConfig::default()
            },
        ),
        ("full D-CAND", DCandConfig::default()),
    ];
    let mut reference: Option<Vec<(Vec<u32>, u64)>> = None;
    let mut cells = vec![format!("{}(σ={})", w.constraint.name, w.sigma)];
    for (_, cfg) in &variants {
        let o = run_spec(&base, AlgorithmSpec::DCand(*cfg));
        if let Some(res) = o.result() {
            match &reference {
                None => reference = Some(res.patterns.clone()),
                Some(r) => assert_eq!(r, &res.patterns, "ablation changed the result"),
            }
            cells.push(format!(
                "{} / {}",
                o.time(),
                desq_bench::report::bytes(res.metrics.shuffle_bytes)
            ));
        } else {
            cells.push(o.time());
        }
    }
    t.row(cells);
}

pub fn run() {
    let (nyt_dict, nyt_db) = workloads::shared(workloads::nyt());
    let (amzn_dict, amzn_db) = workloads::shared(workloads::amzn());
    let (f_dict, f_db) = workloads::shared(workloads::amzn_f());

    let a1 = Workload {
        sigma: sigma_for(&amzn_db, 0.001, 5),
        constraint: patterns::a1(),
        dict: amzn_dict.clone(),
        db: amzn_db.clone(),
    };
    let n5 = Workload {
        sigma: sigma_for(&nyt_db, 0.02, 10),
        constraint: patterns::n5(),
        dict: nyt_dict.clone(),
        db: nyt_db.clone(),
    };
    let n4 = Workload {
        sigma: sigma_for(&nyt_db, 0.02, 10),
        constraint: patterns::n4(),
        dict: nyt_dict,
        db: nyt_db,
    };
    let t3_16 = Workload {
        sigma: sigma_for(&f_db, 0.0025, 5),
        constraint: patterns::t3(1, 6),
        dict: f_dict.clone(),
        db: f_db.clone(),
    };
    let t3_loose = Workload {
        sigma: sigma_for(&f_db, 0.25, 100),
        constraint: patterns::t3(8, 5),
        dict: f_dict,
        db: f_db,
    };

    let mut a = Table::new(
        "Fig. 10a: D-SEQ ablation (cumulative enhancements; bucket-form early stopping)",
        &[
            "constraint",
            "no stop/rewr/grid",
            "no stop/rewr",
            "no stop",
            "full D-SEQ",
        ],
    );
    for w in [&a1, &n5, &t3_16, &t3_loose] {
        dseq_ablation(&mut a, w);
    }
    a.print();

    let mut b = Table::new(
        "Fig. 10b: D-CAND ablation (time / shuffle size)",
        &["constraint", "tries, no agg", "tries", "full D-CAND"],
    );
    for w in [&a1, &n4, &t3_16] {
        dcand_ablation(&mut b, w);
    }
    b.print();
    println!(
        "paper shape: each component speeds some constraints up drastically with\n\
         little overhead elsewhere; grid matters for loose constraints, NFA\n\
         minimization + aggregation shrink D-CAND's shuffle."
    );
}
