//! Tab. IV: statistics on candidate subsequences (CSPI).

use desq_bench::report::Table;
use desq_bench::workloads::{self, sigma_for};
use desq_core::fst::{CandidateCounter, FstIndex, RunScratch, RunWalker};
use desq_core::{Dictionary, SequenceDb};
use desq_dist::patterns::{self, Constraint};

/// Sequences examined per constraint (the paper samples loose constraints
/// too — "estimated from a 0.1% random sample").
const SAMPLE: usize = 4_000;
const BUDGET: usize = 300_000;

fn cspi_row(t: &mut Table, c: &Constraint, dict: &Dictionary, db: &SequenceDb, sigma: u64) {
    let fst = c
        .compile(dict)
        .unwrap_or_else(|e| panic!("{}: {e}", c.name));
    let step = (db.len() / SAMPLE).max(1);
    let index = FstIndex::new(&fst);
    let walker = RunWalker::new(&fst, dict, &index, dict.last_frequent(sigma));
    let mut scratch = RunScratch::default();
    let mut counter = CandidateCounter::new();
    let mut matched = 0usize;
    let mut examined = 0usize;
    let mut counts: Vec<usize> = Vec::new();
    let mut capped = false;
    for seq in db.sequences.iter().step_by(step) {
        examined += 1;
        // Only per-sequence counts matter: bound the interned table.
        if counter.len() > 1 << 20 {
            counter = CandidateCounter::new();
        }
        // |G^σ_π(T)|: each distinct candidate is observed once per sequence.
        let before = counter.observed();
        match walker.count_candidates(seq, 1, BUDGET, &mut scratch, &mut counter, |_, _| {}) {
            Ok(()) => {
                let candidates = (counter.observed() - before) as usize;
                if candidates > 0 {
                    matched += 1;
                    counts.push(candidates);
                }
            }
            Err(_) => {
                // Budget hit: count as matched with the budget as a floor.
                capped = true;
                matched += 1;
                counts.push(BUDGET);
            }
        }
    }
    counts.sort_unstable();
    let total: usize = counts.iter().sum();
    let mean = if counts.is_empty() {
        0.0
    } else {
        total as f64 / counts.len() as f64
    };
    let median = counts.get(counts.len() / 2).copied().unwrap_or(0);
    let est_total = total as f64 * step as f64;
    t.row(vec![
        format!("{}(σ={sigma})", c.name),
        format!("{:.1}", 100.0 * matched as f64 / examined.max(1) as f64),
        format!("{:.2}M{}", est_total / 1e6, if capped { "+" } else { "" }),
        format!("{mean:.1}{}", if capped { "+" } else { "" }),
        median.to_string(),
    ]);
}

pub fn run() {
    let mut t = Table::new(
        "Table IV: candidate subsequence statistics (sampled)",
        &[
            "constraint",
            "matched %",
            "# cand. seqs",
            "CSPI mean",
            "CSPI median",
        ],
    );
    let (nyt_dict, nyt_db) = workloads::nyt();
    for c in patterns::nyt_constraints() {
        let sigma = match c.name.as_str() {
            "N4" | "N5" => sigma_for(&nyt_db, 0.02, 10),
            _ => sigma_for(&nyt_db, 0.0005, 3),
        };
        cspi_row(&mut t, &c, &nyt_dict, &nyt_db, sigma);
    }
    let (amzn_dict, amzn_db) = workloads::amzn();
    for c in patterns::amzn_constraints() {
        cspi_row(
            &mut t,
            &c,
            &amzn_dict,
            &amzn_db,
            sigma_for(&amzn_db, 0.001, 5),
        );
    }
    let (f_dict, f_db) = workloads::amzn_f();
    for (frac, lo) in [(0.0025, 5), (0.00025, 2)] {
        cspi_row(
            &mut t,
            &patterns::t3(1, 5),
            &f_dict,
            &f_db,
            sigma_for(&f_db, frac, lo),
        );
    }
    let (flat_dict, flat_db) = workloads::amzn_flat();
    for (frac, lo) in [(0.16, 50), (0.04, 20), (0.01, 5)] {
        cspi_row(
            &mut t,
            &patterns::t1(5),
            &flat_dict,
            &flat_db,
            sigma_for(&flat_db, frac, lo),
        );
    }
    t.print();
    println!(
        "shape check vs paper: N1-N3 selective (CSPI ~1-10), N4/N5 moderate (CSPI ~100),\n\
         A-constraints spread wide, T3 loose, T1 loosest at low σ ('+' = budget-capped estimate)"
    );
}
