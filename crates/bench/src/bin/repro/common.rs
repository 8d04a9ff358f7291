//! Shared helpers for the reproduction targets.
//!
//! Everything runs through the unified session API: a target builds one
//! [`MiningSession`] per workload (see
//! [`desq_bench::workloads::session_for`]) and dispatches it to each
//! algorithm with [`MiningSession::with_algorithm`].

use desq::core::{Error, MiningResult, Result};
use desq::dist::NaiveConfig;
use desq::session::{AlgorithmSpec, MiningSession};

/// Outcome of one algorithm run: completed with measurements, or the
/// OOM analog (the reason is reported on stderr when it occurs).
// A handful of these exist per table row; the size skew vs `Oom` is
// irrelevant next to the match-site noise boxing would add.
#[allow(dead_code, clippy::large_enum_variant)]
pub enum Outcome {
    Done(MiningResult),
    Oom(String),
}

impl Outcome {
    /// Wall-clock column.
    pub fn time(&self) -> String {
        match self {
            Outcome::Done(res) => desq_bench::report::secs(res.metrics.total_secs()),
            Outcome::Oom(_) => "n/a (OOM)".to_string(),
        }
    }

    /// Shuffle-size column.
    pub fn shuffle(&self) -> String {
        match self {
            Outcome::Done(res) => desq_bench::report::bytes(res.metrics.shuffle_bytes),
            Outcome::Oom(_) => "n/a (OOM)".to_string(),
        }
    }

    /// Output-count column.
    pub fn patterns(&self) -> String {
        match self {
            Outcome::Done(res) => res.patterns.len().to_string(),
            Outcome::Oom(_) => "-".to_string(),
        }
    }

    /// The completed result, if any.
    pub fn result(&self) -> Option<&MiningResult> {
        match self {
            Outcome::Done(res) => Some(res),
            Outcome::Oom(_) => None,
        }
    }
}

/// Runs one algorithm, mapping `ResourceExhausted` to the OOM outcome and
/// propagating any other failure as a panic (a reproduction bug).
pub fn run_outcome(f: impl FnOnce() -> Result<MiningResult>) -> Outcome {
    match f() {
        Ok(r) => Outcome::Done(r),
        Err(Error::ResourceExhausted(m)) => {
            eprintln!("  [OOM analog: {m}]");
            Outcome::Oom(m)
        }
        Err(other) => panic!("algorithm failed: {other}"),
    }
}

/// Dispatches `base` to `spec` and wraps the run in an [`Outcome`].
pub fn run_spec(base: &MiningSession, spec: AlgorithmSpec) -> Outcome {
    run_outcome(|| base.with_algorithm(spec)?.run())
}

/// All four general algorithms on one workload session.
pub fn four_algorithms(base: &MiningSession) -> [(&'static str, Outcome); 4] {
    [
        AlgorithmSpec::Naive(NaiveConfig { filter: false }),
        AlgorithmSpec::Naive(NaiveConfig { filter: true }),
        AlgorithmSpec::d_seq(),
        AlgorithmSpec::d_cand(),
    ]
    .map(|spec| (spec.name(), run_spec(base, spec)))
}

/// Asserts that all completed outcomes agree on the mined patterns.
pub fn assert_agreement(outcomes: &[(&str, Outcome)]) {
    let mut reference: Option<(&str, &MiningResult)> = None;
    for (name, o) in outcomes {
        if let Some(res) = o.result() {
            match &reference {
                None => reference = Some((name, res)),
                Some((rname, rres)) => {
                    assert_eq!(rres.patterns, res.patterns, "{rname} and {name} disagree")
                }
            }
        }
    }
}
