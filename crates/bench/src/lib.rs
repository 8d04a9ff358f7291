//! # desq-bench
//!
//! Benchmark and reproduction harness for the paper's evaluation
//! (Sec. VII). The `repro` binary regenerates every table and figure:
//!
//! ```text
//! repro table2   # dataset characteristics           (Tab. II)
//! repro table3   # example constraints & patterns    (Tab. III)
//! repro table4   # candidate statistics (CSPI)       (Tab. IV)
//! repro table5   # speedup over sequential execution (Tab. V)
//! repro fig9     # flexible constraints: 4 algorithms + shuffle sizes
//! repro fig10    # D-SEQ / D-CAND ablations
//! repro fig11    # data / strong / weak scalability
//! repro fig12    # LASH setting (generalization overhead)
//! repro fig13    # MLlib setting (σ sweep)
//! repro all      # everything above
//! ```
//!
//! Scale is controlled by `REPRO_SCALE` (default 1.0): dataset sizes are
//! laptop-scale stand-ins for the paper's cluster corpora; support
//! thresholds are chosen relative to dataset size. A checked-in
//! `EXPERIMENTS.md` recording paper-versus-measured shapes for every
//! experiment does not exist yet: it is ROADMAP item 7's deliverable.

pub mod report;
pub mod workloads;

/// Number of engine workers used across the harness — the session API's
/// workspace-wide default, re-exported so every target shares one
/// convention. (Run timing comes from `MiningMetrics::total_secs()`; the
/// harness no longer measures wall time itself.)
pub use desq::session::default_workers;
