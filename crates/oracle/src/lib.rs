//! # desq-oracle
//!
//! Reference semantics of FST simulation, for differential tests only.
//! Every shipped path simulates through `desq_core::fst::sim`; this crate
//! keeps the seed-era definitions it is checked against, written for
//! clarity rather than speed:
//!
//! * [`Grid`] — the position–state grid of Sec. V-A (forward
//!   reachability, then aliveness), one `bool` per coordinate;
//! * [`runs`] — depth-first enumeration of the accepting runs over a
//!   [`Grid`], transition by transition;
//! * [`candidates`] — `G_π(T)` / `G^σ_π(T)` as the union of the runs'
//!   Cartesian products, materialized into a hash set.
//!
//! The crate is a dev-dependency of the workspace's test and bench
//! targets and of nothing else (CI checks that no shipped package depends
//! on it), so production code cannot simulate through it by accident.
//!
//! ```
//! use desq_core::toy;
//! use desq_oracle::candidates;
//!
//! let fx = toy::fixture();
//! // G_πex(T5) = { a1b, a1a1b, a1Ab }   (paper, Sec. II)
//! let cands = candidates::generate(&fx.fst, &fx.dict, &fx.db.sequences[4], None, usize::MAX)
//!     .unwrap();
//! assert_eq!(cands.len(), 3);
//! ```

pub mod candidates;
mod grid;
pub mod runs;

pub use grid::Grid;
