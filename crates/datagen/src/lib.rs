//! # desq-datagen
//!
//! Synthetic sequence databases that mirror the structural properties of
//! the corpora in the paper's evaluation (Tab. II). The originals are
//! proprietary (NYT annotated corpus, Amazon reviews) or too large to ship
//! (ClueWeb09); these generators exercise the same code paths:
//!
//! * [`nyt`] — sentences with a word → lemma → part-of-speech hierarchy and
//!   typed entities (entity → type → `ENTITY`), including relational and
//!   copular clauses so the N1–N5 constraints of Tab. III are meaningful;
//! * [`amzn`] — customer purchase sequences over a product catalog whose
//!   hierarchy is a DAG (products generalize to one or more categories and
//!   to departments), plus [`amzn::to_forest`] applying the paper's AMZN-F
//!   construction (keep the most frequent parent);
//! * [`cw`] — hierarchy-free web-scale text with embedded frequent phrases
//!   (the CW50 substitute for the T2 setting).
//!
//! All generators are deterministic given a seed.

pub mod amzn;
pub mod cw;
pub mod nyt;
pub mod stats;
pub mod zipf;

pub use amzn::{amzn_like, to_forest, AmznConfig};
pub use cw::{cw_like, CwConfig};
pub use nyt::{nyt_like, NytConfig};
pub use stats::DatasetStats;
pub use zipf::Zipf;
