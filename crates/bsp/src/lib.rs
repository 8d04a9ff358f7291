//! The item-sequence codec under the name the benchmark harness
//! (`benchmark/src/layers.rs`) imports. It lives in `desq_core::codec`;
//! the BSP round itself is `desq_dist::bsp`.

pub use desq_core::codec::{decode_item_seq, encode_item_seq};
