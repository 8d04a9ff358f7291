//! A hostile shuffle frame must not amplify: the coordinator's reader
//! decodes whatever a TCP client sends before the handshake is checked, so
//! the memory a frame can pin has to stay near the frame's own size. One
//! test per binary — the counting allocator sees every thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use desq_bsp::transport::{read_net_frame, Frame, MAX_NET_FRAME};
use desq_core::codec::write_varint;
use desq_core::wire::MAX_LIST_LEN;

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every operation is forwarded unchanged to `System`; the counters
// are side effects that touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `p` came from `alloc` above, i.e. from `System`.
        unsafe { System.dealloc(p, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes allocated above the starting level while `f` runs.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed).saturating_sub(before))
}

/// The wire bytes of a `MapOut` whose bucket list claims `count` entries
/// backed by `count` zero bytes (that many empty byte strings).
fn all_zero_map_out(count: usize) -> Vec<u8> {
    let mut payload = vec![4u8]; // MapOut
    payload.extend_from_slice(&[0; 6]); // epoch … task_nanos
    write_varint(&mut payload, count as u64);
    payload.resize(payload.len() + count, 0);
    let mut framed = Vec::new();
    write_varint(&mut framed, payload.len() as u64);
    framed.extend_from_slice(&payload);
    framed
}

#[test]
fn an_all_zero_byte_list_cannot_amplify_past_its_frame() {
    let max_frame = MAX_NET_FRAME;

    // The largest such frame the default cap admits used to decode into
    // 64 Mi `Vec` headers (≈ 1.5 GiB); it is refused at the list count.
    let hostile = all_zero_map_out(max_frame - 16);
    let (decoded, peak) = peak_during(|| read_net_frame(&mut hostile.as_slice(), max_frame));
    assert!(decoded.is_err(), "64 Mi empty buckets must not decode");
    assert!(
        peak <= 2 * max_frame,
        "decoding a {max_frame}-byte frame peaked at {peak} bytes"
    );

    // The longest list that does decode costs its headers and no more.
    let full = all_zero_map_out(MAX_LIST_LEN);
    let (decoded, peak) = peak_during(|| read_net_frame(&mut full.as_slice(), max_frame));
    match decoded.unwrap() {
        Frame::MapOut { buckets, .. } => assert_eq!(buckets.len(), MAX_LIST_LEN),
        other => panic!("decoded as {other:?}"),
    }
    let headers = MAX_LIST_LEN * std::mem::size_of::<Vec<u8>>();
    assert!(peak <= full.len() + 2 * headers, "peaked at {peak} bytes");
}
