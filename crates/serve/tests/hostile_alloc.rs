//! A hostile `Patterns` frame must not amplify. Both ends decode what a
//! stranger sends them — the daemon reads a first frame from any TCP
//! client, a client reads whatever its server answers — so the memory a
//! frame can pin has to stay near the frame's own size. One test per
//! binary: the counting allocator sees every thread, the daemon's included.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};

use desq_core::codec::write_varint;
use desq_core::{toy, Error};
use desq_serve::client::Client;
use desq_serve::proto::{read_frame, Message, Request, MAX_FRAME_LEN, MAX_FRAME_PATTERNS};
use desq_serve::server::Server;
use desq_serve::store::CorpusStore;
use desq_serve::ServeError;

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

/// The wire bytes of the largest `Patterns` frame the cap admits, claiming
/// one pattern for every `bytes_per_pattern` zero bytes of body (two zero
/// bytes *are* a pattern: the empty sequence with frequency 0).
fn all_zero_patterns(bytes_per_pattern: usize) -> Vec<u8> {
    let body = MAX_FRAME_LEN - 16;
    let mut payload = vec![2u8]; // Patterns
    write_varint(&mut payload, (body / bytes_per_pattern) as u64);
    payload.resize(payload.len() + body, 0);
    let mut framed = Vec::new();
    write_varint(&mut framed, payload.len() as u64);
    framed.extend_from_slice(&payload);
    framed
}

/// What the daemon at `addr` answers when `frame` is the first thing a
/// client says.
fn first_frame_reply(addr: std::net::SocketAddr, frame: &[u8]) -> Message {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(frame).unwrap();
    let payload = read_frame(&mut BufReader::new(stream)).unwrap();
    Message::decode(&payload).unwrap()
}

#[test]
fn a_maximal_patterns_frame_cannot_amplify_past_its_size() {
    // One pattern per remaining byte used to pass the count check and
    // reserve 32 bytes for each (512 MiB for this frame); one per two bytes
    // is the most a well-formed frame could hold, and still 16× its size.
    let per_byte = all_zero_patterns(1);
    let per_pair = all_zero_patterns(2);
    // The sender's copy, the reader's payload buffer, and slack.
    let bound = 3 * MAX_FRAME_LEN;

    // A hostile server answering a `Client`.
    for frame in [&per_byte, &per_pair] {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (outcome, peak) = peak_during(|| {
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    // Take the request, answer, and hold the socket until
                    // the client hangs up: closing with unread input would
                    // reset the connection under the client's read.
                    let (mut conn, _) = listener.accept().unwrap();
                    read_frame(&mut conn).unwrap();
                    conn.write_all(frame).unwrap();
                    let _ = conn.read(&mut [0]);
                });
                Client::new(addr).query(&Request::new("toy", toy::PATTERN, 2))
            })
        });
        assert!(
            matches!(outcome, Err(ServeError::Core(Error::Decode(_)))),
            "a frame of empty patterns must not decode: {outcome:?}"
        );
        assert!(peak <= bound, "the client peaked at {peak} bytes");
    }

    // A hostile client opening a conversation with the daemon: refused on
    // its tag byte, whatever the body holds.
    let mut store = CorpusStore::new();
    store.load_spec("toy", "toy").unwrap();
    let handle = Server::new(store).spawn("127.0.0.1:0").unwrap();
    for frame in [&per_byte, &per_pair] {
        let (reply, peak) = peak_during(|| first_frame_reply(handle.addr(), frame));
        assert!(
            matches!(&reply, Message::Error(Error::Invalid(m)) if m.contains("request frame")),
            "{reply:?}"
        );
        assert!(peak <= bound, "the daemon peaked at {peak} bytes");
    }
    // The body of a non-request is never parsed: garbage after the tag
    // draws the same refusal, not a complaint about the garbage.
    let reply = first_frame_reply(handle.addr(), &[3, 2, 0xff, 0xff]);
    assert!(
        matches!(&reply, Message::Error(Error::Invalid(m)) if m.contains("request frame")),
        "{reply:?}"
    );
    handle.shutdown();

    // The fullest frame that does decode costs its entries and no more.
    let mut payload = Vec::new();
    Message::Patterns(vec![(Vec::new(), 0); MAX_FRAME_PATTERNS]).encode(&mut payload);
    let (decoded, peak) = peak_during(|| Message::decode(&payload));
    assert!(matches!(decoded, Ok(Message::Patterns(p)) if p.len() == MAX_FRAME_PATTERNS));
    let entries = MAX_FRAME_PATTERNS * std::mem::size_of::<(Vec<u32>, u64)>();
    assert!(peak <= 2 * entries, "peaked at {peak} bytes");
}
