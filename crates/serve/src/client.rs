//! The thin blocking client: one TCP connection per query.
//!
//! [`Client::query`] sends a single [`Request`] frame, then consumes the
//! streamed response — pattern frames as they arrive, then the terminal
//! frame — and returns everything the server said: decoded patterns, the
//! run's [`MiningMetrics`], the server's [`ServerStats`], and the raw
//! pattern-frame payload bytes (which the integration tests use to prove
//! that warm cache hits are *byte-identical* to their cold counterpart).
//! It returns only once the server has closed the connection, so the
//! query's admission slot is free again by then.
//!
//! Transient failures — the server's explicit `Busy` overload answer and
//! a refused connection (daemon restarting) — can be retried with an
//! opt-in [`RetryPolicy`]: bounded attempts with jittered exponential
//! backoff. Every other failure (server-side errors, protocol errors,
//! mid-stream I/O) is returned immediately; retrying a query the server
//! *rejected* would never help, and retrying one that *started* could run
//! it twice.

use std::io::{BufReader, BufWriter, Read};
use std::net::{SocketAddr, TcpStream};

use desq_core::{MiningMetrics, Sequence};

use crate::proto::{read_frame, write_frame, Message, Request, ServerStats};
use crate::{ServeError, ServeResult};

/// The shared jittered-exponential backoff schedule, re-exported from its
/// canonical home — `desq_core::retry` — where the networked shuffle
/// transport's reconnect logic uses the same audited implementation.
pub use desq_core::retry::RetryPolicy;

/// True for the failures worth retrying: explicit overload and a refused
/// connection. Everything else is either permanent or already ran.
fn transient(e: &ServeError) -> bool {
    match e {
        ServeError::Busy { .. } => true,
        ServeError::Io(io) => io.kind() == std::io::ErrorKind::ConnectionRefused,
        _ => false,
    }
}

/// A handle on a `desq-serve` daemon address. Connections are established
/// per query (the protocol is one conversation per connection).
#[derive(Debug, Clone, Copy)]
pub struct Client {
    addr: SocketAddr,
    retry: Option<RetryPolicy>,
}

/// Everything one successful query returned.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The mined patterns with frequencies, in the server's stream order
    /// (discovery order — sort for the session's canonical ordering).
    pub patterns: Vec<(Sequence, u64)>,
    /// The mining run's uniform metrics.
    pub metrics: MiningMetrics,
    /// The server's cache and queue-wait accounting.
    pub stats: ServerStats,
    /// Concatenated payload bytes of every pattern frame, verbatim as
    /// they came off the wire.
    pub pattern_bytes: Vec<u8>,
}

impl Client {
    /// A client for the daemon at `addr` (no retries).
    pub fn new(addr: SocketAddr) -> Client {
        Client { addr, retry: None }
    }

    /// Opts into retrying transient failures under `policy`.
    pub fn with_retry(mut self, policy: RetryPolicy) -> Client {
        self.retry = Some(policy);
        self
    }

    /// Runs one query to completion, collecting the streamed patterns.
    ///
    /// Distinguishes its failures: [`ServeError::Busy`] when the server's
    /// admission cap rejected the connection, [`ServeError::Remote`] when
    /// the server rejected or aborted the query (unknown corpus, parse
    /// error, budget exhaustion, deadline, cancellation — carrying the
    /// server's [`desq_core::Error`] verbatim), [`ServeError::Io`] on
    /// transport failures. With [`with_retry`](Self::with_retry), `Busy`
    /// and connection-refused are retried under the policy before the
    /// last error is returned.
    pub fn query(&self, req: &Request) -> ServeResult<QueryOutcome> {
        let Some(policy) = self.retry else {
            return self.query_once(req);
        };
        let mut attempt = 0u32;
        loop {
            match self.query_once(req) {
                Err(e) if transient(&e) && attempt < policy.max_retries => {
                    std::thread::sleep(policy.backoff(attempt));
                    attempt += 1;
                }
                other => return other,
            }
        }
    }

    fn query_once(&self, req: &Request) -> ServeResult<QueryOutcome> {
        let stream = TcpStream::connect(self.addr)?;
        let _ = stream.set_nodelay(true);
        let mut writer = BufWriter::new(stream.try_clone()?);
        let mut reader = BufReader::new(stream);
        write_frame(&mut writer, &Message::Request(req.clone()))?;
        let mut patterns = Vec::new();
        let mut pattern_bytes = Vec::new();
        let outcome = loop {
            let payload = read_frame(&mut reader)?;
            match Message::decode(&payload)? {
                Message::Patterns(batch) => {
                    pattern_bytes.extend_from_slice(&payload);
                    patterns.extend(batch);
                }
                Message::Metrics { mining, stats } => {
                    break Ok(QueryOutcome {
                        patterns,
                        metrics: mining,
                        stats,
                        pattern_bytes,
                    })
                }
                Message::Error(e) => break Err(ServeError::Remote(e)),
                Message::Busy { in_flight, cap } => {
                    return Err(ServeError::Busy { in_flight, cap })
                }
                Message::Request(_) => return Err(decode_error("server sent a request frame")),
            }
        };
        // The server closes only after releasing the query's admission
        // slot: read to that close, so a query that has returned holds no
        // slot. A byte after the terminal frame is a protocol error; a
        // server `Error` frame outranks whatever follows it.
        let trailing = reader.bytes().next().transpose();
        let outcome = outcome?;
        if trailing?.is_some() {
            return Err(decode_error("bytes after the terminal frame"));
        }
        Ok(outcome)
    }
}

fn decode_error(msg: &str) -> ServeError {
    ServeError::Core(desq_core::Error::Decode(msg.into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    // The backoff schedule itself is tested at its home,
    // `desq_core::retry`; here only the client's transience predicate.

    #[test]
    fn only_busy_and_connection_refused_are_transient() {
        assert!(transient(&ServeError::Busy {
            in_flight: 1,
            cap: 1
        }));
        assert!(transient(&ServeError::Io(std::io::Error::from(
            std::io::ErrorKind::ConnectionRefused
        ))));
        assert!(!transient(&ServeError::Io(std::io::Error::from(
            std::io::ErrorKind::UnexpectedEof
        ))));
        assert!(!transient(&ServeError::Remote(desq_core::Error::Invalid(
            "unknown corpus".into()
        ))));
        assert!(!transient(&ServeError::Remote(
            desq_core::Error::DeadlineExceeded("50ms".into())
        )));
    }
}
