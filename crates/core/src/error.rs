//! Error type shared across the workspace.

use std::fmt;

/// Errors produced by the DESQ model and the mining algorithms built on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Pattern-expression syntax error with byte offset into the input.
    Parse { msg: String, pos: usize },
    /// A pattern expression referenced an item that is not in the dictionary.
    UnknownItem(String),
    /// The hierarchy under construction contains a cycle through this item.
    CyclicHierarchy(String),
    /// A configured resource budget (candidate count, NFA size, shuffle
    /// volume, ...) was exceeded. Mirrors the out-of-memory failures the
    /// paper reports for NAÏVE / SEMI-NAÏVE / D-CAND on loose constraints.
    ResourceExhausted(String),
    /// Malformed bytes encountered while decoding shuffle data.
    Decode(String),
    /// Invalid configuration or input for an operation.
    Invalid(String),
    /// The run's wall-clock deadline passed before it finished
    /// (see `mining::Limits::deadline` and `mining::CancelToken`).
    DeadlineExceeded(String),
    /// The run was cancelled from outside (client went away, server
    /// drain, explicit `CancelToken::cancel`).
    Cancelled(String),
    /// A worker task panicked; the panic was caught at the task boundary,
    /// the run was cancelled, and the panic payload is reported here
    /// instead of aborting the process.
    WorkerPanicked(String),
    /// A networked peer could not be reached at all: connection attempts
    /// exhausted their retry budget, or no worker joined a distributed
    /// job within its grace window. Permanent for this run — retrying
    /// inside the run already happened.
    PeerUnreachable(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse { msg, pos } => write!(f, "parse error at byte {pos}: {msg}"),
            Error::UnknownItem(name) => write!(f, "unknown item: {name:?}"),
            Error::CyclicHierarchy(name) => {
                write!(f, "item hierarchy contains a cycle through {name:?}")
            }
            Error::ResourceExhausted(what) => write!(f, "resource budget exhausted: {what}"),
            Error::Decode(msg) => write!(f, "decode error: {msg}"),
            Error::Invalid(msg) => write!(f, "invalid input: {msg}"),
            Error::DeadlineExceeded(what) => write!(f, "deadline exceeded: {what}"),
            Error::Cancelled(what) => write!(f, "cancelled: {what}"),
            Error::WorkerPanicked(msg) => write!(f, "worker panicked: {msg}"),
            Error::PeerUnreachable(msg) => write!(f, "peer unreachable: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

/// Workspace-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_renders_context() {
        let e = Error::Parse {
            msg: "unexpected ']'".into(),
            pos: 7,
        };
        assert_eq!(e.to_string(), "parse error at byte 7: unexpected ']'");
        assert!(Error::UnknownItem("VRB".into()).to_string().contains("VRB"));
        assert!(Error::ResourceExhausted("candidates > 10".into())
            .to_string()
            .contains("candidates"));
        assert!(Error::DeadlineExceeded("100ms".into())
            .to_string()
            .contains("deadline"));
        assert!(Error::Cancelled("drain".into())
            .to_string()
            .contains("drain"));
        assert!(Error::WorkerPanicked("boom".into())
            .to_string()
            .contains("panicked"));
        assert!(Error::PeerUnreachable("127.0.0.1:9".into())
            .to_string()
            .contains("unreachable"));
    }
}
