//! A scheduler fault inside a streamed DESQ-DFS session. Its own test
//! binary because the failpoint registry is process-wide.
#![cfg(feature = "failpoints")]

use std::sync::mpsc;
use std::time::Duration;

use desq::core::fault::{self, FailAction, FailSpec};
use desq::core::{toy, Error};
use desq::{AlgorithmSpec, MiningSession};

#[test]
fn a_task_panic_in_a_three_worker_stream_surfaces_from_finish() {
    let fx = toy::fixture();
    let session = MiningSession::builder()
        .dictionary(fx.dict)
        .database(fx.db)
        .pattern(toy::PATTERN)
        .sigma(1)
        .algorithm(AlgorithmSpec::DesqDfs)
        .workers(3)
        .build()
        .unwrap();
    // Three workers build the tables in three chunks (hits 1–3), then the
    // root task (hit 4) splits its children off for thieves: hit 5 is a
    // split subtree, after the stream has started.
    fault::configure(
        "sched::task_run",
        FailSpec::once_after(4, FailAction::Panic),
    );
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut stream = session.stream();
        stream.by_ref().for_each(drop);
        let _ = done_tx.send(stream.finish());
    });
    let outcome = done_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("a failed stream must end, not hang");
    let err = outcome.unwrap_err();
    assert!(
        matches!(&err, Error::WorkerPanicked(m) if m.contains("sched::task_run")),
        "{err}"
    );
    assert!(fault::hits("sched::task_run") >= 5);
    fault::clear_all();
}
