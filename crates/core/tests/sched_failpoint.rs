//! The `sched::task_run` failpoint at the scheduler's home. Its own test
//! binary (and one test) because the failpoint registry is process-wide:
//! armed inside the unit-test binary it would fire in whichever scheduler
//! test reached a task first.
#![cfg(feature = "failpoints")]

use desq_core::fault::{self, FailAction, FailSpec};
use desq_core::sched::run_indexed;
use desq_core::{CancelToken, Error};

#[test]
fn the_task_run_failpoint_fires_inside_the_task_boundary() {
    // A panic and an injected `err` both land in the task's catch_unwind:
    // the run fails typed, the token trips, the process survives — on two
    // worker threads and on a lone worker running on this one.
    for workers in [1, 2] {
        for action in [FailAction::Panic, FailAction::Err] {
            fault::configure("sched::task_run", FailSpec::once_after(2, action));
            let token = CancelToken::new();
            let err = run_indexed(16, workers, Some(&token), || (), |i, ()| Ok(i)).unwrap_err();
            assert!(
                matches!(&err, Error::WorkerPanicked(m) if m.contains("sched::task_run")),
                "{err}"
            );
            assert!(matches!(
                token.stop_reason(),
                Some(Error::WorkerPanicked(_))
            ));
            assert!(fault::hits("sched::task_run") >= 3);
            fault::clear_all();
        }
        // Disarmed, the same run is clean.
        let run = run_indexed(16, workers, None, || (), |i, ()| Ok(i)).unwrap();
        assert_eq!(run.results, (0..16).collect::<Vec<_>>());
    }
}
