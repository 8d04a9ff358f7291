//! The workspace's one task scheduler: scoped worker threads, steal-half
//! balancing, and the task-boundary failure contract.
//!
//! DESQ search trees are wildly skewed: one first-level child can hold
//! almost the whole pattern space while its siblings are leaves. Every
//! worker therefore owns a LIFO queue of tasks, seeds come from a shared
//! injector queue, and an idle worker steals the older *half* of a
//! victim's queue at a time. Task producers (the miner's node expansion)
//! push freshly split subtrees onto their own queue only while it is
//! short, so splitting overhead is paid exactly when thieves are hungry.
//! The queues are mutex-guarded `VecDeque`s: tasks are whole search
//! subtrees, sequence blocks or BSP map/reduce tasks (micro- to
//! milliseconds each), where a lock per pop is noise.
//!
//! A worker that finds nothing to take while tasks still run (every other
//! worker, while a search's root has not split yet) yields a few times and
//! then naps between looks: spinning on the queue locks would take cycles
//! from the very task that will produce the work.
//!
//! Termination uses a single atomic *pending-task* counter: it starts at
//! the seed count, every spawned task increments it, every finished task
//! decrements it, and an idle worker exits once it reads zero (no task is
//! queued anywhere and none is running that could still spawn one).
//!
//! [`run_scheduler`] is oblivious to what a task *is*; [`run_indexed`] is
//! the fixed-task-list shape over it that the BSP engine's phases and the
//! miner's table build use. The worker count is a number, not a code path:
//! callers pass one state per worker and run the same program at every
//! count. What a lone worker does differently — run on the calling thread,
//! never split for thieves that do not exist ([`TaskCtx::wants_tasks`]) —
//! is decided here and nowhere else.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use crate::error::{Error, Result};
use crate::mining::{panic_message, CancelToken};

/// Per-worker scheduler measurements of one parallel run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Wall-clock nanoseconds the worker spent in its scheduling loop
    /// (task bodies plus stealing plus idling).
    pub nanos: u64,
    /// Tasks the worker executed.
    pub tasks: u64,
    /// Successful steals from *other workers'* queues (grabs from the
    /// shared seed injector are not steals).
    pub steals: u64,
}

/// Task bodies never run under one of this module's locks (each guards a
/// push, pop or insert), so a poisoned one means a bug here, not in a task.
const POISONED: &str = "scheduler lock poisoned";

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect(POISONED)
}

/// How an idle worker waits for work to appear: this many yields, then naps
/// of this length between looks (a steal is picked up at most one nap late).
const IDLE_SPINS: u32 = 64;
const IDLE_NAP: std::time::Duration = std::time::Duration::from_micros(200);

/// One task queue: LIFO for its owner (cache-friendly depth-first
/// descent), FIFO half-batches for thieves (the oldest tasks sit closest
/// to the victim's root and are the largest).
struct Queue<T>(Mutex<VecDeque<T>>);

impl<T> Queue<T> {
    fn new(tasks: impl IntoIterator<Item = T>) -> Queue<T> {
        Queue(Mutex::new(tasks.into_iter().collect()))
    }

    fn lock(&self) -> MutexGuard<'_, VecDeque<T>> {
        lock(&self.0)
    }

    /// Moves the older half (rounded up) of this queue onto `dest` and
    /// returns the oldest task for immediate execution.
    fn steal_half_into(&self, dest: &Queue<T>) -> Option<T> {
        let mut batch: VecDeque<T> = {
            let mut victim = self.lock();
            let n = victim.len().div_ceil(2);
            victim.drain(..n).collect()
        };
        let first = batch.pop_front()?;
        dest.lock().extend(batch);
        Some(first)
    }
}

/// Handle a running task uses to spawn further tasks into the scheduler.
pub struct TaskCtx<'a, T> {
    local: &'a Queue<T>,
    pending: &'a AtomicUsize,
    workers: usize,
}

impl<T> TaskCtx<'_, T> {
    /// Queues freshly split tasks on the calling worker's own queue (the
    /// cold end is where thieves take from) — all under one lock, so the
    /// first thief to look finds the whole batch to halve and the splitting
    /// worker does not contend with idle thieves once per task.
    pub fn spawn_all(&self, tasks: Vec<T>) {
        self.pending.fetch_add(tasks.len(), Ordering::SeqCst);
        self.local.lock().extend(tasks);
    }

    /// True iff a task split off now could feed a thief: the run has a
    /// second worker to steal it, and the calling worker's own queue holds
    /// fewer than `share_limit` tasks (a short queue means thieves are
    /// draining it). Never true in a one-worker run, so a splitting task
    /// recurses inline there without knowing why.
    pub fn wants_tasks(&self, share_limit: usize) -> bool {
        self.workers > 1 && self.local.lock().len() < share_limit
    }
}

/// Runs `seed` tasks to completion on `states.len()` workers with work
/// stealing, and `on_main` on the calling thread (streaming callers drain
/// their channel there; eager callers pass `|| ()`).
///
/// Each worker owns one element of `states` (scratch arenas, output
/// buffers, channel senders); `task` may spawn subtasks through the
/// [`TaskCtx`]. When a worker runs out of everything to do it calls
/// `finish` with its state — still on the worker's thread, so senders drop
/// and channels disconnect before the scheduler returns. Setting `cancel`
/// makes every worker stop at its next task boundary, abandoning queued
/// tasks.
///
/// Two or more workers each get a scoped thread and `on_main` runs beside
/// them. A **lone worker** runs the same loop on the calling thread — no
/// thread is spawned — and `on_main` runs after it; a caller whose
/// `on_main` must make progress *while* tasks run (draining a bounded
/// channel) therefore needs at least two states.
///
/// # Failure domains
///
/// The contract is the same at every worker count. Every task body runs
/// under `catch_unwind`: a panicking task cancels the run (queued tasks
/// are abandoned, every worker still runs `finish` and reports its stats)
/// and the scheduler returns [`Error::WorkerPanicked`] carrying the first
/// panic payload — the process survives. A `token`, when given, is polled
/// before every task: an externally cancelled or deadline-expired token
/// stops the run the same cooperative way and its
/// [`stop_reason`](CancelToken::stop_reason) becomes the returned error.
/// Cancellation through the bare `cancel` flag alone (the streaming
/// sink's abandon-on-drop) is *not* an error: the partial run returns
/// `Ok`.
///
/// Returns per-worker [`WorkerStats`] in worker-index order plus
/// `on_main`'s result.
pub fn run_scheduler<T, S, R>(
    seed: Vec<T>,
    states: Vec<S>,
    cancel: &AtomicBool,
    token: Option<&CancelToken>,
    task: impl Fn(T, &mut S, &TaskCtx<'_, T>) + Sync,
    finish: impl Fn(usize, S) + Sync,
    on_main: impl FnOnce() -> R,
) -> Result<(Vec<WorkerStats>, R)>
where
    T: Send,
    S: Send,
{
    let workers = states.len().max(1);
    let pending = AtomicUsize::new(seed.len());
    let injector = Queue::new(seed);
    let queues: Vec<Queue<T>> = (0..workers).map(|_| Queue::new(None)).collect();
    // First caught panic payload; later ones lose the race and are dropped
    // (the run is already cancelled).
    let panicked: Mutex<Option<String>> = Mutex::new(None);
    let record_panic = |payload: &(dyn std::any::Any + Send)| {
        let msg = panic_message(payload);
        if let Some(token) = token {
            token.mark_panicked(&msg);
        }
        lock(&panicked).get_or_insert(msg);
        cancel.store(true, Ordering::Relaxed);
    };

    let worker = |(wid, mut state): (usize, S)| {
        let t0 = Instant::now();
        let mut stats = WorkerStats::default();
        let mut idle = 0u32;
        let local = &queues[wid];
        let ctx = TaskCtx {
            local,
            pending: &pending,
            workers,
        };
        loop {
            if cancel.load(Ordering::Relaxed) {
                break;
            }
            if token.is_some_and(|t| t.checkpoint().is_err()) {
                cancel.store(true, Ordering::Relaxed);
                break;
            }
            let popped = local.lock().pop_back();
            let next = popped.or_else(|| {
                injector.steal_half_into(local).or_else(|| {
                    (1..workers).find_map(|i| {
                        let got = queues[(wid + i) % workers].steal_half_into(local);
                        stats.steals += u64::from(got.is_some());
                        got
                    })
                })
            });
            let Some(t) = next else {
                if pending.load(Ordering::SeqCst) == 0 {
                    break;
                }
                idle += 1;
                if idle < IDLE_SPINS {
                    std::thread::yield_now();
                } else {
                    std::thread::sleep(IDLE_NAP);
                }
                continue;
            };
            idle = 0;
            let run = catch_unwind(AssertUnwindSafe(|| {
                #[cfg(feature = "failpoints")]
                if let Err(e) = crate::fault::point("sched::task_run") {
                    panic!("{e}");
                }
                task(t, &mut state, &ctx);
            }));
            stats.tasks += 1;
            pending.fetch_sub(1, Ordering::SeqCst);
            if let Err(payload) = run {
                record_panic(payload.as_ref());
                break;
            }
        }
        // `finish` still runs on the cancelled/panicked paths so partial
        // per-worker results and senders are released; a panic inside it
        // is contained the same way as a task's.
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| finish(wid, state))) {
            record_panic(payload.as_ref());
        }
        stats.nanos = t0.elapsed().as_nanos() as u64;
        stats
    };

    let states = states.into_iter().enumerate();
    let (stats, main_out) = if workers == 1 {
        // Nobody to run beside: a thread would buy a spawn and a join per
        // call (the BSP engine calls once per phase) and nothing else.
        let stats: Vec<WorkerStats> = states.map(worker).collect();
        (stats, on_main())
    } else {
        std::thread::scope(|scope| {
            let worker = &worker;
            let handles: Vec<_> = states
                .map(|state| scope.spawn(move || worker(state)))
                .collect();
            let main_out = on_main();
            let joined = handles.into_iter().map(|h| h.join());
            let stats: Vec<WorkerStats> = joined
                .map(|stats| stats.expect("task and finish panics are caught inside the worker"))
                .collect();
            (stats, main_out)
        })
    };

    if let Some(msg) = panicked.into_inner().expect(POISONED) {
        return Err(Error::WorkerPanicked(msg));
    }
    if let Some(err) = token.and_then(CancelToken::stop_reason) {
        return Err(err);
    }
    Ok((stats, main_out))
}

/// What [`run_indexed`] returns.
#[derive(Debug)]
pub struct IndexedRun<T> {
    /// One result per task, in task-index order.
    pub results: Vec<T>,
    /// Wall nanoseconds of the slowest single task (the straggler that
    /// bounds a phase barrier).
    pub max_task_nanos: u64,
    /// Tasks executed, summed over workers.
    pub tasks: u64,
    /// Successful steals between workers, summed over workers.
    pub steals: u64,
}

/// Runs the fixed task list `0..n` on up to `workers` workers of
/// [`run_scheduler`] and collects the results in index order, whatever the
/// steal schedule. `init` builds one state per worker (pass
/// `|| ()` for stateless tasks); it is threaded through every task that
/// worker executes.
///
/// The first task to return `Err` wins: the run is cancelled, tasks not
/// yet started are abandoned, and that error is returned. Panics and a
/// tripped `token` surface typed, as documented on [`run_scheduler`].
pub fn run_indexed<T, S>(
    n: usize,
    workers: usize,
    token: Option<&CancelToken>,
    init: impl Fn() -> S,
    task: impl Fn(usize, &mut S) -> Result<T> + Sync,
) -> Result<IndexedRun<T>>
where
    T: Send,
    S: Send,
{
    let cancel = AtomicBool::new(false);
    let failure: Mutex<Option<Error>> = Mutex::new(None);
    let done: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
    let max_task_nanos = AtomicU64::new(0);
    let states = (0..workers.min(n).max(1))
        .map(|_| (init(), Vec::new()))
        .collect();
    let run = run_scheduler(
        (0..n).collect(),
        states,
        &cancel,
        token,
        |i, (state, out): &mut (S, Vec<(usize, T)>), _ctx| {
            let started = Instant::now();
            let result = task(i, state);
            max_task_nanos.fetch_max(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
            match result {
                Ok(value) => out.push((i, value)),
                Err(e) => {
                    lock(&failure).get_or_insert(e);
                    cancel.store(true, Ordering::Relaxed);
                }
            }
        },
        |_, (_, out)| lock(&done).extend(out),
        || (),
    );
    // A task's own error precedes whatever stop reason the token picked up
    // while the remaining workers wound down.
    if let Some(e) = failure.into_inner().expect(POISONED) {
        return Err(e);
    }
    let (stats, ()) = run?;
    let mut done = done.into_inner().expect(POISONED);
    done.sort_unstable_by_key(|&(i, _)| i);
    Ok(IndexedRun {
        results: done.into_iter().map(|(_, value)| value).collect(),
        max_task_nanos: max_task_nanos.into_inner(),
        tasks: stats.iter().map(|s| s.tasks).sum(),
        steals: stats.iter().map(|s| s.steals).sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Recursive fork-join sum of 0..n via spawned subtasks: exercises
    /// spawning, stealing and pending-counter termination together.
    #[test]
    fn spawned_subtasks_all_run_exactly_once() {
        for workers in [1usize, 2, 4] {
            let total = AtomicU64::new(0);
            let cancel = AtomicBool::new(false);
            let (stats, ()) = run_scheduler(
                vec![(0u64, 256u64)],
                vec![(); workers],
                &cancel,
                None,
                |(lo, hi), _state, ctx: &TaskCtx<'_, (u64, u64)>| {
                    if hi - lo <= 8 {
                        total.fetch_add((lo..hi).sum::<u64>(), Ordering::Relaxed);
                    } else {
                        let mid = (lo + hi) / 2;
                        ctx.spawn_all(vec![(mid, hi), (lo, mid)]);
                    }
                },
                |_, ()| {},
                || (),
            )
            .unwrap();
            assert_eq!(total.into_inner(), 255 * 256 / 2, "workers={workers}");
            assert_eq!(stats.len(), workers);
            let tasks: u64 = stats.iter().map(|s| s.tasks).sum();
            assert_eq!(tasks, 63, "a binary split of 256 by 8 makes 63 tasks");
        }
    }

    #[test]
    fn queue_is_lifo_for_its_owner_and_thieves_take_the_older_half() {
        let victim = Queue::new(0..7);
        let thief = Queue::new(None);
        assert_eq!(victim.lock().pop_back(), Some(6), "owner pops LIFO");
        // ceil(6/2) = 3 stolen: task 0 returned, 1 and 2 queued on the thief.
        assert_eq!(victim.steal_half_into(&thief), Some(0));
        assert_eq!(*thief.lock(), [1, 2]);
        assert_eq!(*victim.lock(), [3, 4, 5]);
        assert_eq!(Queue::<u8>::new(None).steal_half_into(&thief), None);
    }

    #[test]
    fn cancel_stops_before_queued_tasks_run() {
        let ran = AtomicU64::new(0);
        let cancel = AtomicBool::new(false);
        run_scheduler(
            (0..64).collect::<Vec<u32>>(),
            vec![(); 2],
            &cancel,
            None,
            |_t, _state, _ctx: &TaskCtx<'_, u32>| {
                ran.fetch_add(1, Ordering::Relaxed);
                cancel.store(true, Ordering::Relaxed);
            },
            |_, ()| {},
            || (),
        )
        .unwrap();
        assert!(ran.into_inner() < 64, "cancel must abandon queued tasks");
    }

    #[test]
    fn finish_runs_per_worker_and_main_runs_on_caller() {
        let finished = AtomicU64::new(0);
        let cancel = AtomicBool::new(false);
        let caller = std::thread::current().id();
        let (stats, main_thread) = run_scheduler(
            vec![1u32],
            vec![0u8; 3],
            &cancel,
            None,
            |_t, _state, _ctx: &TaskCtx<'_, u32>| {},
            |_, _state| {
                finished.fetch_add(1, Ordering::Relaxed);
            },
            || std::thread::current().id(),
        )
        .unwrap();
        assert_eq!(finished.into_inner(), 3);
        assert_eq!(main_thread, caller);
        assert_eq!(stats.iter().map(|s| s.tasks).sum::<u64>(), 1);
    }

    #[test]
    fn a_lone_worker_runs_on_the_calling_thread() {
        // Tasks, `finish` and `on_main` all see the caller's thread id, in
        // that order; two workers never do.
        let caller = std::thread::current().id();
        for workers in [1usize, 2] {
            let seen = Mutex::new(Vec::new());
            let here = |what| lock(&seen).push((what, std::thread::current().id() == caller));
            let cancel = AtomicBool::new(false);
            let (stats, ()) = run_scheduler(
                vec![0u32, 1],
                vec![(); workers],
                &cancel,
                None,
                |_t, _s, ctx: &TaskCtx<'_, u32>| {
                    assert_eq!(ctx.wants_tasks(usize::MAX), workers > 1);
                    here("task");
                },
                |_, ()| here("finish"),
                || here("main"),
            )
            .unwrap();
            assert_eq!(stats.len(), workers);
            let seen = seen.into_inner().unwrap();
            if workers == 1 {
                let order = [
                    ("task", true),
                    ("task", true),
                    ("finish", true),
                    ("main", true),
                ];
                assert_eq!(seen, order);
            } else {
                assert!(seen
                    .iter()
                    .all(|&(what, on_caller)| (what == "main") == on_caller));
                assert_eq!(seen.iter().filter(|s| s.0 == "finish").count(), 2);
            }
        }
    }

    #[test]
    fn empty_seed_terminates_immediately() {
        let cancel = AtomicBool::new(false);
        let (stats, ()) = run_scheduler(
            Vec::<u32>::new(),
            vec![(); 4],
            &cancel,
            None,
            |_t, _s, _c: &TaskCtx<'_, u32>| unreachable!("no tasks exist"),
            |_, ()| {},
            || (),
        )
        .unwrap();
        assert_eq!(stats.len(), 4);
        assert!(stats.iter().all(|s| s.tasks == 0 && s.steals == 0));
    }

    #[test]
    fn a_panicking_task_cancels_the_run_instead_of_killing_the_process() {
        for workers in [1usize, 2] {
            let ran = AtomicU64::new(0);
            let finished = AtomicU64::new(0);
            let cancel = AtomicBool::new(false);
            let token = CancelToken::new();
            let err = run_scheduler(
                (0..64).collect::<Vec<u32>>(),
                vec![(); workers],
                &cancel,
                Some(&token),
                |t, _state, _ctx: &TaskCtx<'_, u32>| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    if t == 0 {
                        panic!("task {t} exploded");
                    }
                    // Keep survivors slow enough that the cancel flag is
                    // seen long before the queue drains — the assertion
                    // below is about abandonment, not about racing the
                    // flag.
                    std::thread::sleep(std::time::Duration::from_millis(1));
                },
                |_, ()| {
                    finished.fetch_add(1, Ordering::Relaxed);
                },
                || (),
            )
            .unwrap_err();
            match err {
                Error::WorkerPanicked(msg) => assert!(msg.contains("exploded"), "{msg}"),
                other => panic!("expected WorkerPanicked, got {other}"),
            }
            // The token tripped too, so co-operating layers (e.g. the other
            // phase of a BSP job) observe the failure.
            assert!(matches!(
                token.stop_reason(),
                Some(Error::WorkerPanicked(_))
            ));
            assert!(ran.into_inner() < 64, "panic must abandon queued tasks");
            assert_eq!(finished.into_inner(), workers as u64, "finish still runs");
        }
    }

    #[test]
    fn panics_are_contained_without_a_token_too() {
        for workers in [1usize, 2] {
            let cancel = AtomicBool::new(false);
            let err = run_scheduler(
                vec![0u32],
                vec![(); workers],
                &cancel,
                None,
                |_t, _s, _c: &TaskCtx<'_, u32>| panic!("no token around"),
                |_, ()| {},
                || (),
            )
            .unwrap_err();
            assert!(matches!(err, Error::WorkerPanicked(_)), "{err}");
        }
    }

    #[test]
    fn an_expired_deadline_stops_the_run_with_deadline_exceeded() {
        for workers in [1usize, 2] {
            let ran = AtomicU64::new(0);
            let cancel = AtomicBool::new(false);
            let token = CancelToken::with_deadline(std::time::Duration::ZERO);
            let err = run_scheduler(
                (0..1024).collect::<Vec<u32>>(),
                vec![(); workers],
                &cancel,
                Some(&token),
                |_t, _s, _c: &TaskCtx<'_, u32>| {
                    ran.fetch_add(1, Ordering::Relaxed);
                },
                |_, ()| {},
                || (),
            )
            .unwrap_err();
            assert!(matches!(err, Error::DeadlineExceeded(_)), "{err}");
            assert!(ran.into_inner() < 1024, "expiry must abandon queued tasks");
        }
    }

    #[test]
    fn an_externally_cancelled_token_surfaces_cancelled() {
        for workers in [1usize, 2] {
            let cancel = AtomicBool::new(false);
            let token = CancelToken::new();
            token.cancel();
            let err = run_scheduler(
                (0..16).collect::<Vec<u32>>(),
                vec![(); workers],
                &cancel,
                Some(&token),
                |_t, _s, _c: &TaskCtx<'_, u32>| {},
                |_, ()| {},
                || (),
            )
            .unwrap_err();
            assert!(matches!(err, Error::Cancelled(_)), "{err}");
        }
    }

    #[test]
    fn the_plain_cancel_flag_alone_is_not_an_error() {
        // The streaming sink's abandon-on-drop path: local flag set, token
        // (if any) live — the partial run is a normal return.
        for workers in [1usize, 2] {
            let cancel = AtomicBool::new(false);
            let token = CancelToken::new();
            let (stats, ()) = run_scheduler(
                (0..64).collect::<Vec<u32>>(),
                vec![(); workers],
                &cancel,
                Some(&token),
                |_t, _s, _c: &TaskCtx<'_, u32>| {
                    cancel.store(true, Ordering::Relaxed);
                },
                |_, ()| {},
                || (),
            )
            .unwrap();
            assert_eq!(stats.len(), workers);
            assert!(stats.iter().map(|s| s.tasks).sum::<u64>() < 64);
        }
    }

    #[test]
    fn indexed_results_come_back_in_index_order() {
        let caller = std::thread::current().id();
        for workers in [1usize, 3] {
            let task = |i: usize, _: &mut ()| {
                // One worker means no thread here either (a BSP phase).
                assert_eq!(std::thread::current().id() == caller, workers == 1);
                Ok(i * 2)
            };
            let run = run_indexed(100, workers, None, || (), task).unwrap();
            let expect: Vec<usize> = (0..100).map(|i| i * 2).collect();
            assert_eq!(run.results, expect, "workers={workers}");
            assert_eq!(run.tasks, 100);
            if workers == 1 {
                assert_eq!(run.steals, 0);
            }
        }
        let empty = run_indexed(0, 4, None, || (), |i, ()| Ok(i)).unwrap();
        assert!(empty.results.is_empty());
        assert_eq!((empty.tasks, empty.steals), (0, 0));
    }

    #[test]
    fn the_first_indexed_error_wins_and_stops_later_tasks() {
        // One worker runs the oldest task first, so task 0's error is seen
        // before anything else starts.
        let ran = AtomicU64::new(0);
        let err = run_indexed(
            64,
            1,
            None,
            || (),
            |i, ()| {
                ran.fetch_add(1, Ordering::Relaxed);
                if i == 0 {
                    Err(Error::ResourceExhausted("task 0".into()))
                } else {
                    Ok(i)
                }
            },
        )
        .unwrap_err();
        assert_eq!(err, Error::ResourceExhausted("task 0".into()));
        assert_eq!(ran.into_inner(), 1, "the error must abandon queued tasks");
        // With thieves around the error still wins over every `Ok`.
        let err = run_indexed(
            64,
            3,
            None,
            || (),
            |i, ()| match i {
                17 => Err(Error::Decode("task 17".into())),
                _ => Ok(i),
            },
        )
        .unwrap_err();
        assert_eq!(err, Error::Decode("task 17".into()));
    }

    #[test]
    fn an_indexed_panic_is_worker_panicked_and_marks_the_token() {
        let token = CancelToken::new();
        let err = run_indexed(
            8,
            3,
            Some(&token),
            || (),
            |i, ()| {
                if i == 5 {
                    panic!("task {i} exploded");
                }
                Ok(i)
            },
        )
        .unwrap_err();
        assert!(
            matches!(&err, Error::WorkerPanicked(m) if m.contains("exploded")),
            "{err}"
        );
        assert!(matches!(
            token.stop_reason(),
            Some(Error::WorkerPanicked(_))
        ));
    }

    #[test]
    fn an_indexed_run_under_a_stopped_token_fails_typed() {
        let cancelled = CancelToken::new();
        cancelled.cancel();
        let expired = CancelToken::with_deadline(std::time::Duration::ZERO);
        let ran = AtomicU64::new(0);
        let run = |token: &CancelToken| {
            run_indexed(
                16,
                2,
                Some(token),
                || (),
                |i, ()| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    Ok(i)
                },
            )
            .unwrap_err()
        };
        assert!(matches!(run(&cancelled), Error::Cancelled(_)));
        assert!(matches!(run(&expired), Error::DeadlineExceeded(_)));
        assert_eq!(ran.into_inner(), 0, "a stopped token starts no task");
    }

    #[test]
    fn indexed_state_is_initialised_once_per_worker() {
        for (n, workers, expect) in [(64usize, 3usize, 3usize), (2, 5, 2), (0, 4, 1)] {
            let inits = AtomicUsize::new(0);
            let run = run_indexed(
                n,
                workers,
                None,
                || inits.fetch_add(1, Ordering::Relaxed),
                |i, seen: &mut usize| {
                    *seen += 1;
                    Ok(i)
                },
            )
            .unwrap();
            assert_eq!(run.results.len(), n);
            assert_eq!(inits.into_inner(), expect, "n={n} workers={workers}");
        }
    }
}
