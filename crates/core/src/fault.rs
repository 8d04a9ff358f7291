//! Deterministic fault injection for the chaos test suites.
//!
//! Only compiled with the `failpoints` cargo feature — production builds
//! contain *no* failpoint code, not even a branch. With the feature on,
//! execution layers call [`point`] at named sites; a test configures a
//! site with [`configure`] to deterministically panic, delay, or return
//! an error on chosen hits, and the chaos suites assert the system
//! degrades the way its failure-domain design promises.
//!
//! # Site catalog
//!
//! | site                 | layer                  | fires inside |
//! |----------------------|------------------------|--------------|
//! | `sched::task_run`    | `desq_core::sched`     | every task body of every scheduler run at **every worker count**, a one-worker run on the calling thread included — mining subtrees, counting blocks, BSP map/merge/key-group tasks (a worker process's reduce included), table-build chunks (an injected `err` panics here and is caught at the task boundary like any panic) |
//! | `bsp::reduce_merge`  | BSP engine             | every bucket merge of the one reduce (driver or worker process), before the bucket is merged |
//! | `serve::before_reply`| daemon                 | between mining and the terminal frame |
//! | `store::compile`     | FST cache              | under a cache miss, before compilation |
//! | `net::accept`        | shuffle transport      | when the coordinator accepts a worker connection |
//! | `net::heartbeat`     | shuffle transport      | before every worker heartbeat send |
//!
//! # Determinism
//!
//! A [`FailSpec`] fires by *hit index*, not by sampling: `skip` hits pass
//! through untouched, then `times` hits fire the action, then the site is
//! transparent again. Hit counters are per site and reset by
//! [`clear`] / [`clear_all`]. Tests that need "random-looking but
//! reproducible" schedules derive `skip` from a seed themselves — the
//! registry stays a pure counter machine. The registry is per process, and
//! every site fires inside the process that armed it.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Duration;

use crate::{Error, Result};

/// What a tripped failpoint does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailAction {
    /// Panic with `"failpoint <site>"` — exercises the catch_unwind
    /// boundaries.
    Panic,
    /// Sleep for the given duration — exercises deadlines and timeouts.
    Delay(Duration),
    /// Return `Error::Invalid("failpoint <site>")` from [`point`] — at
    /// sites without a `Result` path this panics instead.
    Err,
}

/// When and what a site fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailSpec {
    /// Hits that pass through before the first firing.
    pub skip: u64,
    /// Number of firing hits after `skip` (`u64::MAX` = forever).
    pub times: u64,
    /// The injected behavior.
    pub action: FailAction,
}

impl FailSpec {
    /// Fire `action` on every hit, forever.
    pub fn always(action: FailAction) -> FailSpec {
        FailSpec {
            skip: 0,
            times: u64::MAX,
            action,
        }
    }

    /// Fire `action` exactly once, on the `(skip + 1)`-th hit.
    pub fn once_after(skip: u64, action: FailAction) -> FailSpec {
        FailSpec {
            skip,
            times: 1,
            action,
        }
    }
}

struct SiteState {
    spec: FailSpec,
    hits: u64,
}

fn registry() -> &'static Mutex<HashMap<String, SiteState>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, SiteState>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

fn lock() -> std::sync::MutexGuard<'static, HashMap<String, SiteState>> {
    // A panic *injected by this registry* unwinds through call sites that
    // may hold no locks here, but a test thread asserting while another
    // injects can still poison the map — recovery is safe, the map is
    // always in a consistent state between operations.
    registry().lock().unwrap_or_else(PoisonError::into_inner)
}

/// Arms `site` with `spec`, resetting its hit counter.
pub fn configure(site: &str, spec: FailSpec) {
    lock().insert(site.to_string(), SiteState { spec, hits: 0 });
}

/// Disarms `site`.
pub fn clear(site: &str) {
    lock().remove(site);
}

/// Disarms every site (call between chaos test cases).
pub fn clear_all() {
    lock().clear();
}

/// Number of times `site` was hit since it was configured (0 if not
/// configured) — lets tests assert a site was actually exercised.
pub fn hits(site: &str) -> u64 {
    lock().get(site).map_or(0, |s| s.hits)
}

/// A named failpoint. Unconfigured sites return `Ok(())` immediately;
/// configured sites count the hit and fire their action when the hit
/// index falls in the armed window.
pub fn point(site: &str) -> Result<()> {
    let action = {
        let mut map = lock();
        let Some(state) = map.get_mut(site) else {
            return Ok(());
        };
        let hit = state.hits;
        state.hits += 1;
        let firing = hit >= state.spec.skip
            && (state.spec.times == u64::MAX || hit - state.spec.skip < state.spec.times);
        if !firing {
            return Ok(());
        }
        state.spec.action.clone()
        // The lock drops before the action runs: a Panic must not poison
        // the registry and a Delay must not serialize other sites.
    };
    match action {
        FailAction::Panic => panic!("failpoint {site}"),
        FailAction::Delay(d) => {
            std::thread::sleep(d);
            Ok(())
        }
        FailAction::Err => Err(Error::Invalid(format!("failpoint {site}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global; each test uses its own site names
    // so the suite stays order-independent.

    #[test]
    fn unconfigured_sites_are_transparent() {
        assert!(point("fault-test::nowhere").is_ok());
        assert_eq!(hits("fault-test::nowhere"), 0);
    }

    #[test]
    fn err_fires_in_the_armed_window_only() {
        configure(
            "fault-test::window",
            FailSpec {
                skip: 2,
                times: 1,
                action: FailAction::Err,
            },
        );
        assert!(point("fault-test::window").is_ok());
        assert!(point("fault-test::window").is_ok());
        assert!(matches!(
            point("fault-test::window"),
            Err(Error::Invalid(msg)) if msg.contains("fault-test::window")
        ));
        assert!(point("fault-test::window").is_ok());
        assert_eq!(hits("fault-test::window"), 4);
        clear("fault-test::window");
        assert!(point("fault-test::window").is_ok());
    }

    #[test]
    fn panic_action_panics_with_the_site_name() {
        configure("fault-test::boom", FailSpec::always(FailAction::Panic));
        let err = std::panic::catch_unwind(|| point("fault-test::boom")).unwrap_err();
        let msg = crate::mining::panic_message(err.as_ref());
        assert!(msg.contains("fault-test::boom"), "{msg}");
        clear("fault-test::boom");
    }

    #[test]
    fn delay_action_sleeps() {
        configure(
            "fault-test::slow",
            FailSpec::always(FailAction::Delay(Duration::from_millis(20))),
        );
        let t0 = std::time::Instant::now();
        assert!(point("fault-test::slow").is_ok());
        assert!(t0.elapsed() >= Duration::from_millis(20));
        clear("fault-test::slow");
    }
}
