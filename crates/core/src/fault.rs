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
//! | `net::send_frame`    | shuffle transport      | before every frame write on a shuffle link (both ends) |
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
//! registry stays a pure counter machine.
//!
//! # Cross-process configuration
//!
//! Failpoints must also fire inside *child processes* — the chaos suite
//! for the networked shuffle spawns real worker processes and kills one
//! mid-superstep. A child cannot be configured through this registry's
//! in-process API, so specs travel in the `DESQ_FAILPOINTS` environment
//! variable and the child arms them at startup with [`init_from_env`]:
//!
//! ```text
//! DESQ_FAILPOINTS = entry (";" entry)*
//! entry           = site "=" spec
//! spec            = ["skip(" n ")."] ["times(" n ")."] action
//! action          = "panic" | "err" | "delay(" millis ")" | "exit(" code ")"
//! ```
//!
//! Examples: `net::send_frame=skip(3).exit(17)` kills the process on its
//! 4th frame send; `bsp::reduce_merge=times(2).err` fails the first two
//! reduce tasks; `net::heartbeat=delay(500)` stalls every heartbeat by
//! half a second. Omitted `skip` defaults to 0, omitted `times` to
//! "forever". [`FailSpec::from_env`] parses a single spec string and
//! rejects hostile input (unknown actions, overflowing counters, empty
//! sites) with a typed error instead of guessing.

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
    /// Terminate the whole process with the given exit code — the real
    /// worker-death injection for cross-process chaos tests. Unlike
    /// [`Panic`](FailAction::Panic), nothing catches this: sockets close
    /// mid-frame exactly as they would when a machine dies.
    Exit(i32),
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

    /// Parses the environment spec grammar (see the module docs):
    /// `[skip(<n>).][times(<n>).]<action>` with `action` one of `panic`,
    /// `err`, `delay(<millis>)`, `exit(<code>)`. Hostile input — unknown
    /// actions, non-numeric or overflowing counters, empty specs, stray
    /// clauses — yields [`Error::Invalid`], never a panic or a default.
    pub fn from_env(spec: &str) -> Result<FailSpec> {
        fn clause_arg<'s>(clause: &'s str, name: &str) -> Result<Option<&'s str>> {
            let Some(rest) = clause.strip_prefix(name) else {
                return Ok(None);
            };
            rest.strip_prefix('(')
                .and_then(|r| r.strip_suffix(')'))
                .map(Some)
                .ok_or_else(|| {
                    Error::Invalid(format!(
                        "failpoint spec clause {clause:?}: expected {name}(…)"
                    ))
                })
        }
        fn parse_u64(what: &str, s: &str) -> Result<u64> {
            s.trim().parse().map_err(|_| {
                Error::Invalid(format!(
                    "failpoint spec: {what} {s:?} is not a valid number"
                ))
            })
        }

        let mut skip = 0u64;
        let mut times = u64::MAX;
        let mut rest = spec.trim();
        if rest.is_empty() {
            return Err(Error::Invalid("failpoint spec is empty".into()));
        }
        // Leading `skip(n).` then `times(n).` clauses, each at most once.
        for (name, slot) in [("skip", &mut skip), ("times", &mut times)] {
            if let Some((head, tail)) = rest.split_once('.') {
                if let Some(arg) = clause_arg(head.trim(), name)? {
                    *slot = parse_u64(name, arg)?;
                    rest = tail.trim();
                }
            }
        }
        let action = match rest {
            "panic" => FailAction::Panic,
            "err" => FailAction::Err,
            other => {
                if let Some(ms) = clause_arg(other, "delay")? {
                    FailAction::Delay(Duration::from_millis(parse_u64("delay", ms)?))
                } else if let Some(code) = clause_arg(other, "exit")? {
                    let code = code.trim().parse::<i32>().map_err(|_| {
                        Error::Invalid(format!(
                            "failpoint spec: exit code {code:?} is not a valid i32"
                        ))
                    })?;
                    FailAction::Exit(code)
                } else {
                    return Err(Error::Invalid(format!(
                        "failpoint spec: unknown action {other:?} \
                         (expected panic, err, delay(ms) or exit(code))"
                    )));
                }
            }
        };
        Ok(FailSpec {
            skip,
            times,
            action,
        })
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
        FailAction::Exit(code) => {
            eprintln!("failpoint {site}: exiting with code {code}");
            std::process::exit(code)
        }
    }
}

/// Arms every failpoint named in the `DESQ_FAILPOINTS` environment
/// variable (see the module docs for the format) and returns how many
/// sites were configured. Child processes of the chaos suites call this
/// at startup; a missing or empty variable arms nothing. Malformed
/// entries are an error — a chaos test with a typo'd spec must fail
/// loudly, not silently run fault-free.
pub fn init_from_env() -> Result<usize> {
    let Ok(raw) = std::env::var("DESQ_FAILPOINTS") else {
        return Ok(0);
    };
    let mut armed = 0;
    for entry in raw.split(';').filter(|e| !e.trim().is_empty()) {
        let (site, spec) = entry.split_once('=').ok_or_else(|| {
            Error::Invalid(format!(
                "DESQ_FAILPOINTS entry {entry:?}: expected site=spec"
            ))
        })?;
        let site = site.trim();
        if site.is_empty() {
            return Err(Error::Invalid(format!(
                "DESQ_FAILPOINTS entry {entry:?}: empty site name"
            )));
        }
        configure(site, FailSpec::from_env(spec.trim())?);
        armed += 1;
    }
    Ok(armed)
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
    fn env_spec_grammar_parses() {
        assert_eq!(
            FailSpec::from_env("panic").unwrap(),
            FailSpec::always(FailAction::Panic)
        );
        assert_eq!(
            FailSpec::from_env("err").unwrap(),
            FailSpec::always(FailAction::Err)
        );
        assert_eq!(
            FailSpec::from_env("delay(250)").unwrap(),
            FailSpec::always(FailAction::Delay(Duration::from_millis(250)))
        );
        assert_eq!(
            FailSpec::from_env("exit(17)").unwrap(),
            FailSpec::always(FailAction::Exit(17))
        );
        assert_eq!(
            FailSpec::from_env("skip(3).exit(1)").unwrap(),
            FailSpec {
                skip: 3,
                times: u64::MAX,
                action: FailAction::Exit(1),
            }
        );
        assert_eq!(
            FailSpec::from_env("times(2).err").unwrap(),
            FailSpec {
                skip: 0,
                times: 2,
                action: FailAction::Err,
            }
        );
        assert_eq!(
            FailSpec::from_env(" skip(1).times(4).delay(10) ").unwrap(),
            FailSpec {
                skip: 1,
                times: 4,
                action: FailAction::Delay(Duration::from_millis(10)),
            }
        );
    }

    #[test]
    fn env_spec_rejects_hostile_input() {
        for bad in [
            "",
            "   ",
            "boom",
            "panic.",
            "skip(2)",                          // clause without an action
            "skip().panic",                     // empty counter
            "skip(x).panic",                    // non-numeric counter
            "skip(18446744073709551616).panic", // u64 overflow
            "delay(-5)",
            "delay(1.5)",
            "delay(9999999999999999999999)",
            "exit(99999999999999)", // i32 overflow
            "exit()",
            "times(1).times(2).panic", // duplicate clause
            "skip(1)panic",            // missing separator
        ] {
            assert!(
                matches!(FailSpec::from_env(bad), Err(Error::Invalid(_))),
                "spec {bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn init_from_env_arms_every_entry() {
        // Env vars are process-global: use unique site names and restore
        // the variable afterwards.
        std::env::set_var(
            "DESQ_FAILPOINTS",
            "fault-test::env_a=skip(1).err; fault-test::env_b=times(1).err;;",
        );
        let armed = init_from_env().unwrap();
        std::env::remove_var("DESQ_FAILPOINTS");
        assert_eq!(armed, 2);
        assert!(point("fault-test::env_a").is_ok());
        assert!(point("fault-test::env_a").is_err());
        assert!(point("fault-test::env_b").is_err());
        assert!(point("fault-test::env_b").is_ok());
        clear("fault-test::env_a");
        clear("fault-test::env_b");

        std::env::set_var("DESQ_FAILPOINTS", "no-equals-sign");
        let err = init_from_env().unwrap_err();
        std::env::remove_var("DESQ_FAILPOINTS");
        assert!(matches!(err, Error::Invalid(_)));
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
