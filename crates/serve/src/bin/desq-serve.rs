//! The `desq-serve` command: run the daemon or query one.
//!
//! ```text
//! desq-serve serve [--listen ADDR] --corpus NAME=SPEC ...
//!                  [--max-inflight N] [--max-budget N] [--max-patterns N]
//!                  [--io-timeout-ms N] [--max-deadline-ms N]
//! desq-serve query [--addr ADDR] --corpus NAME --pexp EXPR --sigma N
//!                  [--anchored] [--algo desq-dfs|desq-count|d-seq|d-cand]
//!                  [--budget N] [--max-patterns N] [--workers N]
//!                  [--deadline-ms N] [--retries N]
//! ```
//!
//! Corpus specs are the `CorpusStore::load_spec` forms (`toy`,
//! `nyt:<sentences>[:seed]`, `amzn:<customers>`, `cw:<sentences>`).
//! `query` prints one pattern per line as frequency-encoded item ids plus
//! the frequency (the dictionary lives server-side), then a summary line
//! with wall time, cache outcome and queue wait.
//!
//! Robustness knobs: `--io-timeout-ms` evicts clients that stall on a
//! socket read or write — before sending a complete request or while
//! draining the response (0 disables) — `--max-deadline-ms` caps every
//! query's wall-clock deadline server-side, `--deadline-ms` asks the
//! server to abort this query with `DeadlineExceeded` past the given
//! wall-clock budget, and `--retries` retries `Busy`/connection-refused
//! answers with jittered exponential backoff.

use std::net::ToSocketAddrs;
use std::process::ExitCode;
use std::time::Duration;

use desq_serve::client::{Client, RetryPolicy};
use desq_serve::proto::{Request, WireAlgo};
use desq_serve::server::{ServeLimits, Server};
use desq_serve::store::CorpusStore;

const DEFAULT_ADDR: &str = "127.0.0.1:4711";

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  desq-serve serve [--listen ADDR] --corpus NAME=SPEC ... \
         [--max-inflight N] [--max-budget N] [--max-patterns N] \
         [--io-timeout-ms N] [--max-deadline-ms N]\n  \
         desq-serve query [--addr ADDR] --corpus NAME --pexp EXPR --sigma N \
         [--anchored] [--algo A] [--budget N] [--max-patterns N] [--workers N] \
         [--deadline-ms N] [--retries N]"
    );
    ExitCode::FAILURE
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("desq-serve: {msg}");
    ExitCode::FAILURE
}

/// Parses the numeric value of `flag`.
fn number<T: std::str::FromStr>(flag: &str, value: String) -> Result<T, String> {
    value.parse().map_err(|_| format!("{flag}: not a number"))
}

fn serve(args: &[String]) -> ExitCode {
    let mut listen = DEFAULT_ADDR.to_string();
    let mut limits = ServeLimits::default();
    let mut store = CorpusStore::new();
    let mut corpora = 0usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{what} needs a value"))
        };
        let result: Result<(), String> = (|| {
            match arg.as_str() {
                "--listen" => listen = value("--listen")?,
                "--corpus" => {
                    let spec = value("--corpus")?;
                    let (name, spec) = spec
                        .split_once('=')
                        .ok_or_else(|| format!("--corpus {spec:?}: expected NAME=SPEC"))?;
                    store
                        .load_spec(name, spec)
                        .map_err(|e| format!("loading corpus {name:?}: {e}"))?;
                    corpora += 1;
                    eprintln!("loaded corpus {name} ({spec})");
                }
                "--max-inflight" => limits.max_inflight = number(arg, value(arg)?)?,
                "--max-budget" => limits.max_budget = number(arg, value(arg)?)?,
                "--max-patterns" => limits.max_patterns = number(arg, value(arg)?)?,
                "--io-timeout-ms" => {
                    let ms = number(arg, value(arg)?)?;
                    limits.io_timeout = (ms > 0).then(|| Duration::from_millis(ms));
                }
                "--max-deadline-ms" => {
                    let ms = number(arg, value(arg)?)?;
                    limits.max_deadline = (ms > 0).then(|| Duration::from_millis(ms));
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
            Ok(())
        })();
        if let Err(msg) = result {
            return fail(&msg);
        }
    }
    if corpora == 0 {
        return fail("serve needs at least one --corpus NAME=SPEC");
    }
    match Server::new(store).with_limits(limits).spawn(&listen) {
        Ok(handle) => {
            println!("desq-serve listening on {}", handle.addr());
            handle.wait();
            ExitCode::SUCCESS
        }
        Err(e) => fail(&format!("serving on {listen}: {e}")),
    }
}

fn query(args: &[String]) -> ExitCode {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut corpus = None;
    let mut pexp = None;
    let mut sigma = None;
    let (mut algo, mut budget, mut max_patterns, mut workers, mut deadline_ms) =
        (None, None, None, None, None);
    let mut anchored = false;
    let mut retries = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{what} needs a value"))
        };
        let result: Result<(), String> = (|| {
            match arg.as_str() {
                "--addr" => addr = value("--addr")?,
                "--corpus" => corpus = Some(value("--corpus")?),
                "--pexp" => pexp = Some(value("--pexp")?),
                "--sigma" => sigma = Some(number(arg, value(arg)?)?),
                "--anchored" => anchored = true,
                "--algo" => {
                    algo = Some(WireAlgo::parse(&value(arg)?).map_err(|e| e.to_string())?);
                }
                "--budget" => budget = Some(number(arg, value(arg)?)?),
                "--max-patterns" => max_patterns = Some(number(arg, value(arg)?)?),
                "--workers" => workers = Some(number(arg, value(arg)?)?),
                "--deadline-ms" => deadline_ms = Some(number(arg, value(arg)?)?),
                "--retries" => retries = Some(number(arg, value(arg)?)?),
                other => return Err(format!("unknown flag {other:?}")),
            }
            Ok(())
        })();
        if let Err(msg) = result {
            return fail(&msg);
        }
    }
    let (Some(corpus), Some(pexp), Some(sigma)) = (corpus, pexp, sigma) else {
        return fail("query needs --corpus, --pexp and --sigma");
    };
    let base = Request::new(corpus, pexp, sigma);
    let req = Request {
        unanchored: !anchored,
        algo: algo.unwrap_or(base.algo),
        budget: budget.unwrap_or(base.budget),
        max_patterns: max_patterns.unwrap_or(base.max_patterns),
        workers: workers.unwrap_or(base.workers),
        deadline_millis: deadline_ms.unwrap_or(base.deadline_millis),
        ..base
    };
    let sock_addr = match addr.to_socket_addrs().ok().and_then(|mut a| a.next()) {
        Some(a) => a,
        None => return fail(&format!("cannot resolve {addr:?}")),
    };
    let mut client = Client::new(sock_addr);
    if let Some(max_retries) = retries {
        client = client.with_retry(RetryPolicy {
            max_retries,
            ..RetryPolicy::default()
        });
    }
    match client.query(&req) {
        Ok(out) => {
            for (pattern, freq) in &out.patterns {
                let items: Vec<String> = pattern.iter().map(u32::to_string).collect();
                println!("{}\t{freq}", items.join(" "));
            }
            eprintln!(
                "{} patterns in {:.3}s ({}, queue wait {:.3}ms, cache {}H/{}M)",
                out.patterns.len(),
                out.metrics.total_secs(),
                if out.stats.cache_hit {
                    "fst cache hit"
                } else {
                    "fst compiled"
                },
                out.stats.queue_wait_nanos as f64 / 1e6,
                out.stats.cache_hits,
                out.stats.cache_misses,
            );
            ExitCode::SUCCESS
        }
        Err(e) => fail(&e.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => serve(&args[1..]),
        Some("query") => query(&args[1..]),
        _ => usage(),
    }
}
