//! The two measurements the gated benchmark (`benchmark/`,
//! `BENCHMARK.json`) cannot take yet, on an NYT-like corpus at σ = 10.
//! Everything else this harness used to time — local DESQ-DFS, D-SEQ /
//! D-CAND, DESQ-COUNT, worker scaling, the FST optimizer — is measured
//! there, same-run and with spread; these two modes go when a benchmark
//! PR ports them.
//!
//! * **serve** (`perf_smoke serve`): spawns a `desq-serve` daemon on an
//!   ephemeral localhost port with the corpus resident, measures
//!   per-constraint cold latency (first query: FST compilation included)
//!   against warm latency (cache hit) for N2/N3/N5, and 1-client vs
//!   4-client warm throughput on N2, writing `BENCH_7.json` with the
//!   server's cache hit/miss counters — the only measurement of
//!   *concurrent* serving. The cold/warm ratio is the headline (the warm
//!   path must be measurably faster because it skips compilation).
//!
//! * **dist-net** (`perf_smoke dist-net`): runs D-SEQ on N2/N3 over the
//!   *networked* shuffle — a `NetCoordinator` driving real worker
//!   processes (this binary re-invoked in the hidden `dist-net-worker`
//!   mode) over localhost TCP — against the in-process transport on the
//!   same engine, and writes `BENCH_8.json` with the network-over-local
//!   wall ratio plus the robustness counters (`retried_tasks`,
//!   `peer_timeouts`, straggler `max_task_nanos`). The in-process run *is*
//!   the reference, and the counters must read zero on a healthy link.

use std::fmt::Write as _;
use std::time::Instant;

use desq_core::mining::MiningContext;
use desq_core::{Dictionary, Fst, SequenceDb};
use desq_datagen::{nyt_like, NytConfig};
use desq_dist::patterns::Constraint;

/// Sequences in the generated NYT-like corpus.
const NYT_SIZE: usize = 40_000;
/// Support threshold of every measurement.
const SIGMA: u64 = 10;
/// Timed repetitions per configuration (the minimum is reported).
const REPS: usize = 5;
/// Worker threads of the distributed measurements.
const DIST_WORKERS: usize = 4;
/// Map partitions and reduce buckets of the distributed measurements.
const DIST_PARTITIONS: usize = 8;
const DIST_REDUCERS: usize = 8;

struct ServeRow {
    name: String,
    patterns: usize,
    cold_secs: f64,
    warm_secs: f64,
    /// Nanoseconds spent compiling the pexp on the (min) cold query.
    compile_nanos: u64,
    /// Min accept-to-mining-start nanoseconds, cold vs warm. Mining wall
    /// time is identical on both sides, so this is where the FST cache
    /// shows up: the warm path's queue wait drops by the compile time.
    cold_queue_wait_nanos: u64,
    warm_queue_wait_nanos: u64,
}

/// Queries per thread in the throughput measurement.
const SERVE_QUERIES: usize = 6;
/// Client threads of the concurrent throughput measurement.
const SERVE_CLIENTS: usize = 4;

fn serve_main(out_path: &str) {
    use desq_serve::client::Client;
    use desq_serve::proto::Request;
    use desq_serve::server::{ServeLimits, Server};
    use desq_serve::store::CorpusStore;

    let (dict, db) = nyt_like(&NytConfig::new(NYT_SIZE));
    // The latency tier: the full 40k-sequence vocabulary with a 2k-sequence
    // sample database, so per-query wall time is short enough for the fixed
    // costs the cache removes (pexp parse + FST compile) to be visible.
    let sample = desq_core::SequenceDb::new(db.sequences[..NYT_SIZE / 20].to_vec());
    let (dict, db, sample) = (
        std::sync::Arc::new(dict),
        std::sync::Arc::new(db),
        std::sync::Arc::new(sample),
    );
    let limits = ServeLimits {
        max_inflight: SERVE_CLIENTS + 1,
        ..ServeLimits::default()
    };
    // Spawning a server is cheap (the corpus Arcs are shared, nothing is
    // copied); a fresh one per cold repetition gives an empty FST cache.
    let spawn = || {
        let mut store = CorpusStore::new();
        store.insert("nyt", dict.clone(), db.clone());
        store.insert("nyt-sample", dict.clone(), sample.clone());
        Server::new(store)
            .with_limits(limits.clone())
            .spawn("127.0.0.1:0")
            .expect("bind ephemeral port")
    };
    let request =
        |corpus: &str, c: &Constraint| Request::new(corpus, c.expr.clone(), SIGMA).unanchored();

    // Cold vs warm latency on the sample corpus. Cold: min over REPS
    // first-queries, each against a freshly spawned server (empty cache,
    // so the FST compiles). Warm: min over REPS cache-hit queries on a
    // persistent server. N2x16 repeats N2's constraint up to 16 times —
    // the compile-heaviest expression of the set (~100 FST states), where
    // the cache's saving is largest.
    let persistent = spawn();
    let client = Client::new(persistent.addr());
    let constraints = [
        desq_dist::patterns::n2(),
        desq_dist::patterns::n3(),
        desq_dist::patterns::n5(),
        Constraint::new("N2x16", "(ENTITY^ VERB+ ENTITY^){1,16}"),
    ];
    let mut rows: Vec<ServeRow> = Vec::new();
    for c in &constraints {
        let mut cold_secs = f64::MAX;
        let mut compile_nanos = 0;
        let mut cold_queue_wait_nanos = u64::MAX;
        let mut patterns = 0;
        for _ in 0..REPS {
            let fresh = spawn();
            let t0 = Instant::now();
            let cold = Client::new(fresh.addr())
                .query(&request("nyt-sample", c))
                .expect("cold query");
            let secs = t0.elapsed().as_secs_f64();
            assert!(
                !cold.stats.cache_hit,
                "{}: fresh server must compile",
                c.name
            );
            assert!(cold.stats.compile_nanos > 0);
            if secs < cold_secs {
                cold_secs = secs;
                compile_nanos = cold.stats.compile_nanos;
            }
            cold_queue_wait_nanos = cold_queue_wait_nanos.min(cold.stats.queue_wait_nanos);
            patterns = cold.patterns.len();
            fresh.shutdown();
        }
        let mut warm_secs = f64::MAX;
        let mut warm_queue_wait_nanos = u64::MAX;
        client
            .query(&request("nyt-sample", c))
            .expect("cache-priming query");
        for _ in 0..REPS {
            let t0 = Instant::now();
            let warm = client.query(&request("nyt-sample", c)).expect("warm query");
            warm_secs = warm_secs.min(t0.elapsed().as_secs_f64());
            warm_queue_wait_nanos = warm_queue_wait_nanos.min(warm.stats.queue_wait_nanos);
            assert!(warm.stats.cache_hit, "{}: repeat query must hit", c.name);
            assert_eq!(
                warm.stats.compile_nanos, 0,
                "warm query must skip compilation"
            );
            assert_eq!(warm.patterns.len(), patterns);
        }
        rows.push(ServeRow {
            name: c.name.clone(),
            patterns,
            cold_secs,
            warm_secs,
            compile_nanos,
            cold_queue_wait_nanos,
            warm_queue_wait_nanos,
        });
        eprintln!("measured serve/{}", c.name);
    }

    // Warm throughput on the full corpus with the cheapest constraint: the
    // same number of queries issued by one client sequentially vs spread
    // over 4 concurrent clients, in queries per second.
    let n2 = desq_dist::patterns::n2();
    client
        .query(&request("nyt", &n2))
        .expect("cache-priming query");
    let t0 = Instant::now();
    for _ in 0..SERVE_CLIENTS * SERVE_QUERIES {
        client
            .query(&request("nyt", &n2))
            .expect("sequential query");
    }
    let seq_qps = (SERVE_CLIENTS * SERVE_QUERIES) as f64 / t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..SERVE_CLIENTS {
            let request = request("nyt", &n2);
            let client = &client;
            scope.spawn(move || {
                for _ in 0..SERVE_QUERIES {
                    client.query(&request).expect("concurrent query");
                }
            });
        }
    });
    let conc_qps = (SERVE_CLIENTS * SERVE_QUERIES) as f64 / t0.elapsed().as_secs_f64();
    let stats = client
        .query(&request("nyt", &n2))
        .expect("final stats query")
        .stats;

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"desq-serve daemon perf smoke\",");
    let _ = writeln!(
        json,
        "  \"workload\": {{\"latency_dataset\": \"nyt_like({NYT_SIZE}) dict, {} \
         sample sequences\", \"throughput_dataset\": \"nyt_like({NYT_SIZE})\", \
         \"sigma\": {SIGMA}, \"reps\": {REPS}, \"cores\": {}, \"metric\": \
         \"min query wall seconds (cold = first query on a fresh server, compile \
         included; warm = cache hit) + min accept-to-mining queue-wait nanos\"}},",
        NYT_SIZE / 20,
        std::thread::available_parallelism().map_or(1, usize::from),
    );
    json.push_str("  \"constraints\": [\n");
    let (mut cold_total, mut warm_total) = (0.0, 0.0);
    let (mut cold_wait_total, mut warm_wait_total) = (0u64, 0u64);
    for (i, r) in rows.iter().enumerate() {
        cold_total += r.cold_secs;
        warm_total += r.warm_secs;
        cold_wait_total += r.cold_queue_wait_nanos;
        warm_wait_total += r.warm_queue_wait_nanos;
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"patterns\": {}, \"cold_secs\": {:.4}, \
             \"warm_secs\": {:.4}, \"cold_over_warm\": {:.2}, \"compile_nanos\": {}, \
             \"cold_queue_wait_nanos\": {}, \"warm_queue_wait_nanos\": {}, \
             \"queue_wait_ratio\": {:.2}}}{}",
            r.name,
            r.patterns,
            r.cold_secs,
            r.warm_secs,
            r.cold_secs / r.warm_secs,
            r.compile_nanos,
            r.cold_queue_wait_nanos,
            r.warm_queue_wait_nanos,
            r.cold_queue_wait_nanos as f64 / r.warm_queue_wait_nanos.max(1) as f64,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"throughput\": {{\"constraint\": \"N2\", \"queries\": {}, \
         \"clients1_qps\": {:.2}, \"clients{SERVE_CLIENTS}_qps\": {:.2}, \
         \"concurrent_speedup\": {:.2}}},",
        SERVE_CLIENTS * SERVE_QUERIES,
        seq_qps,
        conc_qps,
        conc_qps / seq_qps,
    );
    let _ = writeln!(
        json,
        "  \"fst_cache\": {{\"hits\": {}, \"misses\": {}}},",
        stats.cache_hits, stats.cache_misses,
    );
    let _ = writeln!(
        json,
        "  \"aggregate\": {{\"cold_secs\": {:.4}, \"warm_secs\": {:.4}, \
         \"cold_over_warm\": {:.2}, \"cold_queue_wait_nanos\": {}, \
         \"warm_queue_wait_nanos\": {}, \"queue_wait_ratio\": {:.2}}}",
        cold_total,
        warm_total,
        cold_total / warm_total,
        cold_wait_total,
        warm_wait_total,
        cold_wait_total as f64 / warm_wait_total.max(1) as f64,
    );
    json.push_str("}\n");

    persistent.shutdown();
    std::fs::write(out_path, &json).expect("write BENCH_7.json");
    print!("{json}");
    eprintln!("wrote {out_path}");
}

/// Worker processes of the networked measurement.
const NET_WORKERS: usize = 2;
/// Timed repetitions of the networked measurement (each spawns fresh
/// worker processes, so fewer than [`REPS`]).
const NET_REPS: usize = 3;

/// The distributed measurements' run: σ, workers, map partitions and
/// reduce buckets — identical on the coordinator and every worker process.
fn dist_ctx<'a>(db: &'a SequenceDb, dict: &'a Dictionary, fst: &'a Fst) -> MiningContext<'a> {
    MiningContext::sequential(db, dict, SIGMA)
        .with_fst(fst)
        .with_parallelism(DIST_WORKERS, DIST_PARTITIONS)
        .with_reducers(DIST_REDUCERS)
}

fn net_constraint(name: &str) -> Constraint {
    match name {
        "N2" => desq_dist::patterns::n2(),
        "N3" => desq_dist::patterns::n3(),
        "N5" => desq_dist::patterns::n5(),
        "N4" => desq_dist::patterns::n4(),
        other => panic!("unknown constraint {other}"),
    }
}

/// The hidden worker mode behind `dist-net`: builds the same corpus and
/// constraint as the coordinator, reports readiness on stdout (the
/// coordinator starts timing only once every worker is up, so corpus
/// generation stays outside the measurement), and serves tasks until the
/// job ends.
fn dist_net_worker_main(addr: &str, constraint: &str) {
    use std::io::Write as _;
    let (dict, db) = nyt_like(&NytConfig::new(NYT_SIZE));
    let c = net_constraint(constraint);
    let fst = c.compile(&dict).unwrap();
    println!("ready");
    std::io::stdout().flush().expect("flush readiness line");
    desq_dist::dseq::d_seq_worker(
        &dist_ctx(&db, &dict, &fst),
        addr.parse().expect("coordinator address"),
        &desq_bsp::NetConfig::default(),
        desq_dist::DSeqConfig::default(),
    )
    .expect("worker run");
}

struct NetRow {
    name: String,
    patterns: usize,
    local_secs: f64,
    net_secs: f64,
    shuffle_bytes: u64,
    retried_tasks: u64,
    peer_timeouts: u64,
    max_task_nanos: u64,
}

fn measure_dist_net(c: &Constraint) -> NetRow {
    use std::io::BufRead as _;

    let (dict, db) = nyt_like(&NytConfig::new(NYT_SIZE));
    let fst = c.compile(&dict).unwrap();
    let ctx = dist_ctx(&db, &dict, &fst);
    let config = desq_dist::DSeqConfig::default();

    // In-process reference: the same round through `InProcess` — the
    // program `Miner::mine` and the benchmark run.
    let mut local_secs = f64::MAX;
    let mut patterns = 0;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let res = desq_dist::dseq::d_seq_via(&ctx, &desq_bsp::InProcess, config)
            .expect("in-process reference run");
        local_secs = local_secs.min(t0.elapsed().as_secs_f64());
        patterns = res.patterns.len();
    }

    // Networked runs: a coordinator is single-job, so every repetition
    // binds a fresh one and spawns fresh worker processes; timing starts
    // after every worker reports ready (corpus generation excluded, TCP
    // handshake and task scheduling included).
    let exe = std::env::current_exe().expect("current_exe");
    let mut net_secs = f64::MAX;
    let (mut shuffle_bytes, mut retried_tasks, mut peer_timeouts, mut max_task_nanos) =
        (0, 0, 0, 0);
    for _ in 0..NET_REPS {
        let coord = desq_bsp::NetCoordinator::bind("127.0.0.1:0", desq_bsp::NetConfig::default())
            .expect("bind coordinator");
        let addr = coord.local_addr().expect("coordinator address");
        let mut children = Vec::new();
        for _ in 0..NET_WORKERS {
            let mut child = std::process::Command::new(&exe)
                .args(["dist-net-worker", &addr.to_string(), &c.name])
                .stdout(std::process::Stdio::piped())
                .spawn()
                .expect("spawn worker process");
            let mut ready = String::new();
            std::io::BufReader::new(child.stdout.take().expect("worker stdout"))
                .read_line(&mut ready)
                .expect("worker readiness line");
            assert_eq!(ready.trim(), "ready", "worker failed to start");
            children.push(child);
        }
        let t0 = Instant::now();
        let res = desq_dist::dseq::d_seq_via(&ctx, &coord, config).expect("networked run");
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(res.patterns.len(), patterns, "network run must match local");
        if secs < net_secs {
            net_secs = secs;
            shuffle_bytes = res.metrics.shuffle_bytes;
            retried_tasks = res.metrics.retried_tasks;
            peer_timeouts = res.metrics.peer_timeouts;
            max_task_nanos = res.metrics.max_task_nanos;
        }
        for mut child in children {
            assert!(child.wait().expect("worker exit").success());
        }
    }
    NetRow {
        name: c.name.clone(),
        patterns,
        local_secs,
        net_secs,
        shuffle_bytes,
        retried_tasks,
        peer_timeouts,
        max_task_nanos,
    }
}

fn dist_net_main(out_path: &str) {
    let constraints = [desq_dist::patterns::n2(), desq_dist::patterns::n3()];
    let mut rows: Vec<NetRow> = Vec::new();
    for c in &constraints {
        rows.push(measure_dist_net(c));
        eprintln!("measured dist-net/{}", c.name);
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"networked shuffle perf smoke\",");
    let _ = writeln!(
        json,
        "  \"workload\": {{\"dataset\": \"nyt_like({NYT_SIZE})\", \"sigma\": {SIGMA}, \
         \"worker_processes\": {NET_WORKERS}, \"threads_per_worker\": {DIST_WORKERS}, \
         \"partitions\": {DIST_PARTITIONS}, \"reducers\": {DIST_REDUCERS}, \
         \"local_reps\": {REPS}, \"net_reps\": {NET_REPS}, \
         \"metric\": \"min wall seconds, D-SEQ over localhost TCP vs in-process\"}},"
    );
    let _ = writeln!(
        json,
        "  \"baseline\": \"in-process ShuffleTransport on the same engine (no recorded \
         pre-PR numbers: the networked backend is new)\","
    );
    json.push_str("  \"jobs\": [\n");
    let (mut local_total, mut net_total) = (0.0, 0.0);
    let (mut retried_total, mut timeout_total) = (0u64, 0u64);
    for (i, r) in rows.iter().enumerate() {
        local_total += r.local_secs;
        net_total += r.net_secs;
        retried_total += r.retried_tasks;
        timeout_total += r.peer_timeouts;
        let _ = writeln!(
            json,
            "    {{\"algo\": \"D-SEQ\", \"name\": \"{}\", \"patterns\": {}, \
             \"local_secs\": {:.4}, \"net_secs\": {:.4}, \"net_over_local\": {:.2}, \
             \"shuffle_bytes\": {}, \"retried_tasks\": {}, \"peer_timeouts\": {}, \
             \"max_task_nanos\": {}}}{}",
            r.name,
            r.patterns,
            r.local_secs,
            r.net_secs,
            r.net_secs / r.local_secs,
            r.shuffle_bytes,
            r.retried_tasks,
            r.peer_timeouts,
            r.max_task_nanos,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"aggregate\": {{\"local_secs\": {:.4}, \"net_secs\": {:.4}, \
         \"net_over_local\": {:.2}, \"retried_tasks\": {retried_total}, \
         \"peer_timeouts\": {timeout_total}}}",
        local_total,
        net_total,
        net_total / local_total,
    );
    json.push_str("}\n");

    std::fs::write(out_path, &json).expect("write BENCH_8.json");
    print!("{json}");
    eprintln!("wrote {out_path}");
}
fn main() {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("serve") => {
            let out = args.next().unwrap_or_else(|| "BENCH_7.json".to_string());
            serve_main(&out);
        }
        Some("dist-net") => {
            let out = args.next().unwrap_or_else(|| "BENCH_8.json".to_string());
            dist_net_main(&out);
        }
        Some("dist-net-worker") => {
            let addr = args.next().expect("dist-net-worker <addr> <constraint>");
            let constraint = args.next().expect("dist-net-worker <addr> <constraint>");
            dist_net_worker_main(&addr, &constraint);
        }
        _ => {
            eprintln!("usage: perf_smoke serve|dist-net [out.json]");
            std::process::exit(2);
        }
    }
}
