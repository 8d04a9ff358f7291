//! The traced run: per-layer attribution, measured from outside.
//!
//! Nothing outside `benchmark/` changes, so a layer is measured by timing
//! calls into its public functions on the workload's own corpus and
//! constraints (a *replay*), and by reading the public `MiningMetrics` /
//! `ServerStats` the jobs already return. A layer no job of the workload
//! reaches through its public entry point reads exactly 0 — the workload's
//! "bypass" prediction, made checkable.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use desq::{ExecutionPolicy, MiningSession};
use desq_bsp::{decode_item_seq, encode_item_seq};
use desq_core::fst::{CandidateCounter, FstIndex, RunScratch, RunWalker};
use desq_core::mining::DEFAULT_BUDGET;
use desq_core::{Fst, OptLevel, PatEx};
use desq_dist::{PivotScratch, PivotSearch};
use desq_miner::{LocalMiner, MinerConfig, WeightedInput};

use crate::json::Json;
use crate::run::{job_samples, run_round, Checker, Metric, Outputs, Round, RunConfig};
use crate::spec::{self, constraints_of, Algo, JobSpec, Workload, SIGMA, WORKERS};
use crate::state::{constraint, err, State};
use crate::stats::{self, median, Summary};
use crate::sys;
use crate::trace::Tracer;

/// Repetition counts of the replays; every reported time is a median.
struct Reps {
    /// Whole jobs and passes over the corpus.
    heavy: usize,
    /// Whole rounds at one worker and at two, interleaved.
    rounds: usize,
    parse: usize,
    compile: usize,
    build: usize,
    /// Served-versus-in-process query pairs per constraint.
    wire: usize,
}

impl Reps {
    fn of(quick: bool) -> Reps {
        if quick {
            Reps {
                heavy: 1,
                rounds: 1,
                parse: 3,
                compile: 2,
                build: 2,
                wire: 1,
            }
        } else {
            Reps {
                heavy: 3,
                rounds: 2,
                parse: 200,
                compile: 50,
                build: 20,
                wire: 5,
            }
        }
    }
}

/// Median wall seconds of `reps` calls of `f`. The value `f` returns is
/// dropped after the clock stops.
fn median_secs<T>(reps: usize, mut f: impl FnMut() -> Result<T, String>) -> Result<f64, String> {
    let mut secs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        let value = black_box(f()?);
        secs.push(t0.elapsed().as_secs_f64());
        drop(value);
    }
    Ok(median(&secs))
}

/// What a round's outputs say about the layers beneath the jobs, kept
/// after the round's patterns are dropped.
#[derive(Default)]
struct Facts {
    map_s: f64,
    reduce_s: f64,
    /// Map seconds of the D-SEQ jobs alone.
    dseq_map_s: f64,
    shuffle_bytes: u64,
    shuffle_records: u64,
    balance: f64,
    max_task_s: f64,
    queue_wait_us: Vec<f64>,
    result_bytes: usize,
    cache: (u64, u64),
}

impl Facts {
    fn of(workload: &Workload, outputs: &Outputs) -> Facts {
        let mut f = Facts::default();
        for (job, out) in workload.jobs.iter().zip(outputs) {
            let Ok(out) = out else { continue };
            let m = &out.metrics;
            if job.algo.is_dist() {
                f.map_s += m.map_secs();
                f.reduce_s += m.reduce_secs();
                if job.algo == Algo::DSeq {
                    f.dseq_map_s += m.map_secs();
                }
                f.shuffle_bytes += m.shuffle_bytes;
                f.shuffle_records += m.shuffle_records;
                f.balance = f.balance.max(m.balance());
                f.max_task_s = f.max_task_s.max(m.max_task_nanos as f64 / 1e9);
            }
            if let Some((stats, bytes)) = &out.served {
                f.queue_wait_us.push(stats.queue_wait_nanos as f64 / 1e3);
                f.result_bytes += bytes;
                f.cache = (stats.cache_hits, stats.cache_misses);
            }
        }
        f
    }
}

/// The per-layer values of a run, by metric name; a name never set reads 0.
struct Values(BTreeMap<String, f64>);

impl Values {
    fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    /// The values in `BENCHMARK.json` order. A name outside the list is a
    /// harness bug, not a metric.
    fn into_metrics(mut self) -> Result<Vec<Metric>, String> {
        let metrics = spec::per_layer()
            .into_iter()
            .map(|m| Metric {
                value: self.0.remove(&m.name).unwrap_or(0.0),
                name: m.name,
                unit: m.unit,
            })
            .collect();
        match self.0.keys().next() {
            Some(stray) => Err(format!("per-layer metric {stray:?} is not in the list")),
            None => Ok(metrics),
        }
    }
}

/// Distinct jobs of the workload that satisfy `keep`.
fn jobs_where(workload: &Workload, keep: impl Fn(&JobSpec) -> bool) -> Vec<JobSpec> {
    workload.distinct_jobs().into_iter().filter(keep).collect()
}

fn dfs_job(constraint: usize) -> JobSpec {
    JobSpec {
        algo: Algo::Dfs,
        constraint,
    }
}

/// Median seconds of a sequential DESQ-DFS run of `N<n>` under `policy`,
/// and its pattern count.
fn dfs_secs(
    state: &State,
    n: usize,
    policy: ExecutionPolicy,
    reps: usize,
) -> Result<(f64, usize), String> {
    let session = state
        .builder(n)
        .execution_policy(policy)
        .build()
        .map_err(err)?;
    let mut patterns = 0;
    let secs = median_secs(reps, || {
        let result = session.run().map_err(err)?;
        patterns = result.patterns.len();
        Ok(result)
    })?;
    Ok((secs, patterns))
}

/// What a traced run adds to a run: the per-layer metrics, fields for the
/// run record, and the spans.
pub struct Traced {
    pub metrics: Vec<Metric>,
    pub record: Vec<(&'static str, Json)>,
    pub spans: Json,
}

/// Runs the alternating rounds and the layer replays of a traced run.
pub fn traced(
    cfg: &RunConfig,
    workload: &Workload,
    state: &State,
    cold: &Outputs,
    checker: &mut Checker,
    min_rounds: usize,
) -> Result<Traced, String> {
    let reps = Reps::of(cfg.quick);
    let mut v = Values(BTreeMap::new());

    // Untraced and traced rounds, alternating, for half the stated time —
    // or, for a served workload, until the client has seen enough queries
    // to support a p99, within the stated time.
    let served_queries = workload
        .jobs
        .iter()
        .filter(|j| j.algo == Algo::Serve)
        .count();
    let p99_queries = if cfg.quick {
        0
    } else {
        100 * (stats::TAIL_SUPPORT + 1)
    };
    let mut tracer = Tracer::new();
    // In order: untraced, traced, untraced, …
    let mut rounds: Vec<Round> = Vec::new();
    let mut facts: Vec<Facts> = Vec::new();
    let t0 = Instant::now();
    loop {
        let elapsed = t0.elapsed().as_secs_f64();
        let wants_queries = rounds.len() * served_queries < p99_queries && elapsed < cfg.seconds;
        // Always a whole number of untraced/traced pairs.
        if rounds.len().is_multiple_of(2)
            && rounds.len() >= min_rounds
            && elapsed >= cfg.seconds / 2.0
            && !wants_queries
        {
            break;
        }
        let no = rounds.len() as u32 + 1;
        let spans = no.is_multiple_of(2).then_some(&mut tracer);
        let (round, outputs) = run_round(state, workload, no, spans);
        checker.check(workload, &outputs, true);
        facts.push(Facts::of(workload, &outputs));
        rounds.push(round);
    }
    let plain_secs: Vec<f64> = rounds.iter().step_by(2).map(|r| r.secs).collect();
    let spanned_secs: Vec<f64> = rounds.iter().skip(1).step_by(2).map(|r| r.secs).collect();
    // Each traced round against the untraced round just before it: the
    // box's slow phases last longer than a pair.
    let overheads: Vec<f64> = plain_secs
        .iter()
        .zip(&spanned_secs)
        .map(|(plain, spanned)| (spanned - plain) / plain)
        .collect();
    v.set("trace.overhead_share", median(&overheads));

    // The per-job split: the span around each job of a traced round.
    let mut job_spans: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for span in tracer.spans().iter().filter(|s| s.parent.is_some()) {
        job_spans
            .entry(span.name.as_str())
            .or_default()
            .push(span.nanos() as f64 / 1e9);
    }
    for job in workload.distinct_jobs() {
        let secs = job_spans
            .get(job.label().as_str())
            .map_or(0.0, |s| median(s));
        v.set(&job.metric(), job.in_unit(secs));
    }

    let samples = job_samples(workload, &rounds);
    let inputs: Vec<WeightedInput<'_>> = state
        .db
        .sequences
        .iter()
        .map(|s| (s.as_slice(), 1))
        .collect();
    let last_frequent = state.dict.last_frequent(SIGMA);

    // pexp, fst: parse and compile each distinct constraint.
    let (mut parse_s, mut full_s, mut none_s) = (0.0, 0.0, 0.0);
    let (mut states, mut transitions) = (0, 0);
    for n in workload.constraints() {
        let expr = constraint(n).expr;
        parse_s += median_secs(reps.parse, || {
            Ok(PatEx::parse(black_box(&expr)).map_err(err)?.unanchored())
        })?;
        let pexp = PatEx::parse(&expr).map_err(err)?.unanchored();
        let compile = |level| Fst::compile_with(black_box(&pexp), &state.dict, level).map_err(err);
        full_s += median_secs(reps.compile, || compile(OptLevel::Full))?;
        none_s += median_secs(reps.compile, || compile(OptLevel::None))?;
        let fst = compile(OptLevel::Full)?;
        states += fst.num_states();
        transitions += fst.num_transitions();
    }
    v.set("pexp.parse_us", parse_s * 1e6);
    v.set("fst.compile_us", full_s * 1e6);
    v.set("fst.opt_share", 1.0 - none_s / full_s);
    v.set("fst.states", states as f64);
    v.set("fst.transitions", transitions as f64);

    // session: builder -> build() for every distinct job.
    let mut build_s = 0.0;
    for job in workload.distinct_jobs() {
        build_s += median_secs(reps.build, || state.session(job, WORKERS))?;
    }
    v.set("session.build_us", build_s * 1e6);

    // session: a drained stream() against run(), over the DESQ-DFS jobs.
    let dfs_like = jobs_where(workload, |j| matches!(j.algo, Algo::Dfs | Algo::Serve));
    if !dfs_like.is_empty() {
        let (mut run_s, mut stream_s) = (0.0, 0.0);
        for &job in &dfs_like {
            let session = state.session(job, WORKERS)?;
            run_s += median_secs(reps.heavy, || session.run().map_err(err))?;
            stream_s += median_secs(reps.heavy, || {
                let mut stream = session.stream();
                let drained = stream.by_ref().count();
                stream.finish().map_err(err)?;
                Ok(drained)
            })?;
        }
        v.set("session.stream_over_run", stream_s / run_s);
    }

    // miner: table build and expansion of the constraints that run flat —
    // loose ones under Auto, and every served one (streaming forces Flat).
    let flat_jobs = jobs_where(workload, |j| match j.algo {
        Algo::Dfs => !j.selective(),
        Algo::Serve => true,
        _ => false,
    });
    let mut flat_secs: BTreeMap<usize, f64> = BTreeMap::new();
    if !flat_jobs.is_empty() {
        let (mut table_s, mut job_s, mut patterns) = (0.0, 0.0, 0);
        for n in constraints_of(&flat_jobs) {
            let fst = state.fst_of(n)?;
            let miner = LocalMiner::new(&fst, &state.dict, MinerConfig::sequential(SIGMA));
            table_s += median_secs(reps.heavy, || miner.prepare_tables(&inputs, 1).map_err(err))?;
            let (secs, found) = dfs_secs(state, n, ExecutionPolicy::Flat, reps.heavy)?;
            flat_secs.insert(n, secs);
            job_s += secs;
            patterns += found;
        }
        v.set("miner.table_build_s", table_s);
        v.set("miner.expand_s", job_s - table_s);
        v.set("miner.patterns", patterns as f64);
    }

    // flat: one candidate-counting pass per constraint that a lean DFS, a
    // DESQ-COUNT or a D-CAND job walks.
    let counting = jobs_where(workload, |j| match j.algo {
        Algo::Dfs => j.selective(),
        Algo::Count | Algo::DCand => true,
        _ => false,
    });
    if !counting.is_empty() {
        let (mut count_s, mut candidates) = (0.0, 0);
        for n in constraints_of(&counting) {
            let fst = state.fst_of(n)?;
            let index = FstIndex::new(&fst);
            let walker = RunWalker::new(&fst, &state.dict, &index, last_frequent);
            let mut observed = 0;
            count_s += median_secs(reps.heavy, || {
                let mut scratch = RunScratch::default();
                let mut counter = CandidateCounter::new();
                for seq in &state.db.sequences {
                    walker
                        .count_candidates(
                            seq,
                            1,
                            DEFAULT_BUDGET,
                            &mut scratch,
                            &mut counter,
                            |_, _| {},
                        )
                        .map_err(err)?;
                }
                observed = counter.observed();
                Ok(counter)
            })?;
            candidates += observed;
        }
        v.set("flat.count_s", count_s);
        v.set("flat.candidates", candidates as f64);
    }

    // policy: forced Flat over forced Lean on the selective DESQ-DFS jobs.
    let selective = jobs_where(workload, |j| {
        matches!(j.algo, Algo::Dfs | Algo::Serve) && j.selective()
    });
    if !selective.is_empty() {
        let (mut flat_s, mut lean_s) = (0.0, 0.0);
        for n in constraints_of(&selective) {
            flat_s += match flat_secs.get(&n) {
                Some(&secs) => secs,
                None => dfs_secs(state, n, ExecutionPolicy::Flat, reps.heavy)?.0,
            };
            lean_s += dfs_secs(state, n, ExecutionPolicy::Lean, reps.heavy)?.0;
        }
        v.set("policy.flat_over_lean", flat_s / lean_s);
    }

    // sched: the round's batch jobs at one worker over the same at two.
    let batch = jobs_where(workload, |j| j.algo != Algo::Serve);
    if !batch.is_empty() {
        if sys::cores() < 2 {
            v.set("sched.scale_w2", 1.0);
        } else {
            let sessions = |workers| {
                batch
                    .iter()
                    .map(|&job| state.session(job, workers))
                    .collect::<Result<Vec<_>, String>>()
            };
            let (one, two) = (sessions(1)?, sessions(2)?);
            let run_all = |sessions: &[MiningSession]| -> Result<(f64, u64), String> {
                let t0 = Instant::now();
                let mut steals = 0;
                for session in sessions {
                    steals += session.run().map_err(err)?.metrics.steals;
                }
                Ok((t0.elapsed().as_secs_f64(), steals))
            };
            let (mut one_s, mut two_s) = (Vec::new(), Vec::new());
            let mut steals = 0;
            for _ in 0..reps.rounds {
                one_s.push(run_all(&one)?.0);
                let (secs, stolen) = run_all(&two)?;
                two_s.push(secs);
                steals = stolen;
            }
            v.set("sched.scale_w2", median(&one_s) / median(&two_s));
            v.set("sched.steals", steals as f64);
        }
    }

    // pivots: the pivot DP over every sequence, per D-SEQ constraint.
    let dseq = jobs_where(workload, |j| j.algo == Algo::DSeq);
    let mut pivots_s = 0.0;
    for n in constraints_of(&dseq) {
        let fst = state.fst_of(n)?;
        let search = PivotSearch::new(&fst, &state.dict, last_frequent);
        pivots_s += median_secs(reps.heavy, || {
            let mut scratch = PivotScratch::default();
            let mut ranges = Vec::new();
            let mut pivots = 0usize;
            for seq in &state.db.sequences {
                search.pivots_into(seq, &mut scratch, &mut ranges);
                pivots += ranges.len();
            }
            Ok(pivots)
        })?;
    }
    v.set("pivots.dp_s", pivots_s);

    // dist, bsp: what the distributed jobs report about themselves.
    let dist = jobs_where(workload, |j| j.algo.is_dist());
    if !dist.is_empty() {
        let over = |get: fn(&Facts) -> f64| median(&facts.iter().map(get).collect::<Vec<f64>>());
        v.set("dist.map_s", over(|f| f.map_s));
        v.set("dist.reduce_s", over(|f| f.reduce_s));
        v.set("bsp.balance", over(|f| f.balance));
        v.set("bsp.max_task_s", over(|f| f.max_task_s));
        let last = facts.last().expect("at least one round ran");
        v.set("bsp.shuffle_mb", last.shuffle_bytes as f64 / 1e6);
        v.set("bsp.shuffle_records", last.shuffle_records as f64);
        if !dseq.is_empty() {
            // Self time of combine + encode: the map phase minus the
            // pivot DP it spends most of its time in.
            v.set("bsp.combine_encode_s", over(|f| f.dseq_map_s) - pivots_s);
        }
        let dist_s: f64 = dist.iter().map(|j| median(&samples[&j.label()])).sum();
        let mut local_s = 0.0;
        for job in &dist {
            let session = state.session(dfs_job(job.constraint), WORKERS)?;
            local_s += median_secs(reps.heavy, || session.run().map_err(err))?;
        }
        v.set("dist.over_local", dist_s / local_s);
    }

    // codec: the item-sequence round trip D-SEQ payloads and served
    // pattern frames go through, over the corpus.
    if workload
        .jobs
        .iter()
        .any(|j| matches!(j.algo, Algo::DSeq | Algo::Serve))
    {
        let mut encoded_bytes = 0;
        let secs = median_secs(reps.heavy, || {
            let mut buf = Vec::new();
            for seq in &state.db.sequences {
                encode_item_seq(seq, &mut buf);
            }
            encoded_bytes = buf.len();
            let mut rest = buf.as_slice();
            let mut items = Vec::new();
            while !rest.is_empty() {
                decode_item_seq(&mut rest, &mut items).map_err(err)?;
            }
            Ok(items)
        })?;
        v.set("codec.item_seq_mb_s", encoded_bytes as f64 / 1e6 / secs);
    }

    // serve: the client's view of every query of the alternating rounds,
    // the server's own accounting, and served against in-process.
    let served = jobs_where(workload, |j| j.algo == Algo::Serve);
    let mut record: Vec<(&'static str, Json)> = Vec::new();
    if !served.is_empty() {
        let latencies: Vec<f64> = served
            .iter()
            .flat_map(|j| samples[&j.label()].iter().copied())
            .collect();
        v.set("serve.query_ms_p50", median(&latencies));
        v.set("serve.query_ms_p99", stats::percentile(&latencies, 99.0));
        record.push((
            "serve_queries",
            Json::obj([
                ("n", Json::Num(latencies.len() as f64)),
                (
                    "p99_supported",
                    Json::Bool(stats::tail_percentile(latencies.len()) >= Some(99.0)),
                ),
            ]),
        ));
        let waits: Vec<f64> = facts
            .iter()
            .flat_map(|f| f.queue_wait_us.iter().copied())
            .collect();
        v.set("serve.queue_wait_us", median(&waits));
        let last = facts.last().expect("at least one round ran");
        v.set("serve.result_kb", last.result_bytes as f64 / 1024.0);
        let (hits, misses) = last.cache;
        v.set(
            "serve.cache_hit_share",
            hits as f64 / (hits + misses) as f64,
        );
        // Cold = the first query per constraint on the fresh server of
        // the set-up's cold round: the ones that missed the cache.
        let cold_us: f64 = cold
            .iter()
            .filter_map(|out| out.as_ref().ok()?.served.as_ref())
            .filter(|(stats, _)| !stats.cache_hit)
            .map(|(stats, _)| stats.compile_nanos as f64 / 1e3)
            .sum();
        v.set("serve.compile_us_cold", cold_us);
        let mut over_in_process = Vec::new();
        for job in &served {
            let query = workload
                .jobs
                .iter()
                .position(|j| j == job)
                .expect("a distinct job is a job");
            let session = state.session(*job, WORKERS)?;
            for _ in 0..reps.wire {
                let t0 = Instant::now();
                black_box(state.run_job(query)?);
                let served_s = t0.elapsed().as_secs_f64();
                let t0 = Instant::now();
                let mut stream = session.stream();
                black_box(stream.by_ref().count());
                stream.finish().map_err(err)?;
                over_in_process.push((served_s - t0.elapsed().as_secs_f64()) * 1e3);
            }
        }
        v.set("serve.wire_ms", median(&over_in_process));
    }

    record.push(("rounds", Json::Num(rounds.len() as f64)));
    for (name, secs) in [("round_s", &plain_secs), ("round_traced_s", &spanned_secs)] {
        record.push((name, Summary::of(secs).map_or(Json::Null, Summary::to_json)));
    }
    Ok(Traced {
        metrics: v.into_metrics()?,
        record,
        spans: tracer.to_json(),
    })
}
