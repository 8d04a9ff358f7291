//! One benchmark run: set up from the seed, run rounds back to back for
//! the stated time, check every result, and report.
//!
//! A **round** is every job of the workload once, in fixed order, on
//! prebuilt sessions — one caller, closed loop. A gated run (`--trace 0`)
//! reports the end-to-end metrics; a traced run (`--trace 1`) alternates
//! untraced and traced rounds, replays each layer on the workload's own
//! inputs ([`crate::layers`]) and reports the per-layer metrics.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;
use crate::layers;
use crate::spec::{self, Workload, MIN_ROUNDS, SETUPS};
use crate::state::{self, JobOutput, Reference, State};
use crate::stats::{self, Summary};
use crate::sys;
use crate::trace::Tracer;

pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    pub trace: bool,
    /// Small corpora and single repetitions: a smoke of the harness, not
    /// a measurement.
    pub quick: bool,
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub struct RunOutput {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Everything else worth keeping about the run: `env`, the
    /// `{n, q1, median, q3}` of every timing, tail percentiles, counts.
    pub record: Json,
    /// The spans of a traced run.
    pub spans: Option<Json>,
}

impl RunOutput {
    /// The one-line result the driver reads: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            let value = Json::obj([
                                ("value", Json::Num(m.value)),
                                ("unit", Json::str(m.unit)),
                            ]);
                            (m.name.clone(), value)
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// One round's clock readings.
pub struct Round {
    pub secs: f64,
    /// Wall seconds of each job, parallel to the workload's job list.
    pub job_secs: Vec<f64>,
}

/// What the jobs of one round returned, parallel to the job list. Dropped
/// as soon as it is checked: a run never holds more than one round's.
pub type Outputs = Vec<Result<JobOutput, String>>;

/// Runs every job of the workload once. The load generator always times
/// each job (a served query's latency is the client's own observation);
/// with a tracer it also records a span per job, and the phases a
/// distributed job reports about itself as that span's children.
pub fn run_round(
    state: &State,
    workload: &Workload,
    round: u32,
    mut tracer: Option<&mut Tracer>,
) -> (Round, Outputs) {
    let n = workload.jobs.len();
    let mut job_secs = Vec::with_capacity(n);
    let mut outputs = Vec::with_capacity(n);
    let t0 = Instant::now();
    let round_span = tracer.as_deref_mut().map(|t| t.begin("round", round));
    for (i, job) in workload.jobs.iter().enumerate() {
        let span = tracer.as_deref_mut().map(|t| t.begin(&job.label(), round));
        let t = Instant::now();
        let out = state.run_job(i);
        job_secs.push(t.elapsed().as_secs_f64());
        if let (Some(t), Some(span)) = (tracer.as_deref_mut(), span) {
            t.end(span);
            if let (true, Ok(out)) = (job.algo.is_dist(), &out) {
                let m = &out.metrics;
                t.phase(span, "dist.map", 0, m.map_nanos);
                t.phase(span, "dist.reduce", m.map_nanos, m.reduce_nanos);
            }
        }
        outputs.push(out);
    }
    if let (Some(t), Some(span)) = (tracer, round_span) {
        t.end(span);
    }
    let round = Round {
        secs: t0.elapsed().as_secs_f64(),
        job_secs,
    };
    (round, outputs)
}

/// Holds every result against the reference, off the clock.
pub struct Checker {
    reference: Reference,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the run record.
    pub notes: Vec<String>,
    pub secs: f64,
}

impl Checker {
    fn new(reference: Reference) -> Checker {
        Checker {
            reference,
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
            secs: 0.0,
        }
    }

    fn note(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    /// Checks a round's outputs. Only rounds of the timed window are
    /// `counted` as attempted; a failure outside it still fails the run.
    pub fn check(&mut self, workload: &Workload, outputs: &Outputs, counted: bool) {
        let t0 = Instant::now();
        for (job, out) in workload.jobs.iter().zip(outputs) {
            if counted {
                self.attempted += 1;
            }
            match out {
                Err(e) => self.note(format!("{}: {e}", job.label())),
                Ok(out) => {
                    let got = state::digest(&out.patterns);
                    let want = self.reference.of(*job);
                    if got != want {
                        self.note(format!(
                            "{}: result digest {got:?} differs from reference {want:?}",
                            job.label()
                        ));
                    }
                }
            }
        }
        self.secs += t0.elapsed().as_secs_f64();
    }
}

/// From nothing to first result: datagen and dictionary freeze, every
/// job's session build (or store load and server spawn), one cold round.
/// Returns the state, the cold round's outputs and the seconds it took.
fn set_up(workload: &Workload, cfg: &RunConfig) -> Result<(State, Outputs, f64), String> {
    let t0 = Instant::now();
    let state = State::setup(workload, cfg.seed, cfg.quick)?;
    let (_, cold) = run_round(&state, workload, 0, None);
    Ok((state, cold, t0.elapsed().as_secs_f64()))
}

/// `{n, q1, median, q3, min}` of a timing, plus the highest percentile
/// with enough samples beyond it.
fn timing(values: &[f64]) -> Json {
    let Some(summary) = Summary::of(values) else {
        return Json::Null;
    };
    let mut json = summary.to_json();
    if let Json::Obj(fields) = &mut json {
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        fields.push(("min".to_string(), Json::Num(min)));
        if let Some(p) = stats::tail_percentile(values.len()) {
            fields.push((format!("p{p}"), Json::Num(stats::percentile(values, p))));
        }
    }
    json
}

/// Per-job timings of a set of rounds in the job's unit, keyed by label.
pub fn job_samples(workload: &Workload, rounds: &[Round]) -> BTreeMap<String, Vec<f64>> {
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for round in rounds {
        for (job, &secs) in workload.jobs.iter().zip(&round.job_secs) {
            samples
                .entry(job.label())
                .or_default()
                .push(job.in_unit(secs));
        }
    }
    samples
}

pub fn run(cfg: &RunConfig) -> Result<RunOutput, String> {
    run_with(cfg, |_| {})
}

/// [`run`], with a hook on the freshly mined reference (tests damage it).
pub fn run_with(cfg: &RunConfig, tamper: impl FnOnce(&mut Reference)) -> Result<RunOutput, String> {
    let workload = spec::workload(&cfg.workload)?;
    let golden = state::toy_golden(&workload)?;

    // Set up from nothing; mine the reference once, off the clock.
    let (mut state, cold, secs) = set_up(&workload, cfg)?;
    let mut setup_secs = vec![secs];
    let mut reference = Reference::mine(&state, &workload)?;
    tamper(&mut reference);
    let mut checker = Checker::new(reference);
    checker.check(&workload, &cold, false);
    for problem in golden {
        checker.note(problem);
    }
    // A gated run sets up several times; each state is gone before the
    // next clock starts. The last one stays for the rounds.
    let mut cold = cold;
    for _ in 1..if cfg.trace { 1 } else { SETUPS } {
        drop(state);
        let secs;
        (state, cold, secs) = set_up(&workload, cfg)?;
        setup_secs.push(secs);
        checker.check(&workload, &cold, false);
    }
    let (_, warm) = run_round(&state, &workload, 0, None);
    checker.check(&workload, &warm, false);
    drop(warm);

    let min_rounds = if cfg.quick { 2 } else { MIN_ROUNDS };
    let digest = state::corpus_digest(&state.dict, &state.db);
    let mut record = vec![
        ("workload", Json::str(workload.name)),
        ("trace", Json::Bool(cfg.trace)),
        ("quick", Json::Bool(cfg.quick)),
        ("env", sys::env_stamp(cfg.seed, spec::WORKERS)),
        ("sequences", Json::Num(state.db.len() as f64)),
        ("corpus_digest", Json::Str(format!("{digest:016x}"))),
        ("setup_s", timing(&setup_secs)),
    ];

    let (metrics, spans) = if cfg.trace {
        let traced = layers::traced(cfg, &workload, &state, &cold, &mut checker, min_rounds)?;
        record.extend(traced.record);
        (traced.metrics, Some(traced.spans))
    } else {
        drop(cold);
        // The timed window. The peak-RSS mark is reset before every round
        // and read after it: what ran before the window does not set the
        // peak, and the reported peak is the median round's, not the
        // luckiest or unluckiest one's.
        let mut rounds: Vec<Round> = Vec::new();
        let mut peaks_mb = Vec::new();
        sys::release_free_memory();
        let cpu0 = sys::cpu_seconds()?;
        let t0 = Instant::now();
        while t0.elapsed().as_secs_f64() < cfg.seconds || rounds.len() < min_rounds {
            sys::reset_peak_rss()?;
            let (round, outputs) = run_round(&state, &workload, rounds.len() as u32 + 1, None);
            peaks_mb.push(sys::peak_rss_mb()?);
            checker.check(&workload, &outputs, true);
            rounds.push(round);
        }
        let window_secs = t0.elapsed().as_secs_f64();
        let cpu_secs = sys::cpu_seconds()? - cpu0;

        let round_secs: Vec<f64> = rounds.iter().map(|r| r.secs).collect();
        let jobs = job_samples(&workload, &rounds);
        record.extend([
            ("rounds", Json::Num(rounds.len() as f64)),
            ("window_s", Json::Num(window_secs)),
            ("round_s", timing(&round_secs)),
            ("round_peak_rss_mb", timing(&peaks_mb)),
            (
                "seqs_per_s",
                Json::Num(state.db.len() as f64 / stats::median(&round_secs)),
            ),
            (
                "jobs",
                Json::obj(jobs.iter().map(|(label, v)| (label.as_str(), timing(v)))),
            ),
        ]);
        let values = [
            stats::median(&setup_secs),
            stats::median(&round_secs),
            cpu_secs / rounds.len() as f64,
            stats::median(&peaks_mb),
        ];
        let metrics = spec::END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric {
                name: name.to_string(),
                value,
                unit,
            })
            .collect();
        (metrics, None)
    };

    record.push(("check_s", Json::Num(checker.secs)));
    record.push((
        "failures",
        Json::Arr(checker.notes.iter().map(Json::str).collect()),
    ));
    let mut output = RunOutput {
        correct: checker.failed == 0,
        attempted: checker.attempted,
        failed: checker.failed,
        metrics,
        record: Json::Null,
        spans,
    };
    record.push(("result", output.result()));
    output.record = Json::obj(record);
    Ok(output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::BenchmarkFile;

    fn quick(workload: &str, trace: bool) -> RunConfig {
        RunConfig {
            workload: workload.to_string(),
            seed: 3,
            seconds: 0.2,
            trace,
            quick: true,
        }
    }

    fn value(output: &RunOutput, name: &str) -> f64 {
        output
            .metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} not printed"))
            .value
    }

    /// The `--quick` smoke: on every workload, a gated run prints exactly
    /// the `end_to_end` names of `BENCHMARK.json` and a traced run exactly
    /// its `per_layer` names, with the listed units, and every result
    /// checks out.
    #[test]
    fn quick_runs_print_exactly_the_listed_metrics() {
        let file = BenchmarkFile::load().unwrap();
        let listed = |trace: bool| -> Vec<(String, String)> {
            if trace {
                file.per_layer
                    .iter()
                    .map(|(n, u, _)| (n.clone(), u.clone()))
                    .collect()
            } else {
                file.end_to_end
                    .iter()
                    .map(|(n, u, _, _)| (n.clone(), u.clone()))
                    .collect()
            }
        };
        for workload in &file.workloads {
            for trace in [false, true] {
                let output = run(&quick(workload, trace)).unwrap();
                let printed: Vec<(String, String)> = output
                    .metrics
                    .iter()
                    .map(|m| (m.name.clone(), m.unit.to_string()))
                    .collect();
                assert_eq!(printed, listed(trace), "{workload} trace {trace}");
                assert!(output.correct, "{workload}: {}", output.record);
                assert_eq!(output.failed, 0);
                assert!(output.attempted >= 1);
                assert_eq!(output.spans.is_some(), trace);
                if !trace {
                    for m in &output.metrics {
                        assert!(m.value > 0.0, "{workload}: {} reads {}", m.name, m.value);
                    }
                }
            }
        }
    }

    /// A layer the workload bypasses reads exactly 0, and the layers it
    /// is built to stress do not.
    #[test]
    fn bypassed_layers_read_zero() {
        let cases: [(&str, &[&str], &[&str]); 4] = [
            (
                "local_loose",
                &[
                    "miner.table_build_s",
                    "miner.patterns",
                    "job.dfs_N4_s",
                    "fst.states",
                ],
                &[
                    "flat.count_s",
                    "pivots.dp_s",
                    "dist.map_s",
                    "bsp.shuffle_mb",
                    "serve.query_ms_p50",
                    "job.dseq_N4_s",
                ],
            ),
            (
                "selective_mix",
                &[
                    "flat.count_s",
                    "flat.candidates",
                    "policy.flat_over_lean",
                    "dist.map_s",
                    "bsp.shuffle_records",
                ],
                &[
                    "miner.table_build_s",
                    "miner.expand_s",
                    "pivots.dp_s",
                    "bsp.combine_encode_s",
                    "serve.wire_ms",
                ],
            ),
            (
                "dist_loose",
                &[
                    "pivots.dp_s",
                    "dist.reduce_s",
                    "dist.over_local",
                    "bsp.shuffle_records",
                    "codec.item_seq_mb_s",
                ],
                &[
                    "miner.table_build_s",
                    "flat.count_s",
                    "session.stream_over_run",
                    "policy.flat_over_lean",
                    "serve.result_kb",
                ],
            ),
            (
                "serve_small",
                &[
                    "serve.query_ms_p50",
                    "serve.result_kb",
                    "serve.compile_us_cold",
                    "miner.table_build_s",
                    "job.serve_N5_ms",
                ],
                &[
                    "flat.count_s",
                    "pivots.dp_s",
                    "dist.map_s",
                    "sched.scale_w2",
                    "job.dfs_N4_s",
                ],
            ),
        ];
        for (workload, reached, bypassed) in cases {
            let output = run(&quick(workload, true)).unwrap();
            for name in reached {
                assert!(value(&output, name) > 0.0, "{workload}: {name} reads 0");
            }
            for name in bypassed {
                assert_eq!(value(&output, name), 0.0, "{workload}: {name}");
            }
        }
    }

    #[test]
    fn a_corrupted_reference_flips_correct_and_raises_failed() {
        let cfg = quick("local_loose", false);
        let sound = run(&cfg).unwrap();
        assert!(sound.correct);
        let output = run_with(&cfg, Reference::corrupt).unwrap();
        assert!(!output.correct);
        // Every job of every round disagrees with the damaged reference.
        assert!(output.failed >= output.attempted && output.attempted >= 1);
        let line = output.result().to_string();
        assert!(line.starts_with("{\"correct\": false, "), "{line}");
    }
}
