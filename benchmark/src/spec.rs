//! The names the benchmark is made of: workloads, end-to-end metrics and
//! per-layer metrics, in the order `BENCHMARK.json` lists them.
//!
//! These tables are what a run prints; `BENCHMARK.json` at the repository
//! root is what the driver holds a run against. A unit test keeps the two
//! equal, name for name and unit for unit.

use crate::json::Json;

/// Support threshold of every job.
pub const SIGMA: u64 = 10;
/// Worker threads of every gated job. One, because two busy threads on
/// this box's two shared vCPUs spread 2–3× wider (README, "Sizing");
/// parallel scaling is recorded per layer as `sched.scale_w2` instead.
pub const WORKERS: usize = 1;
/// Map partitions and reduce buckets of the distributed jobs — fixed, so
/// the exact shuffle counts do not depend on the box.
pub const DIST_PARTS: usize = 2;
/// Times a gated run sets up from nothing; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Fewest rounds a timed window holds, however long a round takes.
pub const MIN_ROUNDS: usize = 5;

/// An algorithm a job runs, with the tag its `job.*` metric carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Sequential DESQ-DFS under the default `Auto` policy.
    Dfs,
    /// Sequential DESQ-COUNT.
    Count,
    /// D-CAND through the in-process BSP engine.
    DCand,
    /// D-SEQ through the in-process BSP engine.
    DSeq,
    /// A DESQ-DFS query against the resident `desq_serve::Server`.
    Serve,
}

impl Algo {
    pub fn tag(self) -> &'static str {
        match self {
            Algo::Dfs => "dfs",
            Algo::Count => "count",
            Algo::DCand => "dcand",
            Algo::DSeq => "dseq",
            Algo::Serve => "serve",
        }
    }

    pub fn is_dist(self) -> bool {
        matches!(self, Algo::DCand | Algo::DSeq)
    }

    /// Served queries are reported in milliseconds, batch jobs in seconds.
    pub fn unit(self) -> &'static str {
        if self == Algo::Serve {
            "ms"
        } else {
            "s"
        }
    }

    fn per_unit(self) -> f64 {
        if self == Algo::Serve {
            1e3
        } else {
            1.0
        }
    }
}

/// One job of a round: an algorithm on constraint `N<constraint>` of the
/// paper's Tab. III.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpec {
    pub algo: Algo,
    pub constraint: usize,
}

impl JobSpec {
    /// `dfs_N4`, `serve_N1`, … — the span name of the job.
    pub fn label(&self) -> String {
        format!("{}_N{}", self.algo.tag(), self.constraint)
    }

    /// The per-layer metric carrying this job's median span.
    pub fn metric(&self) -> String {
        format!("job.{}_{}", self.label(), self.algo.unit())
    }

    /// Converts span seconds to the metric's unit.
    pub fn in_unit(&self, secs: f64) -> f64 {
        secs * self.algo.per_unit()
    }

    /// N1–N3 are the selective constraints the `Auto` policy routes to the
    /// lean path; N4 and N5 are loose and run on the flat tables.
    pub fn selective(&self) -> bool {
        self.constraint <= 3
    }
}

pub struct Workload {
    pub name: &'static str,
    /// Sentences of the NYT-like corpus.
    pub sequences: usize,
    /// Corpus size under `--quick` (the smoke tests).
    pub quick_sequences: usize,
    /// The jobs of one round, in the order they run.
    pub jobs: Vec<JobSpec>,
}

impl Workload {
    /// The distinct constraint numbers the jobs use, ascending.
    pub fn constraints(&self) -> Vec<usize> {
        constraints_of(&self.jobs)
    }

    /// The distinct jobs of a round, in first-appearance order (a served
    /// round repeats its five queries six times).
    pub fn distinct_jobs(&self) -> Vec<JobSpec> {
        let mut out: Vec<JobSpec> = Vec::new();
        for job in &self.jobs {
            if !out.contains(job) {
                out.push(*job);
            }
        }
        out
    }

    pub fn is_served(&self) -> bool {
        self.jobs.iter().any(|j| j.algo == Algo::Serve)
    }
}

/// Distinct constraint numbers among `jobs`, ascending.
pub fn constraints_of(jobs: &[JobSpec]) -> Vec<usize> {
    let mut ns: Vec<usize> = jobs.iter().map(|j| j.constraint).collect();
    ns.sort_unstable();
    ns.dedup();
    ns
}

fn jobs(algo: Algo, constraints: impl IntoIterator<Item = usize>) -> Vec<JobSpec> {
    constraints
        .into_iter()
        .map(|constraint| JobSpec { algo, constraint })
        .collect()
}

/// Passes over N1…N5 in one served round: 30 queries, so a run collects
/// enough query samples for a p99.
const SERVE_PASSES: usize = 6;

/// The four workloads; `BENCHMARK.json` and the README say why each.
pub fn workloads() -> Vec<Workload> {
    vec![
        // Table build + DFS expansion are the whole round.
        Workload {
            name: "local_loose",
            sequences: 40_000,
            quick_sequences: 2_000,
            jobs: jobs(Algo::Dfs, [4, 5]),
        },
        // The flat counting walk three ways; bsp carries few large payloads.
        Workload {
            name: "selective_mix",
            sequences: 100_000,
            quick_sequences: 4_000,
            jobs: [
                jobs(Algo::Dfs, 1..=3),
                jobs(Algo::Count, 1..=3),
                jobs(Algo::DCand, 1..=3),
            ]
            .concat(),
        },
        // Pivot DP, many tiny shuffle records, per-pivot reduce re-mining.
        Workload {
            name: "dist_loose",
            sequences: 16_000,
            quick_sequences: 1_000,
            jobs: jobs(Algo::DSeq, [4, 5]),
        },
        // A small corpus, so per-query fixed cost is as visible as it gets.
        Workload {
            name: "serve_small",
            sequences: 4_000,
            quick_sequences: 500,
            jobs: (0..SERVE_PASSES)
                .flat_map(|_| jobs(Algo::Serve, 1..=5))
                .collect(),
        },
    ]
}

pub fn workload(name: &str) -> Result<Workload, String> {
    workloads()
        .into_iter()
        .find(|w| w.name == name)
        .ok_or_else(|| {
            let names: Vec<&str> = workloads().iter().map(|w| w.name).collect();
            format!(
                "unknown workload {name:?} (expected one of {})",
                names.join(", ")
            )
        })
}

/// The end-to-end metrics as `(name, unit)`. Every workload reports every
/// one, none can read 0, lower is better for all; their bounds live in
/// `BENCHMARK.json`, where `compare` reads them.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("round_s_p50", "s"),
    ("cpu_s_per_round", "s"),
    ("peak_rss_mb", "MB"),
];

/// One per-layer metric as a run prints it.
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    /// A count that must repeat bit for bit for equal seeds; `compare`
    /// holds two result sets to that.
    pub exact: bool,
}

const fn layer(name: &'static str, unit: &'static str) -> (&'static str, &'static str, bool) {
    (name, unit, false)
}

const fn exact(name: &'static str, unit: &'static str) -> (&'static str, &'static str, bool) {
    (name, unit, true)
}

/// The per-layer metrics other than the per-job split, grouped by layer.
/// Every workload prints every name; 0 means no job of the workload calls
/// that layer through its public entry point.
const LAYERS: [(&str, &str, bool); 33] = [
    layer("pexp.parse_us", "us"),
    layer("fst.compile_us", "us"),
    layer("fst.opt_share", "ratio"),
    exact("fst.states", "count"),
    exact("fst.transitions", "count"),
    layer("session.build_us", "us"),
    layer("session.stream_over_run", "ratio"),
    layer("miner.table_build_s", "s"),
    layer("miner.expand_s", "s"),
    exact("miner.patterns", "count"),
    layer("flat.count_s", "s"),
    exact("flat.candidates", "count"),
    layer("policy.flat_over_lean", "ratio"),
    layer("sched.scale_w2", "ratio"),
    layer("sched.steals", "count"),
    layer("pivots.dp_s", "s"),
    layer("dist.map_s", "s"),
    layer("dist.reduce_s", "s"),
    layer("dist.over_local", "ratio"),
    layer("bsp.combine_encode_s", "s"),
    exact("bsp.shuffle_mb", "MB"),
    exact("bsp.shuffle_records", "count"),
    layer("bsp.balance", "ratio"),
    layer("bsp.max_task_s", "s"),
    layer("codec.item_seq_mb_s", "MB/s"),
    layer("serve.query_ms_p50", "ms"),
    layer("serve.query_ms_p99", "ms"),
    layer("serve.wire_ms", "ms"),
    layer("serve.queue_wait_us", "us"),
    layer("serve.compile_us_cold", "us"),
    layer("serve.cache_hit_share", "ratio"),
    exact("serve.result_kb", "KB"),
    layer("trace.overhead_share", "ratio"),
];

/// The full per-layer list in `BENCHMARK.json` order: the layers, then the
/// per-job split of every workload, then the trace's own overhead.
pub fn per_layer() -> Vec<PerLayer> {
    let of = |&(name, unit, exact): &(&str, &'static str, bool)| PerLayer {
        name: name.to_string(),
        unit,
        exact,
    };
    let (layers, trace) = LAYERS.split_at(LAYERS.len() - 1);
    let jobs = workloads()
        .iter()
        .flat_map(Workload::distinct_jobs)
        .map(|job| PerLayer {
            name: job.metric(),
            unit: job.algo.unit(),
            exact: false,
        })
        .collect::<Vec<_>>();
    layers
        .iter()
        .map(of)
        .chain(jobs)
        .chain(trace.iter().map(of))
        .collect()
}

/// `BENCHMARK.json` as the driver reads it.
pub struct BenchmarkFile {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    /// `(name, unit, better, bound)`.
    pub end_to_end: Vec<(String, String, String, f64)>,
    /// `(name, unit, better)`.
    pub per_layer: Vec<(String, String, String)>,
}

impl BenchmarkFile {
    /// Loads `BENCHMARK.json` from the current directory (the driver runs
    /// the command from the checkout's root) or, failing that, from the
    /// directory above this package (`cargo test` runs inside it).
    pub fn load() -> Result<BenchmarkFile, String> {
        let local = std::path::Path::new("BENCHMARK.json");
        let path = if local.exists() {
            local.to_path_buf()
        } else {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
        };
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        BenchmarkFile::parse(&Json::parse(&text)?)
    }

    pub fn parse(doc: &Json) -> Result<BenchmarkFile, String> {
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("BENCHMARK.json: no list {key:?}"))
        };
        let text = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: an entry lacks {key:?}"))
        };
        let mut file = BenchmarkFile {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: no run_seconds")?,
            workloads: Vec::new(),
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
        };
        for w in list("workloads")? {
            file.workloads.push(text(w, "name")?);
        }
        for m in list("end_to_end")? {
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: an end-to-end metric lacks a bound")?;
            file.end_to_end.push((
                text(m, "name")?,
                text(m, "unit")?,
                text(m, "better")?,
                bound,
            ));
        }
        for m in list("per_layer")? {
            file.per_layer
                .push((text(m, "name")?, text(m, "unit")?, text(m, "better")?));
        }
        Ok(file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tables_and_benchmark_json_name_the_same_metrics() {
        let file = BenchmarkFile::load().unwrap();
        let names: Vec<&str> = workloads().iter().map(|w| w.name).collect();
        assert_eq!(file.workloads, names);
        let e2e: Vec<(&str, &str)> = file
            .end_to_end
            .iter()
            .map(|(name, unit, _, _)| (name.as_str(), unit.as_str()))
            .collect();
        assert_eq!(e2e, END_TO_END);
        let listed: Vec<(String, &str)> = file
            .per_layer
            .iter()
            .map(|(name, unit, _)| (name.clone(), unit.as_str()))
            .collect();
        let printed: Vec<(String, &str)> =
            per_layer().into_iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(listed, printed);
        assert_eq!(file.run_seconds, 20.0);
    }

    #[test]
    fn job_metrics_are_named_after_algorithm_and_constraint() {
        let names: Vec<String> = per_layer().into_iter().map(|m| m.name).collect();
        for expected in [
            "job.dfs_N4_s",
            "job.dfs_N1_s",
            "job.count_N3_s",
            "job.dcand_N2_s",
            "job.dseq_N5_s",
            "job.serve_N1_ms",
            "job.serve_N5_ms",
        ] {
            assert!(names.iter().any(|n| n == expected), "{expected} missing");
        }
        assert_eq!(names.len(), 33 + 18);
        assert_eq!(names.last().unwrap(), "trace.overhead_share");
        let served = workload("serve_small").unwrap();
        assert_eq!(served.jobs.len(), 30);
        assert_eq!(served.distinct_jobs().len(), 5);
        assert_eq!(served.constraints(), vec![1, 2, 3, 4, 5]);
        assert!(workload("no_such").is_err());
    }
}
