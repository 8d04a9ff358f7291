//! The program under test, as a workload sees it: inputs generated from
//! the seed, one prebuilt session (or request) per job, and the job runner.
//! The program receives only the generated `(Dictionary, SequenceDb)`.

use std::sync::Arc;

use desq::session::{AlgorithmSpec, MiningSession, MiningSessionBuilder};
use desq::{ExecutionPolicy, OptLevel};
use desq_core::{Dictionary, MiningMetrics, Sequence, SequenceDb};
use desq_datagen::{nyt_like, NytConfig};
use desq_dist::patterns::{nyt_constraints, Constraint};
use desq_serve::client::Client;
use desq_serve::proto::{Request, ServerStats};
use desq_serve::server::{Server, ServerHandle};
use desq_serve::store::CorpusStore;

use crate::spec::{Algo, JobSpec, Workload, DIST_PARTS, SIGMA, WORKERS};

/// Name of the resident corpus in the served workload's store.
const CORPUS: &str = "bench";

/// Constraint `N<n>` of Tab. III.
pub fn constraint(n: usize) -> Constraint {
    nyt_constraints().swap_remove(n - 1)
}

/// Every error of a run ends up as a message on stderr or in the record.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The workload's corpus for `seed`.
pub fn corpus(workload: &Workload, seed: u64, quick: bool) -> (Dictionary, SequenceDb) {
    let n = if quick {
        workload.quick_sequences
    } else {
        workload.sequences
    };
    nyt_like(&NytConfig::new(n).with_seed(seed))
}

enum Runner {
    Session(MiningSession),
    Query(Request),
}

/// What one job returned.
pub struct JobOutput {
    pub patterns: Vec<(Sequence, u64)>,
    pub metrics: MiningMetrics,
    /// For served queries: the server's accounting and the size of the
    /// pattern frames as they came off the wire.
    pub served: Option<(ServerStats, usize)>,
}

/// Everything a round needs, built from nothing by [`State::setup`].
pub struct State {
    pub dict: Arc<Dictionary>,
    pub db: Arc<SequenceDb>,
    runners: Vec<Runner>,
    /// Dropping the handle drains and joins the server.
    server: Option<(ServerHandle, Client)>,
}

impl State {
    /// A session builder over this corpus with the common settings.
    pub fn builder(&self, n: usize) -> MiningSessionBuilder {
        builder(&self.dict, &self.db, n)
    }

    /// The algorithm behind a batch job, at the common parallelism.
    pub fn session(&self, job: JobSpec, workers: usize) -> Result<MiningSession, String> {
        session(&self.dict, &self.db, job, workers)
    }

    /// Generates the corpus, freezes the dictionary and builds every job's
    /// session — or, for the served workload, loads the store and spawns
    /// the server. Every job gets a session of its own: building them is
    /// part of what `setup_s` times.
    pub fn setup(workload: &Workload, seed: u64, quick: bool) -> Result<State, String> {
        let (dict, db) = corpus(workload, seed, quick);
        let (dict, db) = (Arc::new(dict), Arc::new(db));
        let server = if workload.is_served() {
            let mut store = CorpusStore::new();
            store.insert(CORPUS, dict.clone(), db.clone());
            let handle = Server::new(store).spawn("127.0.0.1:0").map_err(err)?;
            let client = Client::new(handle.addr());
            Some((handle, client))
        } else {
            None
        };
        let runners = workload
            .jobs
            .iter()
            .map(|&job| match job.algo {
                // `workers` 0 is the protocol's "one worker, deterministic
                // stream order".
                Algo::Serve => Ok(Runner::Query(
                    Request::new(CORPUS, constraint(job.constraint).expr, SIGMA).unanchored(),
                )),
                _ => session(&dict, &db, job, WORKERS).map(Runner::Session),
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(State {
            dict,
            db,
            runners,
            server,
        })
    }

    /// Runs job `i` of the round.
    pub fn run_job(&self, i: usize) -> Result<JobOutput, String> {
        match &self.runners[i] {
            Runner::Session(session) => {
                let result = session.run().map_err(err)?;
                Ok(JobOutput {
                    patterns: result.patterns,
                    metrics: result.metrics,
                    served: None,
                })
            }
            Runner::Query(request) => {
                let (_, client) = self
                    .server
                    .as_ref()
                    .expect("a served workload has a server");
                let out = client.query(request).map_err(err)?;
                Ok(JobOutput {
                    patterns: out.patterns,
                    metrics: out.metrics,
                    served: Some((out.stats, out.pattern_bytes.len())),
                })
            }
        }
    }

    /// Constraint `N<n>` compiled against this corpus's dictionary.
    pub fn fst_of(&self, n: usize) -> Result<Arc<desq_core::Fst>, String> {
        self.builder(n).compile_only().map_err(err)
    }
}

/// The common settings of every session: one worker, and two map
/// partitions and reduce buckets for the distributed algorithms.
fn base(dict: &Arc<Dictionary>, db: &Arc<SequenceDb>) -> MiningSessionBuilder {
    MiningSession::builder()
        .dictionary(dict.clone())
        .database(db.clone())
        .workers(WORKERS)
        .partitions(DIST_PARTS)
        .reducers(DIST_PARTS)
}

fn builder(dict: &Arc<Dictionary>, db: &Arc<SequenceDb>, n: usize) -> MiningSessionBuilder {
    base(dict, db)
        .pattern_unanchored(constraint(n).expr)
        .sigma(SIGMA)
}

fn algorithm(algo: Algo) -> AlgorithmSpec {
    match algo {
        // In process, a served query is the DESQ-DFS session the server
        // builds for it.
        Algo::Dfs | Algo::Serve => AlgorithmSpec::DesqDfs,
        Algo::Count => AlgorithmSpec::DesqCount,
        Algo::DCand => AlgorithmSpec::d_cand(),
        Algo::DSeq => AlgorithmSpec::d_seq(),
    }
}

fn session(
    dict: &Arc<Dictionary>,
    db: &Arc<SequenceDb>,
    job: JobSpec,
    workers: usize,
) -> Result<MiningSession, String> {
    builder(dict, db, job.constraint)
        .algorithm(algorithm(job.algo))
        .workers(workers)
        .build()
        .map_err(err)
}

/// An order-independent digest of a result set: the number of
/// `(pattern, support)` pairs, and the wrapping sum and the xor of their
/// hashes. Two sets with equal digests are, for a checker's purposes, the
/// same set in any order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub pairs: u64,
    pub sum: u64,
    pub xor: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// splitmix64's finalizer: spreads FNV's weak high bits so that sums of
/// hashes do not cancel structurally.
fn mix(mut h: u64) -> u64 {
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

pub fn digest(patterns: &[(Sequence, u64)]) -> Digest {
    let mut d = Digest {
        pairs: patterns.len() as u64,
        sum: 0,
        xor: 0,
    };
    for (items, support) in patterns {
        let mut h = fnv(FNV_OFFSET, &(items.len() as u64).to_le_bytes());
        for item in items {
            h = fnv(h, &item.to_le_bytes());
        }
        let h = mix(fnv(h, &support.to_le_bytes()));
        d.sum = d.sum.wrapping_add(h);
        d.xor ^= h.rotate_left(17);
    }
    d
}

/// An order-*dependent* digest of the generated inputs: every sequence in
/// order, then every dictionary item with its name, parents and document
/// frequency. Equal seeds must give equal digests.
pub fn corpus_digest(dict: &Dictionary, db: &SequenceDb) -> u64 {
    let mut h = fnv(FNV_OFFSET, &(db.len() as u64).to_le_bytes());
    for seq in &db.sequences {
        h = fnv(h, &(seq.len() as u64).to_le_bytes());
        for item in seq {
            h = fnv(h, &item.to_le_bytes());
        }
    }
    for fid in 1..=dict.max_fid() {
        h = fnv(h, dict.name(fid).as_bytes());
        h = fnv(h, &dict.doc_freq(fid).to_le_bytes());
        for parent in dict.parents(fid) {
            h = fnv(h, &parent.to_le_bytes());
        }
    }
    mix(h)
}

/// The reference result of each constraint, mined once per run by
/// sequential DESQ-DFS on the un-optimized automaton and the flat path —
/// the configuration furthest from what the jobs run (optimized FST, `Auto`
/// policy, other algorithms, the wire).
pub struct Reference {
    /// Indexed by constraint number; `None` for constraints no job uses.
    digests: [Option<Digest>; 6],
}

impl Reference {
    pub fn mine(state: &State, workload: &Workload) -> Result<Reference, String> {
        let mut digests = [None; 6];
        for n in workload.constraints() {
            let result = state
                .builder(n)
                .algorithm(AlgorithmSpec::DesqDfs)
                .opt_level(OptLevel::None)
                .execution_policy(ExecutionPolicy::Flat)
                .build()
                .and_then(|s| s.run())
                .map_err(err)?;
            digests[n] = Some(digest(&result.patterns));
        }
        Ok(Reference { digests })
    }

    pub fn of(&self, job: JobSpec) -> Digest {
        self.digests[job.constraint].expect("every job's constraint has a reference")
    }

    /// Damages every reference digest, so that a test can watch the
    /// checker notice.
    #[cfg(test)]
    pub fn corrupt(&mut self) {
        for d in self.digests.iter_mut().flatten() {
            d.sum ^= 1;
        }
    }
}

/// The hand-written expected result on the paper's running example.
const TOY_GOLDEN: &str = include_str!("../golden/toy.txt");

/// Checks `golden/toy.txt` against `desq_core::toy::fixture()` under
/// every algorithm the workload uses; returns what disagreed.
pub fn toy_golden(workload: &Workload) -> Result<Vec<String>, String> {
    let fx = desq_core::toy::fixture();
    let mut expected: Vec<(Sequence, u64)> = Vec::new();
    for line in TOY_GOLDEN.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (items, support) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("golden/toy.txt: malformed line {line:?}"))?;
        let items = items
            .split_ascii_whitespace()
            .map(|name| {
                fx.dict
                    .id_of(name)
                    .ok_or_else(|| format!("golden/toy.txt: unknown item {name:?}"))
            })
            .collect::<Result<Sequence, String>>()?;
        let support = support
            .parse()
            .map_err(|_| format!("golden/toy.txt: bad support in {line:?}"))?;
        expected.push((items, support));
    }
    expected.sort_unstable();

    let (dict, db) = (Arc::new(fx.dict), Arc::new(fx.db));
    let mut algos: Vec<Algo> = workload.jobs.iter().map(|j| j.algo).collect();
    algos.dedup();
    let mut wrong = Vec::new();
    for algo in algos {
        let mut got = if algo == Algo::Serve {
            let mut store = CorpusStore::new();
            store.insert("toy", dict.clone(), db.clone());
            let handle = Server::new(store).spawn("127.0.0.1:0").map_err(err)?;
            let out = Client::new(handle.addr())
                .query(&Request::new("toy", desq_core::toy::PATTERN, 2))
                .map_err(err)?;
            handle.shutdown();
            out.patterns
        } else {
            base(&dict, &db)
                .pattern(desq_core::toy::PATTERN)
                .sigma(2)
                .algorithm(algorithm(algo))
                .build()
                .and_then(|s| s.run())
                .map_err(err)?
                .patterns
        };
        got.sort_unstable();
        if got != expected {
            wrong.push(format!(
                "toy golden under {}: expected {expected:?}, got {got:?}",
                algo.tag()
            ));
        }
    }
    Ok(wrong)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    #[test]
    fn equal_seeds_give_identical_corpora_and_different_seeds_differ() {
        let workload = spec::workload("serve_small").unwrap();
        let digest_of = |seed| {
            let (dict, db) = corpus(&workload, seed, true);
            corpus_digest(&dict, &db)
        };
        assert_eq!(digest_of(7), digest_of(7));
        assert_ne!(digest_of(7), digest_of(8));
    }

    #[test]
    fn result_digests_ignore_order_and_notice_any_change() {
        let set = vec![(vec![4, 1], 3), (vec![4, 2, 1], 2), (vec![4, 4, 1], 2)];
        let mut reversed = set.clone();
        reversed.reverse();
        assert_eq!(digest(&set), digest(&reversed));
        let mut other_support = set.clone();
        other_support[1].1 = 3;
        assert_ne!(digest(&set), digest(&other_support));
        let mut other_item = set.clone();
        other_item[2].0[1] = 2;
        assert_ne!(digest(&set), digest(&other_item));
        assert_ne!(digest(&set), digest(&set[..2]));
        // Moving an item across a pattern boundary is a change too.
        assert_ne!(
            digest(&[(vec![1, 2], 1), (vec![3], 1)]),
            digest(&[(vec![1], 1), (vec![2, 3], 1)])
        );
    }

    #[test]
    fn every_algorithm_reproduces_the_hand_written_toy_result() {
        for workload in spec::workloads() {
            assert_eq!(
                toy_golden(&workload).unwrap(),
                Vec::<String>::new(),
                "{}",
                workload.name
            );
        }
    }
}
