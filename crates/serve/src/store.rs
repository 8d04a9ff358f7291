//! Shared corpus state and the FST compile cache.
//!
//! A [`CorpusStore`] is built once at daemon startup and then only read:
//! every corpus lives behind `Arc`s that each concurrent query borrows, so
//! serving a query materializes *nothing* — the two expensive per-request
//! costs of a standalone `MiningSession` (corpus construction and
//! pexp → FST compilation) are paid at load time and on first use
//! respectively. Compiled FSTs are memoized in a cache keyed by the
//! *canonical* form of the pattern expression (its parsed
//! pretty-printing), so textual variants of the same constraint — extra
//! whitespace, redundant brackets — share one compiled automaton.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use desq::session::MiningSession;
use desq_core::{Dictionary, Error, Fst, PatEx, Result, SequenceDb};
use desq_datagen::{amzn_like, cw_like, nyt_like, AmznConfig, CwConfig, NytConfig};

/// One resident corpus: a frozen dictionary plus its recoded database,
/// both shared immutably across all queries.
pub struct Corpus {
    /// The name queries address it by.
    pub name: String,
    /// Frequency-encoded dictionary (hierarchy + f-list).
    pub dict: Arc<Dictionary>,
    /// The recoded input sequences.
    pub db: Arc<SequenceDb>,
}

/// Outcome of a compile-cache lookup.
pub struct CompiledFst {
    /// The compiled constraint, shared with every query using it.
    pub fst: Arc<Fst>,
    /// True iff the automaton came from the cache.
    pub cache_hit: bool,
    /// Nanoseconds spent compiling (0 on a hit).
    pub compile_nanos: u64,
}

/// Corpora loaded once into shared immutable state, plus the FST compile
/// cache with its global hit/miss counters.
#[derive(Default)]
pub struct CorpusStore {
    corpora: HashMap<String, Arc<Corpus>>,
    cache: Mutex<HashMap<(String, String, bool), Arc<Fst>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CorpusStore {
    /// An empty store.
    pub fn new() -> CorpusStore {
        CorpusStore::default()
    }

    /// Registers a corpus under `name` (replacing any previous one).
    pub fn insert(
        &mut self,
        name: impl Into<String>,
        dict: impl Into<Arc<Dictionary>>,
        db: impl Into<Arc<SequenceDb>>,
    ) {
        let name = name.into();
        self.corpora.insert(
            name.clone(),
            Arc::new(Corpus {
                name,
                dict: dict.into(),
                db: db.into(),
            }),
        );
    }

    /// Loads a corpus from a generator spec string:
    ///
    /// * `toy` — the paper's running example (Fig. 2);
    /// * `nyt:<sentences>[:seed]` — the NYT-like generator;
    /// * `amzn:<customers>` — the Amazon-like generator;
    /// * `cw:<sentences>` — the ClueWeb-like generator.
    ///
    /// A field past a form's last one is an error. This is the `desq-serve
    /// serve --corpus name=spec` surface; when the mmap'd on-disk corpus
    /// format lands it becomes one more spec form.
    pub fn load_spec(&mut self, name: &str, spec: &str) -> Result<()> {
        let mut parts = spec.split(':');
        let kind = parts.next().unwrap_or_default();
        let fields = match kind {
            "toy" => 0,
            "amzn" | "cw" => 1,
            _ => 2,
        };
        if let Some(extra) = parts.clone().nth(fields) {
            return Err(Error::Invalid(format!(
                "corpus spec {spec:?}: unexpected field {extra:?}"
            )));
        }
        let size = |p: Option<&str>| -> Result<usize> {
            p.ok_or_else(|| Error::Invalid(format!("corpus spec {spec:?}: missing size")))?
                .parse()
                .map_err(|_| Error::Invalid(format!("corpus spec {spec:?}: bad size")))
        };
        let (dict, db) = match kind {
            "toy" => {
                let fx = desq_core::toy::fixture();
                (fx.dict, fx.db)
            }
            "nyt" => {
                let mut cfg = NytConfig::new(size(parts.next())?);
                if let Some(seed) = parts.next() {
                    cfg =
                        cfg.with_seed(seed.parse().map_err(|_| {
                            Error::Invalid(format!("corpus spec {spec:?}: bad seed"))
                        })?);
                }
                nyt_like(&cfg)
            }
            "amzn" => amzn_like(&AmznConfig::new(size(parts.next())?)),
            "cw" => cw_like(&CwConfig::new(size(parts.next())?)),
            other => {
                return Err(Error::Invalid(format!(
                    "unknown corpus kind {other:?} (expected toy, nyt, amzn or cw)"
                )))
            }
        };
        self.insert(name, dict, db);
        Ok(())
    }

    /// Looks up a corpus by name.
    pub fn get(&self, name: &str) -> Option<&Arc<Corpus>> {
        self.corpora.get(name)
    }

    /// The names of all resident corpora, sorted (for error messages).
    pub fn names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.corpora.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// Resolves the compiled FST for `(corpus, pexp, unanchored)` through
    /// the cache.
    ///
    /// The cache key is the *canonical* pattern expression — the
    /// pretty-printing of the parsed [`PatEx`] — so `"(A) (b)"` and
    /// `"(A)(b)"` hit the same entry. Parsing doubles as admission-time
    /// validation: a malformed expression errors here, before any mining
    /// state exists. Compilation runs outside the cache lock (concurrent
    /// first queries may compile the same expression twice; the second
    /// insert wins and both results are equivalent).
    pub fn compiled(&self, corpus: &Corpus, pexp: &str, unanchored: bool) -> Result<CompiledFst> {
        let canonical = PatEx::parse(pexp)?.to_string();
        let key = (corpus.name.clone(), canonical, unanchored);
        if let Some(fst) = self.cache_lock().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(CompiledFst {
                fst: fst.clone(),
                cache_hit: true,
                compile_nanos: 0,
            });
        }
        #[cfg(feature = "failpoints")]
        desq_core::fault::point("store::compile")?;
        let t0 = Instant::now();
        let builder = MiningSession::builder().dictionary(corpus.dict.clone());
        let builder = if unanchored {
            builder.pattern_unanchored(pexp)
        } else {
            builder.pattern(pexp)
        };
        // The session's dry-run hook: compiles (and validates) without a
        // database, σ or algorithm.
        let fst = builder.compile_only()?;
        let compile_nanos = t0.elapsed().as_nanos() as u64;
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.cache_lock().insert(key, fst.clone());
        Ok(CompiledFst {
            fst,
            cache_hit: false,
            compile_nanos,
        })
    }

    /// Locks the compile cache, recovering from poisoning: entries are
    /// immutable `Arc<Fst>`s inserted whole, so a thread that panicked
    /// while holding the lock cannot have left a half-written entry —
    /// continuing with the map as-is is always safe. (Before this, one
    /// panic under the lock bricked every later query on this store.)
    fn cache_lock(&self) -> MutexGuard<'_, HashMap<(String, String, bool), Arc<Fst>>> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Global `(hits, misses)` counters of the FST compile cache.
    pub fn cache_stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_load_and_unknown_specs_error() {
        let mut store = CorpusStore::new();
        store.load_spec("toy", "toy").unwrap();
        store.load_spec("tiny", "nyt:50").unwrap();
        store.load_spec("tiny2", "nyt:50:42").unwrap();
        store.load_spec("shop", "amzn:20").unwrap();
        store.load_spec("web", "cw:20").unwrap();
        assert_eq!(store.names(), ["shop", "tiny", "tiny2", "toy", "web"]);
        assert!(store.get("toy").unwrap().db.len() == 5);
        assert!(store.load_spec("x", "nyt").is_err());
        assert!(store.load_spec("x", "nyt:many").is_err());
        assert!(store.load_spec("x", "nyt:50:notaseed").is_err());
        assert!(store.load_spec("x", "parquet:/tmp/f").is_err());
        for trailing in ["nyt:50:42:junk", "toy:5", "amzn:20:1", "cw:20:x"] {
            assert!(
                matches!(store.load_spec("x", trailing), Err(Error::Invalid(_))),
                "{trailing}"
            );
        }
        assert!(store.get("x").is_none());
    }

    #[test]
    fn cache_hits_on_canonical_equivalence_and_counts() {
        let mut store = CorpusStore::new();
        store.load_spec("toy", "toy").unwrap();
        let corpus = store.get("toy").unwrap().clone();
        let a = store
            .compiled(&corpus, desq_core::toy::PATTERN, false)
            .unwrap();
        assert!(!a.cache_hit);
        assert!(a.compile_nanos > 0);
        // Textually different, canonically identical (whitespace).
        let spaced = format!(" {} ", desq_core::toy::PATTERN);
        let b = store.compiled(&corpus, &spaced, false).unwrap();
        assert!(b.cache_hit);
        assert_eq!(b.compile_nanos, 0);
        assert!(Arc::ptr_eq(&a.fst, &b.fst));
        // Anchoring is part of the key: the unanchored variant is a miss.
        let c = store
            .compiled(&corpus, desq_core::toy::PATTERN, true)
            .unwrap();
        assert!(!c.cache_hit);
        assert_eq!(store.cache_stats(), (1, 2));
        // Admission-time rejection of malformed expressions.
        assert!(store.compiled(&corpus, "([", false).is_err());
        assert_eq!(store.cache_stats(), (1, 2));
    }

    #[test]
    fn cache_survives_lock_poisoning() {
        let mut store = CorpusStore::new();
        store.load_spec("toy", "toy").unwrap();
        let corpus = store.get("toy").unwrap().clone();
        let warm = store
            .compiled(&corpus, desq_core::toy::PATTERN, false)
            .unwrap();
        // Poison the cache mutex: panic while holding the guard, the way a
        // panicking query thread would.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = store.cache.lock().unwrap();
            panic!("injected panic under the fst cache lock");
        }));
        assert!(result.is_err());
        assert!(
            store.cache.lock().is_err(),
            "lock must actually be poisoned"
        );
        // Poisoned or not, the cache keeps serving: the warm entry still
        // hits and new expressions still compile and insert.
        let hit = store
            .compiled(&corpus, desq_core::toy::PATTERN, false)
            .unwrap();
        assert!(hit.cache_hit);
        assert!(Arc::ptr_eq(&warm.fst, &hit.fst));
        let miss = store
            .compiled(&corpus, desq_core::toy::PATTERN, true)
            .unwrap();
        assert!(!miss.cache_hit);
    }
}
