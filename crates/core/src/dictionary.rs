//! Item dictionary: vocabulary, hierarchy, f-list and frequency encoding.
//!
//! Items are arranged in a directed acyclic graph that expresses how items
//! generalize (Sec. II of the paper): `u ⇒ v` when `u` is a child of `v`, and
//! `anc(w)` / `desc(w)` are the reflexive-transitive closures upwards and
//! downwards.
//!
//! Construction happens in two steps, mirroring the preprocessing of the
//! paper ("computing item frequencies and converting the dataset to a
//! frequency-based encoding"):
//!
//! 1. [`DictionaryBuilder`] assembles the vocabulary and hierarchy using
//!    provisional ids in insertion order, and validates acyclicity.
//! 2. [`DictionaryBuilder::freeze`] computes the *f-list* — hierarchy-aware
//!    document frequencies `f(w, D)` (the number of input sequences that
//!    contain `w` or one of its descendants) — and recodes every item to its
//!    frequency rank ("fid"): fid 1 is the most frequent item, ties broken by
//!    insertion order. The input database is recoded along.
//!
//! With this encoding the paper's total order on items (`w1 < w2` iff
//! `f(w1) > f(w2)`) is integer order on fids, "item is frequent" is
//! `fid <= dict.last_frequent(sigma)`, and the pivot item of a sequence is
//! its maximum fid.

use crate::error::{Error, Result};
use crate::fx::FxHashMap;
use crate::sequence::{ItemId, Sequence, SequenceDb, EPSILON};

/// Builder for a [`Dictionary`]. Items get provisional ids (1-based) in
/// insertion order; [`freeze`](DictionaryBuilder::freeze) converts them to
/// frequency ranks.
#[derive(Debug, Default, Clone)]
pub struct DictionaryBuilder {
    names: Vec<String>,
    index: FxHashMap<String, ItemId>,
    parents: Vec<Vec<ItemId>>,
}

impl DictionaryBuilder {
    /// Creates an empty builder. Id 0 is reserved for ε.
    pub fn new() -> Self {
        DictionaryBuilder {
            names: vec!["ε".to_string()],
            index: FxHashMap::default(),
            parents: vec![Vec::new()],
        }
    }

    /// Inserts an item (if new) and returns its provisional id.
    pub fn item(&mut self, name: &str) -> ItemId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = self.names.len() as ItemId;
        self.names.push(name.to_string());
        self.parents.push(Vec::new());
        self.index.insert(name.to_string(), id);
        id
    }

    /// Declares that `child` generalizes directly to `parent` (`child ⇒ parent`).
    /// Both items are inserted if missing. Duplicate edges are ignored.
    pub fn edge(&mut self, child: &str, parent: &str) {
        let c = self.item(child);
        let p = self.item(parent);
        if !self.parents[c as usize].contains(&p) {
            self.parents[c as usize].push(p);
        }
    }

    /// Number of items inserted so far (excluding ε).
    pub fn len(&self) -> usize {
        self.names.len() - 1
    }

    /// True if no items were inserted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Provisional id of `name`, if present.
    pub fn id_of(&self, name: &str) -> Option<ItemId> {
        self.index.get(name).copied()
    }

    /// Validates acyclicity and computes, for every item, its ancestor set
    /// (including itself) under provisional ids.
    fn ancestor_closure(&self) -> Result<Vec<Vec<ItemId>>> {
        let n = self.names.len();
        // Kahn topological order over ⇒ edges (child -> parent).
        let mut indegree = vec![0usize; n]; // number of children pointing at item
        for ps in &self.parents {
            for &p in ps {
                indegree[p as usize] += 1;
            }
        }
        let mut stack: Vec<ItemId> = (1..n as ItemId)
            .filter(|&i| indegree[i as usize] == 0)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = stack.pop() {
            order.push(i);
            for &p in &self.parents[i as usize] {
                indegree[p as usize] -= 1;
                if indegree[p as usize] == 0 {
                    stack.push(p);
                }
            }
        }
        if order.len() != n - 1 {
            // Some item never reached indegree 0: it lies on a cycle.
            let culprit = (1..n)
                .find(|&i| indegree[i] > 0)
                .map(|i| self.names[i].clone())
                .unwrap_or_default();
            return Err(Error::CyclicHierarchy(culprit));
        }
        // Children-before-parents order lets us propagate ancestor sets
        // bottom-up... actually we need parents computed before children, so
        // process in reverse order (parents first).
        let mut anc: Vec<Vec<ItemId>> = vec![Vec::new(); n];
        for &i in order.iter().rev() {
            let mut set = vec![i];
            for &p in &self.parents[i as usize] {
                for &a in &anc[p as usize] {
                    if !set.contains(&a) {
                        set.push(a);
                    }
                }
            }
            set.sort_unstable();
            anc[i as usize] = set;
        }
        Ok(anc)
    }

    /// Computes the f-list over `db` (sequences of provisional ids), recodes
    /// items to frequency ranks, and returns the frozen dictionary together
    /// with the recoded database.
    ///
    /// `f(w, D)` counts the input sequences containing `w` *or a descendant
    /// of `w`* (hierarchy-aware document frequency, cf. Fig. 2c where
    /// `f(A) = 4` although `A` never occurs literally).
    pub fn freeze(self, db: &SequenceDb) -> Result<(Dictionary, SequenceDb)> {
        let anc = self.ancestor_closure()?;
        let n = self.names.len();

        // Document frequencies under provisional ids.
        let mut doc_freq = vec![0u64; n];
        let mut seen: Vec<u32> = vec![u32::MAX; n]; // last sequence index that touched item
        for (t, seq) in db.sequences.iter().enumerate() {
            for &it in seq {
                debug_assert!((it as usize) < n, "sequence item out of range");
                for &a in &anc[it as usize] {
                    if seen[a as usize] != t as u32 {
                        seen[a as usize] = t as u32;
                        doc_freq[a as usize] += 1;
                    }
                }
            }
        }

        // Rank by (frequency desc, insertion order asc). fid 0 stays ε.
        let mut by_rank: Vec<ItemId> = (1..n as ItemId).collect();
        by_rank.sort_by(|&a, &b| {
            doc_freq[b as usize]
                .cmp(&doc_freq[a as usize])
                .then(a.cmp(&b))
        });
        let mut old_to_new = vec![EPSILON; n];
        for (rank, &old) in by_rank.iter().enumerate() {
            old_to_new[old as usize] = rank as ItemId + 1;
        }

        // Rebuild all id-indexed structures under fids.
        let mut names = vec!["ε".to_string()];
        let mut freqs = vec![0u64];
        let mut parents: Vec<Box<[ItemId]>> = vec![Box::from([])];
        let mut ancestors: Vec<Box<[ItemId]>> = vec![Box::from([])];
        for &old in &by_rank {
            names.push(self.names[old as usize].clone());
            freqs.push(doc_freq[old as usize]);
            let mut ps: Vec<ItemId> = self.parents[old as usize]
                .iter()
                .map(|&p| old_to_new[p as usize])
                .collect();
            ps.sort_unstable();
            parents.push(ps.into_boxed_slice());
            let mut ans: Vec<ItemId> = anc[old as usize]
                .iter()
                .map(|&a| old_to_new[a as usize])
                .collect();
            ans.sort_unstable();
            ancestors.push(ans.into_boxed_slice());
        }
        let mut children: Vec<Vec<ItemId>> = vec![Vec::new(); n];
        for (fid, ps) in parents.iter().enumerate().skip(1) {
            for &p in ps.iter() {
                children[p as usize].push(fid as ItemId);
            }
        }
        let index = names
            .iter()
            .enumerate()
            .skip(1)
            .map(|(i, s)| (s.clone(), i as ItemId))
            .collect();

        let dict = Dictionary {
            names,
            index,
            parents,
            children: children.into_iter().map(Vec::into_boxed_slice).collect(),
            ancestors,
            doc_freq: freqs,
        };

        let recoded = SequenceDb::new(
            db.sequences
                .iter()
                .map(|s| {
                    s.iter()
                        .map(|&it| old_to_new[it as usize])
                        .collect::<Sequence>()
                })
                .collect(),
        );
        Ok((dict, recoded))
    }
}

/// A frozen, frequency-encoded item dictionary with hierarchy and f-list.
#[derive(Debug, Clone)]
pub struct Dictionary {
    names: Vec<String>,
    index: FxHashMap<String, ItemId>,
    parents: Vec<Box<[ItemId]>>,
    children: Vec<Box<[ItemId]>>,
    /// Ancestors including self, sorted ascending. Indexed by fid.
    ancestors: Vec<Box<[ItemId]>>,
    /// Hierarchy-aware document frequency, non-increasing in fid.
    doc_freq: Vec<u64>,
}

impl Dictionary {
    /// Number of items (excluding ε).
    pub fn len(&self) -> usize {
        self.names.len() - 1
    }

    /// True if the dictionary holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Largest valid fid.
    pub fn max_fid(&self) -> ItemId {
        self.len() as ItemId
    }

    /// Resolves an item by name.
    pub fn id_of(&self, name: &str) -> Option<ItemId> {
        self.index.get(name).copied()
    }

    /// The display name of an item ("ε" for [`EPSILON`]).
    pub fn name(&self, fid: ItemId) -> &str {
        &self.names[fid as usize]
    }

    /// Renders a sequence as space-separated item names.
    pub fn render(&self, seq: &[ItemId]) -> String {
        seq.iter()
            .map(|&w| self.name(w))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Direct generalizations (parents) of an item.
    pub fn parents(&self, fid: ItemId) -> &[ItemId] {
        &self.parents[fid as usize]
    }

    /// Direct specializations (children) of an item.
    pub fn children(&self, fid: ItemId) -> &[ItemId] {
        &self.children[fid as usize]
    }

    /// `anc(w)`: ancestors of `w` including `w`, sorted ascending by fid.
    pub fn ancestors(&self, fid: ItemId) -> &[ItemId] {
        &self.ancestors[fid as usize]
    }

    /// True iff `a ∈ anc(d)`, i.e. `d ⇒* a` (includes `a == d`).
    #[inline]
    pub fn is_ancestor(&self, a: ItemId, d: ItemId) -> bool {
        self.ancestors[d as usize].binary_search(&a).is_ok()
    }

    /// `desc(w)`: all descendants of `w` including `w` (computed on demand).
    pub fn descendants(&self, fid: ItemId) -> Vec<ItemId> {
        let mut out = vec![fid];
        let mut stack = vec![fid];
        while let Some(i) = stack.pop() {
            for &c in self.children(i) {
                if !out.contains(&c) {
                    out.push(c);
                    stack.push(c);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Hierarchy-aware document frequency `f(w, D)` from the f-list.
    #[inline]
    pub fn doc_freq(&self, fid: ItemId) -> u64 {
        self.doc_freq[fid as usize]
    }

    /// The largest fid that is still frequent at threshold `sigma`
    /// (0 if no item is frequent). Because fids are frequency ranks, an item
    /// is frequent iff `fid <= last_frequent(sigma)`.
    pub fn last_frequent(&self, sigma: u64) -> ItemId {
        // doc_freq[1..] is non-increasing; find the last index with freq >= sigma.
        let tail = &self.doc_freq[1..];
        tail.partition_point(|&f| f >= sigma) as ItemId
    }

    /// True iff `f(fid, D) >= sigma`.
    #[inline]
    pub fn is_frequent(&self, fid: ItemId, sigma: u64) -> bool {
        fid != EPSILON && self.doc_freq[fid as usize] >= sigma
    }

    /// Mean number of ancestors (including self) per item — the
    /// "mean ancestors" statistic of Tab. II.
    pub fn mean_ancestors(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let total: usize = self.ancestors.iter().skip(1).map(|a| a.len()).sum();
        total as f64 / self.len() as f64
    }

    /// Maximum number of ancestors (including self) over all items.
    pub fn max_ancestors(&self) -> usize {
        self.ancestors
            .iter()
            .skip(1)
            .map(|a| a.len())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy;

    #[test]
    fn toy_flist_matches_paper_fig2c() {
        let fx = toy::fixture();
        let d = &fx.dict;
        // Order: b < A < d < a1 < c < e < a2 with f = 5,4,3,3,2,1,1.
        let expect = [
            ("b", 5),
            ("A", 4),
            ("d", 3),
            ("a1", 3),
            ("c", 2),
            ("e", 1),
            ("a2", 1),
        ];
        for (rank, (name, f)) in expect.iter().enumerate() {
            let fid = (rank + 1) as ItemId;
            assert_eq!(d.name(fid), *name, "rank {rank}");
            assert_eq!(d.doc_freq(fid), *f, "freq of {name}");
        }
    }

    #[test]
    fn toy_hierarchy() {
        let fx = toy::fixture();
        let d = &fx.dict;
        let (a1, a2, big_a, b) = (fx.a1, fx.a2, fx.big_a, fx.b);
        assert_eq!(d.ancestors(a1), &[big_a, a1]); // A < a1 so sorted ascending
        assert!(d.is_ancestor(big_a, a1));
        assert!(d.is_ancestor(big_a, a2));
        assert!(d.is_ancestor(a1, a1));
        assert!(!d.is_ancestor(a1, big_a));
        assert!(!d.is_ancestor(b, a1));
        let mut desc = d.descendants(big_a);
        desc.sort_unstable();
        assert_eq!(desc, vec![big_a, a1, a2]);
    }

    #[test]
    fn frequency_thresholds() {
        let fx = toy::fixture();
        let d = &fx.dict;
        // sigma = 2: frequent items are b, A, d, a1, c (fids 1..=5).
        assert_eq!(d.last_frequent(2), 5);
        assert!(d.is_frequent(fx.c, 2));
        assert!(!d.is_frequent(fx.e, 2));
        assert!(!d.is_frequent(EPSILON, 2));
        // sigma = 4: only b and A.
        assert_eq!(d.last_frequent(4), 2);
        // sigma = 1: everything.
        assert_eq!(d.last_frequent(1), 7);
        // sigma = 100: nothing.
        assert_eq!(d.last_frequent(100), 0);
    }

    #[test]
    fn recoded_database_round_trips_names() {
        let fx = toy::fixture();
        assert_eq!(fx.dict.render(&fx.db.sequences[0]), "a1 c d c b");
        assert_eq!(fx.dict.render(&fx.db.sequences[1]), "e e a1 e a1 e b");
        assert_eq!(fx.dict.render(&fx.db.sequences[3]), "a2 d b");
    }

    #[test]
    fn cyclic_hierarchy_rejected() {
        let mut b = DictionaryBuilder::new();
        b.edge("x", "y");
        b.edge("y", "z");
        b.edge("z", "x");
        let db = SequenceDb::new(vec![vec![b.id_of("x").unwrap()]]);
        let err = b.freeze(&db).unwrap_err();
        assert!(matches!(err, Error::CyclicHierarchy(_)));
    }

    #[test]
    fn self_loop_rejected() {
        let mut b = DictionaryBuilder::new();
        b.edge("x", "x");
        let db = SequenceDb::new(vec![]);
        assert!(matches!(b.freeze(&db), Err(Error::CyclicHierarchy(_))));
    }

    #[test]
    fn diamond_dag_ancestors_deduplicated() {
        // x => u, x => v, u => r, v => r : anc(x) = {x, u, v, r}
        let mut b = DictionaryBuilder::new();
        b.edge("x", "u");
        b.edge("x", "v");
        b.edge("u", "r");
        b.edge("v", "r");
        let x = b.id_of("x").unwrap();
        let db = SequenceDb::new(vec![vec![x], vec![x]]);
        let (d, _) = b.freeze(&db).unwrap();
        let xf = d.id_of("x").unwrap();
        assert_eq!(d.ancestors(xf).len(), 4);
        // All four items occur in both sequences (via closure): equal freq 2.
        for fid in 1..=4 {
            assert_eq!(d.doc_freq(fid), 2);
        }
        assert!((d.mean_ancestors() - (4 + 2 + 2 + 1) as f64 / 4.0).abs() < 1e-9);
        assert_eq!(d.max_ancestors(), 4);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut b = DictionaryBuilder::new();
        let p = b.item("p");
        let q = b.item("q");
        let db = SequenceDb::new(vec![vec![p, q]]);
        let (d, _) = b.freeze(&db).unwrap();
        assert_eq!(d.name(1), "p");
        assert_eq!(d.name(2), "q");
    }

    #[test]
    fn items_never_in_data_rank_last() {
        let mut b = DictionaryBuilder::new();
        let x = b.item("x");
        b.item("ghost");
        let db = SequenceDb::new(vec![vec![x]]);
        let (d, recoded) = b.freeze(&db).unwrap();
        assert_eq!(d.id_of("x"), Some(1));
        assert_eq!(d.id_of("ghost"), Some(2));
        assert_eq!(d.doc_freq(2), 0);
        assert_eq!(recoded.sequences, vec![vec![1]]);
    }
}
