//! Secondary indexes: a copy-on-write B+-tree per indexed column.
//!
//! An index maps a single column's values to the ids of the rows holding
//! each value, in the total order of [`Value::order_key`] (NULLs first, then
//! numbers, dates, text). It answers point lookups, the range scans the
//! planner generates for comparison predicates, and the prefix scans behind
//! `col LIKE 'prefix%'`. NULLs are indexed (sorting first) but never
//! participate in uniqueness, per SQL-92.
//!
//! Every node of the tree is behind its own `Arc`, so cloning an index — the
//! copy-on-write step a writer performs before changing an index a published
//! snapshot still shares — copies the root pointer. A write path-copies the
//! nodes from the root to its leaf with [`Arc::make_mut`]: O(height) nodes,
//! a branch of at most 32 children and a leaf of at most 32 keys and, unless
//! one key alone holds more, 256 row ids. A later write in the same
//! statement finds those nodes unshared and copies nothing more, and every
//! other node stays shared with the snapshots that pin it. Removal drops
//! nodes that become empty but never merges underfull ones. Probes compare
//! stored keys against the caller's borrowed [`ValueRef`] — a stored row's
//! cell or a literal — through [`ValueRef::order_key`]; searching clones
//! nothing, and only a new key is copied into the tree.

use crate::error::{SqlCode, SqlError, SqlResult};
use crate::storage::RowId;
use crate::types::{Value, ValueRef};
use std::ops::Bound;
use std::sync::Arc;

/// Entries (keys in a leaf, children in a branch) a node holds before it
/// splits in two.
const MAX_ENTRIES: usize = 32;
/// Row ids a leaf of two or more keys holds before it splits in two, so
/// that copying a leaf of a low-cardinality index copies a bounded list
/// unless one key alone holds more.
const MAX_IDS: usize = 256;

/// Distinct keys in order and the ids of the rows holding each, stored flat
/// so that copying a leaf copies three buffers.
#[derive(Debug, Clone, Default)]
struct Leaf {
    keys: Vec<Value>,
    /// `ids[ends[i - 1]..ends[i]]` (from 0 when `i` is 0) are the rows of
    /// `keys[i]`, in insertion order.
    ends: Vec<usize>,
    ids: Vec<RowId>,
}

impl Leaf {
    fn find(&self, key: ValueRef<'_>) -> Result<usize, usize> {
        self.keys.binary_search_by(|k| k.view().order_key(key))
    }

    fn start(&self, i: usize) -> usize {
        if i == 0 {
            0
        } else {
            self.ends[i - 1]
        }
    }

    /// The rows of `keys[i]`.
    fn rows(&self, i: usize) -> &[RowId] {
        &self.ids[self.start(i)..self.ends[i]]
    }

    /// Add `row` under `key`; returns whether `key` is new.
    fn insert(&mut self, key: ValueRef<'_>, row: RowId) -> bool {
        let (i, added) = match self.find(key) {
            Ok(i) => (i, false),
            Err(i) => {
                self.keys.insert(i, key.canonical().to_value());
                self.ends.insert(i, self.start(i));
                (i, true)
            }
        };
        self.ids.insert(self.ends[i], row);
        self.ends[i..].iter_mut().for_each(|end| *end += 1);
        added
    }

    /// Remove one `(key, row)` pair; returns whether `key` went away.
    fn remove(&mut self, key: ValueRef<'_>, row: RowId) -> bool {
        let Ok(i) = self.find(key) else {
            return false;
        };
        let Some(at) = self.rows(i).iter().position(|&r| r == row) else {
            return false;
        };
        self.ids.remove(self.start(i) + at);
        self.ends[i..].iter_mut().for_each(|end| *end -= 1);
        let gone = self.rows(i).is_empty();
        if gone {
            self.keys.remove(i);
            self.ends.remove(i);
        }
        gone
    }

    /// Move the keys from `mid` on, with their rows, to a new leaf.
    fn split_off(&mut self, mid: usize) -> Leaf {
        let cut = self.ends[mid - 1];
        Leaf {
            keys: self.keys.split_off(mid),
            ends: self
                .ends
                .split_off(mid)
                .into_iter()
                .map(|end| end - cut)
                .collect(),
            ids: self.ids.split_off(cut),
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf(Leaf),
    /// `children[i]` holds the keys `k` with `keys[i - 1] <= k < keys[i]`.
    Branch {
        keys: Vec<Value>,
        children: Vec<Arc<Node>>,
    },
}

impl Node {
    fn empty() -> Arc<Node> {
        Arc::new(Node::Leaf(Leaf::default()))
    }

    fn is_empty(&self) -> bool {
        match self {
            Node::Leaf(leaf) => leaf.keys.is_empty(),
            Node::Branch { children, .. } => children.is_empty(),
        }
    }

    /// Split an overfull node in half, returning the right half and the
    /// least key it holds.
    fn split(&mut self) -> Option<(Value, Arc<Node>)> {
        match self {
            Node::Leaf(leaf) if leaf.keys.len() > MAX_ENTRIES => {
                let right = leaf.split_off(leaf.keys.len() / 2);
                Some((right.keys[0].clone(), Arc::new(Node::Leaf(right))))
            }
            Node::Leaf(leaf) if leaf.keys.len() > 1 && leaf.ids.len() > MAX_IDS => {
                // At the key where the first half of the ids ends.
                let half = leaf.ends.partition_point(|&end| end <= leaf.ids.len() / 2);
                let right = leaf.split_off(half.clamp(1, leaf.keys.len() - 1));
                Some((right.keys[0].clone(), Arc::new(Node::Leaf(right))))
            }
            Node::Branch { keys, children } if children.len() > MAX_ENTRIES => {
                let mid = children.len() / 2;
                let mut right_keys = keys.split_off(mid - 1);
                let least = right_keys.remove(0);
                let right = Node::Branch {
                    keys: right_keys,
                    children: children.split_off(mid),
                };
                Some((least, Arc::new(right)))
            }
            _ => None,
        }
    }
}

/// The child of a branch with separators `keys` whose range holds `key`.
fn child_for(keys: &[Value], key: ValueRef<'_>) -> usize {
    keys.partition_point(|k| k.view().order_key(key).is_le())
}

/// Whether `key` satisfies the lower bound `lo`.
fn above(key: &Value, lo: Bound<&Value>) -> bool {
    match lo {
        Bound::Included(v) => key.order_key(v).is_ge(),
        Bound::Excluded(v) => key.order_key(v).is_gt(),
        Bound::Unbounded => true,
    }
}

/// Whether `key` satisfies the upper bound `hi`.
fn below(key: &Value, hi: Bound<&Value>) -> bool {
    match hi {
        Bound::Included(v) => key.order_key(v).is_le(),
        Bound::Excluded(v) => key.order_key(v).is_lt(),
        Bound::Unbounded => true,
    }
}

/// Add `row` under `key` below `node`, path-copying on the way down.
/// Returns whether `key` was new, and the split-off right half if `node`
/// overflowed.
fn insert_into(
    node: &mut Arc<Node>,
    key: ValueRef<'_>,
    row: RowId,
) -> (bool, Option<(Value, Arc<Node>)>) {
    let node = Arc::make_mut(node);
    let added = match node {
        Node::Leaf(leaf) => leaf.insert(key, row),
        Node::Branch { keys, children } => {
            let i = child_for(keys, key);
            let (added, split) = insert_into(&mut children[i], key, row);
            if let Some((least, right)) = split {
                keys.insert(i, least);
                children.insert(i + 1, right);
            }
            added
        }
    };
    (added, node.split())
}

/// Remove one `(key, row)` pair below `node`, path-copying on the way down
/// and dropping nodes left empty. Returns whether the key went away.
fn remove_from(node: &mut Arc<Node>, key: ValueRef<'_>, row: RowId) -> bool {
    match Arc::make_mut(node) {
        Node::Leaf(leaf) => leaf.remove(key, row),
        Node::Branch { keys, children } => {
            let i = child_for(keys, key);
            let gone = remove_from(&mut children[i], key, row);
            if children[i].is_empty() {
                // A neighbour's range absorbs the emptied child's.
                children.remove(i);
                if !keys.is_empty() {
                    keys.remove(i.saturating_sub(1));
                }
            }
            gone
        }
    }
}

/// Call `visit` on every entry below `node` whose key satisfies `lo` and
/// `hi`, in key order, until it returns `false`. Returns `false` if stopped.
fn walk<'a>(
    node: &'a Node,
    lo: Bound<&Value>,
    hi: Bound<&Value>,
    visit: &mut impl FnMut(&'a Value, &'a [RowId]) -> bool,
) -> bool {
    match node {
        Node::Leaf(leaf) => {
            let start = leaf.keys.partition_point(|k| !above(k, lo));
            let end = leaf.keys.partition_point(|k| below(k, hi));
            (start..end).all(|i| visit(&leaf.keys[i], leaf.rows(i)))
        }
        Node::Branch { keys, children } => {
            let first = match lo {
                Bound::Included(v) | Bound::Excluded(v) => child_for(keys, v.view()),
                Bound::Unbounded => 0,
            };
            let last = match hi {
                Bound::Included(v) | Bound::Excluded(v) => child_for(keys, v.view()),
                Bound::Unbounded => children.len() - 1,
            };
            (first..=last).all(|i| walk(&children[i], lo, hi, visit))
        }
    }
}

/// A single-column index.
#[derive(Debug, Clone)]
pub struct Index {
    /// Index name (unique per database).
    pub name: String,
    /// Table it belongs to.
    pub table: String,
    /// Ordinal of the indexed column.
    pub column: usize,
    /// Whether duplicate non-NULL keys are rejected.
    pub unique: bool,
    root: Arc<Node>,
    /// Distinct keys stored.
    keys: usize,
}

impl Index {
    /// Create an empty index.
    pub fn new(name: &str, table: &str, column: usize, unique: bool) -> Index {
        Index {
            name: name.to_owned(),
            table: table.to_owned(),
            column,
            unique,
            root: Node::empty(),
            keys: 0,
        }
    }

    /// An index holding `entries`, built bottom-up: the pairs sorted by key
    /// (stably, so each key's rows keep their order here), packed into full
    /// leaves, then one level of branches at a time. The same index, and the
    /// same error on a duplicate non-NULL key of a unique index, as
    /// inserting the pairs one by one, in O(n log n) with no path copies.
    pub fn build<'a>(
        name: &str,
        table: &str,
        column: usize,
        unique: bool,
        entries: impl Iterator<Item = (impl Into<ValueRef<'a>>, RowId)>,
    ) -> SqlResult<Index> {
        let mut index = Index::new(name, table, column, unique);
        let mut entries: Vec<(ValueRef<'a>, RowId)> =
            entries.map(|(key, row)| (key.into(), row)).collect();
        entries.sort_by(|a, b| a.0.order_key(b.0));
        let mut level: Vec<(Value, Arc<Node>)> = Vec::new();
        let mut leaf = Leaf::default();
        for run in entries.chunk_by(|a, b| a.0.order_key(b.0).is_eq()) {
            let key = run[0].0;
            if unique && !key.is_null() && run.len() > 1 {
                return Err(index.duplicate(key));
            }
            if leaf.keys.len() == MAX_ENTRIES
                || (!leaf.keys.is_empty() && leaf.ids.len() + run.len() > MAX_IDS)
            {
                let full = std::mem::take(&mut leaf);
                level.push((full.keys[0].clone(), Arc::new(Node::Leaf(full))));
            }
            leaf.keys.push(key.canonical().to_value());
            leaf.ids.extend(run.iter().map(|&(_, row)| row));
            leaf.ends.push(leaf.ids.len());
            index.keys += 1;
        }
        if let Some(least) = leaf.keys.first() {
            level.push((least.clone(), Arc::new(Node::Leaf(leaf))));
        }
        while level.len() > 1 {
            level = (level.chunks(MAX_ENTRIES))
                .map(|nodes| {
                    let branch = Node::Branch {
                        keys: nodes[1..].iter().map(|(least, _)| least.clone()).collect(),
                        children: nodes.iter().map(|(_, node)| Arc::clone(node)).collect(),
                    };
                    (nodes[0].0.clone(), Arc::new(branch))
                })
                .collect();
        }
        if let Some((_, root)) = level.pop() {
            index.root = root;
        }
        Ok(index)
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.keys
    }

    fn duplicate(&self, key: ValueRef<'_>) -> SqlError {
        SqlError::new(
            SqlCode::DUPLICATE_KEY,
            format!("duplicate key {key} in unique index {}", self.name),
        )
    }

    /// Insert a `(key, row)` pair, enforcing uniqueness for non-NULL keys.
    /// A rejected pair copies and changes nothing. The index stores `-0.0`
    /// as `0.0`, the key it equals.
    pub fn insert<'k>(&mut self, key: impl Into<ValueRef<'k>>, row: RowId) -> SqlResult<()> {
        let key = key.into();
        if self.unique && !key.is_null() && !self.lookup_ref(key).is_empty() {
            return Err(self.duplicate(key));
        }
        let (added, split) = insert_into(&mut self.root, key, row);
        self.keys += usize::from(added);
        if let Some((least, right)) = split {
            self.root = Arc::new(Node::Branch {
                keys: vec![least],
                children: vec![Arc::clone(&self.root), right],
            });
        }
        Ok(())
    }

    /// Remove one `(key, row)` pair (no-op, copying nothing, if absent).
    pub fn remove<'k>(&mut self, key: impl Into<ValueRef<'k>>, row: RowId) {
        let key = key.into();
        if !self.lookup_ref(key).contains(&row) {
            return;
        }
        self.keys -= usize::from(remove_from(&mut self.root, key, row));
        // A branch left with one child (or none) gives way to it.
        while let Node::Branch { children, .. } = &*self.root {
            if children.len() > 1 {
                break;
            }
            self.root = children.first().cloned().unwrap_or_else(Node::empty);
        }
    }

    /// Row ids with exactly this key.
    pub fn lookup<'k>(&self, key: impl Into<ValueRef<'k>>) -> Vec<RowId> {
        self.lookup_ref(key).to_vec()
    }

    /// Row ids with exactly this key, borrowed — no allocation on the probe
    /// path (the executor copies only when it must own the ids).
    pub fn lookup_ref<'k>(&self, key: impl Into<ValueRef<'k>>) -> &[RowId] {
        let key = key.into();
        let mut node = &*self.root;
        loop {
            match node {
                Node::Branch { keys, children } => node = &children[child_for(keys, key)],
                Node::Leaf(leaf) => return leaf.find(key).map_or(&[], |i| leaf.rows(i)),
            }
        }
    }

    /// Row ids with keys in `[lo, hi]` under the given bound kinds, in key
    /// order; empty when the bounds are inverted.
    pub fn range(&self, lo: Bound<&Value>, hi: Bound<&Value>) -> Vec<RowId> {
        let mut out = Vec::new();
        walk(&self.root, lo, hi, &mut |_, rows| {
            out.extend_from_slice(rows);
            true
        });
        out
    }

    /// Row ids whose text key starts with `prefix` (for LIKE 'p%'); every
    /// row id when `prefix` is empty.
    pub fn prefix_scan(&self, prefix: &str) -> Vec<RowId> {
        if prefix.is_empty() {
            return self.range(Bound::Unbounded, Bound::Unbounded);
        }
        let lo = Value::Text(prefix.to_owned());
        let mut out = Vec::new();
        walk(
            &self.root,
            Bound::Included(&lo),
            Bound::Unbounded,
            &mut |key, rows| {
                let hit = matches!(key, Value::Text(t) if t.starts_with(prefix));
                if hit {
                    out.extend_from_slice(rows);
                }
                hit
            },
        );
        out
    }

    /// Levels from the root to the leaves.
    #[cfg(test)]
    pub(crate) fn height(&self) -> usize {
        let mut node = &*self.root;
        let mut height = 1;
        while let Node::Branch { children, .. } = node {
            node = &children[0];
            height += 1;
        }
        height
    }

    /// Every node's allocation, in preorder.
    #[cfg(test)]
    pub(crate) fn node_ptrs(&self) -> Vec<*const ()> {
        fn visit(node: &Arc<Node>, out: &mut Vec<*const ()>) {
            out.push(Arc::as_ptr(node).cast());
            if let Node::Branch { children, .. } = &**node {
                children.iter().for_each(|child| visit(child, out));
            }
        }
        let mut out = Vec::new();
        visit(&self.root, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbgw_testkit::gen::{charset, usizes, vec_of};
    use dbgw_testkit::{prop_assert, prop_assert_eq, props};
    use std::cmp::Ordering;
    use std::collections::BTreeMap;

    fn idx(unique: bool) -> Index {
        Index::new("i", "t", 0, unique)
    }

    #[test]
    fn point_lookup() {
        let mut i = idx(false);
        i.insert(&Value::Int(5), RowId(1)).unwrap();
        i.insert(&Value::Int(5), RowId(2)).unwrap();
        i.insert(&Value::Int(9), RowId(3)).unwrap();
        assert_eq!(i.lookup(&Value::Int(5)), vec![RowId(1), RowId(2)]);
        assert!(i.lookup(&Value::Int(7)).is_empty());
    }

    #[test]
    fn unique_rejects_duplicates_but_not_nulls() {
        let mut i = idx(true);
        i.insert(&Value::Int(5), RowId(1)).unwrap();
        let err = i.insert(&Value::Int(5), RowId(2)).unwrap_err();
        assert_eq!(err.code, SqlCode::DUPLICATE_KEY);
        // NULL keys never collide.
        i.insert(&Value::Null, RowId(3)).unwrap();
        i.insert(&Value::Null, RowId(4)).unwrap();
    }

    #[test]
    fn remove_cleans_up_key() {
        let mut i = idx(false);
        i.insert(&Value::Int(5), RowId(1)).unwrap();
        i.remove(&Value::Int(5), RowId(1));
        assert_eq!(i.key_count(), 0);
        // Removing a non-existent pair is fine.
        i.remove(&Value::Int(5), RowId(1));
    }

    #[test]
    fn range_scan_inclusive_exclusive() {
        let mut i = idx(false);
        for n in 1..=5 {
            i.insert(&Value::Int(n), RowId(n as u32)).unwrap();
        }
        let rows = i.range(
            Bound::Included(&Value::Int(2)),
            Bound::Excluded(&Value::Int(5)),
        );
        assert_eq!(rows, vec![RowId(2), RowId(3), RowId(4)]);
    }

    #[test]
    fn prefix_scan_finds_only_matching_text() {
        let mut i = idx(false);
        i.insert(&Value::Text("apple".into()), RowId(1)).unwrap();
        i.insert(&Value::Text("apricot".into()), RowId(2)).unwrap();
        i.insert(&Value::Text("banana".into()), RowId(3)).unwrap();
        i.insert(&Value::Int(1), RowId(4)).unwrap();
        let mut rows = i.prefix_scan("ap");
        rows.sort();
        assert_eq!(rows, vec![RowId(1), RowId(2)]);
        assert_eq!(i.prefix_scan("").len(), 4);
        assert!(i.prefix_scan("z").is_empty());
    }

    #[test]
    fn mixed_type_keys_ordered_stably() {
        let mut i = idx(false);
        i.insert(&Value::Text("a".into()), RowId(1)).unwrap();
        i.insert(&Value::Int(10), RowId(2)).unwrap();
        i.insert(&Value::Null, RowId(3)).unwrap();
        let all = i.range(Bound::Unbounded, Bound::Unbounded);
        assert_eq!(all, vec![RowId(3), RowId(2), RowId(1)]); // null, number, text
    }

    /// `Value` under [`Value::order_key`], as a `BTreeMap` key.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct OrdValue(Value);

    impl PartialOrd for OrdValue {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for OrdValue {
        fn cmp(&self, other: &Self) -> Ordering {
            self.0.order_key(&other.0)
        }
    }

    /// The reference an index must agree with.
    type Model = BTreeMap<OrdValue, Vec<RowId>>;

    /// Size of the key universe the property draws from.
    const KEYS: usize = 3_000;

    /// Key `n` of a mixed universe: NULL, integers, doubles that equal or
    /// fall between them, and short texts.
    fn key(n: usize) -> Value {
        let i = (n / 6) as i64;
        match n % 6 {
            0 => Value::Null,
            1 => Value::Int(i),
            2 => Value::Double(i as f64 + 0.5),
            3 => Value::Double(i as f64),
            4 => Value::Int(-i),
            _ => Value::Text(format!("{}{i}", ["a", "ab", "b", "ba"][n % 4])),
        }
    }

    fn bound(kind: usize, n: usize) -> Bound<Value> {
        match kind {
            0 => Bound::Unbounded,
            1 => Bound::Included(key(n)),
            _ => Bound::Excluded(key(n)),
        }
    }

    /// The tree's shape: sorted keys within every node, every key inside
    /// its parent's separators, no empty node below the root, all leaves
    /// at one depth, and `key_count` equal to the keys in the leaves.
    fn well_formed(index: &Index) -> Result<(), String> {
        fn check<'a>(
            node: &'a Node,
            lo: Option<&'a Value>,
            hi: Option<&'a Value>,
            depth: usize,
            leaves: &mut Vec<(usize, usize)>,
        ) -> Result<(), String> {
            let inside = |k: &Value| {
                lo.is_none_or(|lo| k.order_key(lo).is_ge())
                    && hi.is_none_or(|hi| k.order_key(hi).is_lt())
            };
            let (keys, fanout) = match node {
                Node::Leaf(leaf) => {
                    let keys = &leaf.keys;
                    prop_assert_eq!(leaf.ends.len(), keys.len());
                    prop_assert_eq!(leaf.ends.last().copied().unwrap_or(0), leaf.ids.len());
                    prop_assert!(
                        (0..keys.len()).all(|i| !leaf.rows(i).is_empty()),
                        "empty row list"
                    );
                    prop_assert!(keys.iter().all(inside), "leaf key outside its range");
                    leaves.push((depth, keys.len()));
                    (keys, keys.len())
                }
                Node::Branch { keys, children } => {
                    prop_assert_eq!(keys.len() + 1, children.len());
                    prop_assert!(keys.iter().all(inside), "separator outside its range");
                    for (i, child) in children.iter().enumerate() {
                        prop_assert!(!child.is_empty(), "empty node kept");
                        let lo = if i == 0 { lo } else { Some(&keys[i - 1]) };
                        check(child, lo, keys.get(i).or(hi), depth + 1, leaves)?;
                    }
                    (keys, children.len())
                }
            };
            prop_assert!(fanout <= MAX_ENTRIES, "overfull node");
            prop_assert!(
                keys.windows(2).all(|w| w[0].order_key(&w[1]).is_lt()),
                "unsorted"
            );
            Ok(())
        }
        let mut leaves = Vec::new();
        check(&index.root, None, None, 1, &mut leaves)?;
        prop_assert!(
            leaves.iter().all(|&(d, _)| d == index.height()),
            "uneven leaves"
        );
        prop_assert_eq!(
            leaves.iter().map(|&(_, n)| n).sum::<usize>(),
            index.key_count()
        );
        Ok(())
    }

    /// Compare every probe of `index` with `model`.
    fn agrees(
        index: &Index,
        model: &Model,
        probes: &[(usize, usize, usize, usize)],
    ) -> Result<(), String> {
        well_formed(index)?;
        prop_assert_eq!(index.key_count(), model.len());
        for n in (0..KEYS).step_by(7) {
            let want = model.get(&OrdValue(key(n))).cloned().unwrap_or_default();
            prop_assert_eq!(index.lookup(&key(n)), want);
        }
        for (k, rows) in model {
            prop_assert_eq!(index.lookup_ref(&k.0), rows.as_slice());
        }
        let all: Vec<RowId> = model.values().flatten().copied().collect();
        prop_assert_eq!(index.range(Bound::Unbounded, Bound::Unbounded), all.clone());
        prop_assert_eq!(index.prefix_scan(""), all);
        for &(lo_kind, lo, hi_kind, hi) in probes {
            let (lo, hi) = (bound(lo_kind, lo), bound(hi_kind, hi));
            let want: Vec<RowId> = (model.iter())
                .filter(|(k, _)| above(&k.0, lo.as_ref()) && below(&k.0, hi.as_ref()))
                .flat_map(|(_, rows)| rows.iter().copied())
                .collect();
            prop_assert_eq!(
                index.range(lo.as_ref(), hi.as_ref()),
                want,
                "range {lo:?}..{hi:?}"
            );
        }
        for prefix in ["a", "ab", "b", "ba", "a1", "c"] {
            let want: Vec<RowId> = (model.iter())
                .filter(|(k, _)| matches!(&k.0, Value::Text(t) if t.starts_with(prefix)))
                .flat_map(|(_, rows)| rows.iter().copied())
                .collect();
            prop_assert_eq!(index.prefix_scan(prefix), want, "prefix {prefix}");
        }
        Ok(())
    }

    props! {
        config(cases = 64);

        // `op` picks insert (0-27), remove of a stored pair (28-34) or of
        // any pair (35-38), or a snapshot (39). Keys come from
        // `key(0..KEYS)`; trees grow two or three levels deep.
        fn index_matches_a_btreemap_model(
            unique in usizes(0..2),
            ops in vec_of((usizes(0..40), usizes(0..KEYS), usizes(0..40)), 1_000..=3_000),
            probes in vec_of((usizes(0..3), usizes(0..KEYS), usizes(0..3), usizes(0..KEYS)), 0..=12),
        ) {
            let unique = unique == 1;
            let mut index = Index::new("i", "t", 0, unique);
            let mut model = Model::new();
            let mut snapshots: Vec<(Index, Model)> = Vec::new();
            for (op, n, row) in ops {
                let (mut k, mut row) = (key(n), RowId(row as u32));
                match op {
                    0..=27 => {
                        let rejected = unique && !k.is_null() && model.contains_key(&OrdValue(k.clone()));
                        prop_assert_eq!(index.insert(&k, row).is_err(), rejected, "insert {k:?}");
                        if !rejected {
                            model.entry(OrdValue(k)).or_default().push(row);
                        }
                    }
                    28..=38 => {
                        if op < 35 && !model.is_empty() {
                            let (stored, rows) = model.iter().nth(n % model.len()).expect("in range");
                            (k, row) = (stored.0.clone(), rows[row.0 as usize % rows.len()]);
                        }
                        index.remove(&k, row);
                        if let Some(rows) = model.get_mut(&OrdValue(k.clone())) {
                            if let Some(at) = rows.iter().position(|&r| r == row) {
                                rows.remove(at);
                            }
                            if rows.is_empty() {
                                model.remove(&OrdValue(k));
                            }
                        }
                    }
                    _ => snapshots.push((index.clone(), model.clone())),
                }
            }
            agrees(&index, &model, &probes)?;
            for (snapshot, model) in &snapshots {
                agrees(snapshot, model, &probes)?;
            }
        }

        // `mode`: 0 a plain index, 1 a unique one over distinct keys, 2 a
        // unique one over whatever keys come (so usually a duplicate).
        fn build_matches_inserting_one_by_one(
            mode in usizes(0..3),
            pairs in vec_of((usizes(0..KEYS), usizes(0..40)), 0..=2_000),
        ) {
            let mut pairs: Vec<(Value, RowId)> = (pairs.into_iter())
                .map(|(n, row)| (key(n), RowId(row as u32)))
                .collect();
            if mode == 1 {
                let mut seen = Model::new();
                pairs.retain(|(k, _)| k.is_null() || seen.insert(OrdValue(k.clone()), Vec::new()).is_none());
            }
            let unique = mode > 0;
            let mut one_by_one = Index::new("i", "t", 0, unique);
            let inserted = pairs.iter().try_for_each(|(k, row)| one_by_one.insert(k, *row));
            let built = Index::build("i", "t", 0, unique, pairs.iter().map(|(k, row)| (k, *row)));
            match (inserted, built) {
                (Ok(()), Ok(built)) => {
                    well_formed(&built)?;
                    prop_assert_eq!(built.key_count(), one_by_one.key_count());
                    let all = (Bound::Unbounded, Bound::Unbounded);
                    prop_assert_eq!(built.range(all.0, all.1), one_by_one.range(all.0, all.1));
                    for n in 0..KEYS {
                        prop_assert_eq!(built.lookup_ref(&key(n)), one_by_one.lookup_ref(&key(n)));
                    }
                }
                (Err(a), Err(b)) => prop_assert_eq!(a.code, b.code),
                (a, b) => prop_assert!(false, "insert gave {a:?}, build gave {:?}", b.map(|_| ())),
            }
        }

        fn text_keys_prefix_scan_like_a_filter(
            words in vec_of(charset("ab", 0..=4), 0..=200),
            prefix in charset("ab", 0..=3),
        ) {
            let mut index = idx(false);
            let mut want = Vec::new();
            for (i, w) in words.iter().enumerate() {
                index.insert(&Value::Text(w.clone()), RowId(i as u32)).unwrap();
                if w.starts_with(prefix.as_str()) {
                    want.push((w.clone(), RowId(i as u32)));
                }
            }
            want.sort_by(|a, b| a.0.cmp(&b.0));
            let want: Vec<RowId> = want.into_iter().map(|(_, id)| id).collect();
            prop_assert_eq!(index.prefix_scan(&prefix), want);
        }
    }

    #[test]
    fn int_range_reaches_every_leaf_in_order() {
        let mut i = idx(true);
        for n in (0..2_000).rev() {
            i.insert(&Value::Int(n), RowId(n as u32)).unwrap();
        }
        assert!(i.height() >= 3);
        let got = i.range(
            Bound::Excluded(&Value::Int(10)),
            Bound::Included(&Value::Int(1_500)),
        );
        assert_eq!(got, (11..=1_500).map(RowId).collect::<Vec<_>>());
        for n in 0..2_000 {
            i.remove(&Value::Int(n), RowId(n as u32));
        }
        assert_eq!((i.key_count(), i.height()), (0, 1));
    }

    #[test]
    fn low_cardinality_leaves_split_by_row_count() {
        // Three keys over 3 000 rows: no leaf of two or more keys may hold
        // more than MAX_IDS ids, whether built or inserted one by one.
        let pairs: Vec<(Value, RowId)> = (0..3_000u32)
            .map(|n| (Value::Int(i64::from(n % 3)), RowId(n)))
            .collect();
        let mut one_by_one = idx(false);
        for (k, row) in &pairs {
            one_by_one.insert(k, *row).unwrap();
        }
        let built = Index::build("i", "t", 0, false, pairs.iter().map(|(k, r)| (k, *r))).unwrap();
        for index in [&one_by_one, &built] {
            well_formed(index).unwrap();
            let Node::Branch { children, .. } = &*index.root else {
                panic!("three long lists need a leaf each");
            };
            for child in children {
                let Node::Leaf(leaf) = &**child else {
                    unreachable!()
                };
                assert!(leaf.keys.len() == 1 || leaf.ids.len() <= MAX_IDS);
            }
            for k in 0..3 {
                let want: Vec<RowId> = (0..3_000).filter(|n| n % 3 == k).map(RowId).collect();
                assert_eq!(index.lookup(&Value::Int(i64::from(k))), want);
            }
        }
        for (k, row) in &pairs {
            one_by_one.remove(k, *row);
        }
        assert_eq!((one_by_one.key_count(), one_by_one.height()), (0, 1));
    }
}
