//! Row storage: a slotted in-memory heap per table.
//!
//! Rows live in a `Vec<Option<Arc<Row>>>`; deletion leaves a tombstone so row
//! ids stay stable for the lifetime of a table (indexes and the write-ahead
//! log's redo records both key on [`RowId`]). A free list recycles
//! tombstoned slots.
//!
//! Each row sits behind its own `Arc` so cloning a heap — the copy-on-write
//! step a writer performs before mutating a table that a published snapshot
//! still references (see `db.rs` and DESIGN.md §11) — copies row *pointers*,
//! not row contents. A 10k-row table clones in O(10k) refcount bumps, and a
//! single-row UPDATE afterwards allocates exactly one new row; the old image
//! stays alive for whichever snapshots still pin it.

use crate::types::Value;
use std::sync::Arc;

/// Stable identifier of a row slot within one table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId(pub u32);

/// A stored tuple.
pub type Row = Vec<Value>;

/// The heap of one table.
#[derive(Debug, Clone, Default)]
pub struct Heap {
    slots: Vec<Option<Arc<Row>>>,
    free: Vec<u32>,
    live: usize,
}

/// Take a row image out of its `Arc`, cloning only if a snapshot still
/// shares it.
fn into_row(arc: Arc<Row>) -> Row {
    Arc::try_unwrap(arc).unwrap_or_else(|shared| (*shared).clone())
}

impl Heap {
    /// Empty heap.
    pub fn new() -> Heap {
        Heap::default()
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no live rows exist.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Insert a row, returning its id. Recycles tombstoned slots.
    pub fn insert(&mut self, row: Row) -> RowId {
        self.live += 1;
        let row = Some(Arc::new(row));
        if let Some(slot) = self.free.pop() {
            self.slots[slot as usize] = row;
            return RowId(slot);
        }
        let id = self.slots.len() as u32;
        self.slots.push(row);
        RowId(id)
    }

    /// Force-set the row at `id`, occupied or not — the idempotent primitive
    /// WAL replay is built on: replaying an Insert or Update record a second
    /// time must land in exactly the same state as the first pass. Extends
    /// the slot array as needed and repairs the free list and live count.
    pub fn put_at(&mut self, id: RowId, row: Row) {
        let idx = id.0 as usize;
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, None);
        }
        if self.slots[idx].is_none() {
            self.free.retain(|&f| f != id.0);
            self.live += 1;
        }
        self.slots[idx] = Some(Arc::new(row));
    }

    /// Fetch a row by id.
    pub fn get(&self, id: RowId) -> Option<&Row> {
        self.slots.get(id.0 as usize).and_then(|s| s.as_deref())
    }

    /// Replace a row, returning the old image. `None` if the slot is dead.
    pub fn update(&mut self, id: RowId, row: Row) -> Option<Row> {
        let slot = self.slots.get_mut(id.0 as usize)?;
        slot.as_mut()
            .map(|r| into_row(std::mem::replace(r, Arc::new(row))))
    }

    /// Delete a row, returning its last image.
    pub fn delete(&mut self, id: RowId) -> Option<Row> {
        let slot = self.slots.get_mut(id.0 as usize)?;
        let old = slot.take();
        if old.is_some() {
            self.live -= 1;
            self.free.push(id.0);
        }
        old.map(into_row)
    }

    /// Iterate `(RowId, &Row)` over live rows in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, &Row)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_deref().map(|r| (RowId(i as u32), r)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(i: i64) -> Row {
        vec![Value::Int(i)]
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut h = Heap::new();
        let a = h.insert(row(1));
        let b = h.insert(row(2));
        assert_ne!(a, b);
        assert_eq!(h.get(a), Some(&row(1)));
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn delete_tombstones_and_recycles() {
        let mut h = Heap::new();
        let a = h.insert(row(1));
        let _b = h.insert(row(2));
        assert_eq!(h.delete(a), Some(row(1)));
        assert_eq!(h.get(a), None);
        assert_eq!(h.len(), 1);
        // Recycled slot gets the same physical id.
        let c = h.insert(row(3));
        assert_eq!(c, a);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn double_delete_is_noop() {
        let mut h = Heap::new();
        let a = h.insert(row(1));
        assert!(h.delete(a).is_some());
        assert!(h.delete(a).is_none());
        assert_eq!(h.len(), 0);
    }

    #[test]
    fn update_returns_old_image() {
        let mut h = Heap::new();
        let a = h.insert(row(1));
        assert_eq!(h.update(a, row(9)), Some(row(1)));
        assert_eq!(h.get(a), Some(&row(9)));
    }

    #[test]
    fn put_at_is_idempotent_and_repairs_bookkeeping() {
        let mut h = Heap::new();
        // Beyond the end: extends and counts as live.
        h.put_at(RowId(2), row(9));
        assert_eq!(h.len(), 1);
        assert_eq!(h.get(RowId(2)), Some(&row(9)));
        // Twice over an occupied slot: same state, same count.
        h.put_at(RowId(2), row(10));
        h.put_at(RowId(2), row(10));
        assert_eq!(h.len(), 1);
        assert_eq!(h.get(RowId(2)), Some(&row(10)));
        // Over a freed slot: the free list must forget it.
        let a = h.insert(row(1));
        h.delete(a);
        h.put_at(a, row(1));
        assert_eq!(h.len(), 2);
        let b = h.insert(row(3));
        assert_ne!(a, b, "free list must not hand out a put_at slot");
    }

    #[test]
    fn iter_skips_tombstones() {
        let mut h = Heap::new();
        let a = h.insert(row(1));
        h.insert(row(2));
        h.delete(a);
        let got: Vec<i64> = h
            .iter()
            .map(|(_, r)| match r[0] {
                Value::Int(i) => i,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(got, vec![2]);
    }

    #[test]
    fn clone_shares_rows_and_diverges_on_write() {
        // The copy-on-write property db.rs relies on: a cloned heap shares
        // row allocations with the original, and mutating the clone leaves
        // the original's rows untouched.
        let mut h = Heap::new();
        let a = h.insert(row(1));
        let b = h.insert(row(2));
        let snapshot = h.clone();
        h.update(a, row(99));
        h.delete(b);
        assert_eq!(snapshot.get(a), Some(&row(1)));
        assert_eq!(snapshot.get(b), Some(&row(2)));
        assert_eq!(snapshot.len(), 2);
        assert_eq!(h.get(a), Some(&row(99)));
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn update_of_shared_row_clones_out_old_image() {
        let mut h = Heap::new();
        let a = h.insert(row(7));
        let snapshot = h.clone(); // `a`'s Arc now has two owners
        let old = h.update(a, row(8)).unwrap();
        assert_eq!(old, row(7));
        assert_eq!(snapshot.get(a), Some(&row(7)));
    }
}
