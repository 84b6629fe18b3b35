//! Row storage: a paged, copy-on-write heap per table.
//!
//! A table's rows sit in fixed-size pages of `PAGE_SLOTS` slots, and the
//! pages in directories of `DIR_PAGES` pages; every page and every
//! directory is behind its own `Arc`. A slot's position is its [`RowId`],
//! stable for the life of the row: indexes and the write-ahead log's redo
//! records both key on it. Deletion leaves a tombstone, and an insert takes
//! the **lowest** free slot, found from per-page occupancy bits. Which slot
//! an insert takes therefore depends only on which slots hold rows, so a heap
//! rebuilt from a checkpoint (which records live rows only) hands out the
//! same ids as the live heap it was taken from.
//!
//! Cloning a heap — the copy-on-write step a writer performs before
//! mutating a table that a published snapshot still references (see `db.rs`
//! and DESIGN.md §11) — copies one pointer per directory, i.e. per 4 096
//! slots. A write then path-copies with [`Arc::make_mut`]: the directory
//! (64 page pointers) and the page (64 row pointers) that hold its slot,
//! plus the one row it writes; every other page stays shared with the
//! snapshots that pin it, and a second write to the same page in the same
//! statement copies nothing. Each row is behind its own `Arc` too, so a
//! copied page shares its row images, and an overwritten image stays alive
//! for whichever snapshots still pin it. Copying a page or directory bumps
//! the reference count of everything it points to, mostly cache misses on
//! a large table, so both are kept small; a single-row write to a
//! 200 000-row table copies about 180 pointers where a flat slot vector
//! copied 200 000.

use crate::types::Value;
use std::sync::Arc;

/// A page's occupancy bitmap: one bit per slot.
type PageBits = u64;
/// A directory's bitmap of full pages: one bit per page.
type DirBits = u64;
/// Slots per page.
const PAGE_SLOTS: usize = PageBits::BITS as usize;
/// Pages per directory.
const DIR_PAGES: usize = DirBits::BITS as usize;
/// Slots per directory.
const DIR_SLOTS: usize = PAGE_SLOTS * DIR_PAGES;

/// Stable identifier of a row slot within one table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId(pub u32);

/// A stored tuple.
pub type Row = Vec<Value>;

/// The heap of one table.
#[derive(Debug, Clone, Default)]
pub struct Heap {
    /// Every directory but the last holds exactly [`DIR_PAGES`] pages, so
    /// slot `i` is slot `i % PAGE_SLOTS` of the `i / PAGE_SLOTS`-th page
    /// counted across directories.
    dirs: Vec<Arc<Dir>>,
    live: usize,
}

#[derive(Debug, Clone)]
struct Dir {
    pages: Vec<Arc<Page>>,
    /// Bit `p` is set when `pages[p]` has no free slot.
    full: DirBits,
}

#[derive(Debug, Clone)]
struct Page {
    slots: [Option<Arc<Row>>; PAGE_SLOTS],
    /// Bit `s` is set when `slots[s]` holds a row.
    occupied: PageBits,
}

impl Page {
    const EMPTY: Page = Page {
        slots: [const { None }; PAGE_SLOTS],
        occupied: 0,
    };
}

/// The directory, page within it, and slot within that of a row id.
fn locate(id: RowId) -> (usize, usize, usize) {
    let i = id.0 as usize;
    (i / DIR_SLOTS, i / PAGE_SLOTS % DIR_PAGES, i % PAGE_SLOTS)
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

    /// Insert a row into the lowest free slot, returning its id.
    pub fn insert(&mut self, row: Row) -> RowId {
        let id = self.lowest_free();
        self.set(id, Some(Arc::new(row)));
        id
    }

    /// Force-set the row at `id`, occupied or not — the idempotent primitive
    /// WAL replay is built on: replaying an Insert or Update record a second
    /// time must land in exactly the same state as the first pass. Extends
    /// the heap with empty pages as needed.
    pub fn put_at(&mut self, id: RowId, row: Row) {
        self.set(id, Some(Arc::new(row)));
    }

    /// Fetch a row by id.
    pub fn get(&self, id: RowId) -> Option<&Row> {
        let (d, p, s) = locate(id);
        self.dirs.get(d)?.pages.get(p)?.slots[s].as_deref()
    }

    /// Replace a row, returning the old image. `None` if the slot is dead.
    pub fn update(&mut self, id: RowId, row: Row) -> Option<Row> {
        self.get(id)?;
        self.set(id, Some(Arc::new(row))).map(into_row)
    }

    /// Delete a row, returning its last image.
    pub fn delete(&mut self, id: RowId) -> Option<Row> {
        self.get(id)?;
        self.set(id, None).map(into_row)
    }

    /// Iterate `(RowId, &Row)` over live rows in slot order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            heap: self,
            page: &Page::EMPTY.slots,
            next: 0,
        }
    }

    /// The lowest slot holding no row: the first page with a clear bit in
    /// its directory's `full` mask, else the slot just past the end.
    fn lowest_free(&self) -> RowId {
        let found = self.dirs.iter().enumerate().find_map(|(d, dir)| {
            let p = (!dir.full).trailing_zeros() as usize;
            (p < DIR_PAGES).then(|| {
                let s = (dir.pages.get(p)).map_or(0, |page| (!page.occupied).trailing_zeros());
                d * DIR_SLOTS + p * PAGE_SLOTS + s as usize
            })
        });
        RowId(found.unwrap_or(self.dirs.len() * DIR_SLOTS) as u32)
    }

    /// Store `row`, or a tombstone, at `id`: path-copy the directory and
    /// page that hold the slot, and keep the occupancy bits and the live
    /// count true. Returns the slot's previous occupant.
    fn set(&mut self, id: RowId, row: Option<Arc<Row>>) -> Option<Arc<Row>> {
        let (d, p, s) = locate(id);
        self.reserve(d, p);
        let dir = Arc::make_mut(&mut self.dirs[d]);
        let page = Arc::make_mut(&mut dir.pages[p]);
        if row.is_some() {
            page.occupied |= 1 << s;
        } else {
            page.occupied &= !(1 << s);
        }
        self.live += usize::from(row.is_some());
        let old = std::mem::replace(&mut page.slots[s], row);
        self.live -= usize::from(old.is_some());
        if page.occupied == PageBits::MAX {
            dir.full |= 1 << p;
        } else {
            dir.full &= !(1 << p);
        }
        old
    }

    /// Append empty pages (all sharing one allocation until written) until
    /// page `p` of directory `d` exists, filling every directory before it.
    fn reserve(&mut self, d: usize, p: usize) {
        if self.dirs.get(d).is_some_and(|dir| p < dir.pages.len()) {
            return;
        }
        let last = self.dirs.len().saturating_sub(1);
        let dirs = self.dirs.len().max(d + 1);
        self.dirs.resize_with(dirs, || {
            Arc::new(Dir {
                pages: Vec::new(),
                full: 0,
            })
        });
        let empty = Arc::new(Page::EMPTY);
        for (i, dir) in self.dirs.iter_mut().enumerate().take(d + 1).skip(last) {
            let pages = if i < d { DIR_PAGES } else { p + 1 };
            if dir.pages.len() < pages {
                Arc::make_mut(dir).pages.resize(pages, Arc::clone(&empty));
            }
        }
    }

    /// Every page's allocation, in slot order.
    #[cfg(test)]
    pub(crate) fn page_ptrs(&self) -> Vec<*const ()> {
        let pages = self.dirs.iter().flat_map(|dir| dir.pages.iter());
        pages.map(|page| Arc::as_ptr(page).cast()).collect()
    }
}

/// Iterator over a heap's live rows in slot order. Its state is the slot
/// it has reached and that slot's page, looked up once per page: small
/// enough for a scan loop to keep in registers across its per-row work.
pub struct Iter<'a> {
    heap: &'a Heap,
    page: &'a [Option<Arc<Row>>; PAGE_SLOTS],
    /// The id of the next slot to look at.
    next: u32,
}

impl<'a> Iterator for Iter<'a> {
    type Item = (RowId, &'a Row);

    fn next(&mut self) -> Option<(RowId, &'a Row)> {
        loop {
            let id = RowId(self.next);
            let (d, p, s) = locate(id);
            if s == 0 {
                self.page = &self.heap.dirs.get(d)?.pages.get(p)?.slots;
            }
            self.next += 1;
            if let Some(row) = &self.page[s] {
                return Some((id, row));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbgw_testkit::gen::{ints, usizes, vec_of};
    use dbgw_testkit::{prop_assert_eq, props};

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
        // Over a freed slot: it is occupied again.
        let a = h.insert(row(1));
        h.delete(a);
        h.put_at(a, row(1));
        assert_eq!(h.len(), 2);
        let b = h.insert(row(3));
        assert_ne!(a, b, "an insert must not hand out a put_at slot");
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

    /// The reference the heap must agree with: one optional row per slot.
    type Model = Vec<Option<Row>>;

    /// Compare every observable of `heap` with `model`.
    fn agrees(heap: &Heap, model: &Model) -> Result<(), String> {
        let want: Vec<(RowId, &Row)> = (model.iter().enumerate())
            .filter_map(|(i, r)| Some((RowId(i as u32), r.as_ref()?)))
            .collect();
        prop_assert_eq!(heap.iter().collect::<Vec<_>>(), want);
        prop_assert_eq!(heap.len(), want.len());
        prop_assert_eq!(heap.is_empty(), want.is_empty());
        for i in 0..model.len() + PAGE_SLOTS {
            let id = RowId(i as u32);
            prop_assert_eq!(heap.get(id), model.get(i).and_then(Option::as_ref));
        }
        Ok(())
    }

    props! {
        config(cases = 64);

        // `op` picks insert (0-5), update (6-8), delete (9-11), put_at
        // within the first pages (12-13) or one or two directories out
        // (14), or a snapshot (15); `at` is the slot it names.
        fn heap_matches_a_slot_vector_model(
            ops in vec_of((usizes(0..16), usizes(0..400), ints(0..1000)), 0..=200),
        ) {
            let mut heap = Heap::new();
            let mut model: Model = Vec::new();
            let mut snapshots: Vec<(Heap, Model)> = Vec::new();
            for (op, near, value) in ops {
                let r = row(value);
                match op {
                    0..=5 => {
                        let lowest = model.iter().position(Option::is_none).unwrap_or(model.len());
                        prop_assert_eq!(heap.insert(r.clone()), RowId(lowest as u32));
                        if lowest == model.len() {
                            model.push(None);
                        }
                        model[lowest] = Some(r);
                    }
                    6..=8 => {
                        let was = model.get(near).cloned().flatten();
                        prop_assert_eq!(heap.update(RowId(near as u32), r.clone()), was.clone());
                        if was.is_some() {
                            model[near] = Some(r);
                        }
                    }
                    9..=11 => {
                        let was = model.get_mut(near).and_then(Option::take);
                        prop_assert_eq!(heap.delete(RowId(near as u32)), was);
                    }
                    12..=14 => {
                        let at = if op < 14 { near } else { DIR_SLOTS * (1 + near % 2) + near };
                        heap.put_at(RowId(at as u32), r.clone());
                        if at >= model.len() {
                            model.resize(at + 1, None);
                        }
                        model[at] = Some(r);
                    }
                    _ => snapshots.push((heap.clone(), model.clone())),
                }
            }
            agrees(&heap, &model)?;
            for (snapshot, model) in &snapshots {
                agrees(snapshot, model)?;
            }
        }
    }
}
