//! Row storage: a paged, copy-on-write, append-only heap per table.
//!
//! A table's rows sit in pages of `PAGE_SLOTS` slots, filled in id order,
//! and the pages in directories of up to `DIR_PAGES` pages; every page and
//! every directory is behind its own `Arc`. Rows are never removed, so the heap only grows: an
//! insert appends, and a row's [`RowId`] is its insertion ordinal — the
//! `n`-th row a table ever stored is row `n - 1`, for the life of the table.
//! Indexes and the write-ahead log's redo records both key on it, and a heap
//! rebuilt from a checkpoint (which records every row at its id) hands out
//! the same next id as the live heap it was taken from.
//!
//! Cloning a heap — the copy-on-write step a writer performs before
//! mutating a table that a published snapshot still references (see `db.rs`
//! and DESIGN.md §11) — copies one pointer per directory, i.e. per 4 096
//! rows. A write then path-copies with [`Arc::make_mut`]: the directory
//! (64 page pointers) and the page (64 row pointers) that hold its row,
//! plus the one row it writes; every other page stays shared with the
//! snapshots that pin it, and a second write to the same page in the same
//! statement copies nothing. Each row is behind its own `Arc` too, so a
//! copied page shares its row images, and an overwritten image stays alive
//! for whichever snapshots still pin it. Copying a page or directory bumps
//! the reference count of everything it points to, mostly cache misses on
//! a large table, so both are kept small; a single-row write to a
//! 200 000-row table copies about 180 pointers where a flat row vector
//! copied 200 000.

use crate::types::Value;
use std::sync::Arc;

/// Rows per page.
const PAGE_SLOTS: usize = 64;
/// Pages per directory.
const DIR_PAGES: usize = 64;
/// Rows per directory.
const DIR_SLOTS: usize = PAGE_SLOTS * DIR_PAGES;

/// A row's insertion ordinal within one table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId(pub u32);

/// A stored tuple.
pub type Row = Vec<Value>;

/// [`PAGE_SLOTS`] row slots, filled from the front. A fixed array, so a
/// page and each copy of it is one allocation of its final size.
type Page = [Option<Arc<Row>>; PAGE_SLOTS];
/// Up to [`DIR_PAGES`] pages.
type Dir = Vec<Arc<Page>>;

/// The heap of one table.
#[derive(Debug, Clone, Default)]
pub struct Heap {
    /// Every directory but the last holds exactly [`DIR_PAGES`] pages, and
    /// every page but the last exactly [`PAGE_SLOTS`] rows, so row `i` is
    /// row `i % PAGE_SLOTS` of the `i / PAGE_SLOTS`-th page counted across
    /// directories.
    dirs: Vec<Arc<Dir>>,
    len: usize,
}

/// The directory, page within it, and row within that of a row id.
fn locate(id: RowId) -> (usize, usize, usize) {
    let i = id.0 as usize;
    (i / DIR_SLOTS, i / PAGE_SLOTS % DIR_PAGES, i % PAGE_SLOTS)
}

impl Heap {
    /// Empty heap.
    pub fn new() -> Heap {
        Heap::default()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the heap holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append a row, returning its id: the number of rows before it.
    pub fn insert(&mut self, row: Row) -> RowId {
        let id = RowId(self.len as u32);
        let (d, p, s) = locate(id);
        if d == self.dirs.len() {
            self.dirs.push(Arc::new(Vec::with_capacity(DIR_PAGES)));
        }
        let dir = Arc::make_mut(&mut self.dirs[d]);
        if p == dir.len() {
            // A copied directory has no spare capacity: grow it to its
            // full size at once, never past it.
            dir.reserve_exact(DIR_PAGES - p);
            dir.push(Arc::new([const { None }; PAGE_SLOTS]));
        }
        Arc::make_mut(&mut dir[p])[s] = Some(Arc::new(row));
        self.len += 1;
        id
    }

    /// Set the row at `id`, appending when `id` is the next id — the
    /// idempotent primitive WAL replay is built on: replaying an Insert or
    /// Update record a second time lands in exactly the same state as the
    /// first pass. `false`, changing nothing, for an id past the next one,
    /// which no valid log holds.
    pub fn put_at(&mut self, id: RowId, row: Row) -> bool {
        match (id.0 as usize).cmp(&self.len) {
            std::cmp::Ordering::Less => *self.slot_mut(id) = Some(Arc::new(row)),
            std::cmp::Ordering::Equal => {
                self.insert(row);
            }
            std::cmp::Ordering::Greater => return false,
        }
        true
    }

    /// Fetch a row by id.
    pub fn get(&self, id: RowId) -> Option<&Row> {
        let (d, p, s) = locate(id);
        self.dirs.get(d)?.get(p)?[s].as_deref()
    }

    /// Replace a row, returning the old image. `None` past the last row.
    pub fn update(&mut self, id: RowId, row: Row) -> Option<Row> {
        if id.0 as usize >= self.len {
            return None;
        }
        let old = self.slot_mut(id).replace(Arc::new(row))?;
        // Clone the old image only if a snapshot still shares it.
        Some(Arc::try_unwrap(old).unwrap_or_else(|shared| (*shared).clone()))
    }

    /// Iterate `(RowId, &Row)` over every row in id order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            heap: self,
            page: &[const { None }; PAGE_SLOTS],
            next: 0,
        }
    }

    /// The row pointer at `id`, which must be below `len`: path-copy the
    /// directory and page that hold it.
    fn slot_mut(&mut self, id: RowId) -> &mut Option<Arc<Row>> {
        let (d, p, s) = locate(id);
        let dir = Arc::make_mut(&mut self.dirs[d]);
        &mut Arc::make_mut(&mut dir[p])[s]
    }

    /// Every page's allocation, in id order.
    #[cfg(test)]
    pub(crate) fn page_ptrs(&self) -> Vec<*const ()> {
        let pages = self.dirs.iter().flat_map(|dir| dir.iter());
        pages.map(|page| Arc::as_ptr(page).cast()).collect()
    }
}

/// Iterator over a heap's rows in id order. Its state is the id it has
/// reached and that id's page, looked up once per page: small enough for a
/// scan loop to keep in registers across its per-row work.
pub struct Iter<'a> {
    heap: &'a Heap,
    page: &'a Page,
    /// The id of the next row.
    next: u32,
}

impl<'a> Iterator for Iter<'a> {
    type Item = (RowId, &'a Row);

    fn next(&mut self) -> Option<(RowId, &'a Row)> {
        let id = RowId(self.next);
        let (d, p, s) = locate(id);
        if s == 0 {
            self.page = self.heap.dirs.get(d)?.get(p)?;
        }
        let row = self.page[s].as_deref()?;
        self.next += 1;
        Some((id, row))
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
        assert_eq!((a, b), (RowId(0), RowId(1)));
        assert_eq!(h.get(a), Some(&row(1)));
        assert_eq!(h.get(RowId(2)), None);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn update_returns_old_image() {
        let mut h = Heap::new();
        let a = h.insert(row(1));
        assert_eq!(h.update(a, row(9)), Some(row(1)));
        assert_eq!(h.get(a), Some(&row(9)));
        assert_eq!(h.update(RowId(1), row(9)), None);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn put_at_is_idempotent_and_repairs_bookkeeping() {
        let mut h = Heap::new();
        // Past the next id: refused, nothing changes.
        assert!(!h.put_at(RowId(2), row(9)));
        assert_eq!((h.len(), h.get(RowId(2))), (0, None));
        // The next id appends; twice over the same id is the same state.
        assert!(h.put_at(RowId(0), row(9)));
        assert!(h.put_at(RowId(0), row(10)));
        assert!(h.put_at(RowId(0), row(10)));
        assert_eq!(h.len(), 1);
        assert_eq!(h.get(RowId(0)), Some(&row(10)));
        // An insert takes the id after every put_at row.
        assert_eq!(h.insert(row(3)), RowId(1));
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
        let c = h.insert(row(3));
        assert_eq!(snapshot.get(a), Some(&row(1)));
        assert_eq!(snapshot.get(b), Some(&row(2)));
        assert_eq!(snapshot.get(c), None);
        assert_eq!(snapshot.len(), 2);
        assert_eq!(h.get(a), Some(&row(99)));
        assert_eq!(h.len(), 3);
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

    /// Compare every observable of `heap` with `model`, one row per id.
    fn agrees(heap: &Heap, model: &[Row]) -> Result<(), String> {
        let want: Vec<(RowId, &Row)> = (model.iter().enumerate())
            .map(|(i, r)| (RowId(i as u32), r))
            .collect();
        prop_assert_eq!(heap.iter().collect::<Vec<_>>(), want);
        prop_assert_eq!(heap.len(), model.len());
        prop_assert_eq!(heap.is_empty(), model.is_empty());
        for i in 0..model.len() + PAGE_SLOTS {
            prop_assert_eq!(heap.get(RowId(i as u32)), model.get(i));
        }
        Ok(())
    }

    props! {
        config(cases = 64);

        // `op` picks insert (0-5), update (6-9), put_at (10-14) or a
        // snapshot (15); `near` is the id an update or put_at names, up to
        // a few rows past the end. Enough inserts cross pages and, at the
        // top of the size range, a directory.
        fn heap_matches_a_slot_vector_model(
            ops in vec_of((usizes(0..16), usizes(0..400), ints(0..1000)), 0..=200),
            bulk in usizes(0..DIR_SLOTS + 2 * PAGE_SLOTS),
        ) {
            let mut heap = Heap::new();
            let mut model: Vec<Row> = Vec::new();
            for i in 0..bulk {
                prop_assert_eq!(heap.insert(row(i as i64)), RowId(i as u32));
                model.push(row(i as i64));
            }
            let mut snapshots: Vec<(Heap, Vec<Row>)> = Vec::new();
            for (op, near, value) in ops {
                let (r, at) = (row(value), near % (model.len() + 3));
                match op {
                    0..=5 => {
                        prop_assert_eq!(heap.insert(r.clone()), RowId(model.len() as u32));
                        model.push(r);
                    }
                    6..=9 => {
                        let was = model.get(at).cloned();
                        prop_assert_eq!(heap.update(RowId(at as u32), r.clone()), was.clone());
                        if was.is_some() {
                            model[at] = r;
                        }
                    }
                    10..=14 => {
                        let fits = at <= model.len();
                        prop_assert_eq!(heap.put_at(RowId(at as u32), r.clone()), fits);
                        if at == model.len() {
                            model.push(r);
                        } else if fits {
                            model[at] = r;
                        }
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
