//! Row storage: a paged, copy-on-write, append-only heap per table, whose
//! pages hold their rows as records in an arena.
//!
//! A table's rows sit in pages of `PAGE_SLOTS` slots, filled in id order,
//! and the pages in directories of up to `DIR_PAGES` pages; every page and
//! every directory is behind its own `Arc`. Rows are never removed, so the
//! heap only grows: an insert appends, and a row's [`RowId`] is its insertion
//! ordinal — the `n`-th row a table ever stored is row `n - 1`, for the life
//! of the table. Indexes and the write-ahead log's redo records both key on
//! it, and a heap rebuilt from a checkpoint (which records every row at its
//! id) hands out the same next id as the live heap it was taken from.
//!
//! # Records
//!
//! A stored row is one immutable record: a cell table — the cell count,
//! then per column a tag and an 8-byte payload (an integer, a double's bits,
//! a day number, or a text's offset and length) — and the row's text bytes.
//! A page keeps its records' cell tables back to back in one buffer and
//! their text in another, in the order the records were written, so a full
//! scan walks memory in order and reads a column through [`RowRef::get`]
//! without allocating. Offsets are relative to the record, so a record
//! copies as two `memcpy`s; [`Record`] is the owned form a statement builds
//! and a redo record carries.
//!
//! # Copy-on-write
//!
//! Cloning a heap — the copy-on-write step a writer performs before
//! mutating a table that a published snapshot still references (see `db.rs`
//! and DESIGN.md §11) — copies one pointer per directory, i.e. per 4 096
//! rows. A write then path-copies with [`Arc::make_mut`]: the directory
//! (64 page pointers) and the page (its 64 records) that hold its row;
//! every other page stays shared with the snapshots that pin it, and a
//! second write to the same page in the same statement copies nothing. A
//! page copy keeps only the records its slots point at. An UPDATE appends
//! the row's new image to the page and repoints the slot, leaving the old
//! image's bytes dead; a page whose dead bytes outgrow its live ones is
//! compacted in place, so a page never holds more dead bytes than live.

use crate::types::{Value, ValueRef};
use std::fmt;
use std::sync::Arc;

/// Rows per page.
const PAGE_SLOTS: usize = 64;
/// Pages per directory.
const DIR_PAGES: usize = 64;
/// Rows per directory.
const DIR_SLOTS: usize = PAGE_SLOTS * DIR_PAGES;

/// Bytes before a record's cells: the cell count, a little-endian `u16`.
const HEADER: usize = 2;
/// Bytes per cell: a tag, then an 8-byte little-endian payload.
const CELL: usize = 9;

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_DOUBLE: u8 = 2;
const TAG_TEXT: u8 = 3;

/// A row's insertion ordinal within one table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId(pub u32);

/// A borrowed view of one record: its cell table and its text. Either may
/// run past the record's end (into the page's later records); every read
/// goes through the cells, which know where the record's own bytes lie.
#[derive(Clone, Copy)]
pub struct RowRef<'a> {
    cells: &'a [u8],
    text: &'a str,
}

impl<'a> RowRef<'a> {
    /// A row of no columns: every column reads as NULL.
    pub const EMPTY: RowRef<'static> = RowRef {
        cells: &[0, 0],
        text: "",
    };

    /// Number of columns.
    pub fn len(self) -> usize {
        usize::from(u16::from_le_bytes([self.cells[0], self.cells[1]]))
    }

    /// Whether the row has no columns.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Column `slot`, NULL past the last column.
    pub fn get(self, slot: usize) -> ValueRef<'a> {
        if slot >= self.len() {
            return ValueRef::Null;
        }
        let at = HEADER + slot * CELL;
        let payload: [u8; 8] = self.cells[at + 1..at + CELL].try_into().expect("8 bytes");
        match self.cells[at] {
            TAG_INT => ValueRef::Int(i64::from_le_bytes(payload)),
            TAG_DOUBLE => ValueRef::Double(f64::from_bits(u64::from_le_bytes(payload))),
            TAG_TEXT => {
                let (start, len) = text_span(payload);
                ValueRef::Text(&self.text[start..start + len])
            }
            _ => ValueRef::Null,
        }
    }

    /// The columns in order.
    pub fn iter(self) -> impl ExactSizeIterator<Item = ValueRef<'a>> {
        (0..self.len()).map(move |slot| self.get(slot))
    }

    /// An owned copy of every column.
    pub fn to_vec(self) -> Vec<Value> {
        self.iter().map(ValueRef::to_value).collect()
    }

    /// The record's own bytes: its cell table and its text.
    fn bytes(self) -> (&'a [u8], &'a str) {
        let n = self.len();
        let cells = &self.cells[..HEADER + n * CELL];
        let mut text_len = 0;
        for slot in 0..n {
            let at = HEADER + slot * CELL;
            if cells[at] == TAG_TEXT {
                let (start, len) = text_span(cells[at + 1..at + CELL].try_into().expect("8 bytes"));
                text_len = text_len.max(start + len);
            }
        }
        (cells, &self.text[..text_len])
    }
}

/// A text cell's payload: the text's offset in its record's text, then its
/// length.
fn text_span(payload: [u8; 8]) -> (usize, usize) {
    let start = u32::from_le_bytes(payload[..4].try_into().expect("4 bytes"));
    let len = u32::from_le_bytes(payload[4..].try_into().expect("4 bytes"));
    (start as usize, len as usize)
}

/// Append the record of `values` to `cells` and `text`.
fn encode<'v>(
    values: impl ExactSizeIterator<Item = ValueRef<'v>>,
    cells: &mut Vec<u8>,
    text: &mut String,
) {
    let n = u16::try_from(values.len()).expect("a table has at most 65 535 columns");
    cells.extend_from_slice(&n.to_le_bytes());
    let text_start = text.len();
    for v in values {
        let (tag, payload) = match v {
            ValueRef::Null => (TAG_NULL, 0u64),
            ValueRef::Int(i) => (TAG_INT, i as u64),
            ValueRef::Double(d) => (TAG_DOUBLE, d.to_bits()),
            ValueRef::Text(t) => {
                let start = u32::try_from(text.len() - text_start).expect("a row under 4 GiB");
                let len = u32::try_from(t.len()).expect("a text under 4 GiB");
                text.push_str(t);
                (TAG_TEXT, u64::from(start) | u64::from(len) << 32)
            }
        };
        cells.push(tag);
        cells.extend_from_slice(&payload.to_le_bytes());
    }
}

impl PartialEq for RowRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for RowRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// An owned record: the row a statement builds before storing it, or one a
/// redo record carries.
#[derive(Clone, PartialEq, Eq)]
pub struct Record {
    cells: Vec<u8>,
    text: String,
}

impl Record {
    /// The record of `values`.
    pub fn new(values: &[Value]) -> Record {
        Record::from_cells(values.iter().map(Value::view))
    }

    /// The record of the columns `values` yields, in order.
    pub fn from_cells<'v>(values: impl ExactSizeIterator<Item = ValueRef<'v>>) -> Record {
        let mut record = Record {
            cells: Vec::with_capacity(HEADER + values.len() * CELL),
            text: String::new(),
        };
        encode(values, &mut record.cells, &mut record.text);
        record
    }

    /// The record as a row.
    pub fn row(&self) -> RowRef<'_> {
        RowRef {
            cells: &self.cells,
            text: &self.text,
        }
    }
}

impl From<RowRef<'_>> for Record {
    fn from(row: RowRef<'_>) -> Record {
        let (cells, text) = row.bytes();
        Record {
            cells: cells.to_vec(),
            text: text.to_owned(),
        }
    }
}

impl fmt::Debug for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.row().fmt(f)
    }
}

/// Up to [`PAGE_SLOTS`] rows, filled from the front: each slot's record,
/// located in the page's two arenas.
#[derive(Debug)]
struct Page {
    /// Where each filled slot's record starts in `cells` and in `text`.
    slots: Vec<(u32, u32)>,
    /// The records' cell tables, back to back.
    cells: Vec<u8>,
    /// The records' text, back to back.
    text: String,
    /// Bytes in `cells` and in `text` that belong to no slot's record: the
    /// old images of updated rows.
    dead: (usize, usize),
}

impl Page {
    fn new() -> Page {
        Page {
            slots: Vec::with_capacity(PAGE_SLOTS),
            cells: Vec::new(),
            text: String::new(),
            dead: (0, 0),
        }
    }

    fn row(&self, slot: usize) -> Option<RowRef<'_>> {
        let &(cells, text) = self.slots.get(slot)?;
        Some(RowRef {
            cells: &self.cells[cells as usize..],
            text: &self.text[text as usize..],
        })
    }

    /// Bytes of the records the slots point at, in `cells` and in `text`.
    fn live(&self) -> (usize, usize) {
        (
            self.cells.len() - self.dead.0,
            self.text.len() - self.dead.1,
        )
    }

    /// Append `row`'s record, returning where it starts. While the page
    /// has empty slots, an arena grows to what they need at the page's
    /// average record, so a page filled in order reallocates a few times at
    /// most; past that (an UPDATE's new image) it grows by doubling.
    fn append(&mut self, row: RowRef<'_>) -> (u32, u32) {
        let (cells, text) = row.bytes();
        let (filled, empty) = (self.slots.len(), PAGE_SLOTS - self.slots.len());
        let room = |len: usize, more: usize| match empty {
            0 => more.max(len),
            _ => more + (len + more) / (filled + 1) * (empty - 1),
        };
        if self.cells.capacity() - self.cells.len() < cells.len() {
            self.cells
                .reserve_exact(room(self.cells.len(), cells.len()));
        }
        if self.text.capacity() - self.text.len() < text.len() {
            self.text.reserve_exact(room(self.text.len(), text.len()));
        }
        let at = self.end();
        self.cells.extend_from_slice(cells);
        self.text.push_str(text);
        at
    }

    /// Where the next record would start.
    fn end(&self) -> (u32, u32) {
        let offset = |len: usize| u32::try_from(len).expect("a page under 4 GiB");
        (offset(self.cells.len()), offset(self.text.len()))
    }

    /// Store `row` in the next empty slot; the slot that fills the page
    /// trims the arenas' slack.
    fn push(&mut self, row: RowRef<'_>) {
        let at = self.append(row);
        self.slots.push(at);
        if self.slots.len() == PAGE_SLOTS {
            self.cells.shrink_to_fit();
            self.text.shrink_to_fit();
        }
    }

    /// A copy holding only the slots' records, with room for the page's
    /// empty slots at its average record, or for one more record when it is
    /// full.
    fn compacted(&self) -> Page {
        let (filled, empty) = (self.slots.len().max(1), PAGE_SLOTS - self.slots.len());
        let room = |live: usize| live + live / filled * empty.max(1);
        let (cells, text) = self.live();
        let mut page = Page {
            slots: Vec::with_capacity(PAGE_SLOTS),
            cells: Vec::with_capacity(room(cells)),
            text: String::with_capacity(room(text)),
            dead: (0, 0),
        };
        for slot in 0..self.slots.len() {
            let (cells, text) = self.row(slot).expect("a filled slot").bytes();
            page.slots.push(page.end());
            page.cells.extend_from_slice(cells);
            page.text.push_str(text);
        }
        page
    }

    /// Point `slot` at a new image appended to the page, compacting the page
    /// once its dead bytes outgrow its live ones.
    fn replace(&mut self, slot: usize, row: RowRef<'_>) {
        let (cells, text) = self.row(slot).expect("a filled slot").bytes();
        self.dead = (self.dead.0 + cells.len(), self.dead.1 + text.len());
        self.slots[slot] = self.append(row);
        let (live, dead) = (self.live(), self.dead);
        if dead.0 + dead.1 > live.0 + live.1 {
            *self = self.compacted();
        }
    }
}

impl Clone for Page {
    /// The copy-on-write copy: only the live records.
    fn clone(&self) -> Page {
        self.compacted()
    }
}

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
    pub fn insert(&mut self, row: RowRef<'_>) -> RowId {
        let id = RowId(self.len as u32);
        let (d, p, _) = locate(id);
        if d == self.dirs.len() {
            self.dirs.push(Arc::new(Vec::with_capacity(DIR_PAGES)));
        }
        let dir = Arc::make_mut(&mut self.dirs[d]);
        if p == dir.len() {
            // A copied directory has no spare capacity: grow it to its
            // full size at once, never past it.
            dir.reserve_exact(DIR_PAGES - p);
            dir.push(Arc::new(Page::new()));
        }
        Arc::make_mut(&mut dir[p]).push(row);
        self.len += 1;
        id
    }

    /// Set the row at `id`, appending when `id` is the next id — the
    /// idempotent primitive WAL replay is built on: replaying an Insert or
    /// Update record a second time lands in exactly the same state as the
    /// first pass. `false`, changing nothing, for an id past the next one,
    /// which no valid log holds.
    pub fn put_at(&mut self, id: RowId, row: RowRef<'_>) -> bool {
        match (id.0 as usize).cmp(&self.len) {
            std::cmp::Ordering::Less => self.update(id, row),
            std::cmp::Ordering::Equal => {
                self.insert(row);
                true
            }
            std::cmp::Ordering::Greater => false,
        }
    }

    /// Fetch a row by id.
    pub fn get(&self, id: RowId) -> Option<RowRef<'_>> {
        let (d, p, s) = locate(id);
        self.dirs.get(d)?.get(p)?.row(s)
    }

    /// Replace a row; `false`, changing nothing, past the last row. The old
    /// image stays in whichever snapshots still pin its page.
    pub fn update(&mut self, id: RowId, row: RowRef<'_>) -> bool {
        if id.0 as usize >= self.len {
            return false;
        }
        let (d, p, s) = locate(id);
        let dir = Arc::make_mut(&mut self.dirs[d]);
        Arc::make_mut(&mut dir[p]).replace(s, row);
        true
    }

    /// Iterate `(RowId, RowRef)` over every row in id order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            heap: self,
            page: None,
            next: 0,
        }
    }

    /// Every page's allocation, in id order.
    #[cfg(test)]
    pub(crate) fn page_ptrs(&self) -> Vec<*const ()> {
        let pages = self.dirs.iter().flat_map(|dir| dir.iter());
        pages.map(|page| Arc::as_ptr(page).cast()).collect()
    }

    /// Bytes every page holds, dead and live, in id order.
    #[cfg(test)]
    fn page_bytes(&self) -> Vec<(usize, usize)> {
        let pages = self.dirs.iter().flat_map(|dir| dir.iter());
        let bytes = |(cells, text): (usize, usize)| cells + text;
        pages
            .map(|page| (bytes(page.dead), bytes(page.live())))
            .collect()
    }
}

/// Iterator over a heap's rows in id order. Its state is the id it has
/// reached and that id's page, looked up once per page: small enough for a
/// scan loop to keep in registers across its per-row work.
pub struct Iter<'a> {
    heap: &'a Heap,
    page: Option<&'a Page>,
    /// The id of the next row.
    next: u32,
}

impl<'a> Iterator for Iter<'a> {
    type Item = (RowId, RowRef<'a>);

    fn next(&mut self) -> Option<(RowId, RowRef<'a>)> {
        let id = RowId(self.next);
        let (d, p, s) = locate(id);
        if s == 0 {
            self.page = Some(self.heap.dirs.get(d)?.get(p)?);
        }
        let row = self.page?.row(s)?;
        self.next += 1;
        Some((id, row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbgw_testkit::gen::{ints, usizes, vec_of};
    use dbgw_testkit::{prop_assert_eq, props};

    type Row = Vec<Value>;

    fn row(i: i64) -> Row {
        vec![Value::Int(i)]
    }

    fn rec(i: i64) -> Record {
        Record::new(&row(i))
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut h = Heap::new();
        let a = h.insert(rec(1).row());
        let b = h.insert(rec(2).row());
        assert_eq!((a, b), (RowId(0), RowId(1)));
        assert_eq!(h.get(a).map(RowRef::to_vec), Some(row(1)));
        assert_eq!(h.get(RowId(2)), None);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn records_round_trip_every_type() {
        let values = vec![
            Value::Null,
            Value::Int(-7),
            Value::Double(-0.5),
            Value::Text("héllo".into()),
            Value::Text(String::new()),
            Value::Text("x".into()),
        ];
        let record = Record::new(&values);
        let row = record.row();
        assert_eq!((row.len(), row.to_vec()), (values.len(), values.clone()));
        assert_eq!(row.get(values.len()), ValueRef::Null);
        assert_eq!(Record::from(row), record);
        assert_eq!(RowRef::EMPTY.len(), 0);
        assert_eq!(RowRef::EMPTY.get(0), ValueRef::Null);
        // A stored record reads the same, wherever its page put it.
        let mut h = Heap::new();
        h.insert(rec(1).row());
        let id = h.insert(row);
        assert_eq!(h.get(id).map(RowRef::to_vec), Some(values));
    }

    #[test]
    fn update_replaces_the_image() {
        let mut h = Heap::new();
        let a = h.insert(rec(1).row());
        assert!(h.update(a, rec(9).row()));
        assert_eq!(h.get(a).map(RowRef::to_vec), Some(row(9)));
        assert!(!h.update(RowId(1), rec(9).row()));
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn put_at_is_idempotent_and_repairs_bookkeeping() {
        let mut h = Heap::new();
        // Past the next id: refused, nothing changes.
        assert!(!h.put_at(RowId(2), rec(9).row()));
        assert_eq!((h.len(), h.get(RowId(2))), (0, None));
        // The next id appends; twice over the same id is the same state.
        assert!(h.put_at(RowId(0), rec(9).row()));
        assert!(h.put_at(RowId(0), rec(10).row()));
        assert!(h.put_at(RowId(0), rec(10).row()));
        assert_eq!(h.len(), 1);
        assert_eq!(h.get(RowId(0)).map(RowRef::to_vec), Some(row(10)));
        // An insert takes the id after every put_at row.
        assert_eq!(h.insert(rec(3).row()), RowId(1));
    }

    #[test]
    fn clone_shares_rows_and_diverges_on_write() {
        // The copy-on-write property db.rs relies on: a cloned heap shares
        // pages with the original, and mutating the clone leaves the
        // original's rows untouched.
        let mut h = Heap::new();
        let a = h.insert(rec(1).row());
        let b = h.insert(rec(2).row());
        let snapshot = h.clone();
        assert_eq!(snapshot.page_ptrs(), h.page_ptrs());
        h.update(a, rec(99).row());
        let c = h.insert(rec(3).row());
        assert_eq!(snapshot.get(a).map(RowRef::to_vec), Some(row(1)));
        assert_eq!(snapshot.get(b).map(RowRef::to_vec), Some(row(2)));
        assert_eq!(snapshot.get(c), None);
        assert_eq!(snapshot.len(), 2);
        assert_eq!(h.get(a).map(RowRef::to_vec), Some(row(99)));
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn update_of_shared_page_leaves_the_snapshot_its_old_image() {
        let mut h = Heap::new();
        let a = h.insert(rec(7).row());
        let snapshot = h.clone(); // the page now has two owners
        assert!(h.update(a, rec(8).row()));
        assert_eq!(snapshot.get(a).map(RowRef::to_vec), Some(row(7)));
        assert_eq!(h.get(a).map(RowRef::to_vec), Some(row(8)));
        assert_ne!(snapshot.page_ptrs(), h.page_ptrs());
    }

    #[test]
    fn dead_bytes_stay_below_live_bytes() {
        let text = |i: usize| Record::new(&[Value::Text("x".repeat(1 + i % 7))]);
        let mut h = Heap::new();
        for i in 0..3 * PAGE_SLOTS / 2 {
            h.insert(text(i).row());
        }
        // Rewrite one row over and over in an unshared page, then rewrite
        // rows under snapshots: neither lets dead bytes pass live bytes.
        for i in 0..500 {
            h.update(RowId(3), text(i).row());
            assert!(h.page_bytes().iter().all(|&(dead, live)| dead <= live));
        }
        for i in 0..50 {
            let snapshot = h.clone();
            h.update(RowId((i * 7 % h.len()) as u32), text(i).row());
            assert!(h.page_bytes().iter().all(|&(dead, live)| dead <= live));
            drop(snapshot);
        }
        assert_eq!(
            h.get(RowId(3)).map(RowRef::to_vec),
            Some(text(499).row().to_vec())
        );
    }

    /// Compare every observable of `heap` with `model`, one row per id.
    fn agrees(heap: &Heap, model: &[Row]) -> Result<(), String> {
        let want: Vec<(RowId, &Row)> = (model.iter().enumerate())
            .map(|(i, r)| (RowId(i as u32), r))
            .collect();
        let got: Vec<(RowId, Row)> = heap.iter().map(|(id, r)| (id, r.to_vec())).collect();
        let got: Vec<(RowId, &Row)> = got.iter().map(|(id, r)| (*id, r)).collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(heap.len(), model.len());
        prop_assert_eq!(heap.is_empty(), model.is_empty());
        for i in 0..model.len() + PAGE_SLOTS {
            let got = heap.get(RowId(i as u32)).map(RowRef::to_vec);
            prop_assert_eq!(got.as_ref(), model.get(i));
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
                prop_assert_eq!(heap.insert(rec(i as i64).row()), RowId(i as u32));
                model.push(row(i as i64));
            }
            let mut snapshots: Vec<(Heap, Vec<Row>)> = Vec::new();
            for (op, near, value) in ops {
                let (r, at) = (row(value), near % (model.len() + 3));
                let stored = Record::new(&r);
                match op {
                    0..=5 => {
                        prop_assert_eq!(heap.insert(stored.row()), RowId(model.len() as u32));
                        model.push(r);
                    }
                    6..=9 => {
                        let was = model.get(at).cloned();
                        prop_assert_eq!(heap.get(RowId(at as u32)).map(RowRef::to_vec), was.clone());
                        prop_assert_eq!(heap.update(RowId(at as u32), stored.row()), was.is_some());
                        if was.is_some() {
                            model[at] = r;
                        }
                    }
                    10..=14 => {
                        let fits = at <= model.len();
                        prop_assert_eq!(heap.put_at(RowId(at as u32), stored.row()), fits);
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
