//! Per-table column statistics for the cost-based planner.
//!
//! Every [`crate::state::TableData`] carries an optional [`TableStats`]:
//! a live row count plus, per column, null/non-null counts, a bounded
//! distinct-value estimator, min/max, and a small equi-width histogram over
//! numeric columns. Statistics are **maintained incrementally** on every
//! insert/delete (cheap counter and bucket updates) and **rebuilt from the
//! heap** once the number of writes since the last build passes a threshold
//! ([`REFRESH_THRESHOLD`]) — incremental maintenance can only
//! drift (deletes cannot shrink min/max or un-set estimator bits), so the
//! periodic rebuild bounds the error.
//!
//! Because stats live inside `TableData`, they ride the copy-on-write
//! snapshot machinery for free: `Arc::make_mut` on a table copies its
//! stats (a few hundred bytes per column) along with the schema and the
//! heap's page directory, the writer mutates privately, and the publish
//! diff-patch carries the new stats exactly as it carries the new heap. A
//! failed or panicking statement publishes nothing, so stats can never
//! poison. WAL recovery replays rows straight into the heaps and then
//! rebuilds stats in one pass, next to the index rebuild.
//!
//! The distinct estimator is linear counting over a fixed 2048-bit bitmap
//! (256 bytes/column): each value sets one FNV-hashed bit and the estimate
//! is `m · ln(m / zero_bits)`. Exact for small cardinalities, within a few
//! percent up to ~1000 distinct values — plenty for the probe-or-scan
//! choice, which compares an estimate against a fixed ceiling.

use crate::schema::TableSchema;
use crate::storage::{Heap, RowRef};
use crate::types::{Value, ValueRef};

/// Bits in the per-column distinct estimator (must be a power of two).
const ESTIMATOR_BITS: usize = 2048;

/// Writes since the last build that trigger a full rebuild from the heap.
pub const REFRESH_THRESHOLD: u64 = 256;

/// Equi-width histogram bucket count.
pub const HISTOGRAM_BUCKETS: usize = 16;

/// Equi-width histogram over a numeric column's `[lo, hi]` range.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Lower bound of the first bucket (at build time).
    pub lo: f64,
    /// Upper bound of the last bucket (at build time).
    pub hi: f64,
    /// Rows per bucket; values outside `[lo, hi]` clamp to the edge buckets.
    pub buckets: Vec<u64>,
}

impl Histogram {
    fn bucket_of(&self, v: f64) -> usize {
        if self.hi <= self.lo {
            return 0;
        }
        let frac = (v - self.lo) / (self.hi - self.lo);
        ((frac * self.buckets.len() as f64) as isize).clamp(0, self.buckets.len() as isize - 1)
            as usize
    }

    fn add(&mut self, v: f64) {
        let b = self.bucket_of(v);
        self.buckets[b] += 1;
    }

    fn remove(&mut self, v: f64) {
        let b = self.bucket_of(v);
        self.buckets[b] = self.buckets[b].saturating_sub(1);
    }

    /// Total rows counted across all buckets.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Estimated fraction of counted rows with value `< v` (strict).
    pub fn fraction_below(&self, v: f64) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        if v <= self.lo {
            return 0.0;
        }
        if v >= self.hi {
            return 1.0;
        }
        let width = (self.hi - self.lo) / self.buckets.len() as f64;
        let mut below = 0.0;
        for (i, &count) in self.buckets.iter().enumerate() {
            let b_lo = self.lo + width * i as f64;
            let b_hi = b_lo + width;
            if v >= b_hi {
                below += count as f64;
            } else if v > b_lo {
                below += count as f64 * (v - b_lo) / width;
                break;
            } else {
                break;
            }
        }
        (below / total as f64).clamp(0.0, 1.0)
    }
}

/// Statistics for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// NULL values seen.
    pub nulls: u64,
    /// Non-NULL values seen.
    pub non_null: u64,
    /// Smallest non-NULL value (cannot shrink between rebuilds).
    pub min: Option<Value>,
    /// Largest non-NULL value (cannot shrink between rebuilds).
    pub max: Option<Value>,
    /// Equi-width histogram; `None` for non-numeric columns.
    pub histogram: Option<Histogram>,
    /// Linear-counting bitmap behind [`ColumnStats::distinct`].
    bitmap: Box<[u64; ESTIMATOR_BITS / 64]>,
}

/// A value's bit in the distinct estimator. Numeric values that compare
/// SQL-equal across types (`1` vs `1.0`) hash identically, so they count as
/// one distinct value, as `=` treats them.
fn estimator_bit(v: ValueRef<'_>) -> Option<usize> {
    const FNV_OFFSET: u64 = 0xcbf29ce484222325;
    const FNV_PRIME: u64 = 0x100000001b3;
    let mut h = FNV_OFFSET;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    match v {
        ValueRef::Null => return None,
        ValueRef::Int(i) => {
            feed(&[1]);
            feed(&(i as f64).to_bits().to_le_bytes());
        }
        ValueRef::Double(d) => {
            feed(&[1]);
            feed(&d.to_bits().to_le_bytes());
        }
        ValueRef::Text(t) => {
            feed(&[2]);
            feed(t.as_bytes());
        }
        ValueRef::Date(d) => {
            feed(&[3]);
            feed(&d.to_le_bytes());
        }
    }
    Some((h % ESTIMATOR_BITS as u64) as usize)
}

/// A value as a histogram coordinate (numeric and date columns only).
pub(crate) fn numeric(v: ValueRef<'_>) -> Option<f64> {
    match v {
        ValueRef::Int(i) => Some(i as f64),
        ValueRef::Double(d) => Some(d),
        ValueRef::Date(d) => Some(d as f64),
        ValueRef::Null | ValueRef::Text(_) => None,
    }
}

impl ColumnStats {
    fn new() -> ColumnStats {
        ColumnStats {
            nulls: 0,
            non_null: 0,
            min: None,
            max: None,
            histogram: None,
            bitmap: Box::new([0u64; ESTIMATOR_BITS / 64]),
        }
    }

    fn note_value(&mut self, v: ValueRef<'_>) {
        if v.is_null() {
            self.nulls += 1;
            return;
        }
        self.non_null += 1;
        if let Some(bit) = estimator_bit(v) {
            self.bitmap[bit / 64] |= 1 << (bit % 64);
        }
        let widen_min = self
            .min
            .as_ref()
            .is_none_or(|m| v.compare(m.view()).is_some_and(|o| o.is_lt()));
        if widen_min {
            self.min = Some(v.to_value());
        }
        let widen_max = self
            .max
            .as_ref()
            .is_none_or(|m| v.compare(m.view()).is_some_and(|o| o.is_gt()));
        if widen_max {
            self.max = Some(v.to_value());
        }
        if let (Some(h), Some(n)) = (self.histogram.as_mut(), numeric(v)) {
            h.add(n);
        }
    }

    fn forget_value(&mut self, v: ValueRef<'_>) {
        // Deletes can only decrement counters; min/max and estimator bits
        // stay conservative until the next rebuild.
        if v.is_null() {
            self.nulls = self.nulls.saturating_sub(1);
            return;
        }
        self.non_null = self.non_null.saturating_sub(1);
        if let (Some(h), Some(n)) = (self.histogram.as_mut(), numeric(v)) {
            h.remove(n);
        }
    }

    /// Estimated number of distinct non-NULL values (linear counting).
    pub fn distinct(&self) -> u64 {
        if self.non_null == 0 {
            return 0;
        }
        let zeros: u32 = self.bitmap.iter().map(|w| w.count_zeros()).sum();
        let m = ESTIMATOR_BITS as f64;
        let estimate = if zeros == 0 {
            self.non_null
        } else {
            (m * (m / f64::from(zeros)).ln()).round() as u64
        };
        estimate.clamp(1, self.non_null)
    }
}

/// Statistics for one table: live row count plus per-column stats.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    /// Live rows (incremented/decremented per write).
    pub rows: u64,
    /// Per-column stats, schema order.
    pub columns: Vec<ColumnStats>,
    /// Writes folded in incrementally since the last full build; past
    /// [`REFRESH_THRESHOLD`] the owner rebuilds from the heap.
    pub writes_since_build: u64,
}

impl TableStats {
    /// Build fresh statistics from a table's heap in one pass.
    pub fn build(schema: &TableSchema, heap: &Heap) -> TableStats {
        let width = schema.width();
        let mut columns: Vec<ColumnStats> = (0..width).map(|_| ColumnStats::new()).collect();
        let mut rows = 0u64;
        // First pass: counters, min/max, distinct bitmap.
        for (_, row) in heap.iter() {
            rows += 1;
            for (i, col) in columns.iter_mut().enumerate() {
                col.note_value(row.get(i));
            }
        }
        // Second pass fills equi-width histograms, now that the numeric
        // range of each column is known.
        for col in columns.iter_mut() {
            let (Some(lo), Some(hi)) = (
                col.min.as_ref().and_then(|v| numeric(v.view())),
                col.max.as_ref().and_then(|v| numeric(v.view())),
            ) else {
                continue;
            };
            col.histogram = Some(Histogram {
                lo,
                hi,
                buckets: vec![0; HISTOGRAM_BUCKETS],
            });
        }
        if columns.iter().any(|c| c.histogram.is_some()) {
            for (_, row) in heap.iter() {
                for (i, col) in columns.iter_mut().enumerate() {
                    if let (Some(h), Some(n)) = (col.histogram.as_mut(), numeric(row.get(i))) {
                        h.add(n);
                    }
                }
            }
        }
        TableStats {
            rows,
            columns,
            writes_since_build: 0,
        }
    }

    /// Fold one inserted row in.
    pub fn note_insert(&mut self, row: RowRef<'_>) {
        self.rows += 1;
        self.writes_since_build += 1;
        for (i, col) in self.columns.iter_mut().enumerate() {
            col.note_value(row.get(i));
        }
    }

    /// Fold one deleted row out.
    pub fn note_delete(&mut self, row: RowRef<'_>) {
        self.rows = self.rows.saturating_sub(1);
        self.writes_since_build += 1;
        for (i, col) in self.columns.iter_mut().enumerate() {
            col.forget_value(row.get(i));
        }
    }

    /// Has incremental drift accumulated past the rebuild threshold?
    pub fn stale(&self) -> bool {
        self.writes_since_build >= REFRESH_THRESHOLD
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::ColumnDef;
    use crate::storage::Record;
    use crate::types::SqlType;

    fn schema() -> TableSchema {
        TableSchema::from_defs(
            "t",
            &[
                ColumnDef {
                    name: "k".into(),
                    ty: SqlType::Integer,
                    not_null: false,
                    primary_key: false,
                    unique: false,
                },
                ColumnDef {
                    name: "label".into(),
                    ty: SqlType::Varchar,
                    not_null: false,
                    primary_key: false,
                    unique: false,
                },
            ],
        )
        .unwrap()
    }

    fn heap_with(rows: &[(i64, &str)]) -> Heap {
        let mut heap = Heap::new();
        for (k, label) in rows {
            heap.insert(Record::new(&[Value::Int(*k), Value::Text((*label).into())]).row());
        }
        heap
    }

    #[test]
    fn build_counts_rows_nulls_and_range() {
        let mut heap = heap_with(&[(1, "a"), (5, "b"), (9, "c")]);
        heap.insert(Record::new(&[Value::Null, Value::Text("d".into())]).row());
        let stats = TableStats::build(&schema(), &heap);
        assert_eq!(stats.rows, 4);
        assert_eq!(stats.columns[0].nulls, 1);
        assert_eq!(stats.columns[0].non_null, 3);
        assert_eq!(stats.columns[0].min, Some(Value::Int(1)));
        assert_eq!(stats.columns[0].max, Some(Value::Int(9)));
        assert_eq!(stats.columns[0].distinct(), 3);
        // Text column: counts and distinct, but no histogram.
        assert_eq!(stats.columns[1].distinct(), 4);
        assert!(stats.columns[1].histogram.is_none());
        assert!(stats.columns[0].histogram.is_some());
    }

    #[test]
    fn distinct_estimate_tracks_duplicates() {
        let mut heap = Heap::new();
        for i in 0..300 {
            heap.insert(Record::new(&[Value::Int(i % 10), Value::Text(format!("v{i}"))]).row());
        }
        let stats = TableStats::build(&schema(), &heap);
        assert_eq!(stats.columns[0].distinct(), 10);
        // 300 distinct labels: linear counting is approximate but close.
        let d = stats.columns[1].distinct();
        assert!((270..=330).contains(&d), "estimate {d} too far from 300");
    }

    #[test]
    fn cross_type_numeric_values_share_distinct_bits() {
        let mut c = ColumnStats::new();
        c.note_value(ValueRef::Int(7));
        c.note_value(ValueRef::Double(7.0));
        assert_eq!(c.distinct(), 1);
    }

    #[test]
    fn incremental_insert_delete_round_trips_counters() {
        let heap = heap_with(&[(1, "a"), (2, "b")]);
        let mut stats = TableStats::build(&schema(), &heap);
        let row = Record::new(&[Value::Int(3), Value::Text("c".into())]);
        stats.note_insert(row.row());
        assert_eq!(stats.rows, 3);
        assert_eq!(stats.columns[0].non_null, 3);
        assert_eq!(stats.columns[0].max, Some(Value::Int(3)));
        stats.note_delete(row.row());
        assert_eq!(stats.rows, 2);
        assert_eq!(stats.columns[0].non_null, 2);
        // Min/max stay conservative after the delete (rebuild fixes them).
        assert_eq!(stats.columns[0].max, Some(Value::Int(3)));
        assert_eq!(stats.writes_since_build, 2);
    }

    #[test]
    fn histogram_fraction_below_interpolates() {
        let mut heap = Heap::new();
        for i in 0..100 {
            heap.insert(Record::new(&[Value::Int(i), Value::Null]).row());
        }
        let stats = TableStats::build(&schema(), &heap);
        let h = stats.columns[0].histogram.as_ref().unwrap();
        assert_eq!(h.total(), 100);
        assert!(h.fraction_below(0.0) == 0.0);
        assert!(h.fraction_below(1000.0) == 1.0);
        let mid = h.fraction_below(50.0);
        assert!((0.4..=0.6).contains(&mid), "mid fraction {mid}");
    }

    #[test]
    fn stale_after_threshold_writes() {
        let heap = heap_with(&[(1, "a")]);
        let mut stats = TableStats::build(&schema(), &heap);
        assert!(!stats.stale());
        for i in 0..REFRESH_THRESHOLD {
            stats.note_insert(Record::new(&[Value::Int(i as i64), Value::Null]).row());
        }
        assert!(stats.stale());
    }
}
