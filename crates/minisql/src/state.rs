//! Shared database state: tables, heaps and indexes.
//!
//! One [`DbState`] is the immutable unit that readers pin: the [`crate::db`]
//! layer keeps the current state in a `SnapshotCell<DbState>` and every
//! SELECT runs against one `Arc<DbState>` for its whole lifetime, lock-free.
//!
//! Writers clone the state shallowly (tables and indexes sit behind their own
//! `Arc`s, so the clone is a map of pointers), mutate their working copy via
//! [`std::sync::Arc::make_mut`] — which deep-clones only the tables and
//! indexes the statement actually touches — and publish the result
//! atomically. Statements therefore execute against `&DbState` (queries) or
//! `&mut DbState` (DML/DDL) exactly as before; copy-on-write is hidden
//! behind the accessors here.

use crate::error::{SqlCode, SqlError, SqlResult};
use crate::index::Index;
use crate::schema::TableSchema;
use crate::stats::TableStats;
use crate::storage::{Heap, Row, RowId};
use std::collections::HashMap;
use std::sync::Arc;

/// A table: schema, heap, the names of its indexes, and planner statistics.
#[derive(Debug, Clone)]
pub struct TableData {
    /// The table schema.
    pub schema: TableSchema,
    /// Row storage.
    pub heap: Heap,
    /// Names (lowercased) of indexes over this table.
    pub index_names: Vec<String>,
    /// Planner statistics (see [`crate::stats`]); `None` until the first
    /// write builds them.
    pub stats: Option<TableStats>,
}

impl TableData {
    /// Fold one successful row mutation into the table's statistics: update
    /// incrementally while fresh, rebuild from the heap once the write
    /// threshold has passed (the mutated row is already in/out of the heap
    /// when this runs, so a rebuild sees it).
    fn stats_note(&mut self, row: &Row, inserted: bool) {
        match self.stats.as_mut() {
            Some(s) if !s.stale() => {
                if inserted {
                    s.note_insert(row);
                } else {
                    s.note_delete(row);
                }
            }
            _ => self.rebuild_stats(),
        }
    }

    /// Rebuild this table's statistics from its heap in one pass.
    pub fn rebuild_stats(&mut self) {
        self.stats = Some(TableStats::build(&self.schema, &self.heap));
        dbgw_obs::metrics().stats_refreshes.inc();
    }
}

/// Every table and index in the database.
///
/// `Clone` is shallow: it copies the maps of `Arc`s, not the tables
/// themselves. This is the writer's working-copy step.
#[derive(Debug, Default, Clone)]
pub struct DbState {
    /// Tables keyed by lowercased name, each behind its own `Arc` so that
    /// snapshot publication can compare entries by pointer identity and a
    /// writer's working copy shares untouched tables with the published
    /// state.
    pub tables: HashMap<String, Arc<TableData>>,
    /// Indexes keyed by lowercased name (same `Arc` sharing scheme).
    pub indexes: HashMap<String, Arc<Index>>,
    /// Per-table modification counters keyed by lowercased name, bumped on
    /// every row mutation and on CREATE/DROP TABLE. The result cache records
    /// the versions of every table a SELECT read (from the same pinned
    /// snapshot) and revalidates them at lookup, which makes table-level
    /// invalidation exact — correctness never depends on TTL. A dropped
    /// table's counter survives (and keeps rising if the table is
    /// recreated), so cached results can never resurrect across a DROP.
    pub versions: HashMap<String, u64>,
    /// Publication epoch: incremented once per published snapshot, strictly
    /// monotonic across the database's lifetime. Readers can compare epochs
    /// to order the snapshots they pinned.
    pub epoch: u64,
}

impl DbState {
    /// The modification counter for `name` (any case); 0 if never touched.
    pub fn version(&self, name: &str) -> u64 {
        self.versions
            .get(&name.to_ascii_lowercase())
            .copied()
            .unwrap_or(0)
    }

    /// Record a modification of table `name` (any case).
    pub fn bump_version(&mut self, name: &str) {
        *self.versions.entry(name.to_ascii_lowercase()).or_insert(0) += 1;
    }

    /// Case-insensitive table lookup.
    pub fn table(&self, name: &str) -> SqlResult<&TableData> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .map(|t| &**t)
            .ok_or_else(|| SqlError::no_such_table(name))
    }

    /// Case-insensitive mutable table lookup (copy-on-write: clones the
    /// table if a snapshot still shares it).
    pub fn table_mut(&mut self, name: &str) -> SqlResult<&mut TableData> {
        self.tables
            .get_mut(&name.to_ascii_lowercase())
            .map(Arc::make_mut)
            .ok_or_else(|| SqlError::no_such_table(name))
    }

    /// The first index over `table` whose column ordinal is `column`.
    pub fn index_on(&self, table: &str, column: usize) -> Option<&Index> {
        let t = self.tables.get(&table.to_ascii_lowercase())?;
        t.index_names
            .iter()
            .filter_map(|n| self.indexes.get(n))
            .map(|i| &**i)
            .find(|i| i.column == column)
    }

    /// Mutable index lookup by (lowercased) name, copy-on-write.
    fn index_mut(&mut self, name: &str) -> Option<&mut Index> {
        self.indexes.get_mut(name).map(Arc::make_mut)
    }

    /// Insert a validated row into `table`, maintaining every index.
    ///
    /// On a uniqueness violation the row and any partial index entries are
    /// backed out, leaving the state unchanged.
    pub fn insert_row(&mut self, table: &str, row: Row) -> SqlResult<RowId> {
        let key = table.to_ascii_lowercase();
        let t = self
            .tables
            .get_mut(&key)
            .map(Arc::make_mut)
            .ok_or_else(|| SqlError::no_such_table(table))?;
        let index_names = t.index_names.clone();
        let id = t.heap.insert(row);
        let row_ref = t.heap.get(id).expect("just inserted").clone();
        let mut done: Vec<String> = Vec::new();
        for name in &index_names {
            let idx = self.index_mut(name).expect("catalog consistency");
            let value = row_ref.get(idx.column).cloned().unwrap_or_default_null();
            if let Err(e) = idx.insert(&value, id) {
                // Back out.
                for undo_name in &done {
                    let undo_idx = self.index_mut(undo_name).unwrap();
                    let v = row_ref
                        .get(undo_idx.column)
                        .cloned()
                        .unwrap_or_default_null();
                    undo_idx.remove(&v, id);
                }
                Arc::make_mut(self.tables.get_mut(&key).unwrap())
                    .heap
                    .delete(id);
                return Err(e);
            }
            done.push(name.clone());
        }
        Arc::make_mut(self.tables.get_mut(&key).unwrap()).stats_note(&row_ref, true);
        self.bump_version(&key);
        Ok(id)
    }

    /// Delete a row by id, maintaining indexes. Returns the old image.
    pub fn delete_row(&mut self, table: &str, id: RowId) -> SqlResult<Option<Row>> {
        let key = table.to_ascii_lowercase();
        let t = self
            .tables
            .get_mut(&key)
            .map(Arc::make_mut)
            .ok_or_else(|| SqlError::no_such_table(table))?;
        let index_names = t.index_names.clone();
        let Some(old) = t.heap.delete(id) else {
            return Ok(None);
        };
        for name in &index_names {
            let idx = self.index_mut(name).expect("catalog consistency");
            let value = old.get(idx.column).cloned().unwrap_or_default_null();
            idx.remove(&value, id);
        }
        Arc::make_mut(self.tables.get_mut(&key).unwrap()).stats_note(&old, false);
        self.bump_version(&key);
        Ok(Some(old))
    }

    /// Replace a row in place, maintaining indexes. Returns the old image.
    ///
    /// On a uniqueness violation the old row is restored.
    pub fn update_row(&mut self, table: &str, id: RowId, new: Row) -> SqlResult<Row> {
        let key = table.to_ascii_lowercase();
        let t = self
            .tables
            .get_mut(&key)
            .map(Arc::make_mut)
            .ok_or_else(|| SqlError::no_such_table(table))?;
        let index_names = t.index_names.clone();
        let old = t.heap.update(id, new.clone()).ok_or_else(|| {
            SqlError::new(SqlCode::UNDEFINED_OBJECT, "row vanished during update")
        })?;
        // Re-key each index whose column changed.
        let mut rekeyed: Vec<String> = Vec::new();
        for name in &index_names {
            let idx = self.index_mut(name).expect("catalog consistency");
            let old_v = old.get(idx.column).cloned().unwrap_or_default_null();
            let new_v = new.get(idx.column).cloned().unwrap_or_default_null();
            if old_v == new_v {
                continue;
            }
            idx.remove(&old_v, id);
            if let Err(e) = idx.insert(&new_v, id) {
                // Restore this index and all previously rekeyed ones.
                idx.insert(&old_v, id).expect("restore old key");
                for undo_name in &rekeyed {
                    let undo_idx = self.index_mut(undo_name).unwrap();
                    let o = old.get(undo_idx.column).cloned().unwrap_or_default_null();
                    let n = new.get(undo_idx.column).cloned().unwrap_or_default_null();
                    undo_idx.remove(&n, id);
                    undo_idx.insert(&o, id).expect("restore old key");
                }
                Arc::make_mut(self.tables.get_mut(&key).unwrap())
                    .heap
                    .update(id, old.clone());
                return Err(e);
            }
            rekeyed.push(name.clone());
        }
        let t = Arc::make_mut(self.tables.get_mut(&key).unwrap());
        t.stats_note(&old, false);
        t.stats_note(&new, true);
        self.bump_version(&key);
        Ok(old)
    }

    /// Rebuild every index from its table's heap.
    ///
    /// WAL replay applies row records straight to the heaps (index
    /// maintenance during replay would be wasted work and, worse, would have
    /// to be order-sensitive); this pass re-derives the complete index
    /// contents at the end. Committed data cannot violate uniqueness, so an
    /// error here means the log itself is corrupt.
    pub fn rebuild_indexes(&mut self) -> SqlResult<()> {
        let names: Vec<String> = self.indexes.keys().cloned().collect();
        for name in names {
            let (table, column, unique) = {
                let idx = &self.indexes[&name];
                (idx.table.clone(), idx.column, idx.unique)
            };
            let mut fresh = Index::new(&name, &table, column, unique);
            if let Some(t) = self.tables.get(&table) {
                for (id, row) in t.heap.iter() {
                    let value = row.get(column).cloned().unwrap_or_default_null();
                    fresh.insert(&value, id)?;
                }
            }
            self.indexes.insert(name, Arc::new(fresh));
        }
        Ok(())
    }

    /// Rebuild every table's planner statistics from its heap.
    ///
    /// WAL replay applies row records straight to the heaps, bypassing the
    /// incremental maintenance in [`DbState::insert_row`] et al.; recovery
    /// calls this next to [`DbState::rebuild_indexes`] so a reopened
    /// database plans with the same statistics a live one would.
    pub fn rebuild_stats(&mut self) {
        for table in self.tables.values_mut() {
            Arc::make_mut(table).rebuild_stats();
        }
    }
}

/// `Option<Value>` → `Value` treating absence as NULL (short rows never occur
/// in practice; this keeps index maintenance total).
trait OrNull {
    fn unwrap_or_default_null(self) -> crate::types::Value;
}

impl OrNull for Option<crate::types::Value> {
    fn unwrap_or_default_null(self) -> crate::types::Value {
        self.unwrap_or(crate::types::Value::Null)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::ColumnDef;
    use crate::types::{SqlType, Value};

    fn state_with_table() -> DbState {
        let mut st = DbState::default();
        let schema = TableSchema::from_defs(
            "t",
            &[
                ColumnDef {
                    name: "id".into(),
                    ty: SqlType::Integer,
                    not_null: true,
                    primary_key: true,
                    unique: false,
                },
                ColumnDef {
                    name: "name".into(),
                    ty: SqlType::Varchar,
                    not_null: false,
                    primary_key: false,
                    unique: false,
                },
            ],
        )
        .unwrap();
        st.tables.insert(
            "t".into(),
            Arc::new(TableData {
                schema,
                heap: Heap::new(),
                index_names: vec!["t_pk".into()],
                stats: None,
            }),
        );
        st.indexes
            .insert("t_pk".into(), Arc::new(Index::new("t_pk", "t", 0, true)));
        st
    }

    fn row(id: i64, name: &str) -> Row {
        vec![Value::Int(id), Value::Text(name.into())]
    }

    #[test]
    fn insert_maintains_unique_index() {
        let mut st = state_with_table();
        st.insert_row("t", row(1, "a")).unwrap();
        let err = st.insert_row("t", row(1, "b")).unwrap_err();
        assert_eq!(err.code, SqlCode::DUPLICATE_KEY);
        // The failed insert must not leave a ghost row.
        assert_eq!(st.table("t").unwrap().heap.len(), 1);
    }

    #[test]
    fn update_rekeys_index_and_rolls_back_on_conflict() {
        let mut st = state_with_table();
        let a = st.insert_row("t", row(1, "a")).unwrap();
        st.insert_row("t", row(2, "b")).unwrap();
        // Rekey 1 -> 3 is fine.
        st.update_row("t", a, row(3, "a")).unwrap();
        assert_eq!(st.index_on("t", 0).unwrap().lookup(&Value::Int(3)), vec![a]);
        // Rekey 3 -> 2 collides; state must be unchanged.
        let err = st.update_row("t", a, row(2, "a")).unwrap_err();
        assert_eq!(err.code, SqlCode::DUPLICATE_KEY);
        assert_eq!(st.index_on("t", 0).unwrap().lookup(&Value::Int(3)), vec![a]);
        assert_eq!(st.table("t").unwrap().heap.get(a), Some(&row(3, "a")));
    }

    #[test]
    fn rebuild_indexes_rederives_from_heaps() {
        let mut st = state_with_table();
        // Write straight to the heap, bypassing index maintenance — exactly
        // what WAL replay does before its final rebuild pass.
        {
            let t = st.tables.get_mut("t").map(Arc::make_mut).unwrap();
            t.heap.put_at(RowId(0), row(1, "a"));
            t.heap.put_at(RowId(1), row(2, "b"));
        }
        assert!(st
            .index_on("t", 0)
            .unwrap()
            .lookup(&Value::Int(1))
            .is_empty());
        st.rebuild_indexes().unwrap();
        assert_eq!(
            st.index_on("t", 0).unwrap().lookup(&Value::Int(1)),
            vec![RowId(0)]
        );
        // A uniqueness violation in the heap itself means a corrupt log.
        {
            let t = st.tables.get_mut("t").map(Arc::make_mut).unwrap();
            t.heap.put_at(RowId(2), row(1, "dup"));
        }
        assert!(st.rebuild_indexes().is_err());
    }

    #[test]
    fn missing_table_is_sqlcode_204() {
        let st = DbState::default();
        assert_eq!(
            st.table("nope").unwrap_err().code,
            SqlCode::UNDEFINED_OBJECT
        );
    }

    #[test]
    fn shallow_clone_shares_untouched_tables() {
        // The copy-on-write contract db.rs relies on: cloning a DbState
        // shares table allocations; mutating one table in the clone leaves
        // every other entry pointer-identical to the original.
        let mut st = state_with_table();
        st.insert_row("t", row(1, "a")).unwrap();
        let base = st.clone();
        let mut work = base.clone();
        work.insert_row("t", row(2, "b")).unwrap();
        // Touched table diverged...
        assert!(!Arc::ptr_eq(&base.tables["t"], &work.tables["t"]));
        // ...and the original snapshot still sees one row.
        assert_eq!(base.table("t").unwrap().heap.len(), 1);
        assert_eq!(work.table("t").unwrap().heap.len(), 2);
        assert_eq!(base.version("t"), 1);
        assert_eq!(work.version("t"), 2);
    }
}
