//! Shared database state: tables, heaps and indexes.
//!
//! One [`DbState`] is the immutable unit that readers pin: the [`crate::db`]
//! layer keeps the current state in a `SnapshotCell<DbState>` and every
//! SELECT runs against one `Arc<DbState>` for its whole lifetime, lock-free.
//!
//! Writers clone the state shallowly (tables and indexes sit behind their own
//! `Arc`s, so the clone is a map of pointers), mutate their working copy via
//! [`std::sync::Arc::make_mut`] and publish the result atomically. Copying
//! stops at what a write changes: `make_mut` on a table copies its schema
//! and the heap's directory pointers, and the heap and each
//! index are themselves persistent structures ([`crate::storage`],
//! [`crate::index`]) that path-copy one page or one root-to-leaf path. An
//! UPDATE writes (and so copies) only the indexes whose key it changed.
//! Statements therefore execute against `&DbState` (queries) or
//! `&mut DbState` (DML/DDL) exactly as before; copy-on-write is hidden
//! behind the accessors here, and a write costs O(change), not O(table).

use crate::error::{SqlCode, SqlError, SqlResult};
use crate::index::Index;
use crate::schema::TableSchema;
use crate::storage::{Heap, RowId, RowRef};
use std::collections::HashMap;
use std::sync::Arc;

/// A table: schema, heap, the names of its indexes and its modification
/// counter.
#[derive(Debug, Clone)]
pub struct TableData {
    /// The table schema.
    pub schema: TableSchema,
    /// Row storage.
    pub heap: Heap,
    /// Names (lowercased) of indexes over this table.
    pub index_names: Vec<String>,
    /// Modification counter: 1 at CREATE TABLE, bumped by every row
    /// mutation. The result cache records the versions of every table a
    /// SELECT read (from the same pinned snapshot) and revalidates them at
    /// lookup, which makes table-level invalidation exact — correctness
    /// never depends on TTL. A table is never dropped, so once published
    /// its counter only rises.
    pub version: u64,
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
    /// Publication epoch: incremented once per published snapshot, strictly
    /// monotonic across the database's lifetime. Readers can compare epochs
    /// to order the snapshots they pinned.
    pub epoch: u64,
}

impl DbState {
    /// The modification counter of table `name` (any case); 0 if there is
    /// no such table.
    pub fn version(&self, name: &str) -> u64 {
        self.tables
            .get(&name.to_ascii_lowercase())
            .map_or(0, |t| t.version)
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

    /// Insert a validated row into `table`, maintaining every index.
    ///
    /// On an error (a uniqueness violation) the working copy is left
    /// unspecified: every caller abandons it, and the statement's private
    /// copy of the published state is what makes statements atomic.
    pub fn insert_row(&mut self, table: &str, row: RowRef<'_>) -> SqlResult<RowId> {
        let t = self
            .tables
            .get_mut(&table.to_ascii_lowercase())
            .map(Arc::make_mut)
            .ok_or_else(|| SqlError::no_such_table(table))?;
        let id = t.heap.insert(row);
        for name in &t.index_names {
            let idx = Arc::make_mut(self.indexes.get_mut(name).expect("catalog consistency"));
            idx.insert(row.get(idx.column), id)?;
        }
        t.version += 1;
        Ok(id)
    }

    /// Replace a row, maintaining its indexes.
    ///
    /// Only the indexes whose key changed are written (and so copied). On
    /// an error the working copy is left unspecified, as for
    /// [`DbState::insert_row`].
    pub fn update_row(&mut self, table: &str, id: RowId, new: RowRef<'_>) -> SqlResult<()> {
        let t = self
            .tables
            .get_mut(&table.to_ascii_lowercase())
            .map(Arc::make_mut)
            .ok_or_else(|| SqlError::no_such_table(table))?;
        // The old image is read where it lies, before the heap moves on.
        let vanished = || SqlError::new(SqlCode::UNDEFINED_OBJECT, "row vanished during update");
        let old = t.heap.get(id).ok_or_else(vanished)?;
        for name in &t.index_names {
            let column = self.indexes[name].column;
            let (was, now) = (old.get(column), new.get(column));
            if was != now {
                let idx = Arc::make_mut(self.indexes.get_mut(name).expect("catalog consistency"));
                idx.remove(was, id);
                idx.insert(now, id)?;
            }
        }
        t.heap.update(id, new);
        t.version += 1;
        Ok(())
    }

    /// Rebuild every index from its table's heap.
    ///
    /// WAL replay applies row records straight to the heaps (index
    /// maintenance during replay would be wasted work and, worse, would have
    /// to be order-sensitive); this pass re-derives the complete index
    /// contents at the end. Committed data cannot violate uniqueness, so an
    /// error here means the log itself is corrupt.
    pub fn rebuild_indexes(&mut self) -> SqlResult<()> {
        for index in self.indexes.values_mut() {
            let Index {
                name,
                table,
                column,
                unique,
                ..
            } = &**index;
            let rows = self
                .tables
                .get(table)
                .into_iter()
                .flat_map(|t| t.heap.iter());
            let entries = rows.map(|(id, row)| (row.get(*column), id));
            let fresh = Index::build(name, table, *column, *unique, entries)?;
            *index = Arc::new(fresh);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::ColumnDef;
    use crate::storage::Record;
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
                version: 0,
            }),
        );
        st.indexes
            .insert("t_pk".into(), Arc::new(Index::new("t_pk", "t", 0, true)));
        st
    }

    fn row(id: i64, name: &str) -> Record {
        Record::new(&[Value::Int(id), Value::Text(name.into())])
    }

    /// How many of `after`'s allocations are not among `before`'s.
    fn unshared(after: Vec<*const ()>, before: Vec<*const ()>) -> usize {
        let before: std::collections::HashSet<_> = before.into_iter().collect();
        after.iter().filter(|p| !before.contains(p)).count()
    }

    #[test]
    fn one_row_update_copies_one_page_and_one_path_per_changed_index() {
        let mut st = state_with_table();
        Arc::make_mut(st.tables.get_mut("t").unwrap())
            .index_names
            .push("t_name".into());
        let by_name = Index::new("t_name", "t", 1, false);
        st.indexes.insert("t_name".into(), Arc::new(by_name));
        for i in 0..20_000 {
            st.insert_row("t", row(i, &format!("n{}", i % 1_000)).row())
                .unwrap();
        }
        let base = st.clone();
        let (id, next) = (RowId(12_345), RowId(12_346));
        assert_eq!(
            base.table("t").unwrap().heap.get(id),
            Some(row(12_345, "n345").row())
        );
        // Change the name only: the primary-key index is not written at all.
        let mut work = base.clone();
        work.update_row("t", id, row(12_345, "renamed").row())
            .unwrap();
        let (heap, base_heap) = (
            &work.table("t").unwrap().heap,
            &base.table("t").unwrap().heap,
        );
        assert_eq!(unshared(heap.page_ptrs(), base_heap.page_ptrs()), 1);
        assert!(Arc::ptr_eq(&work.indexes["t_pk"], &base.indexes["t_pk"]));
        let (names, base_names) = (&work.indexes["t_name"], &base.indexes["t_name"]);
        let height = base_names.height();
        assert!(height >= 3, "a 20 000-row index is several levels deep");
        let copied = unshared(names.node_ptrs(), base_names.node_ptrs());
        assert!(
            (1..=2 * height + 1).contains(&copied),
            "{copied} nodes copied for a tree {height} levels high"
        );
        assert_eq!(names.lookup(&Value::Text("renamed".into())), vec![id]);
        // A second write to the same page in the same working copy copies
        // no further page.
        let pages = work.table("t").unwrap().heap.page_ptrs();
        work.update_row("t", next, row(12_346, "n346").row())
            .unwrap();
        assert_eq!(work.table("t").unwrap().heap.page_ptrs(), pages);
        // And the snapshot reads exactly as before.
        let base_t = base.table("t").unwrap();
        assert_eq!(base_t.heap.get(id), Some(row(12_345, "n345").row()));
        assert_eq!(base_t.heap.len(), 20_000);
        assert!(base_names.lookup(&Value::Text("renamed".into())).is_empty());
        assert!(base_names.lookup(&Value::Text("n345".into())).contains(&id));
    }

    #[test]
    fn rebuild_indexes_rederives_from_heaps() {
        let mut st = state_with_table();
        // Write straight to the heap, bypassing index maintenance — exactly
        // what WAL replay does before its final rebuild pass.
        {
            let t = st.tables.get_mut("t").map(Arc::make_mut).unwrap();
            t.heap.put_at(RowId(0), row(1, "a").row());
            t.heap.put_at(RowId(1), row(2, "b").row());
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
            t.heap.put_at(RowId(2), row(1, "dup").row());
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
        st.insert_row("t", row(1, "a").row()).unwrap();
        let base = st.clone();
        let mut work = base.clone();
        work.insert_row("t", row(2, "b").row()).unwrap();
        // Touched table diverged...
        assert!(!Arc::ptr_eq(&base.tables["t"], &work.tables["t"]));
        // ...and the original snapshot still sees one row.
        assert_eq!(base.table("t").unwrap().heap.len(), 1);
        assert_eq!(work.table("t").unwrap().heap.len(), 2);
        assert_eq!(base.version("t"), 1);
        assert_eq!(work.version("t"), 2);
    }
}
