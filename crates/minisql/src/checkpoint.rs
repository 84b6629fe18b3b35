//! Checkpoints: rewrite the redo log as a base snapshot.
//!
//! The write-ahead log grows without bound as statements commit; a
//! checkpoint bounds it (and bounds recovery time) by replacing the whole
//! history with an equivalent **base snapshot** — a fresh log whose records
//! recreate the current published state directly. The checkpoint file *is*
//! a WAL: the same magic, framing, and record vocabulary
//! ([`crate::wal`]), just with one synthetic history (DDL first, then every
//! row at its stable [`RowId`]) instead of the real one. Recovery cannot
//! tell the difference, which is the point.
//!
//! # Protocol
//!
//! Writers hold the read side of the persistence barrier across
//! *append → fsync-ack → publish* (see `db.rs`); the checkpointer takes the
//! write side. With the barrier held exclusively, the published snapshot is
//! exactly the replay of the log — no acknowledged-but-unpublished
//! statement can exist — so the checkpointer:
//!
//! 1. pins the published snapshot;
//! 2. serializes it into `wal.tmp` and fsyncs;
//! 3. atomically renames `wal.tmp` over `wal.log` (a crash before the
//!    rename leaves the old log intact; after it, the new one — never a
//!    mix);
//! 4. hands the reopened append handle to the [`Wal`], which resumes
//!    appending where the base records end.
//!
//! A [`Heap`] is append-only and a row's `RowId` is its insertion ordinal,
//! so the snapshot writes each table's rows in id order, 0 to n − 1, and
//! replay appends them back at the same ids — a log tail written *after*
//! the checkpoint keeps addressing the same rows, and the recovered heap
//! hands out the same next id as the live one.
//!
//! The commit that grows the log [`CHECKPOINT_BYTES`] past the last
//! checkpoint's own size runs one on the committing thread, after it has
//! published; [`Database::checkpoint_now`] forces one. Measuring from the last base snapshot, not from zero, keeps a
//! database whose snapshot alone exceeds the threshold from rewriting its
//! whole log on every commit.
//!
//! [`RowId`]: crate::storage::RowId
//! [`Heap`]: crate::storage::Heap
//! [`Wal`]: crate::wal::Wal
//! [`Database::checkpoint_now`]: crate::Database::checkpoint_now

use crate::db::DbCore;
use crate::error::{SqlError, SqlResult};
use crate::index::Index;
use crate::schema::TableSchema;
use crate::state::DbState;
use crate::wal::{encode_record, Wal, WalOp, LOG_FILE, MAGIC};
use std::io::Write;

/// The checkpoint's scratch file, renamed over [`LOG_FILE`] on success.
pub const TMP_FILE: &str = "wal.tmp";

/// Log growth past the last base snapshot that makes a checkpoint due.
pub const CHECKPOINT_BYTES: u64 = 4 * 1024 * 1024;

/// Row inserts per base record: large enough to amortize framing, small
/// enough that no single record balloons.
const ROWS_PER_RECORD: usize = 512;

/// The `CREATE TABLE` statement (no trailing semicolon) that recreates
/// `schema` — including PRIMARY KEY / NOT NULL / UNIQUE column constraints,
/// which in turn recreate the system unique indexes. Shared by the WAL's DDL
/// redo records and checkpoint serialization.
pub(crate) fn create_table_sql(name: &str, schema: &TableSchema) -> String {
    let cols: Vec<String> = schema
        .columns
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let mut def = format!("{} {}", c.name, c.ty);
            if schema.primary_key == Some(i) {
                def.push_str(" PRIMARY KEY");
            } else {
                if c.not_null {
                    def.push_str(" NOT NULL");
                }
                if c.unique {
                    def.push_str(" UNIQUE");
                }
            }
            def
        })
        .collect();
    format!("CREATE TABLE {name} ({})", cols.join(", "))
}

/// The `CREATE [UNIQUE] INDEX` statement (no trailing semicolon) that
/// recreates `idx` over the column named `column_name`.
pub(crate) fn create_index_sql(idx: &Index, column_name: &str) -> String {
    format!(
        "CREATE {}INDEX {} ON {} ({column_name})",
        if idx.unique { "UNIQUE " } else { "" },
        idx.name,
        idx.table
    )
}

/// Whether `idx` is a system index implied by a column constraint — such
/// indexes are recreated by [`create_table_sql`] and must not be emitted as
/// separate `CREATE INDEX` statements.
fn implied_by_constraint(idx: &Index, schema: &TableSchema) -> bool {
    idx.unique && schema.columns.get(idx.column).is_some_and(|c| c.unique)
}

/// Serialize a state as base records: one DDL record recreating the catalog
/// (tables in name order; constraint-implied indexes omitted — the CREATE
/// TABLE constraints recreate them), then each table's rows in id order,
/// chunked.
pub(crate) fn snapshot_records(state: &DbState) -> Vec<Vec<WalOp>> {
    let mut names: Vec<&String> = state.tables.keys().collect();
    names.sort();
    let mut ddl = Vec::new();
    for name in &names {
        let t = &state.tables[*name];
        ddl.push(WalOp::Ddl {
            sql: create_table_sql(name, &t.schema),
        });
        let mut index_names = t.index_names.clone();
        index_names.sort();
        for idx_name in &index_names {
            if let Some(idx) = state.indexes.get(idx_name) {
                if !implied_by_constraint(idx, &t.schema) {
                    let column = &t.schema.columns[idx.column].name;
                    ddl.push(WalOp::Ddl {
                        sql: create_index_sql(idx, column),
                    });
                }
            }
        }
    }
    let mut records = Vec::new();
    if !ddl.is_empty() {
        records.push(ddl);
    }
    for name in &names {
        let t = &state.tables[*name];
        let mut chunk = Vec::new();
        for (id, row) in t.heap.iter() {
            chunk.push(WalOp::Insert {
                table: (*name).clone(),
                id,
                row: row.into(),
            });
            if chunk.len() >= ROWS_PER_RECORD {
                records.push(std::mem::take(&mut chunk));
            }
        }
        if !chunk.is_empty() {
            records.push(chunk);
        }
    }
    records
}

/// Has the log grown [`CHECKPOINT_BYTES`] past the last base snapshot?
/// Reads only what the flush and the swap already maintain — no lock.
pub(crate) fn due(wal: &Wal) -> bool {
    wal.size() > wal.base_size() + CHECKPOINT_BYTES
}

/// Run one checkpoint: pin, serialize, fsync, rename, swap the append
/// handle. Unless `force`d, only if the log is still [`due`] once the
/// barrier is held, so writers that all saw it due run one checkpoint
/// between them. No-op for in-memory databases and after a simulated crash
/// (the on-disk bytes must stay exactly as the power cut left them).
pub(crate) fn checkpoint_now(core: &DbCore, force: bool) -> SqlResult<()> {
    let Some(p) = &core.persist else {
        return Ok(());
    };
    if p.wal.crashed() {
        return Ok(());
    }
    // Exclusive barrier: every writer is either fully published or has not
    // yet appended — the pinned snapshot and the log agree.
    let _exclusive = p.barrier.write();
    if !force && !due(&p.wal) {
        return Ok(());
    }
    let state = core.published.load();
    let tmp_path = p.dir.join(TMP_FILE);
    let log_path = p.dir.join(LOG_FILE);
    let mut tmp =
        std::fs::File::create(&tmp_path).map_err(|e| SqlError::io("create checkpoint file", &e))?;
    tmp.write_all(MAGIC)
        .map_err(|e| SqlError::io("write checkpoint header", &e))?;
    let mut written = MAGIC.len() as u64;
    for record in snapshot_records(&state) {
        let bytes = encode_record(&record);
        tmp.write_all(&bytes)
            .map_err(|e| SqlError::io("write checkpoint record", &e))?;
        written += bytes.len() as u64;
    }
    tmp.sync_data()
        .map_err(|e| SqlError::io("sync checkpoint file", &e))?;
    drop(tmp);
    if dbgw_testkit::crash::hit("checkpoint.before_rename") {
        // Simulated power cut between fsync and rename: the old log is
        // still current; the orphaned wal.tmp is what recovery would find
        // (and ignore) after a real crash here.
        return Ok(());
    }
    std::fs::rename(&tmp_path, &log_path).map_err(|e| SqlError::io("install checkpoint", &e))?;
    let file = std::fs::OpenOptions::new()
        .append(true)
        .open(&log_path)
        .map_err(|e| SqlError::io("reopen checkpointed log", &e))?;
    p.wal.swap_file(file, written);
    let m = dbgw_obs::metrics();
    m.checkpoints.inc();
    m.checkpoint_last_bytes.set(written as i64);
    Ok(())
}
