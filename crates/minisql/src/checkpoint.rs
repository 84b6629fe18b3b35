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
//! Because [`Heap`] row ids are stable (tombstones are never renumbered),
//! the snapshot preserves each row's `RowId` — a log tail written *after*
//! the checkpoint keeps addressing the same rows.
//!
//! A background daemon (spawned by [`Database::open`]) checkpoints whenever
//! the log exceeds [`crate::wal::DurabilityConfig::checkpoint_bytes`]; [`Database::checkpoint_now`]
//! forces one.
//!
//! [`RowId`]: crate::storage::RowId
//! [`Heap`]: crate::storage::Heap
//! [`Wal`]: crate::wal::Wal
//! [`Database::open`]: crate::Database::open
//! [`Database::checkpoint_now`]: crate::Database::checkpoint_now

use crate::db::DbCore;
use crate::error::{SqlError, SqlResult};
use crate::state::DbState;
use crate::wal::{encode_record, WalOp, LOG_FILE, MAGIC};
use std::io::Write;
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::Duration;

/// The checkpoint's scratch file, renamed over [`LOG_FILE`] on success.
pub const TMP_FILE: &str = "wal.tmp";

/// Row inserts per base record: large enough to amortize framing, small
/// enough that no single record balloons.
const ROWS_PER_RECORD: usize = 512;

/// Serialize a state as base records: one DDL record recreating the catalog
/// (tables in name order; constraint-implied indexes omitted — the CREATE
/// TABLE constraints recreate them), then each table's rows at their
/// original ids, chunked.
pub(crate) fn snapshot_records(state: &DbState) -> Vec<Vec<WalOp>> {
    let mut names: Vec<&String> = state.tables.keys().collect();
    names.sort();
    let mut ddl = Vec::new();
    for name in &names {
        let t = &state.tables[*name];
        ddl.push(WalOp::Ddl {
            sql: crate::dump::create_table_sql(name, &t.schema),
        });
        let mut index_names = t.index_names.clone();
        index_names.sort();
        for idx_name in &index_names {
            if let Some(idx) = state.indexes.get(idx_name) {
                if !crate::dump::implied_by_constraint(idx, &t.schema) {
                    let column = &t.schema.columns[idx.column].name;
                    ddl.push(WalOp::Ddl {
                        sql: crate::dump::create_index_sql(idx, column),
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
                row: row.clone(),
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

/// Run one checkpoint: pin, serialize, fsync, rename, swap the append
/// handle. No-op for in-memory databases and after a simulated crash (the
/// on-disk bytes must stay exactly as the power cut left them).
pub(crate) fn checkpoint_now(core: &DbCore) -> SqlResult<()> {
    let Some(p) = &core.persist else {
        return Ok(());
    };
    if p.wal.crashed() {
        return Ok(());
    }
    // Exclusive barrier: every writer is either fully published or has not
    // yet appended — the pinned snapshot and the log agree.
    let _exclusive = p.barrier.write();
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

/// Background loop: poll the log size every 50 ms, checkpoint past
/// `threshold` bytes, exit when the stop flag is set or the core is gone.
pub(crate) fn checkpoint_daemon(
    core: Weak<DbCore>,
    stop: Arc<(Mutex<bool>, Condvar)>,
    threshold: u64,
) {
    loop {
        {
            let (flag, wake) = &*stop;
            let mut stopped = flag.lock().unwrap_or_else(|e| e.into_inner());
            if !*stopped {
                let (guard, _timeout) = wake
                    .wait_timeout(stopped, Duration::from_millis(50))
                    .unwrap_or_else(|e| e.into_inner());
                stopped = guard;
            }
            if *stopped {
                return;
            }
        }
        let Some(core) = core.upgrade() else {
            return;
        };
        if let Some(p) = &core.persist {
            if p.wal.size() > threshold {
                // An IO error here wedges nothing: the log keeps growing
                // and the next poll retries.
                let _ = checkpoint_now(&core);
            }
        }
    }
}
