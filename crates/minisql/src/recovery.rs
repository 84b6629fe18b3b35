//! Crash recovery: scan the redo log, truncate the torn tail, replay.
//!
//! Runs once at [`Database::open`](crate::Database::open), *before* the
//! write-ahead log is reopened for appending. The contract with the commit
//! protocol in `db.rs` is simple:
//!
//! * every record in the log was written whole and checksummed before any
//!   client saw the statement succeed, so replaying the valid prefix
//!   reconstructs exactly the acknowledged history;
//! * a crash mid-write leaves at most a **torn tail** — a final record with
//!   a short frame, a short payload, or a checksum mismatch — which by the
//!   same argument was never acknowledged and is safe to cut off.
//!
//! Replay is **idempotent**: row records force-set images by [`RowId`]
//! (`Heap::put_at`), deletes of missing rows are no-ops, and DDL records are
//! skipped when their object already exists (or, for drops, is already
//! gone). Replaying a log twice therefore lands in the same state as
//! replaying it once — which is also what makes a checkpoint (a rewritten
//! log of base records, see [`crate::checkpoint`]) interchangeable with the
//! history it replaced.
//!
//! Row replay bypasses index maintenance entirely; one
//! [`DbState::rebuild_indexes`] pass at the end re-derives every index from
//! its heap. An error in that pass — or a DDL record that fails to apply —
//! means the log is corrupt beyond a torn tail, and recovery refuses to
//! open the database rather than serve from a half-replayed state.
//!
//! [`RowId`]: crate::storage::RowId
//! [`DbState::rebuild_indexes`]: crate::state::DbState::rebuild_indexes

use crate::ast::Statement;
use crate::error::{SqlError, SqlResult};
use crate::parser::parse;
use crate::state::DbState;
use crate::wal::{decode_payload, WalOp, FRAME_LEN, MAGIC};
use std::path::Path;

/// What a scan of the log bytes found.
pub struct ScanResult {
    /// The decoded records of the valid prefix, in append order.
    pub records: Vec<Vec<WalOp>>,
    /// Length of the valid prefix (header included): the offset the file
    /// must be truncated to before appending resumes.
    pub valid_bytes: u64,
    /// Whether anything past `valid_bytes` had to be discarded.
    pub truncated: bool,
}

/// Scan raw log bytes into records, stopping at the first torn or corrupt
/// frame. Never fails: a file of garbage simply yields an empty valid
/// prefix (`valid_bytes` 0, so even the header is rewritten).
pub fn scan_log(bytes: &[u8]) -> ScanResult {
    if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC[..] {
        return ScanResult {
            records: Vec::new(),
            valid_bytes: 0,
            truncated: !bytes.is_empty(),
        };
    }
    let mut pos = MAGIC.len();
    let mut records = Vec::new();
    while pos < bytes.len() {
        let rest = &bytes[pos..];
        if rest.len() < FRAME_LEN {
            break; // torn frame header
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
        let checksum = u64::from_le_bytes(rest[4..12].try_into().expect("8 bytes"));
        if rest.len() - FRAME_LEN < len {
            break; // torn payload
        }
        let payload = &rest[FRAME_LEN..FRAME_LEN + len];
        if dbgw_cache::fnv1a_64(payload) != checksum {
            break; // corrupt (bit flip, or a reused-length torn write)
        }
        let Some(ops) = decode_payload(payload) else {
            break; // checksum collided with garbage; treat as torn
        };
        records.push(ops);
        pos += FRAME_LEN + len;
    }
    ScanResult {
        truncated: pos < bytes.len(),
        valid_bytes: pos as u64,
        records,
    }
}

/// Apply one redo op to a recovering state. Row ops against a table that
/// does not (yet/anymore) exist are skipped — on a second replay pass a
/// later `DROP TABLE` has already been applied, so these are exactly the
/// ops whose effects that drop erased.
fn replay_op(state: &mut DbState, op: &WalOp) -> SqlResult<()> {
    match op {
        WalOp::Insert { table, id, row } | WalOp::Update { table, id, row } => {
            match state.table_mut(table) {
                Ok(t) => t.heap.put_at(*id, row.clone()),
                Err(_) => return Ok(()),
            }
            state.bump_version(table);
        }
        WalOp::Delete { table, id } => {
            match state.table_mut(table) {
                Ok(t) => {
                    t.heap.delete(*id);
                }
                Err(_) => return Ok(()),
            }
            state.bump_version(table);
        }
        WalOp::Ddl { sql } => {
            let stmt = parse(sql)?;
            let already_applied = match &stmt {
                Statement::CreateTable { name, .. } => {
                    state.tables.contains_key(&name.to_ascii_lowercase())
                }
                Statement::CreateIndex { name, .. } => {
                    state.indexes.contains_key(&name.to_ascii_lowercase())
                }
                Statement::DropTable { name, .. } => {
                    !state.tables.contains_key(&name.to_ascii_lowercase())
                }
                Statement::DropIndex { name } => {
                    !state.indexes.contains_key(&name.to_ascii_lowercase())
                }
                _ => {
                    return Err(SqlError::syntax(format!(
                        "wal: non-DDL statement in a Ddl record: {sql}"
                    )))
                }
            };
            if !already_applied {
                crate::db::apply_mutation(
                    state,
                    stmt,
                    &[],
                    &mut Vec::new(),
                    &dbgw_obs::RequestCtx::unbounded(),
                )?;
            }
        }
    }
    Ok(())
}

/// Replay decoded records into a fresh [`DbState`], rebuilding indexes at
/// the end. An error means the (checksum-valid) log is semantically corrupt.
pub fn replay(records: &[Vec<WalOp>]) -> SqlResult<DbState> {
    let mut state = DbState::default();
    for record in records {
        for op in record {
            replay_op(&mut state, op)?;
        }
    }
    state.rebuild_indexes()?;
    state.rebuild_stats();
    Ok(state)
}

/// Recover the database state from the log at `path`: scan, truncate the
/// torn tail in place, replay. A missing file is an empty database.
pub fn recover(path: &Path) -> SqlResult<DbState> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(DbState::default()),
        Err(e) => return Err(SqlError::io("read write-ahead log", &e)),
    };
    let scan = scan_log(&bytes);
    if scan.truncated {
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| SqlError::io("open write-ahead log for truncation", &e))?;
        file.set_len(scan.valid_bytes)
            .map_err(|e| SqlError::io("truncate torn wal tail", &e))?;
        file.sync_data()
            .map_err(|e| SqlError::io("sync truncated wal", &e))?;
    }
    replay(&scan.records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::RowId;
    use crate::types::Value;
    use crate::wal::encode_record;

    fn log_bytes(records: &[Vec<WalOp>]) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        for r in records {
            bytes.extend_from_slice(&encode_record(r));
        }
        bytes
    }

    fn sample_records() -> Vec<Vec<WalOp>> {
        vec![
            vec![WalOp::Ddl {
                sql: "CREATE TABLE t (id INTEGER PRIMARY KEY, name VARCHAR(20))".into(),
            }],
            vec![
                WalOp::Insert {
                    table: "t".into(),
                    id: RowId(0),
                    row: vec![Value::Int(1), Value::Text("a".into())],
                },
                WalOp::Insert {
                    table: "t".into(),
                    id: RowId(1),
                    row: vec![Value::Int(2), Value::Text("b".into())],
                },
            ],
            vec![WalOp::Update {
                table: "t".into(),
                id: RowId(0),
                row: vec![Value::Int(1), Value::Text("a2".into())],
            }],
            vec![WalOp::Delete {
                table: "t".into(),
                id: RowId(1),
            }],
        ]
    }

    #[test]
    fn scan_round_trips_whole_log() {
        let records = sample_records();
        let bytes = log_bytes(&records);
        let scan = scan_log(&bytes);
        assert!(!scan.truncated);
        assert_eq!(scan.valid_bytes, bytes.len() as u64);
        assert_eq!(scan.records, records);
    }

    #[test]
    fn scan_cuts_torn_tail_at_every_length() {
        let records = sample_records();
        let bytes = log_bytes(&records);
        // Lengths of the valid prefixes after 0..=4 whole records.
        let mut boundaries = vec![MAGIC.len()];
        for r in &records {
            boundaries.push(boundaries.last().unwrap() + encode_record(r).len());
        }
        for cut in 0..bytes.len() {
            let scan = scan_log(&bytes[..cut]);
            let whole = boundaries.iter().filter(|&&b| b <= cut).count();
            if whole == 0 {
                // Not even the header survived.
                assert_eq!(scan.valid_bytes, 0, "cut={cut}");
                assert!(scan.records.is_empty());
            } else {
                assert_eq!(
                    scan.valid_bytes as usize,
                    boundaries[whole - 1],
                    "cut={cut}"
                );
                assert_eq!(scan.records.len(), whole - 1, "cut={cut}");
            }
            assert_eq!(scan.truncated, scan.valid_bytes as usize != cut);
        }
    }

    #[test]
    fn scan_stops_at_bit_flip() {
        let records = sample_records();
        let mut bytes = log_bytes(&records);
        let r0 = encode_record(&records[0]).len();
        // Flip one payload bit inside the second record.
        let target = MAGIC.len() + r0 + FRAME_LEN + 3;
        bytes[target] ^= 0x40;
        let scan = scan_log(&bytes);
        assert!(scan.truncated);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.valid_bytes as usize, MAGIC.len() + r0);
    }

    #[test]
    fn scan_rejects_bad_magic() {
        let scan = scan_log(b"NOTALOG!rest");
        assert_eq!(scan.valid_bytes, 0);
        assert!(scan.truncated);
        assert!(scan_log(b"").valid_bytes == 0 && !scan_log(b"").truncated);
    }

    #[test]
    fn replay_reconstructs_state_and_indexes() {
        let state = replay(&sample_records()).unwrap();
        let t = state.table("t").unwrap();
        assert_eq!(t.heap.len(), 1);
        assert_eq!(
            t.heap.get(RowId(0)),
            Some(&vec![Value::Int(1), Value::Text("a2".into())])
        );
        assert_eq!(t.heap.get(RowId(1)), None);
        // The PK's system unique index was rebuilt and is queryable.
        let idx = state.index_on("t", 0).expect("pk index");
        assert_eq!(idx.lookup(&Value::Int(1)), vec![RowId(0)]);
    }

    #[test]
    fn replay_twice_equals_replay_once() {
        let records = sample_records();
        let mut doubled = records.clone();
        doubled.extend(records.clone());
        let once = replay(&records).unwrap();
        let twice = replay(&doubled).unwrap();
        assert_eq!(once.table("t").unwrap().heap.len(), 1);
        assert_eq!(
            once.table("t").unwrap().heap.get(RowId(0)),
            twice.table("t").unwrap().heap.get(RowId(0))
        );
        assert_eq!(
            twice.table("t").unwrap().heap.len(),
            once.table("t").unwrap().heap.len()
        );
    }

    #[test]
    fn replay_skips_ops_for_dropped_tables() {
        let mut records = sample_records();
        records.push(vec![WalOp::Ddl {
            sql: "DROP TABLE t".into(),
        }]);
        // Second pass over the same history: the row ops now target a table
        // the (already-replayed) drop removed — they must be ignored.
        let mut doubled = records.clone();
        doubled.extend(records.clone());
        let state = replay(&doubled).unwrap();
        assert!(state.table("t").is_err());
    }

    #[test]
    fn recover_truncates_file_in_place() {
        let dir = std::env::temp_dir().join(format!("dbgw-recovery-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("truncate.log");
        let records = sample_records();
        let mut bytes = log_bytes(&records);
        let full = bytes.len();
        bytes.extend_from_slice(&[0xAB; 7]); // torn garbage tail
        std::fs::write(&path, &bytes).unwrap();
        let state = recover(&path).unwrap();
        assert_eq!(state.table("t").unwrap().heap.len(), 1);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), full as u64);
        // Recovering the now-clean file changes nothing.
        let again = recover(&path).unwrap();
        assert_eq!(again.table("t").unwrap().heap.len(), 1);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), full as u64);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn recover_missing_file_is_empty_database() {
        let state = recover(Path::new("/nonexistent/dbgw/wal.log")).unwrap();
        assert!(state.tables.is_empty());
    }
}
