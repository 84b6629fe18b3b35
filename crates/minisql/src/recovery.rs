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
//! A record whose checksum holds was written whole, so one that does not
//! decode (an op this version does not know, such as the Delete of earlier
//! versions) is no torn tail: recovery fails with SQLCODE −904 and leaves
//! the file as it found it, rather than cut that commit and every later one.
//!
//! Replay is **idempotent**: row records set images by [`RowId`]
//! (`Heap::put_at`, which appends at the next id and overwrites below it),
//! CREATE records are skipped when their object already exists, and DROP
//! INDEX when its index is already gone. Replaying a log twice therefore
//! lands in the same state as replaying it once — which is also what makes
//! a checkpoint (a rewritten log of base records, see [`crate::checkpoint`])
//! interchangeable with the history it replaced.
//!
//! Row replay bypasses index maintenance entirely; one
//! [`DbState::rebuild_indexes`] pass at the end re-derives every index from
//! its heap. An error in that pass, a DDL record that does not parse (such
//! as a `CREATE TABLE` with a DATE column, a type earlier versions had) or
//! fails to apply, or a
//! row op for a table no CREATE made or at an id past the table's next one
//! means the log is corrupt beyond a torn tail, and recovery refuses to
//! open the database rather than serve from a half-replayed state.
//!
//! [`RowId`]: crate::storage::RowId
//! [`DbState::rebuild_indexes`]: crate::state::DbState::rebuild_indexes

use crate::ast::Statement;
use crate::error::{SqlCode, SqlError, SqlResult};
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
/// frame: a file of garbage simply yields an empty valid prefix
/// (`valid_bytes` 0, so even the header is rewritten). Fails with SQLCODE
/// −904 on a whole frame — its checksum holds — whose payload does not
/// decode.
pub fn scan_log(bytes: &[u8]) -> SqlResult<ScanResult> {
    if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC[..] {
        return Ok(ScanResult {
            records: Vec::new(),
            valid_bytes: 0,
            truncated: !bytes.is_empty(),
        });
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
        let ops = decode_payload(payload).ok_or_else(|| {
            corrupt(format!(
                "wal: the whole record at byte {pos} does not decode"
            ))
        })?;
        records.push(ops);
        pos += FRAME_LEN + len;
    }
    Ok(ScanResult {
        truncated: pos < bytes.len(),
        valid_bytes: pos as u64,
        records,
    })
}

/// A log that is corrupt beyond a torn tail (SQLCODE −904).
fn corrupt(message: String) -> SqlError {
    SqlError::new(SqlCode::RESOURCE, message)
}

/// Apply one redo op to a recovering state.
fn replay_op(state: &mut DbState, op: &WalOp) -> SqlResult<()> {
    match op {
        WalOp::Insert { table, id, row } | WalOp::Update { table, id, row } => {
            let t = (state.table_mut(table)).map_err(|_| {
                corrupt(format!("wal: row op for {table}, which no record created"))
            })?;
            if !t.heap.put_at(*id, row.row()) {
                return Err(corrupt(format!(
                    "wal: row {} of {table} is past its next row {}",
                    id.0,
                    t.heap.len()
                )));
            }
            t.version += 1;
        }
        WalOp::Ddl { sql } => {
            // A DDL record this version cannot parse (a DATE column, say)
            // was written whole: the log is not one this version can open.
            let stmt = parse(sql).map_err(|e| {
                corrupt(format!(
                    "wal: DDL record {sql:?} does not parse: {}",
                    e.message
                ))
            })?;
            let already_applied = match &stmt {
                Statement::CreateTable { name, .. } => {
                    state.tables.contains_key(&name.to_ascii_lowercase())
                }
                Statement::CreateIndex { name, .. } => {
                    state.indexes.contains_key(&name.to_ascii_lowercase())
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
    let scan = scan_log(&bytes)?;
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
    use crate::storage::{Record, RowId, RowRef};
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
                    row: Record::new(&[Value::Int(1), Value::Text("a".into())]),
                },
                WalOp::Insert {
                    table: "t".into(),
                    id: RowId(1),
                    row: Record::new(&[Value::Int(2), Value::Text("b".into())]),
                },
            ],
            vec![WalOp::Update {
                table: "t".into(),
                id: RowId(0),
                row: Record::new(&[Value::Int(1), Value::Text("a2".into())]),
            }],
            vec![WalOp::Update {
                table: "t".into(),
                id: RowId(1),
                row: Record::new(&[Value::Int(2), Value::Text("b2".into())]),
            }],
        ]
    }

    #[test]
    fn scan_round_trips_whole_log() {
        let records = sample_records();
        let bytes = log_bytes(&records);
        let scan = scan_log(&bytes).unwrap();
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
            let scan = scan_log(&bytes[..cut]).unwrap();
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
        let scan = scan_log(&bytes).unwrap();
        assert!(scan.truncated);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.valid_bytes as usize, MAGIC.len() + r0);
    }

    #[test]
    fn scan_rejects_bad_magic() {
        let scan = scan_log(b"NOTALOG!rest").unwrap();
        assert_eq!(scan.valid_bytes, 0);
        assert!(scan.truncated);
        let empty = scan_log(b"").unwrap();
        assert!(empty.valid_bytes == 0 && !empty.truncated);
    }

    #[test]
    fn replay_reconstructs_state_and_indexes() {
        let state = replay(&sample_records()).unwrap();
        let t = state.table("t").unwrap();
        assert_eq!(t.heap.len(), 2);
        assert_eq!(
            t.heap.get(RowId(0)).map(RowRef::to_vec),
            Some(vec![Value::Int(1), Value::Text("a2".into())])
        );
        assert_eq!(
            t.heap.get(RowId(1)).map(RowRef::to_vec),
            Some(vec![Value::Int(2), Value::Text("b2".into())])
        );
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
        let rows = |state: &DbState| {
            let heap = &state.table("t").unwrap().heap;
            heap.iter()
                .map(|(id, row)| (id, row.to_vec()))
                .collect::<Vec<_>>()
        };
        assert_eq!(rows(&once).len(), 2);
        assert_eq!(rows(&once), rows(&twice));
    }

    #[test]
    fn replay_refuses_row_ops_no_valid_log_holds() {
        let create = sample_records().remove(0);
        let insert = |table: &str, id| WalOp::Insert {
            table: table.into(),
            id: RowId(id),
            row: Record::new(&[Value::Int(9), Value::Null]),
        };
        // A table no record created, and an id past the table's next one.
        for op in [insert("missing", 0), insert("t", 1)] {
            let err = replay(&[create.clone(), vec![op.clone()]]).unwrap_err();
            assert_eq!(err.code, SqlCode::RESOURCE, "{op:?}: {err:?}");
        }
    }

    #[test]
    fn scan_refuses_a_whole_frame_that_does_not_decode() {
        // A checksummed frame holding tag 3 — the Delete op of earlier
        // versions — after two whole records.
        let records = sample_records();
        let mut bytes = log_bytes(&records[..2]);
        let mut payload = 1u32.to_le_bytes().to_vec();
        payload.push(3);
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(b"t");
        payload.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&dbgw_cache::fnv1a_64(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&encode_record(&records[2]));
        let err = scan_log(&bytes).err().expect("an undecodable whole frame");
        assert_eq!(err.code, SqlCode::RESOURCE, "{err:?}");
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
        assert_eq!(state.table("t").unwrap().heap.len(), 2);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), full as u64);
        // Recovering the now-clean file changes nothing.
        let again = recover(&path).unwrap();
        assert_eq!(again.table("t").unwrap().heap.len(), 2);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), full as u64);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn recover_missing_file_is_empty_database() {
        let state = recover(Path::new("/nonexistent/dbgw/wal.log")).unwrap();
        assert!(state.tables.is_empty());
    }
}
