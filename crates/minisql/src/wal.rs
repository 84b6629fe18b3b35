//! Append-only redo log with group commit.
//!
//! Every committed mutation serializes a **logical record** — per-table ops
//! keyed by [`RowId`], a row's insertion ordinal in its append-only heap, so
//! a RowId means the same row at replay time as it did at commit time — and
//! a statement only publishes its snapshot once that record is durable. The commit protocol in `db.rs` is therefore
//! *latch → mutate → log → fsync-ack → publish*: a crash at any instant
//! loses at most statements that were never acknowledged, never ones a
//! client saw succeed.
//!
//! # On-disk format
//!
//! ```text
//! file   := MAGIC record*
//! record := len:u32 checksum:u64 payload           (little-endian)
//! payload:= op_count:u32 op*
//! op     := 0x01 table row_id row      -- Insert (put_at semantics)
//!         | 0x02 table row_id row      -- Update (full new image)
//!         | 0x04 sql                   -- Ddl (one CREATE TABLE or
//!                                          CREATE/DROP INDEX statement)
//! ```
//!
//! Tag 3 was a Delete; rows are no longer removed, so no tag-3 op decodes.
//! A row's values carry tags 0 (NULL), 1 (integer), 2 (double) and 3
//! (text); tag 4 was a DATE, which no longer exists, so a row holding one
//! does not decode either.
//! The checksum (FNV-1a over the payload) makes torn tails detectable:
//! recovery truncates at the first record whose frame is short or whose
//! checksum mismatches, which is exactly the prefix the log had made durable.
//! A record whose checksum holds but whose payload does not decode was
//! written whole, so it is not a torn tail: recovery refuses to open the log
//! rather than cut acknowledged commits. Records are *redo-only* and
//! idempotent — Insert/Update force-set the row image at its id — so
//! replaying a log twice lands in the same state as replaying it once.
//!
//! # Group commit
//!
//! The log runs no thread of its own. A committer appends its encoded record
//! to a shared pending buffer and waits until its sequence number is
//! durable. While it waits, whenever no flush is in flight, it becomes the
//! **leader**: it takes the whole pending buffer, releases the state lock,
//! and issues one `write` + one `fdatasync` for every record in it, then
//! advances the durable horizon and wakes the others. Records that arrive
//! while a flush is in flight ride the next leader's batch, so batching
//! emerges from concurrency alone, with no linger window. `fsync: false`
//! skips the fsync (group acknowledgment then means "in the page cache").
//!
//! # Crash points
//!
//! The flush consults [`dbgw_testkit::crash`] at its would-be-fatal
//! moments (`"wal.append"`, `"wal.torn"`). A fired point flips the file
//! slot into a *crashed* state that silently drops all further writes while
//! still acknowledging them — from the outside, indistinguishable from the
//! process dying at that instant, but the test harness stays alive to
//! reopen the file and assert on what recovery finds.

use crate::error::{SqlCode, SqlError, SqlResult};
use crate::storage::{Record, RowId, RowRef};
use crate::types::ValueRef;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// First bytes of every log (and checkpoint) file.
pub const MAGIC: &[u8; 8] = b"DBGWWAL1";

/// Bytes of framing before each record's payload (`len:u32 checksum:u64`).
pub const FRAME_LEN: usize = 12;

/// Name of the log file inside a data directory.
pub const LOG_FILE: &str = "wal.log";

/// Durability settings, fixed at open time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Fsync each group before acknowledging it (default on; the gateway's
    /// `DBGW_FSYNC=0` disables — commits are then only as durable as the
    /// page cache).
    pub fsync: bool,
}

impl Default for DurabilityConfig {
    fn default() -> DurabilityConfig {
        DurabilityConfig { fsync: true }
    }
}

/// One logical redo operation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// Append `row` to `table` at `id`, the table's next id (on a second
    /// replay, force-set it there).
    Insert {
        /// Lowercased table name.
        table: String,
        /// The row's id: its insertion ordinal.
        id: RowId,
        /// Full row image.
        row: Record,
    },
    /// Replace the row at `id` with the full new image.
    Update {
        /// Lowercased table name.
        table: String,
        /// The row's id: its insertion ordinal.
        id: RowId,
        /// Full post-statement row image.
        row: Record,
    },
    /// One DDL statement, stored as its canonical SQL text (the same
    /// rendering a checkpoint writes), replayed through the ordinary DDL path.
    Ddl {
        /// `CREATE TABLE` / `CREATE [UNIQUE] INDEX` / `DROP INDEX` text
        /// without a trailing semicolon.
        sql: String,
    },
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_value(buf: &mut Vec<u8>, v: ValueRef<'_>) {
    match v {
        ValueRef::Null => buf.push(0),
        ValueRef::Int(i) => {
            buf.push(1);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        ValueRef::Double(d) => {
            buf.push(2);
            buf.extend_from_slice(&d.to_bits().to_le_bytes());
        }
        ValueRef::Text(s) => {
            buf.push(3);
            put_str(buf, s);
        }
    }
}

fn put_row(buf: &mut Vec<u8>, row: RowRef<'_>) {
    put_u32(buf, row.len() as u32);
    for v in row.iter() {
        put_value(buf, v);
    }
}

fn put_op(buf: &mut Vec<u8>, op: &WalOp) {
    match op {
        WalOp::Insert { table, id, row } => {
            buf.push(1);
            put_str(buf, table);
            put_u32(buf, id.0);
            put_row(buf, row.row());
        }
        WalOp::Update { table, id, row } => {
            buf.push(2);
            put_str(buf, table);
            put_u32(buf, id.0);
            put_row(buf, row.row());
        }
        WalOp::Ddl { sql } => {
            buf.push(4);
            put_str(buf, sql);
        }
    }
}

/// Frame one record: `len + checksum + payload`, ready to append.
pub fn encode_record(ops: &[WalOp]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(64 * ops.len());
    put_u32(&mut payload, ops.len() as u32);
    for op in ops {
        put_op(&mut payload, op);
    }
    let mut record = Vec::with_capacity(FRAME_LEN + payload.len());
    put_u32(&mut record, payload.len() as u32);
    record.extend_from_slice(&dbgw_cache::fnv1a_64(&payload).to_le_bytes());
    record.extend_from_slice(&payload);
    record
}

/// Little-endian reader over a byte slice; every getter returns `None` on
/// underrun so a truncated payload can never panic the decoder.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let slice = self.buf.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn i64(&mut self) -> Option<i64> {
        Some(self.u64()? as i64)
    }

    fn str(&mut self) -> Option<&'a str> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).ok()
    }

    fn value(&mut self) -> Option<ValueRef<'a>> {
        Some(match self.u8()? {
            0 => ValueRef::Null,
            1 => ValueRef::Int(self.i64()?),
            2 => ValueRef::Double(f64::from_bits(self.u64()?)),
            3 => ValueRef::Text(self.str()?),
            // 4 was a DATE value, which no longer exists.
            _ => return None,
        })
    }

    /// A row image, decoded straight into its record.
    fn row(&mut self) -> Option<Record> {
        let len = self.u32()? as usize;
        let mut values = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            values.push(self.value()?);
        }
        Some(Record::from_cells(values.into_iter()))
    }
}

/// Decode one record's payload (the bytes after the frame). `None` means the
/// payload is malformed, or holds an op this version does not know (such as
/// tag 3, the Delete of earlier versions).
pub fn decode_payload(payload: &[u8]) -> Option<Vec<WalOp>> {
    let mut c = Cursor {
        buf: payload,
        pos: 0,
    };
    let count = c.u32()? as usize;
    let mut ops = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        let op = match c.u8()? {
            1 => WalOp::Insert {
                table: c.str()?.to_owned(),
                id: RowId(c.u32()?),
                row: c.row()?,
            },
            2 => WalOp::Update {
                table: c.str()?.to_owned(),
                id: RowId(c.u32()?),
                row: c.row()?,
            },
            4 => WalOp::Ddl {
                sql: c.str()?.to_owned(),
            },
            _ => return None,
        };
        ops.push(op);
    }
    (c.pos == payload.len()).then_some(ops)
}

/// Shared writer state: the pending batch and the durable horizon.
struct WalState {
    /// Encoded records awaiting the next leader's flush.
    pending: Vec<u8>,
    /// Sequence number handed to the most recent appender.
    next_seq: u64,
    /// Highest sequence number known durable; appenders wait for
    /// `durable_seq >= their seq`.
    durable_seq: u64,
    /// A leader is writing a batch with this lock released.
    flushing: bool,
    /// A write or fsync failed: the log is wedged and every commit since
    /// (including waiters of the failed batch) reports SQLCODE −904.
    io_error: Option<String>,
    /// No further appends are accepted.
    shutdown: bool,
}

/// The append handle. Only a flush leader and the checkpointer (swap) ever
/// touch it, under this dedicated lock — so appenders queueing bytes into
/// [`WalState`] are never blocked behind an in-flight fsync.
struct FileSlot {
    file: File,
    /// Bytes in the file, header included.
    written: u64,
    /// A crash point fired: drop all writes, keep acknowledging (the
    /// in-process stand-in for the machine dying — see module docs).
    crashed: bool,
}

/// The write-ahead log: encoder, pending batch, and leader/follower group
/// commit.
pub struct Wal {
    path: PathBuf,
    fsync: bool,
    state: Mutex<WalState>,
    /// Wakes waiters when a flush ends (the durable horizon advanced, or
    /// the log wedged).
    flushed: Condvar,
    file: Mutex<FileSlot>,
    /// [`FileSlot::written`] as of the last flush or swap, readable without
    /// the file lock. `Relaxed` with `base`: a lock-free read only decides
    /// whether to try a checkpoint, which reads both again under the
    /// exclusive barrier — ordered after every flush and swap by the
    /// barrier itself.
    size: AtomicU64,
    /// Size of the log the last checkpoint installed; the bare header until
    /// this process checkpoints.
    base: AtomicU64,
}

/// Poison-recovering lock: a panicking writer must not wedge every other
/// writer behind a `PoisonError` (same posture as `dbgw_sync`).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn wedged(e: &str) -> SqlError {
    SqlError::new(SqlCode::RESOURCE, format!("wal: {e}"))
}

impl Wal {
    /// Open (creating if absent) the log at `path` for appending. Recovery
    /// has already scanned and truncated the file; a file shorter than the
    /// header is (re)initialized.
    pub fn open(path: &Path, config: &DurabilityConfig) -> std::io::Result<Wal> {
        let mut file = OpenOptions::new().create(true).append(true).open(path)?;
        let mut written = file.metadata()?.len();
        if written < MAGIC.len() as u64 {
            file.set_len(0)?;
            file.write_all(MAGIC)?;
            file.sync_data()?;
            written = MAGIC.len() as u64;
        }
        dbgw_obs::metrics().wal_size_bytes.set(written as i64);
        Ok(Wal {
            path: path.to_owned(),
            fsync: config.fsync,
            state: Mutex::new(WalState {
                pending: Vec::new(),
                next_seq: 0,
                durable_seq: 0,
                flushing: false,
                io_error: None,
                shutdown: false,
            }),
            flushed: Condvar::new(),
            file: Mutex::new(FileSlot {
                file,
                written,
                crashed: false,
            }),
            size: AtomicU64::new(written),
            base: AtomicU64::new(MAGIC.len() as u64),
        })
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one record and block until it is durable (written and — unless
    /// `fsync` is off — fsynced as part of some group, possibly one this
    /// call leads). Returns SQLCODE −904 if the log is wedged by an earlier
    /// I/O failure or this batch's flush fails; the caller must then *not*
    /// publish its snapshot.
    pub fn commit(&self, ops: &[WalOp]) -> SqlResult<()> {
        let record = encode_record(ops);
        let wait_start = Instant::now();
        let mut st = lock(&self.state);
        if let Some(e) = &st.io_error {
            return Err(wedged(e));
        }
        if st.shutdown {
            return Err(SqlError::new(SqlCode::RESOURCE, "wal: already shut down"));
        }
        st.next_seq += 1;
        let seq = st.next_seq;
        st.pending.extend_from_slice(&record);
        let st = self.sync_to(st, seq);
        if let Some(e) = st.io_error.as_ref().filter(|_| st.durable_seq < seq) {
            return Err(wedged(e));
        }
        drop(st);
        let m = dbgw_obs::metrics();
        m.wal_records.inc();
        m.group_commit_wait_ns
            .observe_ns(wait_start.elapsed().as_nanos() as u64);
        Ok(())
    }

    /// Wait until every record up to `seq` is durable or the log is wedged,
    /// leading a flush whenever none is in flight. On return no flush is in
    /// flight: one would hold records past the durable horizon, and none
    /// starts once the log is wedged.
    fn sync_to<'a>(
        &'a self,
        mut st: MutexGuard<'a, WalState>,
        seq: u64,
    ) -> MutexGuard<'a, WalState> {
        while st.durable_seq < seq && st.io_error.is_none() {
            st = if st.flushing {
                self.flushed.wait(st).unwrap_or_else(|e| e.into_inner())
            } else {
                self.lead_flush(st)
            };
        }
        st
    }

    /// Lead one group: take every pending record, write (and fsync) them
    /// with the state lock released — arriving writers keep queueing into
    /// the next batch meanwhile, which is where the batching comes from —
    /// then publish the outcome and wake every waiter.
    fn lead_flush<'a>(&'a self, mut st: MutexGuard<'a, WalState>) -> MutexGuard<'a, WalState> {
        let batch = std::mem::take(&mut st.pending);
        let max_seq = st.next_seq;
        st.flushing = true;
        drop(st);
        let outcome = {
            let mut slot = lock(&self.file);
            let outcome = self.write_batch(&mut slot, &batch);
            self.size.store(slot.written, Ordering::Relaxed);
            outcome
        };
        let mut st = lock(&self.state);
        st.flushing = false;
        match outcome {
            Ok(()) => {
                st.durable_seq = max_seq;
                let m = dbgw_obs::metrics();
                if self.fsync {
                    m.wal_fsyncs.inc();
                }
                m.wal_bytes.add(batch.len() as u64);
                m.wal_size_bytes.set(self.size() as i64);
            }
            Err(e) => st.io_error = Some(e.to_string()),
        }
        self.flushed.notify_all();
        st
    }

    /// Current log size in bytes, as of the last flush or checkpoint.
    pub fn size(&self) -> u64 {
        self.size.load(Ordering::Relaxed)
    }

    /// Size of the log the last checkpoint installed (the bare header
    /// before this process's first checkpoint).
    pub(crate) fn base_size(&self) -> u64 {
        self.base.load(Ordering::Relaxed)
    }

    /// Did a crash point fire on this log? (Checkpoints bail out so the
    /// on-disk state stays exactly as the simulated power cut left it.)
    pub fn crashed(&self) -> bool {
        lock(&self.file).crashed
    }

    /// Swap in a freshly written log (the checkpointer's rename just made it
    /// current). No-op after a simulated crash.
    pub(crate) fn swap_file(&self, file: File, written: u64) {
        let mut slot = lock(&self.file);
        if slot.crashed {
            return;
        }
        slot.file = file;
        slot.written = written;
        self.size.store(written, Ordering::Relaxed);
        self.base.store(written, Ordering::Relaxed);
        dbgw_obs::metrics().wal_size_bytes.set(written as i64);
    }

    /// Stop accepting commits, flush whatever is pending, and return once no
    /// flush is in flight. Commits after this fail with SQLCODE −904.
    /// Idempotent.
    pub fn shutdown(&self) {
        let mut st = lock(&self.state);
        st.shutdown = true;
        let seq = st.next_seq;
        drop(self.sync_to(st, seq));
    }

    /// Append `batch` and make it durable — unless a crash point fires, in
    /// which case the slot latches into its crashed state (see module docs).
    fn write_batch(&self, slot: &mut FileSlot, batch: &[u8]) -> std::io::Result<()> {
        if slot.crashed {
            return Ok(());
        }
        if dbgw_testkit::crash::hit("wal.append") {
            // Power cut before the write reached the disk: the whole batch
            // (and everything after it) vanishes despite the ack.
            slot.crashed = true;
            return Ok(());
        }
        if dbgw_testkit::crash::hit("wal.torn") {
            // Power cut mid-write: half the batch lands on disk. Synced so
            // the torn tail is really there when the test reopens the file.
            let half = batch.len() / 2;
            slot.file.write_all(&batch[..half])?;
            let _ = slot.file.sync_data();
            slot.written += half as u64;
            slot.crashed = true;
            return Ok(());
        }
        slot.file.write_all(batch)?;
        if self.fsync {
            slot.file.sync_data()?;
        }
        slot.written += batch.len() as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Value;

    fn sample_ops() -> Vec<WalOp> {
        vec![
            WalOp::Insert {
                table: "t".into(),
                id: RowId(3),
                row: Record::new(&[
                    Value::Null,
                    Value::Int(-7),
                    Value::Double(1.5),
                    Value::Text("quote ' and \u{1F980}".into()),
                ]),
            },
            WalOp::Update {
                table: "t".into(),
                id: RowId(0),
                row: Record::new(&[Value::Int(1)]),
            },
            WalOp::Ddl {
                sql: "CREATE TABLE t (a INTEGER)".into(),
            },
        ]
    }

    #[test]
    fn record_round_trips() {
        let ops = sample_ops();
        let record = encode_record(&ops);
        let len = u32::from_le_bytes(record[..4].try_into().unwrap()) as usize;
        assert_eq!(record.len(), FRAME_LEN + len);
        let checksum = u64::from_le_bytes(record[4..12].try_into().unwrap());
        let payload = &record[FRAME_LEN..];
        assert_eq!(checksum, dbgw_cache::fnv1a_64(payload));
        assert_eq!(decode_payload(payload).unwrap(), ops);
    }

    #[test]
    fn truncated_payload_decodes_to_none() {
        let record = encode_record(&sample_ops());
        let payload = &record[FRAME_LEN..];
        for cut in 0..payload.len() {
            assert!(
                decode_payload(&payload[..cut]).is_none(),
                "prefix of {cut} bytes decoded"
            );
        }
        // Trailing garbage is also rejected (the frame length must be exact).
        let mut padded = payload.to_vec();
        padded.push(0);
        assert!(decode_payload(&padded).is_none());
    }

    #[test]
    fn empty_record_is_valid() {
        let record = encode_record(&[]);
        assert_eq!(decode_payload(&record[FRAME_LEN..]).unwrap(), Vec::new());
    }

    #[test]
    fn config_defaults() {
        assert!(DurabilityConfig::default().fsync);
        assert_eq!(crate::checkpoint::CHECKPOINT_BYTES, 4 * 1024 * 1024);
    }

    #[test]
    fn commit_acks_only_after_durable() {
        let dir = std::env::temp_dir().join(format!("minisql-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("commit_acks.log");
        let _ = std::fs::remove_file(&path);
        let wal =
            std::sync::Arc::new(Wal::open(&path, &DurabilityConfig { fsync: false }).unwrap());
        let ops = sample_ops();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let wal = std::sync::Arc::clone(&wal);
                let ops = ops.clone();
                std::thread::spawn(move || {
                    for _ in 0..16 {
                        wal.commit(&ops).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        wal.shutdown();
        // Every acknowledged record is on disk, whole.
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[..8], MAGIC);
        let mut pos = 8usize;
        let mut records = 0;
        while pos < bytes.len() {
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            let payload = &bytes[pos + FRAME_LEN..pos + FRAME_LEN + len];
            assert_eq!(decode_payload(payload).unwrap(), ops);
            pos += FRAME_LEN + len;
            records += 1;
        }
        assert_eq!(records, 4 * 16);
        assert_eq!(wal.size(), bytes.len() as u64);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn commit_after_shutdown_fails_with_resource_code() {
        let dir = std::env::temp_dir().join(format!("minisql-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shutdown.log");
        let _ = std::fs::remove_file(&path);
        let wal = std::sync::Arc::new(Wal::open(&path, &DurabilityConfig::default()).unwrap());
        wal.shutdown();
        let err = wal.commit(&[]).unwrap_err();
        assert_eq!(err.code, SqlCode::RESOURCE);
        std::fs::remove_file(&path).unwrap();
    }
}
