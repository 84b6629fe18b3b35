//! The database façade: connections, statement execution, transactions.
//!
//! Mirrors what the gateway needed from DB2's dynamic SQL interface:
//! PREPARE/EXECUTE of arbitrary SQL strings, result sets with named columns,
//! SQLCODEs, and two transaction modes —
//!
//! * **auto-commit** (each statement its own transaction), and
//! * **explicit** (`BEGIN` … `COMMIT`/`ROLLBACK`, nothing published before
//!   COMMIT) — the paper's "all SQL statements in a macro are executed as a
//!   single transaction (i.e., a rollback will occur if any SQL statement
//!   fails)" mode (§5).
//!
//! Every statement is *statement-atomic* in both modes: a multi-row INSERT
//! that fails on row 3 leaves no trace of rows 1–2.
//!
//! # Concurrency: snapshot reads, per-table write latches
//!
//! There is no global database lock. The current state lives in a
//! [`SnapshotCell`]; queries *pin* one immutable `Arc<DbState>` and run
//! against it lock-free for their whole lifetime — a reader can never block a
//! writer, observe a torn multi-row state, or be blocked by one.
//!
//! Writers:
//!
//! 1. acquire short **per-table exclusive latches** for the statement's write
//!    set, always in sorted name order (the catalog latch `""` sorts before
//!    every table name), so writer-writer deadlock is impossible;
//! 2. shallow-clone the published state and mutate the working copy
//!    copy-on-write (only the heap pages and index paths a write touches are
//!    copied);
//! 3. **publish** atomically: an RCU step re-reads the then-current state and
//!    patches in exactly the entries this writer changed (diffed against its
//!    base by `Arc` pointer identity), so concurrent writers on disjoint
//!    tables never overwrite each other's publications.
//!
//! A failed statement simply drops its working copy — statement atomicity
//! without touching the published state. DDL additionally holds the catalog
//! latch, serialising changes to the *set* of tables and indexes.
//!
//! An explicit transaction is the same design stretched over several
//! statements: **snapshot isolation** from BEGIN. BEGIN pins the published
//! state as the transaction's private copy; each statement applies to a
//! shallow clone of that copy and replaces it only on success, takes no
//! latch, and is visible to no other connection. Reads inside the
//! transaction see the private copy (and bypass the result cache). COMMIT
//! latches the union of the statements' write sets in one sorted
//! acquisition, then checks **first-committer-wins per table**: every table,
//! index and version entry the transaction changed must still be the BEGIN
//! snapshot's entry in the published state. If a concurrent commit got there
//! first, nothing is published, the transaction ends, and COMMIT reports
//! SQLCODE −911 (DB2's "unit of work has been rolled back"). Otherwise the
//! copy is published once, by the same diff-patch as above. ROLLBACK — and
//! dropping a connection with a transaction open — just drops the copy.
//! An auto-commit statement is the one-statement case: it latches before it
//! pins, so its check cannot fail.
//!
//! # Durability
//!
//! [`Database::new`] is purely in-memory, as before. [`Database::open`]
//! adds a durable write path: the write sequence becomes *latch → mutate →
//! log → fsync-ack → publish*. After a statement's working copy is built
//! (step 2 above), its effects are serialized as logical redo records and
//! appended to the write-ahead log ([`crate::wal`]); only once they are
//! durable — flushed by whichever committer leads that group — does the
//! writer publish. A statement whose log append fails reports SQLCODE −904 and
//! publishes nothing — readers can never observe state that would not
//! survive a crash. A transaction's statements buffer their redo records and
//! COMMIT logs the buffer as one checksummed record, so recovery replays all
//! of a transaction or none of it; ROLLBACK logs nothing.
//! Recovery ([`crate::recovery`]) and checkpoints ([`crate::checkpoint`]),
//! run by the commit that makes one due, complete the lifecycle. A durable
//! database starts no thread: every durability step runs on a committing
//! (or closing) thread.

use crate::ast::{Expr, Statement};
use crate::cache::{self, CachedSelect, DbCacheStats, DbCaches};
use crate::error::{SqlCode, SqlError, SqlResult};
use crate::eval::{eval, Bindings, NoAggregates};
use crate::exec::{run_select, ResultSet};
use crate::index::Index;
use crate::parser::{parse, parse_script};
use crate::schema::TableSchema;
use crate::state::{DbState, TableData};
use crate::storage::{Heap, Record, RowId, RowRef};
use crate::sync::{LatchSet, LatchTable, SnapshotCell, CATALOG_LATCH};
use crate::types::Value;
use crate::wal::{DurabilityConfig, Wal, WalOp};
use dbgw_cache::CacheConfig;
use dbgw_obs::RequestCtx;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Outcome of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecResult {
    /// A SELECT produced a result set (shared with the result cache).
    Rows(Arc<ResultSet>),
    /// DML touched this many rows.
    Count(usize),
    /// DDL succeeded.
    Ddl,
    /// BEGIN/COMMIT/ROLLBACK processed.
    TxnControl,
}

impl ExecResult {
    /// The SQLCODE this outcome reports to `%SQL_MESSAGE` handlers: `+100`
    /// for empty results / zero-row DML, `0` otherwise.
    pub fn sqlcode(&self) -> SqlCode {
        match self {
            ExecResult::Rows(r) if r.is_empty() => SqlCode::NO_DATA,
            ExecResult::Count(0) => SqlCode::NO_DATA,
            _ => SqlCode::SUCCESS,
        }
    }

    /// The result set, if this was a query.
    pub fn rows(&self) -> Option<&ResultSet> {
        match self {
            ExecResult::Rows(r) => Some(r),
            _ => None,
        }
    }
}

/// One entry of a statement's change list: the row or catalog object it
/// touched, by name. [`redo_ops`] pairs each entry with its final image from
/// the statement's working copy to build the WAL record.
#[derive(Debug)]
pub(crate) enum Change {
    Insert { table: String, id: RowId },
    Update { table: String, id: RowId },
    CreateTable { name: String },
    CreateIndex { name: String, table: String },
    DropIndex { name: String },
}

/// An open explicit transaction: a private copy of the database that its
/// statements mutate and COMMIT publishes once.
struct Txn {
    /// The published state pinned at BEGIN — the base COMMIT's conflict
    /// check and publication diff against.
    begin: Arc<DbState>,
    /// The private state: `begin` plus every successful statement so far.
    work: Arc<DbState>,
    /// The latch names of every successful mutation, acquired together at
    /// COMMIT.
    latches: Vec<String>,
    /// The redo ops of every successful mutation, logged as one record at
    /// COMMIT (empty for in-memory databases).
    redo: Vec<WalOp>,
}

/// Durable-write machinery shared by every connection of one database:
/// the write-ahead log and the checkpoint barrier. Absent (`None` in
/// [`DbCore`]) for purely in-memory databases, whose write path skips
/// straight from mutation to publication.
pub(crate) struct Persistence {
    /// The append-only redo log.
    pub(crate) wal: Wal,
    /// Checkpoint barrier. Writers hold the **read** side across
    /// append → fsync-ack → publish; the checkpointer takes the **write**
    /// side, so the snapshot it pins is exactly the replay of the log it
    /// rewrites — no statement can be durable-but-unpublished (or the
    /// reverse) while the log is being swapped.
    pub(crate) barrier: crate::sync::RwLock<()>,
    /// The data directory (`wal.log` and the checkpoint's `wal.tmp` live
    /// here).
    pub(crate) dir: PathBuf,
}

/// The shared engine core: the published snapshot plus the write latches.
pub(crate) struct DbCore {
    /// The current committed state. Readers pin it; writers replace it.
    pub(crate) published: SnapshotCell<DbState>,
    /// Per-table exclusive write latches (plus the catalog latch).
    pub(crate) latches: LatchTable,
    /// The durable write path, when this database was [`Database::open`]ed
    /// from a data directory.
    pub(crate) persist: Option<Persistence>,
}

impl Drop for DbCore {
    fn drop(&mut self) {
        if let Some(p) = &self.persist {
            p.wal.shutdown();
        }
    }
}

impl DbCore {
    fn new() -> DbCore {
        DbCore {
            published: SnapshotCell::new(DbState::default()),
            latches: LatchTable::new(),
            persist: None,
        }
    }

    /// Commit a writer's working copy: check, log, publish.
    ///
    /// `work` was built from `begin`, and the caller holds the latch of every
    /// entry it changed. First-committer-wins: if a concurrent commit has
    /// replaced any of those entries since `begin` was pinned, nothing is
    /// logged or published and the commit fails with SQLCODE −911. An
    /// auto-commit statement latches before it pins, so for it the check
    /// cannot fail; an explicit transaction latches only here.
    fn commit(&self, begin: &Arc<DbState>, work: DbState, redo: &[WalOp]) -> SqlResult<()> {
        #[cfg(test)]
        tests::PANIC_BEFORE_PUBLISH.with(|f| {
            if f.replace(false) {
                panic!("injected: writer dies before publishing");
            }
        });
        if overtaken(begin, &work, &self.published.load()) {
            return Err(SqlError::new(
                SqlCode::ROLLED_BACK,
                "transaction rolled back: a concurrent commit changed a table it wrote",
            ));
        }
        match &self.persist {
            Some(p) => {
                // Durable path: log → fsync-ack → publish, all under the
                // checkpoint barrier's read side so a checkpoint can never
                // run between the append and the publish. A failed append
                // publishes nothing — the commit reports −904 and `work` is
                // dropped.
                {
                    let _durable = p.barrier.read();
                    p.wal.commit(redo)?;
                    self.publish(begin, work);
                }
                // The commit that makes a checkpoint due runs it, with the
                // barrier's read side released. Holding table latches while
                // waiting for the write side is safe: no thread holding the
                // read side ever waits on a latch. A failed checkpoint wedges
                // nothing — the log keeps growing and the next commit retries.
                if crate::checkpoint::due(&p.wal) {
                    let _ = crate::checkpoint::checkpoint_now(self, false);
                }
            }
            None => self.publish(begin, work),
        }
        Ok(())
    }

    /// A statement's redo ops, or none when there is no log to write them to.
    fn redo(&self, work: &DbState, changes: &[Change]) -> Vec<WalOp> {
        match self.persist {
            Some(_) => redo_ops(work, changes),
            None => Vec::new(),
        }
    }

    /// Atomically publish a writer's working copy.
    ///
    /// `work` was cloned from `base` and mutated under this writer's latches.
    /// The RCU step re-reads the *current* state (which may have advanced —
    /// concurrent writers on other tables publish freely) and patches in only
    /// the entries this writer changed, found by diffing `work` against
    /// `base` with `Arc` pointer identity. Safety invariant: every differing
    /// entry belongs to a table whose latch this writer holds, and
    /// [`DbCore::commit`] checked that no other writer touched it since
    /// `base` was loaded.
    fn publish(&self, base: &Arc<DbState>, work: DbState) {
        #[cfg(test)]
        tests::PANIC_IN_PUBLISH.with(|f| {
            if f.replace(false) {
                panic!("injected: writer dies inside publication");
            }
        });
        let epoch = self.published.rcu(move |current| {
            let mut next = (**current).clone();
            patch(&mut next.tables, &base.tables, &work.tables);
            patch(&mut next.indexes, &base.indexes, &work.indexes);
            next.epoch = current.epoch + 1;
            let epoch = next.epoch;
            (Arc::new(next), epoch)
        });
        let m = dbgw_obs::metrics();
        m.snapshots_published.inc();
        m.snapshot_epoch.set(epoch as i64);
        m.snapshot_publish_ms
            .set(dbgw_obs::process_mono_ms() as i64);
    }
}

type Entries<T> = std::collections::HashMap<String, Arc<T>>;

/// Whether two optional entries are the same object (or both absent).
fn same<T>(a: Option<&Arc<T>>, b: Option<&Arc<T>>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => Arc::ptr_eq(a, b),
        (None, None) => true,
        _ => false,
    }
}

/// The names whose entry differs between `base` and `work` by `Arc`
/// identity, including entries present in only one of them.
fn changed<'a, T>(base: &'a Entries<T>, work: &'a Entries<T>) -> impl Iterator<Item = &'a String> {
    let dropped = base.keys().filter(|name| !work.contains_key(*name));
    (work.keys().chain(dropped)).filter(|name| !same(base.get(*name), work.get(*name)))
}

/// Patch into `next` exactly the entries `work` changed relative to `base`.
fn patch<T>(next: &mut Entries<T>, base: &Entries<T>, work: &Entries<T>) {
    for name in changed(base, work) {
        match work.get(name) {
            Some(arc) => next.insert(name.clone(), Arc::clone(arc)),
            None => next.remove(name),
        };
    }
}

/// Whether `current` no longer holds `begin`'s version of some table or
/// index that `work` changed — a concurrent commit overtook it.
fn overtaken(begin: &DbState, work: &DbState, current: &DbState) -> bool {
    fn stale<T>(begin: &Entries<T>, work: &Entries<T>, current: &Entries<T>) -> bool {
        changed(begin, work).any(|name| !same(begin.get(name), current.get(name)))
    }
    stale(&begin.tables, &work.tables, &current.tables)
        || stale(&begin.indexes, &work.indexes, &current.indexes)
}

/// A shared in-memory database.
#[derive(Clone)]
pub struct Database {
    core: Arc<DbCore>,
    /// The result cache shared by every connection; `None` only for
    /// [`Database::without_cache`].
    caches: Option<Arc<DbCaches>>,
}

impl Default for Database {
    fn default() -> Database {
        Database::new()
    }
}

impl Database {
    /// Create an empty database with the default cache configuration.
    pub fn new() -> Database {
        Database::with_cache_config(&CacheConfig::default())
    }

    /// Create an empty database with an explicit result-cache budget.
    pub fn with_cache_config(config: &CacheConfig) -> Database {
        Database {
            core: Arc::new(DbCore::new()),
            caches: Some(Arc::new(DbCaches::new(config))),
        }
    }

    /// Create an empty database with no result cache: every statement is
    /// parsed and executed. The reference the cached path is tested against.
    pub fn without_cache() -> Database {
        Database {
            core: Arc::new(DbCore::new()),
            caches: None,
        }
    }

    /// Open a **durable** database rooted at `dir` (created if absent):
    /// recover the state from `dir/wal.log` (truncating any torn tail),
    /// then arrange for every subsequent committed statement to be logged
    /// and fsynced before it is published, under the default durability
    /// and cache configuration.
    pub fn open(dir: impl AsRef<Path>) -> SqlResult<Database> {
        Database::open_with_config(dir, &DurabilityConfig::default(), &CacheConfig::default())
    }

    /// [`Database::open`] with explicit durability/cache configuration.
    pub fn open_with_config(
        dir: impl AsRef<Path>,
        durability: &DurabilityConfig,
        cache: &CacheConfig,
    ) -> SqlResult<Database> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| SqlError::io("create data directory", &e))?;
        let log_path = dir.join(crate::wal::LOG_FILE);
        let state = crate::recovery::recover(&log_path)?;
        let wal = Wal::open(&log_path, durability)
            .map_err(|e| SqlError::io("open write-ahead log", &e))?;
        let core = DbCore {
            published: SnapshotCell::new(state),
            latches: LatchTable::new(),
            persist: Some(Persistence {
                wal,
                barrier: crate::sync::RwLock::new(()),
                dir,
            }),
        };
        Ok(Database {
            core: Arc::new(core),
            caches: Some(Arc::new(DbCaches::new(cache))),
        })
    }

    /// Rewrite the log as a base snapshot right now (a commit does this
    /// automatically once the log has grown
    /// [`CHECKPOINT_BYTES`](crate::checkpoint::CHECKPOINT_BYTES) past the
    /// last one). No-op for in-memory databases.
    pub fn checkpoint_now(&self) -> SqlResult<()> {
        crate::checkpoint::checkpoint_now(&self.core, true)
    }

    /// Current write-ahead log size in bytes; 0 for in-memory databases.
    pub fn wal_size(&self) -> u64 {
        self.core.persist.as_ref().map_or(0, |p| p.wal.size())
    }

    /// The data directory this database persists to, if any.
    pub fn data_dir(&self) -> Option<&Path> {
        self.core.persist.as_ref().map(|p| p.dir.as_path())
    }

    /// Flush the log and stop accepting writes. Idempotent; writes after
    /// this fail with SQLCODE −904 (reads keep working). Dropping the last
    /// handle to a database does the same implicitly.
    pub fn close(&self) {
        if let Some(p) = &self.core.persist {
            p.wal.shutdown();
        }
    }

    /// Per-instance cache counters, or `None` for
    /// [`Database::without_cache`].
    pub fn cache_stats(&self) -> Option<DbCacheStats> {
        self.caches.as_ref().map(|c| c.stats())
    }

    /// Open a connection with no request context (unbounded execution).
    pub fn connect(&self) -> Connection {
        self.connect_with_ctx(RequestCtx::unbounded())
    }

    /// Open a connection bound to a request context: every statement executed
    /// on it polls `ctx` cooperatively and fails with SQLCODE −952 once the
    /// request's deadline passes or it is cancelled.
    pub fn connect_with_ctx(&self, ctx: Arc<RequestCtx>) -> Connection {
        Connection {
            core: Arc::clone(&self.core),
            caches: self.caches.clone(),
            txn: None,
            ctx,
        }
    }

    /// Convenience: run a `;`-separated setup script on a fresh connection,
    /// auto-commit, failing on the first error.
    pub fn run_script(&self, sql: &str) -> SqlResult<Vec<ExecResult>> {
        let mut conn = self.connect();
        let stmts = parse_script(sql)?;
        let mut out = Vec::with_capacity(stmts.len());
        for stmt in stmts {
            out.push(conn.execute_statement(stmt, &[])?);
        }
        Ok(out)
    }

    /// Pin the current committed snapshot. The returned state is immutable
    /// and internally consistent forever; concurrent writers publish new
    /// snapshots without disturbing it. This is the read path's only
    /// synchronisation point (one brief read-lock of the snapshot cell).
    pub fn pin(&self) -> Arc<DbState> {
        self.core.published.load()
    }

    /// The modification counter of `name` in the current snapshot.
    pub fn table_version(&self, name: &str) -> u64 {
        self.pin().version(name)
    }

    /// The publication epoch of the current snapshot: incremented once per
    /// committed write, strictly monotonic over the database's lifetime.
    pub fn snapshot_epoch(&self) -> u64 {
        self.pin().epoch
    }

    /// Row count of a table (testing/benchmark helper).
    pub fn table_len(&self, name: &str) -> SqlResult<usize> {
        Ok(self.pin().table(name)?.heap.len())
    }

    /// An owned copy of the current snapshot (dump/inspection). Cheap: the
    /// clone is shallow, sharing table storage with the published state.
    pub fn snapshot(&self) -> crate::state::DbState {
        (*self.pin()).clone()
    }
}

/// A session against a [`Database`].
pub struct Connection {
    core: Arc<DbCore>,
    /// The owning database's result cache (`None` without one).
    caches: Option<Arc<DbCaches>>,
    /// The open explicit transaction, if any. Dropping it — at ROLLBACK, or
    /// with the connection — rolls it back.
    txn: Option<Txn>,
    /// The owning request's context (the unbounded context for plain
    /// [`Database::connect`] sessions).
    ctx: Arc<RequestCtx>,
}

impl Connection {
    /// Is an explicit transaction open?
    pub fn in_transaction(&self) -> bool {
        self.txn.is_some()
    }

    /// Pin the current committed snapshot (see [`Database::pin`]).
    pub fn pin(&self) -> Arc<DbState> {
        self.core.published.load()
    }

    /// The state this connection's statements read: the open transaction's
    /// private copy, or else the current committed snapshot.
    fn read_state(&self) -> Arc<DbState> {
        match &self.txn {
            Some(txn) => Arc::clone(&txn.work),
            None => self.pin(),
        }
    }

    /// Parse and execute one SQL statement.
    pub fn execute(&mut self, sql: &str) -> SqlResult<ExecResult> {
        self.execute_with_params(sql, &[])
    }

    /// Parse and execute with positional `?` parameters.
    ///
    /// When the owning database has a result cache and no transaction is
    /// open, the statement text as given and its binds are looked up there
    /// first: a hit whose table versions still hold is returned without
    /// parsing. On a miss the statement is parsed once; a SELECT runs and its
    /// rows are stored. Inside a transaction a SELECT reads the private state
    /// and neither looks up nor stores.
    ///
    /// Every statement is also folded into the process-wide query digest
    /// table (unless recording is switched off): latency on this connection's request
    /// clock, rows returned and scanned, errors, result-cache outcome, and
    /// latch wait, keyed by the statement's literal-masked shape
    /// ([`digest_sql`](crate::token::digest_sql)).
    pub fn execute_with_params(&mut self, sql: &str, params: &[Value]) -> SqlResult<ExecResult> {
        let store = dbgw_obs::digests();
        if !store.enabled() {
            return self.execute_undigested(sql, params);
        }
        // Clear notes a digest-disabled window may have left behind, so this
        // statement only folds in its own attribution.
        let _ = dbgw_obs::digest::take_notes();
        let text = crate::token::digest_sql(sql);
        let key = dbgw_cache::fnv1a_64(text.as_bytes());
        let clock = Arc::clone(self.ctx.clock());
        let start_ns = clock.now_ns();
        let scanned_before = crate::plan::thread_stats().rows_scanned;
        let result = self.execute_undigested(sql, params);
        let dur_ns = clock.now_ns().saturating_sub(start_ns);
        let rows_scanned = crate::plan::thread_stats()
            .rows_scanned
            .saturating_sub(scanned_before);
        let (cache_hit, latch_wait_ns) = dbgw_obs::digest::take_notes();
        let rows_returned = match &result {
            Ok(ExecResult::Rows(rs)) => rs.len() as u64,
            Ok(ExecResult::Count(n)) => *n as u64,
            Ok(_) | Err(_) => 0,
        };
        store.record(
            key,
            &text,
            &dbgw_obs::DigestObservation {
                dur_ns,
                error: result.is_err(),
                rows_returned,
                rows_scanned,
                cache_hit,
                latch_wait_ns,
            },
        );
        result
    }

    /// [`execute_with_params`](Self::execute_with_params) without the digest
    /// accounting wrapper.
    fn execute_undigested(&mut self, sql: &str, params: &[Value]) -> SqlResult<ExecResult> {
        let cached = match self.caches.clone().filter(|_| self.txn.is_none()) {
            Some(caches) => {
                let key = cache::result_key(sql, params);
                if let Some(rows) = self.cache_hit(&caches, &key)? {
                    return Ok(ExecResult::Rows(rows));
                }
                Some((caches, key))
            }
            None => None,
        };
        let stmt = {
            let _span = dbgw_obs::trace::span("sql_parse");
            parse(sql)?
        };
        let _span = dbgw_obs::trace::span("sql_execute");
        let (Statement::Select(sel), Some((caches, key))) = (&stmt, cached) else {
            return self.execute_statement(stmt, params);
        };
        let metrics = dbgw_obs::metrics();
        metrics.cache_misses.inc();
        dbgw_obs::digest::note_cache_hit(false);
        // Run the query and capture the referenced tables' versions from the
        // SAME pinned snapshot, so the dependency set can never race a
        // concurrent writer.
        let state = self.pin();
        let rows = Arc::new(self.run_select_observed(&state, sel, params)?);
        let deps = cache::capture_deps(&state, sel);
        let _span = dbgw_obs::trace::span("cache_store");
        let cost = cache::result_cost(&rows);
        let entry = CachedSelect {
            rows: Arc::clone(&rows),
            deps,
        };
        metrics
            .cache_evictions
            .add(caches.results.put(key, entry, cost).evicted);
        metrics.cache_bytes.set(caches.results.bytes() as i64);
        Ok(ExecResult::Rows(rows))
    }

    /// The rows stored under `key`, if any and every table they were read
    /// from is still at the version it had then. Only SELECTs are ever
    /// stored, so a hit needs no parse and shares the stored rows. A stale
    /// entry is dropped — unless another connection has replaced it since.
    fn cache_hit(&self, caches: &DbCaches, key: &str) -> SqlResult<Option<Arc<ResultSet>>> {
        let found = {
            let _span = dbgw_obs::trace::span("cache_lookup");
            caches.results.get(key)
        };
        let Some(cached) = found else {
            return Ok(None);
        };
        let metrics = dbgw_obs::metrics();
        if !cache::deps_valid(&self.pin(), &cached.deps) {
            // A referenced table changed since the entry was stored.
            caches
                .results
                .remove_if(key, |e| Arc::ptr_eq(&e.rows, &cached.rows));
            caches.invalidations.fetch_add(1, Ordering::Relaxed);
            metrics.cache_invalidations.inc();
            return Ok(None);
        }
        // The hit path still honours the request's deadline and
        // cancellation, like any statement would.
        self.ctx.check().map_err(SqlError::cancelled)?;
        metrics.cache_hits.inc();
        dbgw_obs::digest::note_cache_hit(true);
        Ok(Some(cached.rows))
    }

    /// Run a SELECT, collecting per-operator actuals when request tracing or
    /// passive ANALYZE capture is on. The compact summary is attached to the
    /// trace as a `plan_actuals` note and stashed in a thread-local slot for
    /// the gateway's slow-query log to pick up after the statement returns.
    fn run_select_observed(
        &self,
        state: &DbState,
        sel: &crate::ast::Select,
        params: &[Value],
    ) -> SqlResult<ResultSet> {
        if !crate::analyze::capture_wanted() {
            return run_select(state, sel, params, &self.ctx);
        }
        let clock = Arc::clone(self.ctx.clock());
        let start_ns = clock.now_ns();
        let (result, ops) = crate::analyze::collect(Arc::clone(&clock), || {
            run_select(state, sel, params, &self.ctx)
        });
        let total_ns = clock.now_ns().saturating_sub(start_ns);
        let summary = crate::analyze::summarize(&ops, total_ns);
        if dbgw_obs::trace::trace_active() {
            dbgw_obs::trace::note("plan_actuals", summary.clone());
        }
        crate::analyze::set_last_summary(summary);
        result
    }

    /// Execute a pre-parsed statement.
    pub fn execute_statement(
        &mut self,
        stmt: Statement,
        params: &[Value],
    ) -> SqlResult<ExecResult> {
        match stmt {
            Statement::Select(sel) => {
                let state = self.read_state();
                Ok(ExecResult::Rows(Arc::new(
                    self.run_select_observed(&state, &sel, params)?,
                )))
            }
            Statement::Explain { analyze, inner } => {
                let state = self.read_state();
                let lines = match &*inner {
                    // ANALYZE executes the query under the operator collector
                    // (on this connection's request clock) and annotates the
                    // plan with the observed actuals.
                    Statement::Select(sel) if analyze => {
                        crate::exec::explain_analyze_select(&state, sel, params, &self.ctx)?
                    }
                    Statement::Select(sel) => crate::exec::explain_select(&state, sel, params)?,
                    // Any other statement is named, not run.
                    other => vec![other.to_string()],
                };
                Ok(ExecResult::Rows(Arc::new(ResultSet {
                    columns: vec!["plan".to_owned()],
                    rows: lines.into_iter().map(|l| vec![Value::Text(l)]).collect(),
                })))
            }
            Statement::Begin => {
                if self.txn.is_some() {
                    return Err(SqlError::new(
                        SqlCode::TXN_STATE,
                        "a transaction is already open",
                    ));
                }
                let begin = self.pin();
                self.txn = Some(Txn {
                    work: Arc::clone(&begin),
                    begin,
                    latches: Vec::new(),
                    redo: Vec::new(),
                });
                Ok(ExecResult::TxnControl)
            }
            Statement::Commit => {
                self.commit()?;
                Ok(ExecResult::TxnControl)
            }
            Statement::Rollback => {
                self.rollback()?;
                Ok(ExecResult::TxnControl)
            }
            other => self.execute_mutation(other, params),
        }
    }

    /// The write path. A statement mutates a clone of the state it reads and
    /// a failed statement's clone is simply dropped, so no state ever sees
    /// partial effects. Auto-commit: latch the write set, pin, apply, then
    /// commit. Inside a transaction: apply to a clone of the private state
    /// and keep it on success, deferring latches and the log to COMMIT.
    fn execute_mutation(&mut self, stmt: Statement, params: &[Value]) -> SqlResult<ExecResult> {
        if let Some(txn) = &mut self.txn {
            let names = write_set(&stmt).unwrap_or_else(|| {
                let table = dropped_index_table(&txn.work, &stmt);
                std::iter::once(CATALOG_LATCH.to_owned())
                    .chain(table)
                    .collect()
            });
            let mut work = (*txn.work).clone();
            let mut changes = Vec::new();
            let res = apply_mutation(&mut work, stmt, params, &mut changes, &self.ctx)?;
            txn.redo.extend(self.core.redo(&work, &changes));
            txn.latches.extend(names);
            txn.work = Arc::new(work);
            return Ok(res);
        }
        let mut held: Vec<LatchSet> = Vec::new();
        match write_set(&stmt) {
            Some(names) => held.push(self.core.latches.acquire(&names)),
            None => {
                // DROP INDEX names an index, not a table: take the catalog
                // latch first (freezing the set of indexes — every change to
                // it holds this latch), resolve the owning table, then latch
                // the table. Incremental acquisition is order-safe because
                // the catalog latch sorts before every table name and is
                // never requested while a table latch is held.
                held.push(self.core.latches.acquire(&[CATALOG_LATCH]));
                if let Some(table) = dropped_index_table(&self.pin(), &stmt) {
                    held.push(self.core.latches.acquire(&[table]));
                }
            }
        }
        record_latch_metrics(&held);
        let base = self.pin();
        let mut work = (*base).clone();
        let mut changes = Vec::new();
        let res = apply_mutation(&mut work, stmt, params, &mut changes, &self.ctx)?;
        let redo = self.core.redo(&work, &changes);
        self.core.commit(&base, work, &redo)?;
        Ok(res)
    }

    /// Commit the open transaction: latch everything it wrote, fail with
    /// SQLCODE −911 if a concurrent commit overtook it, else log and publish
    /// its private state once. The transaction ends either way; a read-only
    /// one takes no latch, logs nothing and publishes nothing.
    pub fn commit(&mut self) -> SqlResult<()> {
        let txn = self.txn.take().ok_or_else(no_transaction)?;
        if txn.latches.is_empty() {
            return Ok(());
        }
        let held = [self.core.latches.acquire(&txn.latches)];
        record_latch_metrics(&held);
        let work = Arc::unwrap_or_clone(txn.work);
        self.core.commit(&txn.begin, work, &txn.redo)
    }

    /// Roll back the open transaction by dropping its private state: no
    /// latch, no log record, no publication.
    pub fn rollback(&mut self) -> SqlResult<()> {
        self.txn.take().map(drop).ok_or_else(no_transaction)
    }
}

fn no_transaction() -> SqlError {
    SqlError::new(SqlCode::TXN_STATE, "no transaction is open")
}

/// The latch names a statement's mutations are confined to, lowercased,
/// including the catalog latch for DDL. `None` for DROP INDEX, whose owning
/// table must be resolved first (see [`dropped_index_table`]).
fn write_set(stmt: &Statement) -> Option<Vec<String>> {
    match stmt {
        Statement::Insert { table, .. } | Statement::Update { table, .. } => {
            Some(vec![table.to_ascii_lowercase()])
        }
        Statement::CreateTable { name, .. } => {
            Some(vec![CATALOG_LATCH.to_owned(), name.to_ascii_lowercase()])
        }
        Statement::CreateIndex { table, .. } => {
            Some(vec![CATALOG_LATCH.to_owned(), table.to_ascii_lowercase()])
        }
        Statement::DropIndex { .. } => None,
        Statement::Select(_)
        | Statement::Explain { .. }
        | Statement::Begin
        | Statement::Commit
        | Statement::Rollback => {
            unreachable!("not a mutation")
        }
    }
}

/// The table owning the index a DROP INDEX names, if `state` has it.
fn dropped_index_table(state: &DbState, stmt: &Statement) -> Option<String> {
    let Statement::DropIndex { name } = stmt else {
        unreachable!("write_set covers every other mutation");
    };
    let index = state.indexes.get(&name.to_ascii_lowercase())?;
    Some(index.table.clone())
}

/// Record one write path's latch acquisition in the global metrics: one
/// histogram observation per latch set acquired, plus the thread-local note
/// the digest table folds into the running statement's row.
fn record_latch_metrics(held: &[LatchSet]) {
    let m = dbgw_obs::metrics();
    m.latch_waits.add(held.iter().map(|l| l.len() as u64).sum());
    let mut total_ns = 0u64;
    for set in held {
        let waited = set.waited().as_nanos() as u64;
        m.latch_wait_ns.observe_ns(waited);
        total_ns += waited;
    }
    dbgw_obs::digest::note_latch_wait_ns(total_ns);
}

/// Derive the WAL ops of one successful statement: pair each change with
/// the **final** image from the statement's working copy. Sound because a
/// single statement touches each `(table, id)` with at most one kind of
/// operation, and the latches of every table a commit wrote are held from
/// its conflict check through log append to publication — so per table,
/// log order equals publication order. A transaction's record is its
/// statements' ops in statement order.
fn redo_ops(work: &DbState, changes: &[Change]) -> Vec<WalOp> {
    let mut ops = Vec::with_capacity(changes.len());
    // Tables and rows are never removed, so every one a change names is
    // still in `work`.
    let image = |table: &str, id: RowId| {
        let t = &work.tables[&table.to_ascii_lowercase()];
        Record::from(t.heap.get(id).expect("rows are never removed"))
    };
    for change in changes {
        match change {
            Change::Insert { table, id } => ops.push(WalOp::Insert {
                table: table.to_ascii_lowercase(),
                id: *id,
                row: image(table, *id),
            }),
            Change::Update { table, id } => ops.push(WalOp::Update {
                table: table.to_ascii_lowercase(),
                id: *id,
                row: image(table, *id),
            }),
            // DDL goes to the log as canonical SQL, replayed through the
            // ordinary DDL path at recovery (`name` keys are lowercased
            // when the change is recorded).
            Change::CreateTable { name } => ops.push(WalOp::Ddl {
                sql: crate::checkpoint::create_table_sql(name, &work.tables[name].schema),
            }),
            Change::CreateIndex { name, table } => {
                if let (Some(idx), Some(t)) = (work.indexes.get(name), work.tables.get(table)) {
                    let column = &t.schema.columns[idx.column].name;
                    ops.push(WalOp::Ddl {
                        sql: crate::checkpoint::create_index_sql(idx, column),
                    });
                }
            }
            Change::DropIndex { name } => ops.push(WalOp::Ddl {
                sql: format!("DROP INDEX {name}"),
            }),
        }
    }
    ops
}

/// UPDATE's new image of `old`: each `exprs[i]`, evaluated over `old`,
/// coerced and checked into column `ordinals[i]` (a later assignment to the
/// same column wins), and every other column as `old` holds it.
fn new_image(
    schema: &TableSchema,
    exprs: &[Expr],
    ordinals: &[usize],
    old: RowRef<'_>,
    params: &[Value],
) -> SqlResult<Record> {
    let mut assigned: Vec<Option<Value>> = vec![None; schema.width()];
    for (expr, &ordinal) in exprs.iter().zip(ordinals) {
        assigned[ordinal] = Some(eval(expr, old, params, &NoAggregates)?);
    }
    for (ordinal, value) in assigned.iter_mut().enumerate() {
        if let Some(v) = value.take() {
            *value = Some(schema.check_value(ordinal, v)?);
        }
    }
    let cells = (assigned.iter().enumerate())
        .map(|(ordinal, value)| value.as_ref().map_or(old.get(ordinal), Value::view));
    Ok(Record::from_cells(cells))
}

/// Apply one mutation statement to a working state, appending what it
/// touched to `changes`. `pub(crate)` so WAL recovery can replay logged DDL
/// through the same path.
pub(crate) fn apply_mutation(
    state: &mut DbState,
    stmt: Statement,
    params: &[Value],
    changes: &mut Vec<Change>,
    ctx: &RequestCtx,
) -> SqlResult<ExecResult> {
    match stmt {
        Statement::Insert {
            table,
            columns,
            values,
        } => {
            let (schema, width) = {
                let t = state.table(&table)?;
                (t.schema.clone(), t.schema.width())
            };
            // Map the written column list to ordinals.
            let ordinals: Vec<usize> = if columns.is_empty() {
                (0..width).collect()
            } else {
                columns
                    .iter()
                    .map(|c| schema.require_column(c))
                    .collect::<SqlResult<_>>()?
            };
            let mut inserted = 0usize;
            for tuple in values {
                if tuple.len() != ordinals.len() {
                    return Err(SqlError::syntax(format!(
                        "INSERT supplies {} values for {} columns",
                        tuple.len(),
                        ordinals.len()
                    )));
                }
                let mut row = vec![Value::Null; width];
                for (expr, &ordinal) in tuple.into_iter().zip(&ordinals) {
                    row[ordinal] = match expr {
                        Expr::Literal(v) => v,
                        expr => eval(&expr, RowRef::EMPTY, params, &NoAggregates)?,
                    };
                }
                let row = Record::new(&schema.check_row(row)?);
                let id = state.insert_row(&table, row.row())?;
                changes.push(Change::Insert {
                    table: table.clone(),
                    id,
                });
                inserted += 1;
            }
            Ok(ExecResult::Count(inserted))
        }
        Statement::Update {
            table,
            assignments,
            where_clause,
        } => {
            let schema = state.table(&table)?.schema.clone();
            let bindings = Bindings::single(
                &table,
                schema.columns.iter().map(|c| c.name.clone()).collect(),
            );
            // The rows to change, found by the same single-table scan a
            // SELECT runs (a primary-key predicate probes the index), in
            // row-id order: constraint checks and redo records meet them in
            // heap order whichever access path found them.
            let mut targets =
                crate::exec::scan_where(state, &table, where_clause.as_ref(), params, ctx)?;
            targets.sort_unstable_by_key(|&(id, _)| id);
            let ordinals: Vec<usize> = assignments
                .iter()
                .map(|(c, _)| schema.require_column(c))
                .collect::<SqlResult<_>>()?;
            // Columns bind once, before the row loop.
            let exprs = (assignments.iter())
                .map(|(_, e)| bindings.bound(e))
                .collect::<SqlResult<Vec<_>>>()?;
            // Each new image is built from the old one where it lies: the
            // assigned columns evaluated and checked, the others read
            // straight from the old record. Images are built, in row order,
            // up to the first that fails; the writes then run in the same
            // order, so the statement reports the error a row-at-a-time
            // loop would.
            let mut images: Vec<(RowId, SqlResult<Record>)> = Vec::with_capacity(targets.len());
            for (id, old) in targets {
                let image = new_image(&schema, &exprs, &ordinals, old, params);
                let failed = image.is_err();
                images.push((id, image));
                if failed {
                    break;
                }
            }
            let mut updated = 0usize;
            for (id, image) in images {
                state.update_row(&table, id, image?.row())?;
                changes.push(Change::Update {
                    table: table.clone(),
                    id,
                });
                updated += 1;
            }
            Ok(ExecResult::Count(updated))
        }
        Statement::CreateTable {
            name,
            columns,
            if_not_exists,
        } => {
            let key = name.to_ascii_lowercase();
            if state.tables.contains_key(&key) {
                if if_not_exists {
                    return Ok(ExecResult::Ddl);
                }
                return Err(SqlError::new(
                    SqlCode::DUPLICATE_OBJECT,
                    format!("table {name} already exists"),
                ));
            }
            let schema = TableSchema::from_defs(&name, &columns)?;
            // Unique columns get system indexes enforcing them.
            let mut index_names = Vec::new();
            for (ordinal, col) in schema.columns.iter().enumerate() {
                if col.unique {
                    let idx_name = format!("{key}_{}_unique", col.name.to_ascii_lowercase());
                    state.indexes.insert(
                        idx_name.clone(),
                        Arc::new(Index::new(&idx_name, &key, ordinal, true)),
                    );
                    index_names.push(idx_name);
                }
            }
            state.tables.insert(
                key.clone(),
                Arc::new(TableData {
                    schema,
                    heap: Heap::new(),
                    index_names,
                    version: 1,
                }),
            );
            changes.push(Change::CreateTable { name: key });
            Ok(ExecResult::Ddl)
        }
        Statement::CreateIndex {
            name,
            table,
            column,
            unique,
        } => {
            let key = name.to_ascii_lowercase();
            if state.indexes.contains_key(&key) {
                return Err(SqlError::new(
                    SqlCode::DUPLICATE_OBJECT,
                    format!("index {name} already exists"),
                ));
            }
            let table_key = table.to_ascii_lowercase();
            let ordinal = {
                let t = state.table(&table)?;
                t.schema.require_column(&column)?
            };
            // Populate from existing rows; uniqueness can fail here.
            let rows = state.table(&table)?.heap.iter();
            let entries = rows.map(|(id, row)| (row.get(ordinal), id));
            let index = Index::build(&key, &table_key, ordinal, unique, entries)?;
            state.indexes.insert(key.clone(), Arc::new(index));
            state.table_mut(&table)?.index_names.push(key.clone());
            changes.push(Change::CreateIndex {
                name: key,
                table: table_key,
            });
            Ok(ExecResult::Ddl)
        }
        Statement::DropIndex { name } => {
            let key = name.to_ascii_lowercase();
            let index = state.indexes.remove(&key).ok_or_else(|| {
                SqlError::new(
                    SqlCode::UNDEFINED_OBJECT,
                    format!("index {name} does not exist"),
                )
            })?;
            if let Ok(t) = state.table_mut(&index.table.clone()) {
                t.index_names.retain(|n| *n != key);
            }
            changes.push(Change::DropIndex { name: key });
            Ok(ExecResult::Ddl)
        }
        Statement::Select(_)
        | Statement::Explain { .. }
        | Statement::Begin
        | Statement::Commit
        | Statement::Rollback => {
            unreachable!("handled by execute_statement")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ValueRef;
    use std::cell::Cell;

    thread_local! {
        /// Injection point: makes the next successful mutation on this thread
        /// panic after mutating its working copy but before publishing.
        pub(super) static PANIC_BEFORE_PUBLISH: Cell<bool> = const { Cell::new(false) };
        /// Injection point: makes the next publication on this thread panic
        /// inside the snapshot cell's RCU critical section.
        pub(super) static PANIC_IN_PUBLISH: Cell<bool> = const { Cell::new(false) };
    }

    fn fresh() -> (Database, Connection) {
        let db = Database::new();
        db.run_script(
            "CREATE TABLE guest (id INTEGER PRIMARY KEY, name VARCHAR(40) NOT NULL, note VARCHAR(200));",
        )
        .unwrap();
        let conn = db.connect();
        (db, conn)
    }

    #[test]
    fn insert_select_roundtrip() {
        let (_db, mut conn) = fresh();
        let r = conn
            .execute("INSERT INTO guest VALUES (1, 'Ada', 'hello'), (2, 'Bob', NULL)")
            .unwrap();
        assert_eq!(r, ExecResult::Count(2));
        let rows = conn.execute("SELECT name FROM guest ORDER BY id").unwrap();
        let ExecResult::Rows(rs) = rows else { panic!() };
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.columns, vec!["name"]);
    }

    #[test]
    fn sqlcode_100_on_empty() {
        let (_db, mut conn) = fresh();
        let r = conn.execute("SELECT * FROM guest").unwrap();
        assert_eq!(r.sqlcode(), SqlCode::NO_DATA);
        let r = conn
            .execute("UPDATE guest SET note = 'x' WHERE id = 99")
            .unwrap();
        assert_eq!(r.sqlcode(), SqlCode::NO_DATA);
    }

    #[test]
    fn statement_atomicity_multi_row_insert() {
        let (db, mut conn) = fresh();
        conn.execute("INSERT INTO guest VALUES (1, 'Ada', NULL)")
            .unwrap();
        // Second tuple violates the PK; the whole statement must back out.
        let err = conn
            .execute("INSERT INTO guest VALUES (2, 'Bob', NULL), (1, 'Dup', NULL)")
            .unwrap_err();
        assert_eq!(err.code, SqlCode::DUPLICATE_KEY);
        assert_eq!(db.table_len("guest").unwrap(), 1);
    }

    /// Guests 1, 2 and 4 with a primary key and an index on `name`, no
    /// result cache: `SET id = id + 2` moves guest 1 to 3, then collides
    /// moving guest 2 to 4.
    fn guests_with_a_gap() -> (Database, Connection) {
        let db = Database::without_cache();
        db.run_script(
            "CREATE TABLE guest (id INTEGER PRIMARY KEY, name VARCHAR(40) NOT NULL, note VARCHAR(200));
             CREATE INDEX guest_name ON guest (name);
             INSERT INTO guest VALUES (1, 'Ada', 'x'), (2, 'Bob', 'y'), (4, 'Cy', 'z');",
        )
        .unwrap();
        let conn = db.connect();
        (db, conn)
    }

    /// Everything a reader of `guest` sees through `conn`: heap order, a
    /// probe of each index for every key the colliding UPDATE reaches, and
    /// those keys' entries in the indexes themselves.
    fn guest_view(conn: &mut Connection) -> (Vec<ResultSet>, Vec<Vec<RowId>>) {
        let ids = (1..=6).map(Value::Int);
        let names = ["Ada", "Bob", "Cy", "Zed"].map(Value::from);
        let mut selects = vec![conn.execute("SELECT * FROM guest").unwrap()];
        for id in ids.clone() {
            let sql = "SELECT * FROM guest WHERE id = ?";
            selects.push(conn.execute_with_params(sql, &[id]).unwrap());
        }
        for name in &names {
            let sql = "SELECT * FROM guest WHERE name = ?";
            selects.push(
                conn.execute_with_params(sql, std::slice::from_ref(name))
                    .unwrap(),
            );
        }
        let state = conn.read_state();
        let (pk, by_name) = (state.index_on("guest", 0), state.index_on("guest", 1));
        let mut entries: Vec<Vec<RowId>> = ids.map(|id| pk.unwrap().lookup(&id)).collect();
        entries.extend(names.iter().map(|name| by_name.unwrap().lookup(name)));
        let selects = selects.into_iter().map(|r| r.rows().unwrap().clone());
        (selects.collect(), entries)
    }

    #[test]
    fn statement_atomicity_multi_row_update_on_a_unique_key() {
        let (_db, mut conn) = guests_with_a_gap();
        let before = guest_view(&mut conn);
        let err = conn
            .execute("UPDATE guest SET id = id + 2, name = 'Zed'")
            .unwrap_err();
        assert_eq!(err.code, SqlCode::DUPLICATE_KEY);
        assert_eq!(guest_view(&mut conn), before);
    }

    #[test]
    fn statement_atomicity_multi_row_update_inside_a_transaction() {
        let (db, mut conn) = guests_with_a_gap();
        conn.execute("BEGIN").unwrap();
        conn.execute("UPDATE guest SET note = 'w' WHERE id = 4")
            .unwrap();
        let before = guest_view(&mut conn);
        let err = conn
            .execute("UPDATE guest SET id = id + 2, name = 'Zed'")
            .unwrap_err();
        assert_eq!(err.code, SqlCode::DUPLICATE_KEY);
        assert_eq!(guest_view(&mut conn), before);
        conn.execute("COMMIT").unwrap();
        assert_eq!(guest_view(&mut db.connect()), before);
    }

    #[test]
    fn explicit_transaction_rollback() {
        let (db, mut conn) = fresh();
        conn.execute("BEGIN").unwrap();
        conn.execute("INSERT INTO guest VALUES (1, 'Ada', NULL)")
            .unwrap();
        conn.execute("INSERT INTO guest VALUES (2, 'Bob', NULL)")
            .unwrap();
        conn.execute("UPDATE guest SET name = 'Eve' WHERE id = 1")
            .unwrap();
        conn.execute("ROLLBACK").unwrap();
        assert_eq!(db.table_len("guest").unwrap(), 0);
        assert!(!conn.in_transaction());
    }

    #[test]
    fn explicit_transaction_commit_is_durable() {
        let (db, mut conn) = fresh();
        conn.execute("BEGIN").unwrap();
        conn.execute("INSERT INTO guest VALUES (1, 'Ada', NULL)")
            .unwrap();
        conn.execute("COMMIT").unwrap();
        assert_eq!(db.table_len("guest").unwrap(), 1);
        // Another connection sees it.
        let mut c2 = db.connect();
        let r = c2.execute("SELECT COUNT(*) FROM guest").unwrap();
        assert_eq!(r.rows().unwrap().rows[0][0], Value::Int(1));
    }

    #[test]
    fn failed_statement_in_txn_keeps_txn_open() {
        let (db, mut conn) = fresh();
        conn.execute("BEGIN").unwrap();
        conn.execute("INSERT INTO guest VALUES (1, 'Ada', NULL)")
            .unwrap();
        assert!(conn
            .execute("INSERT INTO guest VALUES (1, 'Dup', NULL)")
            .is_err());
        assert!(conn.in_transaction());
        conn.execute("COMMIT").unwrap();
        assert_eq!(db.table_len("guest").unwrap(), 1);
    }

    #[test]
    fn rollback_restores_inserts_and_updates() {
        let (db, mut conn) = fresh();
        conn.execute("INSERT INTO guest VALUES (1, 'Ada', 'x'), (2, 'Bob', 'y')")
            .unwrap();
        conn.execute("BEGIN").unwrap();
        conn.execute("INSERT INTO guest VALUES (3, 'Cy', 'w')")
            .unwrap();
        conn.execute("UPDATE guest SET note = 'z' WHERE id = 2")
            .unwrap();
        conn.execute("ROLLBACK").unwrap();
        let mut c2 = db.connect();
        let r = c2.execute("SELECT note FROM guest ORDER BY id").unwrap();
        assert_eq!(
            r.rows().unwrap().rows,
            vec![vec![Value::Text("x".into())], vec![Value::Text("y".into())]]
        );
    }

    #[test]
    fn ddl_rolls_back_too() {
        let (db, mut conn) = fresh();
        conn.execute("BEGIN").unwrap();
        conn.execute("CREATE TABLE extra (a INTEGER)").unwrap();
        conn.execute("INSERT INTO extra VALUES (1)").unwrap();
        conn.execute("ROLLBACK").unwrap();
        assert!(db.table_len("extra").is_err());
        // DROP INDEX + rollback restores the index.
        conn.execute("CREATE UNIQUE INDEX guest_name ON guest (name)")
            .unwrap();
        conn.execute("INSERT INTO guest VALUES (1, 'Ada', NULL)")
            .unwrap();
        conn.execute("BEGIN").unwrap();
        conn.execute("DROP INDEX guest_name").unwrap();
        conn.execute("ROLLBACK").unwrap();
        assert!(db.pin().indexes.contains_key("guest_name"));
        // It still enforces uniqueness: a duplicate name fails.
        assert!(conn
            .execute("INSERT INTO guest VALUES (2, 'Ada', NULL)")
            .is_err());
    }

    #[test]
    fn nested_begin_rejected() {
        let (_db, mut conn) = fresh();
        conn.execute("BEGIN").unwrap();
        let err = conn.execute("BEGIN").unwrap_err();
        assert_eq!(err.code, SqlCode::TXN_STATE);
    }

    #[test]
    fn commit_without_begin_rejected() {
        let (_db, mut conn) = fresh();
        assert!(conn.execute("COMMIT").is_err());
        assert!(conn.execute("ROLLBACK").is_err());
    }

    #[test]
    fn dropped_connection_rolls_back() {
        let db = Database::new();
        db.run_script("CREATE TABLE t (a INTEGER)").unwrap();
        {
            let mut conn = db.connect();
            conn.execute("BEGIN").unwrap();
            conn.execute("INSERT INTO t VALUES (1)").unwrap();
            // conn dropped here without COMMIT.
        }
        assert_eq!(db.table_len("t").unwrap(), 0);
    }

    #[test]
    fn create_index_on_populated_table_enforces_unique() {
        let (_db, mut conn) = fresh();
        conn.execute("INSERT INTO guest VALUES (1, 'Ada', NULL), (2, 'Ada', NULL)")
            .unwrap();
        let err = conn
            .execute("CREATE UNIQUE INDEX guest_name ON guest (name)")
            .unwrap_err();
        assert_eq!(err.code, SqlCode::DUPLICATE_KEY);
        // Non-unique index is fine and then used by queries.
        conn.execute("CREATE INDEX guest_name ON guest (name)")
            .unwrap();
        let r = conn
            .execute("SELECT id FROM guest WHERE name = 'Ada' ORDER BY 1")
            .unwrap();
        assert_eq!(r.rows().unwrap().rows.len(), 2);
    }

    #[test]
    fn update_with_expression_assignment() {
        let (_db, mut conn) = fresh();
        conn.execute("INSERT INTO guest VALUES (1, 'Ada', 'a')")
            .unwrap();
        conn.execute("UPDATE guest SET id = id + 41, note = name WHERE id = 1")
            .unwrap();
        let r = conn.execute("SELECT id, note FROM guest").unwrap();
        assert_eq!(
            r.rows().unwrap().rows[0],
            [Value::Int(42), Value::Text("Ada".into())]
        );
    }

    #[test]
    fn insert_with_column_list_defaults_null() {
        let (_db, mut conn) = fresh();
        conn.execute("INSERT INTO guest (id, name) VALUES (1, 'Ada')")
            .unwrap();
        let r = conn.execute("SELECT note FROM guest").unwrap();
        assert_eq!(r.rows().unwrap().rows[0][0], Value::Null);
        // Omitting a NOT NULL column fails.
        assert!(conn.execute("INSERT INTO guest (id) VALUES (2)").is_err());
    }

    #[test]
    fn params_flow_through_dml() {
        let (_db, mut conn) = fresh();
        conn.execute_with_params(
            "INSERT INTO guest VALUES (?, ?, ?)",
            &[Value::Int(1), Value::Text("Ada".into()), Value::Null],
        )
        .unwrap();
        let r = conn
            .execute_with_params("SELECT name FROM guest WHERE id = ?", &[Value::Int(1)])
            .unwrap();
        assert_eq!(r.rows().unwrap().rows[0][0], Value::Text("Ada".into()));
    }

    #[test]
    fn if_exists_variants() {
        let (db, mut conn) = fresh();
        conn.execute("CREATE TABLE IF NOT EXISTS guest (id INTEGER)")
            .unwrap();
        let width = db.pin().table("guest").unwrap().schema.width();
        assert_eq!(width, 3, "the existing table stays");
        // Tables are never dropped: DROP TABLE is refused, IF EXISTS or not.
        for sql in ["DROP TABLE IF EXISTS nothere", "DROP TABLE guest"] {
            assert_eq!(conn.execute(sql).unwrap_err().code, SqlCode::SYNTAX);
        }
    }

    #[test]
    fn pinned_snapshot_is_immutable_across_writes() {
        let (db, mut conn) = fresh();
        conn.execute("INSERT INTO guest VALUES (1, 'Ada', NULL)")
            .unwrap();
        let pinned = db.pin();
        conn.execute("INSERT INTO guest VALUES (2, 'Bob', NULL)")
            .unwrap();
        conn.execute("UPDATE guest SET name = 'Eve' WHERE id = 1")
            .unwrap();
        // The pinned snapshot still shows the world as of its pin.
        assert_eq!(pinned.table("guest").unwrap().heap.len(), 1);
        let row = pinned.table("guest").unwrap().heap.get(RowId(0)).unwrap();
        assert_eq!(row.get(1), ValueRef::Text("Ada"));
        // The live state moved on.
        assert_eq!(db.table_len("guest").unwrap(), 2);
    }

    #[test]
    fn snapshot_epoch_is_strictly_monotonic() {
        let (db, mut conn) = fresh();
        let e0 = db.snapshot_epoch();
        conn.execute("INSERT INTO guest VALUES (1, 'Ada', NULL)")
            .unwrap();
        let e1 = db.snapshot_epoch();
        conn.execute("UPDATE guest SET note = 'x'").unwrap();
        let e2 = db.snapshot_epoch();
        assert!(e0 < e1 && e1 < e2, "epochs: {e0} {e1} {e2}");
    }

    #[test]
    fn failed_statement_publishes_nothing() {
        let (db, mut conn) = fresh();
        conn.execute("INSERT INTO guest VALUES (1, 'Ada', NULL)")
            .unwrap();
        let epoch = db.snapshot_epoch();
        let version = db.table_version("guest");
        assert!(conn
            .execute("INSERT INTO guest VALUES (2, 'Bob', NULL), (1, 'Dup', NULL)")
            .is_err());
        // Not even a no-op snapshot: the failed statement left no trace.
        assert_eq!(db.snapshot_epoch(), epoch);
        assert_eq!(db.table_version("guest"), version);
    }

    #[test]
    fn writer_panic_before_publish_leaves_consistent_state() {
        let (db, mut conn) = fresh();
        conn.execute("INSERT INTO guest VALUES (1, 'Ada', NULL)")
            .unwrap();
        let epoch = db.snapshot_epoch();
        let db2 = db.clone();
        let joined = std::thread::spawn(move || {
            let mut victim = db2.connect();
            PANIC_BEFORE_PUBLISH.with(|f| f.set(true));
            let _ = victim.execute("UPDATE guest SET note = 'torn'");
        })
        .join();
        assert!(joined.is_err(), "injected panic must propagate");
        // Nothing published, latch released: the table is untouched and the
        // next writer on the same table proceeds without deadlock.
        assert_eq!(db.snapshot_epoch(), epoch);
        let r = conn.execute("SELECT note FROM guest").unwrap();
        assert_eq!(r.rows().unwrap().rows[0][0], Value::Null);
        conn.execute("UPDATE guest SET note = 'ok'").unwrap();
        assert_eq!(db.snapshot_epoch(), epoch + 1);
    }

    #[test]
    fn writer_panic_inside_publish_recovers_from_poison() {
        let (db, mut conn) = fresh();
        conn.execute("INSERT INTO guest VALUES (1, 'Ada', NULL)")
            .unwrap();
        let epoch = db.snapshot_epoch();
        let db2 = db.clone();
        let joined = std::thread::spawn(move || {
            let mut victim = db2.connect();
            PANIC_IN_PUBLISH.with(|f| f.set(true));
            let _ = victim.execute("UPDATE guest SET note = 'torn'");
        })
        .join();
        assert!(joined.is_err(), "injected panic must propagate");
        // The panic unwound through the snapshot cell's write lock; the
        // poison-recovering wrapper keeps the old value readable and
        // writable. The aborted publication must not be visible.
        assert_eq!(db.snapshot_epoch(), epoch);
        let r = conn.execute("SELECT note FROM guest").unwrap();
        assert_eq!(r.rows().unwrap().rows[0][0], Value::Null);
        conn.execute("UPDATE guest SET note = 'ok'").unwrap();
        assert_eq!(db.snapshot_epoch(), epoch + 1);
        let r = conn.execute("SELECT note FROM guest").unwrap();
        assert_eq!(r.rows().unwrap().rows[0][0], Value::Text("ok".into()));
    }

    #[test]
    fn writer_panic_racing_live_writers_loses_only_its_own_statement() {
        // A writer dies inside the publication critical section (poisoning
        // the snapshot cell's std lock) while another writer on a different
        // table keeps committing. Only the panicking statement may be lost:
        // the survivor's stream of publishes continues unharmed through the
        // poison, and the victim's table shows no trace of the torn update.
        let db = Database::without_cache();
        db.run_script(
            "CREATE TABLE victim (x INTEGER, note VARCHAR(8)); \
             CREATE TABLE survivor (x INTEGER)",
        )
        .unwrap();
        db.run_script("INSERT INTO victim VALUES (1, NULL)")
            .unwrap();

        let crasher = {
            let db = db.clone();
            std::thread::spawn(move || {
                let mut conn = db.connect();
                PANIC_IN_PUBLISH.with(|f| f.set(true));
                let _ = conn.execute("UPDATE victim SET note = 'torn'");
            })
        };
        let writer = {
            let db = db.clone();
            std::thread::spawn(move || {
                let mut conn = db.connect();
                for _ in 0..100 {
                    conn.execute("INSERT INTO survivor VALUES (1)").unwrap();
                }
            })
        };
        assert!(crasher.join().is_err(), "injected panic must propagate");
        writer.join().unwrap();

        assert_eq!(db.table_len("survivor").unwrap(), 100);
        assert_eq!(db.table_version("survivor"), 101); // CREATE + 100 inserts
        let mut conn = db.connect();
        let r = conn.execute("SELECT note FROM victim").unwrap();
        assert_eq!(r.rows().unwrap().rows[0][0], Value::Null);
        // The poisoned-and-recovered cell still accepts the victim table's
        // next writer: no stranded latch, no stuck lock.
        conn.execute("UPDATE victim SET note = 'ok'").unwrap();
        let r = conn.execute("SELECT note FROM victim").unwrap();
        assert_eq!(r.rows().unwrap().rows[0][0], Value::Text("ok".into()));
    }

    #[test]
    fn concurrent_disjoint_writers_both_publish() {
        // Two writers on different tables race; the RCU diff publication
        // must keep both results even though each started from a base that
        // lacked the other's write.
        let db = Database::without_cache();
        db.run_script("CREATE TABLE a (x INTEGER); CREATE TABLE b (x INTEGER)")
            .unwrap();
        let threads: Vec<_> = ["a", "b"]
            .iter()
            .map(|t| {
                let db = db.clone();
                let sql = format!("INSERT INTO {t} VALUES (1)");
                std::thread::spawn(move || {
                    let mut conn = db.connect();
                    for _ in 0..50 {
                        conn.execute(&sql).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(db.table_len("a").unwrap(), 50);
        assert_eq!(db.table_len("b").unwrap(), 50);
        assert_eq!(db.table_version("a"), 51); // CREATE + 50 inserts
        assert_eq!(db.table_version("b"), 51);
    }

    /// How far `counter` moves while each of `sqls` runs over a table `a` of
    /// `n` rows.
    fn per_statement(n: usize, sqls: &[&str], counter: fn() -> u64) -> Vec<u64> {
        let db = Database::new();
        db.run_script("CREATE TABLE a (id INTEGER, n INTEGER, x VARCHAR(20));")
            .unwrap();
        for lo in (0..n).step_by(500) {
            let tuples = (lo..n.min(lo + 500)).map(|i| format!("({i}, {}, 'r{i}')", i % 7));
            let tuples = tuples.collect::<Vec<_>>().join(",");
            db.run_script(&format!("INSERT INTO a VALUES {tuples};"))
                .unwrap();
        }
        assert_eq!(db.table_len("a").unwrap(), n);
        let mut conn = db.connect();
        sqls.iter()
            .map(|sql| {
                let before = counter();
                conn.execute(sql).unwrap();
                counter() - before
            })
            .collect()
    }

    /// Columns resolve once per (expression, scope) per statement, never per
    /// row: `Bindings::resolve` is called as often on 10 000 rows as on 10.
    #[test]
    fn columns_resolve_once_per_statement() {
        let sqls = [
            "SELECT id FROM a WHERE x LIKE '%1%' OR n = 3",
            "SELECT a.x, n FROM a WHERE a.n + id > 1",
            "SELECT x, n FROM a ORDER BY n DESC, x",
            "SELECT COUNT(*), SUM(n) FROM a WHERE id >= 0 ORDER BY SUM(id)",
            "UPDATE a SET n = n + id WHERE x LIKE 'r1%'",
        ];
        let resolves = |n| per_statement(n, &sqls, || crate::eval::RESOLVES.with(|c| c.get()));
        let small = resolves(10);
        assert!(small.iter().all(|&c| c > 0), "{small:?}");
        assert_eq!(small, resolves(10_000));
    }

    /// A literal LIKE pattern is decoded once per statement, never per row:
    /// `Pattern::new` runs as often on 10 000 rows as on 10, for a scan
    /// filter, a residual filter (one naming no column), and an UPDATE's
    /// WHERE.
    #[test]
    fn patterns_prepare_once_per_statement() {
        let sqls = [
            "SELECT id FROM a WHERE x LIKE '%1%'",
            "SELECT a.id FROM a WHERE 'r1' LIKE '%1%'",
            "UPDATE a SET n = n + 1 WHERE x LIKE '%1%'",
        ];
        let prepares = |n| per_statement(n, &sqls, || crate::like::PREPARES.with(|c| c.get()));
        let small = prepares(10);
        assert!(small.iter().all(|&c| c > 0), "{small:?}");
        assert_eq!(small, prepares(10_000));
    }
}
