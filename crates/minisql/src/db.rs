//! The database façade: connections, statement execution, transactions.
//!
//! Mirrors what the gateway needed from DB2's dynamic SQL interface:
//! PREPARE/EXECUTE of arbitrary SQL strings, result sets with named columns,
//! SQLCODEs, and two transaction modes —
//!
//! * **auto-commit** (each statement its own transaction), and
//! * **explicit** (`BEGIN` … `COMMIT`/`ROLLBACK`, everything undone on
//!   rollback) — the paper's "all SQL statements in a macro are executed as a
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
//!    copy-on-write (only tables/indexes actually touched are deep-cloned);
//! 3. **publish** atomically: an RCU step re-reads the then-current state and
//!    patches in exactly the entries this writer changed (diffed against its
//!    base by `Arc` pointer identity), so concurrent writers on disjoint
//!    tables never overwrite each other's publications.
//!
//! A failed statement simply drops its working copy — statement atomicity
//! without touching the published state. DDL additionally holds the catalog
//! latch, serialising changes to the *set* of tables and indexes.
//!
//! Transactions provide atomicity via an undo log, not cross-statement
//! isolation — faithful to the original system, where each CGI request was a
//! short single-threaded process: between the statements of an explicit
//! transaction, other connections' commits remain visible (read-committed),
//! and ROLLBACK re-latches the touched tables to undo in reverse.
//!
//! # Durability
//!
//! [`Database::new`] is purely in-memory, as before. [`Database::open`]
//! adds a durable write path: the write sequence becomes *latch → mutate →
//! log → fsync-ack → publish*. After a statement's working copy is built
//! (step 2 above), its effects are serialized as logical redo records and
//! appended to the write-ahead log ([`crate::wal`]); only once the
//! group-commit daemon acknowledges them as durable does the writer
//! publish. A statement whose log append fails reports SQLCODE −904 and
//! publishes nothing — readers can never observe state that would not
//! survive a crash. ROLLBACK logs its compensating images the same way.
//! Recovery ([`crate::recovery`]) and background checkpoints
//! ([`crate::checkpoint`]) complete the lifecycle.

use crate::ast::Statement;
use crate::cache::{self, CachedSelect, DbCacheStats, DbCaches};
use crate::error::{SqlCode, SqlError, SqlResult};
use crate::eval::{eval, eval_truth, Bindings, NoAggregates};
use crate::exec::{run_select, ResultSet};
use crate::index::Index;
use crate::parser::{parse, parse_script};
use crate::schema::TableSchema;
use crate::state::{DbState, TableData};
use crate::storage::{Heap, Row, RowId};
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
    /// A SELECT produced a result set.
    Rows(ResultSet),
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

/// One undo record; applied in reverse on rollback.
///
/// Dropped catalog objects are kept behind their original `Arc`s, so holding
/// an undo log costs pointers, not copies of table data.
///
/// The undo log is also the source of the WAL's *redo* records: each entry
/// names the row or object a statement touched, and [`redo_ops`] pairs it
/// with the final image from the working copy.
#[derive(Debug)]
pub(crate) enum Undo {
    Insert {
        table: String,
        id: RowId,
    },
    Update {
        table: String,
        id: RowId,
        old: Row,
    },
    Delete {
        table: String,
        id: RowId,
        old: Row,
    },
    CreateTable {
        name: String,
    },
    DropTable {
        name: String,
        data: Arc<TableData>,
        indexes: Vec<Arc<Index>>,
    },
    CreateIndex {
        name: String,
        table: String,
    },
    DropIndex {
        index: Arc<Index>,
    },
}

/// Poison-recovering lock on a std mutex (same posture as `dbgw_sync`: a
/// panicking daemon must not wedge shutdown).
fn std_lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Durable-write machinery shared by every connection of one database:
/// the write-ahead log, the checkpoint barrier, and the checkpoint daemon's
/// lifecycle. Absent (`None` in [`DbCore`]) for purely in-memory databases,
/// whose write path skips straight from mutation to publication.
pub(crate) struct Persistence {
    /// The append-only redo log (group-commit daemon inside).
    pub(crate) wal: Arc<Wal>,
    /// Checkpoint barrier. Writers hold the **read** side across
    /// append → fsync-ack → publish; the checkpointer takes the **write**
    /// side, so the snapshot it pins is exactly the replay of the log it
    /// rewrites — no statement can be durable-but-unpublished (or the
    /// reverse) while the log is being swapped.
    pub(crate) barrier: crate::sync::RwLock<()>,
    /// The data directory (`wal.log` and the checkpoint's `wal.tmp` live
    /// here).
    pub(crate) dir: PathBuf,
    /// Stop flag + wakeup for the checkpoint daemon.
    stop: Arc<(std::sync::Mutex<bool>, std::sync::Condvar)>,
    /// The checkpoint daemon's handle, joined at shutdown.
    checkpointer: std::sync::Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Persistence {
    /// Stop the checkpoint daemon, flush the log, stop the group-commit
    /// daemon. Idempotent; called from [`DbCore`]'s `Drop` and from
    /// [`Database::close`]. Writes after this fail with SQLCODE −904.
    pub(crate) fn shutdown(&self) {
        {
            let (flag, wake) = &*self.stop;
            *std_lock(flag) = true;
            wake.notify_all();
        }
        if let Some(handle) = std_lock(&self.checkpointer).take() {
            // The last `Arc<DbCore>` can die on the checkpoint daemon's own
            // thread (it briefly upgrades its weak reference); joining
            // ourselves would deadlock, and the thread is about to exit
            // anyway — detach instead.
            if handle.thread().id() != std::thread::current().id() {
                let _ = handle.join();
            }
        }
        self.wal.shutdown();
    }
}

/// The shared engine core: the published snapshot plus the write latches.
pub(crate) struct DbCore {
    /// The current committed state. Readers pin it; writers replace it.
    pub(crate) published: SnapshotCell<DbState>,
    /// Per-table exclusive write latches (plus the catalog latch).
    pub(crate) latches: LatchTable,
    /// The durable write path, when this database was [`Database::open`]ed
    /// from a data directory.
    pub(crate) persist: Option<Arc<Persistence>>,
}

impl Drop for DbCore {
    fn drop(&mut self) {
        if let Some(p) = &self.persist {
            p.shutdown();
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

    /// Atomically publish a writer's working copy.
    ///
    /// `work` was cloned from `base` and mutated under this writer's latches.
    /// The RCU step re-reads the *current* state (which may have advanced —
    /// concurrent writers on other tables publish freely) and patches in only
    /// the entries this writer changed, found by diffing `work` against
    /// `base` with `Arc` pointer identity. Safety invariant: every differing
    /// entry belongs to a table whose latch this writer holds, so no other
    /// writer can have touched it since `base` was loaded.
    fn publish(&self, base: &Arc<DbState>, work: DbState) {
        #[cfg(test)]
        tests::PANIC_IN_PUBLISH.with(|f| {
            if f.replace(false) {
                panic!("injected: writer dies inside publication");
            }
        });
        let epoch = self.published.rcu(move |current| {
            let mut next = (**current).clone();
            for (name, arc) in &work.tables {
                if base.tables.get(name).map_or(true, |b| !Arc::ptr_eq(b, arc)) {
                    next.tables.insert(name.clone(), Arc::clone(arc));
                }
            }
            for name in base.tables.keys() {
                if !work.tables.contains_key(name) {
                    next.tables.remove(name);
                }
            }
            for (name, arc) in &work.indexes {
                if base
                    .indexes
                    .get(name)
                    .map_or(true, |b| !Arc::ptr_eq(b, arc))
                {
                    next.indexes.insert(name.clone(), Arc::clone(arc));
                }
            }
            for name in base.indexes.keys() {
                if !work.indexes.contains_key(name) {
                    next.indexes.remove(name);
                }
            }
            // Version counters only ever grow and are never removed (a
            // dropped table's counter must survive — see DbState::versions).
            for (name, v) in &work.versions {
                if base.versions.get(name) != Some(v) {
                    next.versions.insert(name.clone(), *v);
                }
            }
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
        let wal = Arc::new(
            Wal::open(&log_path, durability)
                .map_err(|e| SqlError::io("open write-ahead log", &e))?,
        );
        wal.start();
        let persist = Arc::new(Persistence {
            wal,
            barrier: crate::sync::RwLock::new(()),
            dir,
            stop: Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new())),
            checkpointer: std::sync::Mutex::new(None),
        });
        let core = Arc::new(DbCore {
            published: SnapshotCell::new(state),
            latches: LatchTable::new(),
            persist: Some(Arc::clone(&persist)),
        });
        // The daemon holds only a weak reference: dropping the last
        // `Database` tears the core (and thereby the daemon) down.
        let weak = Arc::downgrade(&core);
        let stop = Arc::clone(&persist.stop);
        let threshold = durability.checkpoint_bytes;
        let handle = std::thread::Builder::new()
            .name("dbgw-checkpoint".to_owned())
            .spawn(move || crate::checkpoint::checkpoint_daemon(weak, stop, threshold))
            .expect("spawn checkpoint daemon");
        *std_lock(&persist.checkpointer) = Some(handle);
        Ok(Database {
            core,
            caches: Some(Arc::new(DbCaches::new(cache))),
        })
    }

    /// Rewrite the log as a base snapshot right now (the background daemon
    /// does this automatically past `checkpoint_bytes`). No-op for
    /// in-memory databases.
    pub fn checkpoint_now(&self) -> SqlResult<()> {
        crate::checkpoint::checkpoint_now(&self.core)
    }

    /// Current write-ahead log size in bytes; 0 for in-memory databases.
    pub fn wal_size(&self) -> u64 {
        self.core.persist.as_ref().map_or(0, |p| p.wal.size())
    }

    /// The data directory this database persists to, if any.
    pub fn data_dir(&self) -> Option<&Path> {
        self.core.persist.as_deref().map(|p| p.dir.as_path())
    }

    /// Flush the log and stop the durability daemons. Idempotent; writes
    /// after this fail with SQLCODE −904 (reads keep working). Dropping the
    /// last handle to a database does the same implicitly.
    pub fn close(&self) {
        if let Some(p) = &self.core.persist {
            p.shutdown();
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

    /// Live row count of a table (testing/benchmark helper).
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
    /// Open explicit transaction's undo log, if any.
    txn: Option<Vec<Undo>>,
    /// The owning request's context (the unbounded context for plain
    /// [`Database::connect`] sessions).
    ctx: Arc<RequestCtx>,
}

impl Connection {
    /// Is an explicit transaction open?
    pub fn in_transaction(&self) -> bool {
        self.txn.is_some()
    }

    /// Rebind this connection to a request context (see
    /// [`Database::connect_with_ctx`]).
    pub fn set_request_ctx(&mut self, ctx: Arc<RequestCtx>) {
        self.ctx = ctx;
    }

    /// Pin the current committed snapshot (see [`Database::pin`]).
    pub fn pin(&self) -> Arc<DbState> {
        self.core.published.load()
    }

    /// Parse and execute one SQL statement.
    pub fn execute(&mut self, sql: &str) -> SqlResult<ExecResult> {
        self.execute_with_params(sql, &[])
    }

    /// Parse and execute with positional `?` parameters.
    ///
    /// When the owning database has a result cache, the normalized
    /// statement text and binds are looked up there first: a hit whose
    /// table versions still hold is returned without parsing. On a miss the
    /// statement is parsed once; a SELECT runs and its rows are stored.
    ///
    /// Every statement is also folded into the process-wide query digest
    /// table (unless recording is switched off): latency on this connection's request
    /// clock, rows returned and scanned, errors, result-cache outcome, and
    /// latch wait, keyed by the literal-masked statement shape.
    pub fn execute_with_params(&mut self, sql: &str, params: &[Value]) -> SqlResult<ExecResult> {
        let store = dbgw_obs::digests();
        if !store.enabled() {
            return self.execute_undigested(sql, params);
        }
        // Clear notes a digest-disabled window may have left behind, so this
        // statement only folds in its own attribution.
        let _ = dbgw_obs::digest::take_notes();
        let text = dbgw_cache::digest_sql(sql);
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
        let cached = match self.caches.clone() {
            Some(caches) => {
                let key = cache::result_key(&dbgw_cache::normalize_sql(sql), params);
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
        let rows = self.run_select_observed(&state, sel, params)?;
        let deps = cache::capture_deps(&state, sel);
        let _span = dbgw_obs::trace::span("cache_store");
        let cost = cache::result_cost(&rows);
        let entry = Arc::new(CachedSelect {
            rows: rows.clone(),
            deps,
        });
        metrics
            .cache_evictions
            .add(caches.results.put(key, entry, cost).evicted);
        metrics.cache_bytes.set(caches.results.bytes() as i64);
        Ok(ExecResult::Rows(rows))
    }

    /// The rows stored under `key`, if any and every table they were read
    /// from is still at the version it had then. Only SELECTs are ever
    /// stored, so a hit needs no parse. A stale entry is dropped.
    fn cache_hit(&self, caches: &DbCaches, key: &str) -> SqlResult<Option<ResultSet>> {
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
            caches.results.remove(key);
            caches.invalidations.fetch_add(1, Ordering::Relaxed);
            metrics.cache_invalidations.inc();
            return Ok(None);
        }
        // The hit path still honours the request's deadline and
        // cancellation, like any statement would.
        self.ctx.check().map_err(SqlError::cancelled)?;
        metrics.cache_hits.inc();
        dbgw_obs::digest::note_cache_hit(true);
        Ok(Some(cached.rows.clone()))
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
                let state = self.pin();
                Ok(ExecResult::Rows(run_select(
                    &state, &sel, params, &self.ctx,
                )?))
            }
            Statement::Explain { analyze, inner } => {
                let state = self.pin();
                let lines = match &*inner {
                    // ANALYZE executes the query under the operator collector
                    // (on this connection's request clock) and annotates the
                    // plan with the observed actuals.
                    Statement::Select(sel) if analyze => {
                        crate::exec::explain_analyze_select(&state, sel, params, &self.ctx)?
                    }
                    Statement::Select(sel) => crate::exec::explain_select(&state, sel, params)?,
                    Statement::Insert {
                        table,
                        values,
                        select,
                        ..
                    } => {
                        if select.is_some() {
                            vec![format!("INSERT INTO {table} (from SELECT)")]
                        } else {
                            vec![format!("INSERT INTO {table} ({} row(s))", values.len())]
                        }
                    }
                    Statement::Update {
                        table,
                        where_clause,
                        ..
                    } => vec![format!(
                        "UPDATE {table} via FULL SCAN{}",
                        if where_clause.is_some() {
                            " + FILTER"
                        } else {
                            ""
                        }
                    )],
                    Statement::Delete {
                        table,
                        where_clause,
                    } => vec![format!(
                        "DELETE FROM {table} via FULL SCAN{}",
                        if where_clause.is_some() {
                            " + FILTER"
                        } else {
                            ""
                        }
                    )],
                    other => vec![format!("{other:?}")],
                };
                Ok(ExecResult::Rows(ResultSet {
                    columns: vec!["plan".to_owned()],
                    rows: lines.into_iter().map(|l| vec![Value::Text(l)]).collect(),
                }))
            }
            Statement::Begin => {
                if self.txn.is_some() {
                    return Err(SqlError::new(
                        SqlCode::TXN_STATE,
                        "a transaction is already open",
                    ));
                }
                self.txn = Some(Vec::new());
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

    /// The write path: latch the statement's write set, mutate a working
    /// copy, publish on success. A failed statement's working copy is simply
    /// dropped — the published state never sees partial effects.
    fn execute_mutation(&mut self, stmt: Statement, params: &[Value]) -> SqlResult<ExecResult> {
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
                let Statement::DropIndex { name } = &stmt else {
                    unreachable!("write_set covers every other mutation");
                };
                held.push(self.core.latches.acquire(&[CATALOG_LATCH]));
                let table = self
                    .core
                    .published
                    .load()
                    .indexes
                    .get(&name.to_ascii_lowercase())
                    .map(|i| i.table.clone());
                if let Some(table) = table {
                    held.push(self.core.latches.acquire(&[table]));
                }
            }
        }
        record_latch_metrics(&held);
        let base = self.core.published.load();
        let mut work = (*base).clone();
        let mut undo: Vec<Undo> = Vec::new();
        let result = apply_mutation(&mut work, stmt, params, &mut undo, &self.ctx);
        match result {
            Ok(res) => {
                #[cfg(test)]
                tests::PANIC_BEFORE_PUBLISH.with(|f| {
                    if f.replace(false) {
                        panic!("injected: writer dies before publishing");
                    }
                });
                match &self.core.persist {
                    Some(p) => {
                        // Durable path: log → fsync-ack → publish, all under
                        // the checkpoint barrier's read side so a checkpoint
                        // can never run between the append and the publish.
                        // A failed append publishes nothing — the statement
                        // reports −904 and `work` is dropped.
                        let _durable = p.barrier.read();
                        p.wal.commit(&redo_ops(&work, &undo))?;
                        self.core.publish(&base, work);
                    }
                    None => self.core.publish(&base, work),
                }
                // Explicit transaction: keep the records for a possible
                // ROLLBACK later. Auto-commit: the statement is durable now
                // and the undo log is discarded.
                if let Some(log) = self.txn.as_mut() {
                    log.extend(undo);
                }
                Ok(res)
            }
            // Nothing was published; dropping `work` is the rollback.
            Err(e) => Err(e),
        }
    }

    /// Commit the open transaction (no-op error if none).
    pub fn commit(&mut self) -> SqlResult<()> {
        match self.txn.take() {
            Some(_) => Ok(()),
            None => Err(SqlError::new(SqlCode::TXN_STATE, "no transaction is open")),
        }
    }

    /// Roll back the open transaction (no-op error if none).
    pub fn rollback(&mut self) -> SqlResult<()> {
        match self.txn.take() {
            Some(undo) => {
                if undo.is_empty() {
                    return Ok(());
                }
                // Re-latch every table the transaction touched (and the
                // catalog, if DDL is being undone), then undo against the
                // current state and publish the result as one snapshot.
                let names = undo_latch_names(&undo);
                let held = [self.core.latches.acquire(&names)];
                record_latch_metrics(&held);
                let base = self.core.published.load();
                let mut work = (*base).clone();
                apply_undo(&mut work, &undo);
                match &self.core.persist {
                    Some(p) => {
                        // The rollback is itself a logged publication: its
                        // compensating images go to the WAL as ordinary redo
                        // ops (recovery stays strictly redo-only).
                        let _durable = p.barrier.read();
                        p.wal.commit(&rollback_ops(&work, &undo))?;
                        self.core.publish(&base, work);
                    }
                    None => self.core.publish(&base, work),
                }
                Ok(())
            }
            None => Err(SqlError::new(SqlCode::TXN_STATE, "no transaction is open")),
        }
    }
}

impl Drop for Connection {
    /// An abandoned open transaction rolls back, as DB2 connections did.
    fn drop(&mut self) {
        if self.txn.is_some() {
            let _ = self.rollback();
        }
    }
}

/// The latch names a statement's mutations are confined to, lowercased,
/// including the catalog latch for DDL. `None` for DROP INDEX, whose owning
/// table is only known once the catalog latch is held.
fn write_set(stmt: &Statement) -> Option<Vec<String>> {
    match stmt {
        Statement::Insert { table, .. }
        | Statement::Update { table, .. }
        | Statement::Delete { table, .. } => Some(vec![table.to_ascii_lowercase()]),
        Statement::CreateTable { name, .. } | Statement::DropTable { name, .. } => {
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

/// Every latch name a transaction's undo log needs to be re-applied safely.
fn undo_latch_names(undo: &[Undo]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for record in undo {
        match record {
            Undo::Insert { table, .. }
            | Undo::Update { table, .. }
            | Undo::Delete { table, .. } => names.push(table.to_ascii_lowercase()),
            Undo::CreateTable { name } | Undo::DropTable { name, .. } => {
                names.push(CATALOG_LATCH.to_owned());
                names.push(name.clone());
            }
            Undo::CreateIndex { table, .. } => {
                names.push(CATALOG_LATCH.to_owned());
                names.push(table.clone());
            }
            Undo::DropIndex { index } => {
                names.push(CATALOG_LATCH.to_owned());
                names.push(index.table.clone());
            }
        }
    }
    names // acquire() sorts and dedups
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

fn apply_undo(state: &mut DbState, undo: &[Undo]) {
    for record in undo.iter().rev() {
        match record {
            Undo::Insert { table, id } => {
                let _ = state.delete_row(table, *id);
            }
            Undo::Update { table, id, old } => {
                let _ = state.update_row(table, *id, old.clone());
            }
            Undo::Delete { table, id, old } => {
                let _ = state.restore_row(table, *id, old.clone());
            }
            Undo::CreateTable { name } => {
                if let Some(t) = state.tables.remove(name) {
                    for idx in &t.index_names {
                        state.indexes.remove(idx);
                    }
                }
                state.bump_version(name);
            }
            Undo::DropTable {
                name,
                data,
                indexes,
            } => {
                state.tables.insert(name.clone(), Arc::clone(data));
                for idx in indexes {
                    state
                        .indexes
                        .insert(idx.name.to_ascii_lowercase(), Arc::clone(idx));
                }
                state.bump_version(name);
            }
            Undo::CreateIndex { name, table } => {
                state.indexes.remove(name);
                if let Ok(t) = state.table_mut(table) {
                    t.index_names.retain(|n| n != name);
                }
            }
            Undo::DropIndex { index } => {
                let key = index.name.to_ascii_lowercase();
                if let Ok(t) = state.table_mut(&index.table) {
                    t.index_names.push(key.clone());
                }
                state.indexes.insert(key, Arc::clone(index));
            }
        }
    }
}

/// Derive the WAL record for a committed statement: pair each undo entry
/// with the **final** image from the statement's working copy. Sound
/// because a single statement touches each `(table, id)` with at most one
/// kind of operation, and the per-table latch is held from mutation through
/// log append to publication — so per table, log order equals publication
/// order.
fn redo_ops(work: &DbState, undo: &[Undo]) -> Vec<WalOp> {
    let mut ops = Vec::with_capacity(undo.len());
    let image = |table: &str, id: RowId| {
        work.tables
            .get(&table.to_ascii_lowercase())
            .and_then(|t| t.heap.get(id))
            .cloned()
    };
    for record in undo {
        match record {
            Undo::Insert { table, id } => {
                if let Some(row) = image(table, *id) {
                    ops.push(WalOp::Insert {
                        table: table.to_ascii_lowercase(),
                        id: *id,
                        row,
                    });
                }
            }
            Undo::Update { table, id, .. } => {
                if let Some(row) = image(table, *id) {
                    ops.push(WalOp::Update {
                        table: table.to_ascii_lowercase(),
                        id: *id,
                        row,
                    });
                }
            }
            Undo::Delete { table, id, .. } => ops.push(WalOp::Delete {
                table: table.to_ascii_lowercase(),
                id: *id,
            }),
            // DDL goes to the log as canonical SQL, replayed through the
            // ordinary DDL path at recovery (`name` keys are lowercased at
            // undo-record creation).
            Undo::CreateTable { name } => {
                if let Some(t) = work.tables.get(name) {
                    ops.push(WalOp::Ddl {
                        sql: crate::dump::create_table_sql(name, &t.schema),
                    });
                }
            }
            Undo::DropTable { name, .. } => ops.push(WalOp::Ddl {
                sql: format!("DROP TABLE {name}"),
            }),
            Undo::CreateIndex { name, table } => {
                if let (Some(idx), Some(t)) = (work.indexes.get(name), work.tables.get(table)) {
                    let column = &t.schema.columns[idx.column].name;
                    ops.push(WalOp::Ddl {
                        sql: crate::dump::create_index_sql(idx, column),
                    });
                }
            }
            Undo::DropIndex { index } => ops.push(WalOp::Ddl {
                sql: format!("DROP INDEX {}", index.name),
            }),
        }
    }
    ops
}

/// Derive the WAL record for a ROLLBACK: the compensating image of each
/// undo entry, in the order `apply_undo` applied them (reversed). `work` is
/// the post-undo state, so restored tables are present for lookups.
fn rollback_ops(work: &DbState, undo: &[Undo]) -> Vec<WalOp> {
    let mut ops = Vec::with_capacity(undo.len());
    for record in undo.iter().rev() {
        match record {
            Undo::Insert { table, id } => ops.push(WalOp::Delete {
                table: table.to_ascii_lowercase(),
                id: *id,
            }),
            Undo::Update { table, id, old } => ops.push(WalOp::Update {
                table: table.to_ascii_lowercase(),
                id: *id,
                row: old.clone(),
            }),
            Undo::Delete { table, id, old } => ops.push(WalOp::Insert {
                table: table.to_ascii_lowercase(),
                id: *id,
                row: old.clone(),
            }),
            Undo::CreateTable { name } => ops.push(WalOp::Ddl {
                sql: format!("DROP TABLE {name}"),
            }),
            Undo::DropTable {
                name,
                data,
                indexes,
            } => {
                // Undoing a DROP TABLE recreates everything: schema (whose
                // constraints recreate the system indexes), secondary
                // indexes, then every surviving row at its original id.
                ops.push(WalOp::Ddl {
                    sql: crate::dump::create_table_sql(name, &data.schema),
                });
                for idx in indexes {
                    if !crate::dump::implied_by_constraint(idx, &data.schema) {
                        let column = &data.schema.columns[idx.column].name;
                        ops.push(WalOp::Ddl {
                            sql: crate::dump::create_index_sql(idx, column),
                        });
                    }
                }
                for (id, row) in data.heap.iter() {
                    ops.push(WalOp::Insert {
                        table: name.clone(),
                        id,
                        row: row.clone(),
                    });
                }
            }
            Undo::CreateIndex { name, .. } => ops.push(WalOp::Ddl {
                sql: format!("DROP INDEX {name}"),
            }),
            Undo::DropIndex { index } => {
                if let Some(t) = work.tables.get(&index.table) {
                    let column = &t.schema.columns[index.column].name;
                    ops.push(WalOp::Ddl {
                        sql: crate::dump::create_index_sql(index, column),
                    });
                }
            }
        }
    }
    ops
}

/// Apply one mutation statement to a working state, recording undo entries.
/// `pub(crate)` so WAL recovery can replay logged DDL through the same path.
pub(crate) fn apply_mutation(
    state: &mut DbState,
    stmt: Statement,
    params: &[Value],
    undo: &mut Vec<Undo>,
    ctx: &RequestCtx,
) -> SqlResult<ExecResult> {
    match stmt {
        Statement::Insert {
            table,
            columns,
            values,
            select,
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
            // INSERT ... SELECT: evaluate the query first, then insert its
            // rows (fully materialized, so self-insertion cannot loop).
            if let Some(select) = select {
                let rs = run_select(state, &select, params, ctx)?;
                if rs.columns.len() != ordinals.len() {
                    return Err(SqlError::syntax(format!(
                        "INSERT target has {} columns but SELECT produced {}",
                        ordinals.len(),
                        rs.columns.len()
                    )));
                }
                let mut inserted = 0usize;
                for src_row in rs.rows {
                    let mut row = vec![Value::Null; width];
                    for (value, &ordinal) in src_row.into_iter().zip(&ordinals) {
                        row[ordinal] = value;
                    }
                    let row = schema.check_row(row)?;
                    let id = state.insert_row(&table, row)?;
                    undo.push(Undo::Insert {
                        table: table.clone(),
                        id,
                    });
                    inserted += 1;
                }
                return Ok(ExecResult::Count(inserted));
            }
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
                for (expr, &ordinal) in tuple.iter().zip(&ordinals) {
                    let expr = crate::exec::rewrite_expr_subqueries(state, expr, params, ctx)?;
                    row[ordinal] = eval(&expr, &[], params, &NoAggregates)?;
                }
                let row = schema.check_row(row)?;
                let id = state.insert_row(&table, row)?;
                undo.push(Undo::Insert {
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
            let (schema, bindings, targets) =
                collect_targets(state, &table, where_clause.as_ref(), params, ctx)?;
            let ordinals: Vec<usize> = assignments
                .iter()
                .map(|(c, _)| schema.require_column(c))
                .collect::<SqlResult<_>>()?;
            // Subqueries run, and columns bind, once — before the row loop
            // and so against the table as it was before the statement.
            let exprs = (assignments.iter())
                .map(|(_, e)| {
                    let mut e = crate::exec::rewrite_expr_subqueries(state, e, params, ctx)?;
                    bindings.bind(&mut e).map(|()| e)
                })
                .collect::<SqlResult<Vec<_>>>()?;
            let mut updated = 0usize;
            for (id, old_row) in targets {
                let mut new_row = old_row.clone();
                for (expr, &ordinal) in exprs.iter().zip(&ordinals) {
                    new_row[ordinal] = eval(expr, &old_row, params, &NoAggregates)?;
                }
                let new_row = schema.check_row(new_row)?;
                let old = state.update_row(&table, id, new_row)?;
                undo.push(Undo::Update {
                    table: table.clone(),
                    id,
                    old,
                });
                updated += 1;
            }
            Ok(ExecResult::Count(updated))
        }
        Statement::Delete {
            table,
            where_clause,
        } => {
            let (_, _, targets) =
                collect_targets(state, &table, where_clause.as_ref(), params, ctx)?;
            let mut deleted = 0usize;
            for (id, _) in targets {
                if let Some(old) = state.delete_row(&table, id)? {
                    undo.push(Undo::Delete {
                        table: table.clone(),
                        id,
                        old,
                    });
                    deleted += 1;
                }
            }
            Ok(ExecResult::Count(deleted))
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
                    stats: None,
                }),
            );
            state.bump_version(&key);
            undo.push(Undo::CreateTable { name: key });
            Ok(ExecResult::Ddl)
        }
        Statement::DropTable { name, if_exists } => {
            let key = name.to_ascii_lowercase();
            match state.tables.remove(&key) {
                Some(data) => {
                    let mut indexes = Vec::new();
                    for idx_name in &data.index_names {
                        if let Some(idx) = state.indexes.remove(idx_name) {
                            indexes.push(idx);
                        }
                    }
                    state.bump_version(&key);
                    undo.push(Undo::DropTable {
                        name: key,
                        data,
                        indexes,
                    });
                    Ok(ExecResult::Ddl)
                }
                None if if_exists => Ok(ExecResult::Ddl),
                None => Err(SqlError::no_such_table(&name)),
            }
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
            let mut index = Index::new(&key, &table_key, ordinal, unique);
            // Populate from existing rows; uniqueness can fail here.
            {
                let t = state.table(&table)?;
                for (id, row) in t.heap.iter() {
                    let v = row.get(ordinal).cloned().unwrap_or(Value::Null);
                    index.insert(&v, id)?;
                }
            }
            state.indexes.insert(key.clone(), Arc::new(index));
            state.table_mut(&table)?.index_names.push(key.clone());
            undo.push(Undo::CreateIndex {
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
            undo.push(Undo::DropIndex { index });
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

/// Rows of `table` matching the predicate, as `(id, row)` pairs, plus the
/// schema and single-table bindings used to evaluate per-row expressions.
#[allow(clippy::type_complexity)]
fn collect_targets(
    state: &DbState,
    table: &str,
    predicate: Option<&crate::ast::Expr>,
    params: &[Value],
    ctx: &RequestCtx,
) -> SqlResult<(TableSchema, Bindings, Vec<(RowId, Row)>)> {
    let t = state.table(table)?;
    let schema = t.schema.clone();
    let bindings = Bindings::single(
        table,
        schema.columns.iter().map(|c| c.name.clone()).collect(),
    );
    let predicate = predicate
        .map(|p| {
            let mut p = crate::exec::rewrite_expr_subqueries(state, p, params, ctx)?;
            bindings.bind(&mut p).map(|()| p)
        })
        .transpose()?;
    let mut targets = Vec::new();
    for (i, (id, row)) in t.heap.iter().enumerate() {
        if i % 128 == 0 {
            ctx.check().map_err(SqlError::cancelled)?;
        }
        let keep = match &predicate {
            Some(p) => eval_truth(p, row, params, &NoAggregates)?.passes(),
            None => true,
        };
        if keep {
            targets.push((id, row.clone()));
        }
    }
    Ok((schema, bindings, targets))
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let r = conn.execute("DELETE FROM guest WHERE id = 99").unwrap();
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
    fn rollback_restores_deleted_rows_and_updates() {
        let (db, mut conn) = fresh();
        conn.execute("INSERT INTO guest VALUES (1, 'Ada', 'x'), (2, 'Bob', 'y')")
            .unwrap();
        conn.execute("BEGIN").unwrap();
        conn.execute("DELETE FROM guest WHERE id = 1").unwrap();
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
        // Drop + rollback restores data.
        conn.execute("INSERT INTO guest VALUES (1, 'Ada', NULL)")
            .unwrap();
        conn.execute("BEGIN").unwrap();
        conn.execute("DROP TABLE guest").unwrap();
        conn.execute("ROLLBACK").unwrap();
        assert_eq!(db.table_len("guest").unwrap(), 1);
        // The PK index must be back as well: duplicate insert still fails.
        assert!(conn
            .execute("INSERT INTO guest VALUES (1, 'Dup', NULL)")
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
        conn.execute("UPDATE guest SET note = name || '!' WHERE id = 1")
            .unwrap();
        let r = conn.execute("SELECT note FROM guest").unwrap();
        assert_eq!(r.rows().unwrap().rows[0][0], Value::Text("Ada!".into()));
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
        let (_db, mut conn) = fresh();
        conn.execute("CREATE TABLE IF NOT EXISTS guest (id INTEGER)")
            .unwrap();
        conn.execute("DROP TABLE IF EXISTS nothere").unwrap();
        assert!(conn.execute("DROP TABLE nothere").is_err());
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
        assert_eq!(row[1], Value::Text("Ada".into()));
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

    /// Columns resolve once per (expression, scope) per statement, never per
    /// row: `Bindings::resolve` is called as often on 10 000 rows as on 10.
    #[test]
    fn columns_resolve_once_per_statement() {
        let resolves = |n: usize| -> Vec<u64> {
            let db = Database::new();
            db.run_script(
                "CREATE TABLE a (id INTEGER, n INTEGER, x VARCHAR(20));
                 CREATE TABLE b (id INTEGER, y INTEGER);",
            )
            .unwrap();
            for lo in (0..n).step_by(500) {
                let tuples = |f: &dyn Fn(usize) -> String| {
                    (lo..n.min(lo + 500)).map(f).collect::<Vec<_>>().join(",")
                };
                db.run_script(&format!(
                    "INSERT INTO a VALUES {}; INSERT INTO b VALUES {};",
                    tuples(&|i| format!("({i}, {}, 'r{i}')", i % 7)),
                    tuples(&|i| format!("({i}, {})", i % 5)),
                ))
                .unwrap();
            }
            assert_eq!(db.table_len("a").unwrap(), n);
            let mut conn = db.connect();
            [
                "SELECT id FROM a WHERE x LIKE '%1%' OR n = 3",
                "SELECT a.x, b.y FROM a JOIN b ON a.id = b.id AND a.n > b.y WHERE a.n + b.y > 1",
                "SELECT x, n FROM a ORDER BY n DESC, x",
                "SELECT n, COUNT(*) FROM a GROUP BY n HAVING MIN(id) >= 0 ORDER BY 2",
                "UPDATE a SET n = n + id WHERE x LIKE 'r1%'",
                "DELETE FROM a WHERE n = 2",
            ]
            .iter()
            .map(|sql| {
                let before = crate::eval::RESOLVES.with(|c| c.get());
                conn.execute(sql).unwrap();
                crate::eval::RESOLVES.with(|c| c.get()) - before
            })
            .collect()
        };
        let small = resolves(10);
        assert!(small.iter().all(|&c| c > 0), "{small:?}");
        assert_eq!(small, resolves(10_000));
    }
}
