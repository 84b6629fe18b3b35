//! Conversational transactions across client-server interactions.
//!
//! §5 of the paper: the shipped system offered two transaction modes *within*
//! one request and "a rudimentary scheme for linking multiple client-server
//! interactions"; the authors state "we are working on supporting more
//! complex transaction modes in the future". This module implements that
//! future work: a transaction that stays open across several HTTP requests,
//! carried by a hidden `DTW_SESSION` variable (the product's reserved-name
//! convention), committed or aborted by a final request.
//!
//! Protocol (all via ordinary form variables, so macros stay plain HTML):
//!
//! * `DTW_SESSION=new` — open a session: the gateway allocates an id, opens a
//!   dedicated DBMS connection, issues `BEGIN`, and defines `SESSION_ID` for
//!   the macro (which embeds it in hidden fields / hyperlinks).
//! * `DTW_SESSION=<id>` — run this request's SQL on the session's connection,
//!   inside the still-open transaction.
//! * `DTW_SESSION=<id>` + `DTW_END=commit` / `DTW_END=abort` — finish.
//!
//! Sessions expire after a TTL (abandoned browsers must not pin locks
//! forever); expiry rolls back.

use crate::sync::Mutex;
use dbgw_core::db::{Database, DbError};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Reserved input variable selecting/creating a session.
pub const SESSION_VAR: &str = "DTW_SESSION";
/// Reserved input variable ending a session (`commit` or `abort`).
pub const END_VAR: &str = "DTW_END";
/// Variable the gateway defines for macros to embed.
pub const SESSION_ID_VAR: &str = "SESSION_ID";

struct Entry {
    conn: Box<dyn Database + Send>,
    last_used: Instant,
}

/// Holds open conversations. Each session carries its own lock, so requests
/// in *different* conversations run concurrently; requests within one
/// conversation serialize (it is one user clicking through pages).
pub struct SessionManager {
    sessions: Mutex<HashMap<String, Arc<Mutex<Entry>>>>,
    counter: AtomicU64,
    ttl: Duration,
}

/// What a request asked the session layer to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionAction {
    /// No session involvement: use a fresh per-request connection.
    None,
    /// A new session was created with this id.
    Started(String),
    /// An existing session continues.
    Continued(String),
    /// The session ended (committed = true) with this id.
    Ended {
        /// The session id.
        id: String,
        /// Whether the transaction committed (vs rolled back).
        committed: bool,
    },
    /// The id was unknown or expired.
    Unknown(String),
}

impl SessionManager {
    /// Manager with a time-to-live for idle sessions.
    pub fn new(ttl: Duration) -> SessionManager {
        SessionManager {
            sessions: Mutex::new(HashMap::new()),
            counter: AtomicU64::new(1),
            ttl,
        }
    }

    /// Number of live sessions (after reaping).
    pub fn live(&self) -> usize {
        self.reap();
        self.sessions.lock().len()
    }

    /// Roll back and drop sessions idle past the TTL.
    pub fn reap(&self) {
        let mut sessions = self.sessions.lock();
        let now = Instant::now();
        sessions.retain(|_, slot| {
            // A session whose lock is held is in use: keep it.
            let Some(mut entry) = slot.try_lock() else {
                return true;
            };
            let keep = now.duration_since(entry.last_used) < self.ttl;
            if !keep {
                let _ = entry.conn.rollback();
            }
            keep
        });
    }

    /// Open a session around `conn` (the caller supplies the dedicated
    /// connection; `BEGIN` is issued here). Returns the new id.
    pub fn start(&self, mut conn: Box<dyn Database + Send>) -> Result<String, DbError> {
        conn.begin()?;
        let id = format!("s{}", self.counter.fetch_add(1, Ordering::Relaxed));
        self.sessions.lock().insert(
            id.clone(),
            Arc::new(Mutex::new(Entry {
                conn,
                last_used: Instant::now(),
            })),
        );
        Ok(id)
    }

    /// Borrow the session's connection for one request. Only this session's
    /// lock is held while the closure runs; other conversations proceed.
    pub fn with_session<R>(
        &self,
        id: &str,
        f: impl FnOnce(&mut (dyn Database + Send)) -> R,
    ) -> Option<R> {
        self.reap();
        let slot = self.sessions.lock().get(id).cloned()?;
        let mut entry = slot.lock();
        entry.last_used = Instant::now();
        Some(f(entry.conn.as_mut()))
    }

    /// Commit (or roll back) and drop the session.
    pub fn end(&self, id: &str, commit: bool) -> Option<Result<(), DbError>> {
        let slot = self.sessions.lock().remove(id)?;
        let mut entry = slot.lock();
        Some(if commit {
            entry.conn.commit()
        } else {
            entry.conn.rollback()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bridge::MiniSqlDatabase;

    fn db() -> minisql::Database {
        let db = minisql::Database::new();
        db.run_script("CREATE TABLE t (v INTEGER)").unwrap();
        db
    }

    #[test]
    fn conversation_commits_atomically() {
        let base = db();
        let mgr = SessionManager::new(Duration::from_secs(60));
        let id = mgr
            .start(Box::new(MiniSqlDatabase::connect(&base)))
            .unwrap();
        // Two "requests" write inside the conversation.
        for v in [1, 2] {
            mgr.with_session(&id, |conn| {
                conn.execute(&format!("INSERT INTO t VALUES ({v})"))
                    .unwrap();
            })
            .unwrap();
        }
        // Invisible to other connections until the conversation commits.
        assert_eq!(base.table_len("t").unwrap(), 0);
        mgr.end(&id, true).unwrap().unwrap();
        assert_eq!(base.table_len("t").unwrap(), 2);
        assert_eq!(mgr.live(), 0);
    }

    #[test]
    fn conversation_abort_rolls_back_all_requests() {
        let base = db();
        let mgr = SessionManager::new(Duration::from_secs(60));
        let id = mgr
            .start(Box::new(MiniSqlDatabase::connect(&base)))
            .unwrap();
        for v in [1, 2, 3] {
            mgr.with_session(&id, |conn| {
                conn.execute(&format!("INSERT INTO t VALUES ({v})"))
                    .unwrap();
            })
            .unwrap();
        }
        mgr.end(&id, false).unwrap().unwrap();
        assert_eq!(base.table_len("t").unwrap(), 0);
    }

    #[test]
    fn unknown_session_is_none() {
        let mgr = SessionManager::new(Duration::from_secs(60));
        assert!(mgr.with_session("s99", |_| ()).is_none());
        assert!(mgr.end("s99", true).is_none());
    }

    #[test]
    fn expired_session_rolls_back() {
        let base = db();
        let mgr = SessionManager::new(Duration::from_millis(1));
        let id = mgr
            .start(Box::new(MiniSqlDatabase::connect(&base)))
            .unwrap();
        mgr.with_session(&id, |conn| {
            conn.execute("INSERT INTO t VALUES (1)").unwrap();
        })
        .unwrap();
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(mgr.live(), 0);
        assert!(mgr.with_session(&id, |_| ()).is_none());
        assert_eq!(base.table_len("t").unwrap(), 0);
    }

    #[test]
    fn independent_conversations_do_not_serialize() {
        // One session blocked inside a request must not stop another
        // conversation from making progress.
        let base = db();
        let mgr = std::sync::Arc::new(SessionManager::new(Duration::from_secs(60)));
        let a = mgr
            .start(Box::new(MiniSqlDatabase::connect(&base)))
            .unwrap();
        let b = mgr
            .start(Box::new(MiniSqlDatabase::connect(&base)))
            .unwrap();
        let (entered_tx, entered_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let mgr_a = std::sync::Arc::clone(&mgr);
        let a_clone = a.clone();
        let holder = std::thread::spawn(move || {
            mgr_a.with_session(&a_clone, |conn| {
                conn.execute("INSERT INTO t VALUES (1)").unwrap();
                entered_tx.send(()).unwrap();
                release_rx.recv().unwrap(); // hold session a open
            });
        });
        entered_rx.recv().unwrap();
        // Session b proceeds while a is held.
        mgr.with_session(&b, |conn| {
            conn.execute("INSERT INTO t VALUES (2)").unwrap();
        })
        .expect("session b usable while a is busy");
        release_tx.send(()).unwrap();
        holder.join().unwrap();
        mgr.end(&a, false);
        mgr.end(&b, false);
    }

    #[test]
    fn ids_are_unique() {
        let base = db();
        let mgr = SessionManager::new(Duration::from_secs(60));
        let a = mgr
            .start(Box::new(MiniSqlDatabase::connect(&base)))
            .unwrap();
        let b = mgr
            .start(Box::new(MiniSqlDatabase::connect(&base)))
            .unwrap();
        assert_ne!(a, b);
        assert_eq!(mgr.live(), 2);
    }
}
