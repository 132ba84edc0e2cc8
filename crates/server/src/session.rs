//! Server-side session registry.
//!
//! Each client session wraps one [`MonitorSession`] (the core monitor's
//! per-tuple state) with a server id and an idle clock. The registry is
//! a two-level lock: the map itself is held only to look up / insert /
//! remove, while per-session work (validation, fixpoint runs) happens
//! under that session's own mutex — so concurrent clients on different
//! sessions never serialize behind each other's rule engine runs.

use cerfix::MonitorSession;
use cerfix_relation::Tuple;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A registered session: monitor state plus its idle clock.
#[derive(Debug)]
pub struct SessionEntry {
    /// The core monitor session (tuple, validated sets, round count).
    pub session: MonitorSession,
    /// Last time a client touched this session.
    pub last_touched: Instant,
}

/// Why a session lookup failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// No such id (never existed, committed, aborted, or evicted).
    NotFound(u64),
    /// The registry is at capacity.
    Full {
        /// The configured capacity that was hit.
        max_sessions: usize,
    },
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::NotFound(id) => write!(
                f,
                "unknown session {id} (expired, finished, or never created)"
            ),
            SessionError::Full { max_sessions } => {
                write!(f, "session registry full ({max_sessions} live sessions)")
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// The concurrent session registry with idle eviction.
#[derive(Debug)]
pub struct SessionManager {
    sessions: Mutex<HashMap<u64, Arc<Mutex<SessionEntry>>>>,
    next_id: AtomicU64,
    idle_ttl: Duration,
    max_sessions: usize,
}

impl SessionManager {
    /// A registry evicting sessions idle for `idle_ttl`, holding at most
    /// `max_sessions` live sessions.
    pub fn new(idle_ttl: Duration, max_sessions: usize) -> SessionManager {
        SessionManager {
            sessions: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            idle_ttl,
            max_sessions: max_sessions.max(1),
        }
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        lock(&self.sessions).len()
    }

    /// True iff no sessions are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured live-session quota.
    pub fn max_sessions(&self) -> usize {
        self.max_sessions
    }

    /// True iff the registry is at its live-session quota (an
    /// `overloaded` ready-cause; the next `create` must evict or fail).
    pub fn at_capacity(&self) -> bool {
        self.len() >= self.max_sessions
    }

    /// Open a session over `tuple` and return its server id, which is
    /// also the session's `tuple_id` (the monitor's audit attribution).
    /// Runs an eviction sweep first when at capacity.
    pub fn create(&self, tuple: Tuple) -> Result<u64, SessionError> {
        self.create_with(tuple, |_, _| {})
    }

    /// [`create`](Self::create), running `created` on the new session
    /// before any other request can reach it — the service journals the
    /// session's creation from its own cells there, so no event about
    /// the id can be journaled ahead of it.
    pub fn create_with(
        &self,
        tuple: Tuple,
        created: impl FnOnce(u64, &MonitorSession),
    ) -> Result<u64, SessionError> {
        if self.len() >= self.max_sessions {
            self.evict_idle();
        }
        let mut map = lock(&self.sessions);
        if map.len() >= self.max_sessions {
            return Err(SessionError::Full {
                max_sessions: self.max_sessions,
            });
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let session = MonitorSession::new(id as usize, tuple);
        created(id, &session);
        map.insert(
            id,
            Arc::new(Mutex::new(SessionEntry {
                session,
                last_touched: Instant::now(),
            })),
        );
        Ok(id)
    }

    /// Re-register a recovered session under its original id (journal /
    /// snapshot replay) and keep the id allocator ahead of it. Replaces
    /// any existing entry with that id (replay is the authority).
    pub fn restore(&self, id: u64, session: MonitorSession) {
        let mut map = lock(&self.sessions);
        map.insert(
            id,
            Arc::new(Mutex::new(SessionEntry {
                session,
                last_touched: Instant::now(),
            })),
        );
        self.next_id.fetch_max(id + 1, Ordering::Relaxed);
    }

    /// Clone every live session, sorted by id — the snapshotter's view.
    /// Sessions mid-operation are cloned after that operation finishes
    /// (their entry lock is taken); the service-level storage gate keeps
    /// the set itself stable while this runs.
    pub fn export(&self) -> Vec<(u64, MonitorSession)> {
        let entries: Vec<(u64, Arc<Mutex<SessionEntry>>)> = lock(&self.sessions)
            .iter()
            .map(|(&id, entry)| (id, Arc::clone(entry)))
            .collect();
        let mut sessions: Vec<(u64, MonitorSession)> = entries
            .into_iter()
            .map(|(id, entry)| (id, lock(&entry).session.clone()))
            .collect();
        sessions.sort_by_key(|&(id, _)| id);
        sessions
    }

    /// The id the next `create` will hand out.
    pub fn next_id(&self) -> u64 {
        self.next_id.load(Ordering::Relaxed)
    }

    /// Reserve `n` consecutive ids from the session-id space without
    /// registering sessions (batch `clean` jobs use them for audit
    /// attribution, so batch tuples and interactive sessions never
    /// collide in the provenance stream). Returns the first id.
    pub fn allocate_ids(&self, n: u64) -> u64 {
        self.next_id.fetch_add(n, Ordering::Relaxed)
    }

    /// Move the id allocator forward to at least `id` (snapshot replay).
    pub fn advance_next_id(&self, id: u64) {
        self.next_id.fetch_max(id, Ordering::Relaxed);
    }

    /// Run `f` on the session, setting its idle clock to `touched` (a
    /// request passes its own start, so touching reads no clock). The
    /// map lock is released before `f` runs; only that session's lock
    /// is held.
    pub fn with_session<R>(
        &self,
        id: u64,
        touched: Instant,
        f: impl FnOnce(&mut MonitorSession) -> R,
    ) -> Result<R, SessionError> {
        let entry = lock(&self.sessions)
            .get(&id)
            .cloned()
            .ok_or(SessionError::NotFound(id))?;
        let mut guard = lock(&entry);
        guard.last_touched = touched;
        Ok(f(&mut guard.session))
    }

    /// Remove the session, returning its final state (commit/abort).
    pub fn remove(&self, id: u64) -> Result<MonitorSession, SessionError> {
        let entry = lock(&self.sessions)
            .remove(&id)
            .ok_or(SessionError::NotFound(id))?;
        // The Arc may still be briefly held by a concurrent `with_session`
        // caller; wait for it by locking, then move the state out.
        let guard = lock(&entry);
        Ok(guard.session.clone())
    }

    /// Evict sessions idle longer than the TTL; returns the evicted ids
    /// (the service journals them so recovery doesn't resurrect them).
    pub fn evict_idle(&self) -> Vec<u64> {
        let now = Instant::now();
        let mut map = lock(&self.sessions);
        let mut evicted = Vec::new();
        map.retain(|&id, entry| {
            // Skip (keep) sessions currently being operated on.
            let keep = match entry.try_lock() {
                Ok(guard) => now.duration_since(guard.last_touched) < self.idle_ttl,
                Err(_) => true,
            };
            if !keep {
                evicted.push(id);
            }
            keep
        });
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cerfix_relation::Schema;

    fn mk_tuple() -> Tuple {
        let schema = Schema::of_strings("t", ["a", "b"]).unwrap();
        Tuple::of_strings(schema, ["1", "2"]).unwrap()
    }

    fn mk_session(id: usize) -> MonitorSession {
        MonitorSession::new(id, mk_tuple())
    }

    #[test]
    fn create_use_remove() {
        let mgr = SessionManager::new(Duration::from_secs(60), 16);
        let id = mgr.create(mk_tuple()).unwrap();
        assert_eq!(mgr.len(), 1);
        let arity = mgr
            .with_session(id, Instant::now(), |s| s.tuple.arity())
            .unwrap();
        assert_eq!(arity, 2);
        let session = mgr.remove(id).unwrap();
        assert_eq!(session.tuple_id as u64, id, "the session carries its id");
        assert!(mgr.is_empty());
        assert_eq!(
            mgr.with_session(id, Instant::now(), |_| ()),
            Err(SessionError::NotFound(id))
        );
        assert!(matches!(mgr.remove(id), Err(SessionError::NotFound(_))));
    }

    #[test]
    fn ids_are_unique() {
        let mgr = SessionManager::new(Duration::from_secs(60), 64);
        let ids: std::collections::BTreeSet<u64> =
            (0..32).map(|_| mgr.create(mk_tuple()).unwrap()).collect();
        assert_eq!(ids.len(), 32);
    }

    #[test]
    fn idle_eviction() {
        let mgr = SessionManager::new(Duration::from_millis(10), 16);
        let id = mgr.create(mk_tuple()).unwrap();
        assert!(mgr.evict_idle().is_empty(), "fresh session survives");
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(mgr.evict_idle(), vec![id]);
        assert!(matches!(
            mgr.with_session(id, Instant::now(), |_| ()),
            Err(SessionError::NotFound(_))
        ));
    }

    #[test]
    fn capacity_enforced_with_eviction_rescue() {
        let mgr = SessionManager::new(Duration::from_millis(5), 2);
        mgr.create(mk_tuple()).unwrap();
        mgr.create(mk_tuple()).unwrap();
        // Both fresh: third create fails.
        assert!(matches!(
            mgr.create(mk_tuple()),
            Err(SessionError::Full { .. })
        ));
        // Once idle, capacity frees up via the create-path sweep.
        std::thread::sleep(Duration::from_millis(15));
        assert!(mgr.create(mk_tuple()).is_ok());
        assert_eq!(mgr.len(), 1);
    }

    #[test]
    fn touch_resets_idle_clock() {
        let mgr = SessionManager::new(Duration::from_millis(30), 16);
        let id = mgr.create(mk_tuple()).unwrap();
        for _ in 0..4 {
            std::thread::sleep(Duration::from_millis(15));
            mgr.with_session(id, Instant::now(), |_| ()).unwrap();
        }
        assert!(mgr.evict_idle().is_empty(), "kept alive by touches");
    }

    #[test]
    fn restore_preserves_ids_and_advances_allocator() {
        let mgr = SessionManager::new(Duration::from_secs(60), 16);
        mgr.restore(7, mk_session(7));
        mgr.restore(12, mk_session(12));
        assert_eq!(mgr.len(), 2);
        assert!(mgr.next_id() >= 13, "allocator moved past restored ids");
        let fresh = mgr.create(mk_tuple()).unwrap();
        assert!(fresh > 12, "no id collision after recovery");
        let exported = mgr.export();
        assert_eq!(
            exported.iter().map(|&(id, _)| id).collect::<Vec<_>>(),
            vec![7, 12, fresh],
            "export is id-sorted"
        );
        assert_eq!(exported[0].1.tuple_id, 7);
    }
}
