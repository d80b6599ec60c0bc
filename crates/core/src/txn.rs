//! MVCC transactions: snapshot isolation with first-updater-wins conflicts
//! and as-of (historic) reads.
//!
//! HTAP engines "detach analytic query execution from mission-critical
//! transactional data" (Section I, challenge b.iii): long OLAP scans read a
//! consistent snapshot while short OLTP transactions commit concurrently.
//! L-Store additionally supports *historic querying* (Section IV-B4), which
//! falls out of version chains naturally via [`MvStore::get_as_of`].
//!
//! Model: a global timestamp clock issues begin and commit timestamps.
//! Versions carry `[begin, end)` stamp ranges; a pending stamp encodes the
//! writing transaction until commit. Writers conflict eagerly
//! (first-updater-wins): updating a key whose newest version is pending by
//! another transaction, or committed after the updater's snapshot, aborts.

use crate::sync::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::ops::RangeBounds;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::error::{Error, Result};
use crate::obs;

/// Registry handles for transaction lifecycle events, resolved once.
struct TxnCounters {
    begins: Arc<obs::Counter>,
    commits: Arc<obs::Counter>,
    aborts: Arc<obs::Counter>,
    conflicts: Arc<obs::Counter>,
}

fn counters() -> &'static TxnCounters {
    static C: OnceLock<TxnCounters> = OnceLock::new();
    C.get_or_init(|| TxnCounters {
        begins: obs::metrics().counter("txn.begins"),
        commits: obs::metrics().counter("txn.commits"),
        aborts: obs::metrics().counter("txn.aborts"),
        conflicts: obs::metrics().counter("txn.conflicts"),
    })
}

fn conflict(txn: TxnId) -> Error {
    counters().conflicts.inc();
    obs::instant("txn", "txn.conflict");
    Error::TxnConflict { txn }
}

/// Transaction identifier.
pub type TxnId = u64;
/// Logical commit timestamp.
pub type Timestamp = u64;

const PENDING_BIT: u64 = 1 << 63;
const INF: u64 = !PENDING_BIT;

#[inline]
fn pending(txn: TxnId) -> u64 {
    txn | PENDING_BIT
}

#[inline]
fn is_pending(stamp: u64) -> bool {
    stamp & PENDING_BIT != 0
}

#[inline]
fn pending_txn(stamp: u64) -> TxnId {
    stamp & !PENDING_BIT
}

/// A handle to an open transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Txn {
    pub id: TxnId,
    /// Snapshot timestamp: this transaction sees versions committed at or
    /// before `start_ts`.
    pub start_ts: Timestamp,
}

/// Issues transaction ids / timestamps and tracks the active transactions.
#[derive(Debug)]
pub struct TxnManager {
    clock: AtomicU64,
    next_txn: AtomicU64,
    /// Active transactions with their snapshot timestamps (the GC
    /// horizon); a transaction leaves when it commits or aborts.
    active: RwLock<HashMap<TxnId, Timestamp>>,
}

impl Default for TxnManager {
    fn default() -> Self {
        Self::new()
    }
}

impl TxnManager {
    pub fn new() -> Self {
        TxnManager {
            clock: AtomicU64::new(1),
            next_txn: AtomicU64::new(1),
            active: RwLock::new(HashMap::new()),
        }
    }

    /// Start a transaction with a snapshot at the current time.
    pub fn begin(&self) -> Txn {
        let id = self.next_txn.fetch_add(1, Ordering::Relaxed);
        let start_ts = self.clock.load(Ordering::SeqCst);
        self.active.write().insert(id, start_ts);
        counters().begins.inc();
        Txn { id, start_ts }
    }

    /// Current logical time — a read-only snapshot timestamp.
    pub fn now(&self) -> Timestamp {
        self.clock.load(Ordering::SeqCst)
    }

    fn check_active(&self, txn: &Txn) -> Result<()> {
        if self.active.read().contains_key(&txn.id) {
            Ok(())
        } else {
            Err(Error::TxnNotActive { txn: txn.id })
        }
    }

    /// Snapshot timestamp of the oldest still-active transaction — the
    /// garbage-collection horizon: versions only older readers could see
    /// are reclaimable once this passes them.
    pub fn oldest_active_start(&self) -> Option<Timestamp> {
        self.active.read().values().copied().min()
    }

    fn finish(&self, txn: &Txn, commit: bool) -> Result<Option<Timestamp>> {
        let mut active = self.active.write();
        if active.remove(&txn.id).is_none() {
            return Err(Error::TxnNotActive { txn: txn.id });
        }
        if commit {
            let ts = self.clock.fetch_add(1, Ordering::SeqCst) + 1;
            counters().commits.inc();
            Ok(Some(ts))
        } else {
            counters().aborts.inc();
            Ok(None)
        }
    }
}

#[derive(Debug, Clone)]
struct Version<V> {
    /// `None` is a tombstone (deleted).
    value: Option<V>,
    begin: u64,
    end: u64,
}

/// Committed `(key, value)` pairs in write order (`None` = tombstone),
/// as returned by [`MvStore::commit_with_writes`].
pub type CommittedWrites<K, V> = Vec<(K, Option<V>)>;

/// A multi-versioned key-value store bound to a [`TxnManager`].
#[derive(Debug)]
pub struct MvStore<K, V> {
    mgr: Arc<TxnManager>,
    /// Version chains in key order, so the keys of a range (say, every
    /// field of one row under a `(row, attr)` key) are one ordered read.
    chains: RwLock<BTreeMap<K, Vec<Version<V>>>>,
    write_sets: Mutex<HashMap<TxnId, Vec<K>>>,
}

impl<K: Ord + Clone, V: Clone> MvStore<K, V> {
    pub fn new(mgr: Arc<TxnManager>) -> Self {
        MvStore {
            mgr,
            chains: RwLock::new(BTreeMap::new()),
            write_sets: Mutex::new(HashMap::new()),
        }
    }

    pub fn manager(&self) -> &Arc<TxnManager> {
        &self.mgr
    }

    /// Write `key → value` within `txn`.
    pub fn put(&self, txn: &Txn, key: K, value: V) -> Result<()> {
        self.write(txn, key, Some(value))
    }

    /// Delete `key` within `txn` (tombstone).
    pub fn delete(&self, txn: &Txn, key: K) -> Result<()> {
        self.write(txn, key, None)
    }

    fn write(&self, txn: &Txn, key: K, value: Option<V>) -> Result<()> {
        self.mgr.check_active(txn)?;
        let mut chains = self.chains.write();
        let chain = chains.entry(key.clone()).or_default();
        if let Some(last) = chain.last_mut() {
            if is_pending(last.begin) {
                if pending_txn(last.begin) == txn.id {
                    // Overwrite our own uncommitted write in place.
                    last.value = value;
                    return Ok(());
                }
                return Err(conflict(txn.id));
            }
            // Newest committed version: first-updater-wins against anything
            // committed after our snapshot.
            if last.begin > txn.start_ts {
                return Err(conflict(txn.id));
            }
            if is_pending(last.end) {
                // Someone else already superseded this version.
                return Err(conflict(txn.id));
            }
            debug_assert_eq!(last.end, INF, "newest version must be open-ended");
            last.end = pending(txn.id);
        }
        chain.push(Version { value, begin: pending(txn.id), end: INF });
        self.write_sets.lock().entry(txn.id).or_default().push(key);
        Ok(())
    }

    /// Read `key` as seen by `txn` (own writes included).
    pub fn get(&self, txn: &Txn, key: &K) -> Option<V> {
        let chains = self.chains.read();
        let chain = chains.get(key)?;
        for v in chain.iter().rev() {
            if self.version_visible(v, txn.id, txn.start_ts) {
                return v.value.clone();
            }
        }
        None
    }

    /// Read `key` as of commit timestamp `ts` (historic query; no
    /// transaction needed).
    pub fn get_as_of(&self, ts: Timestamp, key: &K) -> Option<V> {
        let chains = self.chains.read();
        let chain = chains.get(key)?;
        for v in chain.iter().rev() {
            if self.version_visible(v, TxnId::MAX, ts) {
                return v.value.clone();
            }
        }
        None
    }

    fn version_visible(&self, v: &Version<V>, reader: TxnId, ts: Timestamp) -> bool {
        let begin_ok =
            if is_pending(v.begin) { pending_txn(v.begin) == reader } else { v.begin <= ts };
        if !begin_ok {
            return false;
        }
        if is_pending(v.end) {
            // The superseding write is uncommitted: still visible to others,
            // invisible to the superseder itself.
            pending_txn(v.end) != reader
        } else {
            v.end > ts
        }
    }

    /// Commit `txn`'s writes; returns the commit timestamp.
    ///
    /// The commit timestamp is issued and every stamp applied *under the
    /// chains write lock*, so no reader can obtain a snapshot that lies
    /// between "clock advanced" and "versions stamped" — the atomicity a
    /// multi-key transaction needs against concurrent as-of scans.
    pub fn commit(&self, txn: &Txn) -> Result<Timestamp> {
        Ok(self.commit_with_writes(txn)?.0)
    }

    /// Commit `txn`'s writes, additionally returning the committed
    /// `(key, value)` pairs (`None` value = tombstone) in write order —
    /// the delta a downstream replica (e.g. a device-resident column copy)
    /// needs to catch up without rescanning the store.
    pub fn commit_with_writes(&self, txn: &Txn) -> Result<(Timestamp, CommittedWrites<K, V>)> {
        let keys = {
            let mut sets = self.write_sets.lock();
            sets.remove(&txn.id).unwrap_or_default()
        };
        let mut chains = self.chains.write();
        let ts = match self.mgr.finish(txn, true) {
            Ok(ts) => ts.expect("commit returns a timestamp"),
            Err(e) => {
                // Restore the write set so a later abort can clean up.
                if !keys.is_empty() {
                    self.write_sets.lock().insert(txn.id, keys);
                }
                return Err(e);
            }
        };
        let mut writes = Vec::with_capacity(keys.len());
        for key in keys {
            if let Some(chain) = chains.get_mut(&key) {
                for v in chain.iter_mut() {
                    if is_pending(v.begin) && pending_txn(v.begin) == txn.id {
                        v.begin = ts;
                        writes.push((key.clone(), v.value.clone()));
                    }
                    if is_pending(v.end) && pending_txn(v.end) == txn.id {
                        v.end = ts;
                    }
                }
            }
        }
        Ok((ts, writes))
    }

    /// Abort `txn`, rolling back its pending versions.
    pub fn abort(&self, txn: &Txn) -> Result<()> {
        self.mgr.finish(txn, false)?;
        let keys = self.write_sets.lock().remove(&txn.id).unwrap_or_default();
        let mut chains = self.chains.write();
        for key in keys {
            if let Some(chain) = chains.get_mut(&key) {
                chain.retain(|v| !(is_pending(v.begin) && pending_txn(v.begin) == txn.id));
                for v in chain.iter_mut() {
                    if is_pending(v.end) && pending_txn(v.end) == txn.id {
                        v.end = INF;
                    }
                }
                if chain.is_empty() {
                    chains.remove(&key);
                }
            }
        }
        Ok(())
    }

    /// Drop versions no snapshot at or after `before_ts` can see. Returns
    /// the number of versions pruned.
    pub fn vacuum(&self, before_ts: Timestamp) -> usize {
        let mut chains = self.chains.write();
        let mut pruned = 0;
        chains.retain(|_, chain| {
            let before = chain.len();
            chain.retain(|v| is_pending(v.end) || v.end == INF || v.end > before_ts);
            pruned += before - chain.len();
            !chain.is_empty()
        });
        pruned
    }

    /// Drop whole chains whose newest version is committed, open-ended,
    /// and already merged into external base storage, provided no reader
    /// with a snapshot at or after `horizon` could need any other version.
    /// Returns the number of versions dropped.
    ///
    /// Callers must have copied the newest committed value of every dropped
    /// chain into their base storage first (see the reference engine's
    /// merge step).
    pub fn prune_merged(&self, horizon: Timestamp) -> usize {
        let mut chains = self.chains.write();
        let mut dropped = 0;
        chains.retain(|_, chain| {
            let safe = chain.last().is_some_and(|newest| {
                !is_pending(newest.begin)
                    && newest.end == INF
                    && newest.begin <= horizon
                    && newest.value.is_some()
            }) && chain[..chain.len() - 1]
                .iter()
                .all(|v| !is_pending(v.end) && v.end <= horizon);
            if safe {
                dropped += chain.len();
            }
            !safe
        });
        dropped
    }

    /// Number of live keys as of now (committed view).
    pub fn len_committed(&self) -> usize {
        let ts = self.mgr.now();
        let chains = self.chains.read();
        chains
            .values()
            .filter(|chain| {
                chain
                    .iter()
                    .rev()
                    .find(|v| self.version_visible(v, TxnId::MAX, ts))
                    .map(|v| v.value.is_some())
                    .unwrap_or(false)
            })
            .count()
    }

    /// Total stored versions (for merge/vacuum instrumentation).
    pub fn version_count(&self) -> usize {
        self.chains.read().values().map(Vec::len).sum()
    }

    /// Whether the store holds no version at all. Exact in O(1): no chain
    /// is ever left empty — `write` pushes or fails before inserting, and
    /// `abort`, `vacuum` and `prune_merged` drop the chains they empty.
    pub fn is_empty(&self) -> bool {
        self.chains.read().is_empty()
    }

    /// Visit every key that [`get_as_of`](Self::get_as_of) would answer
    /// at commit timestamp `ts`, with that value, in key order, in one pass
    /// under one read of the version map (tombstoned keys are skipped).
    pub fn for_each_as_of(&self, ts: Timestamp, f: &mut dyn FnMut(&K, &V)) {
        self.for_each_in_as_of(ts, .., f)
    }

    /// [`for_each_as_of`](Self::for_each_as_of) over the keys in `range`
    /// only: one ordered range read of the version map.
    pub fn for_each_in_as_of(
        &self,
        ts: Timestamp,
        range: impl RangeBounds<K>,
        f: &mut dyn FnMut(&K, &V),
    ) {
        let chains = self.chains.read();
        for (k, chain) in chains.range(range) {
            if let Some(v) = chain.iter().rev().find(|v| self.version_visible(v, TxnId::MAX, ts)) {
                if let Some(val) = &v.value {
                    f(k, val);
                }
            }
        }
    }

    /// Visit every key's committed-as-of-now value.
    pub fn for_each_committed(&self, f: &mut dyn FnMut(&K, &V)) {
        self.for_each_as_of(self.mgr.now(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Arc<TxnManager>, MvStore<u64, String>) {
        let mgr = Arc::new(TxnManager::new());
        let store = MvStore::new(mgr.clone());
        (mgr, store)
    }

    #[test]
    fn commit_makes_writes_visible() {
        let (mgr, store) = setup();
        let t1 = mgr.begin();
        store.put(&t1, 1, "a".into()).unwrap();
        // Uncommitted: invisible to a new transaction.
        let t2 = mgr.begin();
        assert_eq!(store.get(&t2, &1), None);
        // Visible to itself.
        assert_eq!(store.get(&t1, &1), Some("a".into()));
        store.commit(&t1).unwrap();
        // Still invisible to t2 (snapshot taken before commit).
        assert_eq!(store.get(&t2, &1), None);
        let t3 = mgr.begin();
        assert_eq!(store.get(&t3, &1), Some("a".into()));
    }

    #[test]
    fn snapshot_isolation_for_long_readers() {
        let (mgr, store) = setup();
        let w0 = mgr.begin();
        store.put(&w0, 1, "v0".into()).unwrap();
        store.commit(&w0).unwrap();

        let olap = mgr.begin(); // long-running analytic reader
        for i in 1..=5 {
            let w = mgr.begin();
            store.put(&w, 1, format!("v{i}")).unwrap();
            store.commit(&w).unwrap();
        }
        // The reader still sees its snapshot despite five later commits.
        assert_eq!(store.get(&olap, &1), Some("v0".into()));
        let fresh = mgr.begin();
        assert_eq!(store.get(&fresh, &1), Some("v5".into()));
    }

    #[test]
    fn first_updater_wins() {
        let (mgr, store) = setup();
        let init = mgr.begin();
        store.put(&init, 1, "base".into()).unwrap();
        store.commit(&init).unwrap();

        let t1 = mgr.begin();
        let t2 = mgr.begin();
        store.put(&t1, 1, "t1".into()).unwrap();
        assert_eq!(store.put(&t2, 1, "t2".into()), Err(Error::TxnConflict { txn: t2.id }));
        store.commit(&t1).unwrap();
    }

    #[test]
    fn conflict_with_commit_after_snapshot() {
        let (mgr, store) = setup();
        let init = mgr.begin();
        store.put(&init, 1, "base".into()).unwrap();
        store.commit(&init).unwrap();

        let t1 = mgr.begin(); // snapshot now
        let t2 = mgr.begin();
        store.put(&t2, 1, "t2".into()).unwrap();
        store.commit(&t2).unwrap();
        // t1's snapshot predates t2's commit: write must conflict.
        assert_eq!(store.put(&t1, 1, "t1".into()), Err(Error::TxnConflict { txn: t1.id }));
    }

    #[test]
    fn abort_rolls_back() {
        let (mgr, store) = setup();
        let init = mgr.begin();
        store.put(&init, 1, "base".into()).unwrap();
        store.commit(&init).unwrap();

        let t = mgr.begin();
        store.put(&t, 1, "oops".into()).unwrap();
        store.put(&t, 2, "new".into()).unwrap();
        store.abort(&t).unwrap();

        let r = mgr.begin();
        assert_eq!(store.get(&r, &1), Some("base".into()));
        assert_eq!(store.get(&r, &2), None);
        // The key can be written again after the abort.
        let w = mgr.begin();
        store.put(&w, 1, "after".into()).unwrap();
        store.commit(&w).unwrap();
    }

    #[test]
    fn delete_and_tombstone_visibility() {
        let (mgr, store) = setup();
        let w = mgr.begin();
        store.put(&w, 1, "x".into()).unwrap();
        store.commit(&w).unwrap();

        let before_delete = mgr.now();
        let d = mgr.begin();
        store.delete(&d, 1).unwrap();
        store.commit(&d).unwrap();

        let r = mgr.begin();
        assert_eq!(store.get(&r, &1), None);
        // Historic read before the delete still sees the value.
        assert_eq!(store.get_as_of(before_delete, &1), Some("x".into()));
    }

    #[test]
    fn historic_queries_walk_versions() {
        let (mgr, store) = setup();
        let mut stamps = Vec::new();
        for i in 0..4 {
            let w = mgr.begin();
            store.put(&w, 7, format!("v{i}")).unwrap();
            stamps.push(store.commit(&w).unwrap());
        }
        for (i, ts) in stamps.iter().enumerate() {
            assert_eq!(store.get_as_of(*ts, &7), Some(format!("v{i}")));
        }
        assert_eq!(store.get_as_of(stamps[0] - 1, &7), None);
    }

    #[test]
    fn vacuum_prunes_dead_versions_only() {
        let (mgr, store) = setup();
        for i in 0..5 {
            let w = mgr.begin();
            store.put(&w, 1, format!("v{i}")).unwrap();
            store.commit(&w).unwrap();
        }
        assert_eq!(store.version_count(), 5);
        let pruned = store.vacuum(mgr.now());
        assert_eq!(pruned, 4);
        let r = mgr.begin();
        assert_eq!(store.get(&r, &1), Some("v4".into()));
    }

    #[test]
    fn operations_on_finished_txn_fail() {
        let (mgr, store) = setup();
        let t = mgr.begin();
        store.commit(&t).unwrap();
        assert_eq!(store.put(&t, 1, "x".into()), Err(Error::TxnNotActive { txn: t.id }));
        assert!(store.commit(&t).is_err());
        assert!(store.abort(&t).is_err());
    }

    #[test]
    fn finished_transactions_are_not_tracked() {
        let (mgr, store) = setup();
        for i in 0..10_000u64 {
            let t = mgr.begin();
            if i % 2 == 0 {
                store.put(&t, i % 7, format!("v{i}")).unwrap();
                store.commit(&t).unwrap();
            } else {
                store.put(&t, 100 + i % 5, "x".into()).unwrap();
                store.abort(&t).unwrap();
            }
        }
        assert!(mgr.active.read().is_empty(), "finished transactions must not be tracked");
        assert_eq!(mgr.oldest_active_start(), None);
        // A finished transaction stays finished: both outcomes are final.
        let (c, a) = (mgr.begin(), mgr.begin());
        assert_eq!(mgr.oldest_active_start(), Some(c.start_ts));
        store.commit(&c).unwrap();
        store.abort(&a).unwrap();
        for t in [c, a] {
            assert_eq!(store.commit(&t), Err(Error::TxnNotActive { txn: t.id }));
            assert_eq!(store.abort(&t), Err(Error::TxnNotActive { txn: t.id }));
        }
        assert!(mgr.active.read().is_empty());
    }

    #[test]
    fn for_each_as_of_agrees_with_get_as_of() {
        let (mgr, store) = setup();
        let mut stamps = vec![mgr.now()];
        for i in 0..6u64 {
            let w = mgr.begin();
            store.put(&w, i % 3, format!("v{i}")).unwrap();
            if i == 4 {
                store.delete(&w, 0).unwrap();
            }
            stamps.push(store.commit(&w).unwrap());
        }
        // Pending and aborted writes are invisible at every timestamp.
        let open = mgr.begin();
        store.put(&open, 9, "pending".into()).unwrap();
        let gone = mgr.begin();
        store.put(&gone, 8, "aborted".into()).unwrap();
        store.abort(&gone).unwrap();
        for &ts in &stamps {
            // In key order, with no sort: the chains are an ordered map.
            let mut seen = Vec::new();
            store.for_each_as_of(ts, &mut |k, v| seen.push((*k, v.clone())));
            let want: Vec<(u64, String)> =
                (0..10).filter_map(|k| store.get_as_of(ts, &k).map(|v| (k, v))).collect();
            assert_eq!(seen, want, "as of {ts}");
            // A range read visits exactly the range's share of them.
            let mut ranged = Vec::new();
            store.for_each_in_as_of(ts, 1..=8, &mut |k, v| ranged.push((*k, v.clone())));
            let want: Vec<_> = want.into_iter().filter(|(k, _)| (1..=8).contains(k)).collect();
            assert_eq!(ranged, want, "range as of {ts}");
        }
    }

    #[test]
    fn is_empty_tracks_the_version_count() {
        let (mgr, store) = setup();
        let agree = |store: &MvStore<u64, String>| {
            assert_eq!(store.is_empty(), store.version_count() == 0);
        };
        agree(&store);
        assert!(store.is_empty());
        let t = mgr.begin();
        store.put(&t, 1, "a".into()).unwrap();
        agree(&store);
        store.abort(&t).unwrap();
        agree(&store);
        assert!(store.is_empty(), "an aborted first write leaves no chain");
        for i in 0..3 {
            let w = mgr.begin();
            store.put(&w, 1, format!("v{i}")).unwrap();
            agree(&store);
            store.commit(&w).unwrap();
            agree(&store);
        }
        assert_eq!(store.vacuum(mgr.now()), 2);
        agree(&store);
        assert!(!store.is_empty());
        assert_eq!(store.prune_merged(mgr.now()), 1);
        agree(&store);
        assert!(store.is_empty());
    }

    #[test]
    fn concurrent_writers_distinct_keys() {
        let (mgr, store) = setup();
        // Eight logical writers on the executor pool; indices are claimed
        // exactly once, so every writer's keys land regardless of how many
        // pool threads actually participate.
        htapg_exec::pool::run_tasks(8, 8, |w| {
            for i in 0..200u64 {
                let t = mgr.begin();
                store.put(&t, w * 1000 + i, format!("{w}:{i}")).unwrap();
                store.commit(&t).unwrap();
            }
        });
        assert_eq!(store.len_committed(), 8 * 200);
    }

    #[test]
    fn concurrent_writers_same_key_exactly_one_wins_per_round() {
        let (mgr, store) = setup();
        let successes = AtomicU64::new(0);
        htapg_exec::pool::run_tasks(8, 8, |_| {
            for _ in 0..100 {
                let t = mgr.begin();
                match store.put(&t, 42, "x".into()) {
                    Ok(()) => {
                        store.commit(&t).unwrap();
                        successes.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(Error::TxnConflict { .. }) => store.abort(&t).unwrap(),
                    Err(e) => panic!("unexpected: {e}"),
                }
            }
        });
        assert!(successes.load(Ordering::Relaxed) >= 1);
        let r = mgr.begin();
        assert_eq!(store.get(&r, &42), Some("x".into()));
    }
}
