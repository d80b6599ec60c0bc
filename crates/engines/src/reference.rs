//! The reference storage engine of Section IV-C — the paper's answer to
//! "what would an HTAP CPU/GPU storage engine need?":
//!
//! 1. *at least constrained strong flexible layout support* — the primary
//!    layout combines vertical groups with horizontal chunks;
//! 2. *layout responsive to changes in workloads* — the advisor
//!    reorganizes the primary layout from live access statistics;
//! 3. *mixed data location and distributed data locality* — delegated
//!    analytic columns are placed in simulated device memory next to their
//!    host-resident peers;
//! 4. *fragmentation linearization that covers NSM and DSM* — the primary
//!    layout holds fat NSM groups and thin columns side by side;
//! 5. *built-in multi layout handling* — every relation carries a
//!    transactional primary layout and an analytic column layout;
//! 6. *fragment scheme supports delegation* — scan-hot attributes are
//!    exclusively owned by the analytic layout, which holds only them, the
//!    rest by the primary.
//!
//! On top sits an MVCC overlay ([`htapg_core::txn`]) so "long-running
//! ad-hoc analytic queries" read consistent snapshots while "massive
//! short-living write-intensive transactional queries" commit concurrently
//! (challenge b.iii). Committed versions are merged into the base layouts
//! by [`StorageEngine::maintain`].

use htapg_core::sync::RwLock as PRwLock;
use std::sync::Arc;

use htapg_core::adapt::{AccessStats, Advisor, AdvisorConfig};
use htapg_core::calibrate::CalibrationProfiles;
use htapg_core::engine::{MaintenanceReport, StorageEngine};
use htapg_core::plan::{ColumnEvidence, DeviceCostProfile, Predicate};
use htapg_core::retry::{with_retry, RetryPolicy};
use htapg_core::txn::{MvStore, Timestamp, Txn, TxnManager};
use htapg_core::wal::{LogRecord, LogStorage, ReplayReport, Wal, WalSink};
use htapg_core::{
    AccessHint, AttrId, DataType, DelegationPolicy, DelegationRule, Error, LayoutTemplate, Record,
    Relation, RelationId, Result, RowId, Schema, Scheme, Value,
};
use htapg_device::kernels;
use htapg_device::{BufferId, DeltaTransport, DeviceColumnCache, SimDevice};
use htapg_taxonomy::{
    Classification, DataLocality, DataLocation, FragmentLinearization, FragmentScheme,
    LayoutAdaptability, LayoutFlexibility, LayoutHandling, ProcessorSupport, WorkloadSupport,
};

use crate::common::{self, Registry};

/// Index of the transactional (primary) layout.
const PRIMARY: usize = 0;
/// Index of the analytic (column) layout.
const ANALYTIC: usize = 1;

/// Default horizontal chunking of the primary layout.
pub const DEFAULT_CHUNK_ROWS: u64 = 4096;

struct RefRelation {
    relation: Relation,
    /// MVCC overlay of uncommitted/committed-but-unmerged field versions.
    overlay: MvStore<(RowId, AttrId), Value>,
    stats: AccessStats,
    /// Attributes exclusively owned by the analytic layout.
    delegated: Vec<AttrId>,
    /// Write version of the relation: bumped on insert and on every commit
    /// so cached device replicas (stamped with the version they packed) go
    /// stale exactly when the base data moves underneath them.
    version: u64,
}

fn policy_for(delegated: &[AttrId]) -> DelegationPolicy {
    let mut rules = Vec::new();
    if !delegated.is_empty() {
        rules.push(DelegationRule {
            attrs: Some(delegated.to_vec()),
            row_from: 0,
            row_to: RowId::MAX,
            layout: ANALYTIC,
        });
    }
    rules.push(DelegationRule { attrs: None, row_from: 0, row_to: RowId::MAX, layout: PRIMARY });
    DelegationPolicy::new(rules)
}

/// The reference HTAP CPU/GPU storage engine.
pub struct ReferenceEngine {
    rels: Registry<RefRelation>,
    mgr: Arc<TxnManager>,
    device: Arc<SimDevice>,
    /// Device-resident analytic column replicas, versioned per relation.
    cache: Arc<DeviceColumnCache>,
    advisor: Advisor,
    /// Learned planner cost corrections, fed by observed execution
    /// residuals and shared with the advisor.
    calibration: Arc<CalibrationProfiles>,
    improvement_threshold: f64,
    chunk_rows: u64,
    /// Serializes maintenance against itself.
    maint_lock: PRwLock<()>,
    /// Optional write-ahead log (durability).
    wal: PRwLock<Option<Arc<dyn WalSink>>>,
    /// Suppresses logging while replaying during recovery.
    logging: std::sync::atomic::AtomicBool,
}

impl Default for ReferenceEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl ReferenceEngine {
    pub fn new() -> Self {
        Self::with_device(Arc::new(SimDevice::with_defaults()))
    }

    pub fn with_device(device: Arc<SimDevice>) -> Self {
        let chunk_rows = DEFAULT_CHUNK_ROWS;
        let cache = Arc::new(DeviceColumnCache::new(device.clone()));
        let calibration = Arc::new(CalibrationProfiles::new());
        ReferenceEngine {
            rels: Registry::new(),
            mgr: Arc::new(TxnManager::new()),
            device,
            cache,
            advisor: Advisor::new(AdvisorConfig {
                chunk_rows: Some(chunk_rows),
                ..Default::default()
            })
            .with_calibration(calibration.clone()),
            calibration,
            improvement_threshold: 0.10,
            chunk_rows,
            maint_lock: PRwLock::new(()),
            wal: PRwLock::new(None),
            logging: std::sync::atomic::AtomicBool::new(true),
        }
    }

    /// Attach a write-ahead log: every relation creation, insert, and
    /// committed update is logged before it is applied.
    pub fn attach_wal(&self, wal: Arc<dyn WalSink>) {
        *self.wal.write() = Some(wal);
    }

    fn log(&self, record: &LogRecord) -> Result<()> {
        if !self.logging.load(std::sync::atomic::Ordering::Relaxed) {
            return Ok(());
        }
        if let Some(wal) = self.wal.read().as_ref() {
            wal.log(record)?;
        }
        Ok(())
    }

    /// Rebuild state from a log (crash recovery). Run on a freshly created
    /// engine; returns the replay report. Updates are redone only when
    /// their transaction's `Commit` record survived, and an autocommit
    /// update when its own frame did — torn tails lose exactly the
    /// unfinished suffix, never acknowledged data.
    pub fn recover_from<S: LogStorage>(&self, wal: &Wal<S>) -> Result<ReplayReport> {
        use std::collections::HashMap;
        self.logging.store(false, std::sync::atomic::Ordering::SeqCst);
        let mut pending: HashMap<u64, Vec<(RelationId, RowId, AttrId, Value)>> = HashMap::new();
        let result = wal.replay(|record| {
            match record {
                LogRecord::CreateRelation { rel, schema } => {
                    let got = self.create_relation(schema)?;
                    if got != rel {
                        return Err(Error::Internal(format!(
                            "recovery created relation {got}, log says {rel}"
                        )));
                    }
                }
                LogRecord::Insert { rel, row, values } => {
                    let got = self.insert(rel, &values.into_owned())?;
                    if got != row {
                        return Err(Error::Internal(format!(
                            "recovery inserted row {got}, log says {row}"
                        )));
                    }
                }
                LogRecord::Update { rel, row, attr, value, txn } => {
                    pending.entry(txn).or_default().push((rel, row, attr, value));
                }
                LogRecord::Commit { txn } => {
                    if let Some(writes) = pending.remove(&txn) {
                        // Redo atomically: one recovery transaction per
                        // logged transaction (single relation per txn).
                        if let Some(&(rel, ..)) = writes.first() {
                            let t = self.begin();
                            for (r, row, attr, value) in writes {
                                debug_assert_eq!(r, rel, "txns span one relation");
                                self.txn_update(r, &t, row, attr, value)?;
                            }
                            self.txn_commit(rel, &t)?;
                        }
                    }
                }
                // A one-write transaction, redone as it was run.
                LogRecord::AutocommitUpdate { rel, row, attr, value } => {
                    self.update_field(rel, row, attr, &value)?;
                }
            }
            Ok(())
        });
        self.logging.store(true, std::sync::atomic::Ordering::SeqCst);
        result
    }

    pub fn device(&self) -> &Arc<SimDevice> {
        &self.device
    }

    /// The device-resident column cache backing all replicas.
    pub fn cache(&self) -> &Arc<DeviceColumnCache> {
        &self.cache
    }

    pub fn txn_manager(&self) -> &Arc<TxnManager> {
        &self.mgr
    }

    // ------------------------------------------------------------------
    // Transactional API (snapshot isolation; one relation per transaction)
    // ------------------------------------------------------------------

    /// Begin a snapshot-isolated transaction.
    pub fn begin(&self) -> Txn {
        self.mgr.begin()
    }

    /// Transactional field read: own writes, then committed versions as of
    /// the snapshot, then the base layouts.
    pub fn txn_read(&self, rel: RelationId, txn: &Txn, row: RowId, attr: AttrId) -> Result<Value> {
        self.rels.read(rel, |r| {
            if let Some(v) = r.overlay.get(txn, &(row, attr)) {
                return Ok(v);
            }
            r.relation.read_value(row, attr, AccessHint::RecordCentric)
        })
    }

    /// Transactional field write (first-updater-wins on conflict), logged
    /// as an `Update` of `txn` before it is staged.
    pub fn txn_update(
        &self,
        rel: RelationId,
        txn: &Txn,
        row: RowId,
        attr: AttrId,
        value: Value,
    ) -> Result<()> {
        self.stage(rel, txn, row, attr, value, |value| {
            self.log(&LogRecord::Update { rel, row, attr, value: value.clone(), txn: txn.id })
        })
    }

    /// Commit; returns the commit timestamp.
    pub fn txn_commit(&self, rel: RelationId, txn: &Txn) -> Result<Timestamp> {
        self.log(&LogRecord::Commit { txn: txn.id })?;
        self.publish(rel, txn)
    }

    /// Check a field write of `txn`, hand it to `log`, then stage it in the
    /// overlay (first-updater-wins on conflict).
    fn stage(
        &self,
        rel: RelationId,
        txn: &Txn,
        row: RowId,
        attr: AttrId,
        value: Value,
        log: impl FnOnce(&Value) -> Result<()>,
    ) -> Result<()> {
        self.rels.read(rel, |r| {
            if row >= r.relation.row_count() {
                return Err(Error::UnknownRow(row));
            }
            let ty = r.relation.schema().ty(attr)?;
            if !value.matches(ty) {
                return Err(Error::TypeMismatch { expected: ty.name(), got: value.type_name() });
            }
            r.stats.record_update(attr);
            log(&value)?;
            r.overlay.put(txn, (row, attr), value)
        })
    }

    /// Make `txn`'s staged writes visible (the commit, after its log
    /// record); returns the commit timestamp.
    fn publish(&self, rel: RelationId, txn: &Txn) -> Result<Timestamp> {
        // Written columns' device replicas are stale now: bump the version
        // and ship the committed writes into the cache's per-column delta
        // logs, so resident replicas stay mergeable instead of being
        // dropped (the invalidation cliff). Tombstones and non-numeric
        // values are unmergeable — those replicas are dropped as before.
        // The writes become visible under the same registry write that
        // bumps the version, so no reader sees them at the old version.
        self.rels.write(rel, |r| {
            let (ts, writes) = r.overlay.commit_with_writes(txn)?;
            r.version += 1;
            let new_version = r.version;
            let mut touched: Vec<AttrId> = Vec::new();
            for ((row, attr), value) in &writes {
                if !touched.contains(attr) {
                    touched.push(*attr);
                }
                match value.as_ref().map(|v| v.as_f64()) {
                    Some(Ok(x)) => self.cache.append_delta(rel, *attr, *row, x, new_version)?,
                    _ => self.cache.invalidate(rel, *attr)?,
                }
            }
            // Replicas of untouched columns advance across the commit for
            // free (their data did not change).
            self.cache.note_commit(rel, new_version, &touched);
            Ok(ts)
        })
    }

    /// Abort, rolling back the transaction's writes.
    pub fn txn_abort(&self, rel: RelationId, txn: &Txn) -> Result<()> {
        self.rels.read(rel, |r| r.overlay.abort(txn))
    }

    /// Snapshot column scan: the analytic side of HTAP. Values are the base
    /// layout patched with versions visible at `ts` — concurrent commits
    /// after `ts` are invisible.
    pub fn scan_column_as_of(
        &self,
        rel: RelationId,
        attr: AttrId,
        ts: Timestamp,
        visit: &mut dyn FnMut(RowId, &Value),
    ) -> Result<()> {
        self.rels.read(rel, |r| {
            r.stats.record_scan(attr);
            let ty = r.relation.schema().ty(attr)?;
            let mut row = 0;
            r.column_blocks(attr, ts, &mut |block| {
                for field in block.chunks_exact(ty.width()) {
                    visit(row, &Value::decode(ty, field));
                    row += 1;
                }
            })
        })
    }

    /// Snapshot sum: the one aggregate a plan cannot express (a past
    /// timestamp). It reduces the snapshot blocks canonically, so at a
    /// quiescent point it carries the bits of every planned sum. Summing a
    /// non-numeric column is a typed error, never a silent `0.0`.
    pub fn sum_column_as_of(&self, rel: RelationId, attr: AttrId, ts: Timestamp) -> Result<f64> {
        self.rels.read(rel, |r| {
            let ty = r.relation.schema().ty(attr)?;
            let dec = kernels::f64_decoder(ty)
                .ok_or(Error::NonNumericAggregate { attr, got: ty.name() })?;
            r.stats.record_scan(attr);
            let rows = r.relation.row_count() as usize;
            let mut reducer = kernels::SegmentReducer::new(kernels::reduce_seg_len(rows));
            r.column_blocks(attr, ts, &mut |block| reducer.push_bytes(block, dec))?;
            Ok(reducer.finish())
        })
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Attributes currently delegated to the analytic layout.
    pub fn delegated(&self, rel: RelationId) -> Result<Vec<AttrId>> {
        self.rels.read(rel, |r| Ok(r.delegated.clone()))
    }

    /// Attributes with a (fresh or stale) device replica.
    pub fn device_resident(&self, rel: RelationId) -> Result<Vec<AttrId>> {
        self.rels.read(rel, |_| Ok(self.cache.resident_attrs(rel)))
    }

    /// Vertical groups of the primary layout.
    pub fn primary_groups(&self, rel: RelationId) -> Result<Vec<Vec<AttrId>>> {
        self.rels.read(rel, |r| {
            Ok(r.relation.layouts()[PRIMARY]
                .template()
                .groups
                .iter()
                .map(|g| g.attrs.clone())
                .collect())
        })
    }

    /// Engine-side merge-vs-reupload heuristic, mirroring the planner's
    /// crossover: a 16-byte pair per stale row beats re-shipping 8 bytes
    /// per row roughly while the log covers less than half the column.
    fn merge_beats_reupload(info: &htapg_device::StaleInfo) -> bool {
        info.stale_rows * 2 <= info.rows
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Change the delegated attribute set, synchronizing the newly
    /// authoritative layout from the previously authoritative one so no
    /// region ever reads stale data. The analytic layout holds exactly the
    /// delegated columns.
    fn set_delegation(r: &mut RefRelation, delegated: Vec<AttrId>) -> Result<()> {
        // Newly delegated attrs join the analytic layout with the primary's
        // fields. Un-delegated attrs go back: the primary takes the analytic
        // fields, then the analytic layout drops the column.
        for &a in delegated.iter().filter(|a| !r.delegated.contains(a)) {
            r.relation.copy_column(a, PRIMARY, ANALYTIC)?;
        }
        let returned: Vec<AttrId> =
            r.delegated.iter().copied().filter(|a| !delegated.contains(a)).collect();
        for &a in &returned {
            r.relation.copy_column(a, ANALYTIC, PRIMARY)?;
        }
        r.relation.set_policy(policy_for(&delegated))?;
        for &a in &returned {
            r.relation.drop_column(ANALYTIC, a)?;
        }
        r.delegated = delegated;
        Ok(())
    }

    /// Build a query-driven device replica of `attr` when none is fresh:
    /// the snapshot view (base patched by the committed overlay) is packed
    /// to f64 and uploaded, paying the PCIe transfer the planner priced
    /// for a cold device route. Unlike `maintain`'s all-or-nothing
    /// placement, an opportunistic replica is evictable.
    fn ensure_device_replica(&self, rel: RelationId, attr: AttrId) -> Result<()> {
        let device = self.device.clone();
        let cache = self.cache.clone();
        self.rels.read(rel, |r| {
            if cache.contains(rel, attr, r.version) {
                return Ok(());
            }
            // A delta-stale replica is cheaper to merge than to re-pack
            // and re-upload while its log is small; a faulted merge falls
            // through to the full upload below.
            if let Some(info) = cache.stale_info(rel, attr, r.version) {
                if info.stale_rows > 0
                    && Self::merge_beats_reupload(&info)
                    && cache.merge_deltas(rel, attr, r.version, DeltaTransport::Pcie).is_ok()
                {
                    return Ok(());
                }
            }
            // Snapshot inside the registry read: every commit stamped by
            // now has bumped `r.version` or is blocked behind this read
            // and will log its delta, so the replica never misses a write
            // its version stamp claims.
            let bytes = r.pack_f64(attr, self.mgr.now())?;
            if bytes.is_empty() {
                return Err(Error::Internal("empty relation has no device replica".into()));
            }
            cache
                .get_or_insert_with(rel, attr, r.version, r.relation.row_count(), true, || {
                    with_retry(&RetryPolicy::default(), device.ledger(), || device.upload(&bytes))
                })
                .map(|_| ())
        })
    }

    /// Run `kernel` on the fresh device replica of `attr` within one
    /// registry read; an error when none is resident at the current
    /// version. Device answers are still scans as far as the advisor is
    /// concerned, so the scan is recorded either way.
    fn with_fresh_replica<T>(
        &self,
        rel: RelationId,
        attr: AttrId,
        kernel: impl FnOnce(BufferId) -> Result<T>,
    ) -> Result<T> {
        self.rels.read(rel, |r| {
            r.stats.record_scan(attr);
            let col = self.cache.lookup(rel, attr, r.version)?.ok_or_else(|| {
                Error::Internal(format!("no fresh device replica of attr {attr}"))
            })?;
            kernel(col.buf)
        })
    }
}

impl RefRelation {
    /// The columns `attrs` as of `ts`, in row order, as row-aligned blocks
    /// of fixed-width little-endian fields (one per attribute, in order):
    /// the authoritative layouts' bytes with every overlay version visible
    /// at `ts` encoded over its row. The overlay is resolved once, under
    /// one read of the version map, for every column, in `(row, attr)`
    /// order, so each column's versions arrive sorted by row; one walk over the
    /// rows ([`Relation::with_aligned_blocks`]) then emits contiguous
    /// columns in place around the patched rows and gathers strided ones a
    /// chunk at a time, cutting blocks where either layout's chunks end.
    /// Under the caller's registry read the blocks hold exactly the bits of
    /// per-row [`MvStore::get_as_of`] reads (DESIGN.md §12).
    fn snapshot_blocks(
        &self,
        attrs: &[AttrId],
        ts: Timestamp,
        visit: &mut dyn FnMut(&[&[u8]]),
    ) -> Result<()> {
        let mut versions = vec![Vec::new(); attrs.len()];
        self.overlay.for_each_as_of(ts, &mut |&(row, a), v| {
            for (i, _) in attrs.iter().enumerate().filter(|&(_, &attr)| attr == a) {
                versions[i].push((row, v.clone()));
            }
        });
        self.relation.with_aligned_blocks(attrs, &versions, visit)
    }

    /// Row `row` as of `ts`: the base record, each field decoded once from
    /// the fragment that owns it, then every version of the row visible at
    /// `ts` from one range read of the overlay. A field's value is the one
    /// [`MvStore::get_as_of`] gives, else the base's.
    fn record_as_of(&self, row: RowId, ts: Timestamp) -> Result<Record> {
        let mut record = self.relation.read_record(row)?;
        self.overlay.for_each_in_as_of(ts, (row, 0)..=(row, AttrId::MAX), &mut |&(_, a), v| {
            record[a as usize] = v.clone();
        });
        Ok(record)
    }

    /// The column `attr` as of `ts`, as blocks (see
    /// [`snapshot_blocks`](Self::snapshot_blocks)).
    fn column_blocks(
        &self,
        attr: AttrId,
        ts: Timestamp,
        visit: &mut dyn FnMut(&[u8]),
    ) -> Result<()> {
        self.snapshot_blocks(&[attr], ts, &mut |blocks| visit(blocks[0]))
    }

    /// The column `attr` as of `ts` packed to little-endian `f64`, the
    /// layout of every device replica; a type error for `Text`/`Bool`.
    fn pack_f64(&self, attr: AttrId, ts: Timestamp) -> Result<Vec<u8>> {
        let ty = self.relation.schema().ty(attr)?;
        let dec = kernels::f64_decoder(ty)
            .ok_or(Error::TypeMismatch { expected: "numeric", got: ty.name() })?;
        let mut out = Vec::with_capacity(self.relation.row_count() as usize * 8);
        let mut x = [0.0];
        self.column_blocks(attr, ts, &mut |block| {
            for field in block.chunks_exact(dec.width) {
                (dec.decode)(field, &mut x);
                out.extend_from_slice(&x[0].to_le_bytes());
            }
        })?;
        Ok(out)
    }
}

impl StorageEngine for ReferenceEngine {
    fn name(&self) -> &'static str {
        "REFERENCE"
    }

    fn trace_clock(&self) -> Option<Arc<dyn htapg_core::obs::VirtualClock>> {
        let ledger: Arc<htapg_device::CostLedger> = Arc::clone(self.device().ledger());
        Some(ledger)
    }

    fn calibration(&self) -> Option<Arc<CalibrationProfiles>> {
        Some(self.calibration.clone())
    }

    fn classification(&self) -> Classification {
        Classification {
            name: "REFERENCE",
            layout_handling: LayoutHandling::MultiBuiltIn,
            layout_flexibility: LayoutFlexibility::StrongFlexible { constrained: true },
            layout_adaptability: LayoutAdaptability::Responsive,
            data_location: DataLocation::Mixed,
            data_locality: DataLocality::Distributed,
            fragment_linearization: FragmentLinearization::FatVariable,
            fragment_scheme: FragmentScheme::DelegationBased,
            processor_support: ProcessorSupport::CpuGpu,
            workload_support: WorkloadSupport::Htap,
            year: 2017,
        }
    }

    fn create_relation(&self, schema: Schema) -> Result<RelationId> {
        // Primary: strong flexible (one fat NSM group, chunked); analytic:
        // thin columns, one per delegated column, so none yet.
        let primary = LayoutTemplate::grouped(
            vec![htapg_core::VerticalGroup::new(
                schema.attr_ids().collect(),
                htapg_core::GroupOrder::Nsm,
            )],
            Some(self.chunk_rows),
        );
        let analytic = LayoutTemplate::grouped(Vec::new(), None);
        let relation = Relation::with_layouts(
            schema.clone(),
            vec![primary, analytic],
            Scheme::Delegation(policy_for(&[])),
        )?;
        let stats = AccessStats::new(schema.arity());
        let rel = self.rels.add(RefRelation {
            relation,
            overlay: MvStore::new(self.mgr.clone()),
            stats,
            delegated: Vec::new(),
            version: 0,
        });
        self.log(&LogRecord::CreateRelation { rel, schema })?;
        Ok(rel)
    }

    fn schema(&self, rel: RelationId) -> Result<Schema> {
        self.rels.read(rel, |r| Ok(r.relation.schema().clone()))
    }

    fn insert(&self, rel: RelationId, record: &Record) -> Result<RowId> {
        let row = self.rels.write(rel, |r| {
            let row = r.relation.insert(record)?;
            // Device replicas no longer cover the new row.
            r.version += 1;
            Ok(row)
        })?;
        self.log(&LogRecord::Insert { rel, row, values: record.into() })?;
        Ok(row)
    }

    fn read_record(&self, rel: RelationId, row: RowId) -> Result<Record> {
        self.rels.read(rel, |r| {
            let attrs: Vec<AttrId> = r.relation.schema().attr_ids().collect();
            r.stats.record_point_read(&attrs, 1);
            r.record_as_of(row, self.mgr.now())
        })
    }

    fn read_field(&self, rel: RelationId, row: RowId, attr: AttrId) -> Result<Value> {
        self.rels.read(rel, |r| {
            r.stats.record_point_read(&[attr], 1);
            if row >= r.relation.row_count() {
                return Err(Error::UnknownRow(row));
            }
            r.relation.schema().attr(attr)?;
            match r.overlay.get_as_of(self.mgr.now(), &(row, attr)) {
                Some(v) => Ok(v),
                None => r.relation.read_value(row, attr, AccessHint::RecordCentric),
            }
        })
    }

    /// Auto-commit single-field update: a one-statement transaction, in
    /// one log frame. The write is staged first, then logged, then
    /// committed; a log error aborts it. First-updater-wins aborts are
    /// retried with a fresh snapshot — an autocommit statement has no reads
    /// to invalidate, so retrying is always serializable — and log nothing.
    fn update_field(&self, rel: RelationId, row: RowId, attr: AttrId, value: &Value) -> Result<()> {
        loop {
            let txn = self.begin();
            match self.stage(rel, &txn, row, attr, value.clone(), |_| Ok(())) {
                Ok(()) => {
                    let record =
                        LogRecord::AutocommitUpdate { rel, row, attr, value: value.clone() };
                    if let Err(e) = self.log(&record) {
                        let _ = self.txn_abort(rel, &txn);
                        return Err(e);
                    }
                    self.publish(rel, &txn)?;
                    return Ok(());
                }
                Err(Error::TxnConflict { .. }) => {
                    let _ = self.txn_abort(rel, &txn);
                    std::thread::yield_now();
                }
                Err(e) => {
                    let _ = self.txn_abort(rel, &txn);
                    return Err(e);
                }
            }
        }
    }

    /// Several columns as row-aligned blocks of one snapshot (see
    /// `RefRelation::snapshot_blocks`), under one registry read: a commit
    /// lands wholly before or wholly after the read. Unmerged versions are
    /// patched in, strided columns gathered.
    fn with_aligned_blocks(
        &self,
        rel: RelationId,
        attrs: &[AttrId],
        visit: &mut dyn FnMut(&[&[u8]]),
    ) -> Result<()> {
        self.rels.read(rel, |r| {
            attrs.iter().for_each(|&attr| r.stats.record_scan(attr));
            r.snapshot_blocks(attrs, self.mgr.now(), visit)
        })
    }

    fn row_count(&self, rel: RelationId) -> Result<u64> {
        self.rels.read(rel, |r| Ok(r.relation.row_count()))
    }

    // --------------------------------------------------------------
    // Planner surface
    // --------------------------------------------------------------

    fn device_cost_profile(&self) -> Option<DeviceCostProfile> {
        Some(self.device.spec().cost_profile())
    }

    /// Planner evidence without side effects: every column streams as
    /// snapshot blocks, so scans are contiguous; the stride is the value
    /// width only for a column delegated to the analytic (thin DSM) layout
    /// while the overlay is empty, the record width otherwise. Warmth is a
    /// cache peek at the current relation version (no counters, no virtual
    /// launches charged).
    fn column_evidence(&self, rel: RelationId, attr: AttrId) -> Result<ColumnEvidence> {
        self.rels.read(rel, |r| {
            let schema = r.relation.schema();
            let ty = schema.ty(attr)?;
            let packed = r.overlay.is_empty() && r.delegated.contains(&attr);
            let stale = self.cache.stale_info(rel, attr, r.version);
            Ok(ColumnEvidence {
                rows: r.relation.row_count(),
                ty,
                scan_stride: if packed { ty.width() as u64 } else { schema.tuple_width() as u64 },
                contiguous: true,
                device_warm: stale.is_some_and(|i| i.stale_rows == 0),
                stale_rows: stale.map_or(0, |i| i.stale_rows),
            })
        })
    }

    /// Device sum over the delegated replica: built on demand (a cold
    /// upload, or a delta merge while the log is small), then reduced
    /// under the same registry read that found it fresh, so a commit in
    /// between cannot strand the lookup.
    fn offload_sum(&self, rel: RelationId, attr: AttrId, pred: Option<&Predicate>) -> Result<f64> {
        self.ensure_device_replica(rel, attr)?;
        self.with_fresh_replica(rel, attr, |buf| common::device_sum(&self.device, buf, pred))
    }

    /// Device group-sum: keys are read from the current snapshot on the
    /// host (grouping is control-heavy), values from the fresh replica.
    /// The order keeps both from one snapshot: the replica is made fresh
    /// first and the keys read after it. Any commit after the replica's
    /// version stamp, including one the key scan saw, bumps the version,
    /// so the lookup misses and the query degrades to the host.
    fn offload_group_sum(
        &self,
        rel: RelationId,
        key_attr: AttrId,
        value_attr: AttrId,
    ) -> Result<Vec<(i64, f64)>> {
        let schema = self.schema(rel)?;
        schema.key_ty(key_attr)?;
        self.ensure_device_replica(rel, value_attr)?;
        let keys = common::read_keys(&schema, key_attr, |visit| {
            self.with_aligned_blocks(rel, &[key_attr], visit)
        })?;
        self.with_fresh_replica(rel, value_attr, |buf| {
            common::device_group_sum(&self.device, buf, &keys)
        })
    }

    /// Batch materialization: one registry read, one snapshot timestamp,
    /// base rows visited in sorted order (sequential chunk walk), each in
    /// one pass with one overlay probe, results restored to request order.
    fn materialize_rows(&self, rel: RelationId, rows: &[RowId]) -> Result<Vec<Record>> {
        self.rels.read(rel, |r| {
            let attrs: Vec<AttrId> = r.relation.schema().attr_ids().collect();
            r.stats.record_point_read(&attrs, rows.len() as u64);
            let ts = self.mgr.now();
            let mut order: Vec<usize> = (0..rows.len()).collect();
            order.sort_by_key(|&i| rows[i]);
            let mut out: Vec<Record> = vec![Vec::new(); rows.len()];
            for i in order {
                out[i] = r.record_as_of(rows[i], ts)?;
            }
            Ok(out)
        })
    }

    /// Maintenance: (1) merge committed overlay versions into the base
    /// layouts and vacuum, (2) delegate the columns whose scans a thin
    /// column saves more than it costs record reads, and refresh device
    /// replicas, (3) reorganize the primary layout when the advisor
    /// predicts a win for the accesses the primary serves.
    fn maintain(&self) -> Result<MaintenanceReport> {
        let _guard = self.maint_lock.write();
        let mut report = MaintenanceReport::default();
        let device = self.device.clone();
        // Registry ids are dense vector indices, so enumerate recovers them.
        for (rel, handle) in self.rels.all().into_iter().enumerate() {
            let rel = rel as RelationId;
            let mut r = handle.write();
            // (1) merge committed versions into the authoritative layouts.
            let mut merged: Vec<((RowId, AttrId), Value)> = Vec::new();
            r.overlay.for_each_committed(&mut |k, v| merged.push((*k, v.clone())));
            if !merged.is_empty() {
                for ((row, attr), v) in &merged {
                    r.relation.update_field(*row, *attr, v)?;
                }
                report.merges += 1;
                // Reclaim: dead versions no snapshot can need, then whole
                // chains whose newest committed value now lives in the base
                // (bounded by the oldest active transaction's snapshot).
                let horizon = self.mgr.oldest_active_start().unwrap_or_else(|| self.mgr.now());
                report.versions_pruned += r.overlay.vacuum(horizon);
                report.versions_pruned += r.overlay.prune_merged(horizon);
            }
            // (2) delegate the columns whose scans would stride past more
            // bytes of the primary than record reads of them pay in extra
            // cache lines.
            let schema = r.relation.schema().clone();
            let rows = r.relation.row_count();
            let current = r.relation.layouts()[PRIMARY].template().clone();
            let hot = self.advisor.delegate(&schema, &r.stats, &current, rows);
            if hot != r.delegated {
                Self::set_delegation(&mut r, hot)?;
                report.layouts_reorganized += 1;
            }
            // Evict replicas of columns no longer delegated (the device
            // re-assignment loop of Figure 1 runs both ways).
            for attr in self.cache.resident_attrs(rel) {
                if !r.delegated.contains(&attr) {
                    self.cache.invalidate(rel, attr)?;
                    report.fragments_moved += 1;
                }
            }
            // Device placement of delegated columns (all-or-nothing:
            // `may_evict = false`, placement never steals cache residency).
            let delegated = r.delegated.clone();
            for attr in delegated {
                if matches!(schema.ty(attr)?, DataType::Text(_) | DataType::Bool) {
                    continue;
                }
                if self.cache.contains(rel, attr, r.version) {
                    continue;
                }
                // Refresh a delta-stale replica in place when the log is
                // small — shipping pairs is the Figure 1 re-assignment at
                // delta granularity, not a fragment repack.
                if let Some(info) = self.cache.stale_info(rel, attr, r.version) {
                    if info.stale_rows > 0 && Self::merge_beats_reupload(&info) {
                        match self.cache.merge_deltas(rel, attr, r.version, DeltaTransport::Pcie) {
                            Ok(_) => {
                                report.fragments_moved += 1;
                                continue;
                            }
                            // Transient fault: leave it stale, retry next
                            // round. Anything else: fall through to repack.
                            Err(e) if e.is_transient() => continue,
                            Err(_) => {}
                        }
                    }
                }
                let bytes = r.pack_f64(attr, self.mgr.now())?;
                let rows = r.relation.row_count();
                match self.cache.get_or_insert_with(rel, attr, r.version, rows, false, || {
                    with_retry(&RetryPolicy::default(), device.ledger(), || device.upload(&bytes))
                }) {
                    Ok(_) => report.fragments_moved += 1,
                    Err(Error::DeviceOutOfMemory { .. }) => break,
                    // Persistent transient fault (retries exhausted): skip
                    // placement — the column stays host-resident and the
                    // next maintain() tries again.
                    Err(e) if e.is_transient() => {}
                    Err(e) => return Err(e),
                }
            }
            // (3) primary-layout reorganization, from the accesses the
            // primary serves: record reads and scans of the columns it owns.
            let served = r.stats.without_scans(&r.delegated);
            let rec = self.advisor.recommend(&schema, &served, &current, rows.max(1));
            if rec.template != current && rec.improvement() > self.improvement_threshold {
                r.relation.reorganize_layout(PRIMARY, rec.template)?;
                r.stats.decay(0.5);
                report.layouts_reorganized += 1;
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        let mut attrs = vec![("pk", DataType::Int64), ("balance", DataType::Float64)];
        for _ in 0..6 {
            attrs.push(("f", DataType::Int32));
        }
        Schema::of(&attrs)
    }

    fn rec(i: i64) -> Record {
        let mut r = vec![Value::Int64(i), Value::Float64(i as f64)];
        for j in 0..6 {
            r.push(Value::Int32(i as i32 + j));
        }
        r
    }

    fn loaded(n: i64) -> (ReferenceEngine, RelationId) {
        let e = ReferenceEngine::new();
        let rel = e.create_relation(schema()).unwrap();
        for i in 0..n {
            e.insert(rel, &rec(i)).unwrap();
        }
        (e, rel)
    }

    #[test]
    fn satisfies_all_six_reference_requirements() {
        let chk = htapg_taxonomy::reference::check(&ReferenceEngine::new().classification());
        assert!(chk.satisfied(), "{}", chk.render());
    }

    #[test]
    fn autocommit_crud() {
        let (e, rel) = loaded(100);
        assert_eq!(e.read_record(rel, 7).unwrap(), rec(7));
        e.update_field(rel, 7, 1, &Value::Float64(-5.0)).unwrap();
        assert_eq!(e.read_field(rel, 7, 1).unwrap(), Value::Float64(-5.0));
        let sum = crate::testing::planned_sum(&e, rel, 1);
        let expect: f64 = (0..100).map(|i| i as f64).sum::<f64>() - 7.0 - 5.0;
        assert!((sum - expect).abs() < 1e-9);
    }

    #[test]
    fn snapshot_isolation_detaches_analytics_from_transactions() {
        let (e, rel) = loaded(50);
        let snapshot_ts = e.txn_manager().now();
        // A storm of transactional updates after the snapshot.
        for i in 0..50 {
            e.update_field(rel, i, 1, &Value::Float64(1e6)).unwrap();
        }
        // The analytic scan at the old snapshot is unaffected.
        let old_sum = e.sum_column_as_of(rel, 1, snapshot_ts).unwrap();
        assert_eq!(old_sum, (0..50).map(|i| i as f64).sum::<f64>());
        // A fresh scan sees the new values.
        let new_sum = crate::testing::planned_sum(&e, rel, 1);
        assert_eq!(new_sum, 50.0 * 1e6);
    }

    #[test]
    fn snapshot_sum_of_a_text_column_is_a_typed_error() {
        let e = ReferenceEngine::new();
        let s = Schema::of(&[("name", DataType::Text(8)), ("v", DataType::Float64)]);
        let rel = e.create_relation(s).unwrap();
        e.insert(rel, &vec![Value::Text("a".into()), Value::Float64(1.5)]).unwrap();
        let ts = e.txn_manager().now();
        assert!(matches!(
            e.sum_column_as_of(rel, 0, ts),
            Err(Error::NonNumericAggregate { attr: 0, got: "text" })
        ));
        assert_eq!(e.sum_column_as_of(rel, 1, ts).unwrap(), 1.5);
    }

    #[test]
    fn snapshot_sum_reduces_canonically_past_pending_and_aborted_writes() {
        let e = ReferenceEngine::new();
        let rel = e.create_relation(schema()).unwrap();
        for i in 0..3_000 {
            let mut r = rec(i);
            r[1] = Value::Float64((i as f64 * 0.37).sin() * 1e3);
            e.insert(rel, &r).unwrap();
        }
        e.update_field(rel, 5, 1, &Value::Float64(0.3)).unwrap();
        // A pending and an aborted write sit in the overlay, invisible to
        // every snapshot.
        let open = e.begin();
        e.txn_update(rel, &open, 7, 1, Value::Float64(1e300)).unwrap();
        let aborted = e.begin();
        e.txn_update(rel, &aborted, 9, 1, Value::Float64(-1e300)).unwrap();
        e.txn_abort(rel, &aborted).unwrap();
        let snap = e.sum_column_as_of(rel, 1, e.txn_manager().now()).unwrap();
        let oracle = htapg_exec::physical::volcano_sum(&e, rel, 1).unwrap();
        assert_eq!(snap.to_bits(), oracle.to_bits(), "snapshot {snap} vs volcano {oracle}");
        e.txn_abort(rel, &open).unwrap();
    }

    #[test]
    fn explicit_transactions_conflict_and_roll_back() {
        let (e, rel) = loaded(10);
        let t1 = e.begin();
        let t2 = e.begin();
        e.txn_update(rel, &t1, 3, 1, Value::Float64(111.0)).unwrap();
        // First-updater-wins.
        assert!(matches!(
            e.txn_update(rel, &t2, 3, 1, Value::Float64(222.0)),
            Err(Error::TxnConflict { .. })
        ));
        e.txn_abort(rel, &t2).unwrap();
        e.txn_commit(rel, &t1).unwrap();
        assert_eq!(e.read_field(rel, 3, 1).unwrap(), Value::Float64(111.0));
        // Abort leaves no trace.
        let t3 = e.begin();
        e.txn_update(rel, &t3, 4, 1, Value::Float64(999.0)).unwrap();
        e.txn_abort(rel, &t3).unwrap();
        assert_eq!(e.read_field(rel, 4, 1).unwrap(), Value::Float64(4.0));
    }

    #[test]
    fn maintain_merges_versions_into_base() {
        let (e, rel) = loaded(20);
        for i in 0..20 {
            e.update_field(rel, i, 1, &Value::Float64(i as f64 * 10.0)).unwrap();
        }
        let report = e.maintain().unwrap();
        assert!(report.merges >= 1);
        assert!(report.versions_pruned > 0, "merged chains must be reclaimed");
        // Base layouts now hold the merged values; the raw fast path agrees.
        assert_eq!(e.read_field(rel, 3, 1).unwrap(), Value::Float64(30.0));
        let sum = crate::testing::planned_sum(&e, rel, 1);
        assert_eq!(sum, (0..20).map(|i| i as f64 * 10.0).sum::<f64>());
        // With no active transactions the overlay drains completely.
        e.rels
            .read(rel, |r| {
                assert_eq!(r.overlay.version_count(), 0);
                Ok(())
            })
            .unwrap();
    }

    #[test]
    fn scans_delegate_and_place_on_device() {
        let (e, rel) = loaded(500);
        for _ in 0..30 {
            htapg_exec::physical::touch_column(&e, rel, 1).unwrap();
        }
        let report = e.maintain().unwrap();
        assert!(report.layouts_reorganized >= 1);
        assert_eq!(e.delegated(rel).unwrap(), vec![1]);
        assert!(report.fragments_moved >= 1);
        assert!(e.device_resident(rel).unwrap().contains(&1));
        // The device sum agrees with the host snapshot sum to the bit.
        let host = e.sum_column_as_of(rel, 1, e.txn_manager().now()).unwrap();
        let dev = e.offload_sum(rel, 1, None).unwrap();
        assert_eq!(dev.to_bits(), host.to_bits());
        // Updates after placement are still correct (replica goes stale,
        // reads route to the overlay/base).
        e.update_field(rel, 0, 1, &Value::Float64(123.0)).unwrap();
        assert_eq!(e.read_field(rel, 0, 1).unwrap(), Value::Float64(123.0));
        let host2 = e.sum_column_as_of(rel, 1, e.txn_manager().now()).unwrap();
        assert!((host2 - (host + 123.0)).abs() < 1e-6);
        // Maintain refreshes the replica.
        e.maintain().unwrap();
        let dev2 = e.offload_sum(rel, 1, None).unwrap();
        assert_eq!(dev2.to_bits(), host2.to_bits());
    }

    #[test]
    fn delegation_survives_workload_shift() {
        let (e, rel) = loaded(200);
        for _ in 0..30 {
            htapg_exec::physical::touch_column(&e, rel, 1).unwrap();
        }
        e.maintain().unwrap();
        assert_eq!(e.delegated(rel).unwrap(), vec![1]);
        // Update through the delegated region, then shift to point reads.
        e.update_field(rel, 5, 1, &Value::Float64(777.0)).unwrap();
        // Merge into the analytic layout (authoritative).
        e.maintain().unwrap();
        // The 30 scans each stopped striding past 200 rows x 32 B of the
        // primary; the column goes back once record reads pay more than
        // that in extra 64-B lines, past 3,000 of them.
        for i in 0..4_000 {
            e.read_record(rel, i % 200).unwrap();
        }
        e.maintain().unwrap();
        // Un-delegated now; the value written while delegated must survive
        // the hand-back synchronization.
        assert!(e.delegated(rel).unwrap().is_empty());
        assert_eq!(e.read_field(rel, 5, 1).unwrap(), Value::Float64(777.0));
    }

    /// Row `row` as the per-field composition reads it: each field's
    /// overlay version as of now ([`MvStore::get_as_of`]), else the
    /// authoritative layout's field.
    fn per_field_record(e: &ReferenceEngine, rel: RelationId, row: RowId) -> Result<Record> {
        e.rels.read(rel, |r| {
            let ts = e.mgr.now();
            r.relation
                .schema()
                .attr_ids()
                .map(|a| match r.overlay.get_as_of(ts, &(row, a)) {
                    Some(v) => Ok(v),
                    None => r.relation.read_value(row, a, AccessHint::RecordCentric),
                })
                .collect()
        })
    }

    /// `read_record` and `materialize_rows` (unsorted rows, one repeated)
    /// agree with the per-field composition on every listed row, and both
    /// report the first row past the end.
    fn assert_record_reads(e: &ReferenceEngine, rel: RelationId, rows: &[RowId], state: &str) {
        for &row in rows {
            let want = per_field_record(e, rel, row).unwrap();
            assert_eq!(e.read_record(rel, row).unwrap(), want, "row {row}, {state}");
        }
        let mut batch: Vec<RowId> = rows.iter().rev().copied().collect();
        batch.push(rows[0]);
        let got = e.materialize_rows(rel, &batch).unwrap();
        for (&row, record) in batch.iter().zip(&got) {
            assert_eq!(*record, per_field_record(e, rel, row).unwrap(), "row {row}, {state}");
        }
        let end = e.row_count(rel).unwrap();
        assert_eq!(e.read_record(rel, end), Err(Error::UnknownRow(end)), "{state}");
        assert_eq!(e.materialize_rows(rel, &[end, 0]), Err(Error::UnknownRow(end)), "{state}");
    }

    #[test]
    fn record_reads_match_per_field_reads_in_every_layout_and_version_state() {
        // Two primary chunks, the second partly filled.
        let n = DEFAULT_CHUNK_ROWS as i64 + 300;
        let (e, rel) = loaded(n);
        let last = n as RowId - 1;
        let edge = DEFAULT_CHUNK_ROWS;
        let rows = [0, 7, 8, 9, 10, 11, 12, edge - 1, edge, last];
        // Committed versions on both chunks, two on one field, on the first
        // and the last attribute.
        for (row, attr, v) in [(0, 1, 1.5), (edge, 1, 2.5), (last, 1, 3.5), (0, 1, 4.5)] {
            e.update_field(rel, row, attr, &Value::Float64(v)).unwrap();
        }
        e.update_field(rel, edge - 1, 0, &Value::Int64(-4)).unwrap();
        e.update_field(rel, edge - 1, 7, &Value::Int32(-7)).unwrap();
        // A pending write, an aborted one over a committed version, and a
        // committed tombstone over a committed version: all read the base
        // or the committed value beneath.
        let open = e.begin();
        e.txn_update(rel, &open, 7, 1, Value::Float64(1e300)).unwrap();
        e.update_field(rel, 8, 3, &Value::Int32(80)).unwrap();
        let aborted = e.begin();
        e.txn_update(rel, &aborted, 8, 3, Value::Int32(-80)).unwrap();
        e.txn_abort(rel, &aborted).unwrap();
        e.update_field(rel, 9, 2, &Value::Int32(90)).unwrap();
        e.rels
            .read(rel, |r| {
                let t = e.begin();
                r.overlay.delete(&t, (9, 2))?;
                r.overlay.commit(&t).map(|_| ())
            })
            .unwrap();
        assert_eq!(e.read_field(rel, 9, 2).unwrap(), rec(9)[2]);
        assert_eq!(e.read_field(rel, 8, 3).unwrap(), Value::Int32(80));
        assert_record_reads(&e, rel, &rows, "row-wise primary");

        // Delegate two columns; the open transaction keeps their versions
        // in the overlay, and new ones land over the analytic layout.
        for _ in 0..30 {
            htapg_exec::physical::touch_column(&e, rel, 1).unwrap();
            htapg_exec::physical::touch_column(&e, rel, 3).unwrap();
        }
        e.maintain().unwrap();
        assert_eq!(e.delegated(rel).unwrap(), vec![1, 3]);
        e.update_field(rel, 10, 1, &Value::Float64(-10.0)).unwrap();
        e.update_field(rel, 11, 3, &Value::Int32(110)).unwrap();
        e.update_field(rel, 11, 5, &Value::Int32(111)).unwrap();
        assert_record_reads(&e, rel, &rows, "delegated columns");
        // Drained but for the tombstone, which no merge writes: the
        // delegated columns' merged values live only in the analytic
        // layout, and the primary's copies of them are stale.
        e.txn_abort(rel, &open).unwrap();
        e.maintain().unwrap();
        assert_eq!(e.rels.read(rel, |r| Ok(r.overlay.version_count())).unwrap(), 1);
        assert_eq!(e.delegated(rel).unwrap(), vec![1, 3]);
        assert_record_reads(&e, rel, &rows, "delegated columns, drained overlay");

        // The primary reorganized to thin columns, with fresh versions.
        e.rels
            .write(rel, |r| {
                let thin = LayoutTemplate::dsm_emulated(r.relation.schema());
                r.relation.reorganize_layout(PRIMARY, thin)
            })
            .unwrap();
        e.update_field(rel, 12, 6, &Value::Int32(120)).unwrap();
        e.update_field(rel, 12, 1, &Value::Float64(12.5)).unwrap();
        e.update_field(rel, last, 0, &Value::Int64(-1)).unwrap();
        assert_record_reads(&e, rel, &rows, "thin primary");
    }

    #[test]
    fn materialize_counts_a_record_read_per_row() {
        let (e, rel) = loaded(200);
        let batch: Vec<RowId> = (0..150).map(|i| i * 7 % 200).collect();
        e.materialize_rows(rel, &batch).unwrap();
        e.rels
            .read(rel, |r| {
                let arity = r.relation.schema().arity() as AttrId;
                for a in 0..arity {
                    assert_eq!(r.stats.point_reads(a), 150, "attr {a}");
                    for b in a + 1..arity {
                        assert_eq!(r.stats.co_reads(a, b), 150, "attrs {a}, {b}");
                    }
                }
                Ok(())
            })
            .unwrap();
    }

    /// A planned sum of `value` and group-sum of `value` by `key` against
    /// the Volcano oracles, by bits.
    fn assert_planned_aggregates(
        e: &ReferenceEngine,
        rel: RelationId,
        key: AttrId,
        value: AttrId,
        state: &str,
    ) {
        use htapg_core::plan::LogicalPlan;
        use htapg_exec::physical;
        use htapg_exec::threading::ThreadingPolicy;
        let run = |plan| physical::execute_adaptive(e, &plan, ThreadingPolicy::Single).unwrap();
        let sum = run(LogicalPlan::sum(rel, value)).output.as_sum().unwrap();
        let oracle = physical::volcano_sum(e, rel, value).unwrap();
        assert_eq!(sum.to_bits(), oracle.to_bits(), "{state}: sum {sum} vs {oracle}");
        let bits = |g: &[(i64, f64)]| g.iter().map(|&(k, v)| (k, v.to_bits())).collect::<Vec<_>>();
        let groups = run(LogicalPlan::group_sum(rel, key, value)).output;
        let oracle = physical::volcano_group_sum(e, rel, key, value).unwrap();
        assert_eq!(bits(groups.as_groups().unwrap()), bits(&oracle), "{state}: group-sum");
    }

    #[test]
    fn analytic_layout_holds_only_the_delegated_columns() {
        const ROWS: u64 = 500;
        let (key, value) = (2, 1);
        let e = ReferenceEngine::new();
        let rel = e.create_relation(schema()).unwrap();
        for i in 0..ROWS as i64 {
            let mut r = rec(i);
            r[key as usize] = Value::Int32((i % 7) as i32);
            e.insert(rel, &r).unwrap();
        }
        // The columns the analytic layout holds, and its bytes.
        let analytic = || {
            e.rels
                .read(rel, |r| {
                    let layout = &r.relation.layouts()[ANALYTIC];
                    let held = r.relation.schema().attr_ids().filter(|&a| layout.holds(a));
                    Ok((held.collect::<Vec<_>>(), layout.used_bytes()))
                })
                .unwrap()
        };
        // Fresh counters, `scans` scans of both columns, one materialization
        // of `reads` rows, then maintenance: a 40-B primary row strides 32 B
        // past `value` and 36 B past `key` per row scanned, so four scans
        // delegate both and one scan against 600 record reads returns them.
        let drive = |scans: usize, reads: u64| {
            e.rels
                .read(rel, |r| {
                    r.stats.reset();
                    Ok(())
                })
                .unwrap();
            for _ in 0..scans {
                htapg_exec::physical::touch_column(&e, rel, value).unwrap();
                htapg_exec::physical::touch_column(&e, rel, key).unwrap();
            }
            let batch: Vec<RowId> = (0..reads).map(|i| i * 13 % ROWS).collect();
            e.materialize_rows(rel, &batch).unwrap();
            e.maintain().unwrap();
        };
        let check = |state: &str| {
            assert_record_reads(&e, rel, &[0, 1, 3, 4, 6, 7, 250, ROWS - 1], state);
            assert_planned_aggregates(&e, rel, key, value, state);
        };
        let delegated_bytes = ROWS as usize * (8 + 4);

        assert_eq!(analytic(), (vec![], 0), "nothing delegated");
        check("nothing delegated");

        drive(4, 0);
        assert_eq!(e.delegated(rel).unwrap(), vec![value, key]);
        assert_eq!(analytic(), (vec![value, key], delegated_bytes), "delegated");
        check("delegated");
        // Versions of both delegated columns (one moves a row between
        // groups) and of a primary column, then merged into their owners.
        e.update_field(rel, 3, value, &Value::Float64(-3.5)).unwrap();
        e.update_field(rel, 4, key, &Value::Int32(6)).unwrap();
        e.update_field(rel, 4, 5, &Value::Int32(-5)).unwrap();
        check("delegated, versions unmerged");
        drive(4, 0);
        assert_eq!(e.rels.read(rel, |r| Ok(r.overlay.version_count())).unwrap(), 0);
        assert_eq!(analytic(), (vec![value, key], delegated_bytes), "merged");
        check("delegated, versions merged");

        // Both columns go back: the primary takes the merged fields and the
        // analytic layout drops them.
        drive(1, 600);
        assert!(e.delegated(rel).unwrap().is_empty());
        assert_eq!(analytic(), (vec![], 0), "un-delegated");
        assert_eq!(e.read_field(rel, 3, value).unwrap(), Value::Float64(-3.5));
        assert_eq!(e.read_field(rel, 4, key).unwrap(), Value::Int32(6));
        check("un-delegated");

        // Re-delegated: the analytic layout takes the primary's fields,
        // including one merged while the column was back in the primary.
        e.update_field(rel, 6, value, &Value::Float64(6.25)).unwrap();
        drive(4, 0);
        assert_eq!(e.delegated(rel).unwrap(), vec![value, key]);
        assert_eq!(analytic(), (vec![value, key], delegated_bytes), "re-delegated");
        assert_eq!(e.read_field(rel, 6, value).unwrap(), Value::Float64(6.25));
        check("re-delegated");
    }

    #[test]
    fn htap_traffic_delegates_scanned_columns_beside_a_row_wise_primary() {
        use htapg_core::plan::LogicalPlan;
        use htapg_exec::physical;
        use htapg_exec::threading::ThreadingPolicy;

        const ROWS: u64 = 2_000;
        let (key, value) = (2, 1);
        let e = ReferenceEngine::new();
        let rel = e.create_relation(schema()).unwrap();
        for i in 0..ROWS as i64 {
            let mut r = rec(i);
            r[key as usize] = Value::Int32((i % 10) as i32);
            e.insert(rel, &r).unwrap();
        }
        let plans = [LogicalPlan::sum(rel, value), LogicalPlan::group_sum(rel, key, value)];
        let ledger = e.device().ledger().clone();
        let mut rng = htapg_core::prng::Prng::seed_from_u64(0x4854_4150);
        let mut placed = None;
        for round in 0..5 {
            // Per round: 20 scans of the value column and 10 of the key
            // column, 2,010 record reads (100x the value column's scans),
            // and 300 updates of the value column.
            for _ in 0..10 {
                for plan in &plans {
                    physical::execute_adaptive(&e, plan, ThreadingPolicy::Single).unwrap();
                }
                for _ in 0..200 {
                    e.read_record(rel, rng.gen_range(0..ROWS)).unwrap();
                }
                let batch: Vec<RowId> = (0..50).map(|_| rng.gen_range(0..ROWS)).collect();
                e.materialize_rows(rel, &batch).unwrap();
                for _ in 0..30 {
                    let v = Value::Float64(rng.gen_range(-500.0..500.0));
                    e.update_field(rel, rng.gen_range(0..ROWS), value, &v).unwrap();
                }
            }
            // Planned answers over the delta-stale replica and the patched
            // snapshot against the Volcano oracles.
            let run = |plan| physical::execute_adaptive(&e, plan, ThreadingPolicy::Single).unwrap();
            let sum = run(&plans[0]).output.as_sum().unwrap();
            let oracle = physical::volcano_sum(&e, rel, value).unwrap();
            assert_eq!(sum.to_bits(), oracle.to_bits(), "round {round}: sum {sum} vs {oracle}");
            let bits =
                |g: &[(i64, f64)]| g.iter().map(|&(k, v)| (k, v.to_bits())).collect::<Vec<_>>();
            let groups = run(&plans[1]).output;
            let oracle = physical::volcano_group_sum(&e, rel, key, value).unwrap();
            assert_eq!(bits(groups.as_groups().unwrap()), bits(&oracle), "round {round}");

            e.maintain().unwrap();
            assert_eq!(e.delegated(rel).unwrap(), vec![value, key], "round {round}");
            assert!(e.device_resident(rel).unwrap().contains(&value), "round {round}");
            e.rels
                .read(rel, |r| {
                    let groups = &r.relation.layouts()[PRIMARY].template().groups;
                    assert_eq!(groups.len(), 1, "round {round}: {groups:?}");
                    assert_eq!(groups[0].order, htapg_core::GroupOrder::Nsm, "round {round}");
                    Ok(())
                })
                .unwrap();
            // After the first placement, the device receives delta pairs
            // only: the value replica is merged, never packed again.
            let now = ledger.snapshot();
            if let Some(first) = &placed {
                let moved = now.since(first);
                assert!(moved.delta_bytes > 0, "round {round}: no deltas shipped");
                assert_eq!(moved.bytes_to_device, moved.delta_bytes, "round {round}: a re-pack");
            } else {
                placed = Some(now);
            }
        }
    }

    #[test]
    fn concurrent_htap_load_is_consistent() {
        let (e, rel) = loaded(200);
        // Five logical tasks on the executor pool: four transactional
        // writers plus one analytic scanner, interleaving on however many
        // pool threads are free.
        htapg_exec::pool::run_tasks(5, 5, |w| {
            if w == 4 {
                // Concurrent analytic scans never error and never see torn
                // data.
                for _ in 0..20 {
                    let sum = crate::testing::planned_sum(&e, rel, 1);
                    assert!(sum.is_finite());
                }
                return;
            }
            for i in 0..100u64 {
                let row = (w * 100 + i) % 200;
                let txn = e.begin();
                match e.txn_update(rel, &txn, row, 1, Value::Float64(1.0)) {
                    Ok(()) => {
                        e.txn_commit(rel, &txn).unwrap();
                    }
                    Err(Error::TxnConflict { .. }) => {
                        e.txn_abort(rel, &txn).unwrap();
                    }
                    Err(e) => panic!("{e}"),
                }
            }
        });
        let final_sum = crate::testing::planned_sum(&e, rel, 1);
        // Some prefix of rows was set to 1.0; every value is either its
        // original i or 1.0 — the sum is bounded accordingly.
        let max: f64 = (0..200).map(|i| i as f64).sum();
        assert!(final_sum <= max && final_sum >= 0.0);
    }
}
