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
//!    exclusively owned by the analytic layout, the rest by the primary.
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
use htapg_device::{DeltaTransport, DeviceColumnCache, SimDevice};
use htapg_taxonomy::{
    Classification, DataLocality, DataLocation, FragmentLinearization, FragmentScheme,
    LayoutAdaptability, LayoutFlexibility, LayoutHandling, ProcessorSupport, WorkloadSupport,
};

use crate::common::Registry;

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
    /// their transaction's `Commit` record survived — torn tails lose
    /// exactly the unfinished suffix, never committed data.
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
                    let got = self.insert(rel, &values)?;
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

    /// Transactional field write (first-updater-wins on conflict).
    pub fn txn_update(
        &self,
        rel: RelationId,
        txn: &Txn,
        row: RowId,
        attr: AttrId,
        value: Value,
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
            self.log(&LogRecord::Update { rel, row, attr, value: value.clone(), txn: txn.id })?;
            r.overlay.put(txn, (row, attr), value)
        })
    }

    /// Commit; returns the commit timestamp.
    pub fn txn_commit(&self, rel: RelationId, txn: &Txn) -> Result<Timestamp> {
        self.log(&LogRecord::Commit { txn: txn.id })?;
        let (ts, writes) = self.rels.read(rel, |r| r.overlay.commit_with_writes(txn))?;
        // Written columns' device replicas are stale now: bump the version
        // and ship the committed writes into the cache's per-column delta
        // logs, so resident replicas stay mergeable instead of being
        // dropped (the invalidation cliff). Tombstones and non-numeric
        // values are unmergeable — those replicas are dropped as before.
        self.rels.write(rel, |r| {
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
            Ok(())
        })?;
        Ok(ts)
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
            r.snapshot_blocks(attr, ts, &mut |block| {
                for field in block.chunks_exact(ty.width()) {
                    visit(row, &Value::decode(ty, field));
                    row += 1;
                }
            })
        })
    }

    /// Snapshot sum (convenience for the HTAP driver and tests). Summing a
    /// non-numeric column is a typed error, never a silent `0.0`.
    pub fn sum_column_as_of(&self, rel: RelationId, attr: AttrId, ts: Timestamp) -> Result<f64> {
        let ty = self.schema(rel)?.ty(attr)?;
        if !ty.is_numeric() {
            return Err(Error::NonNumericAggregate { attr, got: ty.name() });
        }
        let mut sum = 0.0;
        self.scan_column_as_of(rel, attr, ts, &mut |_, v| {
            sum += v.as_f64().expect("column type checked numeric above");
        })?;
        Ok(sum)
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

    /// Sum a delegated column on the device (errors if no fresh replica;
    /// call [`StorageEngine::maintain`] first). Transient launch faults are
    /// retried with virtual backoff charged to the device ledger.
    pub fn sum_column_device(&self, rel: RelationId, attr: AttrId) -> Result<f64> {
        self.rels.read(rel, |r| {
            self.device_sum_at(rel, attr, r)?
                .ok_or_else(|| Error::Internal(format!("no fresh device replica of attr {attr}")))
        })
    }

    /// The device sum of `attr` at `r`'s version, within the caller's
    /// registry read; `None` when no fresh replica is resident.
    fn device_sum_at(&self, rel: RelationId, attr: AttrId, r: &RefRelation) -> Result<Option<f64>> {
        // Device answers are still scans as far as the advisor is
        // concerned — keep the delegation evidence flowing.
        r.stats.record_scan(attr);
        let Some(col) = self.cache.lookup(rel, attr, r.version)? else {
            return Ok(None);
        };
        with_retry(&RetryPolicy::default(), self.device.ledger(), || {
            kernels::reduce_sum_f64(&self.device, col.buf)
        })
        .map(Some)
    }

    /// Sum a column wherever it can be answered: on the device when a
    /// fresh replica exists — or a delta-stale one is cheap to merge — and
    /// the kernel (after retries) succeeds, otherwise on the host from the
    /// current snapshot. Graceful degradation — a faulty device costs
    /// speed, never availability or correctness.
    pub fn sum_column_auto(&self, rel: RelationId, attr: AttrId) -> Result<f64> {
        // Freshness check and kernel run under one registry read: a commit
        // in between would bump the version and strand the lookup.
        let device_sum = self.rels.read(rel, |r| {
            let ready = self.cache.contains(rel, attr, r.version)
                || match self.cache.stale_info(rel, attr, r.version) {
                    // A faulted or raced merge leaves the replica untouched
                    // at its old version; answer on the host.
                    Some(info) if info.stale_rows > 0 && Self::merge_beats_reupload(&info) => {
                        self.cache.merge_deltas(rel, attr, r.version, DeltaTransport::Pcie).is_ok()
                    }
                    _ => false,
                };
            if !ready {
                return Ok(None);
            }
            match self.device_sum_at(rel, attr, r) {
                Err(e) if e.is_transient() => Ok(None), // fall through to the host
                other => other,
            }
        })?;
        match device_sum {
            Some(sum) => Ok(sum),
            None => self.sum_column_as_of(rel, attr, self.mgr.now()),
        }
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
    /// region ever reads stale data.
    fn set_delegation(&self, r: &mut RefRelation, delegated: Vec<AttrId>) -> Result<()> {
        let old = r.delegated.clone();
        let schema = r.relation.schema().clone();
        let rows = r.relation.row_count();
        // Newly delegated attrs: analytic layout takes over — copy current
        // authoritative (primary) values in. Un-delegated attrs: primary
        // takes back — copy analytic values out.
        let moved_in: Vec<AttrId> =
            delegated.iter().copied().filter(|a| !old.contains(a)).collect();
        let moved_out: Vec<AttrId> =
            old.iter().copied().filter(|a| !delegated.contains(a)).collect();
        for row in 0..rows {
            for &a in &moved_in {
                let v = r.relation.layouts()[PRIMARY].read_value(&schema, row, a)?;
                r.relation.layouts_mut()[ANALYTIC].write_value(&schema, row, a, &v)?;
            }
            for &a in &moved_out {
                let v = r.relation.layouts()[ANALYTIC].read_value(&schema, row, a)?;
                r.relation.layouts_mut()[PRIMARY].write_value(&schema, row, a, &v)?;
            }
        }
        r.delegated = delegated;
        // Install the new policy.
        let policy = policy_for(&r.delegated);
        *r.relation_scheme_mut() = Scheme::Delegation(policy);
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
}

/// Rows per piece a strided column is gathered in: one primary chunk.
const GATHER_ROWS: u64 = DEFAULT_CHUNK_ROWS;

impl RefRelation {
    /// The column `attr` as of `ts`, in row order, as blocks of fixed-width
    /// little-endian fields: the authoritative layout's bytes with every
    /// overlay version visible at `ts` encoded over its row. The overlay
    /// is resolved once, under one read of the version map; contiguous
    /// columns are emitted in place around the patched rows, strided ones
    /// gathered a chunk at a time into one reused buffer. Under the
    /// caller's registry read the blocks hold exactly the bits of per-row
    /// [`MvStore::get_as_of`] reads (DESIGN.md §12).
    fn snapshot_blocks(
        &self,
        attr: AttrId,
        ts: Timestamp,
        visit: &mut dyn FnMut(&[u8]),
    ) -> Result<()> {
        let ty = self.relation.schema().ty(attr)?;
        let w = ty.width();
        let mut versions = Vec::new();
        self.overlay.for_each_as_of(ts, &mut |&(row, a), v| {
            if a == attr {
                versions.push((row, v.clone()));
            }
        });
        versions.sort_unstable_by_key(|&(row, _)| row);
        let mut versions = versions.into_iter().peekable();
        let (mut field, mut buf) = (vec![0; w], Vec::new());
        let layout = if self.delegated.contains(&attr) { ANALYTIC } else { PRIMARY };
        for view in self.relation.layouts()[layout].column_views(attr)? {
            let end = view.first_row + view.rows;
            if let Some(block) = view.contiguous_bytes() {
                let mut from = 0;
                while let Some((row, v)) = versions.next_if(|&(row, _)| row < end) {
                    let at = (row - view.first_row) as usize * w;
                    if from < at {
                        visit(&block[from..at]);
                    }
                    v.encode_into(ty, &mut field)?;
                    visit(&field);
                    from = at + w;
                }
                if from < block.len() {
                    visit(&block[from..]);
                }
                continue;
            }
            for lo in (0..view.rows).step_by(GATHER_ROWS as usize) {
                let piece = view.slice_rows(lo, (lo + GATHER_ROWS).min(view.rows));
                buf.clear();
                for i in 0..piece.rows as usize {
                    buf.extend_from_slice(piece.field(i));
                }
                let end = piece.first_row + piece.rows;
                while let Some((row, v)) = versions.next_if(|&(row, _)| row < end) {
                    let at = (row - piece.first_row) as usize * w;
                    v.encode_into(ty, &mut buf[at..at + w])?;
                }
                visit(&buf);
            }
        }
        debug_assert!(versions.next().is_none(), "an overlay version past the last row");
        Ok(())
    }

    /// The column `attr` as of `ts` packed to little-endian `f64`, the
    /// layout of every device replica; a type error for `Text`/`Bool`.
    fn pack_f64(&self, attr: AttrId, ts: Timestamp) -> Result<Vec<u8>> {
        let ty = self.relation.schema().ty(attr)?;
        let dec = kernels::f64_decoder(ty)
            .ok_or(Error::TypeMismatch { expected: "numeric", got: ty.name() })?;
        let mut out = Vec::with_capacity(self.relation.row_count() as usize * 8);
        let mut x = [0.0];
        self.snapshot_blocks(attr, ts, &mut |block| {
            for field in block.chunks_exact(dec.width) {
                (dec.decode)(field, &mut x);
                out.extend_from_slice(&x[0].to_le_bytes());
            }
        })?;
        Ok(out)
    }

    fn relation_scheme_mut(&mut self) -> &mut Scheme {
        // Relation does not expose a scheme setter publicly; rebuild via a
        // dedicated accessor on Relation would be cleaner, but replacing
        // the scheme in place is exactly what re-delegation means.
        self.relation.scheme_mut()
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
        // thin columns. Nothing delegated yet.
        let primary = LayoutTemplate::grouped(
            vec![htapg_core::VerticalGroup::new(
                schema.attr_ids().collect(),
                htapg_core::GroupOrder::Nsm,
            )],
            Some(self.chunk_rows),
        );
        let analytic = LayoutTemplate::dsm_emulated(&schema);
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
        self.log(&LogRecord::Insert { rel, row, values: record.clone() })?;
        Ok(row)
    }

    fn read_record(&self, rel: RelationId, row: RowId) -> Result<Record> {
        self.rels.read(rel, |r| {
            let schema = r.relation.schema();
            let attrs: Vec<AttrId> = schema.attr_ids().collect();
            r.stats.record_point_read(&attrs);
            let ts = self.mgr.now();
            attrs
                .iter()
                .map(|&a| match r.overlay.get_as_of(ts, &(row, a)) {
                    Some(v) => Ok(v),
                    None => r.relation.read_value(row, a, AccessHint::RecordCentric),
                })
                .collect()
        })
    }

    fn read_field(&self, rel: RelationId, row: RowId, attr: AttrId) -> Result<Value> {
        self.rels.read(rel, |r| {
            r.stats.record_point_read(&[attr]);
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

    /// Auto-commit single-field update: a one-statement transaction.
    /// First-updater-wins aborts are retried with a fresh snapshot — an
    /// autocommit statement has no reads to invalidate, so retrying is
    /// always serializable.
    fn update_field(&self, rel: RelationId, row: RowId, attr: AttrId, value: &Value) -> Result<()> {
        loop {
            let txn = self.begin();
            match self.txn_update(rel, &txn, row, attr, value.clone()) {
                Ok(()) => {
                    self.txn_commit(rel, &txn)?;
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

    fn scan_column(
        &self,
        rel: RelationId,
        attr: AttrId,
        visit: &mut dyn FnMut(RowId, &Value),
    ) -> Result<()> {
        self.scan_column_as_of(rel, attr, self.mgr.now(), visit)
    }

    /// Every column as blocks of the current snapshot (see
    /// `RefRelation::snapshot_blocks`): unmerged versions are patched in,
    /// strided columns gathered.
    fn with_column_bytes(
        &self,
        rel: RelationId,
        attr: AttrId,
        visit: &mut dyn FnMut(&[u8]),
    ) -> Result<bool> {
        self.rels.read(rel, |r| {
            r.stats.record_scan(attr);
            r.snapshot_blocks(attr, self.mgr.now(), visit)?;
            Ok(true)
        })
    }

    /// Analytic sums route through [`ReferenceEngine::sum_column_auto`]:
    /// a fresh device replica answers with a (virtual-time) kernel, a
    /// missing or faulty one degrades gracefully to the host snapshot.
    fn sum_column_f64(&self, rel: RelationId, attr: AttrId) -> Result<f64> {
        self.sum_column_auto(rel, attr)
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

    fn device_sum_column(&self, rel: RelationId, attr: AttrId) -> Result<f64> {
        self.ensure_device_replica(rel, attr)?;
        self.sum_column_device(rel, attr)
    }

    fn device_filter_sum(&self, rel: RelationId, attr: AttrId, pred: &Predicate) -> Result<f64> {
        self.ensure_device_replica(rel, attr)?;
        let device = self.device.clone();
        self.rels.read(rel, |r| {
            r.stats.record_scan(attr);
            let col = self.cache.lookup(rel, attr, r.version)?.ok_or_else(|| {
                Error::Internal(format!("no fresh device replica of attr {attr}"))
            })?;
            with_retry(&RetryPolicy::default(), device.ledger(), || {
                kernels::filter_sum_f64(&device, col.buf, |v| pred.matches(v))
            })
        })
    }

    /// Device group-sum: keys are scanned on the host (grouping is
    /// control-heavy), the per-group value runs are gathered from the
    /// fresh value replica and reduced with the canonical kernel — so
    /// every group's sum is bit-identical to the host route.
    fn device_group_sum(
        &self,
        rel: RelationId,
        key_attr: AttrId,
        value_attr: AttrId,
    ) -> Result<Vec<(i64, f64)>> {
        self.ensure_device_replica(rel, value_attr)?;
        let mut positions: std::collections::BTreeMap<i64, Vec<u64>> = Default::default();
        self.scan_column(rel, key_attr, &mut |row, v| {
            if let Ok(k) = v.as_i64() {
                positions.entry(k).or_default().push(row);
            }
        })?;
        let device = self.device.clone();
        self.rels.read(rel, |r| {
            r.stats.record_scan(value_attr);
            let col = self.cache.lookup(rel, value_attr, r.version)?.ok_or_else(|| {
                Error::Internal(format!("no fresh device replica of attr {value_attr}"))
            })?;
            let mut out = Vec::with_capacity(positions.len());
            for (key, pos) in &positions {
                let gathered = kernels::gather(&device, col.buf, 8, pos)?;
                let sum = with_retry(&RetryPolicy::default(), device.ledger(), || {
                    kernels::reduce_sum_f64(&device, gathered)
                });
                device.free(gathered)?;
                out.push((*key, sum?));
            }
            Ok(out)
        })
    }

    /// Batch materialization: one registry read, one snapshot timestamp,
    /// base rows visited in sorted order (sequential chunk walk), results
    /// restored to request order.
    fn materialize_rows(&self, rel: RelationId, rows: &[RowId]) -> Result<Vec<Record>> {
        self.rels.read(rel, |r| {
            let schema = r.relation.schema();
            let attrs: Vec<AttrId> = schema.attr_ids().collect();
            r.stats.record_point_read(&attrs);
            let ts = self.mgr.now();
            let mut order: Vec<usize> = (0..rows.len()).collect();
            order.sort_by_key(|&i| rows[i]);
            let mut out: Vec<Record> = vec![Vec::new(); rows.len()];
            for i in order {
                let row = rows[i];
                out[i] = attrs
                    .iter()
                    .map(|&a| match r.overlay.get_as_of(ts, &(row, a)) {
                        Some(v) => Ok(v),
                        None => r.relation.read_value(row, a, AccessHint::RecordCentric),
                    })
                    .collect::<Result<Record>>()?;
            }
            Ok(out)
        })
    }

    /// Maintenance: (1) merge committed overlay versions into the base
    /// layouts and vacuum, (2) re-delegate scan-hot attributes and refresh
    /// device replicas, (3) reorganize the primary layout when the advisor
    /// predicts a win.
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
            // (2) re-delegate scan-dominated numeric attributes.
            let schema = r.relation.schema().clone();
            let hot: Vec<AttrId> = schema
                .attr_ids()
                .filter(|&a| {
                    let s = r.stats.scans(a);
                    let p = r.stats.point_reads(a);
                    s + p > 4 && s as f64 / (s + p) as f64 >= 0.5
                })
                .collect();
            if hot != r.delegated {
                self.set_delegation(&mut r, hot)?;
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
            // (3) primary-layout reorganization.
            let rows = r.relation.row_count();
            let current = r.relation.layouts()[PRIMARY].template().clone();
            let rec = self.advisor.recommend(&schema, &r.stats, &current, rows.max(1));
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
        let sum = e.sum_column_f64(rel, 1).unwrap();
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
        let new_sum = e.sum_column_f64(rel, 1).unwrap();
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
        let sum = e.sum_column_f64(rel, 1).unwrap();
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
            e.sum_column_f64(rel, 1).unwrap();
        }
        let report = e.maintain().unwrap();
        assert!(report.layouts_reorganized >= 1);
        assert_eq!(e.delegated(rel).unwrap(), vec![1]);
        assert!(report.fragments_moved >= 1);
        assert!(e.device_resident(rel).unwrap().contains(&1));
        // The device sum agrees with the host.
        let host = e.sum_column_f64(rel, 1).unwrap();
        let dev = e.sum_column_device(rel, 1).unwrap();
        assert!((host - dev).abs() < 1e-6);
        // Updates after placement are still correct (replica goes stale,
        // reads route to the overlay/base).
        e.update_field(rel, 0, 1, &Value::Float64(123.0)).unwrap();
        assert_eq!(e.read_field(rel, 0, 1).unwrap(), Value::Float64(123.0));
        let host2 = e.sum_column_f64(rel, 1).unwrap();
        assert!((host2 - (host + 123.0)).abs() < 1e-6);
        // Maintain refreshes the replica.
        e.maintain().unwrap();
        let dev2 = e.sum_column_device(rel, 1).unwrap();
        assert!((dev2 - host2).abs() < 1e-6);
    }

    #[test]
    fn delegation_survives_workload_shift() {
        let (e, rel) = loaded(200);
        for _ in 0..30 {
            e.sum_column_f64(rel, 1).unwrap();
        }
        e.maintain().unwrap();
        assert_eq!(e.delegated(rel).unwrap(), vec![1]);
        // Update through the delegated region, then shift to point reads.
        e.update_field(rel, 5, 1, &Value::Float64(777.0)).unwrap();
        e.maintain().unwrap(); // merge into analytic layout (authoritative)
        for i in 0..300 {
            e.read_record(rel, i % 200).unwrap();
        }
        e.maintain().unwrap();
        // Un-delegated now; the value written while delegated must survive
        // the hand-back synchronization.
        assert!(e.delegated(rel).unwrap().is_empty());
        assert_eq!(e.read_field(rel, 5, 1).unwrap(), Value::Float64(777.0));
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
                    let sum = e.sum_column_f64(rel, 1).unwrap();
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
        let final_sum = e.sum_column_f64(rel, 1).unwrap();
        // Some prefix of rows was set to 1.0; every value is either its
        // original i or 1.0 — the sum is bounded accordingly.
        let max: f64 = (0..200).map(|i| i as f64).sum();
        assert!(final_sum <= max && final_sum >= 0.0);
    }
}
