//! CoGaDB (Breß et al.; surveyed 2016): "CoGaDB allows thin fragment
//! sub-relations of a relation to be kept on host-memory, device-memory, or
//! on both memory locations using a replication-based approach. ...
//! CoGaDB follows an 'all or nothing' approach for moving a thin fragment
//! ... either there is enough space for the column in the device memory, or
//! not. ... CoGaDB features a self-adapting query optimizer (HYPE) that
//! learns cost models and balances the workload between all compute
//! devices." (Section IV-B3)
//!
//! Columns live on the host (thin vectors); [`StorageEngine::maintain`]
//! replicates the most-scanned columns into simulated device memory with
//! all-or-nothing placement. Planned analytics reach a fresh replica
//! through the offload hooks ([`StorageEngine::offload_sum`],
//! [`StorageEngine::offload_group_sum`]) and the shared device bodies in
//! [`crate::common`]. [`CogadbEngine::sum_column_placed`] is the
//! HYPE-scheduled operator: a learned linear cost model per processor picks
//! CPU or GPU, then observes the actual cost to refine itself. Both
//! placements reduce canonically, so HYPE's choice never moves a bit.
//!
//! Device replicas live in a shared [`DeviceColumnCache`], keyed by
//! `(relation, attr)` and stamped with a per-attr version the engine bumps
//! on every write. A repeat query whose version still matches hits the
//! cache and pays zero PCIe; a write makes the cached copy stale, so the
//! next lookup frees and misses it. Maintain-time placement passes
//! `may_evict = false` so CoGaDB's all-or-nothing contract is preserved:
//! placement never steals memory from already-placed neighbours.

use htapg_core::sync::Mutex;
use std::sync::Arc;
use std::time::Instant;

use htapg_core::adapt::AccessStats;
use htapg_core::engine::{MaintenanceReport, StorageEngine};
use htapg_core::plan::{ColumnEvidence, DeviceCostProfile, Predicate};
use htapg_core::{
    AccessHint, AttrId, DataType, Error, LayoutTemplate, Record, Relation, RelationId, Result,
    RowId, Schema, Value,
};
use htapg_device::kernels;
use htapg_device::{BufferId, DeltaTransport, DeviceColumnCache, SimDevice, StaleInfo};
use htapg_taxonomy::{survey, Classification};

use crate::common::{self, Registry};

/// Which processor executed (or would execute) an operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    Cpu,
    Gpu,
}

/// Simple least-squares linear cost model `t = a + b·n`.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinModel {
    n: f64,
    sum_x: f64,
    sum_y: f64,
    sum_xx: f64,
    sum_xy: f64,
}

impl LinModel {
    pub fn observe(&mut self, x: f64, y: f64) {
        self.n += 1.0;
        self.sum_x += x;
        self.sum_y += y;
        self.sum_xx += x * x;
        self.sum_xy += x * y;
    }

    pub fn samples(&self) -> usize {
        self.n as usize
    }

    /// Predicted cost, or `None` until at least two samples exist.
    pub fn predict(&self, x: f64) -> Option<f64> {
        if self.n < 2.0 {
            return None;
        }
        let denom = self.n * self.sum_xx - self.sum_x * self.sum_x;
        if denom.abs() < f64::EPSILON {
            return Some(self.sum_y / self.n);
        }
        let b = (self.n * self.sum_xy - self.sum_x * self.sum_y) / denom;
        let a = (self.sum_y - b * self.sum_x) / self.n;
        Some((a + b * x).max(0.0))
    }
}

/// The HYPE-style learned scheduler for one operator class.
#[derive(Debug, Default)]
pub struct Hype {
    pub cpu: LinModel,
    pub gpu: LinModel,
    /// Alternation counter for the training phase.
    probe: u64,
}

impl Hype {
    /// Decide a placement for input size `n`; `gpu_available` reflects
    /// whether a fresh device replica exists.
    pub fn decide(&mut self, n: u64, gpu_available: bool) -> Placement {
        if !gpu_available {
            return Placement::Cpu;
        }
        match (self.cpu.predict(n as f64), self.gpu.predict(n as f64)) {
            (Some(c), Some(g)) => {
                if g < c {
                    Placement::Gpu
                } else {
                    Placement::Cpu
                }
            }
            // Training: alternate to gather samples on both processors.
            _ => {
                self.probe += 1;
                if self.probe.is_multiple_of(2) {
                    Placement::Cpu
                } else {
                    Placement::Gpu
                }
            }
        }
    }

    pub fn observe(&mut self, placement: Placement, n: u64, ns: f64) {
        match placement {
            Placement::Cpu => self.cpu.observe(n as f64, ns),
            Placement::Gpu => self.gpu.observe(n as f64, ns),
        }
    }
}

struct CogadbRelation {
    relation: Relation,
    /// Per-attr write versions; a cached device replica is fresh iff its
    /// stamped version equals the current one.
    versions: Vec<u64>,
    stats: AccessStats,
}

/// The CoGaDB engine.
pub struct CogadbEngine {
    device: Arc<SimDevice>,
    cache: Arc<DeviceColumnCache>,
    rels: Registry<CogadbRelation>,
    hype: Mutex<Hype>,
}

impl Default for CogadbEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl CogadbEngine {
    pub fn new() -> Self {
        Self::with_device(Arc::new(SimDevice::with_defaults()))
    }

    pub fn with_device(device: Arc<SimDevice>) -> Self {
        let cache = Arc::new(DeviceColumnCache::new(device.clone()));
        CogadbEngine { device, cache, rels: Registry::new(), hype: Mutex::new(Hype::default()) }
    }

    pub fn device(&self) -> &Arc<SimDevice> {
        &self.device
    }

    /// The device-resident column cache backing all replicas.
    pub fn cache(&self) -> &Arc<DeviceColumnCache> {
        &self.cache
    }

    /// Columns currently replicated on the device (fresh or stale).
    pub fn device_resident(&self, rel: RelationId) -> Result<Vec<AttrId>> {
        self.rels.read(rel, |_| Ok(self.cache.resident_attrs(rel)))
    }

    /// A small delta log is cheaper to ship than a full column repack.
    fn merge_beats_reupload(info: &StaleInfo) -> bool {
        info.stale_rows > 0 && info.stale_rows * 2 <= info.rows
    }

    /// Run `kernel` on a fresh replica of `attr` of `r`, the relation the
    /// caller holds a registry read of — a delta-stale replica is merged
    /// in place first when the log is small enough to beat re-upload.
    /// Errors mean "answer on the host".
    fn with_fresh_replica<T>(
        &self,
        rel: RelationId,
        r: &CogadbRelation,
        attr: AttrId,
        kernel: impl FnOnce(BufferId) -> Result<T>,
    ) -> Result<T> {
        r.stats.record_scan(attr);
        let version = r.versions.get(attr as usize).copied().unwrap_or(0);
        if let Some(col) = self.cache.lookup(rel, attr, version)? {
            return kernel(col.buf);
        }
        match self.cache.stale_info(rel, attr, version) {
            Some(info) if Self::merge_beats_reupload(&info) => {
                kernel(self.cache.merge_deltas(rel, attr, version, DeltaTransport::Pcie)?.buf)
            }
            _ => Err(Error::Internal(format!("no fresh device replica of attr {attr}"))),
        }
    }

    /// Pack a host column into device-ready f64 bytes.
    fn pack_column(r: &CogadbRelation, attr: AttrId) -> Result<(Vec<u8>, u64)> {
        let ty = r.relation.schema().ty(attr)?;
        let dec = kernels::f64_decoder(ty)
            .ok_or(Error::TypeMismatch { expected: "numeric", got: ty.name() })?;
        let mut wide = Vec::with_capacity(r.relation.row_count() as usize);
        r.relation.with_aligned_blocks(&[attr], &[], &mut |blocks| {
            let at = wide.len();
            wide.resize(at + blocks[0].len() / dec.width, 0.0);
            (dec.decode)(blocks[0], &mut wide[at..]);
        })?;
        Ok((wide.iter().flat_map(|x| x.to_le_bytes()).collect(), wide.len() as u64))
    }

    /// Try to place `attr` on the device — all or nothing: placement never
    /// evicts other cached columns to make room.
    pub fn place_column(&self, rel: RelationId, attr: AttrId) -> Result<()> {
        let device = self.device.clone();
        let cache = self.cache.clone();
        self.rels.write(rel, |r| {
            let version = r.versions[attr as usize];
            if cache.contains(rel, attr, version) {
                return Ok(());
            }
            let (bytes, rows) = Self::pack_column(r, attr)?;
            cache.get_or_insert_with(rel, attr, version, rows, false, || device.upload(&bytes))?;
            Ok(())
        })
    }

    /// HYPE-scheduled column sum: decides CPU vs GPU, executes, observes.
    /// Both placements reduce canonically, so they agree to the bit;
    /// summing a non-numeric column is a typed error.
    pub fn sum_column_placed(&self, rel: RelationId, attr: AttrId) -> Result<(f64, Placement)> {
        let device = self.device.clone();
        let handle = self.rels.get(rel)?;
        let r = handle.read();
        let ty = r.relation.schema().ty(attr)?;
        let dec =
            kernels::f64_decoder(ty).ok_or(Error::NonNumericAggregate { attr, got: ty.name() })?;
        r.stats.record_scan(attr);
        let rows = r.relation.row_count();
        let version = r.versions[attr as usize];
        let fresh = self.cache.contains(rel, attr, version);
        let placement = self.hype.lock().decide(rows, fresh);
        if placement == Placement::Gpu {
            // The replica may have been evicted between decide and use —
            // degrade to the host scan instead of failing the query.
            if let Some(col) = self.cache.lookup(rel, attr, version)? {
                let before = device.ledger().snapshot();
                let sum = kernels::reduce_sum_f64(&device, col.buf)?;
                let ns = device.ledger().snapshot().since(&before).kernel_ns;
                self.hype.lock().observe(Placement::Gpu, rows, ns as f64);
                return Ok((sum, Placement::Gpu));
            }
        }
        let t = Instant::now();
        let mut reducer = kernels::SegmentReducer::new(kernels::reduce_seg_len(rows as usize));
        r.relation.with_aligned_blocks(&[attr], &[], &mut |b| reducer.push_bytes(b[0], dec))?;
        let sum = reducer.finish();
        let ns = t.elapsed().as_nanos() as f64;
        self.hype.lock().observe(Placement::Cpu, rows, ns);
        Ok((sum, Placement::Cpu))
    }
}

impl StorageEngine for CogadbEngine {
    fn name(&self) -> &'static str {
        "COGADB"
    }

    fn trace_clock(&self) -> Option<Arc<dyn htapg_core::obs::VirtualClock>> {
        let ledger: Arc<htapg_device::CostLedger> = Arc::clone(self.device().ledger());
        Some(ledger)
    }

    fn classification(&self) -> Classification {
        survey::cogadb()
    }

    fn create_relation(&self, schema: Schema) -> Result<RelationId> {
        let stats = AccessStats::new(schema.arity());
        let versions = vec![0; schema.arity()];
        let template = LayoutTemplate::dsm_emulated(&schema);
        Ok(self.rels.add(CogadbRelation {
            relation: Relation::new(schema, template)?,
            versions,
            stats,
        }))
    }

    fn schema(&self, rel: RelationId) -> Result<Schema> {
        self.rels.read(rel, |r| Ok(r.relation.schema().clone()))
    }

    fn insert(&self, rel: RelationId, record: &Record) -> Result<RowId> {
        self.rels.write(rel, |r| {
            let row = r.relation.insert(record)?;
            // Device replicas no longer cover the new row.
            for v in &mut r.versions {
                *v += 1;
            }
            Ok(row)
        })
    }

    fn read_record(&self, rel: RelationId, row: RowId) -> Result<Record> {
        self.rels.read(rel, |r| {
            let attrs: Vec<AttrId> = r.relation.schema().attr_ids().collect();
            r.stats.record_point_read(&attrs, 1);
            r.relation.read_record(row)
        })
    }

    fn read_field(&self, rel: RelationId, row: RowId, attr: AttrId) -> Result<Value> {
        self.rels.read(rel, |r| {
            r.stats.record_point_read(&[attr], 1);
            r.relation.read_value(row, attr, AccessHint::RecordCentric)
        })
    }

    fn update_field(&self, rel: RelationId, row: RowId, attr: AttrId, value: &Value) -> Result<()> {
        self.rels.write(rel, |r| {
            r.stats.record_update(attr);
            r.relation.update_field(row, attr, value)?;
            r.versions[attr as usize] += 1;
            let nv = r.versions[attr as usize];
            // Ship the write to any resident replica instead of dropping
            // it; non-numeric values can't be delta-encoded as f64 pairs.
            match value.as_f64() {
                Ok(x) => self.cache.append_delta(rel, attr, row, x, nv)?,
                Err(_) => self.cache.invalidate(rel, attr)?,
            }
            Ok(())
        })
    }

    fn with_aligned_blocks(
        &self,
        rel: RelationId,
        attrs: &[AttrId],
        visit: &mut dyn FnMut(&[&[u8]]),
    ) -> Result<()> {
        self.rels.read(rel, |r| {
            attrs.iter().for_each(|&attr| r.stats.record_scan(attr));
            r.relation.with_aligned_blocks(attrs, &[], visit)
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

    /// Evidence without side effects: thin host columns scan contiguously;
    /// warmth is a cache peek against the per-attr write version.
    fn column_evidence(&self, rel: RelationId, attr: AttrId) -> Result<ColumnEvidence> {
        self.rels.read(rel, |r| {
            let ty = r.relation.schema().ty(attr)?;
            let version = r.versions.get(attr as usize).copied().unwrap_or(0);
            let stale = self.cache.stale_info(rel, attr, version);
            Ok(ColumnEvidence {
                rows: r.relation.row_count(),
                ty,
                scan_stride: ty.width() as u64,
                contiguous: true,
                device_warm: stale.is_some_and(|i| i.stale_rows == 0),
                stale_rows: stale.map_or(0, |i| i.stale_rows),
            })
        })
    }

    /// Device sum over a fresh (or cheaply merged) replica, reduced under
    /// the registry read that found it.
    fn offload_sum(&self, rel: RelationId, attr: AttrId, pred: Option<&Predicate>) -> Result<f64> {
        self.rels.read(rel, |r| {
            self.with_fresh_replica(rel, r, attr, |buf| common::device_sum(&self.device, buf, pred))
        })
    }

    /// Device group-sum under one registry read: the keys through the
    /// relation's block read, then the fresh value replica and the kernel,
    /// so no update lands between the keys and the values.
    fn offload_group_sum(
        &self,
        rel: RelationId,
        key_attr: AttrId,
        value_attr: AttrId,
    ) -> Result<Vec<(i64, f64)>> {
        self.rels.read(rel, |r| {
            r.stats.record_scan(key_attr);
            let keys = common::read_keys(r.relation.schema(), key_attr, |visit| {
                r.relation.with_aligned_blocks(&[key_attr], &[], visit)
            })?;
            self.with_fresh_replica(rel, r, value_attr, |buf| {
                common::device_group_sum(&self.device, buf, &keys)
            })
        })
    }

    /// Placement pass: replicate the most-scanned numeric columns onto the
    /// device until it is full; refresh stale replicas. (Layouts themselves
    /// never change — CoGaDB's adaptability is *static* in Table 1.)
    fn maintain(&self) -> Result<MaintenanceReport> {
        let mut report = MaintenanceReport::default();
        let device = self.device.clone();
        // Registry ids are dense vector indices, so enumerate recovers them.
        for (rel, handle) in self.rels.all().into_iter().enumerate() {
            let rel = rel as RelationId;
            let r = handle.write();
            let schema = r.relation.schema().clone();
            let mut by_heat: Vec<(u64, AttrId)> = schema
                .attr_ids()
                .filter(|&a| {
                    !matches!(schema.ty(a), Ok(DataType::Text(_)) | Ok(DataType::Bool) | Err(_))
                })
                .map(|a| (r.stats.scans(a), a))
                .collect();
            by_heat.sort_unstable_by_key(|(heat, _)| std::cmp::Reverse(*heat));
            for (heat, attr) in by_heat {
                if heat == 0 {
                    break;
                }
                let version = r.versions[attr as usize];
                if self.cache.contains(rel, attr, version) {
                    continue;
                }
                // Delta-stale replicas refresh in place: shipping the log
                // is the all-or-nothing-friendly path (no new allocation).
                if let Some(info) = self.cache.stale_info(rel, attr, version) {
                    if Self::merge_beats_reupload(&info) {
                        match self.cache.merge_deltas(rel, attr, version, DeltaTransport::Pcie) {
                            Ok(_) => {
                                report.fragments_moved += 1;
                                continue;
                            }
                            Err(e) if e.is_transient() => continue,
                            Err(_) => {}
                        }
                    }
                }
                let (bytes, rows) = Self::pack_column(&r, attr)?;
                // `may_evict = false`: placement is all-or-nothing and must
                // not cannibalize columns placed for other relations.
                match self
                    .cache
                    .get_or_insert_with(rel, attr, version, rows, false, || device.upload(&bytes))
                {
                    Ok(_) => report.fragments_moved += 1,
                    Err(Error::DeviceOutOfMemory { .. }) => break, // all-or-nothing fallback
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htapg_device::DeviceSpec;

    fn schema() -> Schema {
        Schema::of(&[
            ("k", DataType::Int64),
            ("price", DataType::Float64),
            ("t", DataType::Text(4)),
        ])
    }

    fn rec(i: i64) -> Record {
        vec![Value::Int64(i), Value::Float64(i as f64), Value::Text("c".into())]
    }

    fn loaded(e: &CogadbEngine, n: i64) -> RelationId {
        let rel = e.create_relation(schema()).unwrap();
        for i in 0..n {
            e.insert(rel, &rec(i)).unwrap();
        }
        rel
    }

    #[test]
    fn host_crud() {
        let e = CogadbEngine::new();
        let rel = loaded(&e, 100);
        assert_eq!(e.read_record(rel, 9).unwrap(), rec(9));
        e.update_field(rel, 9, 1, &Value::Float64(1.5)).unwrap();
        assert_eq!(e.read_field(rel, 9, 1).unwrap(), Value::Float64(1.5));
        assert_eq!(crate::testing::planned_sum(&e, rel, 0), (0..100i64).sum::<i64>() as f64);
    }

    #[test]
    fn maintain_places_hot_columns() {
        let e = CogadbEngine::new();
        let rel = loaded(&e, 1000);
        for _ in 0..10 {
            htapg_exec::physical::touch_column(&e, rel, 1).unwrap();
        }
        let report = e.maintain().unwrap();
        assert!(report.fragments_moved >= 1);
        assert!(e.device_resident(rel).unwrap().contains(&1));
        assert!(e.device().used_bytes() >= 8000);
    }

    #[test]
    fn all_or_nothing_falls_back_to_host() {
        let e = CogadbEngine::with_device(Arc::new(SimDevice::new(0, DeviceSpec::tiny())));
        let rel = loaded(&e, 200_000); // 1.6 MB column > 1 MB device
        for _ in 0..5 {
            htapg_exec::physical::touch_column(&e, rel, 1).unwrap();
        }
        let report = e.maintain().unwrap();
        assert_eq!(report.fragments_moved, 0, "placement must fail wholesale");
        assert!(e.device_resident(rel).unwrap().is_empty());
        // Queries still answer from the host.
        let (sum, placement) = e.sum_column_placed(rel, 1).unwrap();
        assert_eq!(placement, Placement::Cpu);
        assert_eq!(sum, (0..200_000i64).map(|i| i as f64).sum::<f64>());
    }

    #[test]
    fn updates_staleify_and_maintain_refreshes() {
        let e = CogadbEngine::new();
        let rel = loaded(&e, 500);
        for _ in 0..5 {
            htapg_exec::physical::touch_column(&e, rel, 1).unwrap();
        }
        e.maintain().unwrap();
        e.update_field(rel, 0, 1, &Value::Float64(1e6)).unwrap();
        // Scheduler must not use the stale replica.
        let (_, placement) = e.sum_column_placed(rel, 1).unwrap();
        assert_eq!(placement, Placement::Cpu);
        let moved = e.maintain().unwrap().fragments_moved;
        assert_eq!(moved, 1, "stale replica refreshed");
        // After refresh the device copy is usable again and correct.
        e.place_column(rel, 1).unwrap();
        let expect = (1..500).map(|i| i as f64).sum::<f64>() + 1e6;
        let mut seen = Vec::new();
        for _ in 0..10 {
            let (sum, placement) = e.sum_column_placed(rel, 1).unwrap();
            assert_eq!(sum.to_bits(), expect.to_bits(), "{placement:?}");
            seen.push(placement);
        }
        assert!(seen.contains(&Placement::Cpu) && seen.contains(&Placement::Gpu));
    }

    #[test]
    fn placements_agree_to_the_bit_and_reject_non_numeric_columns() {
        let e = CogadbEngine::new();
        let rel = e.create_relation(schema()).unwrap();
        for i in 0..3_000i64 {
            let price = (i as f64 * 0.37).sin() * 1e3;
            e.insert(rel, &vec![Value::Int64(i), Value::Float64(price), Value::Text("c".into())])
                .unwrap();
        }
        let err = Error::NonNumericAggregate { attr: 2, got: "text" };
        assert_eq!(e.sum_column_placed(rel, 2), Err(err));
        e.place_column(rel, 1).unwrap();
        let want = htapg_exec::physical::volcano_sum(&e, rel, 1).unwrap();
        let mut seen = Vec::new();
        for _ in 0..6 {
            let (sum, placement) = e.sum_column_placed(rel, 1).unwrap();
            assert_eq!(sum.to_bits(), want.to_bits(), "{placement:?}: {sum} vs {want}");
            seen.push(placement);
        }
        assert!(seen.contains(&Placement::Cpu) && seen.contains(&Placement::Gpu));
    }

    #[test]
    fn hype_learns_to_prefer_the_gpu_for_large_scans() {
        let e = CogadbEngine::new();
        let rel = loaded(&e, 20_000);
        for _ in 0..3 {
            htapg_exec::physical::touch_column(&e, rel, 1).unwrap();
        }
        e.maintain().unwrap();
        // Train: alternating probes gather samples for both processors.
        for _ in 0..8 {
            e.sum_column_placed(rel, 1).unwrap();
        }
        // The GPU's virtual kernel time for 20k rows (~µs) beats a host
        // scan through the dyn visitor; after training HYPE should pick it.
        let (_, placement) = e.sum_column_placed(rel, 1).unwrap();
        assert_eq!(placement, Placement::Gpu);
    }

    #[test]
    fn lin_model_fits_a_line() {
        let mut m = LinModel::default();
        for x in [1.0f64, 2.0, 4.0, 8.0] {
            m.observe(x, 3.0 * x + 10.0);
        }
        let p = m.predict(16.0).unwrap();
        assert!((p - 58.0).abs() < 1e-6, "{p}");
        assert_eq!(LinModel::default().predict(1.0), None);
    }

    #[test]
    fn classification_matches_table1() {
        assert_eq!(CogadbEngine::new().classification(), survey::cogadb());
    }
}
