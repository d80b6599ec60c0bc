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
//! all-or-nothing placement. [`CogadbEngine::sum_column_placed`] is the
//! HYPE-scheduled operator: a learned linear cost model per processor picks
//! CPU or GPU, then observes the actual cost to refine itself.
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
use htapg_device::{CachedColumn, DeltaTransport, DeviceColumnCache, SimDevice, StaleInfo};
use htapg_taxonomy::{survey, Classification};

use crate::common::Registry;

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

    /// A fresh replica, merging a delta-stale one in place when the log is
    /// small enough to beat re-upload. Errors mean "answer on the host".
    fn fresh_or_merged(&self, rel: RelationId, attr: AttrId, version: u64) -> Result<CachedColumn> {
        if let Some(col) = self.cache.lookup(rel, attr, version)? {
            return Ok(col);
        }
        if let Some(info) = self.cache.stale_info(rel, attr, version) {
            if Self::merge_beats_reupload(&info) {
                return self.cache.merge_deltas(rel, attr, version, DeltaTransport::Pcie);
            }
        }
        Err(Error::Internal(format!("no fresh device replica of attr {attr}")))
    }

    /// Pack a host column into device-ready f64 bytes.
    fn pack_column(r: &CogadbRelation, attr: AttrId) -> Result<(Vec<u8>, u64)> {
        let ty = r.relation.schema().ty(attr)?;
        match ty {
            DataType::Text(_) | DataType::Bool => {
                return Err(Error::TypeMismatch { expected: "numeric", got: ty.name() })
            }
            _ => {}
        }
        let mut out = Vec::new();
        let mut rows = 0u64;
        r.relation.for_each_field(attr, |_, bytes| {
            let x = match ty {
                DataType::Float64 => f64::from_le_bytes(bytes.try_into().unwrap()),
                DataType::Int64 => i64::from_le_bytes(bytes.try_into().unwrap()) as f64,
                DataType::Int32 | DataType::Date => {
                    i32::from_le_bytes(bytes.try_into().unwrap()) as f64
                }
                _ => unreachable!(),
            };
            out.extend_from_slice(&x.to_le_bytes());
            rows += 1;
        })?;
        Ok((out, rows))
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
    pub fn sum_column_placed(&self, rel: RelationId, attr: AttrId) -> Result<(f64, Placement)> {
        let device = self.device.clone();
        let handle = self.rels.get(rel)?;
        let r = handle.read();
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
        let ty = r.relation.schema().ty(attr)?;
        let t = Instant::now();
        let mut sum = 0.0f64;
        r.relation.for_each_field(attr, |_, bytes| {
            sum += match ty {
                DataType::Float64 => f64::from_le_bytes(bytes.try_into().unwrap()),
                DataType::Int64 => i64::from_le_bytes(bytes.try_into().unwrap()) as f64,
                DataType::Int32 | DataType::Date => {
                    i32::from_le_bytes(bytes.try_into().unwrap()) as f64
                }
                _ => 0.0,
            };
        })?;
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
            r.stats.record_point_read(&attrs);
            r.relation.read_record(row)
        })
    }

    fn read_field(&self, rel: RelationId, row: RowId, attr: AttrId) -> Result<Value> {
        self.rels.read(rel, |r| {
            r.stats.record_point_read(&[attr]);
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

    fn scan_column(
        &self,
        rel: RelationId,
        attr: AttrId,
        visit: &mut dyn FnMut(RowId, &Value),
    ) -> Result<()> {
        self.rels.read(rel, |r| {
            r.stats.record_scan(attr);
            let ty = r.relation.schema().ty(attr)?;
            r.relation.for_each_field(attr, |row, bytes| visit(row, &Value::decode(ty, bytes)))
        })
    }

    fn with_column_bytes(
        &self,
        rel: RelationId,
        attr: AttrId,
        visit: &mut dyn FnMut(&[u8]),
    ) -> Result<bool> {
        self.rels.read(rel, |r| {
            r.stats.record_scan(attr);
            r.relation.with_column_bytes(attr, visit)
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

    fn device_sum_column(&self, rel: RelationId, attr: AttrId) -> Result<f64> {
        self.rels.read(rel, |r| {
            r.stats.record_scan(attr);
            let version = r.versions.get(attr as usize).copied().unwrap_or(0);
            let col = self.fresh_or_merged(rel, attr, version)?;
            kernels::reduce_sum_f64(&self.device, col.buf)
        })
    }

    fn device_filter_sum(&self, rel: RelationId, attr: AttrId, pred: &Predicate) -> Result<f64> {
        self.rels.read(rel, |r| {
            r.stats.record_scan(attr);
            let version = r.versions.get(attr as usize).copied().unwrap_or(0);
            let col = self.fresh_or_merged(rel, attr, version)?;
            kernels::filter_sum_f64(&self.device, col.buf, |v| pred.matches(v))
        })
    }

    /// Device group-sum over a fresh value replica: keys scanned on the
    /// host, per-group runs gathered and canonically reduced on the device.
    fn device_group_sum(
        &self,
        rel: RelationId,
        key_attr: AttrId,
        value_attr: AttrId,
    ) -> Result<Vec<(i64, f64)>> {
        self.schema(rel)?.key_ty(key_attr)?;
        let mut positions: std::collections::BTreeMap<i64, Vec<u64>> = Default::default();
        self.scan_column(rel, key_attr, &mut |row, v| {
            let k = v.as_i64().expect("key type checked integer above");
            positions.entry(k).or_default().push(row);
        })?;
        self.rels.read(rel, |r| {
            r.stats.record_scan(value_attr);
            let version = r.versions.get(value_attr as usize).copied().unwrap_or(0);
            let col = self.fresh_or_merged(rel, value_attr, version)?;
            let mut out = Vec::with_capacity(positions.len());
            for (key, pos) in &positions {
                let gathered = kernels::gather(&self.device, col.buf, 8, pos)?;
                let sum = kernels::reduce_sum_f64(&self.device, gathered);
                self.device.free(gathered)?;
                out.push((*key, sum?));
            }
            Ok(out)
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
        assert_eq!(e.sum_column_f64(rel, 0).unwrap(), (0..100i64).sum::<i64>() as f64);
    }

    #[test]
    fn maintain_places_hot_columns() {
        let e = CogadbEngine::new();
        let rel = loaded(&e, 1000);
        for _ in 0..10 {
            e.sum_column_f64(rel, 1).unwrap();
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
            e.sum_column_f64(rel, 1).unwrap();
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
            e.sum_column_f64(rel, 1).unwrap();
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
        for _ in 0..10 {
            let (sum, _) = e.sum_column_placed(rel, 1).unwrap();
            assert!((sum - expect).abs() < 1e-6);
        }
    }

    #[test]
    fn hype_learns_to_prefer_the_gpu_for_large_scans() {
        let e = CogadbEngine::new();
        let rel = loaded(&e, 20_000);
        for _ in 0..3 {
            e.sum_column_f64(rel, 1).unwrap();
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
