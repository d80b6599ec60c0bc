//! GPUTx (He & Yu, 2011): "an in-memory relational database prototype for
//! transaction workload processing on graphics cards that addresses
//! [under-utilization] by bulk-processing of transactions. ... A relation
//! in GPUTx is organized by n thin fragment sub-relations. ... GPUTx
//! manages a result pool in host-memory that retrieves copies from the
//! device-memory." (Section IV-B1)
//!
//! Relations live entirely in (simulated) device memory as one thin column
//! buffer per attribute. Transactions are meant to be executed in bulk via
//! [`GputxEngine::execute_batch`] — one kernel wave per touched attribute;
//! the single-op `StorageEngine` methods run a degenerate batch of one,
//! paying the launch overhead and under-filled lanes the paper warns about.
//!
//! Planned analytics answer through the offload hooks
//! ([`StorageEngine::offload_sum`], [`StorageEngine::offload_group_sum`]):
//! a packed f64 replica of the typed column is materialized *device-side*
//! (a widening map kernel — both ends live in device memory, so no PCIe)
//! into the shared [`DeviceColumnCache`], stamped with a per-attr version
//! bumped by every write wave, and reduced by the shared device bodies in
//! [`crate::common`]. Repeat queries hit the cache and skip even the
//! widening pass.

use std::sync::Arc;

use htapg_core::engine::{align_columns, MaintenanceReport, StorageEngine};
use htapg_core::plan::{ColumnEvidence, DeviceCostProfile, Predicate};
use htapg_core::{AttrId, Error, Record, RelationId, Result, RowId, Schema, Value};
use htapg_device::cache::CachedColumn;
use htapg_device::kernels;
use htapg_device::simt::{Executor, KernelCost, LaunchConfig};
use htapg_device::{BufferId, DeltaTransport, DeviceColumnCache, DeviceSpec, SimDevice};
use htapg_taxonomy::{survey, Classification};

use crate::common::{self, Registry};

/// One transaction operation for bulk execution.
#[derive(Debug, Clone, PartialEq)]
pub enum TxOp {
    /// Set `attr` of `row` to `value`.
    Update { row: RowId, attr: AttrId, value: Value },
    /// Read the whole record into the host result pool.
    Read { row: RowId },
}

struct DeviceColumn {
    buf: BufferId,
    width: usize,
    capacity: u64,
}

struct GputxRelation {
    schema: Schema,
    columns: Vec<DeviceColumn>,
    rows: u64,
    /// Per-attr write versions stamping the cached analytic replicas.
    versions: Vec<u64>,
}

/// The GPUTx engine: device-resident columns, bulk transactions.
pub struct GputxEngine {
    device: Arc<SimDevice>,
    cache: Arc<DeviceColumnCache>,
    rels: Registry<GputxRelation>,
}

impl Default for GputxEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl GputxEngine {
    pub fn new() -> Self {
        Self::with_device(Arc::new(SimDevice::with_defaults()))
    }

    pub fn with_spec(spec: DeviceSpec) -> Self {
        Self::with_device(Arc::new(SimDevice::new(0, spec)))
    }

    pub fn with_device(device: Arc<SimDevice>) -> Self {
        let cache = Arc::new(DeviceColumnCache::new(device.clone()));
        GputxEngine { device, cache, rels: Registry::new() }
    }

    pub fn device(&self) -> &Arc<SimDevice> {
        &self.device
    }

    /// The cache of packed analytic column replicas.
    pub fn cache(&self) -> &Arc<DeviceColumnCache> {
        &self.cache
    }

    fn ensure_capacity(&self, r: &mut GputxRelation, need: u64) -> Result<()> {
        if r.columns.is_empty() {
            let cap = 1024u64.max(need);
            for a in r.schema.attr_ids() {
                let width = r.schema.width(a)?;
                let buf = self.device.alloc(cap as usize * width)?;
                r.columns.push(DeviceColumn { buf, width, capacity: cap });
            }
            return Ok(());
        }
        if r.columns[0].capacity >= need {
            return Ok(());
        }
        let new_cap = (r.columns[0].capacity * 2).max(need);
        for col in &mut r.columns {
            let bigger = self.device.alloc(new_cap as usize * col.width)?;
            self.device.device_copy(col.buf, bigger)?;
            self.device.free(col.buf)?;
            col.buf = bigger;
            col.capacity = new_cap;
        }
        Ok(())
    }

    /// Bulk-insert records in one transfer wave per column.
    pub fn bulk_insert(&self, rel: RelationId, records: &[Record]) -> Result<RowId> {
        let device = self.device.clone();
        self.rels.write(rel, |r| {
            for rec in records {
                r.schema.check_record(rec)?;
            }
            let first = r.rows;
            self.ensure_capacity(r, r.rows + records.len() as u64)?;
            for (ai, col) in r.columns.iter().enumerate() {
                let ty = r.schema.ty(ai as AttrId)?;
                let mut payload = vec![0u8; records.len() * col.width];
                for (i, rec) in records.iter().enumerate() {
                    rec[ai].encode_into(ty, &mut payload[i * col.width..(i + 1) * col.width])?;
                }
                device.write(col.buf, first as usize * col.width, &payload)?;
            }
            r.rows += records.len() as u64;
            // New rows are not covered by any cached analytic replica.
            for v in &mut r.versions {
                *v += 1;
            }
            Ok(first)
        })
    }

    /// `attrs` of `r` as row-aligned blocks straight from the device
    /// columns, each column read by one scan launch; every column but the
    /// last is copied out to pair with the last one's rows
    /// ([`align_columns`]).
    fn read_columns(
        &self,
        r: &GputxRelation,
        attrs: &[AttrId],
        visit: &mut dyn FnMut(&[&[u8]]),
    ) -> Result<()> {
        let widths = attrs.iter().map(|&a| r.schema.width(a)).collect::<Result<Vec<_>>>()?;
        // Column buffers are allocated on the first insert.
        if r.rows == 0 {
            return Ok(());
        }
        align_columns(
            &widths,
            |i, sink| {
                let col = &r.columns[attrs[i] as usize];
                self.device
                    .with_buffer(col.buf, |bytes| sink(&bytes[..r.rows as usize * col.width]))?;
                Executor::new(&self.device).charge_launch(
                    LaunchConfig::new(1024, 512),
                    KernelCost {
                        work_items: r.rows,
                        cycles_per_item: 4.0,
                        bytes: r.rows * col.width as u64,
                    },
                )?;
                Ok(())
            },
            visit,
        )
    }

    /// A fresh packed-f64 replica of `attr` of `r` (the relation the
    /// caller holds a registry read of) in the shared cache, built by the
    /// device-side widening kernel on miss. Errors on non-numeric types
    /// and empty relations.
    fn packed_replica(
        &self,
        rel: RelationId,
        r: &GputxRelation,
        attr: AttrId,
    ) -> Result<CachedColumn> {
        let (device, cache) = (&self.device, &self.cache);
        let col = r.columns.get(attr as usize).ok_or(Error::UnknownAttribute(attr))?;
        let ty = r.schema.ty(attr)?;
        let dec = kernels::f64_decoder(ty)
            .ok_or(Error::TypeMismatch { expected: "numeric", got: ty.name() })?;
        if r.rows == 0 {
            return Err(Error::Internal("empty relation has no packed replica".into()));
        }
        let rows = r.rows;
        let version = r.versions[attr as usize];
        // Update waves left a delta log behind: scatter it into the
        // resident replica device-side (both ends in device memory, so
        // zero PCIe) instead of re-running the widening pass. A faulted
        // merge falls through to the full rebuild below.
        if let Some(info) = cache.stale_info(rel, attr, version) {
            if info.stale_rows > 0 && info.stale_rows * 2 <= info.rows {
                if let Ok(col) = cache.merge_deltas(rel, attr, version, DeltaTransport::DeviceLocal)
                {
                    return Ok(col);
                }
            }
        }
        cache.get_or_insert_with(rel, attr, version, rows, true, || {
            let mut wide = vec![0.0; rows as usize];
            device.with_buffer(col.buf, |bytes| {
                (dec.decode)(&bytes[..wide.len() * dec.width], &mut wide)
            })?;
            let out: Vec<u8> = wide.iter().flat_map(|x| x.to_le_bytes()).collect();
            let buf = device.alloc(out.len())?;
            let built =
                device.with_buffer_mut(buf, |dst| dst.copy_from_slice(&out)).and_then(|()| {
                    Executor::new(device)
                        .charge_launch(
                            LaunchConfig::new(1024, 512),
                            KernelCost {
                                work_items: rows,
                                cycles_per_item: 2.0,
                                bytes: rows * (col.width as u64 + 8),
                            },
                        )
                        .map(|_| ())
                });
            if let Err(e) = built {
                device.free(buf)?;
                return Err(e);
            }
            Ok(buf)
        })
    }

    /// Execute a batch of transactions in bulk: one kernel wave per touched
    /// attribute for updates, one gather wave for reads. Returns the host
    /// result pool (one entry per [`TxOp::Read`], in op order).
    pub fn execute_batch(&self, rel: RelationId, ops: &[TxOp]) -> Result<Vec<Record>> {
        let device = self.device.clone();
        self.rels.write(rel, |r| {
            // Validate first: bulk execution is all-or-nothing.
            for op in ops {
                let row = match op {
                    TxOp::Update { row, attr, value } => {
                        let ty = r.schema.ty(*attr)?;
                        if !value.matches(ty) {
                            return Err(Error::TypeMismatch {
                                expected: ty.name(),
                                got: value.type_name(),
                            });
                        }
                        *row
                    }
                    TxOp::Read { row } => *row,
                };
                if row >= r.rows {
                    return Err(Error::UnknownRow(row));
                }
            }
            let ex = Executor::new(&device);
            // Update waves, grouped by attribute.
            for a in r.schema.attr_ids() {
                let ups: Vec<(RowId, &Value)> = ops
                    .iter()
                    .filter_map(|op| match op {
                        TxOp::Update { row, attr, value } if *attr == a => Some((*row, value)),
                        _ => None,
                    })
                    .collect();
                if ups.is_empty() {
                    continue;
                }
                let col = &r.columns[a as usize];
                let ty = r.schema.ty(a)?;
                let mut field = vec![0u8; col.width];
                for (row, value) in &ups {
                    value.encode_into(ty, &mut field)?;
                    device.with_buffer_mut(col.buf, |bytes| {
                        let off = *row as usize * col.width;
                        bytes[off..off + col.width].copy_from_slice(&field);
                    })?;
                }
                ex.charge_launch(
                    LaunchConfig::new(
                        1024.min(ups.len().max(1) as u32),
                        device.spec().max_threads_per_block.min(512),
                    ),
                    KernelCost {
                        work_items: ups.len() as u64,
                        cycles_per_item: 20.0,
                        bytes: (ups.len() * col.width * 2) as u64,
                    },
                )?;
                // The update wave ships to this attr's cached replica as
                // f64-widened deltas; values that can't widen drop it.
                r.versions[a as usize] += 1;
                let nv = r.versions[a as usize];
                for (row, value) in &ups {
                    match value.as_f64() {
                        Ok(x) => self.cache.append_delta(rel, a, *row, x, nv)?,
                        Err(_) => {
                            self.cache.invalidate(rel, a)?;
                            break;
                        }
                    }
                }
            }
            // Read wave: gather all requested records into the result pool.
            let reads: Vec<RowId> = ops
                .iter()
                .filter_map(|op| match op {
                    TxOp::Read { row } => Some(*row),
                    _ => None,
                })
                .collect();
            let mut pool = Vec::with_capacity(reads.len());
            if !reads.is_empty() {
                let mut bytes_touched = 0u64;
                for &row in &reads {
                    let mut rec = Vec::with_capacity(r.schema.arity());
                    for a in r.schema.attr_ids() {
                        let col = &r.columns[a as usize];
                        let ty = r.schema.ty(a)?;
                        let field = device.with_buffer(col.buf, |bytes| {
                            let off = row as usize * col.width;
                            bytes[off..off + col.width].to_vec()
                        })?;
                        rec.push(Value::decode(ty, &field));
                        bytes_touched += col.width as u64;
                    }
                    pool.push(rec);
                }
                ex.charge_launch(
                    LaunchConfig::new(
                        1024.min(reads.len().max(1) as u32),
                        device.spec().max_threads_per_block.min(512),
                    ),
                    KernelCost {
                        work_items: reads.len() as u64,
                        cycles_per_item: 10.0,
                        bytes: bytes_touched,
                    },
                )?;
                // Result pool copy-out: device → host transfer.
                let pool_bytes: usize = (bytes_touched) as usize;
                device.ledger().charge_transfer(
                    device.spec().transfer_ns(pool_bytes),
                    0,
                    pool_bytes as u64,
                );
            }
            Ok(pool)
        })
    }
}

impl StorageEngine for GputxEngine {
    fn name(&self) -> &'static str {
        "GPUTX"
    }

    fn trace_clock(&self) -> Option<Arc<dyn htapg_core::obs::VirtualClock>> {
        let ledger: Arc<htapg_device::CostLedger> = Arc::clone(self.device().ledger());
        Some(ledger)
    }

    fn classification(&self) -> Classification {
        survey::gputx()
    }

    fn create_relation(&self, schema: Schema) -> Result<RelationId> {
        let versions = vec![0; schema.arity()];
        Ok(self.rels.add(GputxRelation { schema, columns: Vec::new(), rows: 0, versions }))
    }

    fn schema(&self, rel: RelationId) -> Result<Schema> {
        self.rels.read(rel, |r| Ok(r.schema.clone()))
    }

    fn insert(&self, rel: RelationId, record: &Record) -> Result<RowId> {
        self.bulk_insert(rel, std::slice::from_ref(record))
    }

    fn read_record(&self, rel: RelationId, row: RowId) -> Result<Record> {
        let pool = self.execute_batch(rel, &[TxOp::Read { row }])?;
        pool.into_iter().next().ok_or(Error::UnknownRow(row))
    }

    fn read_field(&self, rel: RelationId, row: RowId, attr: AttrId) -> Result<Value> {
        let device = self.device.clone();
        self.rels.read(rel, |r| {
            if row >= r.rows {
                return Err(Error::UnknownRow(row));
            }
            let col = r.columns.get(attr as usize).ok_or(Error::UnknownAttribute(attr))?;
            let ty = r.schema.ty(attr)?;
            let bytes = device.read_at(col.buf, row as usize * col.width, col.width)?;
            Ok(Value::decode(ty, &bytes))
        })
    }

    fn update_field(&self, rel: RelationId, row: RowId, attr: AttrId, value: &Value) -> Result<()> {
        // A single transaction: the degenerate batch GPUTx exists to avoid.
        self.execute_batch(rel, &[TxOp::Update { row, attr, value: value.clone() }])?;
        Ok(())
    }

    fn with_aligned_blocks(
        &self,
        rel: RelationId,
        attrs: &[AttrId],
        visit: &mut dyn FnMut(&[&[u8]]),
    ) -> Result<()> {
        self.rels.read(rel, |r| self.read_columns(r, attrs, visit))
    }

    fn row_count(&self, rel: RelationId) -> Result<u64> {
        self.rels.read(rel, |r| Ok(r.rows))
    }

    fn maintain(&self) -> Result<MaintenanceReport> {
        Ok(MaintenanceReport::default())
    }

    // --------------------------------------------------------------
    // Planner surface
    // --------------------------------------------------------------

    fn device_cost_profile(&self) -> Option<DeviceCostProfile> {
        Some(self.device.spec().cost_profile())
    }

    /// Evidence without side effects: the base columns are thin and
    /// device-resident, so scans are contiguous *and always warm* — even
    /// on a packed-replica miss the widening pass runs device-side with
    /// no PCIe, so the router must never price an upload (or a per-value
    /// host read through the bus) for this engine's analytics.
    fn column_evidence(&self, rel: RelationId, attr: AttrId) -> Result<ColumnEvidence> {
        self.rels.read(rel, |r| {
            let ty = r.schema.ty(attr)?;
            // `stale_rows: 0` even when a delta log exists: the merge runs
            // device-local with no PCIe, so warm pricing already fits.
            Ok(ColumnEvidence {
                rows: r.rows,
                ty,
                scan_stride: ty.width() as u64,
                contiguous: true,
                device_warm: true,
                stale_rows: 0,
            })
        })
    }

    /// Device sum over the packed replica (widened device-side on a miss;
    /// a repeat query at the same version runs only the reduction).
    fn offload_sum(&self, rel: RelationId, attr: AttrId, pred: Option<&Predicate>) -> Result<f64> {
        self.rels.read(rel, |r| {
            let packed = self.packed_replica(rel, r, attr)?;
            common::device_sum(&self.device, packed.buf, pred)
        })
    }

    /// Device group-sum under one registry read: keys read from the
    /// device-resident key column, values from the packed replica, so no
    /// update wave lands between the keys and the values.
    fn offload_group_sum(
        &self,
        rel: RelationId,
        key_attr: AttrId,
        value_attr: AttrId,
    ) -> Result<Vec<(i64, f64)>> {
        self.rels.read(rel, |r| {
            let keys = common::read_keys(&r.schema, key_attr, |visit| {
                self.read_columns(r, &[key_attr], visit)
            })?;
            let packed = self.packed_replica(rel, r, value_attr)?;
            common::device_group_sum(&self.device, packed.buf, &keys)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htapg_core::DataType;

    fn schema() -> Schema {
        Schema::of(&[("k", DataType::Int64), ("v", DataType::Float64), ("t", DataType::Text(4))])
    }

    fn rec(i: i64) -> Record {
        vec![Value::Int64(i), Value::Float64(i as f64), Value::Text("g".into())]
    }

    #[test]
    fn crud_on_device() {
        let e = GputxEngine::new();
        let rel = e.create_relation(schema()).unwrap();
        for i in 0..100 {
            e.insert(rel, &rec(i)).unwrap();
        }
        assert_eq!(e.read_record(rel, 42).unwrap(), rec(42));
        e.update_field(rel, 42, 1, &Value::Float64(-1.0)).unwrap();
        assert_eq!(e.read_field(rel, 42, 1).unwrap(), Value::Float64(-1.0));
        let sum = crate::testing::planned_sum(&e, rel, 0);
        assert_eq!(sum, (0..100i64).sum::<i64>() as f64);
    }

    #[test]
    fn analytics_on_an_empty_relation_visit_no_rows() {
        use htapg_core::plan::{LogicalPlan, Predicate};
        use htapg_exec::physical;
        use htapg_exec::threading::ThreadingPolicy;
        let e = GputxEngine::new();
        let rel = e.create_relation(schema()).unwrap();
        for logical in
            [LogicalPlan::sum(rel, 1), LogicalPlan::filter_sum(rel, 1, Predicate::Ge(0.0))]
        {
            let plan = e.plan(&logical).unwrap();
            let out = physical::execute(&e, &plan, ThreadingPolicy::Single).unwrap();
            assert_eq!(out.as_sum().map(f64::to_bits), Some(0.0f64.to_bits()), "{logical:?}");
        }
        let plan = e.plan(&LogicalPlan::group_sum(rel, 0, 1)).unwrap();
        let out = physical::execute(&e, &plan, ThreadingPolicy::Single).unwrap();
        assert_eq!(out.as_groups(), Some(&[][..]));
        let mut visited = 0;
        e.scan_column(rel, 2, &mut |_, _| visited += 1).unwrap();
        assert!(e.with_column_bytes(rel, 1, &mut |_| visited += 1).unwrap());
        assert_eq!(visited, 0);
        // An attribute outside the schema still errors.
        assert_eq!(e.scan_column(rel, 3, &mut |_, _| {}), Err(Error::UnknownAttribute(3)));
        assert_eq!(e.with_column_bytes(rel, 3, &mut |_| {}), Err(Error::UnknownAttribute(3)));
        let plan = e.plan(&LogicalPlan::sum(rel, 3));
        assert!(plan.and_then(|p| physical::execute(&e, &p, ThreadingPolicy::Single)).is_err());
    }

    #[test]
    fn growth_reallocates_on_device() {
        let e = GputxEngine::new();
        let rel = e.create_relation(schema()).unwrap();
        let records: Vec<Record> = (0..3000).map(rec).collect();
        e.bulk_insert(rel, &records).unwrap();
        assert_eq!(e.row_count(rel).unwrap(), 3000);
        assert_eq!(e.read_record(rel, 2999).unwrap(), rec(2999));
        assert_eq!(e.read_record(rel, 0).unwrap(), rec(0));
    }

    #[test]
    fn bulk_batch_executes_all_or_nothing() {
        let e = GputxEngine::new();
        let rel = e.create_relation(schema()).unwrap();
        e.bulk_insert(rel, &(0..10).map(rec).collect::<Vec<_>>()).unwrap();
        let ops = vec![
            TxOp::Update { row: 1, attr: 1, value: Value::Float64(100.0) },
            TxOp::Read { row: 1 },
            TxOp::Update { row: 2, attr: 1, value: Value::Float64(200.0) },
            TxOp::Read { row: 2 },
        ];
        let pool = e.execute_batch(rel, &ops).unwrap();
        assert_eq!(pool.len(), 2);
        assert_eq!(pool[0][1], Value::Float64(100.0));
        assert_eq!(pool[1][1], Value::Float64(200.0));
        // A batch containing an invalid row fails wholesale.
        let bad = vec![
            TxOp::Update { row: 0, attr: 1, value: Value::Float64(1.0) },
            TxOp::Read { row: 999 },
        ];
        assert!(e.execute_batch(rel, &bad).is_err());
        assert_ne!(e.read_field(rel, 0, 1).unwrap(), Value::Float64(1.0));
    }

    #[test]
    fn batching_amortizes_kernel_launches() {
        let e = GputxEngine::new();
        let rel = e.create_relation(schema()).unwrap();
        e.bulk_insert(rel, &(0..1000).map(rec).collect::<Vec<_>>()).unwrap();
        // 100 single-op batches.
        let before = e.device().ledger().snapshot();
        for i in 0..100 {
            e.update_field(rel, i, 1, &Value::Float64(0.0)).unwrap();
        }
        let singles = e.device().ledger().snapshot().since(&before);
        // One 100-op batch.
        let before = e.device().ledger().snapshot();
        let ops: Vec<TxOp> = (0..100)
            .map(|i| TxOp::Update { row: i, attr: 1, value: Value::Float64(1.0) })
            .collect();
        e.execute_batch(rel, &ops).unwrap();
        let bulk = e.device().ledger().snapshot().since(&before);
        assert_eq!(singles.kernel_launches, 100);
        assert_eq!(bulk.kernel_launches, 1);
        assert!(
            bulk.kernel_ns * 10 < singles.kernel_ns,
            "bulk {} vs singles {}",
            bulk.kernel_ns,
            singles.kernel_ns
        );
    }

    #[test]
    fn cached_analytic_sum_hits_and_write_waves_invalidate() {
        let e = GputxEngine::new();
        let rel = e.create_relation(schema()).unwrap();
        e.bulk_insert(rel, &(0..1000).map(rec).collect::<Vec<_>>()).unwrap();
        let host = htapg_exec::physical::volcano_sum(&e, rel, 1).unwrap();
        let before = e.device().ledger().snapshot();
        let s1 = e.offload_sum(rel, 1, None).unwrap();
        assert_eq!(s1.to_bits(), host.to_bits());
        let cold = e.device().ledger().snapshot().since(&before);
        assert_eq!(cold.cache_misses, 1);
        assert_eq!(cold.bytes_to_device, 0, "widening is device-side, never PCIe");
        // The repeat query hits the cache and skips the widening kernel.
        let before = e.device().ledger().snapshot();
        let s2 = e.offload_sum(rel, 1, None).unwrap();
        assert_eq!(s2.to_bits(), s1.to_bits());
        let warm = e.device().ledger().snapshot().since(&before);
        assert_eq!(warm.cache_hits, 1);
        assert_eq!(warm.bytes_to_device, 0);
        assert!(warm.kernel_launches < cold.kernel_launches, "widening pass skipped");
        // A write wave through the engine bumps the version: the replica is
        // rebuilt and the new value is visible.
        e.update_field(rel, 0, 1, &Value::Float64(500.0)).unwrap();
        let s3 = e.offload_sum(rel, 1, None).unwrap();
        assert_eq!(s3, host + 500.0); // row 0 held 0.0
                                      // Writes to *other* attrs leave this replica fresh.
        e.update_field(rel, 0, 0, &Value::Int64(-7)).unwrap();
        let before = e.device().ledger().snapshot();
        assert_eq!(e.offload_sum(rel, 1, None).unwrap().to_bits(), s3.to_bits());
        assert_eq!(e.device().ledger().snapshot().since(&before).cache_hits, 1);
    }

    #[test]
    fn data_is_device_resident() {
        let e = GputxEngine::new();
        let rel = e.create_relation(schema()).unwrap();
        e.bulk_insert(rel, &(0..100).map(rec).collect::<Vec<_>>()).unwrap();
        assert!(e.device().used_bytes() > 0);
    }

    #[test]
    fn classification_matches_table1() {
        assert_eq!(GputxEngine::new().classification(), survey::gputx());
    }
}
