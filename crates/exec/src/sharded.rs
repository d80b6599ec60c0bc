//! `ShardedEngine`: N-node partitioned placement over [`SimCluster`]
//! (DESIGN.md §15) — the scale-out half of ES²'s "intentional placement at
//! a certain node".
//!
//! Rows are partitioned at *fragment* granularity: every
//! `partition_rows` consecutive global rows form one placement fragment,
//! and [`Sharding`] maps fragments to nodes (hash or range,
//! deterministically from `HTAPG_SEED`). Analytics scatter-gather: the
//! coordinator (node 0) fans per-shard partial-aggregate requests out over
//! the interconnect, every shard reduces its local fragments on its own
//! simulated device, and the coordinator merges the per-fragment partials
//! *in global fragment order* — which makes the result bit-identical to
//! the single-node sharded oracle ([`crate::physical::sharded_volcano_sum`])
//! at every node count, because the partial set is fixed by the fragment
//! geometry alone; the cluster width only decides who computes each one.
//!
//! Costs follow the paper's storage-engine framing: cross-node messages
//! are priced exactly like PCIe (latency + bytes/bandwidth) and charged to
//! the *cluster* ledger under the `net` category. Scatter requests to
//! different nodes fly concurrently, so their flight time is charged
//! overlapped and the wall is settled once at the gather with the `max`
//! over per-shard `exec + round-trip` — the same overlap treatment the
//! device pipeline gives copy/compute.
//!
//! Fault injection ([`FaultSite::ClusterSend`]) is rolled *sequentially*
//! in canonical node order — requests before the parallel shard
//! execution, responses after — so a seeded chaos run replays
//! bit-identically regardless of pool interleaving, and every dropped
//! message is retried (bounded, virtual-time backoff) or fails the whole
//! gather: a partial gather is never returned.
//!
//! [`FaultSite::ClusterSend`]: htapg_device::faults::FaultSite::ClusterSend

use std::sync::Arc;

use htapg_core::calibrate::CalibrationProfiles;
use htapg_core::engine::StorageEngine;
use htapg_core::obs;
use htapg_core::plan::{
    ColumnEvidence, DeviceCostProfile, Predicate, GROUP_PARTIAL_BYTES, SCATTER_REQUEST_BYTES,
    SUM_PARTIAL_BYTES,
};
use htapg_core::prng::env_seed;
use htapg_core::retry::{with_retry, RetryPolicy};
use htapg_core::sync::RwLock as PRwLock;
use htapg_core::{
    AttrId, DataType, Error, Record, RelationId, Result, RowId, Schema, ShardEvidence,
    ShardPlanEvidence, Sharding, ShardingKind, Value,
};
use htapg_device::cluster::{NetSpec, SimCluster};
use htapg_device::faults::FaultPlan;
use htapg_device::kernels;
use htapg_device::{BufferId, CostLedger, DeviceColumnCache, SimDevice};
use htapg_taxonomy::{
    Classification, DataLocality, DataLocation, FragmentLinearization, FragmentScheme,
    LayoutAdaptability, LayoutFlexibility, LayoutHandling, ProcessorSupport, WorkloadSupport,
};

use crate::pool;

/// Default placement-fragment size (rows), matching the reference
/// engine's horizontal chunking.
pub const DEFAULT_PARTITION_ROWS: u64 = 4096;

/// Request/response payload of a routed point operation (key + field).
const POINT_RPC_BYTES: usize = 24;

/// Where one placement fragment lives.
#[derive(Debug, Clone, Copy)]
struct FragInfo {
    shard: u32,
    /// First local row of this fragment within its shard's store.
    local_base: u64,
}

struct ShardRel {
    schema: Schema,
    rows: u64,
    /// Global fragment order → owning shard; the canonical merge order.
    frags: Vec<FragInfo>,
    /// Per-shard row stores, local (arrival) order.
    stores: Vec<Vec<Record>>,
    /// Bumped on every insert/update so device replicas go stale exactly
    /// when the base data moves underneath them.
    version: u64,
}

impl ShardRel {
    fn locate(&self, part: u64, row: RowId) -> Result<(u32, usize)> {
        if row >= self.rows {
            return Err(Error::UnknownRow(row));
        }
        let f = (row / part) as usize;
        let frag = self.frags[f];
        Ok((frag.shard, (frag.local_base + row % part) as usize))
    }
}

/// Per-node observability handles (resolved once; names live forever in
/// the metrics registry, so the dashboard can render per-node columns).
struct NodeStats {
    rows: Arc<obs::Gauge>,
    net_bytes: Arc<obs::Counter>,
    op_ns: Arc<obs::Histogram>,
}

fn leak(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

/// The sharded scale-out engine.
pub struct ShardedEngine {
    sharding: Sharding,
    cluster: PRwLock<SimCluster>,
    /// Stable handle on the cluster ledger (the engine's trace clock).
    ledger: Arc<CostLedger>,
    devices: Vec<Arc<SimDevice>>,
    caches: Vec<DeviceColumnCache>,
    rels: PRwLock<Vec<ShardRel>>,
    calibration: Arc<CalibrationProfiles>,
    retry: RetryPolicy,
    nodes: Vec<NodeStats>,
}

impl ShardedEngine {
    pub fn new(kind: ShardingKind, nodes: u32) -> Self {
        Self::with_config(kind, nodes, DEFAULT_PARTITION_ROWS, NetSpec::default())
    }

    /// Full-control constructor. The placement seed honors `HTAPG_SEED`.
    pub fn with_config(kind: ShardingKind, nodes: u32, partition_rows: u64, net: NetSpec) -> Self {
        let sharding = Sharding::new(kind, nodes, partition_rows, env_seed(0x5AAD));
        let cluster = SimCluster::new(nodes as usize, net);
        let ledger = Arc::clone(cluster.ledger());
        let devices: Vec<Arc<SimDevice>> =
            (0..nodes).map(|_| Arc::new(SimDevice::with_defaults())).collect();
        let caches = devices.iter().map(|d| DeviceColumnCache::new(d.clone())).collect();
        let m = obs::metrics();
        let node_stats = (0..nodes)
            .map(|n| NodeStats {
                rows: m.gauge(leak(format!("cluster.node{n}.rows"))),
                net_bytes: m.counter(leak(format!("cluster.node{n}.net_bytes"))),
                op_ns: m.histogram(leak(format!("cluster.node{n}.op_ns"))),
            })
            .collect();
        ShardedEngine {
            sharding,
            cluster: PRwLock::new(cluster),
            ledger,
            devices,
            caches,
            rels: PRwLock::new(Vec::new()),
            calibration: Arc::new(CalibrationProfiles::new()),
            retry: RetryPolicy::default(),
            nodes: node_stats,
        }
    }

    pub fn sharding(&self) -> Sharding {
        self.sharding
    }

    /// The cluster-wide cost ledger (also the engine's trace clock).
    pub fn cluster_ledger(&self) -> Arc<CostLedger> {
        self.ledger.clone()
    }

    /// Install a fault plan on the interconnect (chaos testing).
    pub fn set_fault_plan(&self, fault_plan: Arc<FaultPlan>) {
        self.cluster.write().set_fault_plan(fault_plan);
    }

    /// Rows currently stored at each node.
    pub fn shard_rows(&self, rel: RelationId) -> Result<Vec<u64>> {
        self.with_rel(rel, |r| Ok(r.stores.iter().map(|s| s.len() as u64).collect()))
    }

    fn with_rel<R>(&self, rel: RelationId, f: impl FnOnce(&ShardRel) -> Result<R>) -> Result<R> {
        let rels = self.rels.read();
        f(rels.get(rel as usize).ok_or(Error::UnknownRelation(rel))?)
    }

    /// One routed point-op round trip: coordinator → owning shard → back.
    /// Wall-advancing (a point op is synchronous), fault-covered, retried.
    fn point_rpc(&self, shard: u32) -> Result<()> {
        if shard == 0 {
            return Ok(());
        }
        let mut span = obs::span("net", "rpc.point");
        if span.is_recording() {
            span.arg("node", shard);
        }
        let cluster = self.cluster.read();
        let there = with_retry(&self.retry, &self.ledger, || {
            cluster.send_overlapped(0, shard, POINT_RPC_BYTES)
        })?;
        let back = with_retry(&self.retry, &self.ledger, || {
            cluster.send_overlapped(shard, 0, POINT_RPC_BYTES)
        })?;
        self.ledger.advance_wall(there + back);
        self.nodes[shard as usize].net_bytes.add(2 * POINT_RPC_BYTES as u64);
        self.nodes[shard as usize].op_ns.record(there + back);
        Ok(())
    }

    /// Pack shard-local values of `attr` as little-endian f64 and place
    /// them on the shard's device (cached per relation version).
    fn shard_replica(
        &self,
        rel: RelationId,
        r: &ShardRel,
        shard: usize,
        attr: AttrId,
    ) -> Result<BufferId> {
        let store = &r.stores[shard];
        let mut bytes = Vec::with_capacity(store.len() * 8);
        for rec in store {
            bytes.extend_from_slice(&rec[attr as usize].as_f64()?.to_le_bytes());
        }
        let device = &self.devices[shard];
        let col = self.caches[shard].get_or_insert_with(
            rel,
            attr,
            r.version,
            store.len() as u64,
            true,
            || with_retry(&self.retry, device.ledger(), || device.upload(&bytes)),
        )?;
        Ok(col.buf)
    }

    /// Scatter phase 1: roll the request sends sequentially in canonical
    /// node order (deterministic under concurrent pool execution),
    /// overlapped-charged, retried. An exhausted retry fails the whole
    /// scatter — no shard is silently skipped.
    fn roll_requests(&self, cluster: &SimCluster, k: usize) -> Result<Vec<u64>> {
        let mut rtt = vec![0u64; k];
        for (node, slot) in rtt.iter_mut().enumerate() {
            *slot = with_retry(&self.retry, &self.ledger, || {
                cluster.send_overlapped(0, node as u32, SCATTER_REQUEST_BYTES as usize)
            })?;
            if node != 0 {
                self.nodes[node].net_bytes.add(SCATTER_REQUEST_BYTES);
            }
        }
        Ok(rtt)
    }

    /// Scatter phase 3: roll the response sends sequentially in canonical
    /// node order; `bytes[i]` is shard i's partial payload.
    fn roll_responses(&self, cluster: &SimCluster, rtt: &mut [u64], bytes: &[u64]) -> Result<()> {
        for (node, slot) in rtt.iter_mut().enumerate() {
            let payload = bytes[node] as usize;
            *slot += with_retry(&self.retry, &self.ledger, || {
                cluster.send_overlapped(node as u32, 0, payload)
            })?;
            if node != 0 {
                self.nodes[node].net_bytes.add(bytes[node]);
            }
        }
        Ok(())
    }

    /// Run `task` for every shard on the executor pool, collecting its
    /// per-shard results. Shard execution is parallel; the fault plan is
    /// never rolled in here (device faults are per-shard plans), so the
    /// interleaving cannot perturb the seeded cluster fault sequence.
    fn run_shards<T: Send>(
        &self,
        k: usize,
        task: impl Fn(usize) -> Result<(T, u64)> + Sync,
    ) -> Result<(Vec<T>, Vec<u64>)> {
        type Slot<T> = htapg_core::sync::Mutex<Option<Result<(T, u64)>>>;
        let slots: Vec<Slot<T>> = (0..k).map(|_| htapg_core::sync::Mutex::new(None)).collect();
        pool::run_tasks(k as u64, k, |w| {
            let shard = w as usize;
            *slots[shard].lock() = Some(task(shard));
        });
        let mut outs = Vec::with_capacity(k);
        let mut exec = Vec::with_capacity(k);
        for slot in slots {
            let (out, ns) = slot
                .into_inner()
                .ok_or_else(|| Error::Internal("shard task did not run".into()))??;
            outs.push(out);
            exec.push(ns);
        }
        Ok((outs, exec))
    }

    /// One scatter-gather round: roll the requests, run `kernel` on every
    /// non-empty shard's device replica of `attr` (with the shard's local
    /// records and the fragment size), roll each shard's response
    /// (`bytes` per fragment partial), settle the wall at the slowest
    /// shard, and return every fragment's partial in global fragment order
    /// — the shard-invariant canonical merge order.
    fn scatter<T: Send>(
        &self,
        name: &'static str,
        rel: RelationId,
        attr: AttrId,
        bytes: impl Fn(&T) -> u64,
        kernel: impl Fn(&SimDevice, BufferId, &[Record], usize) -> Result<Vec<T>> + Sync,
    ) -> Result<Vec<T>> {
        let mut span = obs::span("net", name);
        let rels = self.rels.read();
        let r = rels.get(rel as usize).ok_or(Error::UnknownRelation(rel))?;
        self.numeric_ty(r, attr)?;
        let k = self.sharding.nodes as usize;
        if span.is_recording() {
            span.arg("shards", k as u64);
        }
        let cluster = self.cluster.read();
        let mut rtt = self.roll_requests(&cluster, k)?;
        let (per_shard, exec) = self.run_shards(k, |shard| {
            if r.stores[shard].is_empty() {
                return Ok((Vec::new(), 0));
            }
            let device = &self.devices[shard];
            let t0 = device.ledger().snapshot().wall_ns;
            let buf = self.shard_replica(rel, r, shard, attr)?;
            let part = self.sharding.partition_rows as usize;
            let partials = with_retry(&self.retry, device.ledger(), || {
                kernel(device, buf, &r.stores[shard], part)
            })?;
            let exec = device.ledger().snapshot().wall_ns.saturating_sub(t0);
            self.nodes[shard].op_ns.record(exec);
            Ok((partials, exec))
        })?;
        let resp_bytes: Vec<u64> = per_shard.iter().map(|p| p.iter().map(&bytes).sum()).collect();
        self.roll_responses(&cluster, &mut rtt, &resp_bytes)?;
        let settle = (0..k).map(|i| exec[i] + rtt[i]).max().unwrap_or(0);
        self.ledger.advance_wall(settle);
        let mut per_shard: Vec<_> = per_shard.into_iter().map(Vec::into_iter).collect();
        let next =
            |f: &FragInfo| per_shard[f.shard as usize].next().expect("a partial per fragment");
        Ok(r.frags.iter().map(next).collect())
    }

    fn numeric_ty(&self, r: &ShardRel, attr: AttrId) -> Result<DataType> {
        let ty = r.schema.ty(attr)?;
        if !ty.is_numeric() {
            return Err(Error::NonNumericAggregate { attr, got: ty.name() });
        }
        Ok(ty)
    }
}

impl StorageEngine for ShardedEngine {
    fn name(&self) -> &'static str {
        "SHARDED"
    }

    fn classification(&self) -> Classification {
        Classification {
            name: "SHARDED",
            layout_handling: LayoutHandling::MultiBuiltIn,
            layout_flexibility: LayoutFlexibility::StrongFlexible { constrained: true },
            layout_adaptability: LayoutAdaptability::Responsive,
            data_location: DataLocation::Mixed,
            data_locality: DataLocality::Distributed,
            fragment_linearization: FragmentLinearization::FatDsmFixed,
            fragment_scheme: FragmentScheme::DelegationBased,
            processor_support: ProcessorSupport::CpuGpu,
            workload_support: WorkloadSupport::Htap,
            year: 2017,
        }
    }

    fn trace_clock(&self) -> Option<Arc<dyn obs::VirtualClock>> {
        Some(self.ledger.clone())
    }

    fn calibration(&self) -> Option<Arc<CalibrationProfiles>> {
        Some(self.calibration.clone())
    }

    fn device_cost_profile(&self) -> Option<DeviceCostProfile> {
        Some(self.devices[0].spec().cost_profile())
    }

    fn create_relation(&self, schema: Schema) -> Result<RelationId> {
        let mut rels = self.rels.write();
        let rel = rels.len() as RelationId;
        rels.push(ShardRel {
            schema,
            rows: 0,
            frags: Vec::new(),
            stores: vec![Vec::new(); self.sharding.nodes as usize],
            version: 0,
        });
        Ok(rel)
    }

    fn schema(&self, rel: RelationId) -> Result<Schema> {
        self.with_rel(rel, |r| Ok(r.schema.clone()))
    }

    fn insert(&self, rel: RelationId, record: &Record) -> Result<RowId> {
        let mut rels = self.rels.write();
        let r = rels.get_mut(rel as usize).ok_or(Error::UnknownRelation(rel))?;
        if record.len() != r.schema.arity() {
            return Err(Error::Internal(format!(
                "arity mismatch: {} values for {} attributes",
                record.len(),
                r.schema.arity()
            )));
        }
        for (a, v) in record.iter().enumerate() {
            let ty = r.schema.ty(a as AttrId)?;
            if !v.matches(ty) {
                return Err(Error::TypeMismatch { expected: ty.name(), got: v.type_name() });
            }
        }
        let row = r.rows;
        let f = self.sharding.fragment_of_row(row) as usize;
        if f == r.frags.len() {
            let shard = self.sharding.shard_of_fragment(f as u64);
            let local_base = r.stores[shard as usize].len() as u64;
            r.frags.push(FragInfo { shard, local_base });
        }
        let shard = r.frags[f].shard as usize;
        r.stores[shard].push(record.clone());
        self.nodes[shard].rows.set(r.stores[shard].len() as i64);
        r.rows += 1;
        r.version += 1;
        Ok(row)
    }

    fn read_record(&self, rel: RelationId, row: RowId) -> Result<Record> {
        let (shard, rec) = self.with_rel(rel, |r| {
            let (shard, local) = r.locate(self.sharding.partition_rows, row)?;
            Ok((shard, r.stores[shard as usize][local].clone()))
        })?;
        self.point_rpc(shard)?;
        Ok(rec)
    }

    fn read_field(&self, rel: RelationId, row: RowId, attr: AttrId) -> Result<Value> {
        let (shard, v) = self.with_rel(rel, |r| {
            r.schema.attr(attr)?;
            let (shard, local) = r.locate(self.sharding.partition_rows, row)?;
            Ok((shard, r.stores[shard as usize][local][attr as usize].clone()))
        })?;
        self.point_rpc(shard)?;
        Ok(v)
    }

    fn update_field(&self, rel: RelationId, row: RowId, attr: AttrId, value: &Value) -> Result<()> {
        let shard = {
            let mut rels = self.rels.write();
            let r = rels.get_mut(rel as usize).ok_or(Error::UnknownRelation(rel))?;
            let ty = r.schema.ty(attr)?;
            if !value.matches(ty) {
                return Err(Error::TypeMismatch { expected: ty.name(), got: value.type_name() });
            }
            let (shard, local) = r.locate(self.sharding.partition_rows, row)?;
            r.stores[shard as usize][local][attr as usize] = value.clone();
            r.version += 1;
            shard
        };
        self.point_rpc(shard)
    }

    /// Global-row-order scan, served from the coordinator's merge view
    /// (the executor's host fallback path — correctness net, not the
    /// priced route).
    fn scan_column(
        &self,
        rel: RelationId,
        attr: AttrId,
        visit: &mut dyn FnMut(RowId, &Value),
    ) -> Result<()> {
        self.with_rel(rel, |r| {
            r.schema.attr(attr)?;
            let part = self.sharding.partition_rows;
            for row in 0..r.rows {
                let (shard, local) = r.locate(part, row)?;
                visit(row, &r.stores[shard as usize][local][attr as usize]);
            }
            Ok(())
        })
    }

    fn row_count(&self, rel: RelationId) -> Result<u64> {
        self.with_rel(rel, |r| Ok(r.rows))
    }

    /// Coordinator-view evidence: the column is *not* contiguous here
    /// (its rows live on the shards) — the flat lowering would pay the
    /// tuple-strided price. Shard evidence below is what actually routes.
    fn column_evidence(&self, rel: RelationId, attr: AttrId) -> Result<ColumnEvidence> {
        self.with_rel(rel, |r| {
            let ty = r.schema.ty(attr)?;
            Ok(ColumnEvidence {
                rows: r.rows,
                ty,
                scan_stride: r.schema.tuple_width() as u64,
                contiguous: false,
                device_warm: false,
                stale_rows: 0,
            })
        })
    }

    fn shard_evidence(&self, rel: RelationId, attr: AttrId) -> Result<Option<ShardPlanEvidence>> {
        self.with_rel(rel, |r| {
            let ty = r.schema.ty(attr)?;
            if !ty.is_numeric() || r.rows == 0 {
                return Ok(None);
            }
            let k = self.sharding.nodes as usize;
            let mut frag_count = vec![0u64; k];
            for f in &r.frags {
                frag_count[f.shard as usize] += 1;
            }
            let shards = (0..k)
                .map(|n| ShardEvidence {
                    node: n as u32,
                    fragments: frag_count[n],
                    evidence: ColumnEvidence {
                        rows: r.stores[n].len() as u64,
                        ty,
                        scan_stride: ty.width() as u64,
                        contiguous: true,
                        device_warm: self.caches[n].contains(rel, attr, r.version),
                        stale_rows: 0,
                    },
                })
                .collect();
            Ok(Some(ShardPlanEvidence {
                partition_rows: self.sharding.partition_rows,
                net: self.cluster.read().net_cost_profile(),
                shards,
            }))
        })
    }

    fn offload_sum(&self, rel: RelationId, attr: AttrId, pred: Option<&Predicate>) -> Result<f64> {
        let partials = self.scatter(
            "scatter.sum",
            rel,
            attr,
            |_| SUM_PARTIAL_BYTES,
            |device, buf, _, part| match pred {
                None => kernels::reduce_fragment_partials_f64(device, buf, part),
                Some(p) => {
                    kernels::filter_fragment_partials_f64(device, buf, part, &|v| p.matches(v))
                }
            },
        )?;
        Ok(kernels::tree_sum(&partials))
    }

    fn offload_group_sum(
        &self,
        rel: RelationId,
        key_attr: AttrId,
        value_attr: AttrId,
    ) -> Result<Vec<(i64, f64)>> {
        self.with_rel(rel, |r| r.schema.key_ty(key_attr))?;
        let frags = self.scatter(
            "scatter.group_sum",
            rel,
            value_attr,
            |frag: &Vec<(i64, f64)>| frag.len() as u64 * GROUP_PARTIAL_BYTES,
            |device, buf, store, part| {
                let keys: Vec<i64> = store
                    .iter()
                    .map(|rec| rec[key_attr as usize].as_i64())
                    .collect::<Result<_>>()?;
                kernels::keyed_fragment_partials_f64(device, buf, &keys, part)
            },
        )?;
        // Each key's partials group in global fragment order.
        let (keys, partials): (Vec<i64>, Vec<f64>) = frags.into_iter().flatten().unzip();
        Ok(kernels::group_tree_sums(&keys, &partials))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::{execute, sharded_volcano_group_sum, sharded_volcano_sum};
    use crate::threading::ThreadingPolicy;
    use htapg_core::plan::{LogicalPlan, PhysicalOp, Route};
    use htapg_core::prng::Prng;

    fn loaded(kind: ShardingKind, nodes: u32, rows: u64, part: u64) -> (ShardedEngine, RelationId) {
        let e = ShardedEngine::with_config(kind, nodes, part, NetSpec::default());
        let schema = Schema::of(&[("k", DataType::Int64), ("v", DataType::Float64)]);
        let rel = e.create_relation(schema).unwrap();
        let mut rng = Prng::seed_from_u64(0x51);
        for _ in 0..rows {
            e.insert(
                rel,
                &vec![
                    Value::Int64(rng.gen_range(0..16) as i64),
                    Value::Float64(rng.gen_range(0..100_000) as f64 / 3.0),
                ],
            )
            .unwrap();
        }
        (e, rel)
    }

    #[test]
    fn placement_covers_all_rows_exactly_once() {
        let (e, rel) = loaded(ShardingKind::Hash, 4, 10_000, 256);
        let per_node = e.shard_rows(rel).unwrap();
        assert_eq!(per_node.iter().sum::<u64>(), 10_000);
        assert!(per_node.iter().all(|&n| n > 0), "skewed placement: {per_node:?}");
        // Every row reads back its own value through the routed point op.
        for row in [0u64, 255, 256, 9_999] {
            assert!(matches!(e.read_field(rel, row, 1).unwrap(), Value::Float64(_)));
        }
        assert!(e.read_field(rel, 10_000, 1).is_err());
    }

    #[test]
    fn plans_lower_to_scatter_and_execute_bit_identically() {
        for &kind in &[ShardingKind::Hash, ShardingKind::Range] {
            let (e, rel) = loaded(kind, 4, 5_000, 256);
            let plan = e.plan(&LogicalPlan::sum(rel, 1)).unwrap();
            assert_eq!(plan.root.route, Route::Scatter { shards: 4 });
            assert!(matches!(plan.root.children[0].op, PhysicalOp::Gather { shards: 4 }));
            let got = execute(&e, &plan, ThreadingPolicy::Single).unwrap();
            let want = sharded_volcano_sum(&e, rel, 1, None, 256).unwrap();
            assert_eq!(got.as_sum().unwrap().to_bits(), want.to_bits(), "{kind:?}");
        }
    }

    #[test]
    fn filtered_and_grouped_scatter_match_oracles() {
        let (e, rel) = loaded(ShardingKind::Hash, 3, 4_000, 128);
        let pred = Predicate::Ge(10_000.0);
        let fplan = e.plan(&LogicalPlan::filter_sum(rel, 1, pred)).unwrap();
        assert_eq!(fplan.root.route, Route::Scatter { shards: 3 });
        let got = execute(&e, &fplan, ThreadingPolicy::Single).unwrap();
        let want = sharded_volcano_sum(&e, rel, 1, Some(&pred), 128).unwrap();
        assert_eq!(got.as_sum().unwrap().to_bits(), want.to_bits());

        let gplan = e.plan(&LogicalPlan::group_sum(rel, 0, 1)).unwrap();
        assert_eq!(gplan.root.route, Route::Scatter { shards: 3 });
        let got = execute(&e, &gplan, ThreadingPolicy::Single).unwrap();
        let want = sharded_volcano_group_sum(&e, rel, 0, 1, 128).unwrap();
        let got = got.as_groups().unwrap();
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.0, w.0);
            assert_eq!(g.1.to_bits(), w.1.to_bits());
        }
    }

    #[test]
    fn node_count_does_not_change_a_single_bit() {
        let mut sums = Vec::new();
        for nodes in [1u32, 2, 4, 8] {
            let (e, rel) = loaded(ShardingKind::Hash, nodes, 6_000, 512);
            let plan = e.plan(&LogicalPlan::sum(rel, 1)).unwrap();
            let got = execute(&e, &plan, ThreadingPolicy::Single).unwrap();
            sums.push(got.as_sum().unwrap().to_bits());
        }
        assert!(sums.windows(2).all(|w| w[0] == w[1]), "{sums:?}");
    }

    #[test]
    fn scatter_charges_network_and_advances_cluster_wall() {
        let (e, rel) = loaded(ShardingKind::Range, 4, 8_000, 256);
        let base = e.cluster_ledger().snapshot();
        let plan = e.plan(&LogicalPlan::sum(rel, 1)).unwrap();
        execute(&e, &plan, ThreadingPolicy::Single).unwrap();
        let d = e.cluster_ledger().snapshot().since(&base);
        assert!(d.network_ns > 0, "scatter RPCs must be priced");
        assert!(d.network_bytes > 0, "payload bytes must be counted");
        assert!(d.wall_ns > 0, "the gather settles the wall");
        // Requests + responses for the three remote shards, nothing more:
        // the wall is the max round trip + exec, not the sum.
        assert!(d.wall_ns < d.network_ns + 1_000_000_000);
    }

    #[test]
    fn single_node_cluster_pays_no_network() {
        let (e, rel) = loaded(ShardingKind::Hash, 1, 3_000, 256);
        let base = e.cluster_ledger().snapshot();
        let plan = e.plan(&LogicalPlan::sum(rel, 1)).unwrap();
        assert_eq!(plan.root.route, Route::Scatter { shards: 1 });
        execute(&e, &plan, ThreadingPolicy::Single).unwrap();
        let d = e.cluster_ledger().snapshot().since(&base);
        assert_eq!(d.network_ns, 0, "coordinator-local scatter is free");
        assert_eq!(d.network_bytes, 0);
    }

    #[test]
    fn updates_invalidate_replicas_and_stay_visible() {
        let (e, rel) = loaded(ShardingKind::Hash, 2, 2_000, 128);
        let plan = e.plan(&LogicalPlan::sum(rel, 1)).unwrap();
        let before = execute(&e, &plan, ThreadingPolicy::Single).unwrap().as_sum().unwrap();
        e.update_field(rel, 7, 1, &Value::Float64(0.0)).unwrap();
        let plan = e.plan(&LogicalPlan::sum(rel, 1)).unwrap();
        let after = execute(&e, &plan, ThreadingPolicy::Single).unwrap().as_sum().unwrap();
        assert_ne!(before.to_bits(), after.to_bits());
        let want = sharded_volcano_sum(&e, rel, 1, None, 128).unwrap();
        assert_eq!(after.to_bits(), want.to_bits());
        assert_eq!(e.read_field(rel, 7, 1).unwrap(), Value::Float64(0.0));
    }
}
