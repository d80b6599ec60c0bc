//! Logical → physical query planning with a cost-based host/device router.
//!
//! The paper's central argument (Section II, Figure 2) is that no single
//! storage model × threading policy × compute platform wins for hybrid
//! workloads — the winner must be *chosen per query* from workload and
//! layout evidence. This module turns that argument into an executable
//! policy: a small logical IR ([`LogicalPlan`]), a physical tree annotated
//! with the chosen [`Route`] and [`ScanStrategy`] plus estimated virtual
//! nanoseconds ([`PhysicalPlan`]), and a router ([`build_plan`]) that
//! chooses from three pieces of evidence:
//!
//! * the **cache cost model** ([`crate::costmodel::CacheSpec`]) prices the
//!   host scan — sequential line streaming for contiguous columns, a full
//!   miss per row for strided (NSM) storage;
//! * a **device cost profile** ([`DeviceCostProfile`], mirroring the
//!   simulated device's transfer/kernel model) prices the offload,
//!   including the double-buffered overlap of upload and partial
//!   reduction;
//! * **column warmth**: a fresh device replica answers with kernel time
//!   only and zero `bytes_to_device`, so a warm cache flips the router to
//!   the device even when a cold upload would not pay off.
//!
//! Engines feed the router through [`EngineCapabilities`] (derived from
//! their Table 1 [`Classification`]) and per-column
//! [`ColumnEvidence`] / [`TableEvidence`] callbacks; the default
//! implementations live on `StorageEngine` and are overridable, so
//! device-backed engines report live cache warmth and
//! multi-layout engines (Fractured Mirrors) advertise a per-plan mirror
//! choice — the DSM replica for scans, the NSM replica for record
//! materialization.

use crate::costmodel::CacheSpec;
use crate::error::{Error, Result};
use crate::schema::{AttrId, RelationId, RowId};
use crate::types::{DataType, Value};
use htapg_taxonomy::{
    Classification, FragmentLinearization, FragmentScheme, LayoutHandling, ProcessorSupport,
};

/// Largest input (rows) still executed inline on the issuing thread; above
/// this the host route goes through the morsel pool. Mirrors
/// `htapg_exec::pool::MORSEL_ROWS` (one morsel), asserted equal by an exec
/// test — a ≤1-morsel input would be inlined by `run_morsels` anyway, so
/// planning it onto the pool would only add dispatch noise.
pub const INLINE_MORSEL_ROWS: u64 = 1 << 16;

// The canonical reduction geometry (mirrors `htapg_device::kernels`; the
// exec layer asserts the constants agree). The router needs it to price
// the two-pass reduction a device route would launch.
const REDUCE_GRID: u64 = 1024;
const REDUCE_BLOCK: u64 = 512;
const FINAL_BLOCK: u64 = 1024;

fn reduce_segments(rows: u64) -> u64 {
    if rows == 0 {
        return 0;
    }
    let seg_len = rows.div_ceil(REDUCE_GRID).max(1);
    rows.div_ceil(seg_len)
}

/// Aggregate kinds the IR supports (the paper's "sum prices" and the
/// workload's per-district group-by).
#[derive(Debug, Clone, PartialEq)]
pub enum AggregateKind {
    /// Sum one numeric column.
    Sum,
    /// Per-group sums of the scanned column, grouped by an integer key
    /// column of the same relation; results ordered by key.
    GroupSum { key_attr: AttrId },
}

/// Value predicate for `Filter` nodes. A closed enum (not a closure) so
/// plans stay `Clone + Debug`-able and renderable; the executor lowers it
/// to the fused filter+sum kernel's `Fn(f64) -> bool`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Predicate {
    /// Keep values `>= x`.
    Ge(f64),
    /// Keep values `< x`.
    Lt(f64),
    /// Keep values in `[lo, hi)`.
    Between(f64, f64),
}

impl Predicate {
    pub fn matches(&self, v: f64) -> bool {
        match *self {
            Predicate::Ge(x) => v >= x,
            Predicate::Lt(x) => v < x,
            Predicate::Between(lo, hi) => v >= lo && v < hi,
        }
    }

    pub fn label(&self) -> String {
        match *self {
            Predicate::Ge(x) => format!(">={x}"),
            Predicate::Lt(x) => format!("<{x}"),
            Predicate::Between(lo, hi) => format!("[{lo},{hi})"),
        }
    }
}

/// The logical IR. One node per access-pattern extreme of Section II plus
/// the relational glue: scans feed filters/aggregates, `Materialize` is the
/// record-centric Q1, `PointRead`/`Update` are the OLTP primitives.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Attribute-centric scan of one column.
    Scan { rel: RelationId, attr: AttrId },
    /// Keep only input values matching the predicate.
    Filter { input: Box<LogicalPlan>, pred: Predicate },
    /// Keep only the named attributes of materialized records.
    Project { input: Box<LogicalPlan>, attrs: Vec<AttrId> },
    /// Aggregate the input column.
    Aggregate { input: Box<LogicalPlan>, agg: AggregateKind },
    /// Record-centric materialization of a position list.
    Materialize { rel: RelationId, rows: Vec<RowId> },
    /// Read one full record.
    PointRead { rel: RelationId, row: RowId },
    /// Update one field in place.
    Update { rel: RelationId, row: RowId, attr: AttrId, value: Value },
}

impl LogicalPlan {
    /// `SUM(attr)` over a full scan.
    pub fn sum(rel: RelationId, attr: AttrId) -> Self {
        LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Scan { rel, attr }),
            agg: AggregateKind::Sum,
        }
    }

    /// `SUM(attr) WHERE pred(attr)` — the fused filter+sum shape.
    pub fn filter_sum(rel: RelationId, attr: AttrId, pred: Predicate) -> Self {
        LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(LogicalPlan::Scan { rel, attr }),
                pred,
            }),
            agg: AggregateKind::Sum,
        }
    }

    /// `SUM(value_attr) GROUP BY key_attr`, ordered by key.
    pub fn group_sum(rel: RelationId, key_attr: AttrId, value_attr: AttrId) -> Self {
        LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Scan { rel, attr: value_attr }),
            agg: AggregateKind::GroupSum { key_attr },
        }
    }
}

/// Execution route chosen by the router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Offload to the simulated device (pipelined upload when cold, kernel
    /// only when the column cache is warm).
    DevicePipelined,
    /// Morsel-driven execution on the persistent host pool.
    HostPooledMorsel,
    /// Tuple-at-a-time interpretation inline on the issuing thread — the
    /// right choice for point ops and sub-morsel inputs.
    InlineVolcano,
    /// Fan the aggregate out to `shards` cluster nodes as per-shard
    /// partial aggregates; a [`PhysicalOp::Gather`] child merges the
    /// partials in canonical shard order (DESIGN.md §15).
    Scatter { shards: u16 },
}

impl Route {
    pub fn label(&self) -> &'static str {
        match self {
            Route::DevicePipelined => "device-pipelined",
            Route::HostPooledMorsel => "host-pooled-morsel",
            Route::InlineVolcano => "inline-volcano",
            // One calibration key for all shard counts: the residuals a
            // scatter accumulates are network-dominated and do not alias
            // the local routes above.
            Route::Scatter { .. } => "scatter",
        }
    }
}

/// What a host scan is priced as, shown in EXPLAIN. Every engine serves
/// its columns through one read (`StorageEngine::with_aligned_blocks`),
/// so the label prices the bytes that read touches and does not steer it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanStrategy {
    /// Contiguous fixed-width blocks, priced as streamed cache lines.
    ContiguousBytes,
    /// Fields strided through records (NSM), priced at the record width:
    /// the read gathers them into blocks.
    ValueVisit,
}

impl ScanStrategy {
    pub fn label(&self) -> &'static str {
        match self {
            ScanStrategy::ContiguousBytes => "contiguous-bytes",
            ScanStrategy::ValueVisit => "value-visit",
        }
    }
}

/// Physical operator, mirroring [`LogicalPlan`] with the planning
/// decisions attached at the node ([`PhysicalNode`]).
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalOp {
    Scan {
        rel: RelationId,
        attr: AttrId,
    },
    Filter {
        pred: Predicate,
    },
    Project {
        attrs: Vec<AttrId>,
    },
    AggregateSum,
    AggregateGroupSum {
        key_attr: AttrId,
    },
    Materialize {
        rel: RelationId,
        rows: Vec<RowId>,
    },
    PointRead {
        rel: RelationId,
        row: RowId,
    },
    Update {
        rel: RelationId,
        row: RowId,
        attr: AttrId,
        value: Value,
    },
    /// Merge per-shard partial aggregates in canonical shard order. Only
    /// appears under a [`Route::Scatter`] aggregate root; its children are
    /// the per-shard aggregate subtrees, ordered by node id.
    Gather {
        shards: u16,
    },
}

impl PhysicalOp {
    /// Stable span/report name for this operator.
    pub fn span_name(&self) -> &'static str {
        match self {
            PhysicalOp::Scan { .. } => "plan.scan",
            PhysicalOp::Filter { .. } => "plan.filter",
            PhysicalOp::Project { .. } => "plan.project",
            PhysicalOp::AggregateSum => "plan.aggregate.sum",
            PhysicalOp::AggregateGroupSum { .. } => "plan.aggregate.group_sum",
            PhysicalOp::Materialize { .. } => "plan.materialize",
            PhysicalOp::PointRead { .. } => "plan.point_read",
            PhysicalOp::Update { .. } => "plan.update",
            PhysicalOp::Gather { .. } => "plan.gather",
        }
    }
}

/// One node of the physical tree: the operator plus every routing decision
/// and estimate the EXPLAIN output reports.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalNode {
    pub op: PhysicalOp,
    pub route: Route,
    /// How a host-side scan would read this node's column (annotated even
    /// on device routes — it is the fallback strategy).
    pub strategy: ScanStrategy,
    /// Estimated virtual ns for this node *including* children (same
    /// inclusive accounting as the span tree it is compared against).
    /// Calibrated when the planner context carries warmed
    /// [`crate::calibrate::CalibrationProfiles`].
    pub estimated_ns: u64,
    /// The uncalibrated estimate the cost model produced. Residual
    /// feedback is keyed on this value, so corrections never compound on
    /// top of already-corrected estimates. Equal to `estimated_ns` when no
    /// (warmed) calibration applies.
    pub raw_estimated_ns: u64,
    /// PCIe bytes this node is expected to move host→device (zero for
    /// host routes and warm device columns).
    pub bytes_to_device: u64,
    /// Input rows.
    pub rows: u64,
    /// For engines advertising per-plan mirror choice (Fractured
    /// Mirrors): which replica serves this node.
    pub mirror: Option<&'static str>,
    /// Rows per placement fragment when this node executes under sharded
    /// reduction geometry (per-fragment partials merged in global fragment
    /// order); `0` means the flat single-node geometry.
    pub partition_rows: u64,
    pub children: Vec<PhysicalNode>,
}

/// A routed physical plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalPlan {
    pub root: PhysicalNode,
}

impl PhysicalPlan {
    /// Estimated virtual ns of the whole plan.
    pub fn estimated_ns(&self) -> u64 {
        self.root.estimated_ns
    }

    /// The root route (what EXPLAIN and the planner bench report).
    pub fn route(&self) -> Route {
        self.root.route
    }

    /// Total PCIe bytes the plan expects to move host→device.
    pub fn bytes_to_device(&self) -> u64 {
        fn walk(n: &PhysicalNode) -> u64 {
            n.bytes_to_device + n.children.iter().map(walk).sum::<u64>()
        }
        walk(&self.root)
    }

    /// Indented one-line-per-node rendering (EXPLAIN-style, but without
    /// actuals — those come from the span tree after execution).
    pub fn render(&self) -> String {
        fn walk(out: &mut String, n: &PhysicalNode, depth: usize) {
            out.push_str(&format!(
                "{:indent$}- {} route={} scan={} est={}ns rows={}",
                "",
                n.op.span_name(),
                n.route.label(),
                n.strategy.label(),
                n.estimated_ns,
                n.rows,
                indent = depth * 2
            ));
            if n.bytes_to_device > 0 {
                out.push_str(&format!(" bytes_to_device={}", n.bytes_to_device));
            }
            if let Some(m) = n.mirror {
                out.push_str(&format!(" mirror={m}"));
            }
            if n.partition_rows > 0 {
                out.push_str(&format!(" part_rows={}", n.partition_rows));
            }
            if let PhysicalOp::Gather { shards } = &n.op {
                out.push_str(&format!(" shards={shards}"));
            }
            if let PhysicalOp::Filter { pred } = &n.op {
                out.push_str(&format!(" pred={}", pred.label()));
            }
            out.push('\n');
            for c in &n.children {
                walk(out, c, depth + 1);
            }
        }
        let mut out = String::new();
        walk(&mut out, &self.root, 0);
        out
    }
}

/// What an engine can do, derived from its Table 1 [`Classification`].
/// This is the taxonomy made executable: the router consults capabilities,
/// not engine names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineCapabilities {
    /// Engine can place columns in device memory (GPUTx, CoGaDB, the
    /// reference design) — required for any device route.
    pub device_placement: bool,
    /// Columns are stored as contiguous fixed-width blocks (DSM-side
    /// linearizations), so a host scan is priced as contiguous bytes;
    /// without it, at the record stride. Pricing only: every engine's
    /// block read serves every layout.
    pub contiguous_scan: bool,
    /// Replicated multi-layout storage (Fractured Mirrors): the planner
    /// may pick a replica per node — DSM for scans, NSM for materialize.
    pub mirror_choice: bool,
}

impl EngineCapabilities {
    pub fn from_classification(c: &Classification) -> Self {
        let device_placement =
            matches!(c.processor_support, ProcessorSupport::Gpu | ProcessorSupport::CpuGpu);
        // Pure-NSM linearizations have no contiguous column form; every
        // other row of Table 1 exposes at least one DSM-shaped fragment.
        let contiguous_scan = !matches!(
            c.fragment_linearization,
            FragmentLinearization::FatNsmFixed | FragmentLinearization::ThinNsmEmulated
        );
        let mirror_choice = matches!(
            c.layout_handling,
            LayoutHandling::MultiBuiltIn | LayoutHandling::MultiEmulated
        ) && c.fragment_scheme == FragmentScheme::ReplicationBased
            && c.fragment_linearization.covers_nsm_and_dsm();
        EngineCapabilities { device_placement, contiguous_scan, mirror_choice }
    }
}

/// Device cost parameters the router prices offloads with. A plain mirror
/// of the simulated `DeviceSpec` (core cannot depend on `htapg-device`);
/// device-backed engines build one from their spec via
/// `DeviceSpec::cost_profile()`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceCostProfile {
    /// Host↔device bandwidth, bytes/s.
    pub pcie_bandwidth: f64,
    /// Fixed latency per transfer, ns.
    pub pcie_latency_ns: u64,
    /// Fixed overhead per kernel launch, ns.
    pub kernel_launch_ns: u64,
    /// Device-memory bandwidth, bytes/s.
    pub mem_bandwidth: f64,
    /// Core clock, Hz.
    pub clock_hz: f64,
    /// Total parallel lanes.
    pub lanes: u64,
}

impl DeviceCostProfile {
    /// Virtual ns to move `bytes` host→device (one transfer).
    pub fn transfer_ns(&self, bytes: u64) -> u64 {
        self.pcie_latency_ns + (bytes as f64 / self.pcie_bandwidth * 1e9) as u64
    }

    /// `launch + max(compute, memory)` — the same model as
    /// `DeviceSpec::kernel_ns`.
    fn kernel_ns(&self, threads: u64, work_items: u64, cycles_per_item: f64, bytes: u64) -> u64 {
        let active = threads.min(self.lanes).max(1);
        let waves = work_items.div_ceil(active);
        let compute_s = waves as f64 * cycles_per_item / self.clock_hz;
        let memory_s = bytes as f64 / self.mem_bandwidth;
        self.kernel_launch_ns + (compute_s.max(memory_s) * 1e9) as u64
    }

    /// Pass 1 of the canonical two-pass reduction (`predicated` prices the
    /// fused filter+sum variant's extra cycle per item).
    pub fn reduce_pass1_ns(&self, rows: u64, predicated: bool) -> u64 {
        let cycles = if predicated { 5.0 } else { 4.0 };
        self.kernel_ns(REDUCE_GRID * REDUCE_BLOCK, rows.max(1), cycles, rows * 8)
    }

    /// Pass 2: final combine of the pass-1 partials.
    pub fn reduce_final_ns(&self, rows: u64) -> u64 {
        let segs = reduce_segments(rows).max(1);
        self.kernel_ns(FINAL_BLOCK, segs, 4.0, segs * 8)
    }

    /// Kernel-only cost of summing a resident column (the warm-cache
    /// route).
    pub fn warm_sum_ns(&self, rows: u64, predicated: bool) -> u64 {
        self.reduce_pass1_ns(rows, predicated) + self.reduce_final_ns(rows)
    }

    /// Cost of a cold offload sum: the double-buffered pipeline overlaps
    /// upload with partial reduction, so the critical path is
    /// `max(transfer, pass 1) + final`.
    pub fn cold_sum_ns(&self, rows: u64, predicated: bool) -> u64 {
        self.transfer_ns(rows * 8).max(self.reduce_pass1_ns(rows, predicated))
            + self.reduce_final_ns(rows)
    }

    /// Cost of summing a delta-stale replica: ship `stale_rows` coalesced
    /// `(row, value)` pairs over PCIe overlapped with the scatter kernel,
    /// then the warm-replica reduction. Crosses over `cold_sum_ns` once
    /// the pair bytes approach the full column (≈ half the rows, since a
    /// pair is twice a value).
    pub fn delta_merge_sum_ns(&self, rows: u64, stale_rows: u64, predicated: bool) -> u64 {
        let ship = self.transfer_ns(stale_rows * DELTA_PAIR_BYTES);
        let scatter = self.kernel_ns(
            REDUCE_GRID * REDUCE_BLOCK,
            stale_rows.max(1),
            8.0,
            stale_rows * (DELTA_PAIR_BYTES + 8),
        );
        ship.max(scatter) + self.warm_sum_ns(rows, predicated)
    }
}

/// Bytes per shipped delta pair (`u64` row + `f64` value) — must match the
/// device-side encoding in `htapg_device::kernels`.
pub const DELTA_PAIR_BYTES: u64 = 16;

/// Fragments per contiguous run under range sharding. Striping runs of
/// this many fragments round-robin across nodes keeps range placement
/// balanced as relations grow, while preserving locality of adjacent
/// fragments — and the assignment of existing fragments never changes when
/// rows are appended.
pub const RANGE_STRIPE_FRAGMENTS: u64 = 8;

/// Wire size of a scatter request (relation, attribute, predicate, op tag)
/// — the fixed header every shard RPC pays before its response bytes.
pub const SCATTER_REQUEST_BYTES: u64 = 64;

/// Response bytes per fragment for a scattered sum: one `f64` partial per
/// fragment, shipped so the gather can merge in global fragment order.
pub const SUM_PARTIAL_BYTES: u64 = 8;

/// Response bytes per fragment for a scattered group-sum: priced as one
/// `(i64 key, f64 partial)` pair plus a length per fragment; the true
/// count depends on group cardinality, unknown at plan time.
pub const GROUP_PARTIAL_BYTES: u64 = 24;

/// How fragments map to cluster nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardingKind {
    /// `splitmix64(seed ^ fragment) % nodes` — uniform, seed-keyed.
    Hash,
    /// Contiguous stripes of [`RANGE_STRIPE_FRAGMENTS`] fragments,
    /// round-robin across nodes.
    Range,
}

impl ShardingKind {
    pub fn label(&self) -> &'static str {
        match self {
            ShardingKind::Hash => "hash",
            ShardingKind::Range => "range",
        }
    }
}

/// Deterministic fragment → node placement descriptor. Rows are grouped
/// into fragments of `partition_rows` consecutive global rows; fragments
/// are assigned to nodes by `kind`. Both maps are pure functions of the
/// descriptor, so every session (and every retry) sees the same placement
/// for the same `HTAPG_SEED`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sharding {
    pub kind: ShardingKind,
    /// Cluster width (≥ 1).
    pub nodes: u32,
    /// Rows per placement fragment (≥ 1).
    pub partition_rows: u64,
    /// Placement seed (normally derived from `HTAPG_SEED`).
    pub seed: u64,
}

impl Sharding {
    pub fn new(kind: ShardingKind, nodes: u32, partition_rows: u64, seed: u64) -> Self {
        assert!(nodes >= 1, "sharding needs at least one node");
        assert!(partition_rows >= 1, "fragments must hold at least one row");
        Sharding { kind, nodes, partition_rows, seed }
    }

    /// Fragment holding global `row`.
    pub fn fragment_of_row(&self, row: u64) -> u64 {
        row / self.partition_rows
    }

    /// Owning node of `fragment`.
    pub fn shard_of_fragment(&self, fragment: u64) -> u32 {
        match self.kind {
            ShardingKind::Hash => {
                (crate::prng::splitmix64(self.seed ^ fragment) % self.nodes as u64) as u32
            }
            ShardingKind::Range => ((fragment / RANGE_STRIPE_FRAGMENTS) % self.nodes as u64) as u32,
        }
    }

    /// Owning node of global `row`.
    pub fn shard_of_row(&self, row: u64) -> u32 {
        self.shard_of_fragment(self.fragment_of_row(row))
    }
}

/// Network cost parameters the router prices cross-node movement with —
/// the same latency + bytes/bandwidth shape as
/// [`DeviceCostProfile::transfer_ns`] prices PCIe, mirroring the simulated
/// `NetSpec` (core cannot depend on `htapg-device`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetCostProfile {
    /// Fixed latency per message, ns.
    pub latency_ns: u64,
    /// Link bandwidth, bytes/s.
    pub bandwidth: f64,
}

impl NetCostProfile {
    /// Virtual ns to move `bytes` between two nodes (one message).
    pub fn transfer_ns(&self, bytes: u64) -> u64 {
        self.latency_ns + (bytes as f64 / self.bandwidth * 1e9) as u64
    }
}

/// One node's slice of a sharded column, as the planner sees it: the same
/// [`ColumnEvidence`] surface the single-node router prices from, scoped
/// to the rows this node owns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardEvidence {
    /// Owning cluster node.
    pub node: u32,
    /// Fragments resident on this node.
    pub fragments: u64,
    /// Evidence for this node's slice (rows/warmth/staleness are local).
    pub evidence: ColumnEvidence,
}

/// Everything a sharded engine reports for one column so the router can
/// lower a scatter-gather plan: the placement geometry, the network price
/// list, and per-node evidence in canonical (node-id) order.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlanEvidence {
    /// Rows per placement fragment.
    pub partition_rows: u64,
    /// Interconnect pricing (from the cluster's `NetSpec`).
    pub net: NetCostProfile,
    /// Per-node evidence, ordered by node id; empty slices included so the
    /// gather order is always the full canonical node order.
    pub shards: Vec<ShardEvidence>,
}

/// Per-column evidence the router prices scans from. The default engine
/// implementation derives it statically from capabilities and schema;
/// device-backed engines override it to report live replica warmth, and
/// the reference engine reports its overlay state (a non-empty overlay
/// prices its scans at the record width).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnEvidence {
    pub rows: u64,
    pub ty: DataType,
    /// Bytes between consecutive values in host memory (= value width for
    /// DSM columns, record width for NSM rows).
    pub scan_stride: u64,
    /// Column readable as contiguous fixed-width blocks right now.
    pub contiguous: bool,
    /// A fresh device replica exists (zero upload bytes to use it).
    pub device_warm: bool,
    /// A *stale* device replica exists whose pending delta log covers this
    /// many rows — a delta merge can refresh it for `stale_rows *`
    /// [`DELTA_PAIR_BYTES`] PCIe bytes instead of a full re-upload. Zero
    /// when the replica is fresh, absent, or unmergeable.
    pub stale_rows: u64,
}

impl ColumnEvidence {
    pub fn numeric(&self) -> bool {
        self.ty.is_numeric()
    }

    pub fn value_width(&self) -> u64 {
        self.ty.width() as u64
    }
}

/// Per-relation evidence for record-centric nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableEvidence {
    pub rows: u64,
    /// Record width in bytes.
    pub record_width: u64,
    /// Records are stored (or mirrored) as contiguous NSM rows, so a
    /// sorted position list materializes in one sequential pass.
    pub contiguous_nsm: bool,
}

/// Everything static the router needs besides per-column evidence.
pub struct PlannerContext<'a> {
    pub caps: &'a EngineCapabilities,
    pub device: Option<&'a DeviceCostProfile>,
    pub cache: &'a CacheSpec,
    /// Learned correction factors consulted at plan time. `None` (and any
    /// unwarmed profile) reproduces the static router bit-for-bit.
    pub calibration: Option<&'a crate::calibrate::CalibrationProfiles>,
}

impl PlannerContext<'_> {
    /// Calibrated estimate for a node: the raw cost-model estimate scaled
    /// by the learned (op, route) factor, identity when uncalibrated.
    fn calibrated(&self, op: &PhysicalOp, route: Route, raw_ns: u64) -> u64 {
        match self.calibration {
            Some(c) => c.calibrated_ns(op.span_name(), route.label(), raw_ns),
            None => raw_ns,
        }
    }

    /// Whether the (op, route) factor has warmed up — warm-branch routing
    /// only reconsiders the static decision on real evidence.
    fn is_warmed(&self, op: &PhysicalOp, route: Route) -> bool {
        self.calibration.is_some_and(|c| c.is_warmed(op.span_name(), route.label()))
    }
}

/// Host scan cost from the cache model: sequential line streaming when the
/// column is contiguous and its stride fits a line, a full miss per row
/// otherwise — Section II-B's two penalties.
fn host_scan_ns(ev: &ColumnEvidence, cache: &CacheSpec) -> u64 {
    if ev.rows == 0 {
        return 0;
    }
    let line = cache.line_bytes as u64;
    if ev.contiguous && ev.scan_stride <= line {
        let bytes = ev.rows * ev.value_width();
        (bytes.div_ceil(line) as f64 * cache.sequential_line_ns) as u64
    } else {
        (ev.rows as f64 * cache.miss_ns) as u64
    }
}

fn host_route(rows: u64) -> Route {
    if rows <= INLINE_MORSEL_ROWS {
        Route::InlineVolcano
    } else {
        Route::HostPooledMorsel
    }
}

fn scan_strategy(ev: &ColumnEvidence) -> ScanStrategy {
    if ev.contiguous {
        ScanStrategy::ContiguousBytes
    } else {
        ScanStrategy::ValueVisit
    }
}

/// Build a routed [`PhysicalPlan`] for `logical`. `column` and `table`
/// supply live evidence (the `StorageEngine` methods of the same names);
/// they are `FnMut` so engines may count probes or cache lookups.
pub fn build_plan(
    logical: &LogicalPlan,
    cx: &PlannerContext<'_>,
    column: &mut dyn FnMut(RelationId, AttrId) -> Result<ColumnEvidence>,
    table: &mut dyn FnMut(RelationId) -> Result<TableEvidence>,
) -> Result<PhysicalPlan> {
    build_plan_sharded(logical, cx, column, table, &mut |_, _| Ok(None))
}

/// [`build_plan`] with a sharding probe. Engines owning partitioned
/// relations report per-node evidence through `shard`; an aggregate over
/// such a column lowers to a [`Route::Scatter`] root whose
/// [`PhysicalOp::Gather`] child carries one per-shard aggregate subtree
/// per node (in canonical node order), each priced with that node's own
/// evidence — pool-or-device per shard — plus the [`NetCostProfile`]
/// round trip the coordinator pays to reach it. `Ok(None)` everywhere
/// (the [`build_plan`] default) reproduces the single-node lowering
/// bit-for-bit.
pub fn build_plan_sharded(
    logical: &LogicalPlan,
    cx: &PlannerContext<'_>,
    column: &mut dyn FnMut(RelationId, AttrId) -> Result<ColumnEvidence>,
    table: &mut dyn FnMut(RelationId) -> Result<TableEvidence>,
    shard: &mut dyn FnMut(RelationId, AttrId) -> Result<Option<ShardPlanEvidence>>,
) -> Result<PhysicalPlan> {
    Ok(PhysicalPlan { root: plan_node(logical, cx, column, table, shard)? })
}

fn plan_node(
    logical: &LogicalPlan,
    cx: &PlannerContext<'_>,
    column: &mut dyn FnMut(RelationId, AttrId) -> Result<ColumnEvidence>,
    table: &mut dyn FnMut(RelationId) -> Result<TableEvidence>,
    shard: &mut dyn FnMut(RelationId, AttrId) -> Result<Option<ShardPlanEvidence>>,
) -> Result<PhysicalNode> {
    let scan_mirror = if cx.caps.mirror_choice { Some("dsm") } else { None };
    match logical {
        LogicalPlan::Scan { rel, attr } => {
            let ev = column(*rel, *attr)?;
            let op = PhysicalOp::Scan { rel: *rel, attr: *attr };
            let route = host_route(ev.rows);
            let raw = host_scan_ns(&ev, cx.cache);
            Ok(PhysicalNode {
                route,
                strategy: scan_strategy(&ev),
                estimated_ns: cx.calibrated(&op, route, raw),
                raw_estimated_ns: raw,
                op,
                bytes_to_device: 0,
                rows: ev.rows,
                mirror: scan_mirror,
                partition_rows: 0,
                children: Vec::new(),
            })
        }
        LogicalPlan::Filter { input, pred } => {
            let child = plan_node(input, cx, column, table, shard)?;
            Ok(PhysicalNode {
                op: PhysicalOp::Filter { pred: *pred },
                route: child.route,
                strategy: child.strategy,
                estimated_ns: child.estimated_ns,
                raw_estimated_ns: child.raw_estimated_ns,
                bytes_to_device: 0,
                rows: child.rows,
                mirror: child.mirror,
                partition_rows: child.partition_rows,
                children: vec![child],
            })
        }
        LogicalPlan::Project { input, attrs } => {
            let child = plan_node(input, cx, column, table, shard)?;
            Ok(PhysicalNode {
                op: PhysicalOp::Project { attrs: attrs.clone() },
                route: child.route,
                strategy: child.strategy,
                estimated_ns: child.estimated_ns,
                raw_estimated_ns: child.raw_estimated_ns,
                bytes_to_device: 0,
                rows: child.rows,
                mirror: child.mirror,
                partition_rows: child.partition_rows,
                children: vec![child],
            })
        }
        LogicalPlan::Aggregate { input, agg } => plan_aggregate(input, agg, cx, column, shard),
        LogicalPlan::Materialize { rel, rows } => {
            let t = table(*rel)?;
            let req = rows.len() as u64;
            let line = cx.cache.line_bytes as u64;
            let est = if t.contiguous_nsm {
                // Sorted position list, one sequential pass over the
                // touched rows.
                ((req * t.record_width).div_ceil(line) as f64 * cx.cache.sequential_line_ns) as u64
            } else {
                (req as f64 * t.record_width.div_ceil(line).max(1) as f64 * cx.cache.miss_ns) as u64
            };
            let op = PhysicalOp::Materialize { rel: *rel, rows: rows.clone() };
            let route = host_route(req);
            Ok(PhysicalNode {
                route,
                strategy: if t.contiguous_nsm {
                    ScanStrategy::ContiguousBytes
                } else {
                    ScanStrategy::ValueVisit
                },
                estimated_ns: cx.calibrated(&op, route, est),
                raw_estimated_ns: est,
                op,
                bytes_to_device: 0,
                rows: req,
                mirror: if cx.caps.mirror_choice { Some("nsm") } else { None },
                partition_rows: 0,
                children: Vec::new(),
            })
        }
        LogicalPlan::PointRead { rel, row } => {
            let t = table(*rel)?;
            let line = cx.cache.line_bytes as u64;
            let op = PhysicalOp::PointRead { rel: *rel, row: *row };
            let raw = (t.record_width.div_ceil(line).max(1) as f64 * cx.cache.miss_ns) as u64;
            Ok(PhysicalNode {
                route: Route::InlineVolcano,
                strategy: ScanStrategy::ValueVisit,
                estimated_ns: cx.calibrated(&op, Route::InlineVolcano, raw),
                raw_estimated_ns: raw,
                op,
                bytes_to_device: 0,
                rows: 1,
                mirror: if cx.caps.mirror_choice { Some("nsm") } else { None },
                partition_rows: 0,
                children: Vec::new(),
            })
        }
        LogicalPlan::Update { rel, row, attr, value } => {
            let op = PhysicalOp::Update { rel: *rel, row: *row, attr: *attr, value: value.clone() };
            let raw = cx.cache.miss_ns as u64;
            Ok(PhysicalNode {
                route: Route::InlineVolcano,
                strategy: ScanStrategy::ValueVisit,
                estimated_ns: cx.calibrated(&op, Route::InlineVolcano, raw),
                raw_estimated_ns: raw,
                op,
                bytes_to_device: 0,
                rows: 1,
                mirror: if cx.caps.mirror_choice { Some("nsm") } else { None },
                partition_rows: 0,
                children: Vec::new(),
            })
        }
    }
}

/// Route an aggregate. The input must be a `Scan`, optionally wrapped in
/// one `Filter` (the fused filter+sum shape); anything else is rejected —
/// the IR is deliberately no larger than the workload needs.
fn plan_aggregate(
    input: &LogicalPlan,
    agg: &AggregateKind,
    cx: &PlannerContext<'_>,
    column: &mut dyn FnMut(RelationId, AttrId) -> Result<ColumnEvidence>,
    shard: &mut dyn FnMut(RelationId, AttrId) -> Result<Option<ShardPlanEvidence>>,
) -> Result<PhysicalNode> {
    let (rel, attr, pred) = match input {
        LogicalPlan::Scan { rel, attr } => (*rel, *attr, None),
        LogicalPlan::Filter { input: inner, pred } => match inner.as_ref() {
            LogicalPlan::Scan { rel, attr } => (*rel, *attr, Some(*pred)),
            other => {
                return Err(Error::InvalidLayout(format!(
                    "aggregate over unsupported input: {other:?}"
                )))
            }
        },
        other => {
            return Err(Error::InvalidLayout(format!(
                "aggregate over unsupported input: {other:?}"
            )))
        }
    };
    let ev = column(rel, attr)?;
    if !ev.numeric() {
        return Err(Error::NonNumericAggregate { attr, got: ev.ty.name() });
    }
    let predicated = pred.is_some();

    match agg {
        AggregateKind::Sum => {
            // A partitioned column has no flat execution: its fragments
            // live where placement put them, so the only locality-
            // preserving plan scatters to the owning nodes.
            if let Some(sp) = shard(rel, attr)? {
                return Ok(plan_scatter_sum(cx, rel, attr, pred, &sp));
            }
            Ok(sum_subtree(cx, rel, attr, &ev, pred, 0))
        }
        AggregateKind::GroupSum { key_attr } => {
            if predicated {
                return Err(Error::InvalidLayout("predicated group-sum is not supported".into()));
            }
            let key_ev = column(rel, *key_attr)?;
            if !matches!(key_ev.ty, DataType::Int32 | DataType::Int64 | DataType::Date) {
                return Err(Error::NonNumericAggregate { attr: *key_attr, got: key_ev.ty.name() });
            }
            if let Some(sp) = shard(rel, attr)? {
                return Ok(plan_scatter_group(cx, rel, attr, *key_attr, &key_ev, &sp));
            }
            Ok(group_subtree(cx, rel, attr, *key_attr, &ev, &key_ev, 0))
        }
    }
}

/// Priced routing decision for a (possibly predicated) sum over one
/// column's evidence — shared by the flat lowering and every per-shard
/// subtree of a scatter, so local and sharded slices are priced by the
/// identical model.
struct SumPricing {
    route: Route,
    scan_raw: u64,
    total_raw: u64,
    total_cal: u64,
    bytes: u64,
}

fn price_sum(cx: &PlannerContext<'_>, ev: &ColumnEvidence, predicated: bool) -> SumPricing {
    let agg_op = PhysicalOp::AggregateSum;
    // Host price: the scan plus (virtually free) combine.
    let host_ns = host_scan_ns(ev, cx.cache);
    let host_r = host_route(ev.rows);
    let host_cal = cx.calibrated(&agg_op, host_r, host_ns);
    let mut p = SumPricing {
        route: host_r,
        scan_raw: host_ns,
        total_raw: host_ns,
        total_cal: host_cal,
        bytes: 0,
    };
    if cx.caps.device_placement {
        if let Some(d) = cx.device {
            let dev_r = Route::DevicePipelined;
            if ev.device_warm {
                // Warm replica: kernel time only, no PCIe. Routed
                // to the device — that is what placement paid for
                // — unless calibrated evidence says the kernel
                // actually costs more than the host scan.
                let warm = d.warm_sum_ns(ev.rows, predicated);
                let warm_cal = cx.calibrated(&agg_op, dev_r, warm);
                if !(cx.is_warmed(&agg_op, dev_r) && warm_cal > host_cal) {
                    p.route = dev_r;
                    p.scan_raw = 0;
                    p.total_raw = warm;
                    p.total_cal = warm_cal;
                }
            } else {
                // Three-way pricing: a delta merge (when a stale
                // replica is mergeable) vs. a full re-upload, and
                // the winner vs. the host fallback.
                let cold = d.cold_sum_ns(ev.rows, predicated);
                let cold_cal = cx.calibrated(&agg_op, dev_r, cold);
                let (dev_raw, dev_cal, dev_bytes) = if ev.stale_rows > 0 {
                    let merge = d.delta_merge_sum_ns(ev.rows, ev.stale_rows, predicated);
                    let merge_cal = cx.calibrated(&agg_op, dev_r, merge);
                    if merge_cal <= cold_cal {
                        (merge, merge_cal, ev.stale_rows * DELTA_PAIR_BYTES)
                    } else {
                        (cold, cold_cal, ev.rows * 8)
                    }
                } else {
                    (cold, cold_cal, ev.rows * 8)
                };
                if dev_cal < host_cal {
                    p.route = dev_r;
                    p.bytes = dev_bytes;
                    p.scan_raw = d.transfer_ns(dev_bytes);
                    p.total_raw = dev_raw;
                    p.total_cal = dev_cal;
                }
            }
        }
    }
    p
}

/// The routed `AggregateSum` subtree over one evidence slice: the flat
/// plan when `partition_rows == 0`, a per-shard subtree otherwise.
fn sum_subtree(
    cx: &PlannerContext<'_>,
    rel: RelationId,
    attr: AttrId,
    ev: &ColumnEvidence,
    pred: Option<Predicate>,
    partition_rows: u64,
) -> PhysicalNode {
    let scan_mirror = if cx.caps.mirror_choice { Some("dsm") } else { None };
    let strategy = scan_strategy(ev);
    let p = price_sum(cx, ev, pred.is_some());
    let scan_op = PhysicalOp::Scan { rel, attr };
    let scan = PhysicalNode {
        route: p.route,
        strategy,
        estimated_ns: cx.calibrated(&scan_op, p.route, p.scan_raw),
        raw_estimated_ns: p.scan_raw,
        op: scan_op,
        bytes_to_device: p.bytes,
        rows: ev.rows,
        mirror: scan_mirror,
        partition_rows,
        children: Vec::new(),
    };
    let input_node = match pred {
        None => scan,
        Some(pr) => PhysicalNode {
            op: PhysicalOp::Filter { pred: pr },
            route: p.route,
            strategy,
            estimated_ns: scan.estimated_ns,
            raw_estimated_ns: scan.raw_estimated_ns,
            bytes_to_device: 0,
            rows: ev.rows,
            mirror: scan_mirror,
            partition_rows,
            children: vec![scan],
        },
    };
    PhysicalNode {
        op: PhysicalOp::AggregateSum,
        route: p.route,
        strategy,
        estimated_ns: p.total_cal,
        raw_estimated_ns: p.total_raw,
        bytes_to_device: 0,
        rows: ev.rows,
        mirror: scan_mirror,
        partition_rows,
        children: vec![input_node],
    }
}

/// The routed `AggregateGroupSum` subtree over one (value, key) evidence
/// pair — flat when `partition_rows == 0`, per-shard otherwise. Keys are
/// always grouped on the host; only the value column's per-group
/// reductions can go to the device (gather + reduce over a resident
/// replica).
fn group_subtree(
    cx: &PlannerContext<'_>,
    rel: RelationId,
    attr: AttrId,
    key_attr: AttrId,
    ev: &ColumnEvidence,
    key_ev: &ColumnEvidence,
    partition_rows: u64,
) -> PhysicalNode {
    let scan_mirror = if cx.caps.mirror_choice { Some("dsm") } else { None };
    let strategy = scan_strategy(ev);
    let agg_op = PhysicalOp::AggregateGroupSum { key_attr };
    let key_ns = host_scan_ns(key_ev, cx.cache);
    let value_host_ns = host_scan_ns(ev, cx.cache);
    let host_r = host_route(ev.rows);
    let host_cal = cx.calibrated(&agg_op, host_r, key_ns + value_host_ns);
    let mut route = host_r;
    let mut value_raw = value_host_ns;
    let mut total_raw = key_ns + value_host_ns;
    let mut total_cal = host_cal;
    if cx.caps.device_placement && ev.device_warm {
        if let Some(d) = cx.device {
            let dev_r = Route::DevicePipelined;
            // Gather (one launch over all rows, device-to-device)
            // plus the reductions; group count is unknown at plan
            // time, so the reduction is priced as one full pass.
            let gather = d.kernel_ns(REDUCE_GRID * REDUCE_BLOCK, ev.rows.max(1), 8.0, ev.rows * 16);
            let value_dev = gather + d.warm_sum_ns(ev.rows, false);
            let dev_cal = cx.calibrated(&agg_op, dev_r, key_ns + value_dev);
            if !(cx.is_warmed(&agg_op, dev_r) && dev_cal > host_cal) {
                route = dev_r;
                value_raw = value_dev;
                total_raw = key_ns + value_dev;
                total_cal = dev_cal;
            }
        }
    }
    let key_op = PhysicalOp::Scan { rel, attr: key_attr };
    let key_route = host_route(key_ev.rows);
    let key_scan = PhysicalNode {
        route: key_route,
        strategy: scan_strategy(key_ev),
        estimated_ns: cx.calibrated(&key_op, key_route, key_ns),
        raw_estimated_ns: key_ns,
        op: key_op,
        bytes_to_device: 0,
        rows: key_ev.rows,
        mirror: scan_mirror,
        partition_rows,
        children: Vec::new(),
    };
    let value_op = PhysicalOp::Scan { rel, attr };
    let value_scan = PhysicalNode {
        route,
        strategy,
        estimated_ns: cx.calibrated(&value_op, route, value_raw),
        raw_estimated_ns: value_raw,
        op: value_op,
        bytes_to_device: 0,
        rows: ev.rows,
        mirror: scan_mirror,
        partition_rows,
        children: Vec::new(),
    };
    PhysicalNode {
        op: agg_op,
        route,
        strategy,
        estimated_ns: total_cal,
        raw_estimated_ns: total_raw,
        bytes_to_device: 0,
        rows: ev.rows,
        mirror: scan_mirror,
        partition_rows,
        children: vec![key_scan, value_scan],
    }
}

/// Round trip the coordinator (node 0) pays to reach `se`'s node: the
/// fixed-size request out, plus the per-fragment partial response back —
/// both priced like PCIe, latency + bytes/bandwidth. Free for node 0,
/// which answers its own slice locally.
fn shard_rtt_ns(net: &NetCostProfile, se: &ShardEvidence, partial_bytes: u64) -> u64 {
    if se.node == 0 {
        0
    } else {
        net.transfer_ns(SCATTER_REQUEST_BYTES) + net.transfer_ns(se.fragments * partial_bytes)
    }
}

/// Assemble the `Aggregate(Scatter) → Gather → per-shard subtrees` tree.
/// Per-shard executions overlap, so the root estimate is the slowest
/// shard's subtree-plus-round-trip; the root is calibrated under the
/// distinct `scatter` route key so learned network residuals never alias
/// the local routes.
fn scatter_root(
    cx: &PlannerContext<'_>,
    agg_op: PhysicalOp,
    sp: &ShardPlanEvidence,
    children: Vec<PhysicalNode>,
    partial_bytes: u64,
) -> PhysicalNode {
    let shards = sp.shards.len() as u16;
    let route = Route::Scatter { shards };
    let mut raw = 0u64;
    let mut total_rows = 0u64;
    for (sub, se) in children.iter().zip(&sp.shards) {
        let rtt = shard_rtt_ns(&sp.net, se, partial_bytes);
        raw = raw.max(sub.raw_estimated_ns.saturating_add(rtt));
        total_rows += se.evidence.rows;
    }
    let strategy = children.first().map(|c| c.strategy).unwrap_or(ScanStrategy::ContiguousBytes);
    let gather = PhysicalNode {
        op: PhysicalOp::Gather { shards },
        route,
        strategy,
        estimated_ns: raw,
        raw_estimated_ns: raw,
        bytes_to_device: 0,
        rows: total_rows,
        mirror: None,
        partition_rows: sp.partition_rows,
        children,
    };
    PhysicalNode {
        route,
        strategy,
        estimated_ns: cx.calibrated(&agg_op, route, raw),
        raw_estimated_ns: raw,
        op: agg_op,
        bytes_to_device: 0,
        rows: total_rows,
        mirror: None,
        partition_rows: sp.partition_rows,
        children: vec![gather],
    }
}

fn plan_scatter_sum(
    cx: &PlannerContext<'_>,
    rel: RelationId,
    attr: AttrId,
    pred: Option<Predicate>,
    sp: &ShardPlanEvidence,
) -> PhysicalNode {
    let children: Vec<PhysicalNode> = sp
        .shards
        .iter()
        .map(|se| sum_subtree(cx, rel, attr, &se.evidence, pred, sp.partition_rows))
        .collect();
    scatter_root(cx, PhysicalOp::AggregateSum, sp, children, SUM_PARTIAL_BYTES)
}

fn plan_scatter_group(
    cx: &PlannerContext<'_>,
    rel: RelationId,
    attr: AttrId,
    key_attr: AttrId,
    key_ev: &ColumnEvidence,
    sp: &ShardPlanEvidence,
) -> PhysicalNode {
    let children: Vec<PhysicalNode> = sp
        .shards
        .iter()
        .map(|se| {
            // The key column shards with the value column, so the shard's
            // key slice inherits the flat key shape (type, stride,
            // contiguity) at the shard's cardinality; keys are host-
            // grouped, so warmth is irrelevant to the subtree price.
            let shard_key_ev = ColumnEvidence {
                rows: se.evidence.rows,
                ty: key_ev.ty,
                scan_stride: key_ev.scan_stride,
                contiguous: key_ev.contiguous,
                device_warm: false,
                stale_rows: 0,
            };
            group_subtree(cx, rel, attr, key_attr, &se.evidence, &shard_key_ev, sp.partition_rows)
        })
        .collect();
    scatter_root(cx, PhysicalOp::AggregateGroupSum { key_attr }, sp, children, GROUP_PARTIAL_BYTES)
}

#[cfg(test)]
mod tests {
    use super::*;
    use htapg_taxonomy::survey;

    fn evidence(rows: u64, contiguous: bool, warm: bool) -> ColumnEvidence {
        ColumnEvidence {
            rows,
            ty: DataType::Float64,
            scan_stride: if contiguous { 8 } else { 64 },
            contiguous,
            device_warm: warm,
            stale_rows: 0,
        }
    }

    fn ctx<'a>(
        caps: &'a EngineCapabilities,
        device: Option<&'a DeviceCostProfile>,
        cache: &'a CacheSpec,
    ) -> PlannerContext<'a> {
        PlannerContext { caps, device, cache, calibration: None }
    }

    fn paper_device() -> DeviceCostProfile {
        // The defaults of `DeviceSpec` (footnote 4 hardware).
        DeviceCostProfile {
            pcie_bandwidth: 6.0e9,
            pcie_latency_ns: 10_000,
            kernel_launch_ns: 5_000,
            mem_bandwidth: 80.0e9,
            clock_hz: 1.1e9,
            lanes: 640,
        }
    }

    #[test]
    fn capabilities_follow_table1() {
        let gputx = EngineCapabilities::from_classification(&survey::gputx());
        assert!(gputx.device_placement);
        assert!(gputx.contiguous_scan);
        assert!(!gputx.mirror_choice);
        let mirrors = EngineCapabilities::from_classification(&survey::fractured_mirrors());
        assert!(!mirrors.device_placement);
        assert!(mirrors.mirror_choice);
        let cogadb = EngineCapabilities::from_classification(&survey::cogadb());
        assert!(cogadb.device_placement);
    }

    #[test]
    fn warm_cache_routes_to_device_with_zero_bytes() {
        let caps = EngineCapabilities::from_classification(&survey::cogadb());
        let dev = paper_device();
        let cache = CacheSpec::default();
        let mut col = |_r, _a| Ok(evidence(1000, true, true));
        let mut tab =
            |_r| Ok(TableEvidence { rows: 1000, record_width: 16, contiguous_nsm: false });
        let plan = build_plan(
            &LogicalPlan::sum(0, 1),
            &ctx(&caps, Some(&dev), &cache),
            &mut col,
            &mut tab,
        )
        .unwrap();
        assert_eq!(plan.route(), Route::DevicePipelined);
        assert_eq!(plan.bytes_to_device(), 0);
    }

    #[test]
    fn cold_tiny_relation_routes_to_host_inline() {
        let caps = EngineCapabilities::from_classification(&survey::cogadb());
        let dev = paper_device();
        let cache = CacheSpec::default();
        let mut col = |_r, _a| Ok(evidence(1000, true, false));
        let mut tab =
            |_r| Ok(TableEvidence { rows: 1000, record_width: 16, contiguous_nsm: false });
        let plan = build_plan(
            &LogicalPlan::sum(0, 1),
            &ctx(&caps, Some(&dev), &cache),
            &mut col,
            &mut tab,
        )
        .unwrap();
        // 1000 contiguous f64s ≈ 125 lines × 4 ns ≈ 500 ns on the host;
        // even the kernel launch alone (5 µs) dwarfs that.
        assert_eq!(plan.route(), Route::InlineVolcano);
        assert_eq!(plan.bytes_to_device(), 0);
    }

    #[test]
    fn large_cold_strided_scan_prefers_device_upload() {
        let caps = EngineCapabilities::from_classification(&survey::cogadb());
        let dev = paper_device();
        let cache = CacheSpec::default();
        // 10M strided rows: 80 ns a miss each on the host (800 ms) vs a
        // ~13 ms PCIe upload — the Figure 2 offload cliff.
        let mut col = |_r, _a| Ok(evidence(10_000_000, false, false));
        let mut tab =
            |_r| Ok(TableEvidence { rows: 10_000_000, record_width: 16, contiguous_nsm: false });
        let plan = build_plan(
            &LogicalPlan::sum(0, 1),
            &ctx(&caps, Some(&dev), &cache),
            &mut col,
            &mut tab,
        )
        .unwrap();
        assert_eq!(plan.route(), Route::DevicePipelined);
        assert_eq!(plan.bytes_to_device(), 10_000_000 * 8);
    }

    #[test]
    fn pooled_route_above_one_morsel() {
        let caps = EngineCapabilities::from_classification(&survey::pax());
        let cache = CacheSpec::default();
        let mut tab = |_r| Ok(TableEvidence { rows: 0, record_width: 16, contiguous_nsm: false });
        for (rows, want) in [
            (100u64, Route::InlineVolcano),
            (INLINE_MORSEL_ROWS, Route::InlineVolcano),
            (INLINE_MORSEL_ROWS + 1, Route::HostPooledMorsel),
        ] {
            let mut col = move |_r, _a| Ok(evidence(rows, true, false));
            let plan =
                build_plan(&LogicalPlan::sum(0, 1), &ctx(&caps, None, &cache), &mut col, &mut tab)
                    .unwrap();
            assert_eq!(plan.route(), want, "rows={rows}");
        }
    }

    #[test]
    fn nsm_evidence_pins_value_visit_strategy() {
        let caps = EngineCapabilities {
            device_placement: false,
            contiguous_scan: false,
            mirror_choice: false,
        };
        let cache = CacheSpec::default();
        let mut col = |_r, _a| Ok(evidence(500, false, false));
        let mut tab = |_r| Ok(TableEvidence { rows: 500, record_width: 16, contiguous_nsm: true });
        let plan =
            build_plan(&LogicalPlan::sum(0, 1), &ctx(&caps, None, &cache), &mut col, &mut tab)
                .unwrap();
        assert_eq!(plan.root.strategy, ScanStrategy::ValueVisit);
        assert_eq!(plan.root.children[0].strategy, ScanStrategy::ValueVisit);
    }

    #[test]
    fn non_numeric_sum_is_a_typed_plan_error() {
        let caps = EngineCapabilities::from_classification(&survey::pax());
        let cache = CacheSpec::default();
        let mut col = |_r, _a| {
            Ok(ColumnEvidence {
                rows: 10,
                ty: DataType::Text(8),
                scan_stride: 8,
                contiguous: true,
                device_warm: false,
                stale_rows: 0,
            })
        };
        let mut tab = |_r| Ok(TableEvidence { rows: 10, record_width: 16, contiguous_nsm: false });
        let err =
            build_plan(&LogicalPlan::sum(0, 1), &ctx(&caps, None, &cache), &mut col, &mut tab)
                .unwrap_err();
        assert!(matches!(err, Error::NonNumericAggregate { attr: 1, .. }));
    }

    #[test]
    fn mirror_choice_annotates_replicas() {
        let caps = EngineCapabilities::from_classification(&survey::fractured_mirrors());
        let cache = CacheSpec::default();
        let mut col = |_r, _a| Ok(evidence(100, true, false));
        let mut tab = |_r| Ok(TableEvidence { rows: 100, record_width: 16, contiguous_nsm: true });
        let scan_plan =
            build_plan(&LogicalPlan::sum(0, 1), &ctx(&caps, None, &cache), &mut col, &mut tab)
                .unwrap();
        assert_eq!(scan_plan.root.mirror, Some("dsm"));
        let mat_plan = build_plan(
            &LogicalPlan::Materialize { rel: 0, rows: vec![1, 2, 3] },
            &ctx(&caps, None, &cache),
            &mut col,
            &mut tab,
        )
        .unwrap();
        assert_eq!(mat_plan.root.mirror, Some("nsm"));
        assert!(mat_plan.render().contains("mirror=nsm"));
    }

    #[test]
    fn warmed_calibration_flips_a_mispriced_cold_route() {
        use crate::calibrate::CalibrationProfiles;
        let caps = EngineCapabilities::from_classification(&survey::cogadb());
        // A lying device profile that makes a cold offload look nearly
        // free, so the static router sends a tiny cold sum to the device.
        let dev = DeviceCostProfile {
            pcie_bandwidth: 1.0e15,
            pcie_latency_ns: 1,
            kernel_launch_ns: 1,
            mem_bandwidth: 1.0e15,
            clock_hz: 1.0e15,
            lanes: 640,
        };
        let cache = CacheSpec::default();
        let mut col = |_r, _a| Ok(evidence(1000, false, false));
        let mut tab =
            |_r| Ok(TableEvidence { rows: 1000, record_width: 16, contiguous_nsm: false });
        let logical = LogicalPlan::sum(0, 1);

        let profiles = CalibrationProfiles::new();
        let cx = PlannerContext {
            caps: &caps,
            device: Some(&dev),
            cache: &cache,
            calibration: Some(&profiles),
        };
        let lied = build_plan(&logical, &cx, &mut col, &mut tab).unwrap();
        assert_eq!(lied.route(), Route::DevicePipelined, "the lie wins while unwarmed");

        // Observed actuals say the device really costs 100 µs a run —
        // far above the ~80 µs strided host scan. After warm-up the same
        // context flips the decision, from evidence alone.
        for _ in 0..4 {
            profiles.observe(
                "plan.aggregate.sum",
                "device-pipelined",
                lied.estimated_ns(),
                100_000,
            );
        }
        let flipped = build_plan(&logical, &cx, &mut col, &mut tab).unwrap();
        assert_eq!(flipped.route(), Route::InlineVolcano, "calibration overrides the lie");
        assert_eq!(
            flipped.root.raw_estimated_ns, flipped.root.estimated_ns,
            "host factor identity"
        );
    }

    #[test]
    fn unwarmed_calibration_is_bit_identical_to_none() {
        use crate::calibrate::CalibrationProfiles;
        let caps = EngineCapabilities::from_classification(&survey::cogadb());
        let dev = paper_device();
        let cache = CacheSpec::default();
        let mut col = |_r, _a| Ok(evidence(5_000, true, true));
        let mut tab =
            |_r| Ok(TableEvidence { rows: 5_000, record_width: 16, contiguous_nsm: false });
        let logical = LogicalPlan::sum(0, 1);
        let base =
            build_plan(&logical, &ctx(&caps, Some(&dev), &cache), &mut col, &mut tab).unwrap();
        let profiles = CalibrationProfiles::new();
        // Below the warm-up threshold: factors exist but are not consulted.
        for _ in 0..3 {
            profiles.observe("plan.aggregate.sum", "device-pipelined", 1_000, 999_000);
        }
        let cx = PlannerContext {
            caps: &caps,
            device: Some(&dev),
            cache: &cache,
            calibration: Some(&profiles),
        };
        let with = build_plan(&logical, &cx, &mut col, &mut tab).unwrap();
        assert_eq!(base, with, "unwarmed profiles must not perturb the plan");
    }

    #[test]
    fn group_sum_plans_key_and_value_scans() {
        let caps = EngineCapabilities::from_classification(&survey::pax());
        let cache = CacheSpec::default();
        let mut col = |_r, a: AttrId| {
            Ok(ColumnEvidence {
                rows: 2000,
                ty: if a == 0 { DataType::Int32 } else { DataType::Float64 },
                scan_stride: 8,
                contiguous: true,
                device_warm: false,
                stale_rows: 0,
            })
        };
        let mut tab =
            |_r| Ok(TableEvidence { rows: 2000, record_width: 16, contiguous_nsm: false });
        let plan = build_plan(
            &LogicalPlan::group_sum(0, 0, 1),
            &ctx(&caps, None, &cache),
            &mut col,
            &mut tab,
        )
        .unwrap();
        assert_eq!(plan.root.children.len(), 2);
        assert!(matches!(plan.root.op, PhysicalOp::AggregateGroupSum { key_attr: 0 }));
    }

    #[test]
    fn sharding_is_deterministic_and_covers_all_nodes() {
        for kind in [ShardingKind::Hash, ShardingKind::Range] {
            let s = Sharding::new(kind, 4, 1024, 0xDEAD_BEEF);
            let t = Sharding::new(kind, 4, 1024, 0xDEAD_BEEF);
            let mut seen = [false; 4];
            for frag in 0..256u64 {
                let n = s.shard_of_fragment(frag);
                assert_eq!(n, t.shard_of_fragment(frag), "same descriptor, same map");
                assert!(n < 4);
                seen[n as usize] = true;
            }
            assert!(seen.iter().all(|&b| b), "{kind:?} placement uses every node");
        }
        // Rows map through their fragment.
        let s = Sharding::new(ShardingKind::Range, 2, 100, 7);
        assert_eq!(s.fragment_of_row(0), 0);
        assert_eq!(s.fragment_of_row(199), 1);
        assert_eq!(s.shard_of_row(50), s.shard_of_fragment(0));
    }

    #[test]
    fn range_sharding_stripes_contiguous_runs() {
        let s = Sharding::new(ShardingKind::Range, 2, 64, 0);
        for frag in 0..RANGE_STRIPE_FRAGMENTS {
            assert_eq!(s.shard_of_fragment(frag), 0);
        }
        for frag in RANGE_STRIPE_FRAGMENTS..2 * RANGE_STRIPE_FRAGMENTS {
            assert_eq!(s.shard_of_fragment(frag), 1);
        }
        // Appending fragments never moves existing ones.
        let frozen: Vec<u32> = (0..64).map(|f| s.shard_of_fragment(f)).collect();
        assert_eq!(frozen, (0..64).map(|f| s.shard_of_fragment(f)).collect::<Vec<_>>());
    }

    #[test]
    fn hash_sharding_depends_on_seed() {
        let a = Sharding::new(ShardingKind::Hash, 4, 64, 1);
        let b = Sharding::new(ShardingKind::Hash, 4, 64, 2);
        let differs = (0..128u64).any(|f| a.shard_of_fragment(f) != b.shard_of_fragment(f));
        assert!(differs, "distinct seeds must place differently");
    }

    fn shard_probe(nodes: u32, rows_per_shard: u64) -> ShardPlanEvidence {
        ShardPlanEvidence {
            partition_rows: 1024,
            net: NetCostProfile { latency_ns: 2_000, bandwidth: 10.0e9 },
            shards: (0..nodes)
                .map(|node| ShardEvidence {
                    node,
                    fragments: rows_per_shard.div_ceil(1024),
                    evidence: evidence(rows_per_shard, true, false),
                })
                .collect(),
        }
    }

    #[test]
    fn shard_evidence_lowers_to_scatter_gather() {
        let caps = EngineCapabilities::from_classification(&survey::cogadb());
        let dev = paper_device();
        let cache = CacheSpec::default();
        let mut col = |_r, _a| Ok(evidence(4 * 100_000, true, false));
        let mut tab =
            |_r| Ok(TableEvidence { rows: 4 * 100_000, record_width: 16, contiguous_nsm: false });
        let sp = shard_probe(4, 100_000);
        let plan = build_plan_sharded(
            &LogicalPlan::sum(0, 1),
            &ctx(&caps, Some(&dev), &cache),
            &mut col,
            &mut tab,
            &mut |_, _| Ok(Some(sp.clone())),
        )
        .unwrap();
        assert_eq!(plan.route(), Route::Scatter { shards: 4 });
        assert_eq!(plan.root.rows, 400_000);
        assert_eq!(plan.root.partition_rows, 1024);
        let gather = &plan.root.children[0];
        assert!(matches!(gather.op, PhysicalOp::Gather { shards: 4 }));
        assert_eq!(gather.children.len(), 4, "one subtree per node, canonical order");
        // Overlapped shards: the root estimate is the slowest shard plus
        // its round trip, not the sum of all shards.
        let per_shard = gather.children[0].raw_estimated_ns;
        let rtt = sp.net.transfer_ns(SCATTER_REQUEST_BYTES)
            + sp.net.transfer_ns(sp.shards[1].fragments * SUM_PARTIAL_BYTES);
        assert_eq!(plan.root.raw_estimated_ns, per_shard + rtt);
        let rendered = plan.render();
        assert!(rendered.contains("route=scatter"));
        assert!(rendered.contains("plan.gather"));
        assert!(rendered.contains("shards=4"));
        assert!(rendered.contains("part_rows=1024"));
    }

    #[test]
    fn scatter_group_sum_keeps_key_shape_per_shard() {
        let caps = EngineCapabilities::from_classification(&survey::pax());
        let cache = CacheSpec::default();
        let mut col = |_r, a: AttrId| {
            Ok(ColumnEvidence {
                rows: 20_000,
                ty: if a == 0 { DataType::Int32 } else { DataType::Float64 },
                scan_stride: 8,
                contiguous: true,
                device_warm: false,
                stale_rows: 0,
            })
        };
        let mut tab =
            |_r| Ok(TableEvidence { rows: 20_000, record_width: 16, contiguous_nsm: false });
        let sp = shard_probe(2, 10_000);
        let plan = build_plan_sharded(
            &LogicalPlan::group_sum(0, 0, 1),
            &ctx(&caps, None, &cache),
            &mut col,
            &mut tab,
            &mut |_, _| Ok(Some(sp.clone())),
        )
        .unwrap();
        assert_eq!(plan.route(), Route::Scatter { shards: 2 });
        let gather = &plan.root.children[0];
        for sub in &gather.children {
            assert!(matches!(sub.op, PhysicalOp::AggregateGroupSum { key_attr: 0 }));
            assert_eq!(sub.children.len(), 2, "per-shard key and value scans");
            assert_eq!(sub.rows, 10_000);
        }
    }

    #[test]
    fn empty_shard_probe_is_bit_identical_to_build_plan() {
        let caps = EngineCapabilities::from_classification(&survey::cogadb());
        let dev = paper_device();
        let cache = CacheSpec::default();
        let mut col = |_r, _a| Ok(evidence(500_000, true, false));
        let mut tab =
            |_r| Ok(TableEvidence { rows: 500_000, record_width: 16, contiguous_nsm: false });
        for logical in [
            LogicalPlan::sum(0, 1),
            LogicalPlan::filter_sum(0, 1, Predicate::Ge(0.5)),
            LogicalPlan::Materialize { rel: 0, rows: vec![1, 2, 3] },
        ] {
            let flat =
                build_plan(&logical, &ctx(&caps, Some(&dev), &cache), &mut col, &mut tab).unwrap();
            let probed = build_plan_sharded(
                &logical,
                &ctx(&caps, Some(&dev), &cache),
                &mut col,
                &mut tab,
                &mut |_, _| Ok(None),
            )
            .unwrap();
            assert_eq!(flat, probed, "no shard evidence must not perturb the plan");
        }
    }
}
