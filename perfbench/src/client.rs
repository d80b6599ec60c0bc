//! One closed-loop client: runs ops through the front door, times them,
//! counts failures, and — in the traced slices of a `--trace 1` run —
//! records a span around every call into a layer's public functions.

use std::time::{Duration, Instant};

use htapg::core::engine::{MaintenanceReport, StorageEngine};
use htapg::core::plan::{LogicalPlan, Route};
use htapg::core::prng::Prng;
use htapg::core::{obs, Record, RelationId, Result};
use htapg::exec::physical::{self, QueryOutput};
use htapg::exec::ThreadingPolicy;
use htapg::workload::driver;
use htapg::workload::queries::Op;

use crate::stats::Reservoir;

/// Traced runs alternate untraced and traced slices of this length, so
/// both modes see the same drift of engine state and the tracing overhead
/// is their difference.
const SLICE_MS: u128 = 500;

/// Operation types, in metric order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PointRead,
    Update,
    Materialize,
    Sum,
    FilterSum,
    GroupSum,
}

pub const KINDS: [Kind; 6] =
    [Kind::PointRead, Kind::Update, Kind::Materialize, Kind::Sum, Kind::FilterSum, Kind::GroupSum];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::PointRead => "point_read",
            Kind::Update => "update",
            Kind::Materialize => "materialize",
            Kind::Sum => "sum",
            Kind::FilterSum => "filter_sum",
            Kind::GroupSum => "group_sum",
        }
    }

    pub fn analytic(self) -> bool {
        matches!(self, Kind::Sum | Kind::FilterSum | Kind::GroupSum)
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Deals op kinds from seeded shuffles of a block that holds each kind
/// its exact share, so every run's mix matches its shares to within one
/// block and throughput does not swing with the draw.
pub struct Mix {
    block: Vec<Kind>,
    next: usize,
    rng: Prng,
}

impl Mix {
    pub fn new(shares: &[(Kind, usize)], seed: u64) -> Self {
        let block: Vec<Kind> =
            shares.iter().flat_map(|&(k, n)| std::iter::repeat_n(k, n)).collect();
        let next = block.len();
        Mix { block, next, rng: Prng::seed_from_u64(seed) }
    }

    pub fn next_kind(&mut self) -> Kind {
        if self.next == self.block.len() {
            for i in (1..self.block.len()).rev() {
                let j = self.rng.gen_range(0..=i);
                self.block.swap(i, j);
            }
            self.next = 0;
        }
        self.next += 1;
        self.block[self.next - 1]
    }
}

/// The layer boundary a span was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The whole op, as the client sees it.
    Op,
    /// `StorageEngine::plan`.
    PlanBuild,
    /// The re-plan after a diverged estimate.
    PlanReplan,
    /// `physical::execute_observed`.
    Exec,
    /// Direct `StorageEngine::read_record`.
    StorageRead,
    /// Direct single-field update (`update_field`, or one autocommit
    /// transaction on engines with a txn layer).
    StorageUpdate,
    /// `ReferenceEngine::txn_update`.
    TxnUpdate,
    /// `ReferenceEngine::txn_commit`.
    TxnCommit,
    /// `StorageEngine::maintain`.
    Maintain,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Op => "op",
            Layer::PlanBuild => "plan.build",
            Layer::PlanReplan => "plan.replan",
            Layer::Exec => "exec.execute_observed",
            Layer::StorageRead => "storage.read_record",
            Layer::StorageUpdate => "storage.update",
            Layer::TxnUpdate => "txn.update",
            Layer::TxnCommit => "txn.commit",
            Layer::Maintain => "maintain.round",
        }
    }
}

/// Messages kept per kind; the rest are only counted.
const MAX_MESSAGES: usize = 8;

/// No parent span.
pub const ROOT: u32 = u32::MAX;

/// One recorded span. `start_ns`/`end_ns` count from the timed phase's
/// start; `parent` indexes the same client's span list.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    pub kind: Option<Kind>,
    pub op: u64,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// What a client measured and counted; owned, so it outlives the engine
/// borrow and merges across clients.
pub struct Tally {
    /// Host-measured latency (ns) of successful untraced ops, by kind.
    pub lat: [Reservoir; 6],
    pub attempts: [u64; 6],
    pub failures: [u64; 6],
    pub spans: Vec<Span>,
    /// Traced analytic plans, and those routed to the device.
    pub analytic_plans: u64,
    pub device_routes: u64,
    /// Traced `execute_observed` calls, and those that ran another route
    /// than planned.
    pub executed: u64,
    pub fallbacks: u64,
    /// Maintenance rounds: duration (ns) each, and their summed report.
    pub maint_ns: Vec<u64>,
    pub maint: MaintenanceReport,
    /// First few error messages and wrong answers, and how many answers
    /// were wrong.
    pub errors: Vec<String>,
    pub mismatches: Vec<String>,
    pub wrong: u64,
}

impl Tally {
    /// An empty tally; `seed` picks which latencies the reservoirs keep.
    pub fn new(seed: u64) -> Self {
        Tally {
            lat: std::array::from_fn(|k| Reservoir::new(seed ^ k as u64)),
            attempts: [0; 6],
            failures: [0; 6],
            spans: Vec::new(),
            analytic_plans: 0,
            device_routes: 0,
            executed: 0,
            fallbacks: 0,
            maint_ns: Vec::new(),
            maint: MaintenanceReport::default(),
            errors: Vec::new(),
            mismatches: Vec::new(),
            wrong: 0,
        }
    }

    /// Add `other`'s counts and samples; the clients of a run issue
    /// disjoint op kinds, so each kind's samples come from one of them.
    pub fn merge(&mut self, other: Tally) {
        for (k, lat) in other.lat.into_iter().enumerate() {
            debug_assert!(self.lat[k].seen() == 0 || lat.seen() == 0, "kind {k} in two clients");
            if lat.seen() > 0 {
                self.lat[k] = lat;
            }
        }
        for k in 0..KINDS.len() {
            self.attempts[k] += other.attempts[k];
            self.failures[k] += other.failures[k];
        }
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
        self.analytic_plans += other.analytic_plans;
        self.device_routes += other.device_routes;
        self.executed += other.executed;
        self.fallbacks += other.fallbacks;
        self.maint_ns.extend_from_slice(&other.maint_ns);
        add_report(&mut self.maint, &other.maint);
        self.errors.extend(other.errors);
        self.mismatches.extend(other.mismatches);
        self.wrong += other.wrong;
    }

    /// Record a wrong answer (or a failed maintenance round).
    pub fn mismatch(&mut self, what: String) {
        self.wrong += 1;
        if self.mismatches.len() < MAX_MESSAGES {
            self.mismatches.push(what);
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempts.iter().sum()
    }

    pub fn failed(&self) -> u64 {
        self.failures.iter().sum()
    }
}

fn add_report(into: &mut MaintenanceReport, r: &MaintenanceReport) {
    into.layouts_reorganized += r.layouts_reorganized;
    into.merges += r.merges;
    into.versions_pruned += r.versions_pruned;
    into.fragments_moved += r.fragments_moved;
}

pub struct Client<'a> {
    engine: &'a dyn StorageEngine,
    rel: RelationId,
    policy: ThreadingPolicy,
    epoch: Instant,
    deadline: Duration,
    traced_run: bool,
    next_op: u64,
    pub tally: Tally,
}

impl<'a> Client<'a> {
    pub fn new(
        engine: &'a dyn StorageEngine,
        rel: RelationId,
        policy: ThreadingPolicy,
        epoch: Instant,
        deadline: Duration,
        traced_run: bool,
        id: u8,
    ) -> Self {
        Client {
            engine,
            rel,
            policy,
            epoch,
            deadline,
            traced_run,
            // Op ids stay unique across the clients of a run.
            next_op: (id as u64) << 40,
            tally: Tally::new(id as u64),
        }
    }

    /// Whether the timed phase is still running.
    pub fn running(&self) -> bool {
        self.epoch.elapsed() < self.deadline
    }

    /// Time left in the timed phase.
    pub fn remaining(&self) -> Duration {
        self.deadline.saturating_sub(self.epoch.elapsed())
    }

    /// Whether the current slice is traced.
    pub fn traced(&self) -> bool {
        self.traced_run && (self.epoch.elapsed().as_millis() / SLICE_MS) % 2 == 1
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, layer: Layer, kind: Option<Kind>, op: u64, parent: u32) -> u32 {
        let start_ns = self.now_ns();
        self.tally.spans.push(Span { layer, kind, op, parent, start_ns, end_ns: start_ns });
        (self.tally.spans.len() - 1) as u32
    }

    fn close(&mut self, idx: u32) {
        let end = self.now_ns();
        self.tally.spans[idx as usize].end_ns = end;
    }

    /// Run `f` under a span of `layer`.
    pub fn span<T>(
        &mut self,
        layer: Layer,
        kind: Kind,
        op: u64,
        parent: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let idx = self.open(layer, Some(kind), op, parent);
        let out = f();
        self.close(idx);
        out
    }

    fn finish<T>(&mut self, kind: Kind, traced: bool, ns: u64, result: Result<T>) -> Option<T> {
        self.tally.attempts[kind.index()] += 1;
        match result {
            Ok(v) => {
                if !traced {
                    self.tally.lat[kind.index()].push(ns);
                }
                Some(v)
            }
            Err(e) => {
                self.tally.failures[kind.index()] += 1;
                if self.tally.errors.len() < MAX_MESSAGES {
                    self.tally.errors.push(format!("{}: {e}", kind.name()));
                }
                None
            }
        }
    }

    /// Plan → execute with residual feedback → replan on divergence: the
    /// steps of `physical::execute_adaptive`, each under its own span.
    fn traced_front_door(
        &mut self,
        kind: Kind,
        logical: &LogicalPlan,
        op: u64,
        root: u32,
    ) -> Result<QueryOutput> {
        let (engine, policy) = (self.engine, self.policy);
        let plan = self.span(Layer::PlanBuild, kind, op, root, || engine.plan(logical))?;
        if kind.analytic() {
            self.tally.analytic_plans += 1;
            self.tally.device_routes += (plan.route() == Route::DevicePipelined) as u64;
        }
        let out = self.span(Layer::Exec, kind, op, root, || {
            physical::execute_observed(engine, &plan, policy)
        })?;
        self.tally.executed += 1;
        self.tally.fallbacks += (out.executed_route != plan.route()) as u64;
        if out.diverged {
            obs::metrics().counter("plan.replans").inc();
            self.span(Layer::PlanReplan, kind, op, root, || engine.plan(logical))?;
        }
        Ok(out.output)
    }

    fn traced_op<T>(
        &mut self,
        kind: Kind,
        body: impl FnOnce(&mut Self, u64, u32) -> Result<T>,
    ) -> Option<T> {
        let op = self.next_op;
        self.next_op += 1;
        let root = self.open(Layer::Op, Some(kind), op, ROOT);
        let result = body(self, op, root);
        self.close(root);
        let ns = self.tally.spans[root as usize].ns();
        self.finish(kind, true, ns, result)
    }

    /// One op through `physical::execute_adaptive`; its output when it
    /// succeeded.
    pub fn run(&mut self, kind: Kind, logical: &LogicalPlan) -> Option<QueryOutput> {
        if self.traced() {
            return self
                .traced_op(kind, |c, op, root| c.traced_front_door(kind, logical, op, root));
        }
        let t = Instant::now();
        let result = physical::execute_adaptive(self.engine, logical, self.policy);
        let ns = t.elapsed().as_nanos() as u64;
        self.finish(kind, false, ns, result.map(|o| o.output))
    }

    /// One op through `driver::execute_op` (which keeps no output).
    pub fn run_driver(&mut self, kind: Kind, op: &Op, logical: &LogicalPlan) {
        if self.traced() {
            self.traced_op(kind, |c, id, root| c.traced_front_door(kind, logical, id, root));
            return;
        }
        let t = Instant::now();
        let result = driver::execute_op(self.engine, self.rel, op);
        let ns = t.elapsed().as_nanos() as u64;
        self.finish(kind, false, ns, result);
    }

    /// A traced-only decomposition that skips the executor: plan, then
    /// `f` under a span of `layer` (whose index `f` gets as the parent of
    /// any finer spans it records).
    pub fn direct<T>(
        &mut self,
        kind: Kind,
        logical: &LogicalPlan,
        layer: Layer,
        f: impl FnOnce(&mut Self, u64, u32) -> Result<T>,
    ) -> Option<T> {
        let engine = self.engine;
        self.traced_op(kind, |c, op, root| {
            c.span(Layer::PlanBuild, kind, op, root, || engine.plan(logical))?;
            let idx = c.open(layer, Some(kind), op, root);
            let out = f(c, op, idx);
            c.close(idx);
            out
        })
    }

    /// Direct `read_record` under a storage span (traced slices only).
    pub fn direct_read(&mut self, row: u64) -> Option<Record> {
        let (engine, rel) = (self.engine, self.rel);
        let logical = LogicalPlan::PointRead { rel, row };
        self.direct(Kind::PointRead, &logical, Layer::StorageRead, |_, _, _| {
            engine.read_record(rel, row)
        })
    }

    /// One maintenance round, timed.
    pub fn maintain(&mut self) {
        let t = Instant::now();
        let traced = self.traced();
        let idx = traced.then(|| self.open(Layer::Maintain, None, u64::MAX, ROOT));
        let result = self.engine.maintain();
        if let Some(idx) = idx {
            self.close(idx);
        }
        self.tally.maint_ns.push(t.elapsed().as_nanos() as u64);
        match result {
            Ok(r) => add_report(&mut self.tally.maint, &r),
            Err(e) => self.tally.mismatch(format!("maintain failed: {e}")),
        }
    }

    /// Record a wrong answer unless `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.tally.mismatch(what());
        }
    }
}
