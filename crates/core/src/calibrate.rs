//! Online cost-model calibration: closing the loop between the planner's
//! estimates and the executor's observed virtual time.
//!
//! The static router in [`crate::plan`] prices every node from first
//! principles (cache model + device profile), but first principles drift:
//! BENCH_planner.json showed `rel_err ≈ 1.0` on many (engine, op) points,
//! which means the host/device routing decision — the paper's central
//! "which island runs this op" question — was flying blind. This module
//! holds per-`(op, route)` **multiplicative correction factors** learned
//! from EXPLAIN's estimated-vs-actual residuals:
//!
//! ```text
//! ratio_t  = actual_ns / raw_estimated_ns           (clamped positive)
//! factor_t = (1 - α) · factor_{t-1} + α · ratio_t   (EWMA, first obs = ratio)
//! ```
//!
//! A factor is only *consulted* once its key has at least
//! [`CalibrationConfig::warmup`] observations — before that the planner
//! sees `1.0` and behaves exactly like the uncalibrated router, so every
//! pinned routing decision is preserved until evidence accumulates.
//! Factors are a convex combination of clamped positive ratios, so they
//! can never become `NaN`, zero, or negative, and the whole state is
//! snapshot/restore-able ([`CalibrationSnapshot`]) and deterministic under
//! `HTAPG_SEED` (observation order is the only input).
//!
//! The pieces:
//!
//! * [`CalibrationProfiles`] — the learned state, held per engine;
//! * [`bounded_rel_err`] — the noise-floored relative-error metric shared
//!   by the planner bench, the divergence test, and CI;
//! * [`Calibrated`] — a wrapper engine that replans through its own
//!   profiles (the per-*engine* dimension of the (engine, op, route) key:
//!   each engine carries its own `CalibrationProfiles` instance).

use std::collections::BTreeMap;
use std::sync::Arc;

use htapg_taxonomy::Classification;

use crate::engine::{MaintenanceReport, StorageEngine};
use crate::error::Result;
use crate::obs;
use crate::plan::{
    ColumnEvidence, DeviceCostProfile, EngineCapabilities, Predicate, TableEvidence,
};
use crate::schema::{AttrId, Record, RelationId, RowId, Schema};
use crate::types::Value;

/// Differences below this many virtual ns are below the cost model's
/// resolution (a kernel launch is 5 µs, a PCIe transfer latency 10 µs) and
/// cannot flip a routing decision, so the error metric does not grade
/// them. Without the floor, an 80 ns estimate against a 0 ns actual counts
/// as 100 % error — the "trivially wrong" rel_err points of ISSUE 6.
pub const NOISE_FLOOR_NS: u64 = 1_000;

/// Relative error between an estimate and an actual, bounded to `[0, 1]`
/// and floored at [`NOISE_FLOOR_NS`]: `|est - actual| / max(est, actual,
/// floor)`. Symmetric in its arguments.
pub fn bounded_rel_err(est_ns: u64, actual_ns: u64) -> f64 {
    est_ns.abs_diff(actual_ns) as f64 / est_ns.max(actual_ns).max(NOISE_FLOOR_NS) as f64
}

/// Knobs of the calibration loop (DESIGN.md §13).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationConfig {
    /// EWMA smoothing weight of the newest ratio.
    pub alpha: f64,
    /// Observations a key needs before its factor is consulted.
    pub warmup: u64,
    /// Replanning trigger: a warmed node whose observed cost differs from
    /// its calibrated estimate by more than this bounded relative error is
    /// *diverged*.
    pub tolerance: f64,
    /// Lower clamp on ratios and factors (keeps them strictly positive).
    pub min_factor: f64,
    /// Upper clamp on ratios and factors.
    pub max_factor: f64,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        CalibrationConfig {
            alpha: 0.5,
            warmup: 4,
            tolerance: 0.5,
            min_factor: 1e-9,
            max_factor: 1e9,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Cell {
    factor: f64,
    observations: u64,
}

/// One `(op, route)` entry of a [`CalibrationSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationEntry {
    pub op: String,
    pub route: String,
    pub factor: f64,
    pub observations: u64,
}

/// A restorable copy of the learned state, ordered by `(op, route)` — the
/// `BTreeMap` iteration order, so two identically-fed profiles snapshot to
/// byte-identical entry lists.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CalibrationSnapshot {
    pub entries: Vec<CalibrationEntry>,
}

/// Per-(op, route) EWMA correction factors for one engine.
#[derive(Debug, Default)]
pub struct CalibrationProfiles {
    config: CalibrationConfig,
    cells: crate::sync::Mutex<BTreeMap<(String, String), Cell>>,
}

impl CalibrationProfiles {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_config(config: CalibrationConfig) -> Self {
        CalibrationProfiles { config, cells: crate::sync::Mutex::new(BTreeMap::new()) }
    }

    pub fn config(&self) -> CalibrationConfig {
        self.config
    }

    /// Feed one residual: the *raw* (uncalibrated) estimate of a node
    /// against the virtual ns its execution actually charged. Keyed by the
    /// node's span name and the route that actually executed.
    pub fn observe(&self, op: &str, route: &str, raw_est_ns: u64, actual_ns: u64) {
        let ratio = (actual_ns as f64 / raw_est_ns.max(1) as f64)
            .clamp(self.config.min_factor, self.config.max_factor);
        let mut cells = self.cells.lock();
        let cell = cells
            .entry((op.to_string(), route.to_string()))
            .or_insert(Cell { factor: ratio, observations: 0 });
        if cell.observations > 0 {
            cell.factor = ((1.0 - self.config.alpha) * cell.factor + self.config.alpha * ratio)
                .clamp(self.config.min_factor, self.config.max_factor);
        }
        cell.observations += 1;
    }

    /// The correction factor the planner multiplies raw estimates by:
    /// `1.0` until the key has warmed up, the EWMA factor afterwards.
    pub fn factor(&self, op: &str, route: &str) -> f64 {
        let cells = self.cells.lock();
        match cells.get(&(op.to_string(), route.to_string())) {
            Some(c) if c.observations >= self.config.warmup => c.factor,
            _ => 1.0,
        }
    }

    /// The learned factor regardless of warm-up (for tests and reports).
    pub fn learned_factor(&self, op: &str, route: &str) -> Option<f64> {
        self.cells.lock().get(&(op.to_string(), route.to_string())).map(|c| c.factor)
    }

    /// Observation count for one key.
    pub fn observations(&self, op: &str, route: &str) -> u64 {
        self.cells.lock().get(&(op.to_string(), route.to_string())).map_or(0, |c| c.observations)
    }

    /// Whether the key has enough observations for its factor to be
    /// consulted.
    pub fn is_warmed(&self, op: &str, route: &str) -> bool {
        self.observations(op, route) >= self.config.warmup
    }

    /// Apply the (possibly unwarmed ⇒ identity) factor to a raw estimate.
    /// Truncating, saturating cast: a factor at the upper clamp times a
    /// large estimate must not wrap.
    pub fn calibrated_ns(&self, op: &str, route: &str, raw_est_ns: u64) -> u64 {
        let v = raw_est_ns as f64 * self.factor(op, route);
        if v >= u64::MAX as f64 {
            u64::MAX
        } else {
            v as u64
        }
    }

    /// The replanning trigger: the key is warmed and the observed cost
    /// falls outside the tolerance band around the calibrated estimate.
    pub fn diverged(&self, op: &str, route: &str, calibrated_est_ns: u64, actual_ns: u64) -> bool {
        self.is_warmed(op, route)
            && bounded_rel_err(calibrated_est_ns, actual_ns) > self.config.tolerance
    }

    /// Mean warmed factor of `op` over the given routes (`1.0` when none
    /// are warmed) — the residual signal the adaptivity advisor scales its
    /// cache-model predictions by.
    pub fn mean_factor(&self, op: &str, routes: &[&str]) -> f64 {
        let cells = self.cells.lock();
        let warmed: Vec<f64> = routes
            .iter()
            .filter_map(|r| cells.get(&(op.to_string(), r.to_string())))
            .filter(|c| c.observations >= self.config.warmup)
            .map(|c| c.factor)
            .collect();
        if warmed.is_empty() {
            1.0
        } else {
            warmed.iter().sum::<f64>() / warmed.len() as f64
        }
    }

    /// Number of distinct (op, route) keys observed so far.
    pub fn len(&self) -> usize {
        self.cells.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.cells.lock().is_empty()
    }

    /// Copy out the learned state, ordered by `(op, route)`.
    pub fn snapshot(&self) -> CalibrationSnapshot {
        let cells = self.cells.lock();
        CalibrationSnapshot {
            entries: cells
                .iter()
                .map(|((op, route), c)| CalibrationEntry {
                    op: op.clone(),
                    route: route.clone(),
                    factor: c.factor,
                    observations: c.observations,
                })
                .collect(),
        }
    }

    /// Replace the learned state with a snapshot's.
    pub fn restore(&self, snapshot: &CalibrationSnapshot) {
        let mut cells = self.cells.lock();
        cells.clear();
        for e in &snapshot.entries {
            cells.insert(
                (e.op.clone(), e.route.clone()),
                Cell { factor: e.factor, observations: e.observations },
            );
        }
    }

    /// Feed every residual of a finished trace (see
    /// [`obs::TraceReport::residuals`]).
    pub fn absorb(&self, residuals: &[obs::Residual]) {
        for r in residuals {
            self.observe(&r.op, &r.route, r.raw_est_ns, r.actual_ns);
        }
    }
}

/// A calibrating wrapper around any [`StorageEngine`]: every call is
/// delegated, but the default [`StorageEngine::plan`] routes through this
/// wrapper's own [`CalibrationProfiles`] (returned by `calibration()`) and
/// an optional device-profile override, used by the route-flip tests to
/// seed a deliberately mis-priced device.
pub struct Calibrated {
    inner: Box<dyn StorageEngine>,
    profiles: Arc<CalibrationProfiles>,
    device_override: Option<DeviceCostProfile>,
}

impl Calibrated {
    pub fn new(inner: Box<dyn StorageEngine>) -> Self {
        Self::with_config(inner, CalibrationConfig::default())
    }

    pub fn with_config(inner: Box<dyn StorageEngine>, config: CalibrationConfig) -> Self {
        Calibrated {
            inner,
            profiles: Arc::new(CalibrationProfiles::with_config(config)),
            device_override: None,
        }
    }

    /// Replace the planner's device cost profile (the inner engine's
    /// actual device behavior is untouched — that is the point: the lie
    /// shows up as residuals).
    pub fn with_device_profile(mut self, profile: DeviceCostProfile) -> Self {
        self.device_override = Some(profile);
        self
    }

    pub fn profiles(&self) -> Arc<CalibrationProfiles> {
        Arc::clone(&self.profiles)
    }

    pub fn inner(&self) -> &dyn StorageEngine {
        self.inner.as_ref()
    }
}

impl StorageEngine for Calibrated {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn classification(&self) -> Classification {
        self.inner.classification()
    }

    fn create_relation(&self, schema: Schema) -> Result<RelationId> {
        self.inner.create_relation(schema)
    }

    fn schema(&self, rel: RelationId) -> Result<Schema> {
        self.inner.schema(rel)
    }

    fn insert(&self, rel: RelationId, record: &Record) -> Result<RowId> {
        self.inner.insert(rel, record)
    }

    fn read_record(&self, rel: RelationId, row: RowId) -> Result<Record> {
        self.inner.read_record(rel, row)
    }

    fn read_field(&self, rel: RelationId, row: RowId, attr: AttrId) -> Result<Value> {
        self.inner.read_field(rel, row, attr)
    }

    fn update_field(&self, rel: RelationId, row: RowId, attr: AttrId, value: &Value) -> Result<()> {
        self.inner.update_field(rel, row, attr, value)
    }

    fn with_aligned_blocks(
        &self,
        rel: RelationId,
        attrs: &[AttrId],
        visit: &mut dyn FnMut(&[&[u8]]),
    ) -> Result<()> {
        self.inner.with_aligned_blocks(rel, attrs, visit)
    }

    fn materialize_rows(&self, rel: RelationId, rows: &[RowId]) -> Result<Vec<Record>> {
        self.inner.materialize_rows(rel, rows)
    }

    fn row_count(&self, rel: RelationId) -> Result<u64> {
        self.inner.row_count(rel)
    }

    fn maintain(&self) -> Result<MaintenanceReport> {
        self.inner.maintain()
    }

    fn capabilities(&self) -> EngineCapabilities {
        self.inner.capabilities()
    }

    fn device_cost_profile(&self) -> Option<DeviceCostProfile> {
        self.device_override.or_else(|| self.inner.device_cost_profile())
    }

    fn column_evidence(&self, rel: RelationId, attr: AttrId) -> Result<ColumnEvidence> {
        self.inner.column_evidence(rel, attr)
    }

    fn table_evidence(&self, rel: RelationId) -> Result<TableEvidence> {
        self.inner.table_evidence(rel)
    }

    fn offload_sum(&self, rel: RelationId, attr: AttrId, pred: Option<&Predicate>) -> Result<f64> {
        self.inner.offload_sum(rel, attr, pred)
    }

    fn offload_group_sum(
        &self,
        rel: RelationId,
        key_attr: AttrId,
        value_attr: AttrId,
    ) -> Result<Vec<(i64, f64)>> {
        self.inner.offload_group_sum(rel, key_attr, value_attr)
    }

    fn trace_clock(&self) -> Option<Arc<dyn obs::VirtualClock>> {
        self.inner.trace_clock()
    }

    fn calibration(&self) -> Option<Arc<CalibrationProfiles>> {
        Some(Arc::clone(&self.profiles))
    }

    fn explain(&self, report: &obs::TraceReport) -> String {
        self.inner.explain(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_observation_seeds_the_factor_then_ewma_tracks() {
        let p = CalibrationProfiles::new();
        p.observe("plan.scan", "inline-volcano", 1_000, 4_000);
        assert_eq!(p.learned_factor("plan.scan", "inline-volcano"), Some(4.0));
        // EWMA with α = 0.5 toward ratio 2.0: (4 + 2) / 2 = 3.
        p.observe("plan.scan", "inline-volcano", 1_000, 2_000);
        assert_eq!(p.learned_factor("plan.scan", "inline-volcano"), Some(3.0));
    }

    #[test]
    fn factor_is_identity_until_warmup() {
        let p = CalibrationProfiles::new();
        for i in 0..4 {
            assert_eq!(p.factor("plan.scan", "inline-volcano"), 1.0, "before obs {i}");
            assert!(!p.is_warmed("plan.scan", "inline-volcano"));
            p.observe("plan.scan", "inline-volcano", 1_000, 3_000);
        }
        assert!(p.is_warmed("plan.scan", "inline-volcano"));
        assert_eq!(p.factor("plan.scan", "inline-volcano"), 3.0);
        assert_eq!(p.calibrated_ns("plan.scan", "inline-volcano", 2_000), 6_000);
        // Unknown keys stay identity.
        assert_eq!(p.calibrated_ns("plan.scan", "device-pipelined", 2_000), 2_000);
    }

    #[test]
    fn factors_stay_positive_and_finite_under_extremes() {
        let p = CalibrationProfiles::new();
        for (raw, actual) in [(0u64, 0u64), (0, u64::MAX), (u64::MAX, 0), (1, 1)] {
            p.observe("op", "r", raw, actual);
            let f = p.learned_factor("op", "r").unwrap();
            assert!(f.is_finite() && f > 0.0, "raw={raw} actual={actual} factor={f}");
        }
        // Saturating calibrated estimate at the upper clamp.
        let q = CalibrationProfiles::new();
        for _ in 0..4 {
            q.observe("op", "r", 1, u64::MAX);
        }
        assert_eq!(q.calibrated_ns("op", "r", u64::MAX), u64::MAX);
    }

    #[test]
    fn bounded_rel_err_has_a_noise_floor() {
        assert_eq!(bounded_rel_err(0, 0), 0.0);
        assert_eq!(bounded_rel_err(100, 0), 0.1);
        assert_eq!(bounded_rel_err(0, 100), 0.1);
        assert_eq!(bounded_rel_err(50, 100), 0.05);
        assert_eq!(bounded_rel_err(5_000, 10_000), 0.5);
        assert!(bounded_rel_err(0, u64::MAX) <= 1.0);
    }

    #[test]
    fn divergence_requires_warmup_and_tolerance_breach() {
        let p = CalibrationProfiles::new();
        // Cold: never diverged, whatever the residual.
        assert!(!p.diverged("op", "r", 1_000, 1_000_000));
        for _ in 0..4 {
            p.observe("op", "r", 1_000, 1_000);
        }
        assert!(!p.diverged("op", "r", 1_000, 1_400), "within tolerance");
        assert!(p.diverged("op", "r", 1_000, 1_000_000), "beyond tolerance");
    }

    #[test]
    fn snapshot_restores_exactly() {
        let p = CalibrationProfiles::new();
        p.observe("plan.scan", "inline-volcano", 100, 700);
        p.observe("plan.aggregate.sum", "device-pipelined", 5_000, 2_500);
        let snap = p.snapshot();
        assert_eq!(snap.entries.len(), 2);
        // Ordered by (op, route).
        assert_eq!(snap.entries[0].op, "plan.aggregate.sum");

        let q = CalibrationProfiles::new();
        q.observe("noise", "r", 1, 2);
        q.restore(&snap);
        assert_eq!(q.snapshot(), snap);
        assert_eq!(q.learned_factor("plan.scan", "inline-volcano"), Some(7.0));
        assert_eq!(q.observations("noise", "r"), 0);
    }

    #[test]
    fn mean_factor_averages_warmed_routes_only() {
        let p = CalibrationProfiles::new();
        for _ in 0..4 {
            p.observe("plan.aggregate.sum", "inline-volcano", 1_000, 2_000);
        }
        p.observe("plan.aggregate.sum", "host-pooled-morsel", 1_000, 8_000);
        // Only the warmed route contributes.
        let m = p.mean_factor("plan.aggregate.sum", &["inline-volcano", "host-pooled-morsel"]);
        assert_eq!(m, 2.0);
        assert_eq!(p.mean_factor("plan.point_read", &["inline-volcano"]), 1.0);
    }
}
