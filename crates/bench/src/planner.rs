//! The `repro planner` section: cost-model calibration of the query
//! planner across every surveyed engine.
//!
//! Each engine gets an identical TPC-C item table; every workload op class
//! is lowered to a [`LogicalPlan`], routed by the engine's own
//! [`StorageEngine::plan`], and interpreted by the physical executor while
//! the engine's virtual clock (when it has one) measures the *actual*
//! virtual nanoseconds. The section reports, per (engine, op class), the
//! route taken, the planner's estimate, the measured actual, and the
//! bounded relative error (see [`htapg_core::calibrate::bounded_rel_err`]).
//!
//! Every engine is wrapped in [`Calibrated`], and each op class is
//! measured twice: a **cold** pass on the uncalibrated analytic model,
//! then — after a warm-up phase of observed executions that feed the EWMA
//! calibration profiles — a **warm** pass on the corrected estimates. CI
//! asserts `mean_rel_error_warm` is at least 10x below
//! `mean_rel_error_cold`.

use htapg_core::calibrate::{self, Calibrated};
use htapg_core::engine::StorageEngine;
use htapg_core::plan::{LogicalPlan, Predicate};
use htapg_core::{RelationId, Value};
use htapg_engines::{all_surveyed_engines, ReferenceEngine};
use htapg_exec::physical;
use htapg_exec::threading::ThreadingPolicy;
use htapg_workload::driver::load_items;
use htapg_workload::tpcc::{item_attr, Generator};

/// One planned-and-executed op: the planner's routing decision and its
/// estimate against the clock's verdict.
#[derive(Debug, Clone)]
pub struct PlanPoint {
    pub engine: &'static str,
    /// Op class label (`sum_column`, `group_sum`, ...).
    pub op: &'static str,
    /// `"cold"` (uncalibrated estimates) or `"warm"` (after the
    /// calibration warm-up rounds).
    pub phase: &'static str,
    /// Route label from the physical plan root.
    pub route: &'static str,
    /// Bytes the plan expects to move over PCIe.
    pub bytes_to_device: u64,
    pub est_ns: u64,
    pub actual_ns: u64,
}

/// Bounded relative estimation error with a noise floor:
/// `|est − actual| / max(actual, est, 1000)`. Always in `[0, 1]`, defined
/// (0) when both sides are zero, and sub-noise-floor disagreements (host
/// ops advance no virtual time) are graded proportionally instead of as
/// total misses.
pub fn rel_err(est_ns: u64, actual_ns: u64) -> f64 {
    calibrate::bounded_rel_err(est_ns, actual_ns)
}

/// Mean bounded relative error over a set of points (0 when empty).
pub fn mean_rel_error(points: &[PlanPoint]) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    points.iter().map(|p| rel_err(p.est_ns, p.actual_ns)).sum::<f64>() / points.len() as f64
}

/// Mean bounded relative error of one phase's points (0 when empty).
pub fn mean_rel_error_phase(points: &[PlanPoint], phase: &str) -> f64 {
    let sel: Vec<f64> = points
        .iter()
        .filter(|p| p.phase == phase)
        .map(|p| rel_err(p.est_ns, p.actual_ns))
        .collect();
    if sel.is_empty() {
        return 0.0;
    }
    sel.iter().sum::<f64>() / sel.len() as f64
}

/// Plan and execute one logical op, measuring actual virtual ns. The
/// observed execution also feeds the engine's calibration profiles.
fn run_one(
    engine: &dyn StorageEngine,
    op: &'static str,
    phase: &'static str,
    logical: &LogicalPlan,
) -> htapg_core::Result<PlanPoint> {
    let plan = engine.plan(logical)?;
    let outcome = physical::execute_observed(engine, &plan, ThreadingPolicy::Single)?;
    Ok(PlanPoint {
        engine: engine.name(),
        op,
        phase,
        route: plan.route().label(),
        bytes_to_device: plan.bytes_to_device(),
        est_ns: plan.estimated_ns(),
        actual_ns: outcome.actual_ns,
    })
}

/// The op classes measured per engine: one logical plan per workload op
/// kind, plus the fused filter+sum shape.
fn op_classes(rel: RelationId, rows: u64) -> Vec<(&'static str, LogicalPlan)> {
    vec![
        ("sum_column", LogicalPlan::sum(rel, item_attr::I_PRICE)),
        ("filter_sum", LogicalPlan::filter_sum(rel, item_attr::I_PRICE, Predicate::Ge(50.0))),
        ("group_sum", LogicalPlan::group_sum(rel, item_attr::I_IM_ID, item_attr::I_PRICE)),
        ("materialize", LogicalPlan::Materialize { rel, rows: (0..rows).step_by(97).collect() }),
        ("point_read", LogicalPlan::PointRead { rel, row: rows / 2 }),
        (
            "update_field",
            LogicalPlan::Update {
                rel,
                row: rows / 3,
                attr: item_attr::I_PRICE,
                value: Value::Float64(9.25),
            },
        ),
    ]
}

/// Measure every op class on every surveyed engine plus the reference
/// engine. Each engine is warmed (repeated analytic scans + `maintain`) so
/// the device-capable ones reach their steady placement, then measured
/// twice: a cold pass on the uncalibrated cost model, a calibration
/// warm-up phase of observed executions, and a warm pass on the corrected
/// estimates.
pub fn measure(seed: u64, quick: bool) -> Vec<PlanPoint> {
    let rows = if quick { 4_000 } else { 20_000 };
    let warmup_rounds = if quick { 24 } else { 32 };
    let gen = Generator::new(seed);
    let mut engines: Vec<Calibrated> =
        all_surveyed_engines().into_iter().map(Calibrated::new).collect();
    engines.push(Calibrated::new(Box::new(ReferenceEngine::new())));
    let mut points = Vec::new();
    for engine in &engines {
        let rel = match load_items(engine, &gen, rows) {
            Ok(rel) => rel,
            Err(_) => continue,
        };
        // Placement warm-up: device-capable engines reach their steady
        // delegation before anything is measured.
        for _ in 0..40 {
            let _ = physical::touch_column(engine, rel, item_attr::I_PRICE);
        }
        let _ = engine.maintain();
        // Cold pass: first planned execution per op class; the profiles
        // are empty, so estimates are the raw analytic model's.
        for (op, logical) in op_classes(rel, rows) {
            match run_one(engine, op, "cold", &logical) {
                Ok(p) => points.push(p),
                Err(e) => eprintln!("planner: {} {op} failed: {e}", engine.name()),
            }
        }
        // Calibration warm-up: repeated observed executions feed the EWMA
        // profiles past their warm-up threshold. maintain() per round
        // refreshes device replicas staled by the update op.
        for _ in 0..warmup_rounds {
            let _ = engine.maintain();
            for (_op, logical) in op_classes(rel, rows) {
                if let Ok(plan) = engine.plan(&logical) {
                    let _ = physical::execute_observed(engine, &plan, ThreadingPolicy::Single);
                }
            }
        }
        let _ = engine.maintain();
        // Warm pass: identical op classes, now planned with calibrated
        // estimates.
        for (op, logical) in op_classes(rel, rows) {
            match run_one(engine, op, "warm", &logical) {
                Ok(p) => points.push(p),
                Err(e) => eprintln!("planner: {} {op} failed: {e}", engine.name()),
            }
        }
    }
    points
}

/// Render the calibration table for the terminal.
pub fn render(points: &[PlanPoint]) -> String {
    let mut out = format!(
        "{:<16} {:<14} {:<6} {:<20} {:>12} {:>12} {:>8}\n",
        "engine", "op", "phase", "route", "est (vns)", "actual (vns)", "rel err"
    );
    for p in points {
        out.push_str(&format!(
            "{:<16} {:<14} {:<6} {:<20} {:>12} {:>12} {:>8.3}\n",
            p.engine,
            p.op,
            p.phase,
            p.route,
            p.est_ns,
            p.actual_ns,
            rel_err(p.est_ns, p.actual_ns)
        ));
    }
    out.push_str(&format!(
        "\nmean bounded relative error: {:.4} (cold {:.4} -> warm {:.4})\n",
        mean_rel_error(points),
        mean_rel_error_phase(points, "cold"),
        mean_rel_error_phase(points, "warm"),
    ));
    out
}

/// Serialize as BENCH_planner.json.
pub fn to_json(seed: u64, points: &[PlanPoint]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"planner\",\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"engine\": \"{}\", \"op\": \"{}\", \"phase\": \"{}\", \"route\": \"{}\", \
             \"bytes_to_device\": {}, \"est_ns\": {}, \"actual_ns\": {}, \"rel_err\": {:.6}}}{}\n",
            p.engine,
            p.op,
            p.phase,
            p.route,
            p.bytes_to_device,
            p.est_ns,
            p.actual_ns,
            rel_err(p.est_ns, p.actual_ns),
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"mean_rel_error\": {:.6},\n", mean_rel_error(points)));
    out.push_str(&format!(
        "  \"mean_rel_error_cold\": {:.6},\n",
        mean_rel_error_phase(points, "cold")
    ));
    out.push_str(&format!(
        "  \"mean_rel_error_warm\": {:.6}\n",
        mean_rel_error_phase(points, "warm")
    ));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_err_is_bounded_and_symmetric() {
        assert_eq!(rel_err(0, 0), 0.0);
        // Sub-noise-floor disagreements are graded proportionally, not as
        // total (1.0) misses: 100 vs 0 is 100/1000.
        assert!((rel_err(100, 0) - 0.1).abs() < 1e-12);
        assert!((rel_err(0, 100) - 0.1).abs() < 1e-12);
        assert!((rel_err(50, 100) - 0.05).abs() < 1e-12);
        // At and above the floor the classic bounded form takes over.
        assert!((rel_err(5_000, 10_000) - 0.5).abs() < 1e-12);
        assert_eq!(rel_err(50, 100), rel_err(100, 50));
        assert_eq!(rel_err(5_000, 10_000), rel_err(10_000, 5_000));
    }

    #[test]
    fn measure_covers_every_engine_and_op_class() {
        let points = measure(7, true);
        let engines: std::collections::BTreeSet<_> = points.iter().map(|p| p.engine).collect();
        assert!(engines.len() >= 5, "expected all engines, got {engines:?}");
        for op in
            ["sum_column", "filter_sum", "group_sum", "materialize", "point_read", "update_field"]
        {
            assert!(points.iter().any(|p| p.op == op && p.phase == "cold"), "missing cold {op}");
            assert!(points.iter().any(|p| p.op == op && p.phase == "warm"), "missing warm {op}");
        }
        let mean = mean_rel_error(&points);
        assert!(mean.is_finite() && (0.0..=1.0).contains(&mean), "mean {mean}");
        // Known route labels only.
        for p in &points {
            assert!(
                ["device-pipelined", "host-pooled-morsel", "inline-volcano"].contains(&p.route),
                "unknown route {}",
                p.route
            );
        }
        let json = to_json(7, &points);
        assert!(json.contains("\"bench\": \"planner\""));
        assert!(json.contains("\"mean_rel_error\""));
        assert!(json.contains("\"mean_rel_error_cold\""));
        assert!(json.contains("\"mean_rel_error_warm\""));
        assert!(json.contains("\"phase\": \"cold\""));
        assert!(render(&points).contains("mean bounded relative error"));
    }

    #[test]
    fn warm_device_engines_take_the_device_route_for_sums() {
        let points = measure(3, true);
        // The reference engine delegates the hot column to the device after
        // warm-up + maintain; the uncalibrated (cold) planner must route
        // its sum there. (The warm pass may legitimately flip to the host
        // once calibration learns that host work is free in virtual time.)
        let p = points
            .iter()
            .find(|p| p.engine == "REFERENCE" && p.op == "sum_column" && p.phase == "cold")
            .expect("reference cold sum measured");
        assert_eq!(p.route, "device-pipelined", "warm reference sum routes to device");
        assert_eq!(p.bytes_to_device, 0, "warm replica: no PCIe in the plan");
        assert!(p.actual_ns > 0, "device work advances the virtual clock");
    }

    #[test]
    fn calibration_cuts_mean_error_at_least_10x() {
        let points = measure(1, true);
        let cold = mean_rel_error_phase(&points, "cold");
        let warm = mean_rel_error_phase(&points, "warm");
        assert!(cold > 0.0, "cold pass must show real estimation error");
        assert!(warm <= 0.1 * cold, "warm {warm} must be <= 0.1 x cold {cold}");
    }
}
