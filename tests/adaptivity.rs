//! End-to-end responsive adaptability: the four responsive engines react
//! to workload shifts (requirement 2 of the reference design), and the
//! answers never change across reorganizations.

use htapg::core::engine::StorageEngine;
use htapg::core::plan::LogicalPlan;
use htapg::core::{RelationId, Value};
use htapg::engines::{Es2Engine, H2oEngine, HyriseEngine, PelotonEngine, ReferenceEngine};
use htapg::exec::physical;
use htapg::exec::threading::ThreadingPolicy;
use htapg::workload::driver::load_items;
use htapg::workload::tpcc::{item_attr, Generator};

/// `SUM(price)` through the analytic front door: plan, then execute.
fn planned_sum(engine: &dyn StorageEngine, rel: RelationId) -> f64 {
    let plan = engine.plan(&LogicalPlan::sum(rel, item_attr::I_PRICE)).unwrap();
    physical::execute(engine, &plan, ThreadingPolicy::Single).unwrap().as_sum().unwrap()
}

/// Exercise an engine with a scan-heavy phase then a record-heavy phase,
/// calling maintain between phases; verify (a) something reorganized,
/// (b) all answers stayed correct throughout.
fn shift_workload(engine: &dyn StorageEngine, expect_reorg: bool) {
    let gen = Generator::new(17);
    let n = 2_000u64;
    let rel = load_items(engine, &gen, n).unwrap();
    let expected_sum = gen.expected_item_price_sum(n);

    // Phase 1: analytics.
    for _ in 0..40 {
        let s = planned_sum(engine, rel);
        assert!((s - expected_sum).abs() < 1e-6 * expected_sum, "{}", engine.name());
    }
    let r1 = engine.maintain().unwrap();
    if expect_reorg {
        assert!(
            r1.layouts_reorganized > 0 || r1.merges > 0,
            "{} should have adapted to the scan phase: {r1:?}",
            engine.name()
        );
    }
    // Answers survive the reorganization.
    let s = planned_sum(engine, rel);
    assert!((s - expected_sum).abs() < 1e-6 * expected_sum, "{} post-reorg", engine.name());
    assert_eq!(engine.read_record(rel, 1234).unwrap(), gen.item(1234), "{}", engine.name());

    // Phase 2: records (plus some updates).
    for i in 0..200 {
        engine.read_record(rel, (i * 13) % n).unwrap();
    }
    engine.update_field(rel, 7, item_attr::I_PRICE, &Value::Float64(1.0)).unwrap();
    engine.maintain().unwrap();
    assert_eq!(
        engine.read_field(rel, 7, item_attr::I_PRICE).unwrap(),
        Value::Float64(1.0),
        "{} update visible after second reorganization",
        engine.name()
    );
    // Unmodified neighbours unaffected.
    assert_eq!(engine.read_record(rel, 8).unwrap(), gen.item(8), "{}", engine.name());
}

#[test]
fn hyrise_adapts() {
    shift_workload(&HyriseEngine::new(), true);
}

#[test]
fn h2o_adapts() {
    shift_workload(&H2oEngine::new(), true);
}

#[test]
fn es2_adapts() {
    shift_workload(&Es2Engine::new(3), true);
}

#[test]
fn peloton_adapts() {
    // Peloton's adaptation is per tile group (hot/cold), driven by
    // updates rather than scans; use smaller tiles so groups fill.
    let engine = PelotonEngine::with_tile_rows(256);
    shift_workload(&engine, true);
}

#[test]
fn reference_engine_adapts_and_places() {
    let engine = ReferenceEngine::new();
    shift_workload(&engine, true);
}

#[test]
fn adaptation_is_monotone_work_not_thrash() {
    // Repeating the same workload and maintenance must converge: after the
    // first adoption, further passes are no-ops.
    let engine = H2oEngine::new();
    let gen = Generator::new(23);
    let rel = load_items(&engine, &gen, 1_000).unwrap();
    for _ in 0..30 {
        physical::touch_column(&engine, rel, item_attr::I_PRICE).unwrap();
    }
    let first = engine.maintain().unwrap().layouts_reorganized;
    assert_eq!(first, 1);
    for _ in 0..30 {
        physical::touch_column(&engine, rel, item_attr::I_PRICE).unwrap();
    }
    for round in 0..3 {
        let again = engine.maintain().unwrap().layouts_reorganized;
        assert_eq!(again, 0, "round {round} thrashed");
        for _ in 0..10 {
            physical::touch_column(&engine, rel, item_attr::I_PRICE).unwrap();
        }
    }
}
