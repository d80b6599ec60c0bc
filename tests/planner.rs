//! Planner integration: every route the cost-based router can pick —
//! device-pipelined, host-pooled-morsel, inline-volcano — must produce
//! *bit-identical* results to a naive Volcano interpretation of the same
//! logical plan, on every engine. Plus routing pins on live engines: a
//! warm device cache routes to the device with zero planned PCIe bytes, a
//! cold tiny relation stays inline on the host, more than one morsel of
//! host input goes to the pool, and an NSM-only engine scans value-visit.

use htapg::core::engine::StorageEngine;
use htapg::core::plan::{LogicalPlan, Predicate, Route, ScanStrategy, INLINE_MORSEL_ROWS};
use htapg::core::prng::check_cases;
use htapg::core::Value;
use htapg::engines::{all_surveyed_engines, MirrorsEngine, PlainEngine, ReferenceEngine};
use htapg::exec::physical::{self, QueryOutput};
use htapg::exec::threading::ThreadingPolicy;
use htapg::workload::tpcc::{item_attr, item_schema, Generator};

fn engines_under_test() -> Vec<Box<dyn StorageEngine>> {
    let mut v = all_surveyed_engines();
    v.push(Box::new(ReferenceEngine::new()));
    v
}

fn planned_sum(engine: &dyn StorageEngine, logical: &LogicalPlan) -> f64 {
    let plan = engine.plan(logical).unwrap();
    match physical::execute(engine, &plan, ThreadingPolicy::Single).unwrap() {
        QueryOutput::Sum(x) => x,
        other => panic!("sum plan returned {other:?}"),
    }
}

fn planned_groups(engine: &dyn StorageEngine, logical: &LogicalPlan) -> Vec<(i64, f64)> {
    let plan = engine.plan(logical).unwrap();
    match physical::execute(engine, &plan, ThreadingPolicy::Single).unwrap() {
        QueryOutput::Groups(g) => g,
        other => panic!("group plan returned {other:?}"),
    }
}

/// Every planner route is bit-identical to the naive Volcano oracle, on
/// every engine, across arbitrary row counts and maintenance points. The
/// seed honors `HTAPG_SEED` and is printed on failure.
#[test]
fn planned_routes_are_bit_identical_to_volcano() {
    check_cases("planned_routes_are_bit_identical_to_volcano", 3, 77, |case, rng| {
        let gen = Generator::new(4242 + case);
        // Row counts straddle empty, single-row, and multi-segment shapes.
        let n = [0u64, 1, 7, 1 + rng.gen_range(0u64..2_000)][rng.gen_range(0usize..4)];
        let pred = Predicate::Ge(rng.gen_range(0.0..100.0));
        for engine in engines_under_test() {
            let engine = engine.as_ref();
            let rel = engine.create_relation(item_schema()).unwrap();
            for i in 0..n {
                engine.insert(rel, &gen.item(i)).unwrap();
            }
            // Random warmth: sometimes scan + maintain so device engines
            // reach warm replicas and the planner picks the device route.
            if rng.gen_range(0..2) == 1 {
                for _ in 0..20 {
                    let _ = physical::touch_column(engine, rel, item_attr::I_PRICE);
                }
                let _ = engine.maintain();
            }
            let sum = LogicalPlan::sum(rel, item_attr::I_PRICE);
            let got = planned_sum(engine, &sum);
            let want = physical::volcano_sum(engine, rel, item_attr::I_PRICE).unwrap();
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{} sum: plan {got} vs volcano {want} (n={n})",
                engine.name()
            );

            let fsum = LogicalPlan::filter_sum(rel, item_attr::I_PRICE, pred);
            let got = planned_sum(engine, &fsum);
            let want =
                physical::volcano_filter_sum(engine, rel, item_attr::I_PRICE, &pred).unwrap();
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{} filter-sum: plan {got} vs volcano {want} (n={n})",
                engine.name()
            );

            let gsum = LogicalPlan::group_sum(rel, item_attr::I_IM_ID, item_attr::I_PRICE);
            let got = planned_groups(engine, &gsum);
            let want =
                physical::volcano_group_sum(engine, rel, item_attr::I_IM_ID, item_attr::I_PRICE)
                    .unwrap();
            assert_eq!(got, want, "{} group-sum (n={n})", engine.name());
        }
    });
}

/// The same `SUM(price)` logical op takes the device route on a warm
/// cache and the inline host route on a cold tiny relation — and each
/// route's answer is bit-identical to the Volcano oracle over its data.
#[test]
fn warm_device_and_cold_host_routes_agree_bitwise() {
    let gen = Generator::new(11);

    // Warm: analytic burst + maintain delegates the price column to the
    // device and packs a fresh replica.
    let warm = ReferenceEngine::new();
    let rel_w = warm.create_relation(item_schema()).unwrap();
    for i in 0..5_000 {
        warm.insert(rel_w, &gen.item(i)).unwrap();
    }
    for _ in 0..40 {
        physical::touch_column(&warm, rel_w, item_attr::I_PRICE).unwrap();
    }
    warm.maintain().unwrap();
    let warm_plan = warm.plan(&LogicalPlan::sum(rel_w, item_attr::I_PRICE)).unwrap();
    assert_eq!(warm_plan.route(), Route::DevicePipelined, "warm replica routes to device");
    assert_eq!(warm_plan.bytes_to_device(), 0, "warm replica needs no PCIe");
    let warm_sum =
        physical::execute(&warm, &warm_plan, ThreadingPolicy::Single).unwrap().as_sum().unwrap();
    let want = physical::volcano_sum(&warm, rel_w, item_attr::I_PRICE).unwrap();
    assert_eq!(warm_sum.to_bits(), want.to_bits(), "device route vs volcano");

    // Cold and tiny: not worth a kernel launch, stays inline on the host.
    let cold = ReferenceEngine::new();
    let rel_c = cold.create_relation(item_schema()).unwrap();
    for i in 0..100 {
        cold.insert(rel_c, &gen.item(i)).unwrap();
    }
    let cold_plan = cold.plan(&LogicalPlan::sum(rel_c, item_attr::I_PRICE)).unwrap();
    assert_eq!(cold_plan.route(), Route::InlineVolcano, "cold tiny relation stays inline");
    let cold_sum =
        physical::execute(&cold, &cold_plan, ThreadingPolicy::Single).unwrap().as_sum().unwrap();
    let want = physical::volcano_sum(&cold, rel_c, item_attr::I_PRICE).unwrap();
    assert_eq!(cold_sum.to_bits(), want.to_bits(), "inline route vs volcano");
}

/// More than one morsel of host-routed input goes to the persistent pool;
/// at or below one morsel it stays inline. The pooled route still matches
/// the volcano oracle bit-for-bit.
#[test]
fn host_route_splits_at_one_morsel() {
    let engine = PlainEngine::column_store();
    let rel = engine.create_relation(item_schema()).unwrap();
    let gen = Generator::new(5);
    let n = INLINE_MORSEL_ROWS + 1;
    for i in 0..n {
        engine.insert(rel, &gen.item(i)).unwrap();
    }
    let plan = engine.plan(&LogicalPlan::sum(rel, item_attr::I_PRICE)).unwrap();
    assert_eq!(plan.route(), Route::HostPooledMorsel, "{n} rows exceed one morsel");
    let got =
        physical::execute(&engine, &plan, ThreadingPolicy::multi8()).unwrap().as_sum().unwrap();
    let want = physical::volcano_sum(&engine, rel, item_attr::I_PRICE).unwrap();
    assert_eq!(got.to_bits(), want.to_bits(), "pooled route vs volcano");

    // One morsel exactly: a fresh relation stays inline.
    let small = engine.create_relation(item_schema()).unwrap();
    engine.insert(small, &gen.item(0)).unwrap();
    let plan = engine.plan(&LogicalPlan::sum(small, item_attr::I_PRICE)).unwrap();
    assert_eq!(plan.route(), Route::InlineVolcano);
}

/// An engine with no contiguous column form (pure NSM) must scan
/// value-visit; a DSM engine gets the contiguous-bytes fast path.
#[test]
fn scan_strategy_follows_linearization() {
    let gen = Generator::new(6);
    let nsm = PlainEngine::row_store();
    let rel = nsm.create_relation(item_schema()).unwrap();
    for i in 0..100 {
        nsm.insert(rel, &gen.item(i)).unwrap();
    }
    let plan = nsm.plan(&LogicalPlan::sum(rel, item_attr::I_PRICE)).unwrap();
    assert_eq!(plan.root.strategy, ScanStrategy::ValueVisit, "NSM-only engine visits values");

    let dsm = PlainEngine::column_store();
    let rel = dsm.create_relation(item_schema()).unwrap();
    for i in 0..100 {
        dsm.insert(rel, &gen.item(i)).unwrap();
    }
    let plan = dsm.plan(&LogicalPlan::sum(rel, item_attr::I_PRICE)).unwrap();
    assert_eq!(plan.root.strategy, ScanStrategy::ContiguousBytes, "DSM engine scans bytes");
}

/// Fractured Mirrors advertises per-plan mirror choice: scans are
/// annotated with the DSM replica, materializations with the NSM replica.
#[test]
fn mirrors_plans_pick_a_replica_per_node() {
    let engine = MirrorsEngine::new();
    let rel = engine.create_relation(item_schema()).unwrap();
    let gen = Generator::new(9);
    for i in 0..200 {
        engine.insert(rel, &gen.item(i)).unwrap();
    }
    let scan = engine.plan(&LogicalPlan::sum(rel, item_attr::I_PRICE)).unwrap();
    assert_eq!(scan.root.children[0].mirror, Some("dsm"), "scans read the DSM mirror");
    let mat = engine.plan(&LogicalPlan::Materialize { rel, rows: vec![3, 1, 4, 1, 5] }).unwrap();
    assert_eq!(mat.root.mirror, Some("nsm"), "materialize reads the NSM mirror");
    // And the materialization through the plan honors request order,
    // duplicates included.
    let out = physical::execute(&engine, &mat, ThreadingPolicy::Single).unwrap();
    match out {
        QueryOutput::Records(records) => {
            assert_eq!(records.len(), 5);
            assert_eq!(records[1], records[3], "duplicate positions materialize equal records");
            assert_eq!(records[0][0], Value::Int64(3));
        }
        other => panic!("materialize returned {other:?}"),
    }
}

/// Updates and point reads lower to plans too (the driver has no direct
/// engine dispatch left) and always stay inline.
#[test]
fn oltp_ops_plan_inline_and_execute() {
    let engine = ReferenceEngine::new();
    let rel = engine.create_relation(item_schema()).unwrap();
    let gen = Generator::new(13);
    for i in 0..50 {
        engine.insert(rel, &gen.item(i)).unwrap();
    }
    let upd = engine
        .plan(&LogicalPlan::Update {
            rel,
            row: 7,
            attr: item_attr::I_PRICE,
            value: Value::Float64(123.5),
        })
        .unwrap();
    assert_eq!(upd.route(), Route::InlineVolcano);
    physical::execute(&engine, &upd, ThreadingPolicy::Single).unwrap();

    let read = engine.plan(&LogicalPlan::PointRead { rel, row: 7 }).unwrap();
    assert_eq!(read.route(), Route::InlineVolcano);
    match physical::execute(&engine, &read, ThreadingPolicy::Single).unwrap() {
        QueryOutput::Record(rec) => {
            assert_eq!(rec[item_attr::I_PRICE as usize], Value::Float64(123.5));
        }
        other => panic!("point read returned {other:?}"),
    }
}
