//! Quickstart: the reference HTAP CPU/GPU engine end to end.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use htapg::core::engine::StorageEngine;
use htapg::core::plan::{LogicalPlan, Route};
use htapg::core::Value;
use htapg::engines::ReferenceEngine;
use htapg::exec::{physical, ThreadingPolicy};
use htapg::taxonomy::reference;
use htapg::workload::tpcc::{item_attr, item_schema, Generator};

fn main() {
    // 1. Create the engine and a TPC-C-shaped item relation.
    let engine = ReferenceEngine::new();
    let rel = engine.create_relation(item_schema()).expect("create relation");

    // 2. Load data.
    let gen = Generator::new(42);
    let n = 50_000u64;
    for i in 0..n {
        engine.insert(rel, &gen.item(i)).expect("insert");
    }
    println!("loaded {n} items");

    // 3. Record-centric access (the OLTP side).
    let record = engine.read_record(rel, 4711).expect("point read");
    println!("item 4711 = {record:?}");

    // Analytics have one front door: plan a logical query (the cost-based
    // router picks host or device), then execute the plan.
    let price_sum = LogicalPlan::sum(rel, item_attr::I_PRICE);
    let run = |logical: &LogicalPlan| {
        let plan = engine.plan(logical).expect("plan");
        let out = physical::execute(&engine, &plan, ThreadingPolicy::Single).expect("execute");
        (plan.route(), out.as_sum().expect("a sum"))
    };

    // 4. A snapshot-isolated transaction.
    let txn = engine.begin();
    engine
        .txn_update(rel, &txn, 4711, item_attr::I_PRICE, Value::Float64(99.99))
        .expect("transactional update");
    // Uncommitted: invisible to the analytic snapshot below.
    let snapshot_ts = engine.txn_manager().now();
    let sum_before = engine.sum_column_as_of(rel, item_attr::I_PRICE, snapshot_ts).unwrap();
    engine.txn_commit(rel, &txn).expect("commit");
    let (_, sum_after) = run(&price_sum);
    println!("price sum before commit: {sum_before:.2}, after: {sum_after:.2}");

    // 5. Attribute-centric access (the OLAP side) drives adaptation:
    //    after enough scans, `maintain` delegates the price column to the
    //    analytic layout and places it in simulated device memory.
    for _ in 0..30 {
        run(&price_sum);
    }
    let report = engine.maintain().expect("maintain");
    println!(
        "maintenance: {} layout(s) reorganized, {} fragment(s) moved to device, \
         {} version(s) merged",
        report.layouts_reorganized, report.fragments_moved, report.versions_pruned
    );
    println!("delegated columns: {:?}", engine.delegated(rel).unwrap());
    println!("device-resident columns: {:?}", engine.device_resident(rel).unwrap());

    // 6. The same planned sum now routes to the resident replica on the
    //    simulated GPU, with the host's bits.
    let (route, device_sum) = run(&price_sum);
    assert_eq!(route, Route::DevicePipelined, "a warm replica routes to the device");
    assert_eq!(device_sum.to_bits(), sum_after.to_bits(), "every route gives the same bits");
    println!("{} sum: {device_sum:.2} (host said {sum_after:.2})", route.label());
    let snap = engine.device().ledger().snapshot();
    println!(
        "device ledger: {} kernel launches, {:.3} ms kernel time, {:.3} ms transfers",
        snap.kernel_launches,
        snap.kernel_ns as f64 / 1e6,
        snap.transfer_ns as f64 / 1e6
    );

    // 7. And the engine satisfies all six Section IV-C requirements.
    let checklist = reference::check(&engine.classification());
    println!("\n{}", checklist.render());
}
