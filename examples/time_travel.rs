//! Historic querying with L-Store: lineage-based updates keep every version
//! reachable, before and after tail/base merges — "the deep integration of
//! historic data handling is a notable feature of the L-STORE storage
//! engine" (Section IV-B4).
//!
//! ```sh
//! cargo run --release --example time_travel
//! ```

use htapg::core::engine::StorageEngine;
use htapg::core::plan::LogicalPlan;
use htapg::core::Value;
use htapg::engines::LStoreEngine;
use htapg::exec::{physical, ThreadingPolicy};
use htapg::workload::driver::load_items;
use htapg::workload::tpcc::{item_attr, Generator};

fn main() {
    let engine = LStoreEngine::new();
    let gen = Generator::new(5);
    let rel = load_items(&engine, &gen, 10_000).unwrap();

    // A little price history for item 42.
    let t0 = engine.now();
    let original = engine.read_field(rel, 42, item_attr::I_PRICE).unwrap();
    println!("t0: item 42 costs {original}");

    engine.update_field(rel, 42, item_attr::I_PRICE, &Value::Float64(10.00)).unwrap();
    let t1 = engine.now();
    engine.update_field(rel, 42, item_attr::I_PRICE, &Value::Float64(12.50)).unwrap();
    let t2 = engine.now();
    engine.update_field(rel, 42, item_attr::I_PRICE, &Value::Float64(8.75)).unwrap();
    let t3 = engine.now();

    println!("history of item 42's price:");
    for (label, ts) in [("t0", t0), ("t1", t1), ("t2", t2), ("t3", t3)] {
        let v = engine.read_field_as_of(rel, 42, item_attr::I_PRICE, ts).unwrap();
        println!("  as of {label}: {v}");
    }

    // The tail now holds three versions; the merge folds them into a fresh
    // compressed base but archives the lineage.
    println!("\ntail before merge: {} entr(ies)", engine.tail_len(rel).unwrap());
    let report = engine.maintain().unwrap();
    println!(
        "merge: {} column merge(s), {} version(s) folded; tail now {}",
        report.merges,
        report.versions_pruned,
        engine.tail_len(rel).unwrap()
    );

    // Time travel still works after the merge.
    println!("history of item 42's price, after the merge:");
    for (label, ts) in [("t0", t0), ("t1", t1), ("t2", t2), ("t3", t3)] {
        let v = engine.read_field_as_of(rel, 42, item_attr::I_PRICE, ts).unwrap();
        println!("  as of {label}: {v}");
    }

    // And current reads are served straight from the read-optimized base.
    let now = engine.read_field(rel, 42, item_attr::I_PRICE).unwrap();
    let plan = engine.plan(&LogicalPlan::sum(rel, item_attr::I_PRICE)).unwrap();
    let sum = physical::execute(&engine, &plan, ThreadingPolicy::Single).unwrap().as_sum().unwrap();
    println!("\ncurrent price: {now}; full price sum: {sum:.2}");
}
