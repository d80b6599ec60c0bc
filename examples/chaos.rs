//! Chaos demo: shake every simulated substrate with a seeded [`FaultPlan`]
//! and watch the engines absorb the faults.
//!
//! ```sh
//! cargo run --release --example chaos -- [rate]          # default 0.1
//! HTAPG_SEED=7 cargo run --release --example chaos -- 0.2
//! ```

use std::sync::Arc;

use htapg::core::engine::StorageEngine;
use htapg::core::plan::{LogicalPlan, Route};
use htapg::core::prng::env_seed;
use htapg::core::RelationId;
use htapg::device::cluster::SimCluster;
use htapg::device::disk::DiskSpec;
use htapg::device::{FaultPlan, FaultRates, FaultSite, SimDevice};
use htapg::engines::{Es2Engine, MirrorsEngine, ReferenceEngine};
use htapg::exec::{physical, ThreadingPolicy};
use htapg::workload::tpcc::{item_attr, item_schema, Generator};

/// A planned `SUM(price)` and the route that actually ran: a device fault
/// degrades the device route to the host, with the same bits.
fn planned_sum(engine: &dyn StorageEngine, rel: RelationId) -> (f64, Route) {
    let plan = engine.plan(&LogicalPlan::sum(rel, item_attr::I_PRICE)).expect("plan");
    let out = physical::execute_observed(engine, &plan, ThreadingPolicy::Single).expect("sum");
    (out.output.as_sum().expect("a sum"), out.executed_route)
}

fn mirrors_run(seed: u64, rate: f64) -> (f64, String) {
    let plan = FaultPlan::seeded(seed, FaultRates::uniform(rate));
    let spec = DiskSpec { page_bytes: 256, ..DiskSpec::default() };
    let engine = MirrorsEngine::with_fault_plan(4, spec, &plan);
    let gen = Generator::new(seed);
    let rel = engine.create_relation(item_schema()).expect("create");
    for i in 0..200 {
        engine.insert(rel, &gen.item(i)).expect("insert");
    }
    let (sum, _) = planned_sum(&engine, rel);
    (sum, plan.history_string())
}

fn main() {
    let rate: f64 = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(0.1);
    let seed = env_seed(0xC4A0_5EED);
    println!("chaos demo — seed {seed:#x}, fault rate {rate}");

    // Fractured Mirrors on a faulty disk array: a page is durable once one
    // stripe holds it, so single-spindle faults cost redundancy, not data.
    let (sum, history) = mirrors_run(seed, rate);
    let (sum0, _) = mirrors_run(seed, 0.0);
    println!("\n[mirrors] price sum under faults = {sum} (fault-free {sum0})");
    let n = history.lines().count();
    println!("[mirrors] {n} faults injected:");
    for line in history.lines().take(8) {
        println!("    {line}");
    }
    if n > 8 {
        println!("    … {} more", n - 8);
    }
    assert_eq!(sum, sum0, "fault-degraded run must still answer correctly");

    // Same seed ⇒ byte-identical fault sequence.
    let (_, replay) = mirrors_run(seed, rate);
    assert_eq!(history, replay);
    println!("[mirrors] same seed replays a byte-identical fault sequence ✓");

    // Reference engine: device faults degrade placement/offload to the host.
    let plan = FaultPlan::seeded(seed, FaultRates::uniform(rate));
    let mut dev = SimDevice::with_defaults();
    dev.set_fault_plan(plan.clone());
    let engine = ReferenceEngine::with_device(Arc::new(dev));
    let gen = Generator::new(seed);
    let rel = engine.create_relation(item_schema()).expect("create");
    for i in 0..600 {
        engine.insert(rel, &gen.item(i)).expect("insert");
    }
    for _ in 0..30 {
        physical::touch_column(&engine, rel, item_attr::I_PRICE).expect("scan");
    }
    engine.maintain().expect("maintain survives device faults");
    let (sum, route) = planned_sum(&engine, rel);
    let oracle = physical::volcano_sum(&engine, rel, item_attr::I_PRICE).expect("oracle");
    let ops = plan.ops_at(FaultSite::DeviceTransfer)
        + plan.ops_at(FaultSite::DeviceAlloc)
        + plan.ops_at(FaultSite::KernelLaunch);
    println!(
        "\n[reference] planned sum = {sum} on {}: {ops} device ops rolled, {} faulted",
        route.label(),
        plan.history_string().lines().count()
    );
    assert_eq!(sum.to_bits(), oracle.to_bits(), "every route gives the oracle's bits");

    // ES²: replicate across a lossy interconnect, crash a node, heal.
    let plan = FaultPlan::seeded(seed, FaultRates::uniform(rate));
    let mut cluster = SimCluster::with_defaults(4);
    cluster.set_fault_plan(plan.clone());
    let engine = Es2Engine::with_cluster(Arc::new(cluster), 16);
    let gen = Generator::new(seed);
    let rel = engine.create_relation(item_schema()).expect("create");
    for i in 0..120 {
        engine.insert(rel, &gen.item(i)).expect("insert");
    }
    engine.replicate(rel).expect("replicate");
    plan.mark_node_down(1);
    let healed = engine.heal_down_nodes(rel).expect("heal");
    plan.mark_node_up(1);
    let rec = engine.read_record(rel, 7).expect("read after heal");
    println!("\n[es2] node 1 crashed; {healed} fragments healed from replicas");
    println!("[es2] row 7 readable after heal: {:?}", rec[item_attr::I_PRICE as usize]);
    assert_eq!(rec[item_attr::I_PRICE as usize], gen.item(7)[item_attr::I_PRICE as usize]);

    println!("\nall engines absorbed rate-{rate} faults; rerun with HTAPG_SEED={seed}");
}
