//! Chaos suite: TPC-C-shaped workloads under escalating injected fault
//! rates. Every simulated substrate is shaken by a seeded, deterministic
//! [`FaultPlan`] — disk I/O errors and torn writes, dropped cluster
//! messages and down nodes, transfer failures, spurious OOM, failed kernel
//! launches — and the engines must absorb it:
//!
//! * whenever an engine reports success, its results are identical to the
//!   fault-free run of the same workload;
//! * recovery from a WAL written under injected torn appends loses only
//!   uncommitted work;
//! * every fault sequence is byte-identical across runs of the same seed
//!   (failures print the seed: rerun with `HTAPG_SEED=<seed>`).

use std::sync::Arc;

use htapg::core::calibrate::Calibrated;
use htapg::core::engine::StorageEngine;
use htapg::core::obs::{self, TraceReport, Tracer};
use htapg::core::plan::{DeviceCostProfile, LogicalPlan, Route};
use htapg::core::prng::env_seed;
use htapg::core::wal::{MemStorage, Wal};
use htapg::core::{
    DataType, Layout, LayoutTemplate, Record, RelationId, Schema, ShardingKind, Value,
};
use htapg::device::cluster::{NetSpec, SimCluster};
use htapg::device::disk::DiskSpec;
use htapg::device::{
    DeviceColumnCache, FaultPlan, FaultRates, FaultSite, FaultyStorage, SimDevice,
};
use htapg::engines::{Es2Engine, MirrorsEngine, ReferenceEngine};
use htapg::exec::device_exec::{cached_offload_sum, offload_sum, PipelineConfig};
use htapg::exec::physical::{self, QueryOutput};
use htapg::exec::threading::ThreadingPolicy;
use htapg::exec::ShardedEngine;
use htapg::workload::tpcc::{item_attr, item_schema, Generator};

/// Escalating fault rates the acceptance criteria call for.
const RATES: [f64; 3] = [0.0, 0.01, 0.1];
const DEFAULT_SEED: u64 = 0xC4A0_5EED;

/// `SUM(price)` through the analytic front door: plan, then execute.
/// Every route — device, host, or a device fault degraded to the host —
/// gives the canonical bits, so runs compare by `to_bits`.
fn planned_sum(engine: &dyn StorageEngine, rel: RelationId) -> f64 {
    let plan = engine.plan(&LogicalPlan::sum(rel, item_attr::I_PRICE)).unwrap();
    physical::execute(engine, &plan, ThreadingPolicy::Single).unwrap().as_sum().unwrap()
}

// ---------------------------------------------------------------------
// Workload runners: one deterministic op sequence per engine, returning
// (analytic result, spot record, fault history).
// ---------------------------------------------------------------------

/// Reference engine: inserts, scan-driven delegation to a faulty device,
/// update/maintain/sum rounds. Device faults degrade to host execution.
fn run_reference(seed: u64, p: f64) -> (f64, Record, String) {
    let plan = FaultPlan::seeded(seed, FaultRates::uniform(p));
    let mut dev = SimDevice::with_defaults();
    dev.set_fault_plan(plan.clone());
    let engine = ReferenceEngine::with_device(Arc::new(dev));
    let gen = Generator::new(seed ^ 0x17EA);
    let rel = engine.create_relation(item_schema()).unwrap();
    for i in 0..600 {
        engine.insert(rel, &gen.item(i)).unwrap();
    }
    // Make the price column scan-hot so maintain() delegates it and places
    // a replica on the (faulty) device.
    for _ in 0..30 {
        physical::touch_column(&engine, rel, item_attr::I_PRICE).unwrap();
    }
    engine.maintain().unwrap();
    let mut sum = 0.0;
    for round in 0..5u64 {
        for k in 0..20u64 {
            let row = (round * 97 + k * 13) % 600;
            engine
                .update_field(rel, row, item_attr::I_PRICE, &Value::Float64((row % 10) as f64))
                .unwrap();
        }
        engine.maintain().unwrap();
        for _ in 0..10 {
            sum = planned_sum(&engine, rel);
        }
    }
    let rec = engine.read_record(rel, 123).unwrap();
    (sum, rec, plan.history_string())
}

/// Fractured Mirrors: inserts persist page images onto a faulty disk
/// array; pages stay readable from whichever mirror survives.
fn run_mirrors(seed: u64, p: f64) -> (f64, Vec<Vec<u8>>, String) {
    let plan = FaultPlan::seeded(seed, FaultRates::uniform(p));
    let spec = DiskSpec { page_bytes: 256, ..DiskSpec::default() };
    let engine = MirrorsEngine::with_fault_plan(4, spec, &plan);
    let gen = Generator::new(seed ^ 0x3A11);
    let rel = engine.create_relation(item_schema()).unwrap();
    for i in 0..200 {
        engine.insert(rel, &gen.item(i)).unwrap();
    }
    for k in 0..40u64 {
        engine
            .update_field(rel, (k * 7) % 200, item_attr::I_PRICE, &Value::Float64(k as f64))
            .unwrap();
    }
    let sum = planned_sum(&engine, rel);
    let pages = engine.persisted_pages(rel).unwrap();
    assert!(pages > 0, "workload must complete pages (HTAPG_SEED={seed})");
    let images: Vec<Vec<u8>> =
        (0..pages).map(|pg| engine.read_persisted_page(rel, pg).unwrap()).collect();
    (sum, images, plan.history_string())
}

/// ES²: inserts across a faulty cluster, replication over the lossy
/// interconnect, then a node crash healed from the follower replicas.
fn run_es2(seed: u64, p: f64) -> (f64, Vec<Record>, String) {
    let plan = FaultPlan::seeded(seed, FaultRates::uniform(p));
    let mut cluster = SimCluster::with_defaults(4);
    cluster.set_fault_plan(plan.clone());
    let engine = Es2Engine::with_cluster(Arc::new(cluster), 16);
    let gen = Generator::new(seed ^ 0xE52);
    let rel = engine.create_relation(item_schema()).unwrap();
    for i in 0..120 {
        engine.insert(rel, &gen.item(i)).unwrap();
    }
    engine.replicate(rel).unwrap();
    // Crash node 1; the engine recovers its fragments from the followers.
    plan.mark_node_down(1);
    engine.heal_down_nodes(rel).unwrap();
    let sum = planned_sum(&engine, rel);
    let recs: Vec<Record> = (0..120).map(|row| engine.read_record(rel, row).unwrap()).collect();
    plan.mark_node_up(1);
    (sum, recs, plan.history_string())
}

/// Sharded engine: routed point updates and scatter-gather analytics over
/// a lossy interconnect. Dropped shard RPCs are retried (or fail the whole
/// gather and degrade to the host path) — a partial gather is never
/// returned, so every answer is *bit*-identical to the fault-free run.
fn run_sharded(seed: u64, p: f64) -> (f64, Vec<(i64, f64)>, String) {
    let plan = FaultPlan::seeded(seed, FaultRates::uniform(p));
    let engine = ShardedEngine::with_config(ShardingKind::Hash, 4, 128, NetSpec::default());
    engine.set_fault_plan(plan.clone());
    let gen = Generator::new(seed ^ 0x5A4D);
    let rel = engine.create_relation(item_schema()).unwrap();
    for i in 0..1_000 {
        engine.insert(rel, &gen.item(i)).unwrap();
    }
    let mut sum = 0.0;
    for round in 0..4u64 {
        for k in 0..25u64 {
            let row = (round * 131 + k * 17) % 1_000;
            engine
                .update_field(rel, row, item_attr::I_PRICE, &Value::Float64((row % 7) as f64))
                .unwrap();
        }
        let splan = engine.plan(&LogicalPlan::sum(rel, item_attr::I_PRICE)).unwrap();
        sum =
            physical::execute(&engine, &splan, ThreadingPolicy::Single).unwrap().as_sum().unwrap();
    }
    // Whatever the interconnect dropped, the gather is whole: the answer
    // matches the fragment-granularity volcano oracle bit for bit.
    let oracle =
        physical::sharded_volcano_sum(&engine, rel, item_attr::I_PRICE, None, 128).unwrap();
    assert_eq!(
        sum.to_bits(),
        oracle.to_bits(),
        "partial gather escaped: {sum} vs oracle {oracle} (HTAPG_SEED={seed})"
    );
    let gplan =
        engine.plan(&LogicalPlan::group_sum(rel, item_attr::I_IM_ID, item_attr::I_PRICE)).unwrap();
    let groups = physical::execute(&engine, &gplan, ThreadingPolicy::Single)
        .unwrap()
        .as_groups()
        .unwrap()
        .to_vec();
    (sum, groups, plan.history_string())
}

// ---------------------------------------------------------------------
// (a) Success implies fault-free results, at every escalation step.
// ---------------------------------------------------------------------

#[test]
fn reference_engine_matches_fault_free_run_at_every_rate() {
    let seed = env_seed(DEFAULT_SEED);
    let (want_sum, want_rec, h0) = run_reference(seed, RATES[0]);
    assert!(h0.is_empty(), "rate 0 must inject nothing (HTAPG_SEED={seed})");
    for &p in &RATES[1..] {
        let (sum, rec, history) = run_reference(seed, p);
        assert_eq!(
            sum.to_bits(),
            want_sum.to_bits(),
            "rate {p}: sum {sum} != fault-free {want_sum} (HTAPG_SEED={seed})"
        );
        assert_eq!(rec, want_rec, "rate {p}: record diverged (HTAPG_SEED={seed})");
        if p >= 0.1 {
            assert!(!history.is_empty(), "rate {p} injected nothing (HTAPG_SEED={seed})");
        }
    }
}

#[test]
fn mirrors_engine_matches_fault_free_run_at_every_rate() {
    let seed = env_seed(DEFAULT_SEED);
    let (want_sum, want_images, h0) = run_mirrors(seed, RATES[0]);
    assert!(h0.is_empty(), "rate 0 must inject nothing (HTAPG_SEED={seed})");
    for &p in &RATES[1..] {
        let (sum, images, history) = run_mirrors(seed, p);
        assert_eq!(sum, want_sum, "rate {p}: sum diverged (HTAPG_SEED={seed})");
        assert_eq!(images, want_images, "rate {p}: page images diverged (HTAPG_SEED={seed})");
        if p >= 0.1 {
            assert!(!history.is_empty(), "rate {p} injected nothing (HTAPG_SEED={seed})");
        }
    }
}

#[test]
fn es2_engine_matches_fault_free_run_at_every_rate() {
    let seed = env_seed(DEFAULT_SEED);
    let (want_sum, want_recs, h0) = run_es2(seed, RATES[0]);
    assert!(h0.is_empty(), "rate 0 must inject nothing (HTAPG_SEED={seed})");
    for &p in &RATES[1..] {
        let (sum, recs, _history) = run_es2(seed, p);
        assert_eq!(sum, want_sum, "rate {p}: sum diverged (HTAPG_SEED={seed})");
        assert_eq!(recs, want_recs, "rate {p}: records diverged (HTAPG_SEED={seed})");
    }
}

#[test]
fn sharded_engine_matches_fault_free_run_at_every_rate() {
    let seed = env_seed(DEFAULT_SEED);
    let (want_sum, want_groups, h0) = run_sharded(seed, RATES[0]);
    assert!(h0.is_empty(), "rate 0 must inject nothing (HTAPG_SEED={seed})");
    for &p in &RATES[1..] {
        let (sum, groups, history) = run_sharded(seed, p);
        // Bit-equality, not tolerance: retries and the host degrade path
        // reuse the same fragment-granularity reduction, so a surviving
        // fault changes *nothing* about the answer.
        assert_eq!(
            sum.to_bits(),
            want_sum.to_bits(),
            "rate {p}: sum {sum} != fault-free {want_sum} (HTAPG_SEED={seed})"
        );
        assert_eq!(groups.len(), want_groups.len(), "rate {p} (HTAPG_SEED={seed})");
        for (g, w) in groups.iter().zip(&want_groups) {
            assert_eq!(g.0, w.0, "rate {p}: group keys diverged (HTAPG_SEED={seed})");
            assert_eq!(
                g.1.to_bits(),
                w.1.to_bits(),
                "rate {p}: group {} diverged (HTAPG_SEED={seed})",
                g.0
            );
        }
        if p >= 0.1 {
            assert!(!history.is_empty(), "rate {p} injected nothing (HTAPG_SEED={seed})");
        }
    }
}

// ---------------------------------------------------------------------
// (a') Fault absorption holds when the workload runs on the executor
// pool: injected device faults are retried/degraded on whichever pool
// worker hits them, not just on the main thread.
// ---------------------------------------------------------------------

/// Reference engine under device faults, driven concurrently on the
/// persistent executor pool: three writers own disjoint row ranges, a
/// fourth task runs analytic sums throughout. Returns the final
/// (quiescent) sum and the fault history.
fn run_reference_pooled(seed: u64, p: f64) -> (f64, String) {
    let plan = FaultPlan::seeded(seed, FaultRates::uniform(p));
    let mut dev = SimDevice::with_defaults();
    dev.set_fault_plan(plan.clone());
    let engine = ReferenceEngine::with_device(Arc::new(dev));
    let gen = Generator::new(seed ^ 0x9001);
    let rel = engine.create_relation(item_schema()).unwrap();
    for i in 0..600 {
        engine.insert(rel, &gen.item(i)).unwrap();
    }
    // Delegate the price column so analytic scans hit the faulty device.
    for _ in 0..30 {
        physical::touch_column(&engine, rel, item_attr::I_PRICE).unwrap();
    }
    engine.maintain().unwrap();
    htapg::exec::pool::run_tasks(4, 4, |task| {
        if task < 3 {
            // Writers: each owns rows [task*200, task*200+200); final value
            // per row is fixed, so the quiescent state is deterministic.
            for k in 0..200u64 {
                let row = task * 200 + k;
                engine
                    .update_field(rel, row, item_attr::I_PRICE, &Value::Float64((row % 10) as f64))
                    .unwrap();
            }
        } else {
            // Analytic class: sums must keep succeeding under faults (the
            // device path degrades to host execution, never errors out).
            // Writers revoke delegation, so re-maintain between bursts to
            // keep scans landing on the faulty device.
            for _ in 0..25 {
                engine.maintain().unwrap();
                let s = planned_sum(&engine, rel);
                assert!(s.is_finite());
            }
        }
    });
    engine.maintain().unwrap();
    let sum = planned_sum(&engine, rel);
    (sum, plan.history_string())
}

#[test]
fn pooled_htap_load_matches_fault_free_run_at_every_rate() {
    let seed = env_seed(DEFAULT_SEED);
    let (want_sum, h0) = run_reference_pooled(seed, RATES[0]);
    assert!(h0.is_empty(), "rate 0 must inject nothing (HTAPG_SEED={seed})");
    for &p in &RATES[1..] {
        let (sum, history) = run_reference_pooled(seed, p);
        assert_eq!(
            sum.to_bits(),
            want_sum.to_bits(),
            "rate {p}: pooled sum {sum} != fault-free {want_sum} (HTAPG_SEED={seed})"
        );
        if p >= 0.1 {
            assert!(!history.is_empty(), "rate {p} injected nothing (HTAPG_SEED={seed})");
        }
    }
}

// ---------------------------------------------------------------------
// (b) A WAL written under injected torn appends loses only uncommitted
// work on recovery.
// ---------------------------------------------------------------------

#[test]
fn wal_written_under_torn_appends_recovers_all_committed_work() {
    let seed = env_seed(DEFAULT_SEED);
    let plan = FaultPlan::seeded(seed, FaultRates { wal_append: 0.05, ..FaultRates::none() });
    let wal = Arc::new(Wal::new(FaultyStorage::new(MemStorage::new(), plan.clone())));
    let gen = Generator::new(seed ^ 0x0A1);

    let engine = ReferenceEngine::new();
    engine.attach_wal(wal.clone());
    let rel = engine.create_relation(item_schema()).unwrap();
    for i in 0..300 {
        engine.insert(rel, &gen.item(i)).unwrap();
    }
    for k in 0..50u64 {
        engine.update_field(rel, k % 300, item_attr::I_PRICE, &Value::Float64(k as f64)).unwrap();
    }
    let txn = engine.begin();
    engine.txn_update(rel, &txn, 5, item_attr::I_PRICE, Value::Float64(500.0)).unwrap();
    engine.txn_commit(rel, &txn).unwrap();
    let want_sum = planned_sum(&engine, rel);
    assert!(plan.ops_at(FaultSite::WalAppend) > 0);
    assert!(!plan.history().is_empty(), "no WAL faults injected (HTAPG_SEED={seed})");
    drop(engine); // the crash

    // Every torn append was repaired and retried: the log replays clean and
    // committed work is complete.
    let recovered = ReferenceEngine::new();
    let report = recovered.recover_from(&wal).unwrap();
    assert!(!report.torn_tail, "repaired log must replay clean (HTAPG_SEED={seed})");
    assert_eq!(recovered.row_count(rel).unwrap(), 300);
    assert_eq!(recovered.read_field(rel, 5, item_attr::I_PRICE).unwrap(), Value::Float64(500.0));
    let got = planned_sum(&recovered, rel);
    assert_eq!(got.to_bits(), want_sum.to_bits(), "{got} vs {want_sum} (HTAPG_SEED={seed})");

    // A crash mid-append that nothing can repair: tear into the final
    // Commit frame. Recovery loses exactly that transaction, nothing else.
    let engine2 = ReferenceEngine::new();
    engine2.recover_from(&wal).unwrap();
    engine2.attach_wal(wal.clone());
    let t2 = engine2.begin();
    engine2.txn_update(rel, &t2, 6, item_attr::I_PRICE, Value::Float64(600.0)).unwrap();
    engine2.txn_commit(rel, &t2).unwrap();
    wal.storage().lock().inner_mut().tear_tail(5);

    let recovered2 = ReferenceEngine::new();
    let report2 = recovered2.recover_from(&wal).unwrap();
    assert!(report2.torn_tail, "a torn tail must be reported (HTAPG_SEED={seed})");
    assert_ne!(
        recovered2.read_field(rel, 6, item_attr::I_PRICE).unwrap(),
        Value::Float64(600.0),
        "uncommitted-by-the-log work must be discarded (HTAPG_SEED={seed})"
    );
    let got2 = planned_sum(&recovered2, rel);
    assert_eq!(got2.to_bits(), want_sum.to_bits(), "{got2} vs {want_sum} (HTAPG_SEED={seed})");
}

// ---------------------------------------------------------------------
// (c) Fault sequences are reproducible: same seed, same bytes.
// ---------------------------------------------------------------------

#[test]
fn fault_sequences_are_byte_identical_across_runs_of_one_seed() {
    let seed = env_seed(DEFAULT_SEED);

    let (s1, r1, h1) = run_reference(seed, 0.1);
    let (s2, r2, h2) = run_reference(seed, 0.1);
    assert_eq!(h1, h2, "reference fault sequence diverged (HTAPG_SEED={seed})");
    assert_eq!(r1, r2);
    assert_eq!(s1.to_bits(), s2.to_bits(), "{s1} vs {s2} (HTAPG_SEED={seed})");

    let (m1, i1, mh1) = run_mirrors(seed, 0.1);
    let (m2, i2, mh2) = run_mirrors(seed, 0.1);
    assert_eq!(mh1, mh2, "mirrors fault sequence diverged (HTAPG_SEED={seed})");
    assert_eq!((m1, i1.len()), (m2, i2.len()));

    let (e1, c1, eh1) = run_es2(seed, 0.1);
    let (e2, c2, eh2) = run_es2(seed, 0.1);
    assert_eq!(eh1, eh2, "es2 fault sequence diverged (HTAPG_SEED={seed})");
    assert_eq!((e1, c1.len()), (e2, c2.len()));

    // A different seed shakes a different sequence out of the same ops.
    let (_, _, other) = run_mirrors(seed ^ 0x5EED_CAFE, 0.1);
    assert_ne!(mh1, other, "distinct seeds must produce distinct sequences");
}

#[test]
fn sharded_fault_sequences_replay_byte_identically() {
    let seed = env_seed(DEFAULT_SEED);
    // Shard execution is parallel, but the cluster fault plan is only
    // rolled sequentially in canonical node order — so the injected
    // sequence is a function of the seed alone, not pool interleaving.
    let (s1, g1, h1) = run_sharded(seed, 0.1);
    let (s2, g2, h2) = run_sharded(seed, 0.1);
    assert_eq!(h1, h2, "sharded fault sequence diverged (HTAPG_SEED={seed})");
    assert_eq!(s1.to_bits(), s2.to_bits(), "(HTAPG_SEED={seed})");
    assert_eq!(g1, g2, "(HTAPG_SEED={seed})");
    let (_, _, other) = run_sharded(seed ^ 0x5EED_CAFE, 0.1);
    assert_ne!(h1, other, "distinct seeds must produce distinct sequences");
}

// ---------------------------------------------------------------------
// (e) Faults × calibration: a device route that degrades to the host
// fallback must charge its residual to the route that actually ran. The
// device-pipelined key stays untouched (no poisoning), the host key
// absorbs every observation, and the trace proves the attribution: each
// aggregate span carries `fallback=host` and its extracted residual
// names the host route.
// ---------------------------------------------------------------------

#[test]
fn device_faults_do_not_poison_calibration() {
    let seed = env_seed(DEFAULT_SEED);
    // Certain transfer faults: every device upload fails terminally, so
    // every planned device route degrades to the host fallback.
    let fault_plan =
        FaultPlan::seeded(seed, FaultRates { device_transfer: 1.0, ..FaultRates::none() });
    let mut dev = SimDevice::with_defaults();
    dev.set_fault_plan(fault_plan.clone());
    // A lying-cheap device profile keeps the uncalibrated planner picking
    // the device route on every round.
    let lying = DeviceCostProfile {
        pcie_bandwidth: 1.0e15,
        pcie_latency_ns: 1,
        kernel_launch_ns: 1,
        mem_bandwidth: 1.0e15,
        clock_hz: 1.0e15,
        lanes: 640,
    };
    let engine = Calibrated::new(Box::new(ReferenceEngine::with_device(Arc::new(dev))))
        .with_device_profile(lying);
    let gen = Generator::new(seed ^ 0xCA1);
    let rel = engine.create_relation(item_schema()).unwrap();
    for i in 0..100 {
        engine.insert(rel, &gen.item(i)).unwrap();
    }
    let logical = LogicalPlan::sum(rel, item_attr::I_PRICE);
    let oracle = physical::volcano_sum(&engine, rel, item_attr::I_PRICE).unwrap();

    let clock = engine.trace_clock().expect("reference engine has a ledger clock");
    let tracer = Tracer::new(clock);
    // The tracer is process-global and this suite's other tests plan and
    // execute concurrently: label this thread's spans to tell them apart.
    const PROCESS: &str = "chaos.calibration";
    let _process = obs::process_scope(PROCESS);
    obs::install(tracer.clone());
    const ROUNDS: u64 = 6;
    for round in 0..ROUNDS {
        let plan = engine.plan(&logical).unwrap();
        assert_eq!(
            plan.route(),
            Route::DevicePipelined,
            "round {round}: the lying profile must keep routing to the device (HTAPG_SEED={seed})"
        );
        let out = physical::execute_observed(&engine, &plan, ThreadingPolicy::Single).unwrap();
        assert_eq!(
            out.executed_route,
            Route::InlineVolcano,
            "round {round}: certain transfer faults must degrade to the host (HTAPG_SEED={seed})"
        );
        assert!(!out.diverged, "a fallback never diverges from its own plan (HTAPG_SEED={seed})");
        match out.output {
            QueryOutput::Sum(x) => assert_eq!(
                x.to_bits(),
                oracle.to_bits(),
                "round {round}: degraded answer diverged (HTAPG_SEED={seed})"
            ),
            other => panic!("sum plan returned {other:?}"),
        }
    }
    obs::uninstall();
    assert!(
        fault_plan.ops_at(FaultSite::DeviceTransfer) > 0,
        "the workload never touched the faulty transfer path (HTAPG_SEED={seed})"
    );

    // Calibration attribution: the device key was never blamed for the
    // fault-degraded rounds; the host key absorbed every observation and
    // its factor stayed sane.
    let profiles = engine.profiles();
    assert_eq!(
        profiles.observations("plan.aggregate.sum", "device-pipelined"),
        0,
        "fault-degraded rounds must not poison the device route (HTAPG_SEED={seed})"
    );
    assert_eq!(profiles.observations("plan.aggregate.sum", "inline-volcano"), ROUNDS);
    let factor = profiles.learned_factor("plan.aggregate.sum", "inline-volcano").unwrap();
    assert!(
        factor.is_finite() && factor > 0.0,
        "fallback residuals produced a degenerate factor {factor} (HTAPG_SEED={seed})"
    );

    // The trace agrees: every aggregate span records the degradation, and
    // the extracted residuals name the route that actually executed.
    let own = tracer.drain().into_iter().filter(|span| span.process == PROCESS).collect();
    let report = TraceReport::from_spans(own);
    let agg_spans: Vec<_> =
        report.nodes.iter().filter(|n| n.record.name == "plan.aggregate.sum").collect();
    assert_eq!(
        agg_spans.len(),
        ROUNDS as usize,
        "one aggregate span per round (HTAPG_SEED={seed})"
    );
    for node in &agg_spans {
        assert!(
            node.record.args.iter().any(|(k, v)| *k == "fallback" && v == "host"),
            "aggregate span missing fallback=host: {:?} (HTAPG_SEED={seed})",
            node.record.args
        );
    }
    let agg_residuals: Vec<_> =
        report.residuals().into_iter().filter(|r| r.op == "plan.aggregate.sum").collect();
    assert_eq!(agg_residuals.len(), ROUNDS as usize);
    for r in &agg_residuals {
        assert_eq!(
            r.route, "inline-volcano",
            "residual attributed to a route that never ran (HTAPG_SEED={seed})"
        );
    }
}

// ---------------------------------------------------------------------
// (d) Transfer faults mid-pipeline: the device column cache never keeps
// a phantom entry, never leaks device memory, and retried successes are
// bit-identical to the fault-free answer.
// ---------------------------------------------------------------------

#[test]
fn transfer_faults_mid_pipeline_leave_the_cache_consistent() {
    let seed = env_seed(DEFAULT_SEED);
    let s = Schema::of(&[("price", DataType::Float64)]);
    let mut l = Layout::new(&s, LayoutTemplate::dsm_emulated(&s)).unwrap();
    for i in 0..40_000u64 {
        l.append(&s, &vec![Value::Float64((i % 997) as f64 * 0.5)]).unwrap();
    }
    // Small chunks so a single query issues many transfers — plenty of
    // places for a fault to land mid-pipeline.
    let cfg = PipelineConfig { chunk_rows: 4 * 1024 };
    let clean = Arc::new(SimDevice::with_defaults());
    let (expect, _, _) = offload_sum(&clean, &l, 0, DataType::Float64).unwrap();

    // Certain transfer faults: RetryPolicy::default() gives four attempts
    // and all of them lose, so the upload must fail terminally — handing
    // back a transient error, freeing the staging buffer, and recording
    // no phantom cache entry.
    let mut dev = SimDevice::with_defaults();
    dev.set_fault_plan(FaultPlan::seeded(
        seed,
        FaultRates { device_transfer: 1.0, ..FaultRates::none() },
    ));
    let cache = DeviceColumnCache::new(Arc::new(dev));
    let err = cached_offload_sum(&cache, &l, 0, DataType::Float64, 7, 1, cfg).unwrap_err();
    assert!(err.is_transient(), "terminal transfer fault: {err} (HTAPG_SEED={seed})");
    assert!(cache.is_empty(), "no phantom entry after a failed upload (HTAPG_SEED={seed})");
    assert!(!cache.contains(7, 0, 1));
    assert_eq!(cache.device().used_bytes(), 0, "staging buffer freed (HTAPG_SEED={seed})");

    // 30% transfer and launch faults: retries absorb most (a terminal
    // failure needs four losses in a row, p = 0.3^4 per op). Every success
    // must be bit-identical to the fault-free answer, and after every call
    // — success or failure, cold, warm, or freshly invalidated — the cache
    // must account for exactly the bytes the device says are in use.
    let mut dev = SimDevice::with_defaults();
    dev.set_fault_plan(FaultPlan::seeded(
        seed ^ 0x9E37_79B9,
        FaultRates { device_transfer: 0.3, kernel_launch: 0.3, ..FaultRates::none() },
    ));
    let cache = DeviceColumnCache::new(Arc::new(dev));
    let mut ok = 0u32;
    for round in 0..24u64 {
        // A "write wave" every eight queries: the version bump invalidates
        // the resident replica so the next query re-runs the pipeline.
        let version = 1 + round / 8;
        match cached_offload_sum(&cache, &l, 0, DataType::Float64, 7, version, cfg) {
            Ok(sum) => {
                ok += 1;
                assert_eq!(
                    sum.to_bits(),
                    expect.to_bits(),
                    "round {round} diverged (HTAPG_SEED={seed})"
                );
            }
            Err(e) => {
                assert!(e.is_transient(), "round {round}: {e} (HTAPG_SEED={seed})");
            }
        }
        assert_eq!(
            cache.device().used_bytes(),
            cache.resident_bytes(),
            "cache out of sync with device memory after round {round} (HTAPG_SEED={seed})"
        );
    }
    assert!(ok >= 12, "retries should absorb most faults: {ok}/24 (HTAPG_SEED={seed})");
}
