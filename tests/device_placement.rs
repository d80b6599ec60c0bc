//! Device placement end to end (requirement 3 of the reference design and
//! the CoGaDB/GPUTx mechanics): capacity walls, all-or-nothing fallback,
//! ledger accounting, and host/device answer agreement.

use std::sync::Arc;

use htapg::core::engine::StorageEngine;
use htapg::core::plan::{LogicalPlan, Route, ScanStrategy};
use htapg::core::{AttrId, DataType, Error, RelationId, Schema, Value};
use htapg::device::{DeviceSpec, SimDevice};
use htapg::engines::gputx::TxOp;
use htapg::engines::{CogadbEngine, GputxEngine, ReferenceEngine};
use htapg::exec::physical::{self, group_sum_host, QueryOutput};
use htapg::exec::threading::ThreadingPolicy;
use htapg::workload::driver::load_items;
use htapg::workload::tpcc::{item_attr, Generator};

/// The host's canonical reduction of a column, read through the engine's
/// contiguous scan (a column scan, not per-row reads).
fn host_sum(engine: &dyn StorageEngine, rel: RelationId, attr: AttrId) -> f64 {
    let values = physical::collect_f64(engine, rel, attr, ScanStrategy::ContiguousBytes).unwrap();
    physical::canonical_sum(&values)
}

#[test]
fn cogadb_placement_respects_capacity_and_answers_match() {
    let gen = Generator::new(31);
    // Device fits exactly one of the two hot 8-byte columns of 40k rows
    // (320 kB each): give it 512 kB.
    let spec = DeviceSpec { global_mem_bytes: 512 * 1024, ..DeviceSpec::default() };
    let engine = CogadbEngine::with_device(Arc::new(SimDevice::new(0, spec)));
    let rel = load_items(&engine, &gen, 40_000).unwrap();
    // Heat price more than id.
    for _ in 0..10 {
        physical::touch_column(&engine, rel, item_attr::I_PRICE).unwrap();
    }
    for _ in 0..2 {
        physical::touch_column(&engine, rel, item_attr::I_ID).unwrap();
    }
    let report = engine.maintain().unwrap();
    assert_eq!(report.fragments_moved, 1, "only the hottest column fits");
    assert_eq!(engine.device_resident(rel).unwrap(), vec![item_attr::I_PRICE]);
    // The placed copy answers identically.
    engine.place_column(rel, item_attr::I_PRICE).unwrap();
    let host = host_sum(&engine, rel, item_attr::I_PRICE);
    let mut saw_gpu = false;
    for _ in 0..10 {
        let (sum, placement) = engine.sum_column_placed(rel, item_attr::I_PRICE).unwrap();
        assert_eq!(sum.to_bits(), host.to_bits(), "{placement:?}");
        saw_gpu |= placement == htapg::engines::cogadb::Placement::Gpu;
    }
    assert!(saw_gpu, "the trained scheduler should try the device");
}

#[test]
fn gputx_relations_live_and_die_on_the_device() {
    let gen = Generator::new(37);
    let engine = GputxEngine::new();
    let rel = engine.create_relation(htapg::workload::tpcc::item_schema()).unwrap();
    let records: Vec<_> = (0..5_000).map(|i| gen.item(i)).collect();
    engine.bulk_insert(rel, &records).unwrap();
    let used = engine.device().used_bytes();
    assert!(used >= 5_000 * 28, "columns resident on device: {used}");
    // Bulk transactions with the result pool in host memory.
    let pool =
        engine.execute_batch(rel, &[TxOp::Read { row: 0 }, TxOp::Read { row: 4_999 }]).unwrap();
    assert_eq!(pool.len(), 2);
    assert_eq!(pool[0], gen.item(0));
    assert_eq!(pool[1], gen.item(4_999));
    // Reads charged the PCIe for the result pool copy-out.
    assert!(engine.device().ledger().snapshot().bytes_from_device > 0);
}

#[test]
fn gputx_oom_when_relation_exceeds_device() {
    let gen = Generator::new(41);
    let engine = GputxEngine::with_spec(DeviceSpec::tiny()); // 1 MB
    let rel = engine.create_relation(htapg::workload::tpcc::item_schema()).unwrap();
    // 28 B/row × 100k rows ≈ 2.8 MB > 1 MB.
    let records: Vec<_> = (0..100_000).map(|i| gen.item(i)).collect();
    let err = engine.bulk_insert(rel, &records).unwrap_err();
    assert!(matches!(err, Error::DeviceOutOfMemory { .. }), "got {err}");
}

#[test]
fn reference_engine_mixed_location_is_consistent_after_updates() {
    let gen = Generator::new(43);
    let engine = ReferenceEngine::new();
    let rel = load_items(&engine, &gen, 10_000).unwrap();
    for _ in 0..30 {
        physical::touch_column(&engine, rel, item_attr::I_PRICE).unwrap();
    }
    engine.maintain().unwrap();
    assert!(engine.device_resident(rel).unwrap().contains(&item_attr::I_PRICE));
    let d1 = engine.offload_sum(rel, item_attr::I_PRICE, None).unwrap();
    let h1 = host_sum(&engine, rel, item_attr::I_PRICE);
    assert_eq!(d1.to_bits(), h1.to_bits());
    // Update → stale replica → refresh → agree again.
    engine.update_field(rel, 3, item_attr::I_PRICE, &Value::Float64(1000.0)).unwrap();
    let ev = engine.column_evidence(rel, item_attr::I_PRICE).unwrap();
    assert!(!ev.device_warm && ev.stale_rows == 1, "stale replica unusable as fresh");
    engine.maintain().unwrap();
    assert!(engine.column_evidence(rel, item_attr::I_PRICE).unwrap().device_warm, "refreshed");
    let d2 = engine.offload_sum(rel, item_attr::I_PRICE, None).unwrap();
    let h2 = host_sum(&engine, rel, item_attr::I_PRICE);
    assert_eq!(d2.to_bits(), h2.to_bits());
    assert!(h2 > h1, "the big update must be reflected");
}

#[test]
fn transfer_and_kernel_costs_are_separated_in_the_ledger() {
    // The mechanism behind Fig. 2 panels 3 vs 4.
    let gen = Generator::new(47);
    let device = Arc::new(SimDevice::with_defaults());
    let pair = htapg_bench_support_build(&gen, 100_000);
    let before = device.ledger().snapshot();
    let (_, transfer_ns, kernel_ns) = htapg::exec::device_exec::offload_sum(
        &device,
        &pair,
        item_attr::I_PRICE,
        htapg::core::DataType::Float64,
    )
    .unwrap();
    let delta = device.ledger().snapshot().since(&before);
    assert_eq!(delta.transfer_ns, transfer_ns);
    assert_eq!(delta.kernel_ns, kernel_ns);
    // 800 kB over 6 GB/s PCIe ≫ 800 kB over 80 GB/s device memory.
    assert!(transfer_ns > kernel_ns * 3, "transfer {transfer_ns} vs kernel {kernel_ns}");
}

fn htapg_bench_support_build(gen: &Generator, n: u64) -> htapg::core::Layout {
    let schema = htapg::workload::tpcc::item_schema();
    let mut layout =
        htapg::core::Layout::new(&schema, htapg::core::LayoutTemplate::dsm_emulated(&schema))
            .unwrap();
    for i in 0..n {
        layout.append(&schema, &gen.item(i)).unwrap();
    }
    layout
}

#[test]
fn device_group_sum_rejects_non_integer_keys() {
    // Text and Float64 key columns: every device group-sum refuses them
    // with the host route's typed error instead of dropping their rows.
    let schema =
        Schema::of(&[("t", DataType::Text(4)), ("f", DataType::Float64), ("v", DataType::Float64)]);
    let load = |e: &dyn StorageEngine| {
        let rel = e.create_relation(schema.clone()).unwrap();
        for i in 0..100 {
            let rec =
                vec![Value::Text("k".into()), Value::Float64(i as f64 / 4.0), (i as f64).into()];
            e.insert(rel, &rec).unwrap();
        }
        rel
    };
    let cogadb = CogadbEngine::new();
    // CoGaDB groups only over a resident value replica: place it first.
    cogadb.place_column(load(&cogadb), 2).unwrap();
    let (gputx, reference) = (GputxEngine::new(), ReferenceEngine::new());
    load(&gputx);
    load(&reference);
    for e in [&gputx as &dyn StorageEngine, &reference, &cogadb] {
        for (key, got) in [(0, "text"), (1, "float64")] {
            let want = Error::NonNumericAggregate { attr: key, got };
            assert_eq!(e.offload_group_sum(0, key, 2), Err(want.clone()), "{}", e.name());
            let host = group_sum_host(e, 0, key, 2, ScanStrategy::ValueVisit, None);
            assert_eq!(host, Err(want), "{}", e.name());
        }
    }
}

#[test]
fn device_group_sum_degrades_when_its_gather_does_not_fit() {
    // A 70k-row value replica (560 kB) fits the 1 MB device; gathering its
    // rows into group order needs as much again. The planned group-sum
    // degrades to the host with the host's bits and leaves only the
    // replica resident, which still serves sums.
    let engine = ReferenceEngine::with_device(Arc::new(SimDevice::new(0, DeviceSpec::tiny())));
    let schema = Schema::of(&[("k", DataType::Int64), ("v", DataType::Float64)]);
    let rel = engine.create_relation(schema).unwrap();
    for i in 0..70_000 {
        engine.insert(rel, &vec![Value::Int64(i % 10), Value::Float64(i as f64 * 0.37)]).unwrap();
    }
    let mut plan = engine.plan(&LogicalPlan::group_sum(rel, 0, 1)).unwrap();
    plan.root.route = Route::DevicePipelined;
    let out = physical::execute_observed(&engine, &plan, ThreadingPolicy::Single).unwrap();
    assert_eq!(out.executed_route, Route::InlineVolcano, "the gather cannot fit");
    let QueryOutput::Groups(got) = out.output else { panic!("not a group-sum") };
    let want = physical::volcano_group_sum(&engine, rel, 0, 1).unwrap();
    let bits = |g: &[(i64, f64)]| g.iter().map(|&(k, v)| (k, v.to_bits())).collect::<Vec<_>>();
    assert_eq!(bits(&got), bits(&want));
    assert_eq!(engine.device().used_bytes(), 560_000, "only the replica stays resident");
    let sum = engine.offload_sum(rel, 1, None).unwrap();
    assert_eq!(sum.to_bits(), host_sum(&engine, rel, 1).to_bits());
}
