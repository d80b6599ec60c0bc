//! Delta-shipping update propagation: end-to-end guarantees of the
//! per-column delta log, the device-side merge, and the staleness-priced
//! planner routes.
//!
//! * a merged replica is **bit-identical** to a fresh upload of the
//!   updated column, across randomized write patterns (duplicate rows,
//!   multi-commit logs, chunk-boundary-crossing delta counts) and both
//!   transports;
//! * a faulted delta transfer never leaves a partially-merged replica
//!   visible — the replica stays at its old version with the log intact,
//!   a retry converges, and only fully-shipped chunks are ever charged to
//!   the ledger;
//! * the planner prices the three routes the paper's storage engine needs:
//!   small delta ⇒ merge at `stale_rows * 16` PCIe bytes, huge delta ⇒
//!   full re-upload at `rows * 8`, cold column ⇒ routing unchanged by the
//!   delta machinery;
//! * the reference engine re-packs a replica whose log outgrew half the
//!   column from its snapshot, bit-identical to the Volcano sum.

use std::sync::Arc;

use htapg::core::costmodel::CacheSpec;
use htapg::core::engine::StorageEngine;
use htapg::core::plan::{
    build_plan, ColumnEvidence, DeviceCostProfile, EngineCapabilities, LogicalPlan, PlannerContext,
    Route, TableEvidence, DELTA_PAIR_BYTES,
};
use htapg::core::prng::{check_cases, Prng};
use htapg::core::{DataType, Schema, Value};
use htapg::device::kernels;
use htapg::device::{DeltaTransport, DeviceColumnCache, FaultPlan, FaultRates, SimDevice};
use htapg::engines::ReferenceEngine;
use htapg::exec::physical;
use htapg::taxonomy::survey;

const REL: u32 = 7;
const ATTR: u16 = 1;

fn pack(values: &[f64]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// Upload `values` as the cached replica of `(REL, ATTR)` at `version`.
fn place(cache: &DeviceColumnCache, device: &SimDevice, values: &[f64], version: u64) {
    cache
        .get_or_insert_with(REL, ATTR, version, values.len() as u64, false, || {
            device.upload(&pack(values))
        })
        .expect("initial placement");
}

/// Apply a randomized multi-commit write history to both the host-side
/// model (`values`) and the cache's delta log, returning the final
/// version. Duplicate rows within and across commits exercise coalescing;
/// delta counts above 4096 cross the staging-chunk boundary.
fn random_history(rng: &mut Prng, values: &mut [f64], cache: &DeviceColumnCache) -> u64 {
    let rows = values.len();
    let mut version = 1u64;
    for _ in 0..rng.gen_range(1usize..4) {
        version += 1;
        for _ in 0..rng.gen_range(1usize..6000) {
            let row = rng.gen_range(0usize..rows);
            let val = rng.gen_range(-1e6..1e6);
            values[row] = val;
            cache.append_delta(REL, ATTR, row as u64, val, version).expect("append delta");
        }
    }
    version
}

#[test]
fn merged_replica_is_bit_identical_to_fresh_upload() {
    check_cases("merged_replica_is_bit_identical_to_fresh_upload", 24, 0xDE17_A001, |case, rng| {
        let rows = rng.gen_range(64usize..8192);
        let device = Arc::new(SimDevice::with_defaults());
        let cache = DeviceColumnCache::new(device.clone());
        let mut values: Vec<f64> = (0..rows).map(|_| rng.gen_range(-1e6..1e6)).collect();
        place(&cache, &device, &values, 1);
        let version = random_history(rng, &mut values, &cache);
        let transport =
            if case % 2 == 0 { DeltaTransport::Pcie } else { DeltaTransport::DeviceLocal };
        let col = cache.merge_deltas(REL, ATTR, version, transport).expect("merge");
        let merged = device.download(col.buf).expect("download");
        assert_eq!(merged, pack(&values), "merged replica must equal a fresh upload bit-for-bit");
        assert!(cache.contains(REL, ATTR, version), "replica stamped fresh after the merge");
        // A second merge at the same version is a free hit.
        let again = cache.merge_deltas(REL, ATTR, version, transport).expect("idempotent");
        assert_eq!(again.buf, col.buf);
    });
}

#[test]
fn delta_bytes_are_charged_exactly_once_per_pair() {
    let device = Arc::new(SimDevice::with_defaults());
    let cache = DeviceColumnCache::new(device.clone());
    let values: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
    place(&cache, &device, &values, 1);
    // 5000 distinct rows: two PCIe staging chunks (4096 + 904).
    for row in 0..5_000u64 {
        cache.append_delta(REL, ATTR, row, -1.0, 2).unwrap();
    }
    let before = device.ledger().snapshot();
    cache.merge_deltas(REL, ATTR, 2, DeltaTransport::Pcie).unwrap();
    let d = device.ledger().snapshot().since(&before);
    assert_eq!(d.delta_bytes, 5_000 * DELTA_PAIR_BYTES);
    assert_eq!(d.bytes_to_device, 5_000 * DELTA_PAIR_BYTES, "delta bytes are PCIe bytes");
    assert_eq!(d.delta_merges, 1);
}

#[test]
fn faulted_delta_transfers_never_publish_a_partial_merge() {
    check_cases(
        "faulted_delta_transfers_never_publish_a_partial_merge",
        8,
        0xDE17_A002,
        |_, rng| {
            let rows = rng.gen_range(256usize..4096);
            // Faults only at the delta path's two device sites; rates high
            // enough that the internal per-chunk retries exhaust regularly.
            let mut rates = FaultRates::none();
            rates.device_transfer = 0.55;
            rates.kernel_launch = 0.55;
            let mut dev = SimDevice::with_defaults();
            dev.set_fault_plan(FaultPlan::seeded(rng.next_u64(), rates));
            let device = Arc::new(dev);
            let cache = DeviceColumnCache::new(device.clone());
            let mut values: Vec<f64> = (0..rows).map(|_| rng.gen_range(-1e3..1e3)).collect();
            // Place the replica fault-free is not an option here: retry the
            // placement itself until the injected faults let it through.
            let mut placed = false;
            for _ in 0..10_000 {
                if cache
                    .get_or_insert_with(REL, ATTR, 1, rows as u64, false, || {
                        device.upload(&pack(&values))
                    })
                    .is_ok()
                {
                    placed = true;
                    break;
                }
            }
            assert!(placed, "seeded faults must eventually admit the upload");
            for _ in 0..rng.gen_range(1usize..800) {
                let row = rng.gen_range(0usize..rows);
                let val = rng.gen_range(-1e3..1e3);
                values[row] = val;
                cache.append_delta(REL, ATTR, row as u64, val, 2).unwrap();
            }
            let stale = cache.stale_info(REL, ATTR, 2).expect("stale replica resident").stale_rows;
            assert!(stale > 0);
            let mut failures = 0u64;
            let col = loop {
                match cache.merge_deltas(REL, ATTR, 2, DeltaTransport::Pcie) {
                    Ok(col) => break col,
                    Err(e) => {
                        assert!(e.is_transient(), "delta faults surface as transient: {e}");
                        failures += 1;
                        assert!(failures < 10_000, "seeded faults must eventually admit the merge");
                        // The failed merge must not be visible in any form:
                        // same pending log, old version, nothing at v2.
                        let info = cache.stale_info(REL, ATTR, 2).expect("replica still resident");
                        assert_eq!(info.stale_rows, stale, "failed merge must keep the log intact");
                        assert!(cache.contains(REL, ATTR, 1), "replica stays at its old version");
                        assert!(
                            cache.lookup(REL, ATTR, 2).unwrap().is_none(),
                            "a partially-merged replica must never be served"
                        );
                    }
                }
            };
            // Convergence: the retried merge equals a fresh upload exactly.
            // (The verification download crosses the same faulted link.)
            let merged = loop {
                match device.download(col.buf) {
                    Ok(bytes) => break bytes,
                    Err(e) => assert!(e.is_transient(), "download faults are transient: {e}"),
                }
            };
            assert_eq!(merged, pack(&values), "retried merge must converge bit-for-bit");
            assert!(cache.contains(REL, ATTR, 2));
            // No phantom bytes: every charge corresponds to a fully-shipped
            // staging chunk (all-or-nothing per chunk, pairs ≤ one chunk
            // here), and exactly one merge was recorded.
            let snap = device.ledger().snapshot();
            assert_eq!(
                snap.delta_bytes % (stale * DELTA_PAIR_BYTES),
                0,
                "charges come only in whole fully-shipped chunk multiples"
            );
            assert!(snap.delta_bytes >= stale * DELTA_PAIR_BYTES);
            assert_eq!(snap.delta_merges, 1, "only the successful merge is recorded");
        },
    );
}

#[test]
fn reference_repacks_a_replica_past_half_the_column_from_its_snapshot() {
    check_cases(
        "reference_repacks_a_replica_past_half_the_column_from_its_snapshot",
        6,
        0xDE17_A003,
        |_, rng| {
            let e = ReferenceEngine::new();
            let schema = Schema::of(&[("k", DataType::Int64), ("v", DataType::Float64)]);
            let rel = e.create_relation(schema).unwrap();
            let rows = rng.gen_range(64u64..6000);
            for k in 0..rows as i64 {
                e.insert(rel, &vec![Value::Int64(k), Value::Float64(rng.gen_range(-1e6..1e6))])
                    .unwrap();
            }
            let sum = e.offload_sum(rel, ATTR, None).unwrap();
            assert_eq!(sum.to_bits(), physical::volcano_sum(&e, rel, ATTR).unwrap().to_bits());
            // Commit writes to more than half the rows, some twice, so the
            // delta log outgrows the merge crossover.
            let mut order: Vec<u64> = (0..rows).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            let written = rows / 2 + 1 + rng.gen_range(0..rows / 2);
            for &row in order[..written as usize].iter().chain(&order[..8]) {
                e.update_field(rel, row, ATTR, &Value::Float64(rng.gen_range(-1e6..1e6))).unwrap();
            }
            let stale = e.column_evidence(rel, ATTR).unwrap().stale_rows;
            assert!(stale * 2 > rows, "{stale} stale rows of {rows} must exceed half the column");
            // Neither a pending nor an aborted write may reach the replica.
            let open = e.begin();
            e.txn_update(rel, &open, order[0], ATTR, Value::Float64(1e300)).unwrap();
            let aborted = e.begin();
            e.txn_update(rel, &aborted, order[rows as usize - 1], ATTR, Value::Float64(-1e300))
                .unwrap();
            e.txn_abort(rel, &aborted).unwrap();
            let sum = e.offload_sum(rel, ATTR, None).unwrap();
            let oracle = physical::volcano_sum(&e, rel, ATTR).unwrap();
            assert_eq!(sum.to_bits(), oracle.to_bits(), "re-packed replica vs volcano");
            let ev = e.column_evidence(rel, ATTR).unwrap();
            assert!(ev.device_warm && ev.stale_rows == 0, "the re-pack leaves a fresh replica");
            e.txn_abort(rel, &open).unwrap();
        },
    );
}

// ---------------------------------------------------------------------
// Planner route pins: the three-way staleness pricing.
// ---------------------------------------------------------------------

fn paper_device() -> DeviceCostProfile {
    DeviceCostProfile {
        pcie_bandwidth: 6.0e9,
        pcie_latency_ns: 10_000,
        kernel_launch_ns: 5_000,
        mem_bandwidth: 80.0e9,
        clock_hz: 1.1e9,
        lanes: 640,
    }
}

/// A 10M-row strided f64 column (the Figure 2 offload-cliff shape) with a
/// device replica `stale_rows` behind — `device_warm` false, since warmth
/// means zero upload bytes.
fn stale_evidence(rows: u64, stale_rows: u64) -> ColumnEvidence {
    ColumnEvidence {
        rows,
        ty: DataType::Float64,
        scan_stride: 64,
        contiguous: false,
        device_warm: false,
        stale_rows,
    }
}

fn plan_sum(ev: ColumnEvidence) -> htapg::core::plan::PhysicalPlan {
    let caps = EngineCapabilities::from_classification(&survey::cogadb());
    let dev = paper_device();
    let cache = CacheSpec::default();
    let cx = PlannerContext { caps: &caps, device: Some(&dev), cache: &cache, calibration: None };
    let mut col = |_r, _a| Ok(ev);
    let mut tab = |_r| Ok(TableEvidence { rows: ev.rows, record_width: 64, contiguous_nsm: false });
    build_plan(&LogicalPlan::sum(0, ATTR), &cx, &mut col, &mut tab).expect("plan")
}

#[test]
fn small_delta_routes_to_merge_priced_at_pair_bytes() {
    let plan = plan_sum(stale_evidence(10_000_000, 1_000));
    assert_eq!(plan.route(), Route::DevicePipelined);
    assert_eq!(plan.bytes_to_device(), 1_000 * DELTA_PAIR_BYTES, "merge ships only the pairs");
}

#[test]
fn huge_delta_routes_to_full_reupload() {
    // 9M stale pairs would ship 144 MB; the 80 MB full column wins.
    let plan = plan_sum(stale_evidence(10_000_000, 9_000_000));
    assert_eq!(plan.route(), Route::DevicePipelined);
    assert_eq!(plan.bytes_to_device(), 10_000_000 * 8, "re-upload prices the whole column");
}

#[test]
fn cold_column_routing_is_unchanged_by_the_delta_machinery() {
    // No replica at all (stale_rows = 0): the pre-delta routing pins hold
    // verbatim — big strided scans offload at full column bytes, tiny
    // contiguous ones stay on the host.
    let cold = plan_sum(stale_evidence(10_000_000, 0));
    assert_eq!(cold.route(), Route::DevicePipelined);
    assert_eq!(cold.bytes_to_device(), 10_000_000 * 8);
    let tiny = plan_sum(ColumnEvidence {
        rows: 1_000,
        ty: DataType::Float64,
        scan_stride: 8,
        contiguous: true,
        device_warm: false,
        stale_rows: 0,
    });
    assert_ne!(tiny.route(), Route::DevicePipelined);
    assert_eq!(tiny.bytes_to_device(), 0);
}

#[test]
fn merge_scatter_is_idempotent_on_replay() {
    // The retry story depends on the scatter being a plain last-write
    // store: replaying the whole coalesced log over a half-merged replica
    // must land on the same bytes.
    let device = Arc::new(SimDevice::with_defaults());
    let values: Vec<f64> = (0..512).map(|i| i as f64).collect();
    let buf = device.upload(&pack(&values)).unwrap();
    let pairs: Vec<(u64, f64)> = (0..100u64).map(|i| (i * 5, -(i as f64))).collect();
    let mut stream = htapg::device::SimStream::new(&device);
    kernels::scatter_deltas_f64(&mut stream, buf, &pairs).unwrap();
    let once = device.download(buf).unwrap();
    kernels::scatter_deltas_f64(&mut stream, buf, &pairs).unwrap();
    kernels::scatter_deltas_f64(&mut stream, buf, &pairs[40..]).unwrap();
    kernels::scatter_deltas_f64(&mut stream, buf, &pairs).unwrap();
    let replayed = device.download(buf).unwrap();
    assert_eq!(once, replayed, "replaying the log must be a no-op on merged bytes");
}
