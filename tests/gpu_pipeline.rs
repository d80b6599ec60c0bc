//! Stream-overlapped GPU transfer pipeline + device-resident column cache,
//! end to end (ISSUE 3 acceptance):
//!
//! * on a ≥1e7-row column the double-buffered pipeline's overlapped wall is
//!   at most 70% of the serial `transfer + kernel` time on a
//!   unified-memory-class device ([`DeviceSpec::unified`] — on the default
//!   PCIe device the copy dominates so completely that Amdahl caps the
//!   overlap win near 7%, see EXPERIMENTS.md);
//! * a cache-warm repeat of an identical analytic query charges **zero**
//!   `bytes_to_device`;
//! * a write through an engine invalidates the cached column and the next
//!   query re-uploads;
//! * eviction under memory pressure frees the least-recently-used victim,
//!   while CoGaDB's maintain-time placement keeps its all-or-nothing
//!   contract (it never evicts to make room);
//! * pipelined and cached paths are bit-identical to the synchronous
//!   uncached path for arbitrary sizes and chunk geometries
//!   ([`check_cases`]; seed honors `HTAPG_SEED`, printed on failure).

use std::sync::Arc;

use htapg::core::engine::StorageEngine;
use htapg::core::plan::ScanStrategy;
use htapg::core::prng::{check_cases, Prng};
use htapg::core::{DataType, Layout, LayoutTemplate, Schema, Value};
use htapg::device::{DeviceColumnCache, DeviceSpec, SimDevice};
use htapg::engines::{CogadbEngine, ReferenceEngine};
use htapg::exec::device_exec::{
    cached_offload_sum, offload_sum, pipelined_offload_sum, PipelineConfig,
};
use htapg::exec::physical;

fn price_layout(n: u64, value: impl Fn(u64) -> f64) -> Layout {
    let s = Schema::of(&[("price", DataType::Float64)]);
    let mut l = Layout::new(&s, LayoutTemplate::dsm_emulated(&s)).unwrap();
    for i in 0..n {
        l.append(&s, &vec![Value::Float64(value(i))]).unwrap();
    }
    l
}

// ---------------------------------------------------------------------
// (1) The overlap win, at the acceptance scale.
// ---------------------------------------------------------------------

#[test]
fn pipelined_wall_is_at_most_seventy_percent_of_serial_at_1e7_rows() {
    let n = 10_000_000u64;
    let l = price_layout(n, |i| (i % 1009) as f64 * 0.25);
    // Unified-memory-class device: copy and compute bandwidths are
    // comparable, so double-buffering can actually hide the copies.
    let device = Arc::new(SimDevice::new(0, DeviceSpec::unified()));
    let (serial_sum, transfer_ns, kernel_ns) =
        offload_sum(&device, &l, 0, DataType::Float64).unwrap();
    let serial_wall = transfer_ns + kernel_ns;
    let (pipe_sum, wall) =
        pipelined_offload_sum(&device, &l, 0, DataType::Float64, PipelineConfig::default())
            .unwrap();
    assert_eq!(serial_sum.to_bits(), pipe_sum.to_bits(), "overlap must not change the answer");
    assert!(
        wall * 10 <= serial_wall * 7,
        "overlapped wall {wall} ns must be <= 70% of serial {serial_wall} ns \
         ({}%)",
        wall * 100 / serial_wall.max(1)
    );

    // On the default PCIe-attached device overlap can only help, never
    // hurt — the copy stream is the critical path either way.
    let pcie = Arc::new(SimDevice::with_defaults());
    let (_, t2, k2) = offload_sum(&pcie, &l, 0, DataType::Float64).unwrap();
    let (_, wall2) =
        pipelined_offload_sum(&pcie, &l, 0, DataType::Float64, PipelineConfig::default()).unwrap();
    assert!(wall2 <= t2 + k2, "pipelined {wall2} vs serial {}", t2 + k2);
    assert!(wall2 >= t2, "the copy stream bounds the pipeline from below");
}

// ---------------------------------------------------------------------
// (2) + (3) Cache-warm repeats skip PCIe; writes invalidate.
// ---------------------------------------------------------------------

#[test]
fn warm_repeat_query_charges_zero_bytes_to_device_and_writes_invalidate() {
    let l = price_layout(50_000, |i| i as f64);
    let cache = DeviceColumnCache::new(Arc::new(SimDevice::with_defaults()));
    let cfg = PipelineConfig::default();
    let cold = cached_offload_sum(&cache, &l, 0, DataType::Float64, 3, 1, cfg).unwrap();

    let before = cache.device().ledger().snapshot();
    let warm = cached_offload_sum(&cache, &l, 0, DataType::Float64, 3, 1, cfg).unwrap();
    let delta = cache.device().ledger().snapshot().since(&before);
    assert_eq!(warm.to_bits(), cold.to_bits());
    assert_eq!(delta.bytes_to_device, 0, "identical repeat query must skip PCIe entirely");
    assert_eq!(delta.cache_hits, 1);
    assert_eq!(delta.transfer_ns, 0);

    // A version bump — what every engine write does — forces a re-upload.
    let before = cache.device().ledger().snapshot();
    let fresh = cached_offload_sum(&cache, &l, 0, DataType::Float64, 3, 2, cfg).unwrap();
    let delta = cache.device().ledger().snapshot().since(&before);
    assert_eq!(fresh.to_bits(), cold.to_bits());
    assert_eq!(delta.bytes_to_device, 50_000 * 8, "stale entry re-uploaded in full");
    assert_eq!(delta.cache_misses, 1);
}

#[test]
fn engine_write_invalidates_and_next_query_reuploads() {
    // Through the reference engine: place, query warm, write, re-place.
    let e = ReferenceEngine::new();
    let s = Schema::of(&[("pk", DataType::Int64), ("balance", DataType::Float64)]);
    let rel = e.create_relation(s).unwrap();
    for i in 0..2_000i64 {
        e.insert(rel, &vec![Value::Int64(i), Value::Float64(i as f64)]).unwrap();
    }
    for _ in 0..30 {
        physical::touch_column(&e, rel, 1).unwrap();
    }
    e.maintain().unwrap();
    assert!(e.device_resident(rel).unwrap().contains(&1));

    let d1 = e.offload_sum(rel, 1, None).unwrap();
    let before = e.device().ledger().snapshot();
    let d2 = e.offload_sum(rel, 1, None).unwrap();
    let delta = e.device().ledger().snapshot().since(&before);
    assert_eq!(d1.to_bits(), d2.to_bits());
    assert_eq!(delta.bytes_to_device, 0, "warm engine query must not touch PCIe");
    assert!(delta.cache_hits >= 1);

    // A committed write makes the replica stale: the planner no longer
    // sees it warm, and the next maintain pays the PCIe refresh.
    e.update_field(rel, 0, 1, &Value::Float64(1e6)).unwrap();
    assert!(!e.column_evidence(rel, 1).unwrap().device_warm, "stale replica unusable");
    let before = e.device().ledger().snapshot();
    e.maintain().unwrap();
    let delta = e.device().ledger().snapshot().since(&before);
    assert!(delta.bytes_to_device > 0, "refresh re-uploads over PCIe");
    let d3 = e.offload_sum(rel, 1, None).unwrap();
    let host = physical::canonical_sum(
        &physical::collect_f64(&e, rel, 1, ScanStrategy::ContiguousBytes).unwrap(),
    );
    assert_eq!(d3.to_bits(), host.to_bits());
}

// ---------------------------------------------------------------------
// (4) LRU eviction under pressure + the all-or-nothing contract.
// ---------------------------------------------------------------------

#[test]
fn query_pressure_evicts_lru_but_placement_stays_all_or_nothing() {
    // 1 MB device. Three 40 KB cached columns + filler leave < 40 KB free.
    let device = Arc::new(SimDevice::new(0, DeviceSpec::tiny()));
    let cache = DeviceColumnCache::new(device.clone());
    let cfg = PipelineConfig::default();
    let cols: Vec<Layout> = (0..4).map(|r| price_layout(5 * 1024, |i| (i + r) as f64)).collect();
    for (r, l) in cols.iter().take(3).enumerate() {
        cached_offload_sum(&cache, l, 0, DataType::Float64, r as u32, 1, cfg).unwrap();
    }
    // Touch relations 0 and 2: relation 1 becomes the LRU victim.
    cached_offload_sum(&cache, &cols[0], 0, DataType::Float64, 0, 1, cfg).unwrap();
    cached_offload_sum(&cache, &cols[2], 0, DataType::Float64, 2, 1, cfg).unwrap();
    let filler = device.alloc(1024 * 1024 - 140 * 1024).unwrap();

    let before = device.ledger().snapshot();
    cached_offload_sum(&cache, &cols[3], 0, DataType::Float64, 3, 1, cfg).unwrap();
    let delta = device.ledger().snapshot().since(&before);
    assert_eq!(delta.cache_evictions, 1, "exactly one victim makes room");
    assert!(cache.contains(0, 0, 1) && cache.contains(2, 0, 1) && cache.contains(3, 0, 1));
    assert!(!cache.contains(1, 0, 1), "relation 1 was the LRU victim");

    // The evicted column still answers (re-uploaded on demand, evicting
    // the new LRU) — queries degrade, they never fail.
    let back = cached_offload_sum(&cache, &cols[1], 0, DataType::Float64, 1, 1, cfg).unwrap();
    let expect: f64 = (0..5 * 1024).map(|i| (i + 1) as f64).sum();
    assert!((back - expect).abs() < 1e-6 * expect);
    device.free(filler).unwrap();

    // CoGaDB's maintain-time placement on the same crowded device: the
    // column does not fit, and all-or-nothing means *nothing* is evicted
    // to make room — the cached query columns above survive untouched.
    let resident_before = cache.resident_bytes();
    let e = CogadbEngine::with_device(device.clone());
    let s = Schema::of(&[("v", DataType::Float64)]);
    let rel = e.create_relation(s).unwrap();
    for i in 0..200_000i64 {
        e.insert(rel, &vec![Value::Float64(i as f64)]).unwrap();
    }
    for _ in 0..5 {
        physical::touch_column(&e, rel, 0).unwrap();
    }
    let report = e.maintain().unwrap();
    assert_eq!(report.fragments_moved, 0, "1.6 MB column cannot be placed on a 1 MB device");
    assert!(e.device_resident(rel).unwrap().is_empty());
    assert_eq!(
        cache.resident_bytes(),
        resident_before,
        "all-or-nothing placement must not cannibalize the query cache"
    );
    assert_eq!(device.ledger().snapshot().cache_evictions, delta.cache_evictions + 1);
}

// ---------------------------------------------------------------------
// (5) Bit-identity across strategies, for arbitrary shapes.
// ---------------------------------------------------------------------

#[test]
fn pipelined_and_cached_are_bit_identical_to_serial_for_arbitrary_shapes() {
    check_cases("gpu_pipeline_bit_identity", 20, 0x61B0_11E5, |_case, rng: &mut Prng| {
        let rows = rng.gen_range(1u64..50_000);
        let chunk_rows = rng.gen_range(1usize..60_000);
        let scale = (rng.gen_range(1u64..1_000)) as f64 * 0.125;
        let l = price_layout(rows, |i| ((i * 2654435761 % 9973) as f64 - 4986.0) * scale);
        let device = Arc::new(SimDevice::with_defaults());
        let (serial, _, _) = offload_sum(&device, &l, 0, DataType::Float64).unwrap();
        let (pipelined, wall) =
            pipelined_offload_sum(&device, &l, 0, DataType::Float64, PipelineConfig { chunk_rows })
                .unwrap();
        assert_eq!(serial.to_bits(), pipelined.to_bits(), "rows={rows} chunk_rows={chunk_rows}");
        assert!(wall > 0);
        let cache = DeviceColumnCache::new(device.clone());
        let cold = cached_offload_sum(
            &cache,
            &l,
            0,
            DataType::Float64,
            1,
            1,
            PipelineConfig { chunk_rows },
        )
        .unwrap();
        let warm = cached_offload_sum(
            &cache,
            &l,
            0,
            DataType::Float64,
            1,
            1,
            PipelineConfig { chunk_rows },
        )
        .unwrap();
        assert_eq!(serial.to_bits(), cold.to_bits(), "rows={rows} chunk_rows={chunk_rows}");
        assert_eq!(serial.to_bits(), warm.to_bits(), "rows={rows} chunk_rows={chunk_rows}");
    });
}
