//! GPU offload with CoGaDB-style placement and the HYPE-style learned
//! scheduler: columns migrate to the simulated device, the scheduler learns
//! per-processor cost models, and the device-memory capacity wall forces
//! all-or-nothing fallbacks. Then the transfer story: the stream-overlapped
//! pipeline hides upload time behind the reduction, and the device column
//! cache makes repeat queries skip PCIe entirely.
//!
//! ```sh
//! cargo run --release --example gpu_offload
//! ```

use std::sync::Arc;

use htapg::core::engine::StorageEngine;
use htapg::core::{DataType, Layout, LayoutTemplate, Schema, Value};
use htapg::device::{DeviceColumnCache, DeviceSpec, SimDevice};
use htapg::engines::cogadb::Placement;
use htapg::engines::CogadbEngine;
use htapg::exec::device_exec::{
    cached_offload_sum, offload_sum, pipelined_offload_sum, PipelineConfig,
};
use htapg::exec::physical;
use htapg::workload::driver::load_items;
use htapg::workload::tpcc::{item_attr, Generator};

fn main() {
    let gen = Generator::new(21);
    let n = 500_000u64;

    // --- 1. A device with plenty of memory: the column gets placed. ---
    let engine = CogadbEngine::new();
    let rel = load_items(&engine, &gen, n).unwrap();
    println!("loaded {n} items ({} MB price column)", n * 8 / (1024 * 1024));

    // Heat the price column, then let maintenance place it.
    for _ in 0..5 {
        physical::touch_column(&engine, rel, item_attr::I_PRICE).unwrap();
    }
    let report = engine.maintain().unwrap();
    println!(
        "placement pass: {} column(s) moved to device; resident: {:?}",
        report.fragments_moved,
        engine.device_resident(rel).unwrap()
    );

    // Train the HYPE scheduler: it alternates CPU/GPU to learn both cost
    // models, then settles on the cheaper processor.
    // Both processors reduce canonically: the placement never moves a bit.
    println!("\nHYPE training and decisions:");
    let mut first_sum = None;
    for i in 0..10 {
        let (sum, placement) = engine.sum_column_placed(rel, item_attr::I_PRICE).unwrap();
        println!("  scan {i:>2}: placed on {placement:?} (sum {sum:.2})");
        assert_eq!(sum.to_bits(), first_sum.get_or_insert(sum).to_bits(), "{placement:?}");
    }
    let (_, final_placement) = engine.sum_column_placed(rel, item_attr::I_PRICE).unwrap();
    println!("after training the scheduler picks: {final_placement:?}");
    assert_eq!(final_placement, Placement::Gpu, "large scans belong on the device");

    let snap = engine.device().ledger().snapshot();
    println!(
        "device ledger: {:.3} ms transfers ({} transfers), {:.3} ms kernels ({} launches)",
        snap.transfer_ns as f64 / 1e6,
        snap.transfers,
        snap.kernel_ns as f64 / 1e6,
        snap.kernel_launches
    );

    // --- 2. A tiny device: the 4 MB column cannot fit — all or nothing. ---
    println!("\n--- capacity wall ---");
    let tiny = CogadbEngine::with_device(Arc::new(SimDevice::new(1, DeviceSpec::tiny())));
    let rel2 = load_items(&tiny, &gen, n).unwrap();
    for _ in 0..5 {
        physical::touch_column(&tiny, rel2, item_attr::I_PRICE).unwrap();
    }
    let report = tiny.maintain().unwrap();
    println!(
        "1 MB device: {} column(s) placed (the {} MB column falls back to the host wholesale)",
        report.fragments_moved,
        n * 8 / (1024 * 1024)
    );
    let (sum, placement) = tiny.sum_column_placed(rel2, item_attr::I_PRICE).unwrap();
    println!("scan still answers from {placement:?}: sum {sum:.2}");
    assert_eq!(placement, Placement::Cpu);

    // --- 3. Overlap + cache: where the transfer time actually goes. ---
    println!("\n--- stream overlap and the device column cache ---");
    let rows = 4_000_000u64;
    let s = Schema::of(&[("price", DataType::Float64)]);
    let mut l = Layout::new(&s, LayoutTemplate::dsm_emulated(&s)).unwrap();
    for i in 0..rows {
        l.append(&s, &vec![Value::Float64((i % 1009) as f64 * 0.25)]).unwrap();
    }
    // Unified-memory-class device: copy and compute bandwidths comparable,
    // so double-buffering has room to hide the copies (on the default PCIe
    // spec the copy dominates and Amdahl caps the win — see EXPERIMENTS.md).
    let device = Arc::new(SimDevice::new(2, DeviceSpec::unified()));
    let (serial_sum, transfer_ns, kernel_ns) =
        offload_sum(&device, &l, 0, DataType::Float64).unwrap();
    let serial = transfer_ns + kernel_ns;
    let (pipe_sum, wall) =
        pipelined_offload_sum(&device, &l, 0, DataType::Float64, PipelineConfig::default())
            .unwrap();
    assert_eq!(serial_sum.to_bits(), pipe_sum.to_bits());
    println!(
        "{rows} rows serial:     {:.3} ms transfer + {:.3} ms kernel = {:.3} ms",
        transfer_ns as f64 / 1e6,
        kernel_ns as f64 / 1e6,
        serial as f64 / 1e6
    );
    println!(
        "{rows} rows overlapped: {:.3} ms wall ({}% of serial, same bits)",
        wall as f64 / 1e6,
        wall * 100 / serial
    );

    let cache = DeviceColumnCache::new(device.clone());
    let cfg = PipelineConfig::default();
    let before = device.ledger().snapshot();
    let cold = cached_offload_sum(&cache, &l, 0, DataType::Float64, 0, 1, cfg).unwrap();
    let cold_delta = device.ledger().snapshot().since(&before);
    let before = device.ledger().snapshot();
    let warm = cached_offload_sum(&cache, &l, 0, DataType::Float64, 0, 1, cfg).unwrap();
    let warm_delta = device.ledger().snapshot().since(&before);
    assert_eq!(cold.to_bits(), warm.to_bits());
    println!(
        "cold query: {} bytes over PCIe, {} cache miss(es)",
        cold_delta.bytes_to_device, cold_delta.cache_misses
    );
    println!(
        "warm query: {} bytes over PCIe, {} cache hit(s) — repeat analytics skip the bus",
        warm_delta.bytes_to_device, warm_delta.cache_hits
    );
    assert_eq!(warm_delta.bytes_to_device, 0);
    let snap = device.ledger().snapshot();
    println!(
        "cache ledger totals: {} hits / {} misses / {} evictions",
        snap.cache_hits, snap.cache_misses, snap.cache_evictions
    );
}
