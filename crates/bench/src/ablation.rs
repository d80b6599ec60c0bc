//! Ablation studies A1–A7 (DESIGN.md): the design choices the paper argues
//! about, measured on this implementation.

use std::sync::Arc;

use htapg_core::engine::StorageEngine;
use htapg_core::plan::LogicalPlan;
use htapg_core::{AttrId, DataType, RelationId, Value};
use htapg_device::{DeviceSpec, SimDevice};
use htapg_engines::gputx::TxOp;
use htapg_engines::{CogadbEngine, GputxEngine, HyriseEngine, LStoreEngine};
use htapg_exec::physical;
use htapg_exec::scan::sum_at_positions_f64;
use htapg_exec::threading::ThreadingPolicy;
use htapg_workload::queries::sorted_positions;
use htapg_workload::tpcc::{item_attr, Generator};

use crate::{fig2, min_time_ms, render_sweep};

/// A single-threaded planned `SUM(attr)`, through the analytic front door.
fn planned_sum(engine: &dyn StorageEngine, rel: RelationId, attr: AttrId) -> f64 {
    let plan = engine.plan(&LogicalPlan::sum(rel, attr)).unwrap();
    let out = physical::execute(engine, &plan, ThreadingPolicy::Single).unwrap();
    out.as_sum().expect("a planned sum answers a sum")
}

/// A1 — "on a tiny number of records ... sequential execution outperforms
/// multi-threaded execution since thread-management costs dominate":
/// sweep the position-list size and report single vs multi, exposing the
/// crossover.
pub fn threading_crossover(seed: u64) -> String {
    let gen = Generator::new(seed);
    let n = 1_000_000;
    let pair = fig2::build_items(&gen, n);
    let mut rows = Vec::new();
    for k in [10u64, 100, 1_000, 10_000, 100_000, 1_000_000] {
        let mut rng = seeded(seed ^ k);
        let positions = sorted_positions(&mut rng, n, k as usize);
        let single = min_time_ms(3, || {
            sum_at_positions_f64(
                &pair.columns,
                item_attr::I_PRICE,
                DataType::Float64,
                &positions,
                ThreadingPolicy::Single,
            )
            .unwrap()
        });
        let multi = min_time_ms(3, || {
            sum_at_positions_f64(
                &pair.columns,
                item_attr::I_PRICE,
                DataType::Float64,
                &positions,
                ThreadingPolicy::multi8(),
            )
            .unwrap()
        });
        rows.push((k, vec![single, multi]));
    }
    render_sweep(
        "A1 — threading crossover: sum at k positions (ms)",
        "#positions",
        &["single-threaded", "multi-threaded(8)"],
        &rows,
    )
}

/// A2 — partial/hybrid layouts vs pure NSM/DSM on a mixed workload
/// (the PDSM-vs-DSM question of Section II-B): run the same mix of point
/// reads and price scans against the three plain engines plus HYRISE after
/// it adapted.
pub fn layout_mix(seed: u64) -> String {
    let gen = Generator::new(seed);
    let n = 100_000u64;
    let engines: Vec<Box<dyn StorageEngine>> = vec![
        Box::new(htapg_engines::PlainEngine::row_store()),
        Box::new(htapg_engines::PlainEngine::emulated_column_store()),
        Box::new(HyriseEngine::new()),
    ];
    let mut names = Vec::new();
    let mut vals = Vec::new();
    for engine in &engines {
        let rel = htapg_workload::driver::load_items(engine.as_ref(), &gen, n).unwrap();
        // Let responsive engines adapt to the mix first.
        let mut rng = seeded(seed);
        let warm_positions = sorted_positions(&mut rng, n, 64);
        for _ in 0..10 {
            physical::touch_column(engine.as_ref(), rel, item_attr::I_PRICE).unwrap();
            engine.materialize_rows(rel, &warm_positions).unwrap();
        }
        engine.maintain().unwrap();
        let ms = min_time_ms(3, || {
            planned_sum(engine.as_ref(), rel, item_attr::I_PRICE);
            engine.materialize_rows(rel, &warm_positions).unwrap();
        });
        names.push(engine.name().to_string());
        vals.push(ms);
    }
    let series: Vec<&str> = names.iter().map(String::as_str).collect();
    render_sweep(
        "A2 — mixed workload (1 scan + 64-record materialize) per engine (ms)",
        "#items",
        &series,
        &[(n, vals)],
    )
}

/// A3 — GPUTx's motivation: "a single transaction ... might underutilize
/// the parallelism available": device time per transaction vs batch size.
pub fn gputx_batching(seed: u64) -> String {
    let gen = Generator::new(seed);
    let e = GputxEngine::new();
    let n = 50_000u64;
    let rel = e.create_relation(htapg_workload::tpcc::item_schema()).unwrap();
    let records: Vec<_> = (0..n).map(|i| gen.item(i)).collect();
    e.bulk_insert(rel, &records).unwrap();
    let mut rows = Vec::new();
    for batch in [1u64, 8, 64, 512, 4096] {
        let ops: Vec<TxOp> = (0..batch)
            .map(|i| TxOp::Update {
                row: (i * 97) % n,
                attr: item_attr::I_PRICE,
                value: Value::Float64(1.0),
            })
            .collect();
        let before = e.device().ledger().snapshot();
        let waves = 4096 / batch; // same total work per row
        for _ in 0..waves {
            e.execute_batch(rel, &ops).unwrap();
        }
        let delta = e.device().ledger().snapshot().since(&before);
        let ns_per_txn = delta.kernel_ns as f64 / 4096.0;
        rows.push((batch, vec![ns_per_txn / 1e3, delta.kernel_launches as f64]));
    }
    render_sweep(
        "A3 — GPUTx bulk execution: device cost per transaction vs batch size",
        "batch size",
        &["µs / txn (virtual)", "kernel launches"],
        &rows,
    )
}

/// A4 — CoGaDB's all-or-nothing placement: sweep device capacity and
/// report how many of the relation's numeric columns fit.
pub fn placement_wall(seed: u64) -> String {
    let gen = Generator::new(seed);
    let n = 100_000u64; // ~0.8 MB per f64 column
    let mut rows = Vec::new();
    for cap_mb in [1u64, 2, 4, 64] {
        let spec = DeviceSpec {
            global_mem_bytes: (cap_mb * 1024 * 1024) as usize,
            ..DeviceSpec::default()
        };
        let e = CogadbEngine::with_device(Arc::new(SimDevice::new(0, spec)));
        let rel = htapg_workload::driver::load_customers(&e, &gen, n).unwrap();
        // Heat several numeric columns.
        use htapg_workload::tpcc::customer_attr as c;
        for attr in [c::C_BALANCE, c::C_CREDIT_LIM, c::C_DISCOUNT, c::C_YTD_PAYMENT] {
            for _ in 0..3 {
                physical::touch_column(&e, rel, attr).unwrap();
            }
        }
        let report = e.maintain().unwrap();
        let resident = e.device_resident(rel).unwrap().len();
        rows.push((cap_mb, vec![report.fragments_moved as f64, resident as f64]));
    }
    render_sweep(
        "A4 — all-or-nothing device placement vs device capacity (100k customers)",
        "device MB",
        &["columns placed", "columns resident"],
        &rows,
    )
}

/// A5 — responsive vs static adaptability: scan latency on HYRISE before
/// and after it reorganizes for a scan-heavy workload, vs the static row
/// store.
pub fn adapt_convergence(seed: u64) -> String {
    let gen = Generator::new(seed);
    let n = 200_000u64;
    let hyrise = HyriseEngine::new();
    let rel = htapg_workload::driver::load_items(&hyrise, &gen, n).unwrap();
    let before = min_time_ms(3, || planned_sum(&hyrise, rel, item_attr::I_PRICE));
    for _ in 0..30 {
        physical::touch_column(&hyrise, rel, item_attr::I_PRICE).unwrap();
    }
    let report = hyrise.maintain().unwrap();
    let after = min_time_ms(3, || planned_sum(&hyrise, rel, item_attr::I_PRICE));
    let statik = htapg_engines::PlainEngine::row_store();
    let rel_s = htapg_workload::driver::load_items(&statik, &gen, n).unwrap();
    let static_ms = min_time_ms(3, || planned_sum(&statik, rel_s, item_attr::I_PRICE));
    format!(
        "## A5 — responsive adaptability (200k items, price scan)\n\
         HYRISE before reorganization: {before:.3} ms\n\
         HYRISE after  reorganization: {after:.3} ms  (reorganized {} layout(s))\n\
         static row store (never adapts): {static_ms:.3} ms\n",
        report.layouts_reorganized
    )
}

/// A6 — L-Store's indirection: record-read latency vs unmerged tail size,
/// and the effect of the merge.
pub fn lstore_merge(seed: u64) -> String {
    let gen = Generator::new(seed);
    let n = 50_000u64;
    let e = LStoreEngine::new();
    let rel = htapg_workload::driver::load_items(&e, &gen, n).unwrap();
    let mut rows = Vec::new();
    let mut rng = seeded(seed);
    let probe = sorted_positions(&mut rng, n, 256);
    for updates in [0u64, 1_000, 10_000, 50_000] {
        for i in 0..updates {
            e.update_field(rel, (i * 31) % n, item_attr::I_PRICE, &Value::Float64(2.0)).unwrap();
        }
        let read_ms = min_time_ms(3, || e.materialize_rows(rel, &probe).unwrap());
        let scan_ms = min_time_ms(3, || planned_sum(&e, rel, item_attr::I_PRICE));
        rows.push((updates, vec![read_ms, scan_ms, e.tail_len(rel).unwrap() as f64]));
    }
    e.maintain().unwrap();
    let read_ms = min_time_ms(3, || e.materialize_rows(rel, &probe).unwrap());
    let scan_ms = min_time_ms(3, || planned_sum(&e, rel, item_attr::I_PRICE));
    let mut out = render_sweep(
        "A6 — L-Store: cost vs unmerged tail (50k items, 256-record probe)",
        "#updates",
        &["materialize ms", "price scan ms", "tail entries"],
        &rows,
    );
    out.push_str(&format!(
        "after merge: materialize {read_ms:.3} ms, scan {scan_ms:.3} ms, tail 0\n"
    ));
    out
}

/// A7 — device generations: the paper's GPU loses the transfer-included
/// race (Fig. 2, panel 3); would a data-center GPU with an NVLink-class
/// interconnect win it? Sweep the device spec and report modeled offload
/// time vs the measured best host series.
pub fn device_generations(seed: u64) -> String {
    let gen = Generator::new(seed);
    let n = 1_000_000u64;
    let pair = crate::fig2::build_items(&gen, n);
    let host_best = min_time_ms(3, || {
        htapg_exec::scan::sum_column_f64_typed(
            &pair.columns,
            item_attr::I_PRICE,
            htapg_core::DataType::Float64,
            ThreadingPolicy::Single,
        )
        .unwrap()
    });
    let mut rows = Vec::new();
    for (tag, spec) in [(2016u64, DeviceSpec::default()), (2018u64, DeviceSpec::datacenter())] {
        let device = Arc::new(SimDevice::new(0, spec));
        let (_, transfer_ns, kernel_ns) = htapg_exec::device_exec::offload_sum(
            &device,
            &pair.columns,
            item_attr::I_PRICE,
            htapg_core::DataType::Float64,
        )
        .unwrap();
        rows.push((
            tag,
            vec![(transfer_ns + kernel_ns) as f64 / 1e6, kernel_ns as f64 / 1e6, host_best],
        ));
    }
    let mut out = render_sweep(
        "A7 — device generations (1M items): offload vs best host series (ms)",
        "device year",
        &["offload incl. transfer", "kernel only", "best host series"],
        &rows,
    );
    out.push_str(
        "(2016 = the paper's mobile GPU over PCIe; 2018 = V100-class over an
         NVLink-class link — the newer interconnect flips panel 3's outcome)
",
    );
    out
}

/// All ablations, rendered.
pub fn run_all(seed: u64) -> String {
    let mut out = String::new();
    for section in [
        threading_crossover(seed),
        layout_mix(seed),
        gputx_batching(seed),
        placement_wall(seed),
        adapt_convergence(seed),
        lstore_merge(seed),
        device_generations(seed),
    ] {
        out.push_str(&section);
        out.push('\n');
    }
    out
}

fn seeded(seed: u64) -> htapg_core::prng::Prng {
    htapg_core::prng::Prng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gputx_batching_amortizes() {
        let s = gputx_batching(1);
        assert!(s.contains("A3"));
        // Largest batch must have far fewer launches than smallest.
        let lines: Vec<&str> = s.lines().collect();
        let first: f64 = lines[2].split_whitespace().last().unwrap().parse().unwrap();
        let last: f64 = lines.last().unwrap().split_whitespace().last().unwrap().parse().unwrap();
        assert!(first > last * 100.0, "launches {first} vs {last}");
    }

    #[test]
    fn placement_wall_grows_with_capacity() {
        let s = placement_wall(2);
        assert!(s.contains("A4"));
        let resident: Vec<f64> = s
            .lines()
            .skip(2)
            .map(|l| l.split_whitespace().last().unwrap().parse().unwrap())
            .collect();
        assert!(resident.last().unwrap() > resident.first().unwrap());
        assert_eq!(*resident.last().unwrap(), 4.0, "all four heated columns fit at 64 MB");
    }
}
