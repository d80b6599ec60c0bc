//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [--quick] [--seed N] [--trace PATH] [table1] [fig2] [fig3] [fig4] [reference-check] [pool] [gpu_pipeline] [delta] [planner] [cluster] [obs] [ablations] [all]
//! ```
//!
//! With no selection, prints everything except the ablations. `--quick`
//! shrinks the Figure 2 sweeps for fast smoke runs. Build with `--release`
//! for meaningful CPU timings. The seed defaults to `HTAPG_SEED` when set
//! (else 42); `--trace PATH` writes the obs section's Chrome trace JSON
//! (open in `chrome://tracing` or Perfetto).

use htapg_bench::{ablation, cluster, delta, fig2, gpu_pipeline, obs, planner, pool, render_sweep};
use htapg_core::engine::StorageEngine;
use htapg_core::{Fragment, FragmentSpec, Linearization, Schema, Value};
use htapg_engines::{all_surveyed_engines, ReferenceEngine};
use htapg_taxonomy::{reference, survey, table, tree};

fn section(title: &str) {
    println!("\n{}", "=".repeat(78));
    println!("{title}");
    println!("{}", "=".repeat(78));
}

fn print_table1() {
    section("Table 1 — survey classification, derived from the live engine implementations");
    let classifications: Vec<_> =
        all_surveyed_engines().iter().map(|e| e.classification()).collect();
    print!("{}", table::render_text(&classifications));
    let expected = survey::paper_table1();
    let ok = classifications == expected;
    println!(
        "\nverbatim match against the paper's Table 1: {}",
        if ok { "YES" } else { "NO (divergence!)" }
    );
}

fn print_fig3() {
    section("Figure 3 — terminology: linearization byte orders on the example relation");
    // The paper's example: attributes A..E over four tuples, values a1..e4
    // (encoded here as Int32 codes: a1 = 0x0A01, etc.).
    let schema = Schema::of(&[
        ("A", htapg_core::DataType::Int32),
        ("B", htapg_core::DataType::Int32),
        ("C", htapg_core::DataType::Int32),
        ("D", htapg_core::DataType::Int32),
        ("E", htapg_core::DataType::Int32),
    ]);
    let code = |attr: u8, row: i32| Value::Int32(((attr as i32) << 8) | (row + 1));
    let name = |v: &Value| match v {
        Value::Int32(x) => format!("{}{}", (b'a' + (x >> 8) as u8 - 0x0A) as char, x & 0xFF),
        _ => unreachable!(),
    };
    let show = |label: &str, frag: &Fragment| {
        let ints: Vec<String> = frag
            .linearized_bytes()
            .chunks_exact(4)
            .map(|c| name(&Value::Int32(i32::from_le_bytes(c.try_into().unwrap()))))
            .collect();
        println!("{label:<58} {}", ints.join(" "));
    };
    // Fat fragment over A,B,C (the paper's layout-2 left fragment).
    for (label, order) in [
        ("NSM-Fixed (fat fragment A,B,C):", Linearization::Nsm),
        ("DSM-Fixed (fat fragment A,B,C):", Linearization::Dsm),
    ] {
        let mut f = Fragment::new(
            &schema,
            FragmentSpec { first_row: 0, capacity: 4, attrs: vec![0, 1, 2], order },
        )
        .unwrap();
        for row in 0..4 {
            f.append(&schema, &[code(0x0A, row), code(0x0B, row), code(0x0C, row)]).unwrap();
        }
        show(label, &f);
    }
    // Thin fragments over D and E: direct linearization; together they
    // emulate DSM ("columns as multiple distinct vectors").
    let mut thin = Vec::new();
    for attr in [3u16, 4] {
        let mut f = Fragment::new(
            &schema,
            FragmentSpec {
                first_row: 0,
                capacity: 4,
                attrs: vec![attr],
                order: Linearization::Direct,
            },
        )
        .unwrap();
        for row in 0..4 {
            f.append(&schema, &[code(0x0A + attr as u8, row)]).unwrap();
        }
        thin.push(f);
    }
    show("Direct (thin fragment D):", &thin[0]);
    show("Direct (thin fragment E):", &thin[1]);
    let emulated: Vec<String> = thin
        .iter()
        .flat_map(|f| {
            f.linearized_bytes()
                .chunks_exact(4)
                .map(|c| name(&Value::Int32(i32::from_le_bytes(c.try_into().unwrap()))))
                .collect::<Vec<_>>()
        })
        .collect();
    println!("{:<58} {}", "DSM-Emulated (thin D ++ thin E, separate blocks):", emulated.join(" "));
    // NSM-Emulated: one thin (single-tuplet) fragment per row over D,E.
    let mut nsm_emulated = Vec::new();
    for row in 0..4 {
        let mut f = Fragment::new(
            &schema,
            FragmentSpec {
                first_row: row,
                capacity: 1,
                attrs: vec![3, 4],
                order: Linearization::Direct,
            },
        )
        .unwrap();
        f.append(&schema, &[code(0x0D, row as i32), code(0x0E, row as i32)]).unwrap();
        for c in f.linearized_bytes().chunks_exact(4) {
            nsm_emulated.push(name(&Value::Int32(i32::from_le_bytes(c.try_into().unwrap()))));
        }
    }
    println!(
        "{:<58} {}",
        "NSM-Emulated (one thin tuplet fragment per row, D,E):",
        nsm_emulated.join(" ")
    );
}

fn print_fig4() {
    section("Figure 4 — taxonomy of classification properties");
    print!("{}", tree::render(&tree::figure4()));
}

fn print_reference_check() {
    section("Section IV-C — reference-design checklist");
    // Every surveyed engine fails ("not yet")…
    for engine in all_surveyed_engines() {
        let chk = reference::check(&engine.classification());
        println!("{:<16} misses {} of 6 requirement(s)", engine.name(), chk.missing().len());
    }
    // …and the reference engine satisfies all six.
    let chk = reference::check(&ReferenceEngine::new().classification());
    println!("\n{}", chk.render());
}

fn print_fig1() {
    section("Figure 1 — physical record layout re-organization and compute device re-assignment");
    use htapg_workload::tpcc::{customer_attr as c, customer_schema, Generator};
    let engine = ReferenceEngine::new();
    let gen = Generator::new(1);
    let rel = engine.create_relation(customer_schema()).unwrap();
    for i in 0..5_000 {
        engine.insert(rel, &gen.customer(i)).unwrap();
    }
    let describe = |phase: &str| {
        let groups = engine.primary_groups(rel).unwrap();
        println!(
            "{phase:<38} primary groups: {:>2}   delegated: {:?}   device-resident: {:?}",
            groups.len(),
            engine.delegated(rel).unwrap(),
            engine.device_resident(rel).unwrap(),
        );
    };
    describe("initial (transactional shape)");
    // Analytical phase: the balance column gets scanned hard.
    for _ in 0..40 {
        htapg_exec::physical::touch_column(&engine, rel, c::C_BALANCE).unwrap();
    }
    engine.maintain().unwrap();
    describe("after an analytical burst + maintain");
    // Transactional phase: point reads and updates dominate again.
    for i in 0..3_000u64 {
        engine.read_record(rel, i % 5_000).unwrap();
        if i % 5 == 0 {
            engine
                .update_field(rel, i % 5_000, c::C_BALANCE, &htapg_core::Value::Float64(0.0))
                .unwrap();
        }
    }
    engine.maintain().unwrap();
    describe("after a transactional burst + maintain");
    println!("\n(the layout re-organizes and the balance column moves on and off the");
    println!("device as the workload shifts — Figure 1's two feedback loops)");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let seed = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| htapg_core::prng::env_seed(42));
    let trace_path =
        args.iter().position(|a| a == "--trace").and_then(|i| args.get(i + 1)).cloned();
    let flag_values: Vec<usize> = args
        .iter()
        .enumerate()
        .filter(|(_, a)| *a == "--seed" || *a == "--trace")
        .map(|(i, _)| i + 1)
        .collect();
    let picked: Vec<&str> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| !a.starts_with("--") && !flag_values.contains(i))
        .map(|(_, a)| a.as_str())
        .filter(|a| !a.chars().all(|c| c.is_ascii_digit()))
        .collect();
    let all = picked.is_empty() || picked.contains(&"all");
    let want = |what: &str| all || picked.contains(&what);

    println!("htapg repro — Pinnecke et al., ICDE 2017 (seed {seed}, quick={quick})");

    if want("table1") {
        print_table1();
    }
    if want("fig3") {
        print_fig3();
    }
    if want("fig4") {
        print_fig4();
    }
    if want("reference-check") {
        print_reference_check();
    }
    if want("fig1") {
        print_fig1();
    }
    if want("fig2") {
        section("Figure 2 — storage model × threading policy × compute platform");
        println!(
            "(CPU series: measured wall time on this host; device series: the\n\
             simulator's modeled time — see DESIGN.md substitutions)\n"
        );
        print!("{}", fig2::run_figure2(quick, seed));
    }
    if want("pool") {
        section("Executor crossover — spawn-per-call vs persistent pool vs single");
        let points = pool::measure(&pool::sweep_sizes(quick), if quick { 3 } else { 7 });
        let rows: Vec<(u64, Vec<f64>)> =
            points.iter().map(|p| (p.rows, vec![p.single_ms, p.pooled_ms, p.spawn_ms])).collect();
        print!(
            "{}",
            render_sweep(
                "f64 column sum, wall ms (8-way parallel series)",
                "#rows",
                &["single", "pooled_multi8", "spawn_multi8"],
                &rows,
            )
        );
        let show = |label: &str, x: Option<u64>| match x {
            Some(rows) => println!("{label}: {rows} rows"),
            None => println!("{label}: not reached in this sweep"),
        };
        show("pooled multi first beats single at", pool::pooled_crossover(&points));
        show("spawn-per-call multi first beats single at", pool::spawn_crossover(&points));
        let path = "BENCH_pool.json";
        match std::fs::write(path, pool::to_json(&points)) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => println!("could not write {path}: {e}"),
        }
    }
    if want("gpu_pipeline") {
        section("GPU transfer pipeline — serial vs stream-overlapped vs cache-warm");
        println!(
            "(virtual ns from the cost ledger on the unified-memory device\n\
             spec; deterministic, no repetitions needed)\n"
        );
        let points = gpu_pipeline::measure(&gpu_pipeline::sweep_sizes(quick));
        let rows: Vec<(u64, Vec<f64>)> = points
            .iter()
            .map(|p| (p.rows, vec![p.serial_ns as f64, p.overlapped_ns as f64, p.warm_ns as f64]))
            .collect();
        print!(
            "{}",
            render_sweep(
                "f64 column sum offload, virtual ns",
                "#rows",
                &["serial", "overlapped", "cache_warm"],
                &rows,
            )
        );
        for p in &points {
            println!(
                "{} rows: overlapped wall is {}% of serial; warm repeat uploaded {} bytes",
                p.rows,
                gpu_pipeline::overlap_pct(p),
                p.warm_bytes_to_device
            );
        }
        println!(
            "warm repeats skip PCIe entirely: {}",
            if gpu_pipeline::warm_skips_pcie(&points) { "YES" } else { "NO (regression!)" }
        );
        let path = "BENCH_gpu_pipeline.json";
        match std::fs::write(path, gpu_pipeline::to_json(&points)) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => println!("could not write {path}: {e}"),
        }
    }
    if want("delta") {
        section("Delta shipping — warm analytic latency under a rising write rate");
        println!(
            "(two identical reference engines, delta shipping on vs off; the\n\
             cost ledger measures each warm device sum in virtual ns)\n"
        );
        let points = delta::measure(seed, quick);
        let rows: Vec<(u64, Vec<f64>)> = points
            .iter()
            .map(|p| (p.writes_per_query, vec![p.ship_ns as f64, p.cliff_ns as f64]))
            .collect();
        print!(
            "{}",
            render_sweep(
                "warm f64 column sum under writes, virtual ns",
                "#writes/query",
                &["ship", "cliff"],
                &rows,
            )
        );
        for p in &points {
            println!(
                "W={:>5}: shipped {} delta bytes vs {} re-upload bytes",
                p.writes_per_query, p.ship_delta_bytes, p.cliff_bytes_to_device
            );
        }
        println!(
            "latency flat under writes (<=1.5x no-write warm): {}",
            if delta::latency_flat_under_writes(&points) { "YES" } else { "NO (regression!)" }
        );
        println!(
            "delta traffic undercuts re-uploads: {}",
            if delta::delta_beats_reupload(&points) { "YES" } else { "NO (regression!)" }
        );
        let path = "BENCH_delta.json";
        match std::fs::write(path, delta::to_json(seed, delta::table_rows(quick), &points)) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => println!("could not write {path}: {e}"),
        }
    }
    if want("planner") {
        section("Planner — cost-based routing, estimated vs actual virtual ns");
        println!(
            "(each op class lowered to a logical plan, routed by the engine's\n\
             cost model, executed through the physical interpreter; actual\n\
             virtual ns from the engine's own clock, 0 for host-only engines)\n"
        );
        let points = planner::measure(seed, quick);
        print!("{}", planner::render(&points));
        let path = "BENCH_planner.json";
        match std::fs::write(path, planner::to_json(seed, &points)) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => println!("could not write {path}: {e}"),
        }
    }
    if want("cluster") {
        section("Cluster scale-out — scatter-gather scan throughput vs node count");
        println!(
            "(sharded placement over SimCluster; cross-node messages priced\n\
             like PCIe — latency + bytes/bandwidth — on the cluster ledger;\n\
             every scattered result asserted bit-identical to the\n\
             single-node oracle)\n"
        );
        let rows = cluster::table_rows(quick);
        let points = cluster::measure(seed, quick);
        let table: Vec<(u64, Vec<f64>)> = points
            .iter()
            .map(|p| {
                (p.nodes as u64, vec![p.scan_wall_ns as f64, p.rows_per_sec, p.net_bytes as f64])
            })
            .collect();
        print!(
            "{}",
            render_sweep(
                &format!("warm f64 column sum over {rows} rows"),
                "#nodes",
                &["wall_ns", "rows_per_s", "net_bytes"],
                &table,
            )
        );
        for &n in &[2u32, 4, 8] {
            if let Some(s) = cluster::speedup_at(&points, n) {
                println!("{n} nodes: {s:.2}x single-node scan throughput");
            }
        }
        println!(
            "scatter plans priced under single-node: {:.0}%",
            100.0 * cluster::scatter_win_rate(&points)
        );
        println!(
            "scaling gates (>=1.6x @ 2 nodes, >=3x @ 4 nodes): {} / {}",
            if cluster::scaling_gate_2x(&points) { "YES" } else { "NO (regression!)" },
            if cluster::scaling_gate_4x(&points) { "YES" } else { "NO (regression!)" },
        );
        println!(
            "all results bit-identical to the single-node oracle: {}",
            if cluster::all_bit_identical(&points) { "YES" } else { "NO (regression!)" },
        );
        let path = "BENCH_cluster.json";
        match std::fs::write(path, cluster::to_json(seed, rows, &points)) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => println!("could not write {path}: {e}"),
        }
    }
    if want("obs") {
        section("Observability — traced HTAP run on the virtual clock");
        let report = obs::run(seed, quick);
        print!("{}", obs::render(&report));
        // The full span tree has one node per op — print the header and
        // category table, leave the tree to --trace/Perfetto.
        println!();
        for line in report.explain_text.lines().take(24) {
            println!("{line}");
        }
        println!("  ... (span tree truncated; export the full trace with --trace PATH)");
        let path = "BENCH_obs.json";
        match std::fs::write(path, obs::to_json(&report)) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => println!("could not write {path}: {e}"),
        }
        if let Some(path) = &trace_path {
            match std::fs::write(path, &report.chrome_json) {
                Ok(()) => println!("wrote {path} (open in chrome://tracing or Perfetto)"),
                Err(e) => println!("could not write {path}: {e}"),
            }
        }
    }
    if (all && !quick) || picked.contains(&"ablations") {
        section("Ablations A1–A7");
        print!("{}", ablation::run_all(seed));
    }
}
