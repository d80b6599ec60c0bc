//! The `repro obs` section: a traced, metered HTAP run on the virtual
//! clock.
//!
//! One sequential mixed stream runs against the [`ReferenceEngine`] with
//! the global tracer installed on the engine's own cost-ledger clock, so
//! every artifact — the Chrome trace, the EXPLAIN breakdown, the per-class
//! latency quantiles — is a deterministic function of the seed. The run is
//! wrapped in a single `htap.run` root span whose inclusive virtual time
//! equals the ledger's wall-clock delta exactly (same clock, read at the
//! same two instants).

use htapg_core::engine::StorageEngine;
use htapg_core::obs::{self, TraceReport, Tracer};
use htapg_engines::ReferenceEngine;
use htapg_exec::physical;
use htapg_workload::driver::{load_customers, run_sequential};
use htapg_workload::queries::{mixed_stream, MixConfig};
use htapg_workload::tpcc::Generator;

/// Everything the obs section produces in one run.
#[derive(Debug)]
pub struct ObsReport {
    pub engine: &'static str,
    pub seed: u64,
    /// Spans recorded (completes + instants).
    pub spans: usize,
    /// Inclusive virtual ns of the `htap.run` root span — equals the
    /// ledger wall-clock delta over the run.
    pub wall_virtual_ns: u64,
    /// Chrome trace format JSON (`chrome://tracing` / Perfetto).
    pub chrome_json: String,
    /// The engine's `explain()` rendering of the span tree.
    pub explain_text: String,
    /// Per class: (label, [p50, p95, p99]) virtual ns from the registry
    /// histograms. Classes with no observations report zeros.
    pub quantiles: Vec<(&'static str, [u64; 3])>,
    /// Registry counter deltas over the run, name-sorted.
    pub counters: Vec<(String, u64)>,
}

/// Run the traced workload. `quick` shrinks the table and stream for
/// smoke runs.
pub fn run(seed: u64, quick: bool) -> ObsReport {
    let (rows, ops) = if quick { (2_000, 400) } else { (10_000, 2_000) };
    let engine = ReferenceEngine::new();
    let clock = engine.trace_clock().expect("reference engine exposes its ledger clock");

    let gen = Generator::new(seed);
    let rel = load_customers(&engine, &gen, rows).expect("load");
    // Analytic warm-up so `maintain` delegates the balance column to the
    // device — the traced scans then do real (virtual-time) device work.
    for _ in 0..40 {
        let balance = htapg_workload::tpcc::customer_attr::C_BALANCE;
        physical::touch_column(&engine, rel, balance).expect("warm-up scan");
    }
    engine.maintain().ok();
    let cfg = MixConfig { olap_fraction: 0.1, write_fraction: 0.5, ..Default::default() };
    let stream = mixed_stream(&gen, seed.wrapping_add(1), rows, ops, &cfg);

    // Trace only the query phase: install after load so the trace is the
    // workload, not the bulk insert.
    let tracer = Tracer::new(clock.clone());
    let base = obs::metrics().snapshot();
    obs::install(tracer.clone());
    let _proc = obs::process_scope(engine.name());
    {
        let _root = obs::span("query", "htap.run");
        // Interleave background maintenance the way a real deployment
        // would: each round merges committed versions and refreshes the
        // device replicas the round's writes staled, so analytic sums
        // keep hitting the device (and charging virtual kernel time)
        // under any seed.
        for batch in stream.chunks(stream.len().div_ceil(8).max(1)) {
            run_sequential(&engine, rel, batch);
            let _m = obs::span("maintain", "engine.maintain");
            engine.maintain().ok();
        }
    }
    drop(_proc);
    obs::uninstall();
    let delta = obs::metrics().snapshot().since(&base);

    let spans = tracer.drain();
    let span_count = spans.len();
    let report = TraceReport::from_spans(spans.clone());
    let explain_text = engine.explain(&report);
    let chrome_json = obs::to_chrome_trace(spans);
    let wall_virtual_ns = report.find_root("htap.run").map(|n| n.inclusive_ns).unwrap_or(0);

    let q = |name: &str| -> [u64; 3] {
        match delta.histograms.get(name) {
            Some(h) => [h.quantile(0.5), h.quantile(0.95), h.quantile(0.99)],
            None => [0; 3],
        }
    };
    ObsReport {
        engine: engine.name(),
        seed,
        spans: span_count,
        wall_virtual_ns,
        chrome_json,
        explain_text,
        quantiles: vec![("oltp", q("query.oltp.latency_ns")), ("olap", q("query.olap.latency_ns"))],
        counters: delta.counters.iter().map(|(&k, &v)| (k.to_string(), v)).collect(),
    }
}

/// Serialize the report (minus the embedded Chrome trace, which goes to
/// its own file via `--trace`) as BENCH_obs.json.
pub fn to_json(r: &ObsReport) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"obs\",\n");
    out.push_str(&format!("  \"engine\": \"{}\",\n", r.engine));
    out.push_str(&format!("  \"seed\": {},\n", r.seed));
    out.push_str(&format!("  \"spans\": {},\n", r.spans));
    out.push_str(&format!("  \"wall_virtual_ns\": {},\n", r.wall_virtual_ns));
    out.push_str("  \"latency_ns\": {\n");
    for (i, (class, [p50, p95, p99])) in r.quantiles.iter().enumerate() {
        out.push_str(&format!(
            "    \"{class}\": {{\"p50\": {p50}, \"p95\": {p95}, \"p99\": {p99}}}{}\n",
            if i + 1 < r.quantiles.len() { "," } else { "" }
        ));
    }
    out.push_str("  },\n");
    out.push_str("  \"counters\": {\n");
    for (i, (name, v)) in r.counters.iter().enumerate() {
        out.push_str(&format!(
            "    \"{name}\": {v}{}\n",
            if i + 1 < r.counters.len() { "," } else { "" }
        ));
    }
    out.push_str("  }\n");
    out.push_str("}\n");
    out
}

/// Render the quantile table for the terminal.
pub fn render(r: &ObsReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{} spans recorded; htap.run root = {} virtual ns (== ledger wall delta)\n\n",
        r.spans, r.wall_virtual_ns
    ));
    out.push_str(&format!(
        "{:<8} {:>14} {:>14} {:>14}\n",
        "class", "p50 (vns)", "p95 (vns)", "p99 (vns)"
    ));
    for (class, [p50, p95, p99]) in &r.quantiles {
        out.push_str(&format!("{class:<8} {p50:>14} {p95:>14} {p99:>14}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_run_produces_all_artifacts() {
        let r = run(3, true);
        assert!(r.spans > 0, "traced run records spans");
        assert!(r.wall_virtual_ns > 0, "virtual wall advanced");
        assert!(r.chrome_json.starts_with("{\"traceEvents\":["));
        assert!(r.chrome_json.contains("\"htap.run\""));
        assert!(r.explain_text.contains("EXPLAIN REFERENCE"));
        assert!(r.explain_text.contains("htap.run"));
        // The reference engine ran OLTP ops; their virtual latencies landed
        // in the registry histogram.
        let oltp = r.quantiles.iter().find(|(c, _)| *c == "oltp").unwrap();
        assert!(oltp.1[0] > 0, "oltp p50 recorded");
        let json = to_json(&r);
        assert!(json.contains("\"bench\": \"obs\""));
        assert!(json.contains("\"p99\""));
        assert!(render(&r).contains("p95"));
    }
}
