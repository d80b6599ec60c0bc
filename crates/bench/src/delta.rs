//! The `repro delta` section: delta-shipping vs the invalidation cliff
//! under a rising write rate.
//!
//! Two identical reference engines run the same HTAP loop — `W` field
//! updates followed by one warm device sum — with delta shipping on
//! (updates append to the cache's per-column delta log, the next analytic
//! query merges them on-device) and off (any update drops the replica, the
//! next query re-uploads the full column). The virtual cost ledger
//! measures each analytic query; the sweep raises `W` and watches whether
//! warm latency stays flat (shipping) or falls off the re-upload cliff.
//!
//! Gates for CI: `latency_flat_under_writes` (warm latency at the highest
//! write rate stays within 1.5x of the no-write baseline) and
//! `delta_beats_reupload` (total bytes shipped as deltas stay below the
//! cliff side's re-upload traffic). Both sides' query results are asserted
//! bit-identical every round — shipping is a transport optimization, never
//! a semantics change.

use htapg_core::engine::StorageEngine;
use htapg_engines::ReferenceEngine;
use htapg_workload::driver::{apply_write_burst, load_items};
use htapg_workload::tpcc::{item_attr, Generator};

/// One write-rate step: warm analytic latency and transfer traffic on the
/// shipping and cliff sides.
#[derive(Debug, Clone, Copy)]
pub struct DeltaPoint {
    /// Updates applied (to distinct rows) before the measured query.
    pub writes_per_query: u64,
    /// Virtual ns of the measured analytic query with delta shipping on.
    pub ship_ns: u64,
    /// Same query with shipping off — the invalidation-cliff baseline.
    pub cliff_ns: u64,
    /// Delta pairs shipped over PCIe during the measured query (bytes).
    pub ship_delta_bytes: u64,
    /// Total PCIe traffic of the measured query on the shipping side.
    pub ship_bytes_to_device: u64,
    /// Total PCIe traffic on the cliff side (the full-column re-upload).
    pub cliff_bytes_to_device: u64,
}

/// The write-rate ladder. `quick` stops at 1024 writes/query to keep the
/// merge-vs-reupload ratio meaningful on the shrunk 200k-row table.
pub fn write_rates(quick: bool) -> Vec<u64> {
    if quick {
        vec![0, 1, 16, 128, 1024]
    } else {
        vec![0, 1, 16, 128, 1024, 4096]
    }
}

/// Standard table size for the sweep. The quick size must stay large
/// enough that the reduce kernel amortizes the fixed per-merge PCIe
/// latency (10us), or the 1.5x flatness gate measures the latency floor
/// instead of the shipping pipeline: 500k rows puts the deterministic
/// ship/baseline ratio at ~1.39 for the top quick rate.
pub fn table_rows(quick: bool) -> u64 {
    if quick {
        500_000
    } else {
        1_000_000
    }
}

/// Run the sweep at the standard geometry.
pub fn measure(seed: u64, quick: bool) -> Vec<DeltaPoint> {
    measure_with(seed, table_rows(quick), &write_rates(quick))
}

/// Run the write-rate sweep on a `rows`-row item table. Both engines see
/// identical loads and identical update streams; each rate runs one settle
/// round and one measured round so the shipping side is in its steady
/// write→merge cadence when the ledger looks at it.
pub fn measure_with(seed: u64, rows: u64, rates: &[u64]) -> Vec<DeltaPoint> {
    let gen = Generator::new(seed);
    let ship = ReferenceEngine::new();
    let cliff = ReferenceEngine::new();
    let rel_s = load_items(&ship, &gen, rows).expect("load ship table");
    let rel_c = load_items(&cliff, &gen, rows).expect("load cliff table");
    cliff.cache().set_delta_shipping(false);
    // Place the replica on both sides before anything is measured.
    let warm_s = ship.offload_sum(rel_s, item_attr::I_PRICE, None).expect("warm ship");
    let warm_c = cliff.offload_sum(rel_c, item_attr::I_PRICE, None).expect("warm cliff");
    assert_eq!(warm_s.to_bits(), warm_c.to_bits(), "warm sums must agree bit-for-bit");

    let mut points = Vec::new();
    let mut offset = 0u64;
    for &w in rates {
        let mut point = None;
        for round in 0..2u64 {
            // W updates to distinct rows, mirrored on both engines.
            apply_write_burst(&ship, rel_s, item_attr::I_PRICE, rows, offset, w, round)
                .expect("ship burst");
            apply_write_burst(&cliff, rel_c, item_attr::I_PRICE, rows, offset, w, round)
                .expect("cliff burst");
            offset += w;
            let before_s = ship.device().ledger().snapshot();
            let sum_s = ship.offload_sum(rel_s, item_attr::I_PRICE, None).expect("ship sum");
            let d_s = ship.device().ledger().snapshot().since(&before_s);
            let before_c = cliff.device().ledger().snapshot();
            let sum_c = cliff.offload_sum(rel_c, item_attr::I_PRICE, None).expect("cliff sum");
            let d_c = cliff.device().ledger().snapshot().since(&before_c);
            assert_eq!(
                sum_s.to_bits(),
                sum_c.to_bits(),
                "shipped-merge sum must be bit-identical to the re-uploaded sum \
                 (W={w}, round={round})"
            );
            // Record the second (steady-state) round.
            point = Some(DeltaPoint {
                writes_per_query: w,
                ship_ns: d_s.wall_ns,
                cliff_ns: d_c.wall_ns,
                ship_delta_bytes: d_s.delta_bytes,
                ship_bytes_to_device: d_s.bytes_to_device,
                cliff_bytes_to_device: d_c.bytes_to_device,
            });
        }
        points.push(point.expect("at least one round per rate"));
    }
    points
}

/// The headline gate: warm analytic latency at the highest write rate must
/// stay within 1.5x of the no-write warm baseline. The cliff side fails
/// this by construction once the re-upload dwarfs the kernel.
pub fn latency_flat_under_writes(points: &[DeltaPoint]) -> bool {
    let Some(base) = points.iter().find(|p| p.writes_per_query == 0) else {
        return false;
    };
    let Some(top) = points.iter().max_by_key(|p| p.writes_per_query) else {
        return false;
    };
    top.writes_per_query > 0 && (top.ship_ns as f64) <= 1.5 * (base.ns_floor() as f64)
}

impl DeltaPoint {
    /// Baseline latency with a 1ns floor so a degenerate zero-cost round
    /// cannot make the flatness gate unsatisfiable.
    fn ns_floor(&self) -> u64 {
        self.ship_ns.max(1)
    }
}

/// The traffic gate: across every write-carrying step, the shipping side's
/// delta bytes must undercut the cliff side's re-upload traffic.
pub fn delta_beats_reupload(points: &[DeltaPoint]) -> bool {
    let (mut ship, mut cliff) = (0u64, 0u64);
    for p in points.iter().filter(|p| p.writes_per_query > 0) {
        ship += p.ship_delta_bytes;
        cliff += p.cliff_bytes_to_device;
    }
    ship > 0 && cliff > 0 && ship < cliff
}

/// Render the sweep as a `BENCH_delta.json` document (hand-formatted; the
/// workspace has no JSON dependency).
pub fn to_json(seed: u64, rows: u64, points: &[DeltaPoint]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"delta_ship\",\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"rows\": {rows},\n"));
    out.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"writes_per_query\": {}, \"ship_ns\": {}, \"cliff_ns\": {}, \
             \"ship_delta_bytes\": {}, \"ship_bytes_to_device\": {}, \
             \"cliff_bytes_to_device\": {}}}{}\n",
            p.writes_per_query,
            p.ship_ns,
            p.cliff_ns,
            p.ship_delta_bytes,
            p.ship_bytes_to_device,
            p.cliff_bytes_to_device,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"latency_flat_under_writes\": {},\n",
        latency_flat_under_writes(points)
    ));
    out.push_str(&format!("  \"delta_beats_reupload\": {}\n", delta_beats_reupload(points)));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_shows_flat_ship_latency_and_cheaper_traffic() {
        // A shrunk geometry of the real sweep. At 20k rows the fixed PCIe
        // latency (10us/transfer) still dwarfs the 2us reduce, so the 1.5x
        // flatness gate only holds at the real sweep sizes — here we pin
        // the scale-independent facts: exact delta traffic, the cliff's
        // full-column re-upload, and shipping winning outright.
        let points = measure_with(1, 20_000, &[0, 8, 64]);
        assert_eq!(points.len(), 3);
        assert!(delta_beats_reupload(&points), "delta bytes must undercut re-uploads: {points:?}");
        let top = points.last().unwrap();
        // 64 distinct rows × 16-byte pairs over PCIe on the shipping side…
        assert_eq!(top.ship_delta_bytes, 64 * 16);
        assert_eq!(top.ship_bytes_to_device, 64 * 16);
        // …vs the full 8-byte-per-row column on the cliff side.
        assert_eq!(top.cliff_bytes_to_device, 20_000 * 8);
        assert!(top.ship_ns < top.cliff_ns, "shipping must beat the cliff at W=64");
    }

    #[test]
    fn no_write_rounds_move_no_bytes_on_either_side() {
        let points = measure_with(3, 10_000, &[0]);
        let p = points[0];
        assert_eq!(p.writes_per_query, 0);
        assert_eq!(p.ship_bytes_to_device, 0);
        assert_eq!(p.cliff_bytes_to_device, 0);
        assert_eq!(p.ship_delta_bytes, 0);
        assert!(p.ship_ns > 0, "the warm kernel still advances the virtual clock");
    }

    #[test]
    fn json_document_is_well_formed() {
        let points = vec![
            DeltaPoint {
                writes_per_query: 0,
                ship_ns: 100_000,
                cliff_ns: 100_000,
                ship_delta_bytes: 0,
                ship_bytes_to_device: 0,
                cliff_bytes_to_device: 0,
            },
            DeltaPoint {
                writes_per_query: 1024,
                ship_ns: 112_000,
                cliff_ns: 1_500_000,
                ship_delta_bytes: 16_384,
                ship_bytes_to_device: 16_384,
                cliff_bytes_to_device: 8_000_000,
            },
        ];
        let json = to_json(42, 1_000_000, &points);
        assert!(json.contains("\"bench\": \"delta_ship\""));
        assert!(json.contains("\"writes_per_query\": 1024"));
        assert!(json.contains("\"latency_flat_under_writes\": true"));
        assert!(json.contains("\"delta_beats_reupload\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn gates_fail_on_cliff_shaped_data() {
        // If shipping regressed to the cliff (latency blowing up with W,
        // delta traffic matching re-uploads), both gates must go red.
        let points = vec![
            DeltaPoint {
                writes_per_query: 0,
                ship_ns: 100_000,
                cliff_ns: 100_000,
                ship_delta_bytes: 0,
                ship_bytes_to_device: 0,
                cliff_bytes_to_device: 0,
            },
            DeltaPoint {
                writes_per_query: 1024,
                ship_ns: 1_500_000,
                cliff_ns: 1_500_000,
                ship_delta_bytes: 8_000_000,
                ship_bytes_to_device: 8_000_000,
                cliff_bytes_to_device: 8_000_000,
            },
        ];
        assert!(!latency_flat_under_writes(&points));
        assert!(!delta_beats_reupload(&points));
    }
}
