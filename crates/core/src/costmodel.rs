//! Cache-line cost model for physical layouts.
//!
//! Section II-B: "The chosen physical record layout has a direct impact on
//! the query execution performance, since the format affects which parts of
//! the data are co-located and loaded in advance by hardware data
//! prefetchers. If data is misplaced, the penalty is (i) a cache miss ...
//! and (ii) an unnecessary loading of additional data into the cache."
//!
//! The model estimates the number of cache lines an access pattern touches
//! under a given layout template. It is used by the layout advisor
//! ([`crate::adapt`]) to compare candidate layouts, and by the ablation
//! benches to sanity-check measured trends. It deliberately models only the
//! first-order effect the paper argues from: bytes pulled through the cache
//! hierarchy.

use crate::layout::{GroupOrder, LayoutTemplate};
use crate::schema::{AttrId, Schema};

/// Cache geometry of the host platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheSpec {
    /// Cache line size in bytes.
    pub line_bytes: usize,
    /// Approximate cost (ns) of a line miss to main memory.
    pub miss_ns: f64,
    /// Approximate cost (ns) of a line that the prefetcher hides
    /// (sequential access).
    pub sequential_line_ns: f64,
}

impl Default for CacheSpec {
    /// Defaults modeled on the paper's host (i7-6700HQ): 64 B lines,
    /// ~80 ns random miss, ~4 ns per sequentially streamed line
    /// (~16 GB/s effective).
    fn default() -> Self {
        CacheSpec { line_bytes: 64, miss_ns: 80.0, sequential_line_ns: 4.0 }
    }
}

/// Width of the storage unit that co-locates `attr` in a template group.
pub(crate) fn group_stride(
    schema: &Schema,
    template: &LayoutTemplate,
    attr: AttrId,
) -> (usize, usize) {
    // Returns (stride bytes between consecutive values of attr,
    //          useful bytes of attr per stride).
    for g in &template.groups {
        if !g.attrs.contains(&attr) {
            continue;
        }
        let attr_w = schema.attr(attr).map(|a| a.ty.width()).unwrap_or(8);
        return match g.order {
            GroupOrder::ThinPerAttr => (attr_w, attr_w),
            GroupOrder::Dsm => (attr_w, attr_w),
            GroupOrder::Nsm => {
                let group_w: usize = g
                    .attrs
                    .iter()
                    .map(|&a| schema.attr(a).map(|x| x.ty.width()).unwrap_or(8))
                    .sum();
                (group_w, attr_w)
            }
        };
    }
    (schema.tuple_width(), 8)
}

/// Estimated cache lines touched by a full attribute-centric scan of `attr`
/// over `rows` rows.
pub fn scan_lines(
    schema: &Schema,
    template: &LayoutTemplate,
    attr: AttrId,
    rows: u64,
    cache: &CacheSpec,
) -> u64 {
    let (stride, _useful) = group_stride(schema, template, attr);
    // Sequential walk over `rows * stride` bytes; each line holds
    // line_bytes / stride values when stride <= line, else one value per
    // `ceil(stride / line)` lines but only the line containing the value is
    // needed when stride > line (hardware still fetches whole lines).
    let bytes = rows.saturating_mul(stride as u64);
    let line = cache.line_bytes as u64;
    if stride <= cache.line_bytes {
        bytes.div_ceil(line)
    } else {
        // One touched line per value (the rest of the tuple is skipped).
        rows
    }
}

/// Estimated nanoseconds for an attribute-centric scan (prefetch-friendly).
pub fn scan_ns(
    schema: &Schema,
    template: &LayoutTemplate,
    attr: AttrId,
    rows: u64,
    cache: &CacheSpec,
) -> f64 {
    let lines = scan_lines(schema, template, attr, rows, cache);
    let (stride, _) = group_stride(schema, template, attr);
    if stride <= cache.line_bytes {
        lines as f64 * cache.sequential_line_ns
    } else {
        // Strided access defeats the prefetcher once the stride exceeds a
        // line: charge miss latency (bounded below by streaming cost).
        lines as f64 * cache.miss_ns.max(cache.sequential_line_ns)
    }
}

/// Estimated cache lines touched materializing `attrs` of one random record.
pub fn record_lines(
    schema: &Schema,
    template: &LayoutTemplate,
    attrs: &[AttrId],
    cache: &CacheSpec,
) -> u64 {
    // Under NSM-ish grouping, attributes of the same group share lines;
    // under column layouts each attribute is its own random access.
    let mut lines = 0u64;
    for g in &template.groups {
        let touched: Vec<AttrId> = g.attrs.iter().copied().filter(|a| attrs.contains(a)).collect();
        if touched.is_empty() {
            continue;
        }
        match g.order {
            GroupOrder::Nsm => {
                // One tuplet region: contiguous bytes of the group.
                let group_w: usize = g
                    .attrs
                    .iter()
                    .map(|&a| schema.attr(a).map(|x| x.ty.width()).unwrap_or(8))
                    .sum();
                lines += group_w.div_ceil(cache.line_bytes) as u64;
            }
            GroupOrder::Dsm | GroupOrder::ThinPerAttr => {
                // One random line per touched attribute (separate column
                // locations).
                lines += touched.len() as u64;
            }
        }
    }
    lines.max(1)
}

/// Estimated nanoseconds to materialize `attrs` of one random record
/// (random misses; no prefetch help).
pub fn record_ns(
    schema: &Schema,
    template: &LayoutTemplate,
    attrs: &[AttrId],
    cache: &CacheSpec,
) -> f64 {
    record_lines(schema, template, attrs, cache) as f64 * cache.miss_ns
}

/// Expected cost of a workload mix, used by the advisor to rank templates.
///
/// `scan_weight[a]` — relative frequency of full scans of attribute `a`;
/// `record_weight` — relative frequency of full-record point reads;
/// `rows` — current table size.
pub fn workload_ns(
    schema: &Schema,
    template: &LayoutTemplate,
    scan_weight: &[f64],
    record_weight: f64,
    rows: u64,
    cache: &CacheSpec,
) -> f64 {
    let (scan, record) =
        workload_ns_split(schema, template, scan_weight, record_weight, rows, cache);
    scan + record
}

/// [`workload_ns`] with the scan and point-read contributions kept
/// apart, so callers (the calibrated advisor) can scale each half by an
/// independently learned correction factor.
pub fn workload_ns_split(
    schema: &Schema,
    template: &LayoutTemplate,
    scan_weight: &[f64],
    record_weight: f64,
    rows: u64,
    cache: &CacheSpec,
) -> (f64, f64) {
    let mut scan_total = 0.0;
    for (a, w) in scan_weight.iter().enumerate() {
        if *w > 0.0 {
            scan_total += w * scan_ns(schema, template, a as AttrId, rows, cache);
        }
    }
    let mut record_total = 0.0;
    if record_weight > 0.0 {
        let all: Vec<AttrId> = schema.attr_ids().collect();
        record_total = record_weight * record_ns(schema, template, &all, cache);
    }
    (scan_total, record_total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DataType;

    fn wide_schema() -> Schema {
        // 96-byte, 21-field record like the paper's customer table.
        let mut attrs = Vec::new();
        attrs.push(("pk", DataType::Int64));
        for _ in 0..20 {
            attrs.push(("f", DataType::Int32));
        }
        Schema::new(attrs.into_iter().map(|(n, t)| crate::schema::Attribute::new(n, t)).collect())
    }

    #[test]
    fn dsm_scans_fewer_lines_than_nsm() {
        let s = wide_schema();
        let cache = CacheSpec::default();
        let rows = 1_000_000;
        let nsm = scan_lines(&s, &LayoutTemplate::nsm(&s), 1, rows, &cache);
        let dsm = scan_lines(&s, &LayoutTemplate::dsm_emulated(&s), 1, rows, &cache);
        // 88-byte tuple vs 4-byte column: at least an order of magnitude.
        assert!(nsm > dsm * 10, "nsm={nsm} dsm={dsm}");
    }

    #[test]
    fn nsm_materializes_records_in_fewer_lines() {
        let s = wide_schema();
        let cache = CacheSpec::default();
        let all: Vec<AttrId> = s.attr_ids().collect();
        let nsm = record_lines(&s, &LayoutTemplate::nsm(&s), &all, &cache);
        let dsm = record_lines(&s, &LayoutTemplate::dsm_emulated(&s), &all, &cache);
        assert!(nsm < dsm, "nsm={nsm} dsm={dsm}");
        // 88-byte tuple spans 2 lines; 21 columns are 21 random lines.
        assert_eq!(nsm, 2);
        assert_eq!(dsm, 21);
    }

    #[test]
    fn workload_mix_crosses_over() {
        let s = wide_schema();
        let cache = CacheSpec::default();
        let rows = 100_000;
        let nsm = LayoutTemplate::nsm(&s);
        let dsm = LayoutTemplate::dsm_emulated(&s);
        let mut scan_w = vec![0.0; s.arity()];
        scan_w[1] = 1.0;
        // Pure scans: DSM wins.
        assert!(
            workload_ns(&s, &dsm, &scan_w, 0.0, rows, &cache)
                < workload_ns(&s, &nsm, &scan_w, 0.0, rows, &cache)
        );
        // Pure point reads: NSM wins.
        let zero = vec![0.0; s.arity()];
        assert!(
            workload_ns(&s, &nsm, &zero, 1.0, rows, &cache)
                < workload_ns(&s, &dsm, &zero, 1.0, rows, &cache)
        );
    }

    #[test]
    fn strided_wide_tuples_touch_one_line_per_row() {
        let s = Schema::of(&[("a", DataType::Int64), ("pad", DataType::Text(120))]);
        let cache = CacheSpec::default();
        // 128-byte tuples: scanning `a` under NSM touches one line per row.
        assert_eq!(scan_lines(&s, &LayoutTemplate::nsm(&s), 0, 1000, &cache), 1000);
    }
}
