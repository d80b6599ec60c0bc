//! Workload tracking and layout advice — the machinery behind *responsive*
//! layout adaptability (Section III: "During runtime, a flexible storage
//! engine might react to changes in the workload and adapt fragments of a
//! certain layout").
//!
//! [`AccessStats`] records which attributes are scanned, which are co-read
//! record-centrically, and how often. [`Advisor`] turns those statistics
//! into a [`LayoutTemplate`]: co-accessed attributes are clustered into
//! NSM groups (HYRISE/H₂O style), scan-dominated attributes are broken out
//! into thin columns, and the result is ranked with the cache cost model.

use crate::sync::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::costmodel::{self, CacheSpec};
use crate::layout::{GroupOrder, LayoutTemplate, VerticalGroup};
use crate::obs;
use crate::schema::{AttrId, Schema};

/// Lock-free per-attribute counters plus a co-access matrix.
#[derive(Debug)]
pub struct AccessStats {
    arity: usize,
    /// Full-column scans per attribute.
    scans: Vec<AtomicU64>,
    /// Point (record-centric) reads per attribute.
    point_reads: Vec<AtomicU64>,
    /// Field updates per attribute.
    updates: Vec<AtomicU64>,
    /// Upper-triangular co-access counts: `co[i][j]` for `i < j` counts
    /// record reads touching both attributes.
    co_access: Mutex<Vec<Vec<u64>>>,
}

impl AccessStats {
    pub fn new(arity: usize) -> Self {
        AccessStats {
            arity,
            scans: (0..arity).map(|_| AtomicU64::new(0)).collect(),
            point_reads: (0..arity).map(|_| AtomicU64::new(0)).collect(),
            updates: (0..arity).map(|_| AtomicU64::new(0)).collect(),
            co_access: Mutex::new(vec![vec![0; arity]; arity]),
        }
    }

    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Record a full-column scan of `attr`.
    pub fn record_scan(&self, attr: AttrId) {
        if let Some(c) = self.scans.get(attr as usize) {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record a record-centric read touching `attrs`.
    pub fn record_point_read(&self, attrs: &[AttrId]) {
        for &a in attrs {
            if let Some(c) = self.point_reads.get(a as usize) {
                c.fetch_add(1, Ordering::Relaxed);
            }
        }
        if attrs.len() > 1 {
            let mut co = self.co_access.lock();
            for (i, &a) in attrs.iter().enumerate() {
                for &b in &attrs[i + 1..] {
                    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                    co[lo as usize][hi as usize] += 1;
                }
            }
        }
    }

    /// Record a field update of `attr`.
    pub fn record_update(&self, attr: AttrId) {
        if let Some(c) = self.updates.get(attr as usize) {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn scans(&self, attr: AttrId) -> u64 {
        self.scans[attr as usize].load(Ordering::Relaxed)
    }

    pub fn point_reads(&self, attr: AttrId) -> u64 {
        self.point_reads[attr as usize].load(Ordering::Relaxed)
    }

    pub fn updates(&self, attr: AttrId) -> u64 {
        self.updates[attr as usize].load(Ordering::Relaxed)
    }

    pub fn total_scans(&self) -> u64 {
        self.scans.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    pub fn total_point_reads(&self) -> u64 {
        self.point_reads.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    fn co_access_snapshot(&self) -> Vec<Vec<u64>> {
        self.co_access.lock().clone()
    }

    /// A copy of these counters with the scans of `attrs` left out: the
    /// accesses a layout serves while `attrs` are scanned from another one.
    pub fn without_scans(&self, attrs: &[AttrId]) -> AccessStats {
        let copy = |c: &AtomicU64| AtomicU64::new(c.load(Ordering::Relaxed));
        let out = AccessStats {
            arity: self.arity,
            scans: self.scans.iter().map(copy).collect(),
            point_reads: self.point_reads.iter().map(copy).collect(),
            updates: self.updates.iter().map(copy).collect(),
            co_access: Mutex::new(self.co_access_snapshot()),
        };
        for c in attrs.iter().filter_map(|&a| out.scans.get(a as usize)) {
            c.store(0, Ordering::Relaxed);
        }
        out
    }

    /// Exponentially decay all counters (so the advisor tracks workload
    /// *shifts* rather than lifetime totals).
    pub fn decay(&self, factor: f64) {
        let scale = |c: &AtomicU64| {
            let v = c.load(Ordering::Relaxed);
            c.store((v as f64 * factor) as u64, Ordering::Relaxed);
        };
        self.scans.iter().for_each(scale);
        self.point_reads.iter().for_each(scale);
        self.updates.iter().for_each(scale);
        let mut co = self.co_access.lock();
        for row in co.iter_mut() {
            for v in row.iter_mut() {
                *v = (*v as f64 * factor) as u64;
            }
        }
    }

    /// Reset all counters.
    pub fn reset(&self) {
        self.scans.iter().for_each(|c| c.store(0, Ordering::Relaxed));
        self.point_reads.iter().for_each(|c| c.store(0, Ordering::Relaxed));
        self.updates.iter().for_each(|c| c.store(0, Ordering::Relaxed));
        let mut co = self.co_access.lock();
        for row in co.iter_mut() {
            row.fill(0);
        }
    }
}

/// Configuration of the layout advisor.
#[derive(Debug, Clone)]
pub struct AdvisorConfig {
    pub cache: CacheSpec,
    /// Attributes whose scan share exceeds this fraction of their total
    /// accesses become thin columns.
    pub scan_dominance: f64,
    /// Minimum co-access affinity (relative to the busier attribute) to
    /// cluster two attributes into the same NSM group.
    pub affinity_threshold: f64,
    /// Chunk rows for the produced template (`None` = unchunked).
    pub chunk_rows: Option<u64>,
}

impl Default for AdvisorConfig {
    fn default() -> Self {
        AdvisorConfig {
            cache: CacheSpec::default(),
            scan_dominance: 0.5,
            affinity_threshold: 0.5,
            chunk_rows: None,
        }
    }
}

/// A layout recommendation with its predicted costs.
#[derive(Debug, Clone)]
pub struct Recommendation {
    pub template: LayoutTemplate,
    /// Predicted ns of the observed workload under the recommended template.
    pub predicted_ns: f64,
    /// Predicted ns under the current template (for the improvement test).
    pub current_ns: f64,
}

impl Recommendation {
    /// Fractional improvement (0.25 = 25 % cheaper than current).
    pub fn improvement(&self) -> f64 {
        if self.current_ns <= 0.0 {
            return 0.0;
        }
        1.0 - self.predicted_ns / self.current_ns
    }
}

/// The layout advisor: statistics → candidate templates → cost-ranked pick.
#[derive(Debug, Clone, Default)]
pub struct Advisor {
    pub config: AdvisorConfig,
    /// Learned cost corrections shared with the planner
    /// ([`crate::calibrate::CalibrationProfiles`]); `None` keeps
    /// predictions on the uncorrected analytic model.
    calibration: Option<std::sync::Arc<crate::calibrate::CalibrationProfiles>>,
}

impl Advisor {
    pub fn new(config: AdvisorConfig) -> Self {
        Advisor { config, calibration: None }
    }

    /// Scale future predictions by the planner's learned correction
    /// factors: scan-shaped work by the host aggregate factors,
    /// record-centric work by the point-read factor. Until a route is
    /// warmed its factor is identity, so an uncalibrated advisor is
    /// bit-identical to the default one.
    pub fn with_calibration(
        mut self,
        profiles: std::sync::Arc<crate::calibrate::CalibrationProfiles>,
    ) -> Self {
        self.calibration = Some(profiles);
        self
    }

    /// Build the greedy clustered template from statistics:
    /// scan-dominated attributes → thin columns; remaining attributes →
    /// NSM groups clustered by co-access affinity.
    pub fn cluster(&self, schema: &Schema, stats: &AccessStats) -> LayoutTemplate {
        let arity = schema.arity();
        let co = stats.co_access_snapshot();
        let mut is_thin = vec![false; arity];
        for (a, thin) in is_thin.iter_mut().enumerate() {
            let scans = stats.scans(a as AttrId);
            let points = stats.point_reads(a as AttrId);
            let total = scans + points;
            if total > 0 && (scans as f64 / total as f64) >= self.config.scan_dominance {
                *thin = true;
            }
        }
        // Greedy agglomerative clustering of the non-thin attributes.
        let mut group_of: Vec<Option<usize>> = vec![None; arity];
        let mut groups: Vec<Vec<AttrId>> = Vec::new();
        let mut order: Vec<usize> = (0..arity).filter(|&a| !is_thin[a]).collect();
        order.sort_by_key(|&a| std::cmp::Reverse(stats.point_reads(a as AttrId)));
        for a in order {
            // Find the existing group with the strongest affinity to `a`.
            let mut best: Option<(usize, f64)> = None;
            for (gi, g) in groups.iter().enumerate() {
                let affinity: u64 = g
                    .iter()
                    .map(|&b| {
                        let (lo, hi) =
                            if (a as AttrId) < b { (a, b as usize) } else { (b as usize, a) };
                        co[lo][hi]
                    })
                    .sum();
                let denom = stats.point_reads(a as AttrId).max(1) as f64 * g.len() as f64;
                let score = affinity as f64 / denom;
                if best.is_none_or(|(_, s)| score > s) {
                    best = Some((gi, score));
                }
            }
            match best {
                Some((gi, score)) if score >= self.config.affinity_threshold => {
                    groups[gi].push(a as AttrId);
                    group_of[a] = Some(gi);
                }
                _ => {
                    group_of[a] = Some(groups.len());
                    groups.push(vec![a as AttrId]);
                }
            }
        }
        let mut vgs: Vec<VerticalGroup> = Vec::new();
        for g in groups {
            let order = if g.len() == 1 { GroupOrder::ThinPerAttr } else { GroupOrder::Nsm };
            vgs.push(VerticalGroup::new(g, order));
        }
        let thin_attrs: Vec<AttrId> =
            (0..arity).filter(|&a| is_thin[a]).map(|a| a as AttrId).collect();
        if !thin_attrs.is_empty() {
            vgs.push(VerticalGroup::new(thin_attrs, GroupOrder::ThinPerAttr));
        }
        if vgs.is_empty() {
            return LayoutTemplate::nsm(schema);
        }
        LayoutTemplate::grouped(vgs, self.config.chunk_rows)
    }

    /// The attributes worth delegating to thin columns of their own beside
    /// a `primary` layout of `rows` rows: those whose scans would stop
    /// striding past more bytes of the primary than the one extra cache
    /// line ([`CacheSpec::line_bytes`]) each record read of them then
    /// touches. A column the primary already stores contiguously saves
    /// nothing, so it is never delegated.
    pub fn delegate(
        &self,
        schema: &Schema,
        stats: &AccessStats,
        primary: &LayoutTemplate,
        rows: u64,
    ) -> Vec<AttrId> {
        schema
            .attr_ids()
            .filter(|&a| {
                let (stride, width) = costmodel::group_stride(schema, primary, a);
                let skipped =
                    stats.scans(a) as f64 * rows as f64 * stride.saturating_sub(width) as f64;
                skipped > stats.point_reads(a) as f64 * self.config.cache.line_bytes as f64
            })
            .collect()
    }

    /// Predicted cost of the observed workload under `template`.
    pub fn predict_ns(
        &self,
        schema: &Schema,
        stats: &AccessStats,
        template: &LayoutTemplate,
        rows: u64,
    ) -> f64 {
        let scan_w: Vec<f64> =
            (0..schema.arity()).map(|a| stats.scans(a as AttrId) as f64).collect();
        let record_w = stats.total_point_reads() as f64 / schema.arity().max(1) as f64;
        let (scan_ns, record_ns) = costmodel::workload_ns_split(
            schema,
            template,
            &scan_w,
            record_w,
            rows,
            &self.config.cache,
        );
        match &self.calibration {
            Some(cal) => {
                let scan_f = cal
                    .mean_factor("plan.aggregate.sum", &["inline-volcano", "host-pooled-morsel"]);
                let record_f = cal.mean_factor("plan.point_read", &["inline-volcano"]);
                scan_ns * scan_f + record_ns * record_f
            }
            None => scan_ns + record_ns,
        }
    }

    /// Recommend a layout for the observed workload, comparing standard
    /// candidates (NSM, DSM-emulated) and the clustered template against the
    /// current one.
    pub fn recommend(
        &self,
        schema: &Schema,
        stats: &AccessStats,
        current: &LayoutTemplate,
        rows: u64,
    ) -> Recommendation {
        let mut span = obs::span("adapt", "adapt.recommend");
        let current_ns = self.predict_ns(schema, stats, current, rows);
        let mut candidates = vec![
            LayoutTemplate::nsm(schema),
            LayoutTemplate::dsm_emulated(schema),
            self.cluster(schema, stats),
        ];
        if let Some(chunk) = self.config.chunk_rows {
            candidates.push(LayoutTemplate::pax(schema, chunk));
        }
        let (template, predicted_ns) = candidates
            .into_iter()
            .map(|t| {
                let cost = self.predict_ns(schema, stats, &t, rows);
                (t, cost)
            })
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .expect("non-empty candidates");
        let rec = Recommendation { template, predicted_ns, current_ns };
        obs::metrics().counter("adapt.recommendations").inc();
        if span.is_recording() {
            // The AccessStats evidence that produced the advice.
            span.arg("total_scans", stats.total_scans());
            span.arg("total_point_reads", stats.total_point_reads());
            span.arg("rows", rows);
            span.arg("groups", rec.template.groups.len());
            span.arg("improvement", format!("{:.4}", rec.improvement()));
        }
        rec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DataType;

    fn schema() -> Schema {
        let mut attrs = vec![("pk", DataType::Int64), ("price", DataType::Float64)];
        for _ in 0..8 {
            attrs.push(("f", DataType::Int32));
        }
        Schema::of(&attrs)
    }

    #[test]
    fn scan_heavy_workload_recommends_columns() {
        let s = schema();
        let stats = AccessStats::new(s.arity());
        for _ in 0..1000 {
            stats.record_scan(1);
        }
        let adv = Advisor::default();
        let rec = adv.recommend(&s, &stats, &LayoutTemplate::nsm(&s), 1_000_000);
        assert!(rec.improvement() > 0.5, "improvement {}", rec.improvement());
        // The winning template stores `price` as a thin column.
        let price_group = rec.template.groups.iter().find(|g| g.attrs.contains(&1)).unwrap();
        assert!(
            price_group.order == GroupOrder::ThinPerAttr || price_group.attrs.len() == 1,
            "price should be scannable in isolation: {:?}",
            rec.template
        );
    }

    #[test]
    fn point_heavy_workload_recommends_rows() {
        let s = schema();
        let stats = AccessStats::new(s.arity());
        let all: Vec<AttrId> = s.attr_ids().collect();
        for _ in 0..1000 {
            stats.record_point_read(&all);
        }
        let adv = Advisor::default();
        let rec = adv.recommend(&s, &stats, &LayoutTemplate::dsm_emulated(&s), 1_000_000);
        assert!(rec.improvement() > 0.0);
        // All attributes cluster into one NSM group.
        assert_eq!(rec.template.groups.len(), 1);
        assert_eq!(rec.template.groups[0].order, GroupOrder::Nsm);
    }

    #[test]
    fn mixed_workload_splits_hot_scan_column_from_record_group() {
        let s = schema();
        let stats = AccessStats::new(s.arity());
        let record_attrs: Vec<AttrId> = s.attr_ids().filter(|&a| a != 1).collect();
        for _ in 0..500 {
            stats.record_scan(1);
            stats.record_point_read(&record_attrs);
        }
        let adv = Advisor::default();
        let t = adv.cluster(&s, &stats);
        // price (attr 1) must sit alone; the others must share a fat group.
        let price_alone = t.groups.iter().any(|g| {
            g.attrs == vec![1] || (g.order == GroupOrder::ThinPerAttr && g.attrs.contains(&1))
        });
        assert!(price_alone, "{t:?}");
        let fat = t.groups.iter().find(|g| g.order == GroupOrder::Nsm).unwrap();
        assert!(fat.attrs.len() >= record_attrs.len());
        t.validate(&s).unwrap();
    }

    #[test]
    fn decay_and_reset() {
        let stats = AccessStats::new(3);
        for _ in 0..100 {
            stats.record_scan(0);
            stats.record_point_read(&[1, 2]);
        }
        stats.decay(0.5);
        assert_eq!(stats.scans(0), 50);
        assert_eq!(stats.point_reads(1), 50);
        stats.reset();
        assert_eq!(stats.scans(0), 0);
        assert_eq!(stats.total_point_reads(), 0);
    }

    #[test]
    fn delegation_weighs_strided_scan_bytes_against_record_read_lines() {
        let s = schema();
        let all: Vec<AttrId> = s.attr_ids().collect();
        let (adv, nsm) = (Advisor::default(), LayoutTemplate::nsm(&s));
        // One scan of `price` over 1,000 rows of 48-B tuples strides past
        // 40 B a row: 40,000 B, the extra lines of 625 record reads.
        let stats = AccessStats::new(s.arity());
        stats.record_scan(1);
        for _ in 0..624 {
            stats.record_point_read(&all);
        }
        assert_eq!(adv.delegate(&s, &stats, &nsm, 1_000), vec![1]);
        stats.record_point_read(&all);
        assert!(adv.delegate(&s, &stats, &nsm, 1_000).is_empty());
        // A column the primary already stores contiguously saves nothing.
        for _ in 0..100 {
            stats.record_scan(1);
        }
        assert_eq!(adv.delegate(&s, &stats, &nsm, 1_000), vec![1]);
        assert!(adv.delegate(&s, &stats, &LayoutTemplate::dsm_emulated(&s), 1_000).is_empty());
    }

    #[test]
    fn without_scans_leaves_out_only_the_named_scans() {
        let stats = AccessStats::new(3);
        stats.record_scan(0);
        stats.record_scan(1);
        stats.record_point_read(&[1, 2]);
        let served = stats.without_scans(&[1]);
        assert_eq!((served.scans(0), served.scans(1)), (1, 0));
        assert_eq!((served.point_reads(1), served.point_reads(2)), (1, 1));
        assert_eq!(served.co_access_snapshot(), stats.co_access_snapshot());
        assert_eq!(stats.scans(1), 1, "the counters copied from are untouched");
    }

    #[test]
    fn cluster_template_always_validates() {
        let s = schema();
        let stats = AccessStats::new(s.arity());
        // Adversarial mixture.
        for i in 0..s.arity() {
            for _ in 0..(i * 13 % 7) {
                stats.record_scan(i as AttrId);
            }
        }
        stats.record_point_read(&[0, 3, 5]);
        stats.record_point_read(&[2, 3]);
        let t = Advisor::default().cluster(&s, &stats);
        t.validate(&s).unwrap();
    }

    #[test]
    fn calibrated_advisor_scales_predictions_by_learned_factors() {
        let s = schema();
        let stats = AccessStats::new(s.arity());
        for _ in 0..100 {
            stats.record_scan(1);
        }
        let t = LayoutTemplate::dsm_emulated(&s);
        let base = Advisor::default();
        let profiles = std::sync::Arc::new(crate::calibrate::CalibrationProfiles::new());
        let calibrated = Advisor::default().with_calibration(profiles.clone());
        // Unwarmed calibration is bit-identical to none.
        let raw = base.predict_ns(&s, &stats, &t, 100_000);
        assert_eq!(raw.to_bits(), calibrated.predict_ns(&s, &stats, &t, 100_000).to_bits());
        // Teach it "host scans run 2x the estimate" and the prediction
        // doubles; point-read factors must not leak into scan work.
        for _ in 0..8 {
            profiles.observe("plan.aggregate.sum", "inline-volcano", 1_000_000, 2_000_000);
            profiles.observe("plan.point_read", "inline-volcano", 1_000_000, 10_000_000);
        }
        let corrected = calibrated.predict_ns(&s, &stats, &t, 100_000);
        assert!((corrected / raw - 2.0).abs() < 1e-9, "corrected={corrected} raw={raw}");
    }

    #[test]
    fn empty_stats_fall_back_to_nsm_like_template() {
        let s = schema();
        let stats = AccessStats::new(s.arity());
        let t = Advisor::default().cluster(&s, &stats);
        t.validate(&s).unwrap();
    }
}
