//! Order statistics over latency samples, and process memory.

use htapg::core::prng::Prng;
use htapg::core::{Error, Result};

/// Latency samples kept per op kind and client.
pub const RESERVOIR: usize = 1 << 15;

/// A uniform sample of at most [`RESERVOIR`] latencies (Algorithm R). Its
/// storage is written in full when it is made, so the benchmark's own
/// footprint does not grow with the number of ops a run completes.
pub struct Reservoir {
    kept: Vec<u64>,
    len: usize,
    seen: u64,
    rng: Prng,
}

impl Reservoir {
    pub fn new(seed: u64) -> Self {
        Reservoir {
            kept: vec![u64::MAX; RESERVOIR],
            len: 0,
            seen: 0,
            rng: Prng::seed_from_u64(seed),
        }
    }

    pub fn push(&mut self, ns: u64) {
        self.seen += 1;
        if self.len < self.kept.len() {
            self.kept[self.len] = ns;
            self.len += 1;
        } else {
            let j = self.rng.gen_range(0..self.seen);
            if let Some(slot) = self.kept.get_mut(j as usize) {
                *slot = ns;
            }
        }
    }

    /// Samples offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The kept samples, in no particular order.
    pub fn samples(&self) -> &[u64] {
        &self.kept[..self.len]
    }

    /// The kept samples, ascending.
    pub fn sorted(&self) -> Vec<u64> {
        let mut s = self.samples().to_vec();
        s.sort_unstable();
        s
    }
}

/// Nearest-rank quantile `q` of `sorted` (ascending); 0 when empty.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The highest of p99 and p90 that has at least ten samples beyond it.
pub fn tail(n: usize) -> Option<(f64, &'static str)> {
    if n >= 1000 {
        Some((0.99, "p99"))
    } else if n >= 100 {
        Some((0.90, "p90"))
    } else {
        None
    }
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| Error::Internal(format!("read /proc/self/status: {e}")))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| Error::Internal("no VmHWM line in /proc/self/status".into()))?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&[7], 0.9), 7);
        assert_eq!(quantile(&[], 0.5), 0);
    }

    #[test]
    fn medians_and_means() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn reservoir_keeps_a_bounded_uniform_sample() {
        let mut r = Reservoir::new(1);
        let n = 4 * RESERVOIR as u64;
        for ns in 0..n {
            r.push(ns);
        }
        assert_eq!(r.seen(), n);
        assert_eq!(r.samples().len(), RESERVOIR);
        let p50 = quantile(&r.sorted(), 0.5) as f64;
        assert!((p50 / (n / 2) as f64 - 1.0).abs() < 0.02, "p50 {p50} of 0..{n}");
    }
}
