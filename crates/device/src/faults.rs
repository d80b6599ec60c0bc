//! `FaultPlan`: seeded, deterministic fault injection for every simulated
//! substrate.
//!
//! Real storage engines earn their keep when hardware misbehaves; the
//! simulated substrates were, until this module, implausibly perfect. A
//! [`FaultPlan`] wraps every simulated operation — disk reads/writes,
//! cluster sends, device transfers/allocations, kernel launches, WAL
//! appends — with a per-site probability roll driven by a counter-based
//! PRNG: the decision for the `n`-th operation at a site is
//! `splitmix64(seed ^ site_salt ^ n)`, so the same seed always yields the
//! same fault sequence regardless of wall-clock timing.
//!
//! Disabled plans ([`FaultPlan::none`], the default everywhere) cost one
//! predictable branch per operation — no locks, no allocation, no atomics
//! on the fault-free hot path.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use htapg_core::prng::splitmix64;
use htapg_core::sync::{Mutex, RwLock};
use htapg_core::wal::LogStorage;
use htapg_core::{Error, Result};

/// Every operation class a [`FaultPlan`] can interpose on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// `SimDisk::read_page`.
    DiskRead = 0,
    /// `SimDisk::write_page`.
    DiskWrite = 1,
    /// `SimCluster::ship` / `SimCluster::fetch`.
    ClusterSend = 2,
    /// `SimDevice` host↔device copies (`write`, `download`, `read_at`).
    DeviceTransfer = 3,
    /// `SimDevice::alloc` (spurious out-of-memory).
    DeviceAlloc = 4,
    /// `simt::Executor` launches.
    KernelLaunch = 5,
    /// WAL appends through [`FaultyStorage`].
    WalAppend = 6,
}

impl FaultSite {
    pub const ALL: [FaultSite; 7] = [
        FaultSite::DiskRead,
        FaultSite::DiskWrite,
        FaultSite::ClusterSend,
        FaultSite::DeviceTransfer,
        FaultSite::DeviceAlloc,
        FaultSite::KernelLaunch,
        FaultSite::WalAppend,
    ];

    pub fn name(self) -> &'static str {
        match self {
            FaultSite::DiskRead => "disk.read",
            FaultSite::DiskWrite => "disk.write",
            FaultSite::ClusterSend => "cluster.send",
            FaultSite::DeviceTransfer => "device.transfer",
            FaultSite::DeviceAlloc => "device.alloc",
            FaultSite::KernelLaunch => "device.launch",
            FaultSite::WalAppend => "wal.append",
        }
    }

    /// Per-site stream separator so two sites never share a decision
    /// stream even under the same seed.
    fn salt(self) -> u64 {
        splitmix64(0xFA_17_5A_17 ^ (self as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// Per-site fault probabilities in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    pub disk_read: f64,
    pub disk_write: f64,
    pub cluster_send: f64,
    pub device_transfer: f64,
    pub device_alloc: f64,
    pub kernel_launch: f64,
    pub wal_append: f64,
}

impl FaultRates {
    /// The same probability at every site.
    pub fn uniform(p: f64) -> Self {
        FaultRates {
            disk_read: p,
            disk_write: p,
            cluster_send: p,
            device_transfer: p,
            device_alloc: p,
            kernel_launch: p,
            wal_append: p,
        }
    }

    /// No faults anywhere.
    pub fn none() -> Self {
        Self::uniform(0.0)
    }

    fn get(&self, site: FaultSite) -> f64 {
        match site {
            FaultSite::DiskRead => self.disk_read,
            FaultSite::DiskWrite => self.disk_write,
            FaultSite::ClusterSend => self.cluster_send,
            FaultSite::DeviceTransfer => self.device_transfer,
            FaultSite::DeviceAlloc => self.device_alloc,
            FaultSite::KernelLaunch => self.kernel_launch,
            FaultSite::WalAppend => self.wal_append,
        }
    }
}

/// A positive fault decision: which operation fired plus a derived entropy
/// word the injection site uses to pick a fault flavor deterministically.
#[derive(Debug, Clone, Copy)]
pub struct FaultDraw {
    /// Zero-based index of the operation at its site.
    pub op: u64,
    /// Deterministic entropy for flavor/extent choices.
    pub entropy: u64,
}

impl FaultDraw {
    /// A deterministic value in `0..n` (n > 0), derived from the entropy by
    /// widening multiply (no modulo bias).
    pub fn pick(&self, n: u64) -> u64 {
        ((self.entropy as u128 * n as u128) >> 64) as u64
    }
}

/// One injected fault, for reproducibility reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    pub site: FaultSite,
    /// Which operation at the site (zero-based) the fault hit.
    pub op: u64,
    /// Flavor tag, e.g. `"torn-write"`, `"io-error"`, `"latency-spike"`.
    pub kind: &'static str,
}

/// The seeded, deterministic fault injector.
///
/// Shared (`Arc`) between a test harness and the substrates it wants to
/// shake. All decisions derive from `seed` and per-site operation
/// counters, so a failing run is reproducible from its seed alone.
#[derive(Debug)]
pub struct FaultPlan {
    enabled: bool,
    seed: u64,
    /// `p * 2^64` per site: a fault fires when the 64-bit roll is below it.
    thresholds: [u64; 7],
    counters: [AtomicU64; 7],
    has_down_nodes: AtomicBool,
    down_nodes: RwLock<Vec<u32>>,
    history: Mutex<Vec<FaultEvent>>,
}

fn threshold(p: f64) -> u64 {
    if p <= 0.0 {
        0
    } else if p >= 1.0 {
        u64::MAX
    } else {
        (p * (u64::MAX as f64 + 1.0)) as u64
    }
}

impl FaultPlan {
    /// A disabled plan: every roll is a single always-false branch.
    pub fn none() -> Arc<FaultPlan> {
        Arc::new(FaultPlan {
            enabled: false,
            seed: 0,
            thresholds: [0; 7],
            counters: Default::default(),
            has_down_nodes: AtomicBool::new(false),
            down_nodes: RwLock::new(Vec::new()),
            history: Mutex::new(Vec::new()),
        })
    }

    /// A plan injecting faults at `rates`, fully determined by `seed`.
    pub fn seeded(seed: u64, rates: FaultRates) -> Arc<FaultPlan> {
        let mut thresholds = [0u64; 7];
        for site in FaultSite::ALL {
            thresholds[site as usize] = threshold(rates.get(site));
        }
        Arc::new(FaultPlan {
            enabled: true,
            seed,
            thresholds,
            counters: Default::default(),
            has_down_nodes: AtomicBool::new(false),
            down_nodes: RwLock::new(Vec::new()),
            history: Mutex::new(Vec::new()),
        })
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Decide whether the next operation at `site` faults. `None` means
    /// proceed normally. The disabled path is a single branch.
    #[inline]
    pub fn roll(&self, site: FaultSite) -> Option<FaultDraw> {
        if !self.enabled {
            return None;
        }
        self.roll_enabled(site)
    }

    fn roll_enabled(&self, site: FaultSite) -> Option<FaultDraw> {
        let i = site as usize;
        let op = self.counters[i].fetch_add(1, Ordering::Relaxed);
        let roll = splitmix64(self.seed ^ site.salt() ^ op);
        if roll < self.thresholds[i] {
            Some(FaultDraw { op, entropy: splitmix64(roll) })
        } else {
            None
        }
    }

    /// Record an injected fault (called by the site that decided the
    /// flavor). Only ever reached on the faulting path.
    pub fn record(&self, site: FaultSite, op: u64, kind: &'static str) {
        self.history.lock().push(FaultEvent { site, op, kind });
    }

    /// Everything injected so far, in order.
    pub fn history(&self) -> Vec<FaultEvent> {
        self.history.lock().clone()
    }

    /// The fault sequence as one line per event — the canonical form the
    /// chaos suite compares byte-for-byte across runs of the same seed.
    pub fn history_string(&self) -> String {
        let mut out = String::new();
        for ev in self.history.lock().iter() {
            out.push_str(ev.site.name());
            out.push('#');
            out.push_str(&ev.op.to_string());
            out.push(' ');
            out.push_str(ev.kind);
            out.push('\n');
        }
        out
    }

    /// Operations rolled at `site` so far.
    pub fn ops_at(&self, site: FaultSite) -> u64 {
        self.counters[site as usize].load(Ordering::Relaxed)
    }

    /// Take a node offline: cluster operations touching it fail with
    /// [`Error::NodeUnreachable`] until [`FaultPlan::mark_node_up`].
    /// Works on any plan, including rate-zero ones.
    pub fn mark_node_down(&self, node: u32) {
        let mut down = self.down_nodes.write();
        if !down.contains(&node) {
            down.push(node);
        }
        self.has_down_nodes.store(true, Ordering::Release);
    }

    /// Bring a node back online.
    pub fn mark_node_up(&self, node: u32) {
        let mut down = self.down_nodes.write();
        down.retain(|&n| n != node);
        self.has_down_nodes.store(!down.is_empty(), Ordering::Release);
    }

    /// Whether `node` is currently marked down. Lock-free when no node has
    /// been taken down.
    pub fn is_node_down(&self, node: u32) -> bool {
        self.has_down_nodes.load(Ordering::Acquire) && self.down_nodes.read().contains(&node)
    }

    /// Fail if `node` is down — the guard cluster operations call first.
    pub fn check_node(&self, node: u32) -> Result<()> {
        if self.is_node_down(node) {
            Err(Error::NodeUnreachable { node })
        } else {
            Ok(())
        }
    }
}

/// [`LogStorage`] wrapper that injects torn and failed appends.
///
/// Torn appends persist a strict prefix of the frame before failing — the
/// classic torn-page crash shape the WAL's CRC framing must survive.
#[derive(Debug)]
pub struct FaultyStorage<S> {
    inner: S,
    plan: Arc<FaultPlan>,
}

impl<S> FaultyStorage<S> {
    pub fn new(inner: S, plan: Arc<FaultPlan>) -> Self {
        FaultyStorage { inner, plan }
    }

    pub fn plan(&self) -> &Arc<FaultPlan> {
        &self.plan
    }

    pub fn inner(&self) -> &S {
        &self.inner
    }

    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: LogStorage> LogStorage for FaultyStorage<S> {
    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        if let Some(d) = self.plan.roll(FaultSite::WalAppend) {
            if d.entropy & 1 == 0 && !bytes.is_empty() {
                // Tear: a strict prefix reaches storage, then the write
                // "fails". The caller sees an error; the log holds garbage.
                let keep = d.pick(bytes.len() as u64) as usize;
                self.inner.append(&bytes[..keep])?;
                self.plan.record(FaultSite::WalAppend, d.op, "torn-append");
                return Err(Error::Transient { site: "wal.append", fault: "torn-append" });
            }
            self.plan.record(FaultSite::WalAppend, d.op, "io-error");
            return Err(Error::Transient { site: "wal.append", fault: "io-error" });
        }
        self.inner.append(bytes)
    }

    fn read_all(&mut self) -> Result<Vec<u8>> {
        self.inner.read_all()
    }

    fn storage_len(&mut self) -> Result<u64> {
        self.inner.storage_len()
    }

    fn truncate_to(&mut self, len: u64) -> Result<()> {
        self.inner.truncate_to(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htapg_core::wal::MemStorage;

    #[test]
    fn disabled_plan_never_faults() {
        let plan = FaultPlan::none();
        for site in FaultSite::ALL {
            for _ in 0..1000 {
                assert!(plan.roll(site).is_none());
            }
        }
        assert!(plan.history().is_empty());
    }

    #[test]
    fn same_seed_same_sequence() {
        let a = FaultPlan::seeded(42, FaultRates::uniform(0.2));
        let b = FaultPlan::seeded(42, FaultRates::uniform(0.2));
        for _ in 0..500 {
            for site in FaultSite::ALL {
                let (da, db) = (a.roll(site), b.roll(site));
                match (da, db) {
                    (None, None) => {}
                    (Some(x), Some(y)) => {
                        assert_eq!(x.op, y.op);
                        assert_eq!(x.entropy, y.entropy);
                    }
                    other => panic!("diverged: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::seeded(1, FaultRates::uniform(0.3));
        let b = FaultPlan::seeded(2, FaultRates::uniform(0.3));
        let seq = |p: &FaultPlan| -> Vec<bool> {
            (0..200).map(|_| p.roll(FaultSite::DiskRead).is_some()).collect()
        };
        assert_ne!(seq(&a), seq(&b));
    }

    #[test]
    fn fault_rate_is_approximately_honored() {
        let plan = FaultPlan::seeded(7, FaultRates::uniform(0.1));
        let n = 20_000;
        let hits = (0..n).filter(|_| plan.roll(FaultSite::KernelLaunch).is_some()).count();
        let rate = hits as f64 / n as f64;
        assert!((0.08..0.12).contains(&rate), "rate {rate}");
    }

    #[test]
    fn rate_edges() {
        let never = FaultPlan::seeded(3, FaultRates::uniform(0.0));
        assert!((0..1000).all(|_| never.roll(FaultSite::DiskWrite).is_none()));
        let always = FaultPlan::seeded(3, FaultRates::uniform(1.0));
        // p = 1.0 maps to u64::MAX: all but the single max roll fire.
        let hits = (0..1000).filter(|_| always.roll(FaultSite::DiskWrite).is_some()).count();
        assert!(hits >= 999);
    }

    #[test]
    fn down_nodes_toggle() {
        let plan = FaultPlan::none();
        assert!(plan.check_node(2).is_ok());
        plan.mark_node_down(2);
        assert!(plan.is_node_down(2));
        assert!(!plan.is_node_down(1));
        assert!(matches!(plan.check_node(2), Err(Error::NodeUnreachable { node: 2 })));
        plan.mark_node_up(2);
        assert!(plan.check_node(2).is_ok());
    }

    #[test]
    fn history_string_is_stable() {
        let plan = FaultPlan::seeded(9, FaultRates::uniform(1.0));
        let d = plan.roll(FaultSite::DiskRead).unwrap();
        plan.record(FaultSite::DiskRead, d.op, "io-error");
        assert_eq!(plan.history_string(), "disk.read#0 io-error\n");
    }

    #[test]
    fn faulty_storage_tears_and_recovers_prefix() {
        let plan = FaultPlan::seeded(11, FaultRates { wal_append: 1.0, ..FaultRates::none() });
        let mut st = FaultyStorage::new(MemStorage::new(), plan.clone());
        let payload = vec![0xABu8; 64];
        // Every append faults; some tear (prefix lands), some drop cleanly.
        let mut wrote_any = false;
        for _ in 0..32 {
            let before = st.inner().len();
            assert!(st.append(&payload).is_err());
            let after = st.inner().len();
            assert!(after - before < payload.len(), "never a full append");
            wrote_any |= after > before;
        }
        assert!(wrote_any, "expected at least one torn prefix in 32 tries");
        assert!(!plan.history().is_empty());
    }
}
