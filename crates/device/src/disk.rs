//! `SimDisk`: an in-memory block store with a seek/bandwidth cost model.
//!
//! Substitute for the disk(s) behind PAX's buffer manager and Fractured
//! Mirrors' disk array. Pages are stored for real (in memory); every read
//! and write charges virtual time — a seek penalty for non-adjacent
//! accesses plus transfer time at the disk's bandwidth. Sequential access
//! is therefore modeled as much cheaper than random access, the property
//! both engines exploit.

use htapg_core::sync::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

use htapg_core::{Error, Result};

use crate::faults::{FaultPlan, FaultSite};
use crate::ledger::CostLedger;

/// Cost parameters of one simulated spindle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskSpec {
    /// Page size in bytes.
    pub page_bytes: usize,
    /// Seek + rotational latency for a non-adjacent access, ns.
    pub seek_ns: u64,
    /// Sustained transfer bandwidth, bytes/second.
    pub bandwidth: f64,
}

impl Default for DiskSpec {
    /// A 2010s commodity HDD: 16 KiB pages, ~8 ms seek, 150 MB/s.
    fn default() -> Self {
        DiskSpec { page_bytes: 16 * 1024, seek_ns: 8_000_000, bandwidth: 150.0e6 }
    }
}

/// Page address: (disk id, page number).
pub type PageId = u64;

#[derive(Debug)]
struct DiskState {
    pages: HashMap<PageId, Vec<u8>>,
    last_page: Option<PageId>,
    reads: u64,
    writes: u64,
    seeks: u64,
}

/// One simulated disk.
#[derive(Debug)]
pub struct SimDisk {
    id: u32,
    spec: DiskSpec,
    ledger: Arc<CostLedger>,
    faults: Arc<FaultPlan>,
    state: Mutex<DiskState>,
}

impl SimDisk {
    pub fn new(id: u32, spec: DiskSpec) -> Self {
        SimDisk {
            id,
            spec,
            ledger: Arc::new(CostLedger::new()),
            faults: FaultPlan::none(),
            state: Mutex::new(DiskState {
                pages: HashMap::new(),
                last_page: None,
                reads: 0,
                writes: 0,
                seeks: 0,
            }),
        }
    }

    /// Install a fault injector (defaults to [`FaultPlan::none`]).
    pub fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        self.faults = plan;
    }

    pub fn fault_plan(&self) -> &Arc<FaultPlan> {
        &self.faults
    }

    pub fn with_defaults(id: u32) -> Self {
        Self::new(id, DiskSpec::default())
    }

    pub fn id(&self) -> u32 {
        self.id
    }

    pub fn spec(&self) -> &DiskSpec {
        &self.spec
    }

    pub fn ledger(&self) -> &Arc<CostLedger> {
        &self.ledger
    }

    fn charge_access(&self, state: &mut DiskState, page: PageId, bytes: usize) {
        let sequential = state.last_page.is_some_and(|p| page == p + 1 || page == p);
        let mut ns = (bytes as f64 / self.spec.bandwidth * 1e9) as u64;
        if !sequential {
            ns += self.spec.seek_ns;
            state.seeks += 1;
        }
        state.last_page = Some(page);
        self.ledger.charge_disk(ns);
    }

    /// Write a full page.
    pub fn write_page(&self, page: PageId, data: &[u8]) -> Result<()> {
        if data.len() > self.spec.page_bytes {
            return Err(Error::Internal(format!(
                "page payload {} exceeds page size {}",
                data.len(),
                self.spec.page_bytes
            )));
        }
        if let Some(d) = self.faults.roll(FaultSite::DiskWrite) {
            match d.entropy % 3 {
                0 => {
                    // Latency spike: the write lands, but slowly.
                    self.ledger.charge_disk(self.spec.seek_ns.saturating_mul(10));
                    self.faults.record(FaultSite::DiskWrite, d.op, "latency-spike");
                }
                1 => {
                    // Torn page: a prefix reaches the platter, then the
                    // write fails. The stale/partial page stays visible.
                    let keep = d.pick(data.len() as u64 + 1) as usize;
                    let mut st = self.state.lock();
                    self.charge_access(&mut st, page, keep);
                    st.pages.insert(page, data[..keep].to_vec());
                    st.writes += 1;
                    self.faults.record(FaultSite::DiskWrite, d.op, "torn-write");
                    return Err(Error::Transient { site: "disk.write", fault: "torn-write" });
                }
                _ => {
                    self.faults.record(FaultSite::DiskWrite, d.op, "io-error");
                    return Err(Error::Transient { site: "disk.write", fault: "io-error" });
                }
            }
        }
        let mut st = self.state.lock();
        self.charge_access(&mut st, page, data.len());
        st.pages.insert(page, data.to_vec());
        st.writes += 1;
        Ok(())
    }

    /// Read a page previously written.
    pub fn read_page(&self, page: PageId) -> Result<Vec<u8>> {
        if let Some(d) = self.faults.roll(FaultSite::DiskRead) {
            if d.entropy & 1 == 0 {
                // Latency spike: retried sector read, then success.
                self.ledger.charge_disk(self.spec.seek_ns.saturating_mul(10));
                self.faults.record(FaultSite::DiskRead, d.op, "latency-spike");
            } else {
                self.faults.record(FaultSite::DiskRead, d.op, "io-error");
                return Err(Error::Transient { site: "disk.read", fault: "io-error" });
            }
        }
        let mut st = self.state.lock();
        let data = st
            .pages
            .get(&page)
            .cloned()
            .ok_or_else(|| Error::Internal(format!("disk {} has no page {}", self.id, page)))?;
        self.charge_access(&mut st, page, data.len());
        st.reads += 1;
        Ok(data)
    }

    pub fn contains(&self, page: PageId) -> bool {
        self.state.lock().pages.contains_key(&page)
    }

    pub fn page_count(&self) -> usize {
        self.state.lock().pages.len()
    }

    /// (reads, writes, seeks) since creation.
    pub fn io_stats(&self) -> (u64, u64, u64) {
        let st = self.state.lock();
        (st.reads, st.writes, st.seeks)
    }
}

/// A fixed array of disks with page striping — Fractured Mirrors'
/// substrate ("the pages of both fragments are distributed on disks such
/// that each disk holds a copy of the relation but both fragments are
/// equally represented on all disks").
#[derive(Debug)]
pub struct DiskArray {
    disks: Vec<SimDisk>,
}

impl DiskArray {
    pub fn new(n: usize, spec: DiskSpec) -> Self {
        DiskArray { disks: (0..n).map(|i| SimDisk::new(i as u32, spec)).collect() }
    }

    pub fn len(&self) -> usize {
        self.disks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.disks.is_empty()
    }

    pub fn disk(&self, i: usize) -> &SimDisk {
        &self.disks[i]
    }

    /// Install one fault injector on every disk in the array.
    pub fn set_fault_plan(&mut self, plan: &Arc<FaultPlan>) {
        for d in &mut self.disks {
            d.set_fault_plan(plan.clone());
        }
    }

    /// The disk a page of a given stripe lands on: round-robin with an
    /// offset per stripe, so two mirrored stripes are "equally represented
    /// on all disks" but never co-located page-for-page.
    pub fn place(&self, stripe: u32, page: PageId) -> &SimDisk {
        let n = self.disks.len() as u64;
        let idx = (page + stripe as u64) % n;
        &self.disks[idx as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_missing_page() {
        let d = SimDisk::with_defaults(0);
        d.write_page(3, b"hello").unwrap();
        assert_eq!(d.read_page(3).unwrap(), b"hello");
        assert!(d.read_page(4).is_err());
        assert_eq!(d.page_count(), 1);
    }

    #[test]
    fn sequential_cheaper_than_random() {
        let spec = DiskSpec::default();
        let page = vec![0u8; spec.page_bytes];
        let seq = SimDisk::new(0, spec);
        for p in 0..64 {
            seq.write_page(p, &page).unwrap();
        }
        let rand = SimDisk::new(1, spec);
        for p in 0..64u64 {
            rand.write_page(p.wrapping_mul(2654435761) % 1_000_003, &page).unwrap();
        }
        let seq_ns = seq.ledger().snapshot().disk_ns;
        let rand_ns = rand.ledger().snapshot().disk_ns;
        assert!(rand_ns > seq_ns * 5, "seq={seq_ns} rand={rand_ns}");
        let (_, _, seeks) = seq.io_stats();
        assert_eq!(seeks, 1, "one initial seek, then sequential");
    }

    #[test]
    fn oversized_page_rejected() {
        let d = SimDisk::with_defaults(0);
        let too_big = vec![0u8; d.spec().page_bytes + 1];
        assert!(d.write_page(0, &too_big).is_err());
    }

    #[test]
    fn array_stripes_mirrors_apart() {
        let arr = DiskArray::new(4, DiskSpec::default());
        for page in 0..16u64 {
            let d0 = arr.place(0, page).id();
            let d1 = arr.place(1, page).id();
            assert_ne!(d0, d1, "mirrored page {page} must live on different disks");
        }
        // Each stripe is spread evenly.
        let mut counts = [0; 4];
        for page in 0..16u64 {
            counts[arr.place(0, page).id() as usize] += 1;
        }
        assert_eq!(counts, [4, 4, 4, 4]);
    }
}
