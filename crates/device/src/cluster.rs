//! `SimCluster`: in-process shared-nothing nodes with an interconnect cost
//! model — the substrate for ES² (Section IV-A4), whose storage engine
//! places partitions "intentionally at a certain node" to "minimize the
//! number of workers that access multiple compute nodes".
//!
//! Each node owns a private key→bytes store (stand-in for its slice of the
//! distributed file system). Local operations are free; cross-node messages
//! charge latency + size/bandwidth to the cluster ledger, so placement
//! quality is measurable.

use htapg_core::sync::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

use htapg_core::{Error, Result};

use crate::faults::{FaultPlan, FaultSite};
use crate::ledger::CostLedger;

/// Interconnect cost parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetSpec {
    /// One-way message latency, ns.
    pub latency_ns: u64,
    /// Link bandwidth, bytes/second.
    pub bandwidth: f64,
}

impl Default for NetSpec {
    /// Data-center Ethernet: 100 µs latency, 1 GbE effective ~100 MB/s.
    fn default() -> Self {
        NetSpec { latency_ns: 100_000, bandwidth: 100.0e6 }
    }
}

pub type NodeId = u32;

/// One shared-nothing node: a private blob store.
#[derive(Debug, Default)]
pub struct Node {
    blobs: Mutex<HashMap<String, Vec<u8>>>,
}

impl Node {
    pub fn put(&self, key: impl Into<String>, bytes: Vec<u8>) {
        self.blobs.lock().insert(key.into(), bytes);
    }

    pub fn get(&self, key: &str) -> Option<Vec<u8>> {
        self.blobs.lock().get(key).cloned()
    }

    pub fn remove(&self, key: &str) -> Option<Vec<u8>> {
        self.blobs.lock().remove(key)
    }

    pub fn keys(&self) -> Vec<String> {
        self.blobs.lock().keys().cloned().collect()
    }

    pub fn blob_count(&self) -> usize {
        self.blobs.lock().len()
    }

    pub fn used_bytes(&self) -> usize {
        self.blobs.lock().values().map(Vec::len).sum()
    }
}

/// A fixed-membership cluster of nodes plus the interconnect ledger.
#[derive(Debug)]
pub struct SimCluster {
    nodes: Vec<Node>,
    net: NetSpec,
    ledger: Arc<CostLedger>,
    faults: Arc<FaultPlan>,
}

impl SimCluster {
    pub fn new(n: usize, net: NetSpec) -> Self {
        assert!(n > 0, "cluster needs at least one node");
        SimCluster {
            nodes: (0..n).map(|_| Node::default()).collect(),
            net,
            ledger: Arc::new(CostLedger::new()),
            faults: FaultPlan::none(),
        }
    }

    /// Install a fault injector (defaults to [`FaultPlan::none`]). The
    /// plan's down-node set governs [`Error::NodeUnreachable`] failures.
    pub fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        self.faults = plan;
    }

    pub fn fault_plan(&self) -> &Arc<FaultPlan> {
        &self.faults
    }

    pub fn with_defaults(n: usize) -> Self {
        Self::new(n, NetSpec::default())
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub fn ledger(&self) -> &Arc<CostLedger> {
        &self.ledger
    }

    pub fn net(&self) -> &NetSpec {
        &self.net
    }

    /// The interconnect price list in the planner's vocabulary, so the
    /// router charges cross-node movement exactly like PCIe: latency +
    /// bytes/bandwidth (core cannot depend on this crate).
    pub fn net_cost_profile(&self) -> htapg_core::plan::NetCostProfile {
        htapg_core::plan::NetCostProfile {
            latency_ns: self.net.latency_ns,
            bandwidth: self.net.bandwidth,
        }
    }

    pub fn node(&self, id: NodeId) -> Result<&Node> {
        self.nodes.get(id as usize).ok_or(Error::UnknownDevice(id))
    }

    /// Charge a message of `bytes` from `from` to `to` (free if same node).
    pub fn charge_message(&self, from: NodeId, to: NodeId, bytes: usize) {
        if from == to {
            return;
        }
        let ns = self.net.latency_ns + (bytes as f64 / self.net.bandwidth * 1e9) as u64;
        self.ledger.charge_network(ns);
        self.ledger.record_network_bytes(bytes as u64);
    }

    /// Send a message whose flight time overlaps other traffic (scatter
    /// RPCs to different nodes fly concurrently): rolls the fault plan and
    /// node health like [`ship`](Self::ship), charges the `net` category
    /// *without* advancing the wall, and returns the message's virtual ns
    /// so the caller can settle the wall with the `max` across concurrent
    /// round trips. Same-node sends are free and return 0.
    pub fn send_overlapped(&self, from: NodeId, to: NodeId, bytes: usize) -> Result<u64> {
        self.faults.check_node(from)?;
        self.faults.check_node(to)?;
        self.roll_send(from, to)?;
        if from == to {
            return Ok(0);
        }
        let ns = self.net.latency_ns + (bytes as f64 / self.net.bandwidth * 1e9) as u64;
        self.ledger.charge_network_overlapped(ns);
        self.ledger.record_network_bytes(bytes as u64);
        Ok(ns)
    }

    /// Inject a cross-node message fault, if the plan says so: either the
    /// message is dropped (transient) or it merely stalls (latency charged,
    /// then delivered). Same-node traffic never faults.
    fn roll_send(&self, from: NodeId, to: NodeId) -> Result<()> {
        if from == to {
            return Ok(());
        }
        if let Some(d) = self.faults.roll(FaultSite::ClusterSend) {
            if d.entropy & 1 == 0 {
                self.ledger.charge_network(self.net.latency_ns.saturating_mul(20));
                self.faults.record(FaultSite::ClusterSend, d.op, "latency-spike");
            } else {
                self.faults.record(FaultSite::ClusterSend, d.op, "msg-drop");
                return Err(Error::Transient { site: "cluster.send", fault: "msg-drop" });
            }
        }
        Ok(())
    }

    /// Ship a blob from one node to another (copies the data, charges the
    /// message).
    pub fn ship(&self, from: NodeId, key: &str, to: NodeId) -> Result<()> {
        self.faults.check_node(from)?;
        self.faults.check_node(to)?;
        self.roll_send(from, to)?;
        let data = self
            .node(from)?
            .get(key)
            .ok_or_else(|| Error::Internal(format!("node {from} has no blob {key}")))?;
        self.charge_message(from, to, data.len());
        self.node(to)?.put(key, data);
        Ok(())
    }

    /// Fetch a remote blob to the coordinator (node `at` asks node `from`).
    pub fn fetch(&self, at: NodeId, from: NodeId, key: &str) -> Result<Vec<u8>> {
        self.faults.check_node(from)?;
        self.roll_send(from, at)?;
        let data = self
            .node(from)?
            .get(key)
            .ok_or_else(|| Error::Internal(format!("node {from} has no blob {key}")))?;
        self.charge_message(from, at, data.len());
        Ok(data)
    }

    /// Hash-place a key onto a node (ES²'s horizontal partition placement).
    pub fn place(&self, key: &str) -> NodeId {
        let mut h = 0xcbf29ce484222325u64;
        for b in key.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        (h % self.nodes.len() as u64) as NodeId
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_ops_are_free() {
        let c = SimCluster::with_defaults(3);
        c.node(0).unwrap().put("a", vec![1, 2, 3]);
        c.charge_message(1, 1, 1 << 20);
        assert_eq!(c.ledger().snapshot().network_ns, 0);
        assert_eq!(c.node(0).unwrap().get("a"), Some(vec![1, 2, 3]));
    }

    #[test]
    fn cross_node_messages_charge() {
        let c = SimCluster::with_defaults(3);
        c.node(0).unwrap().put("x", vec![0u8; 1 << 20]);
        c.ship(0, "x", 2).unwrap();
        let ns = c.ledger().snapshot().network_ns;
        // 1 MiB at 100 MB/s ≈ 10.5 ms plus latency.
        assert!(ns > 10_000_000, "got {ns}");
        assert_eq!(c.node(2).unwrap().get("x").unwrap().len(), 1 << 20);
    }

    #[test]
    fn fetch_returns_and_charges() {
        let c = SimCluster::with_defaults(2);
        c.node(1).unwrap().put("k", vec![9; 100]);
        let data = c.fetch(0, 1, "k").unwrap();
        assert_eq!(data.len(), 100);
        assert!(c.ledger().snapshot().network_ns >= c.net.latency_ns);
        assert!(c.fetch(0, 1, "missing").is_err());
    }

    #[test]
    fn placement_is_deterministic_and_spread() {
        let c = SimCluster::with_defaults(4);
        let mut counts = [0usize; 4];
        for i in 0..400 {
            let key = format!("partition-{i}");
            let n = c.place(&key);
            assert_eq!(n, c.place(&key));
            counts[n as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c > 50), "skewed placement: {counts:?}");
    }

    #[test]
    fn unknown_node_errors() {
        let c = SimCluster::with_defaults(1);
        assert!(c.node(5).is_err());
    }

    #[test]
    fn overlapped_sends_charge_net_but_not_wall() {
        let c = SimCluster::with_defaults(3);
        let a = c.send_overlapped(0, 1, 1000).unwrap();
        let b = c.send_overlapped(0, 2, 2000).unwrap();
        assert!(b > a, "bigger payload, longer flight");
        let s = c.ledger().snapshot();
        assert_eq!(s.network_ns, a + b);
        assert_eq!(s.network_bytes, 3000);
        assert_eq!(s.wall_ns, 0, "caller settles the wall at the gather");
        assert_eq!(c.send_overlapped(1, 1, 4096).unwrap(), 0, "same-node sends are free");
        assert_eq!(c.ledger().snapshot().network_bytes, 3000);
    }

    #[test]
    fn net_cost_profile_matches_charges() {
        let c = SimCluster::with_defaults(2);
        let p = c.net_cost_profile();
        let ns = c.send_overlapped(0, 1, 1 << 16).unwrap();
        assert_eq!(ns, p.transfer_ns(1 << 16));
    }

    #[test]
    fn charge_message_counts_bytes() {
        let c = SimCluster::with_defaults(2);
        c.charge_message(0, 1, 512);
        assert_eq!(c.ledger().snapshot().network_bytes, 512);
    }
}
