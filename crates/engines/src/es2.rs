//! ES² (Cao et al., 2011), the storage engine of the epiC cloud platform:
//! "First (but optional), if columns are frequently accessed together, then
//! these columns are moved into one new physical sub-relation. ... Second,
//! each such sub-relation is automatically split into further fragments
//! (called partitions) by horizontal partitioning. The latter step allows
//! to minimize the number of workers that access multiple compute nodes.
//! ... Record-centric data access is managed with distributed secondary
//! indexes." (Section IV-A4)
//!
//! The engine runs over a [`SimCluster`]: every (column-group, partition)
//! fragment is placed on a deterministic node and persisted into that
//! node's blob store as a PAX-formatted (DSM-fixed) page image. The
//! coordinator (node 0) charges interconnect time for every remote byte it
//! touches, so placement quality is visible in the cluster ledger. A
//! B+-tree secondary index on the first attribute serves record-centric
//! lookups.

use std::collections::HashMap;
use std::sync::Arc;

use htapg_core::adapt::AccessStats;
use htapg_core::engine::{visit_views, MaintenanceReport, StorageEngine};
use htapg_core::index::BPlusTree;
use htapg_core::retry::{with_retry, RetryPolicy};
use htapg_core::{
    AttrId, DataType, Error, Fragment, FragmentSpec, Linearization, Record, RelationId, Result,
    RowId, Schema, Value,
};
use htapg_device::cluster::{NodeId, SimCluster};
use htapg_taxonomy::{survey, Classification};

use crate::common::Registry;

/// Default horizontal partition size.
pub const DEFAULT_PARTITION_ROWS: u64 = 1024;

struct Es2Relation {
    rel: RelationId,
    schema: Schema,
    /// Vertical co-access groups (sub-relations).
    groups: Vec<Vec<AttrId>>,
    /// attr → group index.
    group_of: Vec<usize>,
    partition_rows: u64,
    /// Working fragments, keyed by (group, partition), tagged with their
    /// owning node.
    fragments: HashMap<(usize, u64), (NodeId, Fragment)>,
    rows: u64,
    stats: AccessStats,
    /// Distributed secondary index on attribute 0 (when integer-keyed).
    pk_index: Option<BPlusTree<i64, RowId>>,
}

impl Es2Relation {
    fn spec_for(&self, _schema: &Schema, group: usize, partition: u64) -> FragmentSpec {
        let attrs = self.groups[group].clone();
        let order = if attrs.len() > 1 { Linearization::Dsm } else { Linearization::Direct };
        FragmentSpec {
            first_row: partition * self.partition_rows,
            capacity: self.partition_rows,
            attrs,
            order: if self.partition_rows == 1 { Linearization::Direct } else { order },
        }
    }

    fn blob_key(&self, group: usize, partition: u64) -> String {
        format!("rel{}/g{}/p{}", self.rel, group, partition)
    }
}

/// The ES² engine.
/// Serialize a fragment as a length-prefixed page image.
fn blob_image(frag: &Fragment) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + frag.raw().len());
    out.extend_from_slice(&frag.len().to_le_bytes());
    out.extend_from_slice(frag.raw());
    out
}

/// Parse a length-prefixed page image.
fn blob_parse(image: &[u8]) -> Result<(u64, Vec<u8>)> {
    if image.len() < 8 {
        return Err(Error::Internal("truncated partition blob".into()));
    }
    let len = u64::from_le_bytes(image[..8].try_into().unwrap());
    Ok((len, image[8..].to_vec()))
}

pub struct Es2Engine {
    cluster: Arc<SimCluster>,
    rels: Registry<Es2Relation>,
    partition_rows: u64,
    /// The coordinator node issuing all client operations.
    coordinator: NodeId,
}

impl Es2Engine {
    pub fn new(nodes: usize) -> Self {
        Self::with_cluster(Arc::new(SimCluster::with_defaults(nodes)), DEFAULT_PARTITION_ROWS)
    }

    pub fn with_cluster(cluster: Arc<SimCluster>, partition_rows: u64) -> Self {
        Es2Engine {
            cluster,
            rels: Registry::new(),
            partition_rows: partition_rows.max(1),
            coordinator: 0,
        }
    }

    pub fn cluster(&self) -> &Arc<SimCluster> {
        &self.cluster
    }

    /// Node that owns a (group, partition) fragment.
    fn node_for(&self, rel: RelationId, group: usize, partition: u64) -> NodeId {
        self.cluster.place(&format!("rel{rel}/g{group}/p{partition}"))
    }

    /// Current column groups (tests / introspection).
    pub fn groups(&self, rel: RelationId) -> Result<Vec<Vec<AttrId>>> {
        self.rels.read(rel, |r| Ok(r.groups.clone()))
    }

    /// Record-centric lookup via the distributed secondary index.
    pub fn lookup_pk(&self, rel: RelationId, key: i64) -> Result<Option<RowId>> {
        self.rels.read(rel, |r| Ok(r.pk_index.as_ref().and_then(|ix| ix.get(&key)).copied()))
    }

    fn charge_touch(&self, node: NodeId, bytes: usize) {
        self.cluster.charge_message(node, self.coordinator, bytes);
    }

    fn persist(&self, r: &Es2Relation, group: usize, partition: u64) -> Result<()> {
        if let Some((node, frag)) = r.fragments.get(&(group, partition)) {
            self.cluster.node(*node)?.put(r.blob_key(group, partition), blob_image(frag));
        }
        Ok(())
    }

    /// Replicate every partition blob (including open ones) onto the next
    /// node, for fault tolerance. Returns the number of blobs copied.
    ///
    /// Copies travel over [`SimCluster::ship`], so dropped messages are
    /// retried with virtual backoff and down nodes are skipped (that
    /// fragment simply stays un-replicated until the node returns).
    pub fn replicate(&self, rel: RelationId) -> Result<usize> {
        let nodes = self.cluster.len() as NodeId;
        let policy = RetryPolicy::default();
        self.rels.write(rel, |r| {
            let mut copied = 0;
            // Deterministic copy order (fault sequences must be replayable
            // from a seed, so no HashMap iteration order here).
            let mut keys: Vec<(usize, u64)> = r.fragments.keys().copied().collect();
            keys.sort_unstable();
            for (group, partition) in keys {
                let (node, frag) = &r.fragments[&(group, partition)];
                let key = r.blob_key(group, partition);
                let image = blob_image(frag);
                // Refresh the primary blob (open partitions included)…
                self.cluster.node(*node)?.put(key.clone(), image.clone());
                // …and copy it to the follower, charging the interconnect.
                let follower = (*node + 1) % nodes;
                match with_retry(&policy, self.cluster.ledger(), || {
                    self.cluster.ship(*node, &key, follower)
                }) {
                    Ok(()) => copied += 1,
                    // Either endpoint down: degrade — skip this copy.
                    Err(Error::NodeUnreachable { .. }) => {}
                    Err(e) => return Err(e),
                }
            }
            Ok(copied)
        })
    }

    /// Simulate the crash of one node: evict every fragment homed there and
    /// recover it from its replica blob on the follower node. Errors if a
    /// lost partition was never replicated.
    pub fn fail_node(&self, rel: RelationId, failed: NodeId) -> Result<usize> {
        let nodes = self.cluster.len() as NodeId;
        self.rels.write(rel, |r| {
            let mut lost: Vec<(usize, u64)> = r
                .fragments
                .iter()
                .filter(|(_, (node, _))| *node == failed)
                .map(|(&k, _)| k)
                .collect();
            // Deterministic recovery order for replayable fault sequences.
            lost.sort_unstable();
            let schema = r.schema.clone();
            let mut recovered = 0;
            for (group, partition) in lost {
                let key = r.blob_key(group, partition);
                let follower = (failed + 1) % nodes;
                // Fetch the replica image to the coordinator over the
                // fault-aware path: dropped messages retry, a down follower
                // means the partition is genuinely unreachable.
                let image = with_retry(&RetryPolicy::default(), self.cluster.ledger(), || {
                    self.cluster.fetch(self.coordinator, follower, &key)
                })
                .map_err(|e| match e {
                    Error::Internal(_) => Error::Internal(format!(
                        "partition {key} lost with node {failed}: no replica on node {follower}"
                    )),
                    other => other,
                })?;
                let (len, raw) = blob_parse(&image)?;
                let spec = r.spec_for(&schema, group, partition);
                let frag = Fragment::from_raw(
                    &schema,
                    spec,
                    raw,
                    len,
                    htapg_core::Location::Node(follower),
                )?;
                r.fragments.insert((group, partition), (follower, frag));
                recovered += 1;
            }
            Ok(recovered)
        })
    }

    /// Recover every fragment homed on a node the cluster's fault plan
    /// currently marks down, promoting the follower replicas
    /// ([`Self::fail_node`] per down node). Graceful degradation for chaos
    /// runs: after healing, reads are served by the surviving replicas.
    pub fn heal_down_nodes(&self, rel: RelationId) -> Result<usize> {
        let mut recovered = 0;
        for node in 0..self.cluster.len() as NodeId {
            if self.cluster.fault_plan().is_node_down(node) {
                recovered += self.fail_node(rel, node)?;
            }
        }
        Ok(recovered)
    }

    /// Rebuild the relation's fragments under new vertical groups.
    fn regroup(&self, r: &mut Es2Relation, groups: Vec<Vec<AttrId>>) -> Result<()> {
        // Materialize all rows, then re-fragment.
        let schema = r.schema.clone();
        let mut records = Vec::with_capacity(r.rows as usize);
        for row in 0..r.rows {
            let mut rec = vec![Value::Bool(false); schema.arity()];
            for (gi, attrs) in r.groups.iter().enumerate() {
                let partition = row / r.partition_rows;
                let (_, frag) = r
                    .fragments
                    .get(&(gi, partition))
                    .ok_or_else(|| Error::Internal("missing fragment".into()))?;
                for &a in attrs {
                    rec[a as usize] = frag.read_value(&schema, row, a)?;
                }
            }
            records.push(rec);
        }
        let mut group_of = vec![0usize; schema.arity()];
        for (gi, attrs) in groups.iter().enumerate() {
            for &a in attrs {
                group_of[a as usize] = gi;
            }
        }
        r.groups = groups;
        r.group_of = group_of;
        r.fragments.clear();
        let rows = r.rows;
        r.rows = 0;
        for rec in records {
            self.append_record(r, &rec)?;
        }
        debug_assert_eq!(r.rows, rows);
        Ok(())
    }

    fn append_record(&self, r: &mut Es2Relation, record: &Record) -> Result<RowId> {
        let row = r.rows;
        let partition = row / r.partition_rows;
        let schema = r.schema.clone();
        for gi in 0..r.groups.len() {
            if !r.fragments.contains_key(&(gi, partition)) {
                let spec = r.spec_for(&schema, gi, partition);
                let node = self.node_for(r.rel, gi, partition);
                r.fragments.insert((gi, partition), (node, Fragment::new(&schema, spec)?));
            }
            let attrs = r.groups[gi].clone();
            let values: Vec<Value> = attrs.iter().map(|&a| record[a as usize].clone()).collect();
            let (node, frag) = r.fragments.get_mut(&(gi, partition)).expect("ensured");
            frag.append(&schema, &values)?;
            let node = *node;
            let width: usize = attrs.iter().map(|&a| schema.width(a).unwrap_or(8)).sum();
            self.charge_touch(node, width);
            if frag.is_full() {
                self.persist(r, gi, partition)?;
            }
        }
        if let (Some(ix), Value::Int64(k)) = (&mut r.pk_index, &record[0]) {
            ix.insert(*k, row);
        }
        r.rows += 1;
        Ok(row)
    }
}

impl StorageEngine for Es2Engine {
    fn name(&self) -> &'static str {
        "ES2"
    }

    fn trace_clock(&self) -> Option<Arc<dyn htapg_core::obs::VirtualClock>> {
        let ledger: Arc<htapg_device::CostLedger> = Arc::clone(self.cluster().ledger());
        Some(ledger)
    }

    fn classification(&self) -> Classification {
        survey::es2()
    }

    fn create_relation(&self, schema: Schema) -> Result<RelationId> {
        // Initial grouping: one sub-relation spanning the schema.
        let groups = vec![schema.attr_ids().collect::<Vec<_>>()];
        let group_of = vec![0usize; schema.arity()];
        let pk_index = match schema.ty(0)? {
            DataType::Int64 => Some(BPlusTree::new()),
            _ => None,
        };
        let stats = AccessStats::new(schema.arity());
        let rel = self.rels.add(Es2Relation {
            rel: 0,
            schema,
            groups,
            group_of,
            partition_rows: self.partition_rows,
            fragments: HashMap::new(),
            rows: 0,
            stats,
            pk_index,
        });
        self.rels.write(rel, |r| {
            r.rel = rel;
            Ok(())
        })?;
        Ok(rel)
    }

    fn schema(&self, rel: RelationId) -> Result<Schema> {
        self.rels.read(rel, |r| Ok(r.schema.clone()))
    }

    fn insert(&self, rel: RelationId, record: &Record) -> Result<RowId> {
        self.rels.write(rel, |r| {
            r.schema.check_record(record)?;
            self.append_record(r, record)
        })
    }

    fn read_record(&self, rel: RelationId, row: RowId) -> Result<Record> {
        self.rels.read(rel, |r| {
            if row >= r.rows {
                return Err(Error::UnknownRow(row));
            }
            let attrs: Vec<AttrId> = r.schema.attr_ids().collect();
            r.stats.record_point_read(&attrs, 1);
            let partition = row / r.partition_rows;
            let mut rec = vec![Value::Bool(false); r.schema.arity()];
            for (gi, group_attrs) in r.groups.iter().enumerate() {
                let (node, frag) = r
                    .fragments
                    .get(&(gi, partition))
                    .ok_or_else(|| Error::Internal("missing fragment".into()))?;
                for &a in group_attrs {
                    rec[a as usize] = frag.read_value(&r.schema, row, a)?;
                }
                self.charge_touch(*node, frag.tuplet_width());
            }
            Ok(rec)
        })
    }

    fn read_field(&self, rel: RelationId, row: RowId, attr: AttrId) -> Result<Value> {
        self.rels.read(rel, |r| {
            if row >= r.rows {
                return Err(Error::UnknownRow(row));
            }
            r.stats.record_point_read(&[attr], 1);
            let gi = *r.group_of.get(attr as usize).ok_or(Error::UnknownAttribute(attr))?;
            let partition = row / r.partition_rows;
            let (node, frag) = r
                .fragments
                .get(&(gi, partition))
                .ok_or_else(|| Error::Internal("missing fragment".into()))?;
            self.charge_touch(*node, r.schema.width(attr)?);
            frag.read_value(&r.schema, row, attr)
        })
    }

    fn update_field(&self, rel: RelationId, row: RowId, attr: AttrId, value: &Value) -> Result<()> {
        self.rels.write(rel, |r| {
            if row >= r.rows {
                return Err(Error::UnknownRow(row));
            }
            r.stats.record_update(attr);
            let gi = *r.group_of.get(attr as usize).ok_or(Error::UnknownAttribute(attr))?;
            let partition = row / r.partition_rows;
            let schema = r.schema.clone();
            let (node, frag) = r
                .fragments
                .get_mut(&(gi, partition))
                .ok_or_else(|| Error::Internal("missing fragment".into()))?;
            frag.write_value(&schema, row, attr, value)?;
            let node = *node;
            self.charge_touch(node, schema.width(attr)?);
            self.persist(r, gi, partition)
        })
    }

    /// Partitions in row order: each column's fragment of a partition is
    /// fetched to the coordinator (charged per column, as a column scan
    /// is) and served in place, one visit per partition.
    fn with_aligned_blocks(
        &self,
        rel: RelationId,
        attrs: &[AttrId],
        visit: &mut dyn FnMut(&[&[u8]]),
    ) -> Result<()> {
        self.rels.read(rel, |r| {
            let mut columns = Vec::with_capacity(attrs.len());
            for &attr in attrs {
                r.stats.record_scan(attr);
                let gi = *r.group_of.get(attr as usize).ok_or(Error::UnknownAttribute(attr))?;
                columns.push((attr, gi, r.schema.width(attr)?));
            }
            let mut bufs = Vec::new();
            for p in 0..r.rows.div_ceil(r.partition_rows) {
                let mut views = Vec::with_capacity(attrs.len());
                for &(attr, gi, width) in &columns {
                    let (node, frag) = r
                        .fragments
                        .get(&(gi, p))
                        .ok_or_else(|| Error::Internal("missing fragment".into()))?;
                    self.charge_touch(*node, frag.len() as usize * width);
                    views.push(frag.column_view(attr)?);
                }
                visit_views(&views, &mut bufs, visit);
            }
            Ok(())
        })
    }

    fn row_count(&self, rel: RelationId) -> Result<u64> {
        self.rels.read(rel, |r| Ok(r.rows))
    }

    /// Fragment re-adaption "continuously executed based on query workload
    /// traces": scan-dominated columns move into their own sub-relations.
    fn maintain(&self) -> Result<MaintenanceReport> {
        let mut report = MaintenanceReport::default();
        for handle in self.rels.all() {
            let mut r = handle.write();
            let arity = r.schema.arity();
            let hot: Vec<AttrId> = (0..arity as u16)
                .filter(|&a| {
                    let s = r.stats.scans(a);
                    let p = r.stats.point_reads(a);
                    s + p > 0 && s as f64 / (s + p) as f64 >= 0.5
                })
                .collect();
            let cold: Vec<AttrId> = (0..arity as u16).filter(|a| !hot.contains(a)).collect();
            let mut groups: Vec<Vec<AttrId>> = Vec::new();
            if !cold.is_empty() {
                groups.push(cold);
            }
            for a in &hot {
                groups.push(vec![*a]);
            }
            if groups.is_empty() {
                continue;
            }
            if groups != r.groups {
                self.regroup(&mut r, groups)?;
                r.stats.decay(0.5);
                report.layouts_reorganized += 1;
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::of(&[
            ("pk", DataType::Int64),
            ("price", DataType::Float64),
            ("a", DataType::Int32),
            ("b", DataType::Int32),
        ])
    }

    fn rec(i: i64) -> Record {
        vec![
            Value::Int64(i * 10),
            Value::Float64(i as f64),
            Value::Int32(i as i32),
            Value::Int32(-i as i32),
        ]
    }

    #[test]
    fn crud_across_partitions_and_nodes() {
        let e = Es2Engine::with_cluster(Arc::new(SimCluster::with_defaults(4)), 16);
        let rel = e.create_relation(schema()).unwrap();
        for i in 0..100 {
            e.insert(rel, &rec(i)).unwrap();
        }
        assert_eq!(e.read_record(rel, 77).unwrap(), rec(77));
        e.update_field(rel, 77, 1, &Value::Float64(0.5)).unwrap();
        assert_eq!(e.read_field(rel, 77, 1).unwrap(), Value::Float64(0.5));
        let sum = crate::testing::planned_sum(&e, rel, 2);
        assert_eq!(sum, (0..100).map(|i| i as f64).sum::<f64>());
    }

    #[test]
    fn secondary_index_answers_point_lookups() {
        let e = Es2Engine::new(3);
        let rel = e.create_relation(schema()).unwrap();
        for i in 0..50 {
            e.insert(rel, &rec(i)).unwrap();
        }
        assert_eq!(e.lookup_pk(rel, 420).unwrap(), Some(42));
        assert_eq!(e.lookup_pk(rel, 421).unwrap(), None);
    }

    #[test]
    fn remote_access_charges_the_interconnect() {
        let e = Es2Engine::with_cluster(Arc::new(SimCluster::with_defaults(4)), 8);
        let rel = e.create_relation(schema()).unwrap();
        for i in 0..64 {
            e.insert(rel, &rec(i)).unwrap();
        }
        let before = e.cluster().ledger().snapshot().network_ns;
        htapg_exec::physical::touch_column(&e, rel, 1).unwrap();
        let after = e.cluster().ledger().snapshot().network_ns;
        assert!(after > before, "scanning remote partitions must charge the network");
    }

    #[test]
    fn partitions_spread_over_nodes_and_persist() {
        let e = Es2Engine::with_cluster(Arc::new(SimCluster::with_defaults(4)), 8);
        let rel = e.create_relation(schema()).unwrap();
        for i in 0..64 {
            e.insert(rel, &rec(i)).unwrap();
        }
        let stored: usize = (0..4).map(|n| e.cluster().node(n).unwrap().blob_count()).sum();
        assert!(stored >= 8, "8 full partitions persisted: {stored}");
        let populated = (0..4).filter(|&n| e.cluster().node(n).unwrap().blob_count() > 0).count();
        assert!(populated >= 2, "placement should use multiple nodes");
    }

    #[test]
    fn workload_traces_regroup_columns() {
        let e = Es2Engine::with_cluster(Arc::new(SimCluster::with_defaults(3)), 16);
        let rel = e.create_relation(schema()).unwrap();
        for i in 0..64 {
            e.insert(rel, &rec(i)).unwrap();
        }
        assert_eq!(e.groups(rel).unwrap().len(), 1);
        for _ in 0..30 {
            htapg_exec::physical::touch_column(&e, rel, 1).unwrap();
        }
        for i in 0..30 {
            e.read_field(rel, i, 0).unwrap();
            e.read_field(rel, i, 2).unwrap();
        }
        let report = e.maintain().unwrap();
        assert_eq!(report.layouts_reorganized, 1);
        let groups = e.groups(rel).unwrap();
        assert!(groups.iter().any(|g| g == &vec![1u16]), "price isolated: {groups:?}");
        // Data survives regrouping.
        assert_eq!(e.read_record(rel, 33).unwrap(), rec(33));
        assert_eq!(e.lookup_pk(rel, 330).unwrap(), Some(33));
    }

    #[test]
    fn classification_matches_table1() {
        assert_eq!(Es2Engine::new(4).classification(), survey::es2());
    }

    #[test]
    fn replication_survives_node_failure() {
        let e = Es2Engine::with_cluster(Arc::new(SimCluster::with_defaults(3)), 8);
        let rel = e.create_relation(schema()).unwrap();
        for i in 0..50 {
            e.insert(rel, &rec(i)).unwrap();
        }
        let copied = e.replicate(rel).unwrap();
        assert!(copied >= 7, "all partitions (incl. the open one) replicated: {copied}");
        let before_net = e.cluster().ledger().snapshot().network_ns;
        assert!(before_net > 0, "replication charges the interconnect");
        // Crash node 1 and recover its partitions from the followers.
        let recovered = e.fail_node(rel, 1).unwrap();
        assert!(recovered > 0, "node 1 owned some partitions");
        // Every row is still readable, bit-exactly.
        for i in 0..50 {
            assert_eq!(e.read_record(rel, i).unwrap(), rec(i as i64));
        }
        let sum = crate::testing::planned_sum(&e, rel, 1);
        assert_eq!(sum, (0..50).map(|i| i as f64).sum::<f64>());
    }

    #[test]
    fn unreplicated_failure_is_detected() {
        let e = Es2Engine::with_cluster(Arc::new(SimCluster::with_defaults(3)), 8);
        let rel = e.create_relation(schema()).unwrap();
        for i in 0..50 {
            e.insert(rel, &rec(i)).unwrap();
        }
        // No replicate() call: losing a node that owns fragments must error
        // rather than silently serve stale data.
        let owners: std::collections::HashSet<NodeId> =
            e.rels.read(rel, |r| Ok(r.fragments.values().map(|(n, _)| *n).collect())).unwrap();
        let victim = *owners.iter().next().unwrap();
        assert!(e.fail_node(rel, victim).is_err());
    }
}
