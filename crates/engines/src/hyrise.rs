//! HYRISE (Grund et al., 2010): "a relation in HYRISE is laid out by n
//! sub-relations which are called containers ... each sub-relation can be
//! formatted using NSM or DSM ... HYRISE supports an automatic re-adapting
//! of per-sub-partition widths. Therefore, the storage engine in HYRISE is
//! responsive to workload changes." (Section IV-A3)
//!
//! Containers are vertical groups of a single layout (weak flexible).
//! Every operation feeds [`AccessStats`]; [`StorageEngine::maintain`] asks
//! the advisor for a better container partitioning and rebuilds the layout
//! when the predicted improvement clears a threshold.

use htapg_core::adapt::{AccessStats, Advisor, AdvisorConfig};
use htapg_core::engine::{MaintenanceReport, StorageEngine};
use htapg_core::{
    AccessHint, AttrId, LayoutTemplate, Record, Relation, RelationId, Result, RowId, Schema, Value,
};
use htapg_taxonomy::{survey, Classification};

use crate::common::Registry;

struct HyriseRelation {
    relation: Relation,
    stats: AccessStats,
}

/// The HYRISE engine: responsive vertical containers.
pub struct HyriseEngine {
    rels: Registry<HyriseRelation>,
    advisor: Advisor,
    /// Minimum predicted improvement before a rebuild (fraction).
    improvement_threshold: f64,
}

impl Default for HyriseEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl HyriseEngine {
    pub fn new() -> Self {
        // HYRISE is weak flexible: vertical containers only, no chunking.
        let advisor = Advisor::new(AdvisorConfig { chunk_rows: None, ..Default::default() });
        HyriseEngine { rels: Registry::new(), advisor, improvement_threshold: 0.10 }
    }

    /// Current container partitioning (for tests / introspection):
    /// attribute groups of the live layout.
    pub fn containers(&self, rel: RelationId) -> Result<Vec<Vec<AttrId>>> {
        self.rels.read(rel, |r| {
            Ok(r.relation.layouts()[0].template().groups.iter().map(|g| g.attrs.clone()).collect())
        })
    }
}

impl StorageEngine for HyriseEngine {
    fn name(&self) -> &'static str {
        "HYRISE"
    }

    fn classification(&self) -> Classification {
        survey::hyrise()
    }

    fn create_relation(&self, schema: Schema) -> Result<RelationId> {
        // Initial layout: one NSM container over the whole schema (the
        // neutral starting point the advisor refines).
        let stats = AccessStats::new(schema.arity());
        let template = LayoutTemplate::nsm(&schema);
        Ok(self.rels.add(HyriseRelation { relation: Relation::new(schema, template)?, stats }))
    }

    fn schema(&self, rel: RelationId) -> Result<Schema> {
        self.rels.read(rel, |r| Ok(r.relation.schema().clone()))
    }

    fn insert(&self, rel: RelationId, record: &Record) -> Result<RowId> {
        self.rels.write(rel, |r| r.relation.insert(record))
    }

    fn read_record(&self, rel: RelationId, row: RowId) -> Result<Record> {
        self.rels.read(rel, |r| {
            let attrs: Vec<AttrId> = r.relation.schema().attr_ids().collect();
            r.stats.record_point_read(&attrs, 1);
            r.relation.read_record(row)
        })
    }

    fn read_field(&self, rel: RelationId, row: RowId, attr: AttrId) -> Result<Value> {
        self.rels.read(rel, |r| {
            r.stats.record_point_read(&[attr], 1);
            r.relation.read_value(row, attr, AccessHint::RecordCentric)
        })
    }

    fn update_field(&self, rel: RelationId, row: RowId, attr: AttrId, value: &Value) -> Result<()> {
        self.rels.write(rel, |r| {
            r.stats.record_update(attr);
            r.relation.update_field(row, attr, value)
        })
    }

    fn with_aligned_blocks(
        &self,
        rel: RelationId,
        attrs: &[AttrId],
        visit: &mut dyn FnMut(&[&[u8]]),
    ) -> Result<()> {
        self.rels.read(rel, |r| {
            attrs.iter().for_each(|&attr| r.stats.record_scan(attr));
            r.relation.with_aligned_blocks(attrs, &[], visit)
        })
    }

    fn row_count(&self, rel: RelationId) -> Result<u64> {
        self.rels.read(rel, |r| Ok(r.relation.row_count()))
    }

    /// Responsive re-adaptation: rebuild container widths when the advisor
    /// predicts a sufficient win for the observed workload.
    fn maintain(&self) -> Result<MaintenanceReport> {
        let mut report = MaintenanceReport::default();
        for handle in self.rels.all() {
            let mut r = handle.write();
            let schema = r.relation.schema().clone();
            let rows = r.relation.row_count();
            let current = r.relation.layouts()[0].template().clone();
            let rec = self.advisor.recommend(&schema, &r.stats, &current, rows.max(1));
            if rec.template != current && rec.improvement() > self.improvement_threshold {
                r.relation.reorganize_layout(0, rec.template)?;
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
    use htapg_core::DataType;

    fn wide_schema() -> Schema {
        let mut attrs = vec![("pk", DataType::Int64), ("price", DataType::Float64)];
        for _ in 0..10 {
            attrs.push(("f", DataType::Int32));
        }
        Schema::of(&attrs)
    }

    fn rec(i: i64, arity: usize) -> Record {
        let mut r = vec![Value::Int64(i), Value::Float64(i as f64)];
        for j in 0..arity - 2 {
            r.push(Value::Int32((i as i32).wrapping_mul(j as i32 + 1)));
        }
        r
    }

    #[test]
    fn crud_roundtrip() {
        let e = HyriseEngine::new();
        let s = wide_schema();
        let rel = e.create_relation(s.clone()).unwrap();
        for i in 0..100 {
            e.insert(rel, &rec(i, s.arity())).unwrap();
        }
        assert_eq!(e.read_record(rel, 7).unwrap(), rec(7, s.arity()));
        e.update_field(rel, 7, 1, &Value::Float64(0.0)).unwrap();
        assert_eq!(e.read_field(rel, 7, 1).unwrap(), Value::Float64(0.0));
    }

    #[test]
    fn scan_heavy_workload_triggers_reorganization() {
        let e = HyriseEngine::new();
        let s = wide_schema();
        let rel = e.create_relation(s.clone()).unwrap();
        for i in 0..500 {
            e.insert(rel, &rec(i, s.arity())).unwrap();
        }
        assert_eq!(e.containers(rel).unwrap().len(), 1, "starts as one NSM container");
        let contiguous = |attr| {
            e.rels.read(rel, |r| {
                Ok(r.relation.layouts()[0].column_views(attr)?.iter().all(|v| v.is_contiguous()))
            })
        };
        assert!(!contiguous(1).unwrap());
        // Hammer the price column with scans.
        for _ in 0..50 {
            htapg_exec::physical::touch_column(&e, rel, 1).unwrap();
        }
        let report = e.maintain().unwrap();
        assert_eq!(report.layouts_reorganized, 1);
        // Price is now contiguously scannable.
        assert!(contiguous(1).unwrap());
        // Data intact after the rebuild.
        assert_eq!(e.read_record(rel, 123).unwrap(), rec(123, s.arity()));
        let sum = crate::testing::planned_sum(&e, rel, 1);
        assert_eq!(sum, (0..500).map(|i| i as f64).sum::<f64>());
    }

    #[test]
    fn stable_workload_does_not_thrash() {
        let e = HyriseEngine::new();
        let s = wide_schema();
        let rel = e.create_relation(s.clone()).unwrap();
        for i in 0..200 {
            e.insert(rel, &rec(i, s.arity())).unwrap();
        }
        for _ in 0..50 {
            htapg_exec::physical::touch_column(&e, rel, 1).unwrap();
        }
        assert_eq!(e.maintain().unwrap().layouts_reorganized, 1);
        // Same workload again: the layout is already right; no rebuild.
        for _ in 0..50 {
            htapg_exec::physical::touch_column(&e, rel, 1).unwrap();
        }
        assert_eq!(e.maintain().unwrap().layouts_reorganized, 0);
    }

    #[test]
    fn record_workload_clusters_containers_back() {
        let e = HyriseEngine::new();
        let s = wide_schema();
        let rel = e.create_relation(s.clone()).unwrap();
        for i in 0..200 {
            e.insert(rel, &rec(i, s.arity())).unwrap();
        }
        for _ in 0..50 {
            htapg_exec::physical::touch_column(&e, rel, 1).unwrap();
        }
        e.maintain().unwrap();
        // Shift to record-centric.
        for i in 0..300 {
            e.read_record(rel, i % 200).unwrap();
        }
        e.maintain().unwrap();
        let containers = e.containers(rel).unwrap();
        // The record-accessed attributes re-cluster into a fat container.
        assert!(containers.iter().any(|c| c.len() >= s.arity() - 2), "containers: {containers:?}");
    }

    #[test]
    fn classification_matches_table1() {
        assert_eq!(HyriseEngine::new().classification(), survey::hyrise());
    }
}
