//! H₂O (Alagiannis et al., 2014): "each fragment is per default a fat
//! fragment linearized using NSM-fixed. However, if the number of
//! attributes of a sub-relation is set to one, the fragment becomes a thin
//! fragment that is directly linearized. ... H₂O uses a variable NSM-fixed
//! partially DSM-emulated linearization. Layouts ... are responsive to
//! changes in the workload during runtime by lazily applying a new layout
//! after evaluating alternative layouts from a pool." (Section IV-A5)
//!
//! The engine keeps an NSM fat group plus a set of broken-out thin columns.
//! [`StorageEngine::maintain`] builds a small *pool* of candidate layouts
//! (break out each scan-dominated attribute), costs them with the cache
//! model, and lazily adopts the winner.

use htapg_core::adapt::AccessStats;
use htapg_core::costmodel::{self, CacheSpec};
use htapg_core::engine::{MaintenanceReport, StorageEngine};
use htapg_core::{
    AccessHint, AttrId, GroupOrder, LayoutTemplate, Record, Relation, RelationId, Result, RowId,
    Schema, Value, VerticalGroup,
};
use htapg_taxonomy::{survey, Classification};

use crate::common::Registry;

struct H2oRelation {
    relation: Relation,
    stats: AccessStats,
    /// Attributes currently broken out as thin columns.
    thin: Vec<AttrId>,
}

/// The H₂O engine: NSM partitions that shed hot scan columns.
pub struct H2oEngine {
    rels: Registry<H2oRelation>,
    cache: CacheSpec,
    /// Scan share above which an attribute is a break-out candidate.
    scan_dominance: f64,
    /// Minimum fractional improvement to adopt a pool candidate.
    adoption_threshold: f64,
}

impl Default for H2oEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl H2oEngine {
    pub fn new() -> Self {
        H2oEngine {
            rels: Registry::new(),
            cache: CacheSpec::default(),
            scan_dominance: 0.5,
            adoption_threshold: 0.05,
        }
    }

    fn template_for(schema: &Schema, thin: &[AttrId]) -> LayoutTemplate {
        let fat: Vec<AttrId> = schema.attr_ids().filter(|a| !thin.contains(a)).collect();
        let mut groups = Vec::new();
        if !fat.is_empty() {
            groups.push(VerticalGroup::new(fat, GroupOrder::Nsm));
        }
        if !thin.is_empty() {
            groups.push(VerticalGroup::new(thin.to_vec(), GroupOrder::ThinPerAttr));
        }
        LayoutTemplate::grouped(groups, None)
    }

    fn workload_cost(
        &self,
        schema: &Schema,
        stats: &AccessStats,
        t: &LayoutTemplate,
        rows: u64,
    ) -> f64 {
        let scan_w: Vec<f64> =
            (0..schema.arity()).map(|a| stats.scans(a as AttrId) as f64).collect();
        let record_w = stats.total_point_reads() as f64 / schema.arity().max(1) as f64;
        costmodel::workload_ns(schema, t, &scan_w, record_w, rows, &self.cache)
    }

    /// The thin-column sets currently in use (tests / introspection).
    pub fn thin_columns(&self, rel: RelationId) -> Result<Vec<AttrId>> {
        self.rels.read(rel, |r| Ok(r.thin.clone()))
    }
}

impl StorageEngine for H2oEngine {
    fn name(&self) -> &'static str {
        "H2O"
    }

    fn classification(&self) -> Classification {
        survey::h2o()
    }

    fn create_relation(&self, schema: Schema) -> Result<RelationId> {
        let stats = AccessStats::new(schema.arity());
        let template = Self::template_for(&schema, &[]);
        Ok(self.rels.add(H2oRelation {
            relation: Relation::new(schema, template)?,
            stats,
            thin: Vec::new(),
        }))
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

    /// Evaluate the layout pool and lazily adopt the best candidate.
    fn maintain(&self) -> Result<MaintenanceReport> {
        let mut report = MaintenanceReport::default();
        for handle in self.rels.all() {
            let mut r = handle.write();
            let schema = r.relation.schema().clone();
            let rows = r.relation.row_count().max(1);
            // Pool: current layout, all-NSM, and the dominance-based split.
            let mut candidates: Vec<Vec<AttrId>> = vec![r.thin.clone(), Vec::new()];
            let dominant: Vec<AttrId> = schema
                .attr_ids()
                .filter(|&a| {
                    let s = r.stats.scans(a);
                    let p = r.stats.point_reads(a);
                    s + p > 0 && (s as f64 / (s + p) as f64) >= self.scan_dominance
                })
                .collect();
            candidates.push(dominant);
            let current_cost =
                self.workload_cost(&schema, &r.stats, &Self::template_for(&schema, &r.thin), rows);
            let best = candidates
                .into_iter()
                .map(|thin| {
                    let cost = self.workload_cost(
                        &schema,
                        &r.stats,
                        &Self::template_for(&schema, &thin),
                        rows,
                    );
                    (thin, cost)
                })
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .expect("non-empty pool");
            if best.0 != r.thin && current_cost > 0.0 {
                let improvement = 1.0 - best.1 / current_cost;
                if improvement > self.adoption_threshold {
                    let template = Self::template_for(&schema, &best.0);
                    r.relation.reorganize_layout(0, template)?;
                    r.thin = best.0;
                    r.stats.decay(0.5);
                    report.layouts_reorganized += 1;
                }
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htapg_core::DataType;
    use htapg_taxonomy::FragmentLinearization;

    fn schema() -> Schema {
        let mut attrs = vec![("pk", DataType::Int64), ("price", DataType::Float64)];
        for _ in 0..8 {
            attrs.push(("f", DataType::Int32));
        }
        Schema::of(&attrs)
    }

    fn rec(i: i64) -> Record {
        let mut r = vec![Value::Int64(i), Value::Float64(i as f64)];
        for j in 0..8 {
            r.push(Value::Int32(i as i32 + j));
        }
        r
    }

    #[test]
    fn starts_pure_nsm_then_sheds_hot_scan_column() {
        let e = H2oEngine::new();
        let rel = e.create_relation(schema()).unwrap();
        for i in 0..300 {
            e.insert(rel, &rec(i)).unwrap();
        }
        assert!(e.thin_columns(rel).unwrap().is_empty());
        for _ in 0..40 {
            htapg_exec::physical::touch_column(&e, rel, 1).unwrap();
        }
        let report = e.maintain().unwrap();
        assert_eq!(report.layouts_reorganized, 1);
        assert_eq!(e.thin_columns(rel).unwrap(), vec![1]);
        // Data intact.
        assert_eq!(e.read_record(rel, 123).unwrap(), rec(123));
    }

    #[test]
    fn template_linearization_matches_table1_class() {
        let s = schema();
        let t = H2oEngine::template_for(&s, &[1]);
        assert_eq!(
            t.linearization_class(),
            FragmentLinearization::VariableNsmFixedPartiallyDsmEmulated
        );
    }

    #[test]
    fn record_heavy_workload_reclaims_columns() {
        let e = H2oEngine::new();
        let rel = e.create_relation(schema()).unwrap();
        for i in 0..200 {
            e.insert(rel, &rec(i)).unwrap();
        }
        for _ in 0..40 {
            htapg_exec::physical::touch_column(&e, rel, 1).unwrap();
        }
        e.maintain().unwrap();
        assert_eq!(e.thin_columns(rel).unwrap(), vec![1]);
        // Shift to record-centric: the thin column should fold back in.
        for i in 0..500 {
            e.read_record(rel, i % 200).unwrap();
        }
        e.maintain().unwrap();
        assert!(e.thin_columns(rel).unwrap().is_empty());
    }

    #[test]
    fn crud_correct_across_adoption() {
        let e = H2oEngine::new();
        let rel = e.create_relation(schema()).unwrap();
        for i in 0..100 {
            e.insert(rel, &rec(i)).unwrap();
        }
        e.update_field(rel, 5, 1, &Value::Float64(99.5)).unwrap();
        for _ in 0..40 {
            htapg_exec::physical::touch_column(&e, rel, 1).unwrap();
        }
        e.maintain().unwrap();
        assert_eq!(e.read_field(rel, 5, 1).unwrap(), Value::Float64(99.5));
        // New inserts after adoption land correctly.
        e.insert(rel, &rec(100)).unwrap();
        assert_eq!(e.read_record(rel, 100).unwrap(), rec(100));
    }

    #[test]
    fn classification_matches_table1() {
        assert_eq!(H2oEngine::new().classification(), survey::h2o());
    }
}
