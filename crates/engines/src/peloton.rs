//! Peloton's tile-based architecture (Arulraj et al., 2016): "a relation is
//! represented in terms of tile groups. A tile group is a horizontal
//! fragment. Each fragment in a tile group is further vertically fragmented
//! into (inner) fragments called logical tiles. ... logical tiles contain
//! references to values stored in several physical tiles ... Tuplets in
//! physical tiles can be physically formatted using NSM or DSM." (§IV-B5)
//!
//! Tile groups are fixed-capacity horizontal fragments whose *physical
//! tiles* are either one fat NSM tile (hot, write-friendly) or per-attribute
//! thin tiles (cold, scan-friendly). [`LogicalTile`]s reference physical
//! storage without copying — *layout transparency*. The FSM-style adaptor
//! in [`StorageEngine::maintain`] migrates quiet, full tile groups to
//! columnar form and recently-updated columnar groups back to rows.

use htapg_core::engine::{visit_views, MaintenanceReport, StorageEngine};
use htapg_core::{
    AttrId, Error, Fragment, FragmentSpec, Linearization, Record, RelationId, Result, RowId,
    Schema, Value,
};
use htapg_taxonomy::{survey, Classification};

use crate::common::Registry;

/// Default rows per tile group.
pub const DEFAULT_TILE_ROWS: u64 = 1024;

struct TileGroup {
    first_row: RowId,
    /// Physical tiles: `[fat NSM]` when row-wise, one thin tile per
    /// attribute when columnar.
    tiles: Vec<Fragment>,
    rowwise: bool,
    updates_since_maintain: u64,
}

impl TileGroup {
    fn len(&self) -> u64 {
        self.tiles[0].len()
    }

    fn tile_for(&self, attr: AttrId) -> &Fragment {
        if self.rowwise {
            &self.tiles[0]
        } else {
            &self.tiles[attr as usize]
        }
    }

    fn tile_for_mut(&mut self, attr: AttrId) -> &mut Fragment {
        if self.rowwise {
            &mut self.tiles[0]
        } else {
            &mut self.tiles[attr as usize]
        }
    }
}

/// A logical tile: a reference view over one tile group's rows and a
/// projection of attributes — "layout transparency" made concrete. It
/// carries no values; every access resolves through the physical tiles.
pub struct LogicalTile<'a> {
    group: &'a TileGroup,
    schema: &'a Schema,
    pub attrs: Vec<AttrId>,
    pub rows: std::ops::Range<RowId>,
}

impl LogicalTile<'_> {
    /// Materialize one referenced cell.
    pub fn get(&self, row: RowId, attr: AttrId) -> Result<Value> {
        if !self.rows.contains(&row) || !self.attrs.contains(&attr) {
            return Err(Error::UnknownRow(row));
        }
        self.group.tile_for(attr).read_value(self.schema, row, attr)
    }

    /// Materialize the projected records (the final, late step).
    pub fn materialize(&self) -> Result<Vec<Record>> {
        let mut out = Vec::with_capacity(self.rows.clone().count());
        for row in self.rows.clone() {
            let mut rec = Vec::with_capacity(self.attrs.len());
            for &a in &self.attrs {
                rec.push(self.group.tile_for(a).read_value(self.schema, row, a)?);
            }
            out.push(rec);
        }
        Ok(out)
    }
}

struct PelotonRelation {
    schema: Schema,
    tile_rows: u64,
    groups: Vec<TileGroup>,
    rows: u64,
}

impl PelotonRelation {
    fn rowwise_tiles(&self, first_row: RowId) -> Result<Vec<Fragment>> {
        let order =
            if self.schema.arity() > 1 { Linearization::Nsm } else { Linearization::Direct };
        Ok(vec![Fragment::new(
            &self.schema,
            FragmentSpec {
                first_row,
                capacity: self.tile_rows,
                attrs: self.schema.attr_ids().collect(),
                order,
            },
        )?])
    }

    fn columnar_tiles(&self, first_row: RowId) -> Result<Vec<Fragment>> {
        self.schema
            .attr_ids()
            .map(|a| {
                Fragment::new(
                    &self.schema,
                    FragmentSpec {
                        first_row,
                        capacity: self.tile_rows,
                        attrs: vec![a],
                        order: Linearization::Direct,
                    },
                )
            })
            .collect()
    }

    fn group_of(&self, row: RowId) -> usize {
        (row / self.tile_rows) as usize
    }

    /// Convert a tile group between row-wise and columnar physical tiles.
    fn convert(&mut self, gi: usize, to_rowwise: bool) -> Result<()> {
        let (first_row, len, was_rowwise) = {
            let g = &self.groups[gi];
            (g.first_row, g.len(), g.rowwise)
        };
        if was_rowwise == to_rowwise {
            return Ok(());
        }
        let mut new_tiles = if to_rowwise {
            self.rowwise_tiles(first_row)?
        } else {
            self.columnar_tiles(first_row)?
        };
        let schema = self.schema.clone();
        for row in first_row..first_row + len {
            let g = &self.groups[gi];
            let rec: Record = schema
                .attr_ids()
                .map(|a| g.tile_for(a).read_value(&schema, row, a))
                .collect::<Result<_>>()?;
            if to_rowwise {
                new_tiles[0].append(&schema, &rec)?;
            } else {
                for (a, v) in rec.iter().enumerate() {
                    new_tiles[a].append(&schema, std::slice::from_ref(v))?;
                }
            }
        }
        let g = &mut self.groups[gi];
        g.tiles = new_tiles;
        g.rowwise = to_rowwise;
        Ok(())
    }
}

/// The Peloton-style tile-based engine.
pub struct PelotonEngine {
    rels: Registry<PelotonRelation>,
    tile_rows: u64,
}

impl Default for PelotonEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl PelotonEngine {
    pub fn new() -> Self {
        Self::with_tile_rows(DEFAULT_TILE_ROWS)
    }

    pub fn with_tile_rows(tile_rows: u64) -> Self {
        PelotonEngine { rels: Registry::new(), tile_rows: tile_rows.max(2) }
    }

    /// Per-tile-group layout, row-wise (`true`) or columnar (`false`).
    pub fn group_layouts(&self, rel: RelationId) -> Result<Vec<bool>> {
        self.rels.read(rel, |r| Ok(r.groups.iter().map(|g| g.rowwise).collect()))
    }

    /// Build a logical tile over `[rows.start, rows.end)` × `attrs` and
    /// apply `f` to it (layout-transparent access).
    pub fn with_logical_tile<R>(
        &self,
        rel: RelationId,
        rows: std::ops::Range<RowId>,
        attrs: Vec<AttrId>,
        f: impl FnOnce(&LogicalTile<'_>) -> Result<R>,
    ) -> Result<R> {
        self.rels.read(rel, |r| {
            if rows.end > r.rows {
                return Err(Error::UnknownRow(rows.end - 1));
            }
            let gi = r.group_of(rows.start);
            let g = &r.groups[gi];
            let group_end = g.first_row + g.len();
            if rows.end > group_end {
                return Err(Error::InvalidLayout(
                    "logical tile must not cross tile-group boundaries".into(),
                ));
            }
            let tile = LogicalTile { group: g, schema: &r.schema, attrs, rows };
            f(&tile)
        })
    }
}

impl StorageEngine for PelotonEngine {
    fn name(&self) -> &'static str {
        "PELOTON DBMS"
    }

    fn classification(&self) -> Classification {
        survey::peloton()
    }

    fn create_relation(&self, schema: Schema) -> Result<RelationId> {
        Ok(self.rels.add(PelotonRelation {
            schema,
            tile_rows: self.tile_rows,
            groups: Vec::new(),
            rows: 0,
        }))
    }

    fn schema(&self, rel: RelationId) -> Result<Schema> {
        self.rels.read(rel, |r| Ok(r.schema.clone()))
    }

    fn insert(&self, rel: RelationId, record: &Record) -> Result<RowId> {
        self.rels.write(rel, |r| {
            r.schema.check_record(record)?;
            let gi = r.group_of(r.rows);
            if gi == r.groups.len() {
                let first_row = gi as u64 * r.tile_rows;
                // New tile groups start row-wise: fresh data is hot.
                let tiles = r.rowwise_tiles(first_row)?;
                r.groups.push(TileGroup {
                    first_row,
                    tiles,
                    rowwise: true,
                    updates_since_maintain: 0,
                });
            }
            let row = r.rows;
            let schema = r.schema.clone();
            let g = &mut r.groups[gi];
            if g.rowwise {
                g.tiles[0].append(&schema, record)?;
            } else {
                for (a, v) in record.iter().enumerate() {
                    g.tiles[a].append(&schema, std::slice::from_ref(v))?;
                }
            }
            r.rows += 1;
            Ok(row)
        })
    }

    fn read_record(&self, rel: RelationId, row: RowId) -> Result<Record> {
        self.rels.read(rel, |r| {
            if row >= r.rows {
                return Err(Error::UnknownRow(row));
            }
            let g = &r.groups[r.group_of(row)];
            r.schema.attr_ids().map(|a| g.tile_for(a).read_value(&r.schema, row, a)).collect()
        })
    }

    fn read_field(&self, rel: RelationId, row: RowId, attr: AttrId) -> Result<Value> {
        self.rels.read(rel, |r| {
            if row >= r.rows {
                return Err(Error::UnknownRow(row));
            }
            r.schema.attr(attr)?;
            let g = &r.groups[r.group_of(row)];
            g.tile_for(attr).read_value(&r.schema, row, attr)
        })
    }

    fn update_field(&self, rel: RelationId, row: RowId, attr: AttrId, value: &Value) -> Result<()> {
        self.rels.write(rel, |r| {
            if row >= r.rows {
                return Err(Error::UnknownRow(row));
            }
            r.schema.attr(attr)?;
            let gi = r.group_of(row);
            let schema = r.schema.clone();
            let g = &mut r.groups[gi];
            g.updates_since_maintain += 1;
            g.tile_for_mut(attr).write_value(&schema, row, attr, value)
        })
    }

    /// Tile groups in row order, one visit each: columnar tiles are served
    /// in place, a row-wise group's fields gathered from its NSM tile.
    fn with_aligned_blocks(
        &self,
        rel: RelationId,
        attrs: &[AttrId],
        visit: &mut dyn FnMut(&[&[u8]]),
    ) -> Result<()> {
        self.rels.read(rel, |r| {
            attrs.iter().try_for_each(|&a| r.schema.attr(a).map(drop))?;
            let mut bufs = Vec::new();
            for g in &r.groups {
                let views = attrs
                    .iter()
                    .map(|&a| g.tile_for(a).column_view(a))
                    .collect::<Result<Vec<_>>>()?;
                visit_views(&views, &mut bufs, visit);
            }
            Ok(())
        })
    }

    fn row_count(&self, rel: RelationId) -> Result<u64> {
        self.rels.read(rel, |r| Ok(r.rows))
    }

    /// FSM-style migration: quiet, full tile groups become columnar;
    /// recently updated columnar groups return to row-wise form.
    fn maintain(&self) -> Result<MaintenanceReport> {
        let mut report = MaintenanceReport::default();
        for handle in self.rels.all() {
            let mut r = handle.write();
            for gi in 0..r.groups.len() {
                let tile_rows = r.tile_rows;
                let (full, quiet, rowwise) = {
                    let g = &mut r.groups[gi];
                    let out = (g.len() == tile_rows, g.updates_since_maintain == 0, g.rowwise);
                    g.updates_since_maintain = 0;
                    out
                };
                if rowwise && full && quiet {
                    r.convert(gi, false)?;
                    report.layouts_reorganized += 1;
                } else if !rowwise && !quiet {
                    r.convert(gi, true)?;
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

    fn schema() -> Schema {
        Schema::of(&[("k", DataType::Int64), ("v", DataType::Float64), ("t", DataType::Text(4))])
    }

    fn rec(i: i64) -> Record {
        vec![Value::Int64(i), Value::Float64(i as f64), Value::Text("p".into())]
    }

    #[test]
    fn crud_across_tile_groups() {
        let e = PelotonEngine::with_tile_rows(16);
        let rel = e.create_relation(schema()).unwrap();
        for i in 0..50 {
            e.insert(rel, &rec(i)).unwrap();
        }
        assert_eq!(e.read_record(rel, 33).unwrap(), rec(33));
        e.update_field(rel, 33, 1, &Value::Float64(0.0)).unwrap();
        assert_eq!(e.read_field(rel, 33, 1).unwrap(), Value::Float64(0.0));
        assert_eq!(e.group_layouts(rel).unwrap(), vec![true, true, true, true]);
    }

    #[test]
    fn quiet_full_groups_go_columnar_hot_groups_return() {
        let e = PelotonEngine::with_tile_rows(8);
        let rel = e.create_relation(schema()).unwrap();
        for i in 0..20 {
            e.insert(rel, &rec(i)).unwrap();
        }
        // Freshly filled groups are quiet: one pass migrates the full ones.
        let report = e.maintain().unwrap();
        assert_eq!(report.layouts_reorganized, 2); // groups 0 and 1 are full
        assert_eq!(e.group_layouts(rel).unwrap(), vec![false, false, true]);
        // Values survive migration.
        assert_eq!(e.read_record(rel, 5).unwrap(), rec(5));
        // A write into a columnar group pulls it back to rows.
        e.update_field(rel, 5, 1, &Value::Float64(9.0)).unwrap();
        let report = e.maintain().unwrap();
        assert!(report.layouts_reorganized >= 1);
        assert!(e.group_layouts(rel).unwrap()[0], "updated group back to row-wise");
        assert_eq!(e.read_field(rel, 5, 1).unwrap(), Value::Float64(9.0));
    }

    #[test]
    fn fast_path_requires_all_columnar_groups() {
        let e = PelotonEngine::with_tile_rows(8);
        let rel = e.create_relation(schema()).unwrap();
        for i in 0..8 {
            e.insert(rel, &rec(i)).unwrap();
        }
        let values = |e: &PelotonEngine| {
            let mut out = Vec::new();
            e.with_column_bytes(rel, 1, &mut |b| out.extend_from_slice(b)).unwrap();
            out
        };
        // A row-wise group is gathered from its NSM tile, a columnar one
        // served in place: the same bytes either way.
        assert_eq!(e.group_layouts(rel).unwrap(), vec![true]);
        let gathered = values(&e);
        e.maintain().unwrap();
        assert_eq!(e.group_layouts(rel).unwrap(), vec![false]);
        assert_eq!(values(&e), gathered);
        let want: Vec<u8> = (0..8).flat_map(|i| (i as f64).to_le_bytes()).collect();
        assert_eq!(gathered, want);
        let sum = crate::testing::planned_sum(&e, rel, 1);
        assert_eq!(sum, (0..8).map(|i| i as f64).sum::<f64>());
    }

    #[test]
    fn logical_tiles_reference_any_physical_layout() {
        let e = PelotonEngine::with_tile_rows(8);
        let rel = e.create_relation(schema()).unwrap();
        for i in 0..12 {
            e.insert(rel, &rec(i)).unwrap();
        }
        e.maintain().unwrap(); // group 0 (full) columnar, group 1 (open) row-wise
        let layouts = e.group_layouts(rel).unwrap();
        assert_eq!(layouts, vec![false, true]);
        // The same logical-tile code materializes from both layouts.
        for (range, _rowwise) in [(0..4u64, false), (8..12u64, true)] {
            // group 0 is columnar, group 1 row-wise — same code path.
            let recs =
                e.with_logical_tile(rel, range.clone(), vec![1, 0], |t| t.materialize()).unwrap();
            for (i, row) in range.enumerate() {
                assert_eq!(recs[i], vec![Value::Float64(row as f64), Value::Int64(row as i64)]);
            }
        }
        // Logical tiles may not cross tile groups.
        assert!(e.with_logical_tile(rel, 6..10, vec![0], |t| t.materialize()).is_err());
    }

    #[test]
    fn classification_matches_table1() {
        assert_eq!(PelotonEngine::new().classification(), survey::peloton());
    }
}
