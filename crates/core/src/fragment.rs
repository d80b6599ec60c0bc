//! Fragments and tuplets — the paper's central physical concepts.
//!
//! "A layout is a complete relation divided into a set of possibly
//! overlapping fragments. A fragment spans a 'gapless' region of data in a
//! relation. The per-tuple portion that falls inside a given fragment is
//! called a tuplet." (Section III)
//!
//! A fragment is *fat* iff it contains at least two tuplets and at least two
//! attributes; fat fragments are two-dimensional and must be *linearized*
//! with NSM or DSM. A *thin* fragment is one-dimensional and stored
//! *directly* (Figure 3).

use crate::error::{Error, Result};
use crate::schema::{AttrId, RowId, Schema};
use crate::types::Value;

/// How a (fat) fragment serializes its two-dimensional region into linear
/// memory, or `Direct` for thin fragments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Linearization {
    /// N-ary storage model: tuplet after tuplet.
    Nsm,
    /// Decomposed storage model: column block after column block, inside a
    /// single contiguous allocation.
    Dsm,
    /// Thin fragments only: the single dimension is stored as-is.
    Direct,
}

/// Where a fragment's bytes physically live.
///
/// Core fragments always carry their bytes in host memory; the location tag
/// records the *logical* placement used by engines (a device-resident
/// fragment is mirrored into a simulated device buffer by `htapg-device`,
/// a disk fragment is staged through `SimDisk`, a node fragment lives on a
/// `SimCluster` node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Location {
    /// Host main memory.
    Host,
    /// Memory of simulated device `id`.
    Device(u32),
    /// Simulated secondary storage `id`.
    Disk(u32),
    /// Node `id` of a simulated shared-nothing cluster.
    Node(u32),
}

/// Immutable description of a fragment: which rectangle of the relation it
/// covers and how it is linearized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FragmentSpec {
    /// First row id covered.
    pub first_row: RowId,
    /// Maximum number of rows (tuplets) this fragment can hold.
    pub capacity: u64,
    /// Covered attributes, in storage order.
    pub attrs: Vec<AttrId>,
    /// Linearization of the covered region.
    pub order: Linearization,
}

impl FragmentSpec {
    /// Structural fat/thin classification: "A fragment is fat iff it contains
    /// at least two tuplets and at least two attributes in its schema."
    pub fn is_fat(&self) -> bool {
        self.capacity >= 2 && self.attrs.len() >= 2
    }

    fn validate(&self) -> Result<()> {
        if self.attrs.is_empty() {
            return Err(Error::InvalidLayout("fragment covers no attributes".into()));
        }
        if self.capacity == 0 {
            return Err(Error::InvalidLayout("fragment has zero capacity".into()));
        }
        let mut seen = std::collections::HashSet::new();
        for a in &self.attrs {
            if !seen.insert(*a) {
                return Err(Error::InvalidLayout(format!("attribute {a} covered twice")));
            }
        }
        match self.order {
            Linearization::Direct if self.is_fat() => Err(Error::InvalidLayout(
                "fat fragments are two-dimensional and require NSM or DSM linearization".into(),
            )),
            Linearization::Nsm | Linearization::Dsm if !self.is_fat() => Err(Error::InvalidLayout(
                "thin fragments are one-dimensional and use direct linearization".into(),
            )),
            _ => Ok(()),
        }
    }
}

/// A zero-copy view of one attribute's fields inside a fragment: base bytes
/// plus stride arithmetic. The hot path of the execution layer — threaded
/// scans partition a view by rows without going through `Value`.
#[derive(Debug, Clone, Copy)]
pub struct ColumnView<'a> {
    /// The fragment's raw bytes.
    pub data: &'a [u8],
    /// Byte offset of the field in the first row.
    pub offset: usize,
    /// Byte distance between consecutive rows' fields (== `width` when the
    /// column is contiguous, > `width` when strided through NSM tuplets).
    pub stride: usize,
    /// Field width in bytes.
    pub width: usize,
    /// Number of populated rows.
    pub rows: u64,
    /// Row id of the first populated row.
    pub first_row: RowId,
}

impl<'a> ColumnView<'a> {
    /// Whether fields are contiguous (a raw column block).
    pub fn is_contiguous(&self) -> bool {
        self.stride == self.width
    }

    /// Bytes of the field at local row index `i` (0-based within the view).
    #[inline]
    pub fn field(&self, i: usize) -> &'a [u8] {
        let off = self.offset + i * self.stride;
        &self.data[off..off + self.width]
    }

    /// Restrict the view to local rows `[from, to)`.
    pub fn slice_rows(&self, from: u64, to: u64) -> ColumnView<'a> {
        assert!(from <= to && to <= self.rows, "row slice out of range");
        ColumnView {
            data: self.data,
            offset: self.offset + from as usize * self.stride,
            stride: self.stride,
            width: self.width,
            rows: to - from,
            first_row: self.first_row + from,
        }
    }

    /// The contiguous byte block, if [`ColumnView::is_contiguous`].
    pub fn contiguous_bytes(&self) -> Option<&'a [u8]> {
        if self.is_contiguous() {
            Some(&self.data[self.offset..self.offset + self.rows as usize * self.width])
        } else {
            None
        }
    }

    /// Append the view's fields to `out`, packed in row order: one copy
    /// when contiguous, else one fixed-width move per field for the 4- and
    /// 8-byte types.
    pub fn gather_into(&self, out: &mut Vec<u8>) {
        fn fields<const W: usize>(v: &ColumnView<'_>, out: &mut Vec<u8>) {
            let at = out.len();
            out.resize(at + v.rows as usize * W, 0);
            let rows = v.data[v.offset..].chunks(v.stride);
            for (dst, src) in out[at..].chunks_exact_mut(W).zip(rows) {
                dst.copy_from_slice(&src[..W]);
            }
        }
        match (self.contiguous_bytes(), self.width) {
            (Some(bytes), _) => out.extend_from_slice(bytes),
            (None, 4) => fields::<4>(self, out),
            (None, 8) => fields::<8>(self, out),
            (None, _) => (0..self.rows as usize).for_each(|i| out.extend_from_slice(self.field(i))),
        }
    }
}

/// A materialized fragment: spec + typed addressing + raw bytes.
#[derive(Debug, Clone)]
pub struct Fragment {
    spec: FragmentSpec,
    /// Per covered attribute: byte width.
    widths: Vec<usize>,
    /// Per covered attribute: offset within an NSM tuplet of this fragment.
    nsm_offsets: Vec<usize>,
    /// Per covered attribute: start of its column block under DSM (computed
    /// with full capacity, so appends never move data).
    col_starts: Vec<usize>,
    tuplet_width: usize,
    len: u64,
    location: Location,
    data: Vec<u8>,
}

impl Fragment {
    /// Allocate a fragment for `spec` against `schema`, zero-filled, empty.
    pub fn new(schema: &Schema, spec: FragmentSpec) -> Result<Fragment> {
        Self::new_at(schema, spec, Location::Host)
    }

    /// Like [`Fragment::new`] with an explicit location tag.
    pub fn new_at(schema: &Schema, spec: FragmentSpec, location: Location) -> Result<Fragment> {
        spec.validate()?;
        let mut widths = Vec::with_capacity(spec.attrs.len());
        for &a in &spec.attrs {
            widths.push(schema.width(a)?);
        }
        let mut nsm_offsets = Vec::with_capacity(widths.len());
        let mut off = 0usize;
        for w in &widths {
            nsm_offsets.push(off);
            off += w;
        }
        let tuplet_width = off;
        let mut col_starts = Vec::with_capacity(widths.len());
        let mut cs = 0usize;
        for w in &widths {
            col_starts.push(cs);
            cs += w * spec.capacity as usize;
        }
        let data = vec![0u8; tuplet_width * spec.capacity as usize];
        Ok(Fragment { spec, widths, nsm_offsets, col_starts, tuplet_width, len: 0, location, data })
    }

    /// Rehydrate a fragment from previously serialized raw bytes (the page
    /// image a buffer manager read back from disk). `len` is the number of
    /// populated tuplets; `bytes` must be a full-capacity image as produced
    /// by [`Fragment::raw`].
    pub fn from_raw(
        schema: &Schema,
        spec: FragmentSpec,
        bytes: Vec<u8>,
        len: u64,
        location: Location,
    ) -> Result<Fragment> {
        let mut f = Fragment::new_at(schema, spec, location)?;
        if bytes.len() != f.data.len() {
            return Err(Error::Internal(format!(
                "page image of {} bytes does not match fragment capacity {}",
                bytes.len(),
                f.data.len()
            )));
        }
        if len > f.spec.capacity {
            return Err(Error::Internal("page image len exceeds capacity".into()));
        }
        f.data = bytes;
        f.len = len;
        Ok(f)
    }

    pub fn spec(&self) -> &FragmentSpec {
        &self.spec
    }

    pub fn location(&self) -> Location {
        self.location
    }

    /// Number of tuplets currently stored.
    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the fragment is at capacity.
    pub fn is_full(&self) -> bool {
        self.len == self.spec.capacity
    }

    /// Width of one tuplet of this fragment, in bytes.
    pub fn tuplet_width(&self) -> usize {
        self.tuplet_width
    }

    /// Bytes currently in use (len × tuplet width).
    pub fn used_bytes(&self) -> usize {
        self.len as usize * self.tuplet_width
    }

    /// Row range currently populated.
    pub fn present_rows(&self) -> std::ops::Range<RowId> {
        self.spec.first_row..self.spec.first_row + self.len
    }

    /// Does this fragment cover `(row, attr)` among *present* rows?
    pub fn contains(&self, row: RowId, attr: AttrId) -> bool {
        self.present_rows().contains(&row) && self.spec.attrs.contains(&attr)
    }

    fn attr_index(&self, attr: AttrId) -> Result<usize> {
        self.spec.attrs.iter().position(|&a| a == attr).ok_or(Error::UnknownAttribute(attr))
    }

    /// Byte offset of field `(row, attr)` inside `self.data`.
    ///
    /// This is the linearization function of Figure 3: NSM places tuplets
    /// sequentially, DSM places column blocks sequentially. Thin (direct)
    /// fragments degenerate to the same arithmetic in either view.
    fn field_offset(&self, row: RowId, idx: usize) -> usize {
        let r = (row - self.spec.first_row) as usize;
        match self.spec.order {
            Linearization::Nsm => r * self.tuplet_width + self.nsm_offsets[idx],
            Linearization::Dsm => self.col_starts[idx] + r * self.widths[idx],
            // A thin fragment is one-dimensional: either one attribute
            // (column vector — DSM arithmetic) or one tuplet (row vector —
            // NSM arithmetic). Both formulas agree in both cases.
            Linearization::Direct => self.col_starts[idx] + r * self.widths[idx],
        }
    }

    fn check_row(&self, row: RowId) -> Result<()> {
        if !self.present_rows().contains(&row) {
            return Err(Error::UnknownRow(row));
        }
        Ok(())
    }

    /// Append one tuplet (values for covered attributes, in spec order).
    ///
    /// Returns the row id assigned. A rejected tuplet adds no row.
    pub fn append(&mut self, schema: &Schema, values: &[Value]) -> Result<RowId> {
        if values.len() != self.spec.attrs.len() {
            return Err(Error::Arity { expected: self.spec.attrs.len(), got: values.len() });
        }
        self.push(schema, |idx, _| &values[idx])
    }

    /// Append the covered fields of a full-schema record, encoding each
    /// straight into its slot. Returns the row id assigned.
    pub(crate) fn append_record(&mut self, schema: &Schema, record: &[Value]) -> Result<RowId> {
        self.push(schema, |_, attr| &record[attr as usize])
    }

    /// Encode `value(idx, attr)` for every covered attribute into the next
    /// tuplet slot; the tuplet becomes present only once every field is
    /// written, so an error leaves the present tuplets and `len` unchanged.
    fn push<'v>(
        &mut self,
        schema: &Schema,
        value: impl Fn(usize, AttrId) -> &'v Value,
    ) -> Result<RowId> {
        if self.is_full() {
            return Err(Error::InvalidLayout("fragment is full".into()));
        }
        let row = self.spec.first_row + self.len;
        for (idx, &attr) in self.spec.attrs.iter().enumerate() {
            let off = self.field_offset(row, idx);
            let field = &mut self.data[off..off + self.widths[idx]];
            value(idx, attr).encode_into(schema.ty(attr)?, field)?;
        }
        self.len += 1;
        Ok(row)
    }

    /// Read the field `(row, attr)`.
    pub fn read_value(&self, schema: &Schema, row: RowId, attr: AttrId) -> Result<Value> {
        self.check_row(row)?;
        let idx = self.attr_index(attr)?;
        let ty = schema.ty(attr)?;
        let off = self.field_offset(row, idx);
        Ok(Value::decode(ty, &self.data[off..off + self.widths[idx]]))
    }

    /// Overwrite the field `(row, attr)`.
    pub fn write_value(
        &mut self,
        schema: &Schema,
        row: RowId,
        attr: AttrId,
        v: &Value,
    ) -> Result<()> {
        self.check_row(row)?;
        let idx = self.attr_index(attr)?;
        let ty = schema.ty(attr)?;
        let off = self.field_offset(row, idx);
        let w = self.widths[idx];
        v.encode_into(ty, &mut self.data[off..off + w])
    }

    /// Decode the fields of `row` whose attributes `take` selects, each
    /// into `out[attr]`: one visit of this fragment for all of them.
    pub(crate) fn decode_fields(
        &self,
        schema: &Schema,
        row: RowId,
        take: &dyn Fn(AttrId) -> bool,
        out: &mut [Value],
    ) -> Result<()> {
        self.check_row(row)?;
        for (idx, &attr) in self.spec.attrs.iter().enumerate().filter(|&(_, &a)| take(a)) {
            let off = self.field_offset(row, idx);
            let field = &self.data[off..off + self.widths[idx]];
            out[attr as usize] = Value::decode(schema.ty(attr)?, field);
        }
        Ok(())
    }

    /// Read the whole tuplet at `row` (values in spec attribute order).
    pub fn read_tuplet(&self, schema: &Schema, row: RowId) -> Result<Vec<Value>> {
        self.check_row(row)?;
        let mut out = Vec::with_capacity(self.spec.attrs.len());
        for (idx, &a) in self.spec.attrs.iter().enumerate() {
            let ty = schema.ty(a)?;
            let off = self.field_offset(row, idx);
            out.push(Value::decode(ty, &self.data[off..off + self.widths[idx]]));
        }
        Ok(out)
    }

    /// Zero-copy view of `attr`'s fields in this fragment.
    pub fn column_view(&self, attr: AttrId) -> Result<ColumnView<'_>> {
        let idx = self.attr_index(attr)?;
        let w = self.widths[idx];
        let (offset, stride) = match self.spec.order {
            Linearization::Nsm => (self.nsm_offsets[idx], self.tuplet_width),
            Linearization::Dsm | Linearization::Direct => (self.col_starts[idx], w),
        };
        Ok(ColumnView {
            data: &self.data,
            offset,
            stride,
            width: w,
            rows: self.len,
            first_row: self.spec.first_row,
        })
    }

    /// All raw bytes currently used by this fragment (for transfers).
    pub fn raw(&self) -> &[u8] {
        &self.data
    }

    /// The full linearized byte stream in storage order, truncated to the
    /// populated region — the exact byte sequences shown in Figure 3.
    pub fn linearized_bytes(&self) -> Vec<u8> {
        match self.spec.order {
            Linearization::Nsm => self.data[..self.used_bytes()].to_vec(),
            Linearization::Dsm | Linearization::Direct => {
                let mut out = Vec::with_capacity(self.used_bytes());
                for (idx, w) in self.widths.iter().enumerate() {
                    let start = self.col_starts[idx];
                    out.extend_from_slice(&self.data[start..start + w * self.len as usize]);
                }
                out
            }
        }
    }

    /// Grow the fragment's capacity in place (amortized-O(1) appends for
    /// unchunked layouts). Present data is preserved; under DSM the column
    /// blocks are re-based bytewise.
    pub fn grow(&mut self, new_capacity: u64) {
        assert!(new_capacity >= self.spec.capacity, "grow cannot shrink");
        if new_capacity == self.spec.capacity {
            return;
        }
        match self.spec.order {
            Linearization::Nsm => {
                self.data.resize(self.tuplet_width * new_capacity as usize, 0);
            }
            Linearization::Dsm | Linearization::Direct => {
                let mut new_data = vec![0u8; self.tuplet_width * new_capacity as usize];
                let mut new_starts = Vec::with_capacity(self.widths.len());
                let mut cs = 0usize;
                for w in &self.widths {
                    new_starts.push(cs);
                    cs += w * new_capacity as usize;
                }
                for (idx, w) in self.widths.iter().enumerate() {
                    let used = w * self.len as usize;
                    let src = self.col_starts[idx];
                    let dst = new_starts[idx];
                    new_data[dst..dst + used].copy_from_slice(&self.data[src..src + used]);
                }
                self.data = new_data;
                self.col_starts = new_starts;
            }
        }
        self.spec.capacity = new_capacity;
    }

    /// Declare the first `len` tuplets present. A fragment under
    /// construction takes its rows this way and then receives every
    /// covered field through [`Fragment::copy_fields`].
    pub(crate) fn set_len(&mut self, len: u64) {
        assert!(len <= self.spec.capacity, "len {len} exceeds capacity {}", self.spec.capacity);
        self.len = len;
    }

    /// Overwrite `attr`'s fields at rows `src.first_row..` with the field
    /// bytes `src` views — Figure 3's linearizations are byte permutations
    /// of one another, so re-linearizing never decodes a value.
    pub(crate) fn copy_fields(&mut self, attr: AttrId, src: &ColumnView<'_>) -> Result<()> {
        let idx = self.attr_index(attr)?;
        let w = self.widths[idx];
        assert_eq!(src.width, w, "copy between fields of different widths");
        let end = src.first_row + src.rows;
        if src.first_row < self.spec.first_row || end > self.spec.first_row + self.len {
            return Err(Error::UnknownRow(end.saturating_sub(1)));
        }
        if src.rows == 0 {
            return Ok(());
        }
        let first = self.field_offset(src.first_row, idx);
        let stride = self.column_view(attr)?.stride;
        match src.contiguous_bytes() {
            Some(bytes) if stride == w => {
                self.data[first..first + bytes.len()].copy_from_slice(bytes);
            }
            _ => {
                for i in 0..src.rows as usize {
                    let off = first + i * stride;
                    self.data[off..off + w].copy_from_slice(src.field(i));
                }
            }
        }
        Ok(())
    }

    /// Re-linearize this fragment's populated region under a new order,
    /// returning a new fragment (used by responsive reorganization).
    pub fn relinearize(&self, schema: &Schema, order: Linearization) -> Result<Fragment> {
        let spec = FragmentSpec { order, ..self.spec.clone() };
        let mut out = Fragment::new_at(schema, spec, self.location)?;
        out.set_len(self.len);
        for &attr in &self.spec.attrs {
            out.copy_fields(attr, &self.column_view(attr)?)?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DataType;

    fn schema() -> Schema {
        Schema::of(&[
            ("a", DataType::Int32),
            ("b", DataType::Int32),
            ("c", DataType::Int32),
            ("d", DataType::Int32),
            ("e", DataType::Int32),
        ])
    }

    fn frag(attrs: Vec<AttrId>, order: Linearization, cap: u64) -> Fragment {
        Fragment::new(&schema(), FragmentSpec { first_row: 0, capacity: cap, attrs, order })
            .unwrap()
    }

    #[test]
    fn fat_thin_classification() {
        let fat = FragmentSpec {
            first_row: 0,
            capacity: 4,
            attrs: vec![0, 1],
            order: Linearization::Nsm,
        };
        assert!(fat.is_fat());
        let thin_col = FragmentSpec {
            first_row: 0,
            capacity: 4,
            attrs: vec![0],
            order: Linearization::Direct,
        };
        assert!(!thin_col.is_fat());
        let thin_row = FragmentSpec {
            first_row: 0,
            capacity: 1,
            attrs: vec![0, 1],
            order: Linearization::Direct,
        };
        assert!(!thin_row.is_fat());
    }

    #[test]
    fn fat_requires_nsm_or_dsm() {
        let s = schema();
        let bad = FragmentSpec {
            first_row: 0,
            capacity: 4,
            attrs: vec![0, 1],
            order: Linearization::Direct,
        };
        assert!(Fragment::new(&s, bad).is_err());
        let bad2 =
            FragmentSpec { first_row: 0, capacity: 4, attrs: vec![0], order: Linearization::Nsm };
        assert!(Fragment::new(&s, bad2).is_err());
    }

    #[test]
    fn nsm_field_roundtrip_and_order() {
        let s = schema();
        let mut f = frag(vec![0, 1, 2], Linearization::Nsm, 4);
        for i in 0..4 {
            f.append(&s, &[Value::Int32(10 + i), Value::Int32(20 + i), Value::Int32(30 + i)])
                .unwrap();
        }
        assert_eq!(f.read_value(&s, 2, 1).unwrap(), Value::Int32(22));
        // NSM-Fixed (Fig. 3): a1 b1 c1 a2 b2 c2 ...
        let bytes = f.linearized_bytes();
        let ints: Vec<i32> =
            bytes.chunks_exact(4).map(|c| i32::from_le_bytes(c.try_into().unwrap())).collect();
        assert_eq!(ints, vec![10, 20, 30, 11, 21, 31, 12, 22, 32, 13, 23, 33]);
    }

    #[test]
    fn dsm_field_roundtrip_and_order() {
        let s = schema();
        let mut f = frag(vec![0, 1, 2], Linearization::Dsm, 4);
        for i in 0..4 {
            f.append(&s, &[Value::Int32(10 + i), Value::Int32(20 + i), Value::Int32(30 + i)])
                .unwrap();
        }
        assert_eq!(f.read_value(&s, 3, 2).unwrap(), Value::Int32(33));
        // DSM-Fixed (Fig. 3): a1 a2 a3 a4 b1 b2 b3 b4 c1 c2 c3 c4
        let ints: Vec<i32> = f
            .linearized_bytes()
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(ints, vec![10, 11, 12, 13, 20, 21, 22, 23, 30, 31, 32, 33]);
    }

    #[test]
    fn thin_direct_column() {
        let s = schema();
        let mut f = frag(vec![3], Linearization::Direct, 4);
        for i in 0..4 {
            f.append(&s, &[Value::Int32(40 + i)]).unwrap();
        }
        let ints: Vec<i32> = f
            .linearized_bytes()
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(ints, vec![40, 41, 42, 43]);
        assert!(f.column_view(3).unwrap().is_contiguous());
    }

    #[test]
    fn column_bytes_fast_path() {
        let s = schema();
        let mut nsm = frag(vec![0, 1], Linearization::Nsm, 3);
        let mut dsm = frag(vec![0, 1], Linearization::Dsm, 3);
        for i in 0..3 {
            nsm.append(&s, &[Value::Int32(i), Value::Int32(-i)]).unwrap();
            dsm.append(&s, &[Value::Int32(i), Value::Int32(-i)]).unwrap();
        }
        let strided = nsm.column_view(1).unwrap();
        assert!(strided.contiguous_bytes().is_none(), "NSM fat fragments are strided");
        let col = dsm.column_view(1).unwrap().contiguous_bytes().unwrap();
        let ints = |b: &[u8]| -> Vec<i32> {
            b.chunks_exact(4).map(|c| i32::from_le_bytes(c.try_into().unwrap())).collect()
        };
        assert_eq!(ints(col), vec![0, -1, -2]);
        // Gathered, the strided column packs to the same bytes.
        let mut buf = Vec::new();
        strided.gather_into(&mut buf);
        assert_eq!(ints(&buf), vec![0, -1, -2]);
    }

    #[test]
    fn updates_in_place() {
        let s = schema();
        let mut f = frag(vec![0, 1, 2], Linearization::Dsm, 2);
        f.append(&s, &[Value::Int32(1), Value::Int32(2), Value::Int32(3)]).unwrap();
        f.write_value(&s, 0, 1, &Value::Int32(99)).unwrap();
        assert_eq!(f.read_value(&s, 0, 1).unwrap(), Value::Int32(99));
        assert_eq!(
            f.read_tuplet(&s, 0).unwrap(),
            vec![Value::Int32(1), Value::Int32(99), Value::Int32(3)]
        );
    }

    #[test]
    fn bounds_errors() {
        let s = schema();
        let mut f = frag(vec![0, 1], Linearization::Nsm, 2);
        assert!(f.read_value(&s, 0, 0).is_err(), "row not yet present");
        f.append(&s, &[Value::Int32(1), Value::Int32(2)]).unwrap();
        assert!(f.read_value(&s, 0, 4).is_err(), "attr not covered");
        assert!(f.read_value(&s, 1, 0).is_err(), "row beyond len");
        f.append(&s, &[Value::Int32(3), Value::Int32(4)]).unwrap();
        assert!(f.append(&s, &[Value::Int32(5), Value::Int32(6)]).is_err(), "full");
    }

    #[test]
    fn relinearize_preserves_content() {
        let s = schema();
        let mut f = frag(vec![0, 1, 2], Linearization::Nsm, 4);
        for i in 0..3 {
            f.append(&s, &[Value::Int32(i), Value::Int32(i * 2), Value::Int32(i * 3)]).unwrap();
        }
        let g = f.relinearize(&s, Linearization::Dsm).unwrap();
        for row in 0..3u64 {
            assert_eq!(f.read_tuplet(&s, row).unwrap(), g.read_tuplet(&s, row).unwrap());
        }
        assert_ne!(f.linearized_bytes(), g.linearized_bytes());
    }

    #[test]
    fn grow_preserves_data_nsm_and_dsm() {
        let s = schema();
        for order in [Linearization::Nsm, Linearization::Dsm] {
            let mut f = frag(vec![0, 1, 2], order, 2);
            f.append(&s, &[Value::Int32(1), Value::Int32(2), Value::Int32(3)]).unwrap();
            f.append(&s, &[Value::Int32(4), Value::Int32(5), Value::Int32(6)]).unwrap();
            assert!(f.is_full());
            f.grow(8);
            assert!(!f.is_full());
            f.append(&s, &[Value::Int32(7), Value::Int32(8), Value::Int32(9)]).unwrap();
            assert_eq!(
                f.read_tuplet(&s, 0).unwrap(),
                vec![Value::Int32(1), Value::Int32(2), Value::Int32(3)]
            );
            assert_eq!(
                f.read_tuplet(&s, 2).unwrap(),
                vec![Value::Int32(7), Value::Int32(8), Value::Int32(9)]
            );
        }
    }

    #[test]
    fn for_each_field_orders_match() {
        let s = schema();
        for order in [Linearization::Nsm, Linearization::Dsm] {
            let mut f = frag(vec![0, 1], order, 4);
            for i in 0..4 {
                f.append(&s, &[Value::Int32(i), Value::Int32(100 + i)]).unwrap();
            }
            let view = f.column_view(1).unwrap();
            let seen: Vec<(u64, i32)> = (0..view.rows as usize)
                .map(|i| {
                    let v = i32::from_le_bytes(view.field(i).try_into().unwrap());
                    (view.first_row + i as u64, v)
                })
                .collect();
            assert_eq!(seen, vec![(0, 100), (1, 101), (2, 102), (3, 103)]);
        }
    }

    #[test]
    fn nonzero_first_row() {
        let s = schema();
        let mut f = Fragment::new(
            &s,
            FragmentSpec {
                first_row: 100,
                capacity: 2,
                attrs: vec![0, 1],
                order: Linearization::Dsm,
            },
        )
        .unwrap();
        let r = f.append(&s, &[Value::Int32(7), Value::Int32(8)]).unwrap();
        assert_eq!(r, 100);
        assert!(f.contains(100, 0));
        assert!(!f.contains(99, 0));
        assert_eq!(f.read_value(&s, 100, 1).unwrap(), Value::Int32(8));
    }
}
