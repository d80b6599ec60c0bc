//! Relation schemas: ordered, named, fixed-width attributes.

use crate::error::{Error, Result};
use crate::types::{DataType, Value};

/// Index of an attribute within a schema.
pub type AttrId = u16;

/// Row identifier within a relation (dense, insertion order).
pub type RowId = u64;

/// Identifier of a relation within an engine.
pub type RelationId = u32;

/// A named, typed attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    pub name: String,
    pub ty: DataType,
}

impl Attribute {
    pub fn new(name: impl Into<String>, ty: DataType) -> Self {
        Attribute { name: name.into(), ty }
    }
}

/// An ordered collection of attributes with precomputed NSM offsets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    attrs: Vec<Attribute>,
    /// Byte offset of each attribute within an NSM tuplet covering the full
    /// schema.
    offsets: Vec<usize>,
    tuple_width: usize,
}

impl Schema {
    pub fn new(attrs: Vec<Attribute>) -> Self {
        assert!(!attrs.is_empty(), "schema must have at least one attribute");
        assert!(attrs.len() <= AttrId::MAX as usize, "too many attributes");
        let mut offsets = Vec::with_capacity(attrs.len());
        let mut off = 0usize;
        for a in &attrs {
            offsets.push(off);
            off += a.ty.width();
        }
        Schema { attrs, offsets, tuple_width: off }
    }

    /// Convenience constructor from `(name, type)` pairs.
    pub fn of(pairs: &[(&str, DataType)]) -> Self {
        Schema::new(pairs.iter().map(|(n, t)| Attribute::new(*n, *t)).collect())
    }

    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    pub fn attrs(&self) -> &[Attribute] {
        &self.attrs
    }

    pub fn attr(&self, id: AttrId) -> Result<&Attribute> {
        self.attrs.get(id as usize).ok_or(Error::UnknownAttribute(id))
    }

    pub fn attr_ids(&self) -> impl Iterator<Item = AttrId> + '_ {
        0..self.attrs.len() as AttrId
    }

    /// Resolve an attribute by name.
    pub fn attr_by_name(&self, name: &str) -> Option<AttrId> {
        self.attrs.iter().position(|a| a.name == name).map(|i| i as AttrId)
    }

    pub fn ty(&self, id: AttrId) -> Result<DataType> {
        Ok(self.attr(id)?.ty)
    }

    /// The type of `id` as a group-by key: an integer type, whose every
    /// value [`Value::as_i64`] reads; [`Error::NonNumericAggregate`] for
    /// any other.
    pub fn key_ty(&self, id: AttrId) -> Result<DataType> {
        match self.ty(id)? {
            ty @ (DataType::Int32 | DataType::Int64 | DataType::Date) => Ok(ty),
            ty => Err(Error::NonNumericAggregate { attr: id, got: ty.name() }),
        }
    }

    pub fn width(&self, id: AttrId) -> Result<usize> {
        Ok(self.attr(id)?.ty.width())
    }

    /// Width of a full-schema NSM tuplet, in bytes.
    pub fn tuple_width(&self) -> usize {
        self.tuple_width
    }

    /// Byte offset of `id` inside a full-schema NSM tuplet.
    pub fn offset(&self, id: AttrId) -> Result<usize> {
        self.offsets.get(id as usize).copied().ok_or(Error::UnknownAttribute(id))
    }

    /// Validate that a record can be stored under this schema: arity,
    /// types and text widths. A record that passes encodes into any
    /// layout of the schema without error, so storage checks it once,
    /// before its first write.
    pub fn check_record(&self, values: &[Value]) -> Result<()> {
        if values.len() != self.attrs.len() {
            return Err(Error::Arity { expected: self.attrs.len(), got: values.len() });
        }
        values.iter().zip(&self.attrs).try_for_each(|(v, a)| v.check(a.ty))
    }
}

/// A record: one value per schema attribute, in schema order.
pub type Record = Vec<Value>;

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> Schema {
        Schema::of(&[("a", DataType::Int32), ("b", DataType::Int64), ("c", DataType::Text(10))])
    }

    #[test]
    fn offsets_and_width() {
        let s = abc();
        assert_eq!(s.tuple_width(), 4 + 8 + 10);
        assert_eq!(s.offset(0).unwrap(), 0);
        assert_eq!(s.offset(1).unwrap(), 4);
        assert_eq!(s.offset(2).unwrap(), 12);
        assert!(s.offset(3).is_err());
    }

    #[test]
    fn lookup_by_name() {
        let s = abc();
        assert_eq!(s.attr_by_name("b"), Some(1));
        assert_eq!(s.attr_by_name("zzz"), None);
    }

    #[test]
    fn record_validation() {
        let s = abc();
        let ok = vec![Value::Int32(1), Value::Int64(2), Value::Text("x".into())];
        assert!(s.check_record(&ok).is_ok());
        let short = vec![Value::Int32(1)];
        assert!(matches!(s.check_record(&short), Err(Error::Arity { .. })));
        let wrong = vec![Value::Int64(1), Value::Int64(2), Value::Text("x".into())];
        assert!(matches!(s.check_record(&wrong), Err(Error::TypeMismatch { .. })));
        let long = vec![Value::Int32(1), Value::Int64(2), Value::Text("x".repeat(11))];
        assert_eq!(s.check_record(&long), Err(Error::TextTooLong { max: 10, got: 11 }));
        let full = vec![Value::Int32(1), Value::Int64(2), Value::Text("x".repeat(10))];
        assert!(s.check_record(&full).is_ok());
    }

    #[test]
    #[should_panic(expected = "at least one attribute")]
    fn empty_schema_panics() {
        let _ = Schema::new(vec![]);
    }
}
