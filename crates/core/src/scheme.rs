//! Fragment schemes: how multi-layout relations manage redundancy.
//!
//! "A replication-based approach holds copies of tuplets ... A
//! delegation-based approach restricts the access of certain regions from
//! certain layouts, since some tuplets are exclusively stored in certain
//! layouts. ... storage engines using a delegation-based approach must
//! manage delegation policies to avoid undefined behavior." (Section III)

use crate::error::{Error, Result};
use crate::schema::{AttrId, RowId};
use htapg_taxonomy::FragmentScheme;

/// The access-pattern hint readers pass so replication-based relations can
/// route to the best layout (Section II's record- vs attribute-centric
/// distinction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessHint {
    /// Few rows, many attributes per row (the Q1 pattern).
    RecordCentric,
    /// Many rows, few attributes (the Q2 pattern).
    AttributeCentric,
}

/// One delegation rule: rows `[row_from, row_to)` of `attrs` (or all
/// attributes when `None`) are authoritative in layout `layout`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DelegationRule {
    pub attrs: Option<Vec<AttrId>>,
    pub row_from: RowId,
    /// Exclusive; use [`RowId::MAX`] for an open range.
    pub row_to: RowId,
    pub layout: usize,
}

impl DelegationRule {
    pub fn covers(&self, row: RowId, attr: AttrId) -> bool {
        let attr_ok = match &self.attrs {
            None => true,
            Some(list) => list.contains(&attr),
        };
        attr_ok && row >= self.row_from && row < self.row_to
    }
}

/// A total routing policy: first matching rule wins.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DelegationPolicy {
    rules: Vec<DelegationRule>,
}

impl DelegationPolicy {
    pub fn new(rules: Vec<DelegationRule>) -> Self {
        DelegationPolicy { rules }
    }

    /// All-regions-to-one-layout policy.
    pub fn all_to(layout: usize) -> Self {
        DelegationPolicy {
            rules: vec![DelegationRule { attrs: None, row_from: 0, row_to: RowId::MAX, layout }],
        }
    }

    pub fn rules(&self) -> &[DelegationRule] {
        &self.rules
    }

    pub fn push(&mut self, rule: DelegationRule) {
        self.rules.push(rule);
    }

    /// The authoritative layout of each of `arity` attributes at `row`,
    /// indexed by attribute: [`route`](Self::route) for a whole record at
    /// once. Each rule covering the row claims the attributes no earlier
    /// rule claimed.
    pub(crate) fn owners(&self, row: RowId, arity: usize) -> Result<Vec<usize>> {
        let mut owner = vec![usize::MAX; arity];
        for rule in self.rules.iter().filter(|r| (r.row_from..r.row_to).contains(&row)) {
            let mut claim = |a: usize| {
                if owner[a] == usize::MAX {
                    owner[a] = rule.layout;
                }
            };
            match &rule.attrs {
                None => (0..arity).for_each(&mut claim),
                Some(attrs) => {
                    attrs.iter().map(|&a| a as usize).filter(|&a| a < arity).for_each(&mut claim)
                }
            }
        }
        match owner.iter().position(|&l| l == usize::MAX) {
            Some(attr) => Err(Error::NoDelegate { row, attr: attr as AttrId }),
            None => Ok(owner),
        }
    }

    /// [`owners`](Self::owners) of every row at once: `Some` while no rule
    /// is row-bounded, so every row routes alike, and every attribute has
    /// an owner.
    pub(crate) fn uniform_owners(&self, arity: usize) -> Option<Vec<usize>> {
        let unbounded = self.rules.iter().all(|r| r.row_from == 0 && r.row_to == RowId::MAX);
        unbounded.then(|| self.owners(0, arity).ok()).flatten()
    }

    /// The authoritative layout for `(row, attr)`.
    pub fn route(&self, row: RowId, attr: AttrId) -> Result<usize> {
        self.rules
            .iter()
            .find(|r| r.covers(row, attr))
            .map(|r| r.layout)
            .ok_or(Error::NoDelegate { row, attr })
    }
}

/// How a relation's layouts relate to each other.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Scheme {
    /// Exactly one layout; no redundancy to manage.
    Single,
    /// Every layout holds a full copy; reads route by [`AccessHint`], writes
    /// go everywhere.
    Replication,
    /// Regions are exclusively owned per the policy; reads and writes route
    /// to the authoritative layout.
    Delegation(DelegationPolicy),
}

impl Scheme {
    pub fn taxonomy(&self) -> FragmentScheme {
        match self {
            Scheme::Single => FragmentScheme::None,
            Scheme::Replication => FragmentScheme::ReplicationBased,
            Scheme::Delegation(_) => FragmentScheme::DelegationBased,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_match_wins() {
        let p = DelegationPolicy::new(vec![
            DelegationRule { attrs: Some(vec![2]), row_from: 0, row_to: RowId::MAX, layout: 1 },
            DelegationRule { attrs: None, row_from: 0, row_to: RowId::MAX, layout: 0 },
        ]);
        assert_eq!(p.route(10, 2).unwrap(), 1);
        assert_eq!(p.route(10, 0).unwrap(), 0);
    }

    #[test]
    fn row_ranges() {
        let p = DelegationPolicy::new(vec![
            DelegationRule { attrs: None, row_from: 0, row_to: 100, layout: 0 },
            DelegationRule { attrs: None, row_from: 100, row_to: RowId::MAX, layout: 1 },
        ]);
        assert_eq!(p.route(99, 0).unwrap(), 0);
        assert_eq!(p.route(100, 0).unwrap(), 1);
    }

    #[test]
    fn missing_region_is_undefined_behavior_made_explicit() {
        let p = DelegationPolicy::new(vec![DelegationRule {
            attrs: Some(vec![0]),
            row_from: 0,
            row_to: RowId::MAX,
            layout: 0,
        }]);
        assert_eq!(p.route(5, 1), Err(Error::NoDelegate { row: 5, attr: 1 }));
    }

    #[test]
    fn taxonomy_mapping() {
        assert_eq!(Scheme::Single.taxonomy(), FragmentScheme::None);
        assert_eq!(Scheme::Replication.taxonomy(), FragmentScheme::ReplicationBased);
        assert_eq!(
            Scheme::Delegation(DelegationPolicy::all_to(0)).taxonomy(),
            FragmentScheme::DelegationBased
        );
    }
}
