//! Shared plumbing for engine implementations.

use htapg_core::sync::RwLock;
use std::sync::Arc;

use htapg_core::plan::Predicate;
use htapg_core::retry::{with_retry, RetryPolicy};
use htapg_core::{AttrId, Error, RelationId, Result, Schema};
use htapg_device::{kernels, BufferId, SimDevice};

/// A concurrent registry of per-relation states.
///
/// Engines keep one `Registry<TheirRelationState>`; relation ids are dense
/// handles. Each relation carries its own lock so operations on different
/// relations never contend.
#[derive(Debug, Default)]
pub struct Registry<T> {
    items: RwLock<Vec<Arc<RwLock<T>>>>,
}

impl<T> Registry<T> {
    pub fn new() -> Self {
        Registry { items: RwLock::new(Vec::new()) }
    }

    /// Register a new relation state; returns its id.
    pub fn add(&self, state: T) -> RelationId {
        let mut items = self.items.write();
        items.push(Arc::new(RwLock::new(state)));
        (items.len() - 1) as RelationId
    }

    /// Clone the handle for a relation.
    pub fn get(&self, rel: RelationId) -> Result<Arc<RwLock<T>>> {
        self.items.read().get(rel as usize).cloned().ok_or(Error::UnknownRelation(rel))
    }

    /// Run `f` with shared access to the relation state.
    pub fn read<R>(&self, rel: RelationId, f: impl FnOnce(&T) -> Result<R>) -> Result<R> {
        let handle = self.get(rel)?;
        let guard = handle.read();
        f(&guard)
    }

    /// Run `f` with exclusive access to the relation state.
    pub fn write<R>(&self, rel: RelationId, f: impl FnOnce(&mut T) -> Result<R>) -> Result<R> {
        let handle = self.get(rel)?;
        let mut guard = handle.write();
        f(&mut guard)
    }

    pub fn len(&self) -> usize {
        self.items.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Handles of all relations (for maintenance sweeps).
    pub fn all(&self) -> Vec<Arc<RwLock<T>>> {
        self.items.read().clone()
    }
}

/// The device sum behind every device-backed engine's
/// [`StorageEngine::offload_sum`]: the canonical two-pass reduction, or
/// its fused filter variant, over the fresh packed-`f64` replica `buf`
/// the engine found under its own placement and delta-merge policy. A
/// transient launch fault is retried with virtual backoff charged to the
/// device ledger.
pub(crate) fn device_sum(
    device: &SimDevice,
    buf: BufferId,
    pred: Option<&Predicate>,
) -> Result<f64> {
    with_retry(&RetryPolicy::default(), device.ledger(), || match pred {
        None => kernels::reduce_sum_f64(device, buf),
        Some(p) => kernels::filter_sum_f64(device, buf, |v| p.matches(v)),
    })
}

/// The device group-sum behind [`StorageEngine::offload_group_sum`]:
/// [`kernels::group_sum_f64`] over the value replica `buf` by the rows'
/// `keys`, retried like [`device_sum`].
pub(crate) fn device_group_sum(
    device: &SimDevice,
    buf: BufferId,
    keys: &[i64],
) -> Result<Vec<(i64, f64)>> {
    with_retry(&RetryPolicy::default(), device.ledger(), || {
        kernels::group_sum_f64(device, buf, keys)
    })
}

/// The integer group key of every row, in row order, decoded by the key
/// column's [`kernels::key_decoder`] from the blocks `read` serves: the
/// engine's block read of `[key_attr]`, under whatever lock the caller
/// holds. A non-integer key column is the host's typed error.
pub(crate) fn read_keys(
    schema: &Schema,
    key_attr: AttrId,
    read: impl FnOnce(&mut dyn FnMut(&[&[u8]])) -> Result<()>,
) -> Result<Vec<i64>> {
    let dec =
        kernels::key_decoder(schema.key_ty(key_attr)?).expect("key_ty admits integer types only");
    let mut keys = Vec::new();
    read(&mut |blocks| {
        let at = keys.len();
        keys.resize(at + blocks[0].len() / dec.width, 0);
        (dec.decode)(blocks[0], &mut keys[at..]);
    })?;
    Ok(keys)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_read_write() {
        let r: Registry<i32> = Registry::new();
        let a = r.add(1);
        let b = r.add(2);
        assert_ne!(a, b);
        assert_eq!(r.read(a, |v| Ok(*v)).unwrap(), 1);
        r.write(b, |v| {
            *v = 20;
            Ok(())
        })
        .unwrap();
        assert_eq!(r.read(b, |v| Ok(*v)).unwrap(), 20);
        assert!(matches!(r.read(9, |_| Ok(())), Err(Error::UnknownRelation(9))));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn all_returns_handles() {
        let r: Registry<String> = Registry::new();
        r.add("x".into());
        r.add("y".into());
        let handles = r.all();
        assert_eq!(handles.len(), 2);
        assert_eq!(*handles[1].read(), "y");
    }
}
