//! Threading policies: single-threaded vs morsel-driven multi-threaded.
//!
//! Section II-B fixes multi-threaded runs to "8 threads with blockwise
//! partitioning of the input data (i.e., each thread operates on one
//! exclusive and subsequent list of input positions)", and single-threaded
//! runs to "no thread management involved at all ... sequentially on the
//! main thread". Finding (i): "on a tiny number of records ... sequential
//! execution outperforms multi-threaded execution since thread-management
//! costs dominate."
//!
//! [`run_blocks`] preserves those semantics — `Single` runs inline on the
//! calling thread, `Multi { threads }` caps the number of participating
//! threads (the paper's 8-thread setting is `threads = 8` total) — but is
//! implemented on the persistent morsel-driven [`pool`](crate::pool)
//! instead of spawn-per-call scoped threads: partitions are exclusive,
//! subsequent [`MORSEL_ROWS`](crate::pool::MORSEL_ROWS)-row position
//! ranges pulled off a shared cursor, and per-morsel results are folded in
//! morsel order, so every policy produces bit-for-bit identical results.
//! The crate-private `run_each` runs operator passes whose per-morsel
//! state the caller allocates and hands out, one piece per thread.

use htapg_core::sync::Mutex;

/// How an operator parallelizes over its input positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadingPolicy {
    /// Run on the calling thread; zero management overhead.
    Single,
    /// Run on the persistent [`pool`](crate::pool) with at most `threads`
    /// participating threads: the caller plus up to `threads - 1` pool
    /// workers, pulling [`MORSEL_ROWS`](crate::pool::MORSEL_ROWS)-row
    /// morsels off a shared cursor. Inputs of one morsel run inline.
    Multi { threads: usize },
}

impl ThreadingPolicy {
    /// The paper's multi-threaded setting.
    pub fn multi8() -> Self {
        ThreadingPolicy::Multi { threads: 8 }
    }

    pub fn threads(&self) -> usize {
        match self {
            ThreadingPolicy::Single => 1,
            ThreadingPolicy::Multi { threads } => (*threads).max(1),
        }
    }
}

/// Split `n` items into `parts` contiguous blocks (first blocks get the
/// remainder). Returns `(start, end)` pairs; empty blocks are omitted.
/// Static partitioning survives only in the spawn-per-call baseline
/// ([`crate::pool::spawn_blocks`]); the operators schedule morsels.
pub fn blockwise(n: u64, parts: usize) -> Vec<(u64, u64)> {
    let parts = parts.max(1) as u64;
    let base = n / parts;
    let rem = n % parts;
    let mut out = Vec::new();
    let mut start = 0u64;
    for p in 0..parts {
        let len = base + if p < rem { 1 } else { 0 };
        if len > 0 {
            out.push((start, start + len));
            start += len;
        }
    }
    out
}

/// Run `work` over morsel partitions of `0..n` under `policy` and fold the
/// per-morsel results with `combine`, in morsel order.
///
/// `Single` executes inline — "no thread management involved at all".
/// `Multi { threads }` runs on the persistent pool with at most `threads`
/// participating threads (the caller plus pool workers); `work` may borrow
/// from the caller, which blocks until the fold completes. Both paths fold
/// the identical morsel partition in the identical order, so results are
/// bit-for-bit equal across every policy and pool size. Inputs of at most
/// one morsel never touch the pool at all.
pub fn run_blocks<T, F>(
    n: u64,
    policy: ThreadingPolicy,
    work: F,
    combine: impl Fn(T, T) -> T,
    identity: T,
) -> T
where
    T: Send,
    F: Fn(u64, u64) -> T + Sync,
{
    match policy {
        ThreadingPolicy::Single => crate::pool::fold_morsels_seq(n, work, combine, identity),
        ThreadingPolicy::Multi { threads } => {
            crate::pool::run_morsels(n, threads, work, combine, identity)
        }
    }
}

/// Run `f` once on every item: on the pool under `Multi` when there are
/// at least two items (see [`run_tasks`](crate::pool::run_tasks)), in
/// order on the caller otherwise. Each item goes to exactly one thread, so
/// items can carry disjoint `&mut` pieces of buffers the caller allocated;
/// the call returns once every item is done.
pub(crate) fn run_each<S: Send>(
    items: impl IntoIterator<Item = S>,
    policy: ThreadingPolicy,
    f: impl Fn(S) + Sync,
) {
    let mut items = items.into_iter();
    let threads = policy.threads();
    if threads <= 1 {
        return items.for_each(f);
    }
    let Some(first) = items.next() else { return };
    let Some(second) = items.next() else { return f(first) };
    let cells: Vec<Mutex<Option<S>>> =
        [first, second].into_iter().chain(items).map(|s| Mutex::new(Some(s))).collect();
    crate::pool::run_tasks(cells.len() as u64, threads, |i| {
        f(cells[i as usize].lock().take().expect("each item is claimed once"))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blockwise_covers_exactly_once() {
        for n in [0u64, 1, 7, 8, 9, 1000] {
            for parts in [1usize, 3, 8, 16] {
                let blocks = blockwise(n, parts);
                let mut next = 0u64;
                for (lo, hi) in &blocks {
                    assert_eq!(*lo, next);
                    assert!(hi > lo);
                    next = *hi;
                }
                assert_eq!(next, n);
                assert!(blocks.len() <= parts);
            }
        }
    }

    #[test]
    fn blockwise_is_balanced() {
        let blocks = blockwise(10, 4);
        let sizes: Vec<u64> = blocks.iter().map(|(a, b)| b - a).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
    }

    #[test]
    fn run_blocks_single_equals_multi() {
        let data: Vec<u64> = (0..100_000).collect();
        let sum = |lo: u64, hi: u64| data[lo as usize..hi as usize].iter().sum::<u64>();
        let single = run_blocks(data.len() as u64, ThreadingPolicy::Single, sum, |a, b| a + b, 0);
        let multi = run_blocks(data.len() as u64, ThreadingPolicy::multi8(), sum, |a, b| a + b, 0);
        assert_eq!(single, multi);
        assert_eq!(single, (0..100_000u64).sum::<u64>());
    }

    #[test]
    fn run_blocks_empty_input() {
        let r = run_blocks(0, ThreadingPolicy::multi8(), |_, _| 1u64, |a, b| a + b, 0);
        assert_eq!(r, 0);
    }

    #[test]
    fn run_blocks_policies_are_bit_identical() {
        // Floating-point fold order is fixed by the morsel partition, so
        // every policy produces the same bits — not just "close" sums.
        let data: Vec<f64> = (0..300_000).map(|i| (i as f64).cos()).collect();
        let work = |lo: u64, hi: u64| data[lo as usize..hi as usize].iter().sum::<f64>();
        let single =
            run_blocks(data.len() as u64, ThreadingPolicy::Single, work, |a, b| a + b, 0.0);
        for threads in [2usize, 8, 32] {
            let multi = run_blocks(
                data.len() as u64,
                ThreadingPolicy::Multi { threads },
                work,
                |a, b| a + b,
                0.0,
            );
            assert_eq!(multi.to_bits(), single.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn policy_threads() {
        assert_eq!(ThreadingPolicy::Single.threads(), 1);
        assert_eq!(ThreadingPolicy::multi8().threads(), 8);
        assert_eq!(ThreadingPolicy::Multi { threads: 0 }.threads(), 1);
    }
}
