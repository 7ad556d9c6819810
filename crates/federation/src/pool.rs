//! A small work-stealing fan-out for per-round client computation.
//!
//! The previous round loop split the sampled clients into `n_threads` fixed
//! chunks, which (a) froze the width for the whole round and (b) left
//! threads idle whenever chunk costs were uneven (malicious clients craft
//! poison, benign ones train — their costs differ a lot). This pool instead
//! has `width` workers pull items one at a time off a shared counter, so the
//! fastest worker simply takes more items, and the width can be chosen fresh
//! per round (e.g. from a [`CoreLease`](crate::CoreLease)).
//!
//! Determinism: every item is processed exactly once by exactly one worker,
//! and results land at their input index, so the output order is the input
//! order regardless of width or interleaving — callers get bit-identical
//! results at any width as long as `f` itself is order-independent.
//!
//! Panics in `f` propagate to the caller (the first payload is re-raised
//! after all workers finished), matching the behaviour callers of
//! `std::thread::scope` expect.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Applies `f` to every item, fanning out over `width` worker threads, and
/// returns the results in input order. `width <= 1` (or a single item) runs
/// inline without spawning.
pub fn map_ordered<T, U, F>(items: Vec<T>, width: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    if width <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }

    // One slot per item: a worker that wins index `i` on the shared counter
    // takes the item out and parks the result at the same index. The locks
    // are uncontended by construction (each index is claimed exactly once).
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let out: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    let workers = width.min(n);
    let first_panic = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= n {
                        break;
                    }
                    let item = work[i]
                        .lock()
                        .expect("round pool slot poisoned")
                        .take()
                        .expect("round pool item claimed twice");
                    let value = f(item);
                    *out[i].lock().expect("round pool result poisoned") = Some(value);
                })
            })
            .collect();
        // Join everything before propagating, so a panicking item never
        // strands siblings; re-raise the first payload unchanged to keep the
        // original panic message observable to callers.
        let mut first_panic = None;
        for handle in handles {
            if let Err(payload) = handle.join() {
                first_panic.get_or_insert(payload);
            }
        }
        first_panic
    });
    if let Some(payload) = first_panic {
        std::panic::resume_unwind(payload);
    }

    out.into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("round pool result poisoned")
                .expect("round pool item not executed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn preserves_input_order_at_any_width() {
        let items: Vec<usize> = (0..37).collect();
        let expect: Vec<usize> = items.iter().map(|x| x * 2).collect();
        for width in [1, 2, 3, 8, 64] {
            let got = map_ordered(items.clone(), width, |x| x * 2);
            assert_eq!(got, expect, "width {width}");
        }
    }

    #[test]
    fn each_item_processed_exactly_once() {
        let calls = AtomicUsize::new(0);
        let got = map_ordered((0..100).collect::<Vec<_>>(), 4, |x| {
            calls.fetch_add(1, Ordering::SeqCst);
            x
        });
        assert_eq!(got.len(), 100);
        assert_eq!(calls.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn handles_empty_and_singleton_inputs() {
        assert_eq!(map_ordered(Vec::<u8>::new(), 8, |x| x), Vec::<u8>::new());
        assert_eq!(map_ordered(vec![7], 8, |x| x + 1), vec![8]);
    }

    #[test]
    fn uneven_item_costs_still_complete() {
        // One slow item must not serialize the rest behind it.
        let got = map_ordered((0..16).collect::<Vec<u64>>(), 4, |x| {
            if x == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            x * x
        });
        assert_eq!(got, (0..16).map(|x| x * x).collect::<Vec<u64>>());
    }

    #[test]
    fn panics_propagate_with_their_message() {
        let caught = std::panic::catch_unwind(|| {
            map_ordered((0..8).collect::<Vec<_>>(), 4, |x| {
                if x == 5 {
                    panic!("client 5 exploded");
                }
                x
            })
        })
        .unwrap_err();
        let message = caught
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_string)
            .or_else(|| caught.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(message.contains("client 5 exploded"), "{message}");
    }

    #[test]
    fn borrows_shared_state_through_f() {
        let base = [10usize, 20, 30];
        let got = map_ordered(vec![0usize, 1, 2], 2, |i| base[i] + i);
        assert_eq!(got, vec![10, 21, 32]);
    }
}
