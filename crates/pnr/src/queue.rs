//! A monotone radix queue for the router's A* (Ahuja, Mehlhorn, Orlin
//! and Tarjan, "Faster algorithms for the shortest path problem", JACM
//! 1990).
//!
//! Entries are `(f, g, node)` and pop smallest first, in exactly the
//! order a `BinaryHeap<Reverse<(f, g, node)>>` pops them, provided no
//! entry is pushed below the last one popped. The search's heuristic is
//! consistent, so its pushes never are.
//!
//! An entry whose `f` differs from the last popped `f` waits in the
//! bucket named by the highest bit in which the two differ; entries
//! whose `f` equals it sit in a small heap keyed `(g, node)`. When that
//! heap runs dry, the lowest non-empty bucket is emptied: its least `f`
//! becomes the new last, and its entries drop into the heap or into
//! lower buckets. Each entry moves down at most 64 times in all.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

pub(crate) struct RadixQueue {
    /// `buckets[i]` holds entries whose `f` first differs from `last.0`
    /// at bit `i`.
    buckets: [Vec<(u64, u64, u32)>; 64],
    /// Bit `i` set when `buckets[i]` is non-empty.
    occupied: u64,
    /// Entries whose `f` equals `last.0`, keyed `(g, node)`.
    ties: BinaryHeap<Reverse<(u64, u32)>>,
    /// The last entry popped; the buckets are relative to its `f`.
    last: (u64, u64, u32),
}

impl RadixQueue {
    pub(crate) fn new() -> RadixQueue {
        RadixQueue {
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            ties: BinaryHeap::new(),
            last: (0, 0, 0),
        }
    }

    /// Empties the queue, keeping every buffer's capacity.
    pub(crate) fn clear(&mut self) {
        while self.occupied != 0 {
            let i = self.occupied.trailing_zeros() as usize;
            self.buckets[i].clear();
            self.occupied &= self.occupied - 1;
        }
        self.ties.clear();
        self.last = (0, 0, 0);
    }

    /// Queues `(f, g, node)`, which must not sort below the last pop.
    pub(crate) fn push(&mut self, f: u64, g: u64, node: u32) {
        debug_assert!(
            (f, g, node) >= self.last,
            "push {:?} below the last pop {:?}",
            (f, g, node),
            self.last
        );
        self.file(f, g, node);
    }

    /// Removes and returns the least `(f, g, node)`.
    pub(crate) fn pop(&mut self) -> Option<(u64, u64, u32)> {
        if self.ties.is_empty() {
            if self.occupied == 0 {
                return None;
            }
            let i = self.occupied.trailing_zeros() as usize;
            self.occupied &= !(1 << i);
            let mut emptied = std::mem::take(&mut self.buckets[i]);
            self.last.0 = emptied.iter().map(|e| e.0).min().expect("occupied bucket");
            // Every entry shares the new `last.0`'s bits above `i`, so
            // each one lands in the ties or in a bucket below `i`.
            for (f, g, node) in emptied.drain(..) {
                self.file(f, g, node);
            }
            self.buckets[i] = emptied;
        }
        let Reverse((g, node)) = self.ties.pop().expect("an emptied bucket refills the ties");
        self.last = (self.last.0, g, node);
        Some(self.last)
    }

    /// Puts an entry in the ties when its `f` equals `last.0`, else in
    /// the bucket of the highest bit in which the two differ.
    fn file(&mut self, f: u64, g: u64, node: u32) {
        let diff = f ^ self.last.0;
        if diff == 0 {
            self.ties.push(Reverse((g, node)));
        } else {
            let i = 63 - diff.leading_zeros() as usize;
            self.buckets[i].push((f, g, node));
            self.occupied |= 1 << i;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Each step is `(op, width, raw, dg, node)`: ops 0–5 push, 6
        /// pushes the last popped entry again, 7–10 pop and 11 clears. A
        /// push raises `f` above the last pop's by 0, by a few, by one
        /// power of two or by up to 2^63, and when `f` ties it raises
        /// `(g, node)` instead.
        #[test]
        fn pops_as_a_binary_heap_does(
            steps in proptest::collection::vec(
                (0u8..12, 0u8..4, 0u64..=u64::MAX >> 1, 0u64..3, 0u32..6),
                1..400,
            ),
        ) {
            let mut queue = RadixQueue::new();
            let mut heap = BinaryHeap::new();
            let mut last = (0u64, 0u64, 0u32);
            for (op, width, raw, dg, node) in steps {
                let entry = match op {
                    0..=5 => {
                        let df = match width {
                            0 => 0,
                            1 => raw % 4,
                            2 => 1 << (raw % 63),
                            _ => raw,
                        };
                        // Keys stay below 2^63, so no sum overflows.
                        let f = (last.0 + df).min(u64::MAX >> 1);
                        Some(if f > last.0 {
                            (f, dg, node)
                        } else if dg > 0 {
                            (f, last.1 + dg, node)
                        } else {
                            (f, last.1, last.2.max(node))
                        })
                    }
                    6 => Some(last),
                    7..=10 => {
                        let popped = queue.pop();
                        prop_assert_eq!(popped, heap.pop().map(|Reverse(e)| e));
                        last = popped.unwrap_or(last);
                        None
                    }
                    _ => {
                        queue.clear();
                        heap.clear();
                        last = (0, 0, 0);
                        None
                    }
                };
                if let Some((f, g, node)) = entry {
                    queue.push(f, g, node);
                    heap.push(Reverse((f, g, node)));
                }
            }
            while let Some(Reverse(entry)) = heap.pop() {
                prop_assert_eq!(queue.pop(), Some(entry));
            }
            prop_assert_eq!(queue.pop(), None);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "below the last pop")]
    fn push_below_the_last_pop_panics() {
        let mut queue = RadixQueue::new();
        queue.push(5, 2, 0);
        queue.pop();
        queue.push(5, 1, 0);
    }
}
