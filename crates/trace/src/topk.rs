//! The canonical top-k list shared by [`SpanSummary`](crate::SpanSummary)
//! and [`TierSummary`](crate::TierSummary): slowest first, ties broken by
//! shard then request id, at most [`TOP_K`] entries.
//!
//! Insertion is a binary search that lands after every entry with an
//! equal key, so inserting one entry at a time yields exactly the list a
//! stable sort of the whole stream would, and merging shard lists in
//! shard order is byte-stable at any thread count.

use std::cmp::Reverse;

use crate::span::TOP_K;

/// A top-k entry: its canonical ranking key and its shard stamp.
pub(crate) trait Ranked: Clone {
    /// `(slowest first, shard, request id)`.
    fn key(&self) -> (Reverse<u64>, u32, u64);
    /// The entry's shard stamp.
    fn shard_mut(&mut self) -> &mut u32;
}

/// Inserts `entry` into the canonical list `top`, keeping at most
/// [`TOP_K`] entries.
pub(crate) fn insert<T: Ranked>(top: &mut Vec<T>, entry: T) {
    let key = entry.key();
    let pos = top.partition_point(|e| e.key() <= key);
    if pos < TOP_K {
        top.insert(pos, entry);
        top.truncate(TOP_K);
    }
}

/// Folds `other` into `top` under the canonical ordering.
pub(crate) fn merge<T: Ranked>(top: &mut Vec<T>, other: &[T]) {
    for entry in other {
        insert(top, entry.clone());
    }
}

/// Stamps `shard` onto every entry (called once per shard before
/// merging, so merged entries stay attributable).
pub(crate) fn stamp_shard<T: Ranked>(top: &mut [T], shard: u32) {
    for entry in top {
        *entry.shard_mut() = shard;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TierTopSpan;
    use proptest::prelude::*;

    /// The per-completion maintenance `TierSpanCollector` used before the
    /// shared insert, kept verbatim as the reference.
    fn reference_push(top: &mut Vec<TierTopSpan>, entry: TierTopSpan) {
        top.push(entry);
        top.sort_by_key(Ranked::key);
        top.truncate(TOP_K);
    }

    /// The shard merge both summaries used before the shared merge, kept
    /// verbatim as the reference.
    fn reference_merge(top: &mut Vec<TierTopSpan>, other: &[TierTopSpan]) {
        top.extend(other.iter().cloned());
        top.sort_by_key(Ranked::key);
        top.truncate(TOP_K);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random completion streams over a narrow total/rid range, so
        /// equal totals (and even equal whole keys) are common; `network`
        /// numbers the completions so any reordering of equal keys shows.
        #[test]
        fn shared_insert_and_merge_match_sort_and_truncate(
            shards in prop::collection::vec(
                prop::collection::vec((0u64..6, 0u64..12), 0..40),
                1..5,
            ),
        ) {
            let mut serial = 0u64;
            let mut merged = Vec::new();
            let mut reference = Vec::new();
            for (shard, stream) in shards.iter().enumerate() {
                let mut top = Vec::new();
                let mut expected = Vec::new();
                for &(total, rid) in stream {
                    serial += 1;
                    let entry = TierTopSpan {
                        shard: 0,
                        rid,
                        total,
                        network: serial,
                        legs: vec![(0, total, serial)],
                    };
                    insert(&mut top, entry.clone());
                    reference_push(&mut expected, entry);
                }
                prop_assert_eq!(&top, &expected);
                stamp_shard(&mut top, shard as u32);
                stamp_shard(&mut expected, shard as u32);
                merge(&mut merged, &top);
                reference_merge(&mut reference, &expected);
                prop_assert_eq!(&merged, &reference);
            }
        }
    }
}
