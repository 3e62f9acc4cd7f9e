//! The partition's rolling checkpoint image and the hash map that holds its
//! records.
//!
//! A fold applies a bounded chunk of cold log entries to an image of 10⁵ to
//! 10⁶ records, so an image write must cost the same whatever the image's
//! size: the records sit in [`IMAGE_SHARDS`] hash maps, one per Fibonacci
//! shard of the key ([`primo_common::hash::shard_of`], the rule a storage
//! table's shards use), hashed by the engine's [`primo_common::FastHasher`].
//! A growing image rehashes one shard at a time — about 1/64 of its records
//! — never the whole image. Shards that fill at the same rate (sequential
//! keys under Fibonacci sharding do) would all cross their doubling point in
//! the same fold step, so after each step the fold doubles ahead of need the
//! one shard with the least headroom, once that headroom is under twice
//! what the step added (`ImageRecords::grow_ahead`): at a steady rate of
//! growth every shard is doubled, one per step, before any of them fills,
//! and no fold step rehashes more than 1/64 of the image. Nothing reads the
//! image in key order: recovery restores it record by record, so its
//! iteration order is the maps'.
//!
//! The image also counts the records it touches ([`ImageRecords::touched`]:
//! every insert, remove, lookup, record iterated and record cloned), so what
//! a fold costs is a count a test can assert exactly.

use crate::log::{LoggedOp, LoggedWrite};
use primo_common::hash::shard_of;
use primo_common::{FastMap, Key, TableId, Ts, Value};
use std::cell::Cell;

/// Hash maps one image's records are spread over.
pub const IMAGE_SHARDS: usize = 64;

/// `(table, key) -> (value, commit ts)`, sharded (see the module docs).
#[derive(Debug)]
pub struct ImageRecords {
    shards: Vec<FastMap<(TableId, Key), (Value, Ts)>>,
    touched: Cell<u64>,
}

impl Default for ImageRecords {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl Clone for ImageRecords {
    /// Counts every record as touched.
    fn clone(&self) -> Self {
        self.touch(self.len());
        ImageRecords {
            shards: self.shards.clone(),
            touched: self.touched.clone(),
        }
    }
}

impl ImageRecords {
    /// An empty image with room for `records` records: filling it that far
    /// rehashes nothing.
    pub fn with_capacity(records: usize) -> Self {
        // An eighth more than the even share absorbs the shards' spread.
        let per_shard = (records + records / 8).div_ceil(IMAGE_SHARDS);
        ImageRecords {
            shards: (0..IMAGE_SHARDS)
                .map(|_| FastMap::with_capacity_and_hasher(per_shard, Default::default()))
                .collect(),
            touched: Cell::new(0),
        }
    }

    fn touch(&self, records: usize) {
        self.touched.set(self.touched.get() + records as u64);
    }

    /// Records touched since the image was created (see the module docs).
    pub fn touched(&self) -> u64 {
        self.touched.get()
    }

    pub fn insert(&mut self, id: (TableId, Key), record: (Value, Ts)) -> Option<(Value, Ts)> {
        self.touch(1);
        self.shards[shard_of(id.1, IMAGE_SHARDS)].insert(id, record)
    }

    pub fn remove(&mut self, id: &(TableId, Key)) -> Option<(Value, Ts)> {
        self.touch(1);
        self.shards[shard_of(id.1, IMAGE_SHARDS)].remove(id)
    }

    pub fn get(&self, id: &(TableId, Key)) -> Option<&(Value, Ts)> {
        self.touch(1);
        self.shards[shard_of(id.1, IMAGE_SHARDS)].get(id)
    }

    /// Every record, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (&(TableId, Key), &(Value, Ts))> {
        self.shards.iter().flatten().inspect(|_| self.touch(1))
    }

    pub fn len(&self) -> usize {
        self.shards.iter().map(FastMap::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(FastMap::is_empty)
    }

    /// Double at most one shard ahead of need, after a fold step that added
    /// `grown` records: the shard with the least headroom, once that
    /// headroom is under `2 × grown` (see the module docs).
    pub(crate) fn grow_ahead(&mut self, grown: usize) {
        let shard = (self.shards.iter_mut())
            .min_by_key(|s| s.capacity() - s.len())
            .expect("an image has IMAGE_SHARDS shards");
        let headroom = shard.capacity() - shard.len();
        if headroom < 2 * grown {
            shard.reserve(headroom + 1);
        }
    }
}

/// The partition's rolling checkpoint image: the state of one partition at
/// `base_lsn`, equivalent to replaying every committed transaction logged
/// below `base_lsn` into the base image.
///
/// The image is built *from the log*, never from the live store (except the
/// quiescent base image taken right after loading): it is advanced in place
/// by folding the covered quorum-durable log prefix into it, so it is
/// consistent by construction even while transactions keep installing
/// concurrently, and it never holds a write a crash could still roll back.
#[derive(Debug, Clone, Default)]
pub struct CheckpointImage {
    /// Every logged transaction with a commit timestamp `<= up_to_ts` that
    /// was folded is reflected in `records`.
    pub up_to_ts: Ts,
    /// First LSN **not** folded into this image: recovery replays the
    /// retained log from here.
    pub base_lsn: u64,
    /// LSN of the [`crate::LogPayload::Checkpoint`] marker appended when the
    /// base image was installed. The image is restorable once the marker is
    /// quorum-durable — a crash before that loses it like any other
    /// volatile record.
    pub installed_lsn: u64,
    /// Committed records: `(table, key) -> (value, commit ts)`.
    pub records: ImageRecords,
}

impl CheckpointImage {
    /// Apply one committed transaction's writes at `ts` (delete removes the
    /// key). Applying the same transaction twice is idempotent.
    pub fn apply(&mut self, ts: Ts, writes: &[LoggedWrite]) {
        for w in writes {
            match &w.op {
                LoggedOp::Put(v) => {
                    self.records.insert((w.table, w.key), (v.clone(), ts));
                }
                LoggedOp::Delete => {
                    self.records.remove(&(w.table, w.key));
                }
            }
        }
        self.up_to_ts = self.up_to_ts.max(ts);
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The image's coverage without its records.
    pub fn summary(&self) -> ImageSummary {
        ImageSummary {
            up_to_ts: self.up_to_ts,
            base_lsn: self.base_lsn,
            records: self.records.len(),
        }
    }
}

/// What a [`CheckpointImage`] covers, without its records (see
/// [`crate::ReplicatedLog::latest_checkpoint`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImageSummary {
    pub up_to_ts: Ts,
    /// First LSN not folded into the image.
    pub base_lsn: u64,
    /// Number of committed records in the image.
    pub records: usize,
}

impl ImageSummary {
    pub fn len(&self) -> usize {
        self.records
    }

    pub fn is_empty(&self) -> bool {
        self.records == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use primo_common::FastRng;
    use std::collections::BTreeMap;

    #[test]
    fn checkpoint_image_apply_is_idempotent() {
        let mut image = CheckpointImage::default();
        let ws = vec![
            LoggedWrite::put(TableId(0), 1, Value::from_u64(10)),
            LoggedWrite::delete(TableId(0), 2).with_prev(Some(Value::from_u64(2))),
        ];
        image
            .records
            .insert((TableId(0), 2), (Value::from_u64(2), 1));
        image.apply(5, &ws);
        let once = image.clone();
        image.apply(5, &ws);
        assert_eq!(once.records.len(), image.records.len());
        assert_eq!(image.up_to_ts, 5);
        assert!(image.records.get(&(TableId(0), 1)).is_some());
        assert!(image.records.get(&(TableId(0), 2)).is_none());
        assert_eq!(image.len(), 1);
        assert!(!image.is_empty());
    }

    type Model = BTreeMap<(TableId, Key), (Value, Ts)>;

    fn sorted(image: &CheckpointImage) -> Vec<((TableId, Key), (Value, Ts))> {
        let mut records: Vec<_> = image
            .records
            .iter()
            .map(|(id, record)| (*id, record.clone()))
            .collect();
        records.sort_by_key(|(id, _)| *id);
        records
    }

    fn model_apply(model: &mut Model, ts: Ts, writes: &[LoggedWrite]) {
        for w in writes {
            match &w.op {
                LoggedOp::Put(v) => model.insert((w.table, w.key), (v.clone(), ts)),
                LoggedOp::Delete => model.remove(&(w.table, w.key)),
            };
        }
    }

    /// Seeded runs of applies, inserts and removes leave the sharded image
    /// and an ordered map with the same records, and applying a
    /// transaction twice changes nothing. Keys mix a dense range, strides of
    /// 2^k and TPC-C-like multiples of 10⁷ over three tables.
    #[test]
    fn the_image_agrees_with_an_ordered_map() {
        for seed in 1..=8u64 {
            let mut rng = FastRng::new(seed);
            let key = |rng: &mut FastRng| {
                let table = TableId(rng.next_below(3) as u32);
                let k = match rng.next_below(3) {
                    0 => rng.next_below(4_096),
                    1 => rng.next_below(256) << (rng.next_below(21)),
                    _ => rng.next_below(64) * 10_000_000 + rng.next_below(16),
                };
                (table, k)
            };
            let mut image = CheckpointImage::default();
            let mut model = Model::new();
            for step in 0..4_000u64 {
                let ts = step + 1;
                match rng.next_below(4) {
                    0 | 1 => {
                        let writes: Vec<_> = (0..1 + rng.next_below(6))
                            .map(|_| {
                                let (t, k) = key(&mut rng);
                                if rng.next_below(4) == 0 {
                                    LoggedWrite::delete(t, k)
                                } else {
                                    LoggedWrite::put(t, k, Value::from_u64(ts))
                                }
                            })
                            .collect();
                        image.apply(ts, &writes);
                        model_apply(&mut model, ts, &writes);
                        let written = |image: &CheckpointImage| -> Vec<_> {
                            let ids = writes.iter().map(|w| (w.table, w.key));
                            ids.map(|id| image.records.get(&id).cloned()).collect()
                        };
                        let (once, len) = (written(&image), image.len());
                        image.apply(ts, &writes);
                        assert_eq!(
                            (written(&image), image.len()),
                            (once, len),
                            "seed {seed} step {step}: apply twice"
                        );
                    }
                    2 => {
                        let id = key(&mut rng);
                        let record = (Value::from_u64(ts), ts);
                        assert_eq!(
                            image.records.insert(id, record.clone()),
                            model.insert(id, record)
                        );
                    }
                    _ => {
                        let id = key(&mut rng);
                        assert_eq!(image.records.remove(&id), model.remove(&id));
                    }
                }
                assert_eq!(image.len(), model.len(), "seed {seed} step {step}");
            }
            let expected: Vec<_> = model.into_iter().collect();
            assert_eq!(sorted(&image), expected, "seed {seed}");
        }
    }

    /// Sequential keys fill every shard at the same rate, so without
    /// growing ahead 52 of the 64 shards double inside one step here.
    #[test]
    fn a_growing_image_rehashes_at_most_one_shard_per_step() {
        const STEP: u64 = 1_400;
        let mut image = ImageRecords::with_capacity(64_000);
        let mut next = 0u64;
        for step in 0..400 {
            let before: Vec<usize> = image.shards.iter().map(FastMap::capacity).collect();
            let len = image.len();
            for _ in 0..STEP {
                image.insert((TableId(1), next * 16), (Value::zeroed(0), 1));
                next += 1;
            }
            image.grow_ahead(image.len() - len);
            let rehashed = image
                .shards
                .iter()
                .zip(&before)
                .filter(|(s, cap)| s.capacity() != **cap)
                .count();
            assert!(rehashed <= 1, "step {step}: {rehashed} shards rehashed");
        }
    }

    #[test]
    fn every_touch_counts() {
        let mut image = ImageRecords::with_capacity(1_000);
        for k in 0..100 {
            image.insert((TableId(0), k), (Value::from_u64(k), 1));
        }
        image.remove(&(TableId(0), 0));
        image.get(&(TableId(0), 1));
        assert_eq!(image.touched(), 102);
        assert_eq!(image.iter().count(), 99);
        assert_eq!(image.touched(), 201);
        let copy = image.clone();
        assert_eq!(image.touched(), 300);
        assert_eq!(copy.len(), 99);
    }
}
