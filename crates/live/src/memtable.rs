//! The gauged in-memory write buffer of a live dataset.
//!
//! Inserts land here first; the buffer's bytes are registered with the
//! environment's [`MemoryGauge`](usj_io::MemoryGauge) through an RAII
//! reservation, so ingestion competes with queries for the same governed
//! budget. When the buffer reaches the flush threshold the owning
//! [`LiveDataset`](crate::LiveDataset) drains it into a sorted delta run on
//! the device.

use usj_geom::{sort_by_lower_y, Item, Rect, ITEM_BYTES};
use usj_io::{MemoryReservation, SimEnv};

use crate::Result;

/// An insert buffer whose footprint is charged to the memory gauge.
#[derive(Debug)]
pub struct Memtable {
    items: Vec<Item>,
    bbox: Rect,
    reservation: MemoryReservation,
}

impl Memtable {
    /// An empty memtable reserving against `env`'s gauge.
    pub fn new(env: &SimEnv) -> Self {
        Memtable {
            items: Vec::new(),
            bbox: Rect::empty(),
            reservation: env.memory.reserve_empty(),
        }
    }

    /// Buffered inserts.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Gauged footprint of the buffer (its reserved capacity, not just the
    /// occupied prefix — honest about what the allocator holds). This is
    /// the number [`LiveDataset::wants_freeze`](crate::LiveDataset::wants_freeze)
    /// compares with the flush threshold, so a freeze fires at the first
    /// capacity doubling past it rather than at the threshold itself.
    pub fn bytes(&self) -> usize {
        self.items.capacity() * ITEM_BYTES
    }

    /// Bounding box of the buffered inserts (empty when nothing is
    /// buffered).
    pub fn bbox(&self) -> Rect {
        self.bbox
    }

    /// The buffered items, in arrival order.
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// Buffers one insert, growing the gauge reservation with the vector.
    ///
    /// Fails with `MemoryLimitExceeded` when the gauge cannot cover the
    /// grown buffer — the caller should flush and retry, or surface the
    /// pressure to its admission layer.
    pub fn insert(&mut self, item: Item) -> Result<()> {
        self.items.push(item);
        self.bbox = if self.bbox.is_empty() {
            item.rect
        } else {
            self.bbox.union(&item.rect)
        };
        self.reservation.try_set(self.bytes())?;
        Ok(())
    }

    /// Drains the buffer, returning every item in the order of every
    /// persisted run — ascending packed sweep key, ties by the full sweep
    /// comparator — and releases the gauge reservation. Ties must be ordered
    /// too: compaction *merges* runs with the external sort's `(key,
    /// comparator)` order, and a merge only equals a sort when every input
    /// is sorted by all of it.
    pub fn drain_sorted(&mut self) -> Vec<Item> {
        let mut items = std::mem::take(&mut self.items);
        sort_by_lower_y(&mut items);
        self.bbox = Rect::empty();
        self.reservation.release();
        items
    }

    /// Freezes the buffer for an asynchronous flush: returns the items
    /// sorted by sweep key, their bounding box, and the gauge reservation
    /// they hold (transferred via
    /// [`MemoryReservation::take`](usj_io::MemoryReservation::take), so the
    /// bytes stay charged until the frozen batch is persisted and dropped).
    /// The memtable is left empty and immediately ready for new inserts.
    pub fn freeze(&mut self) -> (Vec<Item>, Rect, MemoryReservation) {
        let mut items = std::mem::take(&mut self.items);
        sort_by_lower_y(&mut items);
        let bbox = std::mem::replace(&mut self.bbox, Rect::empty());
        (items, bbox, self.reservation.take())
    }
}

/// A sorted, frozen copy of the memtable for a snapshot, charged to the
/// *reader's* environment is unnecessary: the copy is part of the snapshot
/// value itself (a handful of in-flight inserts by construction — the
/// flush threshold bounds it).
pub(crate) fn frozen_sorted(items: &[Item]) -> Vec<Item> {
    let mut copy = items.to_vec();
    sort_by_lower_y(&mut copy);
    copy
}

#[cfg(test)]
mod tests {
    use super::*;
    use usj_io::MachineConfig;

    fn item(x: f32, y: f32, id: u32) -> Item {
        Item::new(Rect::from_coords(x, y, x + 1.0, y + 1.0), id)
    }

    #[test]
    fn inserts_register_with_the_gauge_and_drain_releases() {
        let env = SimEnv::new(MachineConfig::machine3());
        let mut mem = Memtable::new(&env);
        for i in 0..100 {
            mem.insert(item(i as f32, (100 - i) as f32, i)).unwrap();
        }
        assert_eq!(mem.len(), 100);
        assert!(mem.bytes() >= 100 * ITEM_BYTES);
        assert!(env.memory.current() >= 100 * ITEM_BYTES);
        assert!(mem.bbox().contains(&item(3.0, 97.0, 3).rect));

        let drained = mem.drain_sorted();
        assert_eq!(drained.len(), 100);
        assert!(drained
            .windows(2)
            .all(|w| w[0].sweep_key() <= w[1].sweep_key()));
        assert!(mem.is_empty());
        assert_eq!(env.memory.current(), 0, "drain releases the reservation");
    }

    #[test]
    fn freeze_hands_the_reservation_over_and_resets_the_buffer() {
        let env = SimEnv::new(MachineConfig::machine3());
        let mut mem = Memtable::new(&env);
        for i in 0..50 {
            mem.insert(item(i as f32, (50 - i) as f32, i)).unwrap();
        }
        let charged = env.memory.current();
        assert!(charged >= 50 * ITEM_BYTES);

        let (items, bbox, reservation) = mem.freeze();
        assert_eq!(items.len(), 50);
        assert!(items
            .windows(2)
            .all(|w| w[0].sweep_key() <= w[1].sweep_key()));
        assert!(!bbox.is_empty());
        assert!(mem.is_empty());
        assert!(mem.bbox().is_empty());
        // The bytes stay charged through the handed-over reservation...
        assert_eq!(env.memory.current(), charged);
        // ...and the emptied memtable accepts new inserts immediately.
        mem.insert(item(1.0, 1.0, 999)).unwrap();
        drop(reservation);
        assert!(env.memory.current() < charged);
    }

    #[test]
    fn insert_fails_when_the_gauge_is_exhausted() {
        let env = SimEnv::new(MachineConfig::machine3()).with_memory_limit(1024);
        let mut mem = Memtable::new(&env);
        let mut failed = false;
        for i in 0..10_000 {
            if mem.insert(item(0.0, i as f32, i)).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "a 1 KB gauge cannot hold 10k buffered inserts");
    }
}
