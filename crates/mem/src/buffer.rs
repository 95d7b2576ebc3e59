//! Per-cache prefetch buffer.
//!
//! Following the paper's baseline (§6), prefetched blocks are *not*
//! installed in the cache directly; they land in a small FIFO buffer
//! (4 × 16 B entries by default) to avoid polluting the cache. A demand
//! access that finds its block here promotes it into the cache and counts
//! the prefetch as *useful*. Blocks that are evicted unused, or wiped by a
//! power failure before any hit, count as *useless* — the exact waste IPEX
//! exists to suppress (paper §2.3). The buffer also answers "is a prefetch
//! for this block already in flight?", which §5.1 uses to suppress
//! duplicate demand requests.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::block::block_of;
use crate::Persist;

/// Counters maintained by a [`PrefetchBuffer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrefetchBufferStats {
    /// Prefetched blocks inserted into the buffer.
    pub inserted: u64,
    /// Prefetches that received a demand hit (promoted to the cache).
    pub useful: u64,
    /// Entries evicted by newer prefetches before any demand hit.
    pub evicted_unused: u64,
    /// Entries wiped by power failure before any demand hit.
    pub lost_unused: u64,
    /// Demand misses that found an in-flight prefetch and waited for it
    /// instead of issuing a duplicate NVM request (§5.1).
    pub duplicate_suppressed: u64,
    /// Prefetch requests skipped because the block was already resident
    /// in the buffer or cache.
    pub redundant_skipped: u64,
}

impl PrefetchBufferStats {
    /// Prefetches whose block never received a hit (evicted or lost).
    pub fn useless(&self) -> u64 {
        self.evicted_unused + self.lost_unused
    }

    /// Prefetch accuracy: useful / (useful + useless), in `[0, 1]`.
    /// Returns 1.0 when no prefetch has completed its fate yet.
    pub fn accuracy(&self) -> f64 {
        let settled = self.useful + self.useless();
        if settled == 0 {
            1.0
        } else {
            self.useful as f64 / settled as f64
        }
    }
}

/// Outcome of [`PrefetchBuffer::insert`], so the caller (e.g. a tracing
/// simulator) can see buffer-internal fates without re-deriving them from
/// the statistics deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The prefetch was accepted; the buffer had a free entry.
    Inserted,
    /// The prefetch was accepted and the oldest entry — the contained
    /// block address — was evicted unused to make room.
    InsertedEvicting(u32),
    /// The block was already resident or in flight; nothing changed.
    Redundant,
}

/// Outcome of [`PrefetchBuffer::lookup`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferLookup {
    /// Cycle at which the prefetched data is (or was) available. If this
    /// is in the future, the prefetch is *late* and the pipeline must
    /// stall until then (§5.1).
    pub ready_at: u64,
}

/// One buffered prefetch: how the buffer holds it and how a
/// [`BufferState`] carries it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BufferEntryState {
    /// Block base address.
    pub block: u32,
    /// Cycle at which the prefetched data is (or was) available.
    pub ready_at: u64,
}

/// Complete serializable state of a [`PrefetchBuffer`] — entries in
/// FIFO order (oldest first) plus the accumulated statistics. Produced
/// and consumed through the buffer's [`Persist`] impl.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BufferState {
    /// Entries oldest-first.
    pub entries: Vec<BufferEntryState>,
    /// Counters at the time of the export.
    pub stats: PrefetchBufferStats,
}

/// A small FIFO buffer holding prefetched blocks (and in-flight
/// prefetches) for one cache.
#[derive(Debug, Clone)]
pub struct PrefetchBuffer {
    capacity: usize,
    entries: VecDeque<BufferEntryState>,
    stats: PrefetchBufferStats,
}

impl PrefetchBuffer {
    /// Creates a buffer with room for `capacity` blocks (paper default: 4).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> PrefetchBuffer {
        assert!(capacity > 0, "prefetch buffer needs at least one entry");
        PrefetchBuffer {
            capacity,
            entries: VecDeque::with_capacity(capacity),
            stats: PrefetchBufferStats::default(),
        }
    }

    /// Buffer capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy in entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no prefetches are buffered or in flight.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> PrefetchBufferStats {
        self.stats
    }

    /// `true` if the block containing `addr` is buffered or in flight.
    #[inline]
    pub fn contains(&self, addr: u32) -> bool {
        let block = block_of(addr);
        self.entries.iter().any(|e| e.block == block)
    }

    /// Inserts a prefetch for the block containing `addr` that will
    /// complete at `ready_at`. If the buffer is full the oldest entry is
    /// evicted (counted as useless if it was never hit). Re-inserting a
    /// resident block is counted in
    /// [`PrefetchBufferStats::redundant_skipped`] and ignored.
    pub fn insert(&mut self, addr: u32, ready_at: u64) -> InsertOutcome {
        let block = block_of(addr);
        if self.contains(block) {
            self.stats.redundant_skipped += 1;
            return InsertOutcome::Redundant;
        }
        let mut outcome = InsertOutcome::Inserted;
        if self.entries.len() == self.capacity {
            let victim = self.entries.pop_front().expect("buffer is full");
            self.stats.evicted_unused += 1;
            outcome = InsertOutcome::InsertedEvicting(victim.block);
        }
        self.entries.push_back(BufferEntryState { block, ready_at });
        self.stats.inserted += 1;
        outcome
    }

    /// Looks up a demand access. On a match the entry is consumed (the
    /// block is promoted into the cache by the caller) and counted as a
    /// useful prefetch; if the prefetch is still in flight at `now` the
    /// wait is counted as a suppressed duplicate request.
    pub fn lookup(&mut self, addr: u32, now: u64) -> Option<BufferLookup> {
        let block = block_of(addr);
        let idx = self.entries.iter().position(|e| e.block == block)?;
        let entry = self.entries.remove(idx).expect("index in range");
        self.stats.useful += 1;
        if entry.ready_at > now {
            self.stats.duplicate_suppressed += 1;
        }
        Some(BufferLookup {
            ready_at: entry.ready_at,
        })
    }

    /// Wipes the buffer — the effect of a power failure. Every entry that
    /// never received a hit is counted as a useless (lost) prefetch.
    /// Returns how many entries were lost.
    pub fn power_loss(&mut self) -> usize {
        let lost = self.entries.len();
        self.stats.lost_unused += lost as u64;
        self.entries.clear();
        lost
    }
}

impl Persist for PrefetchBuffer {
    type State = BufferState;

    /// The complete internal state (FIFO contents, statistics) as a
    /// serializable value, for snapshot/resume.
    fn export_state(&self) -> BufferState {
        BufferState {
            entries: self.entries.iter().copied().collect(),
            stats: self.stats,
        }
    }

    /// Rejects a state holding more entries than this buffer's capacity
    /// (snapshot taken under a different configuration).
    fn import_state(&mut self, state: &BufferState) -> Result<(), String> {
        if state.entries.len() > self.capacity {
            return Err(format!(
                "buffer state has {} entries, capacity is {}",
                state.entries.len(),
                self.capacity
            ));
        }
        self.entries.clear();
        self.entries.extend(&state.entries);
        self.stats = state.stats;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_hit_is_useful() {
        let mut b = PrefetchBuffer::new(4);
        b.insert(0x100, 10);
        let hit = b.lookup(0x10c, 20).expect("same block");
        assert_eq!(hit.ready_at, 10);
        assert_eq!(b.stats().useful, 1);
        assert_eq!(b.stats().duplicate_suppressed, 0);
        assert!(b.is_empty());
    }

    #[test]
    fn late_prefetch_counts_suppressed_duplicate() {
        let mut b = PrefetchBuffer::new(4);
        b.insert(0x100, 100);
        let hit = b.lookup(0x100, 50).expect("in flight");
        assert_eq!(hit.ready_at, 100);
        assert_eq!(b.stats().duplicate_suppressed, 1);
    }

    #[test]
    fn fifo_eviction_counts_useless() {
        let mut b = PrefetchBuffer::new(2);
        assert_eq!(b.insert(0x000, 0), InsertOutcome::Inserted);
        assert_eq!(b.insert(0x010, 0), InsertOutcome::Inserted);
        assert_eq!(b.insert(0x020, 0), InsertOutcome::InsertedEvicting(0x000));
        assert!(!b.contains(0x000));
        assert!(b.contains(0x010) && b.contains(0x020));
        assert_eq!(b.stats().evicted_unused, 1);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn power_loss_counts_lost() {
        let mut b = PrefetchBuffer::new(4);
        b.insert(0x000, 0);
        b.insert(0x010, 0);
        b.lookup(0x000, 5);
        assert_eq!(b.power_loss(), 1);
        assert_eq!(b.stats().lost_unused, 1);
        assert_eq!(b.stats().useful, 1);
        assert!(b.is_empty());
    }

    #[test]
    fn redundant_insert_skipped() {
        let mut b = PrefetchBuffer::new(4);
        b.insert(0x100, 0);
        assert_eq!(b.insert(0x104, 0), InsertOutcome::Redundant); // same block
        assert_eq!(b.len(), 1);
        assert_eq!(b.stats().redundant_skipped, 1);
        assert_eq!(b.stats().inserted, 1);
    }

    #[test]
    fn accuracy_tracks_fate() {
        let mut b = PrefetchBuffer::new(2);
        assert_eq!(b.stats().accuracy(), 1.0);
        b.insert(0x000, 0);
        b.insert(0x010, 0);
        b.lookup(0x000, 1);
        b.power_loss(); // 0x010 lost
        let s = b.stats();
        assert_eq!(s.useless(), 1);
        assert!((s.accuracy() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_panics() {
        PrefetchBuffer::new(0);
    }
}
