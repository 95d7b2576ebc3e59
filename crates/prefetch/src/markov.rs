//! Markov prefetcher (Joseph & Grunwald) — Table 3 alternative
//! instruction prefetcher.
//!
//! A correlation table maps a miss block to the blocks that followed it
//! in the miss stream, most-probable first (approximated by an LRU/MFU
//! hybrid: successors are kept most-recent-first, which tracks the
//! empirical transition probabilities well for looping code). On each
//! miss the predicted successors of the current block are prefetched, up
//! to the degree.

use ehs_mem::block_of;
use serde::{Deserialize, Serialize};

use crate::{AccessEvent, Prefetcher, Shape, MAX_DEGREE};

const SUCCESSORS_PER_ENTRY: usize = 4;

#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct Entry {
    tag: u32,
    /// Successor blocks, most recently observed first.
    successors: Vec<u32>,
}

/// Correlation-table Markov prefetcher.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MarkovPrefetcher {
    degree: u32,
    table: Vec<Option<Entry>>,
    index_mask: u32,
    last_miss_block: Option<u32>,
}

impl MarkovPrefetcher {
    /// Default number of correlation-table entries.
    pub const DEFAULT_TABLE_SIZE: usize = 64;

    /// Creates a Markov prefetcher with the default 64-entry table.
    ///
    /// # Panics
    ///
    /// Panics if `degree` is zero or exceeds [`MAX_DEGREE`].
    pub fn new(degree: u32) -> MarkovPrefetcher {
        MarkovPrefetcher::with_table_size(degree, Self::DEFAULT_TABLE_SIZE)
    }

    /// Creates a Markov prefetcher with a custom power-of-two table size.
    ///
    /// # Panics
    ///
    /// Panics if `degree` is out of range or `table_size` is not a
    /// positive power of two.
    pub fn with_table_size(degree: u32, table_size: usize) -> MarkovPrefetcher {
        assert!(
            (1..=MAX_DEGREE).contains(&degree),
            "degree must be 1..={MAX_DEGREE}"
        );
        assert!(
            table_size.is_power_of_two(),
            "table size must be a power of two"
        );
        MarkovPrefetcher {
            degree,
            table: vec![None; table_size],
            index_mask: table_size as u32 - 1,
            last_miss_block: None,
        }
    }

    #[inline]
    fn slot(&self, block: u32) -> usize {
        ((block >> 4) & self.index_mask) as usize
    }

    /// The fields construction fixes and no run mutates: a state
    /// restored into a configured prefetcher must match it on each.
    pub(crate) fn shape(&self) -> Shape {
        vec![
            ("degree", self.degree.into()),
            ("index_mask", self.index_mask.into()),
            ("table length", self.table.len() as u64),
        ]
    }

    fn record_transition(&mut self, from: u32, to: u32) {
        let slot = self.slot(from);
        match &mut self.table[slot] {
            Some(e) if e.tag == from => {
                if let Some(pos) = e.successors.iter().position(|&s| s == to) {
                    // Move to front (most recent = most probable).
                    e.successors.remove(pos);
                } else if e.successors.len() == SUCCESSORS_PER_ENTRY {
                    e.successors.pop();
                }
                e.successors.insert(0, to);
            }
            _ => {
                self.table[slot] = Some(Entry {
                    tag: from,
                    successors: vec![to],
                });
            }
        }
    }

    fn predict(&self, block: u32, out: &mut Vec<u32>) {
        let slot = self.slot(block);
        if let Some(e) = &self.table[slot] {
            if e.tag == block {
                for &s in e.successors.iter().take(self.degree as usize) {
                    out.push(s);
                }
            }
        }
    }
}

impl Prefetcher for MarkovPrefetcher {
    fn name(&self) -> &'static str {
        "markov"
    }

    fn max_degree(&self) -> u32 {
        self.degree
    }

    fn observe(&mut self, event: &AccessEvent, out: &mut Vec<u32>) {
        // The Markov chain is trained on the miss stream only.
        if !event.outcome.is_miss_like() {
            return;
        }
        let block = block_of(event.addr);
        if let Some(prev) = self.last_miss_block {
            if prev != block {
                self.record_transition(prev, block);
            }
        }
        self.last_miss_block = Some(block);
        self.predict(block, out);
    }

    fn power_loss(&mut self) {
        self.table.iter_mut().for_each(|e| *e = None);
        self.last_miss_block = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AccessOutcome;

    fn miss(addr: u32) -> AccessEvent {
        AccessEvent::fetch(addr, AccessOutcome::Miss)
    }

    fn hit(addr: u32) -> AccessEvent {
        AccessEvent::fetch(addr, AccessOutcome::CacheHit)
    }

    #[test]
    fn learns_repeating_miss_sequence() {
        let mut p = MarkovPrefetcher::new(2);
        let mut out = Vec::new();
        // Train: A -> B -> C, twice.
        for _ in 0..2 {
            p.observe(&miss(0x100), &mut out);
            p.observe(&miss(0x210), &mut out);
            p.observe(&miss(0x320), &mut out);
        }
        out.clear();
        p.observe(&miss(0x100), &mut out);
        assert_eq!(out, vec![0x210]);
        out.clear();
        p.observe(&miss(0x210), &mut out);
        assert_eq!(out, vec![0x320]);
    }

    #[test]
    fn multiple_successors_most_recent_first() {
        let mut p = MarkovPrefetcher::new(2);
        let mut out = Vec::new();
        // A -> B then A -> C: C is now the more recent successor.
        p.observe(&miss(0x100), &mut out);
        p.observe(&miss(0x200), &mut out);
        p.observe(&miss(0x100), &mut out);
        p.observe(&miss(0x300), &mut out);
        out.clear();
        p.observe(&miss(0x100), &mut out);
        assert_eq!(out, vec![0x300, 0x200]);
    }

    #[test]
    fn hits_do_not_train() {
        let mut p = MarkovPrefetcher::new(1);
        let mut out = Vec::new();
        p.observe(&miss(0x100), &mut out);
        p.observe(&hit(0x200), &mut out);
        p.observe(&miss(0x300), &mut out);
        out.clear();
        p.observe(&miss(0x100), &mut out);
        // Transition recorded is A -> 0x300, skipping the hit.
        assert_eq!(out, vec![0x300]);
    }

    #[test]
    fn degree_limits_predictions() {
        let mut p = MarkovPrefetcher::new(1);
        let mut out = Vec::new();
        p.observe(&miss(0x100), &mut out);
        p.observe(&miss(0x200), &mut out);
        p.observe(&miss(0x100), &mut out);
        p.observe(&miss(0x300), &mut out);
        out.clear();
        p.observe(&miss(0x100), &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn successor_list_capped() {
        let mut p = MarkovPrefetcher::new(4);
        let mut out = Vec::new();
        for i in 1..=6u32 {
            p.observe(&miss(0x100), &mut out);
            p.observe(&miss(0x1000 * i), &mut out);
        }
        out.clear();
        p.observe(&miss(0x100), &mut out);
        assert_eq!(out.len(), 4, "successor list is bounded");
        assert_eq!(out[0], 0x6000, "most recent first");
    }

    #[test]
    fn power_loss_forgets_chain() {
        let mut p = MarkovPrefetcher::new(1);
        let mut out = Vec::new();
        p.observe(&miss(0x100), &mut out);
        p.observe(&miss(0x200), &mut out);
        p.power_loss();
        out.clear();
        p.observe(&miss(0x100), &mut out);
        assert!(out.is_empty());
    }
}
