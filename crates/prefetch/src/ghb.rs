//! Global History Buffer prefetcher, G/DC flavour (Nesbit & Smith) —
//! Table 4 alternative data prefetcher.
//!
//! A circular Global History Buffer records the miss-address stream. The
//! G/DC (global, delta-correlating) variant computes the last two address
//! deltas, searches the history for the most recent earlier occurrence of
//! that delta pair, and prefetches the deltas that followed it.

use ehs_mem::block_of;
use serde::{Deserialize, Serialize};

use crate::{AccessEvent, Prefetcher, Shape, MAX_DEGREE};

/// Global-history-buffer delta-correlation prefetcher.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GhbPrefetcher {
    degree: u32,
    /// Circular buffer of miss block addresses, oldest overwritten first.
    history: Vec<u32>,
    capacity: usize,
    head: u64,
}

impl GhbPrefetcher {
    /// Default history capacity, in entries.
    pub const DEFAULT_HISTORY_SIZE: usize = 256;

    /// Creates a G/DC prefetcher with the default 256-entry history.
    ///
    /// # Panics
    ///
    /// Panics if `degree` is zero or exceeds [`MAX_DEGREE`].
    pub fn new(degree: u32) -> GhbPrefetcher {
        GhbPrefetcher::with_history_size(degree, Self::DEFAULT_HISTORY_SIZE)
    }

    /// Creates a G/DC prefetcher with a custom history capacity.
    ///
    /// # Panics
    ///
    /// Panics if `degree` is out of range or `history_size < 4`.
    pub fn with_history_size(degree: u32, history_size: usize) -> GhbPrefetcher {
        assert!(
            (1..=MAX_DEGREE).contains(&degree),
            "degree must be 1..={MAX_DEGREE}"
        );
        assert!(history_size >= 4, "history must hold at least 4 entries");
        GhbPrefetcher {
            degree,
            history: vec![0; history_size],
            capacity: history_size,
            head: 0,
        }
    }

    #[inline]
    fn at(&self, pos: u64) -> u32 {
        self.history[(pos % self.capacity as u64) as usize]
    }

    /// The fields construction fixes and no run mutates: a state
    /// restored into a configured prefetcher must match it on each.
    pub(crate) fn shape(&self) -> Shape {
        vec![
            ("degree", self.degree.into()),
            ("capacity", self.capacity as u64),
            ("history length", self.history.len() as u64),
        ]
    }

    fn len_in_window(&self) -> u64 {
        self.head.min(self.capacity as u64)
    }

    fn correlate(&self, out: &mut Vec<u32>) {
        let n = self.len_in_window();
        if n < 3 {
            return;
        }
        let newest = self.head - 1;
        let oldest = self.head - n;
        let d1 = self.at(newest).wrapping_sub(self.at(newest - 1)) as i64;
        let d2 = self.at(newest - 1).wrapping_sub(self.at(newest - 2)) as i64;
        // Scan backwards for the most recent earlier occurrence of the
        // (d2, d1) delta pair; `p` is the position playing `newest`'s role,
        // so it needs two predecessors inside the window: p >= oldest + 2.
        let mut p = newest;
        while p > oldest + 2 {
            p -= 1;
            let e1 = self.at(p).wrapping_sub(self.at(p - 1)) as i64;
            let e2 = self.at(p - 1).wrapping_sub(self.at(p - 2)) as i64;
            if e1 == d1 && e2 == d2 {
                // Replay the deltas that followed the match.
                let mut addr = self.at(newest);
                let mut prev_pos = p;
                for _ in 0..self.degree {
                    let next_pos = prev_pos + 1;
                    if next_pos > newest - 1 {
                        break;
                    }
                    let delta = self.at(next_pos).wrapping_sub(self.at(prev_pos));
                    addr = addr.wrapping_add(delta);
                    out.push(block_of(addr));
                    prev_pos = next_pos;
                }
                return;
            }
        }
    }
}

impl Prefetcher for GhbPrefetcher {
    fn name(&self) -> &'static str {
        "ghb"
    }

    fn max_degree(&self) -> u32 {
        self.degree
    }

    fn observe(&mut self, event: &AccessEvent, out: &mut Vec<u32>) {
        if !event.outcome.is_miss_like() {
            return;
        }
        let block = block_of(event.addr);
        // Skip consecutive duplicates; they carry no delta information.
        if self.head > 0 && self.at(self.head - 1) == block {
            return;
        }
        self.history[(self.head % self.capacity as u64) as usize] = block;
        self.head += 1;
        self.correlate(out);
    }

    fn power_loss(&mut self) {
        self.head = 0;
        self.history.iter_mut().for_each(|b| *b = 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AccessOutcome;

    fn miss(addr: u32) -> AccessEvent {
        AccessEvent::data(0x40, addr, AccessOutcome::Miss, false)
    }

    #[test]
    fn replays_delta_pattern() {
        let mut p = GhbPrefetcher::new(2);
        let mut out = Vec::new();
        // Pattern with repeating deltas +0x10, +0x20:
        // 0x1000, 0x1010, 0x1030, 0x1040, 0x1060, ...
        for a in [0x1000u32, 0x1010, 0x1030, 0x1040] {
            p.observe(&miss(a), &mut out);
        }
        out.clear();
        // Now deltas (d2, d1) = (+0x10, +0x20) matched at the earlier
        // occurrence; the following deltas were +0x10, +0x20.
        p.observe(&miss(0x1060), &mut out);
        assert!(!out.is_empty());
        assert_eq!(out[0], 0x1070, "next delta (+0x10) replayed");
    }

    #[test]
    fn no_prediction_without_match() {
        let mut p = GhbPrefetcher::new(2);
        let mut out = Vec::new();
        for a in [0x1000u32, 0x9990, 0x4420, 0x7730] {
            p.observe(&miss(a), &mut out);
        }
        assert!(out.is_empty());
    }

    #[test]
    fn consecutive_duplicates_skipped() {
        let mut p = GhbPrefetcher::new(1);
        let mut out = Vec::new();
        p.observe(&miss(0x1000), &mut out);
        p.observe(&miss(0x1004), &mut out); // same block
        p.observe(&miss(0x1008), &mut out); // same block
        assert_eq!(p.head, 1);
    }

    #[test]
    fn cache_hits_not_recorded() {
        let mut p = GhbPrefetcher::new(1);
        let mut out = Vec::new();
        p.observe(
            &AccessEvent::data(0x40, 0x1000, AccessOutcome::CacheHit, false),
            &mut out,
        );
        assert_eq!(p.head, 0);
    }

    #[test]
    fn power_loss_clears_history() {
        let mut p = GhbPrefetcher::new(2);
        let mut out = Vec::new();
        for a in [0x1000u32, 0x1010, 0x1030, 0x1040, 0x1060] {
            p.observe(&miss(a), &mut out);
        }
        p.power_loss();
        assert_eq!(p.head, 0);
        out.clear();
        p.observe(&miss(0x2000), &mut out);
        assert!(out.is_empty());
    }
}
