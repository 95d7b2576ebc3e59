//! Best-Offset prefetcher (Michaud, simplified) — Table 4 alternative
//! data prefetcher.
//!
//! The prefetcher learns the block offset `O` that best predicts the miss
//! stream: for each training access to block `X` it checks whether
//! `X - O_candidate` was recently accessed (Recent-Requests table); the
//! candidate scores a point if so. When a learning round completes, the
//! highest-scoring offset becomes the active prefetch offset and demand
//! accesses prefetch `X + O`, `X + 2O`, … up to the degree.

use ehs_mem::{block_of, BLOCK_SIZE};
use serde::{Deserialize, Serialize};

use crate::{AccessEvent, Prefetcher, Shape, MAX_DEGREE};

/// Candidate offsets tested during learning, in blocks.
const OFFSETS: [i32; 8] = [1, 2, 3, 4, 6, 8, -1, -2];

/// Accesses per candidate per learning round.
const TESTS_PER_ROUND: u32 = 16;

/// Minimum score for an offset to be adopted (filters noise).
const MIN_SCORE: u32 = 4;

/// Size of the recent-requests table.
const RR_SIZE: usize = 32;

/// Offset-learning data prefetcher.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BestOffsetPrefetcher {
    degree: u32,
    /// Recent demand blocks (small direct-mapped table).
    recent: [u32; RR_SIZE],
    scores: [u32; OFFSETS.len()],
    tests_done: u32,
    /// Currently active offset in blocks, if one has been learned.
    active: Option<i32>,
}

impl BestOffsetPrefetcher {
    /// Creates a best-offset prefetcher.
    ///
    /// # Panics
    ///
    /// Panics if `degree` is zero or exceeds [`MAX_DEGREE`].
    pub fn new(degree: u32) -> BestOffsetPrefetcher {
        assert!(
            (1..=MAX_DEGREE).contains(&degree),
            "degree must be 1..={MAX_DEGREE}"
        );
        BestOffsetPrefetcher {
            degree,
            recent: [u32::MAX; RR_SIZE],
            scores: [0; OFFSETS.len()],
            tests_done: 0,
            active: None,
        }
    }

    /// The offset currently used for prefetching, in blocks.
    pub fn active_offset(&self) -> Option<i32> {
        self.active
    }

    /// The fields construction fixes and no run mutates: a state
    /// restored into a configured prefetcher must match it on each.
    pub(crate) fn shape(&self) -> Shape {
        vec![("degree", self.degree.into())]
    }

    #[inline]
    fn rr_slot(block: u32) -> usize {
        ((block >> 4) as usize) & (RR_SIZE - 1)
    }

    fn rr_insert(&mut self, block: u32) {
        self.recent[Self::rr_slot(block)] = block;
    }

    fn rr_contains(&self, block: u32) -> bool {
        self.recent[Self::rr_slot(block)] == block
    }

    fn train(&mut self, block: u32) {
        for (i, &off) in OFFSETS.iter().enumerate() {
            let candidate = block.wrapping_sub((off * BLOCK_SIZE as i32) as u32);
            if self.rr_contains(candidate) {
                self.scores[i] += 1;
            }
        }
        self.tests_done += 1;
        if self.tests_done >= TESTS_PER_ROUND * OFFSETS.len() as u32 {
            self.finish_round();
        }
    }

    fn finish_round(&mut self) {
        // Ties go to the earliest (smallest-magnitude) offset, which is
        // both more timely and what the round-based hardware search finds
        // first.
        let (best_idx, best_score) = self
            .scores
            .iter()
            .copied()
            .enumerate()
            .rev()
            .max_by_key(|&(_, s)| s)
            .expect("non-empty offsets");
        self.active = (best_score >= MIN_SCORE).then(|| OFFSETS[best_idx]);
        self.scores = [0; OFFSETS.len()];
        self.tests_done = 0;
    }
}

impl Prefetcher for BestOffsetPrefetcher {
    fn name(&self) -> &'static str {
        "best-offset"
    }

    fn max_degree(&self) -> u32 {
        self.degree
    }

    fn observe(&mut self, event: &AccessEvent, out: &mut Vec<u32>) {
        if !event.outcome.is_miss_like() {
            return;
        }
        let block = block_of(event.addr);
        self.train(block);
        self.rr_insert(block);
        if let Some(off) = self.active {
            let step = (off * BLOCK_SIZE as i32) as u32;
            let mut addr = block;
            for _ in 0..self.degree {
                addr = addr.wrapping_add(step);
                out.push(addr);
            }
        }
    }

    fn power_loss(&mut self) {
        *self = BestOffsetPrefetcher::new(self.degree);
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
    fn learns_unit_offset_stream() {
        let mut p = BestOffsetPrefetcher::new(2);
        let mut out = Vec::new();
        // A long +1-block stream: offset 1 should win a learning round.
        for i in 0..200u32 {
            p.observe(&miss(0x1000 + i * BLOCK_SIZE), &mut out);
        }
        assert_eq!(p.active_offset(), Some(1));
        out.clear();
        p.observe(&miss(0x9000), &mut out);
        assert_eq!(out, vec![0x9010, 0x9020]);
    }

    #[test]
    fn learns_strided_offset() {
        let mut p = BestOffsetPrefetcher::new(1);
        let mut out = Vec::new();
        // Stride of 3 blocks.
        for i in 0..400u32 {
            p.observe(&miss(0x1000 + i * 3 * BLOCK_SIZE), &mut out);
        }
        assert_eq!(p.active_offset(), Some(3));
    }

    #[test]
    fn random_stream_learns_nothing() {
        let mut p = BestOffsetPrefetcher::new(1);
        let mut out = Vec::new();
        // A pseudo-random walk with no consistent offset.
        let mut x: u32 = 0x9e3779b9;
        for _ in 0..300 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            p.observe(&miss(x & 0xfff_fff0), &mut out);
        }
        assert_eq!(p.active_offset(), None);
        assert!(out.is_empty());
    }

    #[test]
    fn power_loss_resets_learning() {
        let mut p = BestOffsetPrefetcher::new(1);
        let mut out = Vec::new();
        for i in 0..200u32 {
            p.observe(&miss(0x1000 + i * BLOCK_SIZE), &mut out);
        }
        assert!(p.active_offset().is_some());
        p.power_loss();
        assert_eq!(p.active_offset(), None);
    }
}
