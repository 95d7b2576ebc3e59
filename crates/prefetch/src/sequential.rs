//! Next-N-line sequential prefetcher — the paper's default instruction
//! prefetcher (Table 1), in the lineage of the IBM System/360 Model 91
//! next-line scheme discussed in §8.1.

use ehs_mem::{block_of, BLOCK_SIZE};
use serde::{Deserialize, Serialize};

use crate::{AccessEvent, Prefetcher, Shape, MAX_DEGREE};

/// Prefetches the next sequential blocks after a miss-like access, and
/// keeps the stream warm by re-triggering whenever the demand stream
/// enters a block it has not triggered on before.
///
/// Like commercial next-line prefetchers — and per the paper's Table 1
/// ("Prefetch Degree: 2 initially and up to 4") — the degree *ramps*
/// with confidence: a sustained sequential streak doubles the base
/// degree up to [`MAX_DEGREE`]; a broken streak resets it. This is the
/// conventional aggressiveness IPEX exists to tame: the controller caps
/// the emitted candidate list via its `Rcpd` register.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SequentialPrefetcher {
    degree: u32,
    last_trigger_block: Option<u32>,
    /// Consecutive sequential-block triggers.
    streak: u32,
}

/// Streak length at which the degree ramps up.
const RAMP_STREAK: u32 = 4;

impl SequentialPrefetcher {
    /// Creates a sequential prefetcher with the given base degree.
    ///
    /// # Panics
    ///
    /// Panics if `degree` is zero or exceeds [`MAX_DEGREE`].
    pub fn new(degree: u32) -> SequentialPrefetcher {
        assert!(
            (1..=MAX_DEGREE).contains(&degree),
            "degree must be 1..={MAX_DEGREE}"
        );
        SequentialPrefetcher {
            degree,
            last_trigger_block: None,
            streak: 0,
        }
    }

    /// The degree currently in effect (base, ramped up on a confident
    /// streak).
    pub fn effective_degree(&self) -> u32 {
        if self.streak >= RAMP_STREAK {
            // Stay below the 4-entry prefetch-buffer capacity so a burst
            // cannot evict its own pending prefetches.
            (self.degree * 2).min(MAX_DEGREE).min(3)
        } else {
            self.degree
        }
    }

    /// The fields construction fixes and no run mutates: a state
    /// restored into a configured prefetcher must match it on each.
    pub(crate) fn shape(&self) -> Shape {
        vec![("degree", self.degree.into())]
    }
}

impl Prefetcher for SequentialPrefetcher {
    fn name(&self) -> &'static str {
        "sequential"
    }

    fn max_degree(&self) -> u32 {
        (self.degree * 2).min(MAX_DEGREE).min(3)
    }

    #[inline]
    fn observe(&mut self, event: &AccessEvent, out: &mut Vec<u32>) {
        let block = block_of(event.addr);
        // Trigger once per block entered: sequential streams advance one
        // block at a time, so this fires on every new line the fetch
        // stream reaches, hit or miss, keeping the prefetcher ahead of
        // the demand stream.
        if self.last_trigger_block == Some(block) {
            return;
        }
        // Confidence: consecutive-block advances grow the streak; any
        // discontinuity (taken branch) resets it.
        match self.last_trigger_block {
            Some(prev) if block == prev.wrapping_add(BLOCK_SIZE) => self.streak += 1,
            _ => self.streak = 0,
        }
        self.last_trigger_block = Some(block);
        for k in 1..=self.effective_degree() {
            out.push(block.wrapping_add(k * BLOCK_SIZE));
        }
    }

    fn power_loss(&mut self) {
        self.last_trigger_block = None;
        self.streak = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AccessOutcome;

    fn ev(addr: u32) -> AccessEvent {
        AccessEvent::fetch(addr, AccessOutcome::Miss)
    }

    #[test]
    fn emits_next_lines_in_order() {
        let mut p = SequentialPrefetcher::new(2);
        let mut out = Vec::new();
        p.observe(&ev(0x100), &mut out);
        assert_eq!(out, vec![0x110, 0x120]);
    }

    #[test]
    fn does_not_retrigger_within_a_block() {
        let mut p = SequentialPrefetcher::new(2);
        let mut out = Vec::new();
        p.observe(&ev(0x100), &mut out);
        out.clear();
        p.observe(&ev(0x104), &mut out);
        p.observe(&ev(0x108), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn retriggers_on_new_block() {
        let mut p = SequentialPrefetcher::new(1);
        let mut out = Vec::new();
        p.observe(&ev(0x100), &mut out);
        p.observe(&ev(0x110), &mut out);
        assert_eq!(out, vec![0x110, 0x120]);
    }

    #[test]
    fn power_loss_resets_trigger() {
        let mut p = SequentialPrefetcher::new(1);
        let mut out = Vec::new();
        p.observe(&ev(0x100), &mut out);
        p.power_loss();
        p.observe(&ev(0x100), &mut out);
        assert_eq!(out, vec![0x110, 0x110]);
    }

    #[test]
    #[should_panic(expected = "degree")]
    fn rejects_zero_degree() {
        SequentialPrefetcher::new(0);
    }
}
