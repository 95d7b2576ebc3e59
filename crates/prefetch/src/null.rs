//! The no-op prefetcher used by the prefetch-free baselines
//! (e.g. "NVSRAMCache (No Prefetcher)" in Figs. 10/11).

use crate::{AccessEvent, Prefetcher};

/// A prefetcher that never prefetches.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullPrefetcher;

impl NullPrefetcher {
    /// Creates the null prefetcher.
    pub fn new() -> NullPrefetcher {
        NullPrefetcher
    }
}

impl Prefetcher for NullPrefetcher {
    fn name(&self) -> &'static str {
        "none"
    }

    fn max_degree(&self) -> u32 {
        0
    }

    fn observe(&mut self, _event: &AccessEvent, _out: &mut Vec<u32>) {}

    fn power_loss(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AccessOutcome;

    #[test]
    fn never_emits() {
        let mut p = NullPrefetcher::new();
        let mut out = Vec::new();
        p.observe(&AccessEvent::fetch(0x100, AccessOutcome::Miss), &mut out);
        assert!(out.is_empty());
        assert_eq!(p.max_degree(), 0);
        p.power_loss();
    }
}
