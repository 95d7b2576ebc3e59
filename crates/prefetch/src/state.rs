//! Serializable prefetcher state for snapshot/resume.
//!
//! Every concrete prefetcher can export its complete internal state as a
//! [`PrefetcherState`] (via
//! [`Prefetcher::export_state`](crate::Prefetcher::export_state)) and be
//! rebuilt bit-identically from it (via [`PrefetcherState::into_any`]).
//! The enum is externally tagged, so a snapshot records *which* of the 9
//! kinds was running as well as its tables.

use serde::{Deserialize, Serialize};

use crate::{
    AmpmPrefetcher, AnyPrefetcher, BestOffsetPrefetcher, GhbPrefetcher, MarkovPrefetcher,
    NullPrefetcher, SequentialPrefetcher, StridePrefetcher, TifsPrefetcher,
};

/// Complete serializable state of any concrete [`Prefetcher`](crate::Prefetcher).
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum PrefetcherState {
    /// The stateless null prefetcher.
    None,
    /// Next-N-line sequential instruction prefetcher.
    Sequential(SequentialPrefetcher),
    /// Markov correlation instruction prefetcher.
    Markov(MarkovPrefetcher),
    /// Temporal instruction fetch streaming.
    Tifs(TifsPrefetcher),
    /// PC-indexed stride data prefetcher.
    Stride(StridePrefetcher),
    /// Global-history-buffer (G/DC) data prefetcher.
    Ghb(GhbPrefetcher),
    /// Best-offset data prefetcher.
    BestOffset(BestOffsetPrefetcher),
    /// Access-map pattern-matching data prefetcher.
    Ampm(AmpmPrefetcher),
}

impl PrefetcherState {
    /// Rebuilds a live prefetcher holding exactly this state, as the
    /// enum-dispatched [`AnyPrefetcher`] the simulator's hot loop uses.
    pub fn into_any(&self) -> AnyPrefetcher {
        match self {
            PrefetcherState::None => AnyPrefetcher::Null(NullPrefetcher::new()),
            PrefetcherState::Sequential(p) => AnyPrefetcher::Sequential(p.clone()),
            PrefetcherState::Markov(p) => AnyPrefetcher::Markov(p.clone()),
            PrefetcherState::Tifs(p) => AnyPrefetcher::Tifs(p.clone()),
            PrefetcherState::Stride(p) => AnyPrefetcher::Stride(p.clone()),
            PrefetcherState::Ghb(p) => AnyPrefetcher::Ghb(p.clone()),
            PrefetcherState::BestOffset(p) => AnyPrefetcher::BestOffset(p.clone()),
            PrefetcherState::Ampm(p) => AnyPrefetcher::Ampm(p.clone()),
        }
    }

    /// The kind tag as reported by
    /// [`Prefetcher::name`](crate::Prefetcher::name), for mismatch
    /// diagnostics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            PrefetcherState::None => "none",
            PrefetcherState::Sequential(_) => "sequential",
            PrefetcherState::Markov(_) => "markov",
            PrefetcherState::Tifs(_) => "tifs",
            PrefetcherState::Stride(_) => "stride",
            PrefetcherState::Ghb(_) => "ghb",
            PrefetcherState::BestOffset(_) => "best-offset",
            PrefetcherState::Ampm(_) => "ampm",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessEvent, AccessOutcome, Prefetcher};

    fn exercise(p: &mut dyn Prefetcher) {
        let mut out = Vec::new();
        for i in 0..64u32 {
            p.observe(
                &AccessEvent::data(
                    0x40 + (i % 4) * 4,
                    0x1000 + i * 0x10,
                    AccessOutcome::Miss,
                    false,
                ),
                &mut out,
            );
        }
    }

    #[test]
    fn round_trip_preserves_behaviour() {
        let originals = [
            AnyPrefetcher::Null(NullPrefetcher::new()),
            AnyPrefetcher::Sequential(SequentialPrefetcher::new(2)),
            AnyPrefetcher::Markov(MarkovPrefetcher::new(2)),
            AnyPrefetcher::Tifs(TifsPrefetcher::new(2)),
            AnyPrefetcher::Stride(StridePrefetcher::new(2)),
            AnyPrefetcher::Ghb(GhbPrefetcher::new(2)),
            AnyPrefetcher::BestOffset(BestOffsetPrefetcher::new(2)),
            AnyPrefetcher::Ampm(AmpmPrefetcher::new(2)),
        ];
        for mut p in originals {
            exercise(&mut p);
            let state = p.export_state();
            let json = serde_json::to_string(&state).unwrap();
            let back: PrefetcherState = serde_json::from_str(&json).unwrap();
            let mut q = back.into_any();
            assert_eq!(q.name(), p.name());
            // Re-serializing the rebuilt state is byte-identical.
            assert_eq!(serde_json::to_string(&q.export_state()).unwrap(), json);
            // Identical state must produce identical future candidates.
            let ev = AccessEvent::data(0x44, 0x2000, AccessOutcome::Miss, false);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            p.observe(&ev, &mut a);
            q.observe(&ev, &mut b);
            assert_eq!(a, b, "{} diverged after round trip", p.name());
        }
    }
}
