//! Serializable prefetcher state for snapshot/resume.
//!
//! [`PrefetcherState`] is the wire form of an
//! [`AnyPrefetcher`](crate::AnyPrefetcher)'s
//! complete internal state, produced and consumed through its
//! [`Persist`](ehs_mem::Persist) impl. The enum is externally tagged, so
//! a snapshot records *which* of the 7 kinds (6 prefetchers plus none)
//! was running as well as its tables.
//!
//! It is a separate enum rather than `AnyPrefetcher` itself because the
//! wire format predates the enum dispatch: `"none"` is a unit variant
//! while [`AnyPrefetcher::Null`](crate::AnyPrefetcher::Null) holds a
//! struct, and the vendored serde
//! renames variants only through `rename_all`.

use serde::{Deserialize, Serialize};

use crate::{
    BestOffsetPrefetcher, GhbPrefetcher, MarkovPrefetcher, SequentialPrefetcher, StridePrefetcher,
    TifsPrefetcher,
};

/// The fields of a prefetcher that construction fixes and no run
/// mutates (degree, table geometry), as `(name, value)` pairs in a
/// fixed order per kind.
pub(crate) type Shape = Vec<(&'static str, u64)>;

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
}

impl PrefetcherState {
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
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessEvent, AccessOutcome, AnyPrefetcher, NullPrefetcher, Prefetcher};
    use ehs_mem::Persist;

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

    /// One prefetcher of every kind, built as the configuration builds
    /// it (degree 2, default tables).
    fn every_kind() -> [AnyPrefetcher; 7] {
        [
            AnyPrefetcher::Null(NullPrefetcher::new()),
            AnyPrefetcher::Sequential(SequentialPrefetcher::new(2)),
            AnyPrefetcher::Markov(MarkovPrefetcher::new(2)),
            AnyPrefetcher::Tifs(TifsPrefetcher::new(2)),
            AnyPrefetcher::Stride(StridePrefetcher::new(2)),
            AnyPrefetcher::Ghb(GhbPrefetcher::new(2)),
            AnyPrefetcher::BestOffset(BestOffsetPrefetcher::new(2)),
        ]
    }

    #[test]
    fn round_trip_preserves_behaviour() {
        for (mut p, mut q) in every_kind().into_iter().zip(every_kind()) {
            exercise(&mut p);
            let state = p.export_state();
            let json = serde_json::to_string(&state).unwrap();
            let back: PrefetcherState = serde_json::from_str(&json).unwrap();
            q.import_state(&back).unwrap();
            assert_eq!(back.kind_name(), p.name());
            // Re-serializing the restored state is byte-identical.
            assert_eq!(serde_json::to_string(&q.export_state()).unwrap(), json);
            // Identical state must produce identical future candidates.
            let ev = AccessEvent::data(0x44, 0x2000, AccessOutcome::Miss, false);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            p.observe(&ev, &mut a);
            q.observe(&ev, &mut b);
            assert_eq!(a, b, "{} diverged after round trip", p.name());
        }
    }

    #[test]
    fn import_rejects_another_kind() {
        for (i, mut p) in every_kind().into_iter().enumerate() {
            for (j, other) in every_kind().iter().enumerate() {
                let result = p.import_state(&other.export_state());
                assert_eq!(result.is_ok(), i == j, "{} <- {}", p.name(), other.name());
                if let Err(e) = result {
                    assert!(e.contains(p.name()) && e.contains(other.name()), "{e}");
                }
            }
        }
    }

    /// A state of the right kind but from a prefetcher built with
    /// another degree or table size is rejected, naming the field.
    #[test]
    fn import_rejects_another_shape() {
        let cases = [
            (
                AnyPrefetcher::Sequential(SequentialPrefetcher::new(1)),
                "degree",
            ),
            (AnyPrefetcher::Markov(MarkovPrefetcher::new(1)), "degree"),
            (
                AnyPrefetcher::Markov(MarkovPrefetcher::with_table_size(2, 32)),
                "index_mask",
            ),
            (AnyPrefetcher::Tifs(TifsPrefetcher::new(1)), "degree"),
            (
                AnyPrefetcher::Tifs(TifsPrefetcher::with_log_size(2, 256)),
                "capacity",
            ),
            (AnyPrefetcher::Stride(StridePrefetcher::new(1)), "degree"),
            (
                AnyPrefetcher::Stride(StridePrefetcher::with_table_size(2, 32)),
                "index_mask",
            ),
            (AnyPrefetcher::Ghb(GhbPrefetcher::new(1)), "degree"),
            (
                AnyPrefetcher::Ghb(GhbPrefetcher::with_history_size(2, 128)),
                "capacity",
            ),
            (
                AnyPrefetcher::BestOffset(BestOffsetPrefetcher::new(1)),
                "degree",
            ),
        ];
        for (other, field) in cases {
            let mut p = every_kind()
                .into_iter()
                .find(|p| p.name() == other.name())
                .unwrap();
            let err = p.import_state(&other.export_state()).unwrap_err();
            assert!(err.contains(field), "{}: {err}", other.name());
        }
    }
}
