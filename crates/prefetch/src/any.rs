//! Closed-set enum over every concrete prefetcher.
//!
//! The simulator's hot loop calls [`Prefetcher::observe`] on every
//! demand access. Through a `Box<dyn Prefetcher>` that is an indirect
//! call the compiler cannot inline; [`AnyPrefetcher`] replaces it with
//! a direct match over the six concrete kinds and "none", which inlines
//! and branch-predicts (the kind never changes within a run). DESIGN.md
//! §8 records the difference measured when the enum replaced the box.
//!
//! Behaviour is delegated verbatim, so an `AnyPrefetcher` is
//! observationally identical to the boxed prefetcher of the same kind.
//!
//! The enum is also its own snapshot wire form: externally tagged, so a
//! snapshot records *which* kind was running (`"none"` for no
//! prefetcher) as well as its tables.

use ehs_mem::Persist;
use serde::{Deserialize, Serialize};

use crate::{
    AccessEvent, BestOffsetPrefetcher, GhbPrefetcher, MarkovPrefetcher, Prefetcher,
    SequentialPrefetcher, StridePrefetcher, TifsPrefetcher,
};

/// The fields of a prefetcher that construction fixes and no run
/// mutates (degree, table geometry), as `(name, value)` pairs in a
/// fixed order per kind.
pub(crate) type Shape = Vec<(&'static str, u64)>;

/// Any of the six concrete prefetchers or none, dispatched by direct
/// match instead of vtable (see the module docs).
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum AnyPrefetcher {
    /// No prefetching: the prefetch-free baselines (e.g. "NVSRAMCache
    /// (No Prefetcher)" in Figs. 10/11).
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

macro_rules! delegate {
    ($self:expr, $p:ident => $body:expr, $none:expr) => {
        match $self {
            AnyPrefetcher::None => $none,
            AnyPrefetcher::Sequential($p) => $body,
            AnyPrefetcher::Markov($p) => $body,
            AnyPrefetcher::Tifs($p) => $body,
            AnyPrefetcher::Stride($p) => $body,
            AnyPrefetcher::Ghb($p) => $body,
            AnyPrefetcher::BestOffset($p) => $body,
        }
    };
}

impl Prefetcher for AnyPrefetcher {
    fn name(&self) -> &'static str {
        delegate!(self, p => p.name(), "none")
    }

    fn max_degree(&self) -> u32 {
        delegate!(self, p => p.max_degree(), 0)
    }

    #[inline]
    fn observe(&mut self, event: &AccessEvent, out: &mut Vec<u32>) {
        delegate!(self, p => p.observe(event, out), ())
    }

    fn power_loss(&mut self) {
        delegate!(self, p => p.power_loss(), ())
    }
}

impl Persist for AnyPrefetcher {
    type State = AnyPrefetcher;

    fn export_state(&self) -> AnyPrefetcher {
        self.clone()
    }

    /// Rejects a state of another kind, or one whose degree or table
    /// geometry differs from this prefetcher's.
    fn import_state(&mut self, state: &AnyPrefetcher) -> Result<(), String> {
        match (self, state) {
            (AnyPrefetcher::None, AnyPrefetcher::None) => Ok(()),
            (AnyPrefetcher::Sequential(p), AnyPrefetcher::Sequential(s)) => {
                restore(p, s, SequentialPrefetcher::shape)
            }
            (AnyPrefetcher::Markov(p), AnyPrefetcher::Markov(s)) => {
                restore(p, s, MarkovPrefetcher::shape)
            }
            (AnyPrefetcher::Tifs(p), AnyPrefetcher::Tifs(s)) => {
                restore(p, s, TifsPrefetcher::shape)
            }
            (AnyPrefetcher::Stride(p), AnyPrefetcher::Stride(s)) => {
                restore(p, s, StridePrefetcher::shape)
            }
            (AnyPrefetcher::Ghb(p), AnyPrefetcher::Ghb(s)) => restore(p, s, GhbPrefetcher::shape),
            (AnyPrefetcher::BestOffset(p), AnyPrefetcher::BestOffset(s)) => {
                restore(p, s, BestOffsetPrefetcher::shape)
            }
            (live, _) => Err(format!(
                "state is a '{}' prefetcher but the config builds '{}'",
                state.name(),
                live.name()
            )),
        }
    }
}

/// Copies `saved` over `live` once their [`Shape`]s agree.
fn restore<P: Prefetcher + Clone>(
    live: &mut P,
    saved: &P,
    shape: fn(&P) -> Shape,
) -> Result<(), String> {
    for ((field, want), (_, got)) in shape(live).into_iter().zip(shape(saved)) {
        if got != want {
            return Err(format!(
                "{} {field} is {got} in the state but {want} in the config",
                live.name()
            ));
        }
    }
    *live = saved.clone();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AccessOutcome;

    /// Both dispatch shapes over the same access stream must do the
    /// same thing — the enum is a transparent wrapper.
    #[test]
    fn enum_dispatch_matches_boxed_dispatch() {
        let kinds: [(AnyPrefetcher, Box<dyn Prefetcher>); 3] = [
            (
                AnyPrefetcher::Sequential(SequentialPrefetcher::new(2)),
                Box::new(SequentialPrefetcher::new(2)),
            ),
            (
                AnyPrefetcher::Stride(StridePrefetcher::new(2)),
                Box::new(StridePrefetcher::new(2)),
            ),
            (
                AnyPrefetcher::Ghb(GhbPrefetcher::new(2)),
                Box::new(GhbPrefetcher::new(2)),
            ),
        ];
        for (mut any, mut boxed) in kinds {
            assert_eq!(any.name(), boxed.name());
            assert_eq!(any.max_degree(), boxed.max_degree());
            let (mut a_out, mut b_out) = (Vec::new(), Vec::new());
            let mut x = 0x1234_5678u32;
            for i in 0u32..500 {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                let addr = (x >> 8) & 0x000f_ffc0;
                let outcome = if x & 1 == 0 {
                    AccessOutcome::Miss
                } else {
                    AccessOutcome::CacheHit
                };
                let ev = AccessEvent::data(i * 4, addr, outcome, x & 2 == 0);
                a_out.clear();
                b_out.clear();
                any.observe(&ev, &mut a_out);
                boxed.observe(&ev, &mut b_out);
                assert_eq!(a_out, b_out, "divergence at access {i}");
            }
        }
    }

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
            AnyPrefetcher::None,
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
            let back: AnyPrefetcher = serde_json::from_str(&json).unwrap();
            q.import_state(&back).unwrap();
            assert_eq!(back.name(), p.name());
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

    #[test]
    fn none_never_emits_and_serializes_as_a_bare_name() {
        let mut p = AnyPrefetcher::None;
        assert_eq!(serde_json::to_string(&p).unwrap(), "\"none\"");
        let mut out = Vec::new();
        p.observe(&AccessEvent::fetch(0x100, AccessOutcome::Miss), &mut out);
        assert!(out.is_empty());
        assert_eq!(p.max_degree(), 0);
        p.power_loss();
    }
}
