//! Closed-set enum over every concrete prefetcher.
//!
//! The simulator's hot loop calls [`Prefetcher::observe`] on every
//! demand access. Through a `Box<dyn Prefetcher>` that is an indirect
//! call the compiler cannot inline; [`AnyPrefetcher`] replaces it with
//! a direct match over the eight concrete kinds, which inlines and
//! branch-predicts (the kind never changes within a run). The
//! `dispatch` micro-benchmark in `ehs-bench` measures the difference —
//! see DESIGN.md §8.
//!
//! Behaviour is delegated verbatim, so an `AnyPrefetcher` is
//! observationally identical to the boxed prefetcher of the same kind.

use ehs_mem::Persist;

use crate::{
    AccessEvent, AmpmPrefetcher, BestOffsetPrefetcher, GhbPrefetcher, MarkovPrefetcher,
    NullPrefetcher, Prefetcher, PrefetcherState, SequentialPrefetcher, Shape, StridePrefetcher,
    TifsPrefetcher,
};

/// Any of the eight concrete prefetchers, dispatched by direct match
/// instead of vtable (see the module docs).
#[derive(Debug, Clone)]
pub enum AnyPrefetcher {
    /// The stateless null prefetcher.
    Null(NullPrefetcher),
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

macro_rules! delegate {
    ($self:expr, $p:ident => $body:expr) => {
        match $self {
            AnyPrefetcher::Null($p) => $body,
            AnyPrefetcher::Sequential($p) => $body,
            AnyPrefetcher::Markov($p) => $body,
            AnyPrefetcher::Tifs($p) => $body,
            AnyPrefetcher::Stride($p) => $body,
            AnyPrefetcher::Ghb($p) => $body,
            AnyPrefetcher::BestOffset($p) => $body,
            AnyPrefetcher::Ampm($p) => $body,
        }
    };
}

impl Prefetcher for AnyPrefetcher {
    fn name(&self) -> &'static str {
        delegate!(self, p => p.name())
    }

    fn max_degree(&self) -> u32 {
        delegate!(self, p => p.max_degree())
    }

    #[inline]
    fn observe(&mut self, event: &AccessEvent, out: &mut Vec<u32>) {
        delegate!(self, p => p.observe(event, out))
    }

    fn power_loss(&mut self) {
        delegate!(self, p => p.power_loss())
    }
}

impl Persist for AnyPrefetcher {
    type State = PrefetcherState;

    fn export_state(&self) -> PrefetcherState {
        match self {
            AnyPrefetcher::Null(_) => PrefetcherState::None,
            AnyPrefetcher::Sequential(p) => PrefetcherState::Sequential(p.clone()),
            AnyPrefetcher::Markov(p) => PrefetcherState::Markov(p.clone()),
            AnyPrefetcher::Tifs(p) => PrefetcherState::Tifs(p.clone()),
            AnyPrefetcher::Stride(p) => PrefetcherState::Stride(p.clone()),
            AnyPrefetcher::Ghb(p) => PrefetcherState::Ghb(p.clone()),
            AnyPrefetcher::BestOffset(p) => PrefetcherState::BestOffset(p.clone()),
            AnyPrefetcher::Ampm(p) => PrefetcherState::Ampm(p.clone()),
        }
    }

    /// Rejects a state of another kind, or one whose degree or table
    /// geometry differs from this prefetcher's.
    fn import_state(&mut self, state: &PrefetcherState) -> Result<(), String> {
        match (self, state) {
            (AnyPrefetcher::Null(_), PrefetcherState::None) => Ok(()),
            (AnyPrefetcher::Sequential(p), PrefetcherState::Sequential(s)) => {
                restore(p, s, SequentialPrefetcher::shape)
            }
            (AnyPrefetcher::Markov(p), PrefetcherState::Markov(s)) => {
                restore(p, s, MarkovPrefetcher::shape)
            }
            (AnyPrefetcher::Tifs(p), PrefetcherState::Tifs(s)) => {
                restore(p, s, TifsPrefetcher::shape)
            }
            (AnyPrefetcher::Stride(p), PrefetcherState::Stride(s)) => {
                restore(p, s, StridePrefetcher::shape)
            }
            (AnyPrefetcher::Ghb(p), PrefetcherState::Ghb(s)) => restore(p, s, GhbPrefetcher::shape),
            (AnyPrefetcher::BestOffset(p), PrefetcherState::BestOffset(s)) => {
                restore(p, s, BestOffsetPrefetcher::shape)
            }
            (AnyPrefetcher::Ampm(p), PrefetcherState::Ampm(s)) => {
                restore(p, s, AmpmPrefetcher::shape)
            }
            (live, _) => Err(format!(
                "state is a '{}' prefetcher but the config builds '{}'",
                state.kind_name(),
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
}
