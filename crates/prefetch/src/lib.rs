//! # ehs-prefetch — hardware prefetchers for the EHS simulator
//!
//! Implementations of the instruction and data prefetchers evaluated in
//! the IPEX paper (Table 1 defaults plus the §6.7.2 sensitivity set):
//!
//! | kind | paper role | module |
//! |------|-----------|--------|
//! | [`SequentialPrefetcher`] | default instruction prefetcher | `sequential` |
//! | [`MarkovPrefetcher`]     | Table 3 alternative            | `markov` |
//! | [`TifsPrefetcher`]       | Table 3 alternative            | `tifs` |
//! | [`StridePrefetcher`]     | default data prefetcher        | `stride` |
//! | [`GhbPrefetcher`]        | Table 4 alternative (G/DC)     | `ghb` |
//! | [`BestOffsetPrefetcher`] | Table 4 alternative            | `best_offset` |
//!
//! Every prefetcher implements [`Prefetcher`]: it observes the demand
//! access stream and emits up to [`Prefetcher::max_degree`] candidate
//! block addresses per event. Crucially for IPEX, the prefetcher always
//! produces its *full* candidate list; the degree throttling (the paper's
//! `Rcpd` register) is applied by the controller in the `ipex` crate,
//! which counts the suppressed candidates toward the throttling rate.
//!
//! All prefetcher state is volatile: [`Prefetcher::power_loss`] models the
//! SRAM tables being wiped by an outage.

mod any;
mod best_offset;
mod event;
mod ghb;
mod kinds;
mod markov;
mod sequential;
mod stride;
mod tifs;

pub use any::AnyPrefetcher;
use any::Shape;
pub use best_offset::BestOffsetPrefetcher;
pub use event::{AccessEvent, AccessOutcome};
pub use ghb::GhbPrefetcher;
pub use kinds::{DataPrefetcherKind, InstPrefetcherKind};
pub use markov::MarkovPrefetcher;
pub use sequential::SequentialPrefetcher;
pub use stride::StridePrefetcher;
pub use tifs::TifsPrefetcher;

/// Maximum prefetch degree supported by the modelled hardware (the
/// paper's `R_ipd` register is 3 bits and the degree is capped at 4).
pub const MAX_DEGREE: u32 = 4;

/// A hardware prefetcher observing one cache's demand access stream.
///
/// Implementations append up to [`Prefetcher::max_degree`] candidate
/// *block base addresses* to `out`, highest priority first. The caller
/// (the IPEX controller or an unthrottled passthrough) decides how many
/// to issue.
///
/// Snapshot/resume is not part of this trait: the simulator holds an
/// [`AnyPrefetcher`], which is its own wire form. Its
/// [`ehs_mem::Persist`] impl exports a copy of itself and imports a
/// saved one into the prefetcher the configuration built, rejecting a
/// different kind, degree or table geometry.
pub trait Prefetcher {
    /// Short name used in reports (e.g. `"stride"`).
    fn name(&self) -> &'static str;

    /// The prefetcher's natural (unthrottled) degree.
    fn max_degree(&self) -> u32;

    /// Observes a demand access and appends candidate blocks to `out`.
    ///
    /// `out` is not cleared; the caller owns the buffer and may reuse it
    /// across calls after draining.
    fn observe(&mut self, event: &AccessEvent, out: &mut Vec<u32>);

    /// Wipes all volatile predictor state (tables, histories) — the
    /// effect of a power failure.
    fn power_loss(&mut self);
}
