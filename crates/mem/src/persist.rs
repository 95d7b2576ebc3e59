//! The shared persistence contract for snapshot/resume.
//!
//! Every stateful component the simulator checkpoints — caches, prefetch
//! buffers, the NVM port, prefetchers and throttling policies — follows
//! one rule, the rule the paper's JIT checkpoint follows for hardware:
//! the *shape* of a component (its geometry, table sizes, degree,
//! policy configuration) is fixed when it is built from the
//! configuration, and a snapshot carries only its *contents*. Resume
//! therefore builds every component from the snapshot's configuration
//! and then imports the saved contents into it through [`Persist`],
//! which rejects a state whose shape disagrees with the built
//! component instead of trusting it.

/// A component whose complete live state can be exported as a plain
/// serializable value and later restored into a component of the same
/// configuration.
///
/// The associated [`Persist::State`] type is the wire format: it should
/// derive `Serialize`/`Deserialize` (the trait does not force the bound
/// so implementors keep control of their serde attributes) and carry
/// *everything* needed to continue bit-identically — importing an
/// exported state into a freshly built component and running `m` more
/// cycles must be indistinguishable from never having stopped. Where the
/// component itself serializes, it is its own state (`State = Self`,
/// as for the prefetcher and throttling-policy enums): export is a
/// copy, and import checks the copy's shape before taking it over.
/// Otherwise the component stores the wire types of its parts (a
/// cache's [`LineState`](crate::LineState)s, a buffer's
/// [`BufferEntryState`](crate::BufferEntryState)s), so its state is
/// those parts copied as stored.
pub trait Persist {
    /// The serializable wire form of the component's state.
    type State;

    /// Exports the complete live state.
    fn export_state(&self) -> Self::State;

    /// Replaces this component's live state with `state`.
    ///
    /// `self` is the component the configuration built; its shape is
    /// authoritative. On error `self` may be partially overwritten and
    /// should be discarded.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description when the state is of a
    /// different kind or shape than `self`, or is internally
    /// inconsistent (e.g. a corrupted or hand-edited snapshot).
    fn import_state(&mut self, state: &Self::State) -> Result<(), String>;
}
