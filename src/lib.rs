//! # ehs-repro — reproduction package for IPEX (ISCA '25)
//!
//! This facade crate re-exports the whole workspace so examples and
//! downstream users can depend on one crate:
//!
//! * [`isa`] — the EHS-RV instruction set, assembler and functional
//!   interpreter,
//! * [`workloads`] — the 20 MediaBench/MiBench-style benchmark kernels,
//! * [`mem`] — caches, prefetch buffers and the NVM model,
//! * [`prefetch`] — the six hardware prefetchers of Tables 3 and 4,
//! * [`energy`] — capacitor, power traces and energy accounting,
//! * [`ipex`] — the paper's contribution: the intermittence-aware
//!   prefetching extension,
//! * [`sim`] — the cycle-level nonvolatile-processor simulator,
//! * [`verify`] — the differential oracle, adversarial outage fuzzer
//!   and invariant checkers guarding the simulator's correctness.
//!
//! ```
//! use ehs_repro::sim::{Machine, SimConfig};
//!
//! let workload = ehs_repro::workloads::by_name("gsmd").unwrap();
//! let trace = ehs_repro::energy::PowerTrace::constant_mw(50.0, 16);
//! let mut machine = Machine::with_trace(SimConfig::builder().build(), &workload.program(), trace);
//! let result = machine.run().expect("completes");
//! assert!(result.stats.instructions > 10_000);
//! ```

pub use ehs_energy as energy;
pub use ehs_isa as isa;
pub use ehs_mem as mem;
pub use ehs_prefetch as prefetch;
pub use ehs_sim as sim;
pub use ehs_verify as verify;
pub use ehs_workloads as workloads;
pub use ipex;
