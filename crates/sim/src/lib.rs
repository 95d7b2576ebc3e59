//! # ehs-sim — cycle-level nonvolatile-processor simulator
//!
//! Ties the workspace together into the evaluated system: a 200 MHz
//! in-order core (functional execution by `ehs-isa`'s interpreter) behind
//! a 2 kB ICache and 2 kB DCache with per-cache prefetch buffers
//! (`ehs-mem`), hardware prefetchers (`ehs-prefetch`) optionally
//! throttled by IPEX (`ipex`), a ReRAM main memory, and a harvested
//! energy supply with a 0.47 µF capacitor (`ehs-energy`).
//!
//! The crash-consistency model is NVSRAMCache: when the capacitor falls
//! to `V_backup`, the machine JIT-checkpoints all dirty cache blocks to
//! NVM and the register file to nonvolatile flip-flops, powers off, and
//! recharges until `V_on`; on reboot the registers are restored and the
//! caches come back cold. The *ideal* variant (Fig. 11) makes backup and
//! restore free.
//!
//! ```no_run
//! use ehs_sim::{Machine, SimConfig};
//!
//! let workload = ehs_workloads::by_name("fft").unwrap();
//! let mut machine = Machine::new(SimConfig::builder().build(), &workload.program());
//! let result = machine.run().expect("completes within the cycle budget");
//! println!("cycles: {}", result.stats.total_cycles);
//! ```

mod builder;
pub mod canon;
mod config;
mod machine;
mod result;
pub mod slice;
pub mod snapshot;
mod trace;

pub use builder::{ConfigError, Ipex, SimConfigBuilder};
pub use config::{PrefetchMode, SimConfig, CYCLES_PER_TRACE_SAMPLE};

/// Identifies the execution-engine generation for throughput trajectory
/// records (`BENCH_core.json`). Bump only when the *performance* of the
/// core loop changes materially; architectural results must stay
/// bit-identical across engine generations (the records carry a result
/// digest to prove it).
pub const ENGINE_ID: &str = "predecode-v1";
pub use machine::{CycleMark, FaultPlan, Machine, RunStatus, SimError};
pub use result::{SimResult, SimStats};
pub use slice::{ForwardPass, SliceError, SlicePlan, Stitched};
pub use snapshot::{MemRun, Phase, Snapshot, SnapshotError, SNAPSHOT_VERSION};
pub use trace::{
    CountingSink, EventCounts, JsonlSink, NullSink, PathId, SimEvent, TraceMode, TraceSink, Tracer,
};

/// The one-stop import for simulator users: machine, configuration
/// builder, results, errors and trace sinks, plus the power-trace types
/// from `ehs-energy` that every caller needs alongside them.
///
/// ```
/// use ehs_sim::prelude::*;
///
/// let cfg = SimConfig::builder().ipex(Ipex::Both).build();
/// let trace = TraceSpec::default_rfhome();
/// # let _ = (cfg, trace);
/// ```
pub mod prelude {
    pub use crate::builder::{ConfigError, Ipex, SimConfigBuilder};
    pub use crate::config::{PrefetchMode, SimConfig};
    pub use crate::machine::{FaultPlan, Machine, RunStatus, SimError};
    pub use crate::result::{SimResult, SimStats};
    pub use crate::snapshot::{Phase, Snapshot, SnapshotError};
    pub use crate::trace::{
        CountingSink, EventCounts, JsonlSink, NullSink, PathId, SimEvent, TraceMode, TraceSink,
        Tracer,
    };
    pub use ehs_energy::{PowerTrace, TraceKind, TraceSpec};
}
