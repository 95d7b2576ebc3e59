//! # ipex — Intermittence-aware Prefetching EXtension
//!
//! This crate is the paper's contribution: a lightweight control layer
//! that sits between the capacitor's voltage monitor and any hardware
//! prefetcher, throttling the prefetch degree as power failure approaches
//! so that energy is not wasted fetching blocks that will be wiped before
//! use ("Rethinking Prefetching for Intermittent Computing", ISCA '25).
//!
//! ## How it works (paper §3–§4)
//!
//! * **Multiple voltage thresholds** `V1 > V2 > … > Vk` (default k = 2 at
//!   3.3 V / 3.25 V) partition the operating voltage range. Each
//!   downward crossing *halves* the current prefetch degree `Rcpd`; each
//!   upward crossing *doubles* it back, switching between *high
//!   performance* and *energy saving* modes ([`Mode`]).
//! * **Four registers per cache** ([`IpexRegisters`]): `Rthrottled`,
//!   `Rtotal`, `Rtr` and `Ripd`. The first two count suppressed and total
//!   prefetch candidates and survive outages via JIT checkpointing; at
//!   reboot `Rtr = Rthrottled / Rtotal` (the *throttling rate*) drives
//!   the adaptive threshold update: a rate ≥ 5 % means throttling was too
//!   eager, so all thresholds drop by one 0.05 V step (lazier); otherwise
//!   they rise by one step (more eager).
//! * **Per-cache controllers.** ICache and DCache each get their own
//!   [`IpexController`]; the simulator feeds each one its prefetcher's
//!   candidate list through [`ThrottlePolicy::filter`], the policy
//!   contract every controller implements.
//!
//! ## Example
//!
//! ```
//! use ipex::{IpexConfig, IpexController, Mode, ThrottlePolicy};
//!
//! let mut ctl = IpexController::new(IpexConfig::paper_default());
//! // Plenty of charge: full degree.
//! ctl.observe_voltage(3.5);
//! assert_eq!(ctl.current_degree(), 2);
//! assert_eq!(ctl.mode(), Mode::HighPerformance);
//!
//! // Voltage sags below the first threshold: degree halves.
//! ctl.observe_voltage(3.28);
//! assert_eq!(ctl.current_degree(), 1);
//! assert_eq!(ctl.mode(), Mode::EnergySaving);
//!
//! // A 2-candidate prefetch burst now issues only one block.
//! let mut candidates = vec![0x1000, 0x1010];
//! let issued = ctl.filter(&mut candidates);
//! assert_eq!(issued, 1);
//! assert_eq!(candidates, vec![0x1000]);
//! ```
//!
//! ## Beyond IPEX: the policy layer
//!
//! The controller answers one instance of a general question — how
//! aggressively to prefetch given the capacitor voltage. The [`policy`]
//! module names that question as the [`ThrottlePolicy`] contract and
//! ships alternative answers ([`PredictiveController`],
//! [`HysteresisController`], [`StaticController`]) behind the closed
//! [`AnyPolicy`] enum the simulator embeds; `IpexController` is one
//! implementation among them. Each controller, and `AnyPolicy`, is also
//! its own snapshot wire form. See the module docs for the state rules.

#![warn(missing_docs)]

mod config;
mod controller;
pub mod overhead;
pub mod policy;
mod registers;

pub use config::IpexConfig;
pub use controller::{IpexController, Mode};
pub use policy::{
    AnyPolicy, HysteresisConfig, HysteresisController, PolicyConfig, PolicyStats, PredictiveConfig,
    PredictiveController, StaticController, StaticDegreeConfig, ThrottlePolicy, IPEX_NVFF_BITS,
    PREDICTIVE_NVFF_BITS,
};
pub use registers::IpexRegisters;
