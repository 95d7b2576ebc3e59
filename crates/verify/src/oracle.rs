//! The differential oracle: golden interpreter vs cycle-level machine.
//!
//! The timing/functional split (`ehs_isa::interp` module docs) promises
//! that outages change only *timing* and *energy*, never architectural
//! state. The oracle checks exactly that promise: after both models run
//! a workload to completion, the full register file, the program counter
//! and an FNV-1a digest of the entire memory image must agree.

use ehs_energy::{PowerTrace, TraceKind};
use ehs_isa::{ExecError, Interpreter, Program, Reg};
use ehs_sim::{FaultPlan, Ipex, Machine, SimConfig, SimError};
use ehs_workloads::Workload;
use ipex::{HysteresisConfig, IpexConfig, PolicyConfig, PredictiveConfig, StaticDegreeConfig};

use crate::invariants::InvariantSink;
use crate::run_parallel;

/// Step budget for golden (functional) runs: far above any workload in
/// the suite, small enough that a runaway program fails fast.
pub const GOLDEN_MAX_STEPS: u64 = 200_000_000;

/// Final architectural state of one execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchState {
    /// Program counter at halt.
    pub pc: u32,
    /// All 16 registers.
    pub regs: [u32; 16],
    /// FNV-1a digest of the whole memory image.
    pub mem_digest: u64,
}

impl ArchState {
    /// Captures the state of a (halted) golden interpreter.
    pub fn of_interpreter(vm: &Interpreter) -> ArchState {
        ArchState {
            pc: vm.pc(),
            regs: vm.registers(),
            mem_digest: vm.mem_digest(),
        }
    }

    /// Captures the state of a (finished) machine.
    pub fn of_machine(m: &Machine) -> ArchState {
        ArchState {
            pc: m.pc(),
            regs: m.registers(),
            mem_digest: m.mem_digest(),
        }
    }
}

/// How the golden and machine states disagree.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Divergence {
    /// Registers that differ: `(reg, golden, machine)`.
    pub regs: Vec<(Reg, u32, u32)>,
    /// `(golden, machine)` program counters, when they differ.
    pub pc: Option<(u32, u32)>,
    /// `(golden, machine)` memory digests, when they differ.
    pub mem_digest: Option<(u64, u64)>,
    /// Non-state mismatch (e.g. one side faulted), when applicable.
    pub note: Option<String>,
}

impl Divergence {
    /// Compares two states, returning `None` when they agree.
    pub fn between(golden: &ArchState, machine: &ArchState) -> Option<Divergence> {
        let mut d = Divergence::default();
        for r in Reg::ALL {
            let (g, m) = (golden.regs[r.index()], machine.regs[r.index()]);
            if g != m {
                d.regs.push((r, g, m));
            }
        }
        if golden.pc != machine.pc {
            d.pc = Some((golden.pc, machine.pc));
        }
        if golden.mem_digest != machine.mem_digest {
            d.mem_digest = Some((golden.mem_digest, machine.mem_digest));
        }
        if d == Divergence::default() {
            None
        } else {
            Some(d)
        }
    }

    /// A divergence consisting only of an explanatory note.
    pub fn note(msg: impl Into<String>) -> Divergence {
        Divergence {
            note: Some(msg.into()),
            ..Divergence::default()
        }
    }
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        let mut sep = |f: &mut std::fmt::Formatter<'_>| -> std::fmt::Result {
            if !first {
                write!(f, "; ")?;
            }
            first = false;
            Ok(())
        };
        for (r, g, m) in &self.regs {
            sep(f)?;
            write!(f, "{}: golden {g:#x} != machine {m:#x}", r.name())?;
        }
        if let Some((g, m)) = self.pc {
            sep(f)?;
            write!(f, "pc: golden {g:#x} != machine {m:#x}")?;
        }
        if let Some((g, m)) = self.mem_digest {
            sep(f)?;
            write!(f, "mem digest: golden {g:#018x} != machine {m:#018x}")?;
        }
        if let Some(note) = &self.note {
            sep(f)?;
            f.write_str(note)?;
        }
        Ok(())
    }
}

/// Result of one differential check.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckOutcome {
    /// Full architectural agreement (and no invariant violations).
    Match,
    /// The two models disagree, or an invariant was violated.
    Diverged(Divergence),
    /// The machine could not finish (e.g. the power trace can never
    /// recharge the capacitor): no verdict either way.
    Inconclusive(String),
}

impl CheckOutcome {
    /// `true` for [`CheckOutcome::Match`].
    pub fn is_match(&self) -> bool {
        matches!(self, CheckOutcome::Match)
    }

    /// `true` for [`CheckOutcome::Diverged`].
    pub fn is_divergence(&self) -> bool {
        matches!(self, CheckOutcome::Diverged(_))
    }
}

/// Runs `program` on the golden interpreter with the machine's memory
/// size, returning the final state (or the golden-side fault).
pub fn golden_state(program: &Program, mem_bytes: usize) -> Result<ArchState, ExecError> {
    let mut vm = Interpreter::with_mem_size(program, mem_bytes);
    vm.run(GOLDEN_MAX_STEPS)?;
    Ok(ArchState::of_interpreter(&vm))
}

/// Runs one workload program on the machine and compares against a
/// precomputed golden state.
///
/// `fault` installs a deliberate consistency bug (verification of the
/// verifier); `check_invariants` additionally attaches an
/// [`InvariantSink`] and folds any violation into the outcome.
pub fn check_program(
    program: &Program,
    golden: &Result<ArchState, ExecError>,
    cfg: &SimConfig,
    trace: &PowerTrace,
    fault: Option<FaultPlan>,
    check_invariants: bool,
) -> CheckOutcome {
    let mut m = Machine::with_trace(cfg.clone(), program, trace.clone());
    if let Some(plan) = fault {
        m.set_fault_plan(plan);
    }
    let sink = if check_invariants {
        let s = InvariantSink::for_config(cfg);
        m.set_trace_sink(Box::new(s.clone()));
        Some(s)
    } else {
        None
    };
    let run = m.run();
    let machine = ArchState::of_machine(&m);
    let outcome = judge(golden, &run, &machine);
    if !outcome.is_match() {
        return outcome;
    }
    if let (Some(sink), Ok(result)) = (sink, &run) {
        let violations = sink.finish(Some(result));
        if !violations.is_empty() {
            return CheckOutcome::Diverged(Divergence::note(format!(
                "invariant violations: {}",
                violations.join(" | ")
            )));
        }
    }
    CheckOutcome::Match
}

/// The differential verdict table: compares a finished machine run (its
/// outcome plus final architectural state) against the golden state.
/// Invariant violations are judged separately by [`check_program`].
fn judge(
    golden: &Result<ArchState, ExecError>,
    run: &Result<ehs_sim::SimResult, SimError>,
    machine: &ArchState,
) -> CheckOutcome {
    match (golden, run) {
        (Ok(g), Ok(_)) => match Divergence::between(g, machine) {
            Some(d) => CheckOutcome::Diverged(d),
            None => CheckOutcome::Match,
        },
        (Ok(_), Err(SimError::CycleLimit { max_cycles })) => CheckOutcome::Inconclusive(format!(
            "machine hit the {max_cycles}-cycle limit (trace cannot sustain the run)"
        )),
        (Ok(_), Err(SimError::Exec(e))) => CheckOutcome::Diverged(Divergence::note(format!(
            "machine faulted ({e}) where the golden model halted"
        ))),
        (Err(ge), Ok(_)) => CheckOutcome::Diverged(Divergence::note(format!(
            "golden model faulted ({ge}) where the machine halted"
        ))),
        (Err(ge), Err(SimError::Exec(me))) => {
            if ge == me {
                CheckOutcome::Match
            } else {
                CheckOutcome::Diverged(Divergence::note(format!(
                    "fault mismatch: golden {ge} vs machine {me}"
                )))
            }
        }
        (Err(_), Err(SimError::CycleLimit { max_cycles })) => CheckOutcome::Inconclusive(format!(
            "machine hit the {max_cycles}-cycle limit before reaching the golden fault"
        )),
    }
}

/// Convenience wrapper: golden run + machine run + comparison for a
/// suite workload.
pub fn check_workload(
    w: &Workload,
    cfg: &SimConfig,
    trace: &PowerTrace,
    fault: Option<FaultPlan>,
    check_invariants: bool,
) -> CheckOutcome {
    let program = w.program();
    let golden = golden_state(&program, cfg.nvm.size_bytes as usize);
    check_program(&program, &golden, cfg, trace, fault, check_invariants)
}

/// The controller configurations the matrix sweeps — the paper's
/// baseline, every IPEX placement, and one of each alternative
/// throttling policy (on both caches, their hardest placement).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConfigId {
    /// Conventional prefetching on both caches.
    Baseline,
    /// IPEX on the instruction prefetcher only.
    IpexI,
    /// IPEX on the data prefetcher only.
    IpexD,
    /// IPEX on both prefetchers (the headline configuration).
    IpexBoth,
    /// Predictive (outage-interval learning) policy on both prefetchers.
    Predictive,
    /// Hysteresis/EWMA policy on both prefetchers.
    Hysteresis,
    /// Static degree-1 policy on both prefetchers.
    StaticDeg,
}

impl ConfigId {
    /// All seven configurations, in matrix order.
    pub const ALL: [ConfigId; 7] = [
        ConfigId::Baseline,
        ConfigId::IpexI,
        ConfigId::IpexD,
        ConfigId::IpexBoth,
        ConfigId::Predictive,
        ConfigId::Hysteresis,
        ConfigId::StaticDeg,
    ];

    /// Stable name, used in reports and corpus files.
    pub fn name(self) -> &'static str {
        match self {
            ConfigId::Baseline => "baseline",
            ConfigId::IpexI => "ipex_i",
            ConfigId::IpexD => "ipex_d",
            ConfigId::IpexBoth => "ipex_both",
            ConfigId::Predictive => "predictive",
            ConfigId::Hysteresis => "hysteresis",
            ConfigId::StaticDeg => "static_deg",
        }
    }

    /// Parses a [`ConfigId::name`].
    pub fn from_name(s: &str) -> Option<ConfigId> {
        ConfigId::ALL.into_iter().find(|c| c.name() == s)
    }

    /// Builds the corresponding simulator configuration.
    pub fn build(self) -> SimConfig {
        match self {
            ConfigId::Baseline => SimConfig::builder().build(),
            // There is no inst-only builder shorthand; construct it
            // from the default.
            ConfigId::IpexI => SimConfig {
                inst_mode: ehs_sim::PrefetchMode::Policy(PolicyConfig::Ipex(
                    IpexConfig::paper_default(),
                )),
                ..SimConfig::builder().build()
            },
            ConfigId::IpexD => SimConfig::builder().ipex(Ipex::Data).build(),
            ConfigId::IpexBoth => SimConfig::builder().ipex(Ipex::Both).build(),
            ConfigId::Predictive => SimConfig::builder()
                .throttle_policy(
                    Ipex::Both,
                    PolicyConfig::Predictive(PredictiveConfig::paper_default()),
                )
                .build(),
            ConfigId::Hysteresis => SimConfig::builder()
                .throttle_policy(
                    Ipex::Both,
                    PolicyConfig::Hysteresis(HysteresisConfig::paper_default()),
                )
                .build(),
            ConfigId::StaticDeg => SimConfig::builder()
                .throttle_policy(
                    Ipex::Both,
                    PolicyConfig::StaticDegree(StaticDegreeConfig::conservative()),
                )
                .build(),
        }
    }
}

/// One cell of the verification matrix.
#[derive(Debug, Clone)]
pub struct MatrixEntry {
    /// Workload name.
    pub workload: &'static str,
    /// Controller configuration.
    pub config: ConfigId,
    /// Power-trace kind driving the run.
    pub kind: TraceKind,
    /// Differential verdict for this cell.
    pub outcome: CheckOutcome,
}

/// The full matrix sweep result.
#[derive(Debug, Clone, Default)]
pub struct MatrixReport {
    /// One entry per (workload, config, trace-kind) cell.
    pub entries: Vec<MatrixEntry>,
}

impl MatrixReport {
    /// `true` when every cell matched (inconclusive cells fail too: the
    /// matrix traces are chosen to be survivable).
    pub fn all_match(&self) -> bool {
        self.entries.iter().all(|e| e.outcome.is_match())
    }

    /// The cells that did not match.
    pub fn failures(&self) -> Vec<&MatrixEntry> {
        self.entries
            .iter()
            .filter(|e| !e.outcome.is_match())
            .collect()
    }
}

/// Sweeps the full 20-workload × 7-configuration × 4-trace-kind grid in
/// parallel (560 machine runs; golden states are computed once per
/// workload). `seed`/`samples` parameterize the synthesized traces.
pub fn run_matrix(seed: u64, samples: usize, check_invariants: bool) -> MatrixReport {
    let suite = &ehs_workloads::SUITE;
    // Golden pass: one functional run per workload, in parallel.
    let mem_bytes = SimConfig::default().nvm.size_bytes as usize;
    let golden: Vec<(Program, Result<ArchState, ExecError>)> = run_parallel(suite, |w| {
        let program = w.program();
        let state = golden_state(&program, mem_bytes);
        (program, state)
    });
    // Machine pass: every (workload, config, kind) cell.
    let tasks: Vec<(usize, ConfigId, TraceKind)> = (0..suite.len())
        .flat_map(|wi| {
            ConfigId::ALL
                .into_iter()
                .flat_map(move |c| TraceKind::ALL.into_iter().map(move |k| (wi, c, k)))
        })
        .collect();
    let entries = run_parallel(&tasks, |&(wi, config, kind)| {
        let (program, gold) = &golden[wi];
        let trace = kind.synthesize(seed, samples);
        let outcome = check_program(
            program,
            gold,
            &config.build(),
            &trace,
            None,
            check_invariants,
        );
        MatrixEntry {
            workload: suite[wi].name(),
            config,
            kind,
            outcome,
        }
    });
    MatrixReport { entries }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_ids_round_trip_names() {
        for c in ConfigId::ALL {
            assert_eq!(ConfigId::from_name(c.name()), Some(c));
        }
        assert_eq!(ConfigId::from_name("nope"), None);
    }

    #[test]
    fn ipex_i_enables_inst_side_only() {
        let cfg = ConfigId::IpexI.build();
        assert!(matches!(
            cfg.inst_mode,
            ehs_sim::PrefetchMode::Policy(PolicyConfig::Ipex(_))
        ));
        assert!(matches!(cfg.data_mode, ehs_sim::PrefetchMode::Conventional));
    }

    #[test]
    fn oracle_matches_on_a_small_workload() {
        let w = ehs_workloads::by_name("strings").unwrap();
        let trace = TraceKind::RfHome.synthesize(5, 50_000);
        let out = check_workload(w, &SimConfig::default(), &trace, None, true);
        assert!(out.is_match(), "{out:?}");
    }

    #[test]
    fn oracle_catches_a_skipped_restore_register() {
        let w = ehs_workloads::by_name("strings").unwrap();
        // Weak supply: plenty of outages, so the fault has many chances
        // to kill a live register.
        let trace = PowerTrace::constant_mw(5.0, 16);
        let fault = FaultPlan {
            skip_restore_reg: Some(Reg::Sp),
        };
        let out = check_workload(w, &SimConfig::default(), &trace, Some(fault), false);
        assert!(out.is_divergence(), "{out:?}");
    }
}
