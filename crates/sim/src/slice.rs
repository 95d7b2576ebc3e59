//! Time-sliced execution of a single long run.
//!
//! PR 4's snapshot layer proved that pausing is *computation-neutral*:
//! `run_until(a)` then `run_until(b)` performs the identical sequence of
//! operations — including every f64 — as one `run_until(b)`, and
//! [`Machine::resume`] reconstructs a paused machine bit-identically.
//! This module builds on that guarantee to cut one long run into K
//! *slices* that can execute on K cores:
//!
//! 1. A **forward pass** ([`plan_at`] for explicit boundaries,
//!    [`plan_auto`] for evenly spaced adaptive cuts) simulates the run
//!    once, capturing a [`Snapshot`] at each pause boundary. The
//!    snapshots plus the `run_until` targets that produced them form a
//!    [`SlicePlan`].
//! 2. Each slice ([`run_slice`]) resumes from its entry snapshot and
//!    replays `run_until` with the *same target* the forward pass used.
//!    Because pauses are neutral and resume is exact, slice *i* must
//!    land on precisely the state the forward pass captured as entry
//!    *i+1* — so every slice is independently re-executable on any
//!    worker, in any order.
//! 3. [`stitch`] verifies the digest chain (each slice's exit state
//!    equals the next slice's entry snapshot) and extracts the final
//!    [`SimResult`] + state digest from the completing slice. Since all
//!    statistics accumulate inside the machine state, the completing
//!    slice's result *is* the whole run's result — bit-identical to a
//!    monolithic `run()`.
//!
//! Why `run_until` boundaries are safe cut points: the phase machine
//! freezes all in-flight loop state into the [`Phase`] variant itself
//! (mid-backup block counts, the growing backup window, recharge
//! progress), so a pause can land *inside* an outage without perturbing
//! the operation sequence. The slice executor replays the forward
//! pass's exact target rather than the captured entry cycle, because a
//! machine paused mid-backup reports the cycle the backup *started* at;
//! re-targeting that cycle would pause in `Phase::Run` before the
//! backup ever began. Replaying the original target reproduces the
//! original pause point exactly.
//!
//! The forward pass itself is a full simulation — state at a boundary
//! requires every cycle before it — so a sliced run cannot beat the
//! monolithic run, and the sweep engine does not slice. What slicing
//! buys is verification and exact warm states: every slice's landing
//! is digest-checked against the plan (the `verify slices` oracle and
//! the snapshot proptests), and the entry snapshots are the bit-exact
//! states sampled mode (`ehs_bench::sampled`) starts its measurement
//! windows from.

use ehs_energy::PowerTrace;
use ehs_isa::Program;

use crate::machine::{Machine, RunStatus, SimError};
use crate::result::SimResult;
use crate::snapshot::{Snapshot, SnapshotError};
use crate::SimConfig;

/// A planned K-way cut of one run: K entry snapshots plus the
/// `run_until` targets that link them.
///
/// `entries[0]` is the fresh (cycle-0) machine; `targets[i]` is the
/// pause target that, applied to a machine in state `entries[i]`,
/// produces exactly `entries[i + 1]`. The final slice (`entries[K-1]`)
/// has no target: it runs to completion.
#[derive(Debug, Clone)]
pub struct SlicePlan {
    /// Slice-entry snapshots, in execution order.
    pub entries: Vec<Snapshot>,
    /// `run_until` targets; `targets.len() == entries.len() - 1`.
    pub targets: Vec<u64>,
}

impl SlicePlan {
    /// Number of slices in the plan (at least 1).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the plan is degenerate (no entries at all — an invalid
    /// plan; a valid single-slice plan has `len() == 1`).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Everything a completed forward pass knows: the plan, plus the
/// monolithic result and final state digest it computed along the way
/// (the ground truth sliced execution is verified against).
#[derive(Debug)]
pub struct ForwardPass {
    /// The cut plan.
    pub plan: SlicePlan,
    /// The full-run result (the forward pass runs to completion).
    pub result: SimResult,
    /// `state_digest` of the completed machine.
    pub final_digest: u64,
}

/// What one slice produced.
#[derive(Debug, Clone)]
enum SliceOutcome {
    /// A non-final slice reached its pause target; `exit_digest` must
    /// equal the next entry snapshot's digest.
    Boundary {
        /// `state_digest` of the machine at the pause.
        exit_digest: u64,
    },
    /// The program halted (expected only for the final slice).
    Completed {
        /// Final run statistics (cumulative — the whole run's result).
        result: Box<SimResult>,
        /// `state_digest` of the completed machine.
        exit_digest: u64,
    },
}

/// A verified, stitched sliced run.
#[derive(Debug, Clone)]
pub struct Stitched {
    /// The final result, bit-identical to a monolithic run's.
    pub result: SimResult,
    /// The final machine state digest.
    pub state_digest: u64,
}

/// Why slicing failed.
#[derive(Debug, Clone, PartialEq)]
pub enum SliceError {
    /// The plan (or the boundary list that would build one) is
    /// structurally invalid.
    BadPlan(String),
    /// An entry snapshot could not be resumed.
    Snapshot(SnapshotError),
    /// The underlying simulation failed.
    Sim(SimError),
    /// A slice's exit state does not match the next slice's entry — the
    /// equivalence guarantee is broken (or the plan is stale).
    DigestMismatch {
        /// Index of the offending slice.
        slice: usize,
        /// Digest the plan's next entry snapshot expects.
        expected: u64,
        /// Digest the slice actually exited with.
        found: u64,
    },
    /// A non-final slice ran to completion (the plan's boundaries
    /// disagree with the program's actual length).
    ShortRun {
        /// Index of the offending slice.
        slice: usize,
    },
    /// The final slice paused instead of completing.
    NotCompleted {
        /// Index of the offending slice.
        slice: usize,
    },
}

impl std::fmt::Display for SliceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SliceError::BadPlan(msg) => write!(f, "invalid slice plan: {msg}"),
            SliceError::Snapshot(e) => write!(f, "slice entry snapshot: {e}"),
            SliceError::Sim(e) => write!(f, "slice simulation: {e}"),
            SliceError::DigestMismatch {
                slice,
                expected,
                found,
            } => write!(
                f,
                "slice {slice} exited with state digest {found:016x}, \
                 but the next entry expects {expected:016x}"
            ),
            SliceError::ShortRun { slice } => {
                write!(f, "non-final slice {slice} ran to completion")
            }
            SliceError::NotCompleted { slice } => {
                write!(f, "final slice {slice} paused instead of completing")
            }
        }
    }
}

impl std::error::Error for SliceError {}

impl From<SnapshotError> for SliceError {
    fn from(e: SnapshotError) -> SliceError {
        SliceError::Snapshot(e)
    }
}

impl From<SimError> for SliceError {
    fn from(e: SimError) -> SliceError {
        SliceError::Sim(e)
    }
}

/// Forward pass at explicit, strictly increasing cycle boundaries.
///
/// Runs the machine once, pausing at each boundary and capturing the
/// entry snapshot. Boundaries at or beyond the program's completion are
/// dropped (the plan simply has fewer slices). Unlike [`plan_auto`],
/// this does *not* run past the last boundary, so it carries no
/// [`ForwardPass::result`]; it exists for callers (tests, the verify
/// oracle) that choose their own cut cycles.
///
/// # Errors
///
/// [`SliceError::BadPlan`] for an empty/non-increasing/zero boundary
/// list, [`SliceError::Sim`] if the run fails before the last boundary.
pub fn plan_at(
    cfg: &SimConfig,
    program: &Program,
    trace: &PowerTrace,
    boundaries: &[u64],
) -> Result<SlicePlan, SliceError> {
    if boundaries.is_empty() {
        return Err(SliceError::BadPlan("no boundaries given".into()));
    }
    if boundaries[0] == 0 || boundaries.windows(2).any(|w| w[0] >= w[1]) {
        return Err(SliceError::BadPlan(
            "boundaries must be strictly increasing and nonzero".into(),
        ));
    }
    let mut machine = Machine::with_trace(cfg.clone(), program, trace.clone());
    let mut entries = vec![machine.snapshot(program)];
    let mut targets = Vec::new();
    for &b in boundaries {
        match machine.run_until(b)? {
            RunStatus::Paused => {
                entries.push(machine.snapshot(program));
                targets.push(b);
            }
            RunStatus::Completed(_) => break,
        }
    }
    Ok(SlicePlan { entries, targets })
}

/// Forward pass with adaptive, evenly spaced cuts: runs to completion,
/// snapshotting every `grain` cycles, and thins the retained set (drop
/// every other cut, double the spacing) whenever it would exceed
/// `2 * max_slices` — so a run of *unknown* length ends with between
/// `max_slices` and `max_slices / 2` evenly spaced slices without ever
/// holding more than `2 * max_slices` snapshots.
///
/// Thinning is sound because pausing is neutral: dropping an
/// intermediate pause point leaves `resume(entries[i]) +
/// run_until(targets[i])` landing on exactly `entries[i + 1]`, whether
/// or not the forward pass paused in between.
///
/// # Errors
///
/// [`SliceError::BadPlan`] for `max_slices == 0` or `grain == 0`,
/// [`SliceError::Sim`] if the run fails.
pub fn plan_auto(
    cfg: &SimConfig,
    program: &Program,
    trace: &PowerTrace,
    max_slices: usize,
    grain: u64,
) -> Result<ForwardPass, SliceError> {
    if max_slices == 0 {
        return Err(SliceError::BadPlan("max_slices must be at least 1".into()));
    }
    if grain == 0 {
        return Err(SliceError::BadPlan("grain must be at least 1".into()));
    }
    let mut machine = Machine::with_trace(cfg.clone(), program, trace.clone());
    let mut entries = vec![machine.snapshot(program)];
    let mut targets: Vec<u64> = Vec::new();
    let mut g = grain;
    let (result, final_digest) = loop {
        // Pause targets advance from the machine's *actual* cycle, not
        // an accumulated schedule, so overshooting pause points (backup
        // windows are indivisible) cannot produce degenerate slices.
        let target = machine.cycle().saturating_add(g);
        match machine.run_until(target)? {
            RunStatus::Paused => {
                entries.push(machine.snapshot(program));
                targets.push(target);
                if entries.len() >= 2 * max_slices {
                    thin(&mut entries, &mut targets);
                    g = g.saturating_mul(2);
                }
            }
            RunStatus::Completed(r) => break (*r, machine.state_digest(program)),
        }
    };
    while entries.len() > max_slices {
        thin(&mut entries, &mut targets);
    }
    Ok(ForwardPass {
        plan: SlicePlan { entries, targets },
        result,
        final_digest,
    })
}

/// Drops every other cut: keeps entries 0, 2, 4, … and rebinds each
/// kept entry to the target that produced it. Strictly reduces any
/// plan with two or more entries.
fn thin(entries: &mut Vec<Snapshot>, targets: &mut Vec<u64>) {
    let mut index = 0;
    entries.retain(|_| {
        index += 1;
        index % 2 == 1
    });
    // `targets[i]` produced `entries[i + 1]`; a kept entry at old index
    // j (j even, j > 0) keeps old target j - 1.
    let mut index = 0;
    targets.retain(|_| {
        index += 1;
        index % 2 == 0
    });
}

/// Executes slice `index` of a plan: resumes its entry snapshot and
/// replays the forward pass's pause target (final slice: runs to
/// completion).
///
/// # Errors
///
/// [`SliceError::BadPlan`] for an out-of-range index,
/// [`SliceError::Snapshot`] if the entry does not match
/// `program`/`trace`, [`SliceError::Sim`] if the simulation fails.
fn run_slice(
    plan: &SlicePlan,
    index: usize,
    program: &Program,
    trace: &PowerTrace,
) -> Result<SliceOutcome, SliceError> {
    let entry = plan
        .entries
        .get(index)
        .ok_or_else(|| SliceError::BadPlan(format!("slice {index} of {}", plan.len())))?;
    let mut machine = Machine::resume(entry, program, trace.clone())?;
    if index + 1 < plan.entries.len() {
        match machine.run_until(plan.targets[index])? {
            RunStatus::Paused => Ok(SliceOutcome::Boundary {
                exit_digest: machine.state_digest(program),
            }),
            RunStatus::Completed(result) => Ok(SliceOutcome::Completed {
                result,
                exit_digest: machine.state_digest(program),
            }),
        }
    } else {
        let result = machine.run()?;
        Ok(SliceOutcome::Completed {
            result: Box::new(result),
            exit_digest: machine.state_digest(program),
        })
    }
}

/// Verifies the digest chain and extracts the final result.
///
/// Every non-final slice must have paused with an exit digest equal to
/// the next entry snapshot's digest; the final slice must have
/// completed. Because all statistics accumulate inside machine state,
/// the completing slice's [`SimResult`] *is* the stitched whole-run
/// result.
///
/// # Errors
///
/// [`SliceError::DigestMismatch`], [`SliceError::ShortRun`],
/// [`SliceError::NotCompleted`], or [`SliceError::BadPlan`] when
/// `outcomes` and the plan disagree in length.
fn stitch(plan: &SlicePlan, outcomes: &[SliceOutcome]) -> Result<Stitched, SliceError> {
    if outcomes.len() != plan.len() {
        return Err(SliceError::BadPlan(format!(
            "{} outcomes for a {}-slice plan",
            outcomes.len(),
            plan.len()
        )));
    }
    let last = outcomes.len() - 1;
    for (i, outcome) in outcomes.iter().enumerate().take(last) {
        match outcome {
            SliceOutcome::Boundary { exit_digest } => {
                let expected = plan.entries[i + 1].digest();
                if *exit_digest != expected {
                    return Err(SliceError::DigestMismatch {
                        slice: i,
                        expected,
                        found: *exit_digest,
                    });
                }
            }
            SliceOutcome::Completed { .. } => return Err(SliceError::ShortRun { slice: i }),
        }
    }
    match &outcomes[last] {
        SliceOutcome::Completed {
            result,
            exit_digest,
        } => Ok(Stitched {
            result: (**result).clone(),
            state_digest: *exit_digest,
        }),
        SliceOutcome::Boundary { .. } => Err(SliceError::NotCompleted { slice: last }),
    }
}

/// Runs every slice of a plan serially (in order) and stitches — the
/// only slice executor, used by tests and the verify oracle.
///
/// # Errors
///
/// Any error [`run_slice`] or [`stitch`] can produce.
pub fn run_sliced_serial(
    plan: &SlicePlan,
    program: &Program,
    trace: &PowerTrace,
) -> Result<Stitched, SliceError> {
    let outcomes = (0..plan.len())
        .map(|i| run_slice(plan, i, program, trace))
        .collect::<Result<Vec<_>, _>>()?;
    stitch(plan, &outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (SimConfig, Program, PowerTrace) {
        let workload = ehs_workloads::by_name("gsmd").unwrap();
        let mut cfg = SimConfig::builder().build();
        cfg.nvm.size_bytes = 1 << 21; // small image -> cheap snapshots
        let trace = PowerTrace::constant_mw(30.0, 16);
        (cfg, workload.program(), trace)
    }

    fn monolithic(cfg: &SimConfig, program: &Program, trace: &PowerTrace) -> (SimResult, u64) {
        let mut m = Machine::with_trace(cfg.clone(), program, trace.clone());
        let r = m.run().expect("monolithic run completes");
        let d = m.state_digest(program);
        (r, d)
    }

    #[test]
    fn explicit_boundaries_stitch_bit_identically() {
        let (cfg, program, trace) = setup();
        let (truth, truth_digest) = monolithic(&cfg, &program, &trace);
        let plan = plan_at(&cfg, &program, &trace, &[40_000, 90_000, 160_000]).unwrap();
        assert!(plan.len() >= 2, "gsmd must outlive the first boundary");
        let stitched = run_sliced_serial(&plan, &program, &trace).unwrap();
        assert_eq!(stitched.result, truth);
        assert_eq!(stitched.state_digest, truth_digest);
    }

    #[test]
    fn auto_plan_matches_its_own_forward_pass_and_the_monolith() {
        let (cfg, program, trace) = setup();
        let (truth, truth_digest) = monolithic(&cfg, &program, &trace);
        let fwd = plan_auto(&cfg, &program, &trace, 4, 20_000).unwrap();
        assert_eq!(fwd.result, truth);
        assert_eq!(fwd.final_digest, truth_digest);
        assert!(fwd.plan.len() <= 4, "thinning must respect max_slices");
        let stitched = run_sliced_serial(&fwd.plan, &program, &trace).unwrap();
        assert_eq!(stitched.result, truth);
        assert_eq!(stitched.state_digest, truth_digest);
    }

    #[test]
    fn slices_can_run_out_of_order() {
        let (cfg, program, trace) = setup();
        let fwd = plan_auto(&cfg, &program, &trace, 4, 25_000).unwrap();
        let plan = &fwd.plan;
        let mut outcomes = vec![None; plan.len()];
        for i in (0..plan.len()).rev() {
            outcomes[i] = Some(run_slice(plan, i, &program, &trace).unwrap());
        }
        let outcomes: Vec<SliceOutcome> = outcomes.into_iter().map(Option::unwrap).collect();
        let stitched = stitch(plan, &outcomes).unwrap();
        assert_eq!(stitched.result, fwd.result);
        assert_eq!(stitched.state_digest, fwd.final_digest);
    }

    #[test]
    fn boundaries_past_completion_shrink_the_plan() {
        let (cfg, program, trace) = setup();
        let plan = plan_at(&cfg, &program, &trace, &[50_000, u64::MAX - 1]).unwrap();
        assert_eq!(plan.len(), 2, "the second boundary is past completion");
        let (truth, truth_digest) = monolithic(&cfg, &program, &trace);
        let stitched = run_sliced_serial(&plan, &program, &trace).unwrap();
        assert_eq!(stitched.result, truth);
        assert_eq!(stitched.state_digest, truth_digest);
    }

    #[test]
    fn bad_inputs_are_rejected() {
        let (cfg, program, trace) = setup();
        assert!(matches!(
            plan_at(&cfg, &program, &trace, &[]),
            Err(SliceError::BadPlan(_))
        ));
        assert!(matches!(
            plan_at(&cfg, &program, &trace, &[0, 10]),
            Err(SliceError::BadPlan(_))
        ));
        assert!(matches!(
            plan_at(&cfg, &program, &trace, &[20, 10]),
            Err(SliceError::BadPlan(_))
        ));
        assert!(matches!(
            plan_auto(&cfg, &program, &trace, 0, 100),
            Err(SliceError::BadPlan(_))
        ));
        let plan = plan_at(&cfg, &program, &trace, &[60_000]).unwrap();
        assert!(matches!(
            run_slice(&plan, plan.len(), &program, &trace),
            Err(SliceError::BadPlan(_))
        ));
        assert!(matches!(stitch(&plan, &[]), Err(SliceError::BadPlan(_))));
    }

    #[test]
    fn stitch_detects_a_corrupted_chain() {
        let (cfg, program, trace) = setup();
        let plan = plan_at(&cfg, &program, &trace, &[60_000]).unwrap();
        let mut outcomes: Vec<SliceOutcome> = (0..plan.len())
            .map(|i| run_slice(&plan, i, &program, &trace).unwrap())
            .collect();
        if let SliceOutcome::Boundary { exit_digest } = &mut outcomes[0] {
            *exit_digest ^= 1;
        }
        assert!(matches!(
            stitch(&plan, &outcomes),
            Err(SliceError::DigestMismatch { slice: 0, .. })
        ));
    }
}
