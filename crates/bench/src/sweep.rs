//! The content-addressed simulation-point engine.
//!
//! The paper's evaluation is a dense matrix — 20 workloads × ~10
//! configurations × several power traces — and most figures share large
//! parts of it (nearly every one re-measures the RFHome baseline
//! suite). This module makes every *point* of that matrix a value with
//! an identity, so it is simulated **at most once per process and at
//! most once per cache lifetime**, no matter how many figures ask for
//! it:
//!
//! * A [`SimPoint`] is `(workload, SimConfig, TraceSpec)`. Its
//!   [`PointKey`] is the FNV-1a 64 digest of the canonical JSON of
//!   those inputs plus [`SIM_VERSION_SALT`] (see [`ehs_sim::canon`]);
//!   field order and construction path cannot perturb it.
//! * [`Sweep`] is the engine: an in-memory memo store, an optional
//!   on-disk cache (`results/.cache/<key>.json`, invalidated by bumping
//!   the salt), a bounded worker pool for misses, and a batch lock that
//!   resolves one batch at a time, so concurrent callers never run the
//!   same key twice.
//! * [`Sweep::request`] checks and batches any number of points into a
//!   [`SweepHandle`]; `wait()` resolves them all. Figures declare what
//!   they need and automatically share every hit with every other
//!   figure in the process.
//!
//! [`SweepStats`] exposes the exactly-once accounting (`simulated`
//! counts real machine runs; `unique()` is `simulated + disk_hits`)
//! that the `paper` binary asserts on and records in `BENCH_sweep.json`.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use ehs_energy::{PowerTrace, TraceSpec};
use ehs_isa::Program;
use ehs_sim::canon;
use ehs_sim::prelude::*;
use serde::{Deserialize, Serialize};

/// Version salt folded into every [`PointKey`].
///
/// Bump this whenever the simulator's *semantics* change (a fixed
/// model, a new energy constant, a different default): every previously
/// cached result silently becomes unreachable and the next run
/// re-simulates, so a stale `results/.cache/` can never contaminate a
/// figure.
pub const SIM_VERSION_SALT: &str = "ehs-sim-2026-08-ipex-v1";

/// One point of the evaluation matrix: a workload executed under a
/// configuration while replaying a power trace.
#[derive(Debug, Clone)]
pub struct SimPoint {
    /// Workload name (must exist in [`ehs_workloads::SUITE`]).
    pub workload: &'static str,
    /// Full machine configuration.
    pub config: SimConfig,
    /// Identity of the input power (synthesized on demand, not stored).
    pub trace: TraceSpec,
}

impl SimPoint {
    /// Builds a point.
    pub fn new(workload: &'static str, config: SimConfig, trace: TraceSpec) -> SimPoint {
        SimPoint {
            workload,
            config,
            trace,
        }
    }

    /// The point's content-addressed identity: FNV-1a 64 over the
    /// newline-joined canonical JSON of (salt, workload, config,
    /// trace). Stable across processes, field reorderings, and
    /// construction paths; changed by any semantic input difference.
    pub fn key(&self) -> PointKey {
        let mut material = String::with_capacity(1024);
        material.push_str(SIM_VERSION_SALT);
        material.push('\n');
        material.push_str(self.workload);
        material.push('\n');
        material.push_str(&canon::canonical_json(&self.config));
        material.push('\n');
        material.push_str(&canon::canonical_json(&self.trace));
        PointKey(canon::fnv1a_64(material.as_bytes()))
    }
}

/// A 64-bit content digest identifying a [`SimPoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PointKey(pub u64);

impl std::fmt::Display for PointKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Tuning knobs for a [`Sweep`].
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Worker-pool width for simulating misses; `None` uses
    /// [`std::thread::available_parallelism`], which honours a cgroup
    /// CPU quota. Either is clamped to `1..=`[`MAX_JOBS`].
    pub jobs: Option<usize>,
    /// Directory for the on-disk result cache (typically
    /// `results/.cache`); `None` disables persistence entirely.
    pub disk_cache: Option<PathBuf>,
    /// Periodic crash checkpoints for in-flight simulations; `None`
    /// disables them. Deliberately independent of `disk_cache`: a
    /// `--no-cache` run re-simulates every point yet still survives
    /// being killed mid-flight.
    pub checkpoints: Option<CheckpointPolicy>,
    /// Always `None`; nothing reads it. Sliced execution of sweep
    /// misses was removed (it lost to the plain engine at every slice
    /// count), but the standalone `ehs_benchmark` package still writes
    /// `slices: None` in a struct literal, so the field stays, typed so
    /// that `None` is its only value. New code writes
    /// `..SweepOptions::default()` instead.
    pub slices: Option<std::convert::Infallible>,
}

/// Upper bound on the worker-pool width. No real machine this harness
/// targets has more cores; a larger request is a typo (`--jobs 10000`)
/// that would only burn memory on idle stacks.
pub const MAX_JOBS: usize = 256;

/// Where and how often in-flight simulations checkpoint.
///
/// While a point simulates, its machine state is snapshotted every
/// `every_cycles` simulated cycles to `<dir>/<key>.ckpt.json`
/// (write-then-rename; deleted on completion). A later engine finding a
/// checkpoint resumes from it bit-identically, so an interrupted sweep
/// repays only the cycles since the last checkpoint.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Checkpoint directory (typically the same `results/.cache` the
    /// result cache uses; the `.ckpt.json` suffix keeps them apart).
    pub dir: PathBuf,
    /// Snapshot period in simulated cycles (on + off time).
    pub every_cycles: u64,
}

impl CheckpointPolicy {
    /// The checkpoint file for a point.
    pub fn path_for(&self, key: PointKey) -> PathBuf {
        self.dir.join(format!("{key}.ckpt.json"))
    }
}

/// Exactly-once accounting for one engine lifetime.
///
/// Every requested point ends up in exactly one bucket per resolution:
/// `memo_hits` (already resolved in this process), `disk_hits` (loaded
/// from the persistent cache), or `simulated` (an actual machine run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepStats {
    /// Points passed to [`Sweep::request`], duplicates included.
    pub requested: u64,
    /// Request points resolved from the in-memory memo store.
    pub memo_hits: u64,
    /// Misses satisfied by the on-disk cache.
    pub disk_hits: u64,
    /// Misses that ran a real simulation.
    pub simulated: u64,
    /// Simulations that resumed from an on-disk crash checkpoint
    /// instead of starting cold (a subset of `simulated`).
    pub resumed: u64,
    /// Cycles actually simulated in this process. A resumed point
    /// contributes only the cycles past its checkpoint, so this is what
    /// shrinks when an interrupted sweep restarts.
    pub cycles_simulated: u64,
}

impl SweepStats {
    /// Distinct points this engine materialised (from disk or by
    /// simulating). On a cold cache this equals `simulated` — the
    /// "every unique point exactly once" invariant.
    pub fn unique(&self) -> u64 {
        self.simulated + self.disk_hits
    }
}

/// The deduplicating, memoizing simulation engine. See the module docs.
pub struct Sweep {
    jobs: usize,
    disk_cache: Option<PathBuf>,
    checkpoints: Option<CheckpointPolicy>,
    /// Every resolved point (possibly to a simulation error). Boxed, so
    /// growing the map moves pointers rather than whole results.
    state: Mutex<HashMap<PointKey, Box<Result<SimResult, SimError>>>>,
    /// Held across [`Sweep::ensure`]: batches resolve one at a time, so
    /// a key is never simulated by two of them.
    batch: Mutex<()>,
    /// Materialised power traces, keyed by the spec's canonical JSON
    /// (each trace is synthesized once and shared by every point).
    traces: Mutex<HashMap<String, PowerTrace>>,
    /// Assembled programs, keyed by workload name (each workload is
    /// assembled once and shared by every point).
    programs: Mutex<HashMap<&'static str, Arc<Program>>>,
    requested: AtomicU64,
    memo_hits: AtomicU64,
    disk_hits: AtomicU64,
    simulated: AtomicU64,
    resumed: AtomicU64,
    cycles_simulated: AtomicU64,
}

impl Sweep {
    /// Builds an engine with the given options.
    pub fn new(opts: SweepOptions) -> Sweep {
        let jobs = opts.jobs.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        });
        Sweep {
            jobs: jobs.clamp(1, MAX_JOBS),
            disk_cache: opts.disk_cache,
            checkpoints: opts.checkpoints,
            state: Mutex::new(HashMap::new()),
            batch: Mutex::new(()),
            traces: Mutex::new(HashMap::new()),
            programs: Mutex::new(HashMap::new()),
            requested: AtomicU64::new(0),
            memo_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            simulated: AtomicU64::new(0),
            resumed: AtomicU64::new(0),
            cycles_simulated: AtomicU64::new(0),
        }
    }

    /// The worker-pool width this engine actually uses. This is the
    /// resolved value (explicit option or detected parallelism, clamped
    /// to `1..=MAX_JOBS`), so callers recording "how many workers ran"
    /// must read it from here rather than re-deriving it from the
    /// options they passed in.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The standard on-disk cache location, `<results>/​.cache`.
    pub fn default_cache_dir(results_dir: &Path) -> PathBuf {
        results_dir.join(".cache")
    }

    /// Checks and registers a batch of points and returns a handle that
    /// resolves them. Requesting is cheap; nothing is simulated until
    /// [`SweepHandle::wait`] (or [`Sweep::get`]) forces it.
    ///
    /// # Panics
    ///
    /// Panics, naming the workload and the [`ConfigError`], if any
    /// point's configuration fails [`SimConfig::validate`]: a figure
    /// that asks for an impossible machine is a harness bug, caught
    /// before any point of the batch is keyed or simulated.
    pub fn request(&self, points: Vec<SimPoint>) -> SweepHandle<'_> {
        validate_all(&points);
        self.requested
            .fetch_add(points.len() as u64, Ordering::Relaxed);
        SweepHandle {
            sweep: self,
            points,
        }
    }

    /// Resolves one point (memoized; simulates only on a true miss) and
    /// returns a clone of its result.
    ///
    /// # Panics
    ///
    /// Panics like [`Sweep::request`] on an invalid configuration.
    pub fn get(&self, point: &SimPoint) -> Result<SimResult, SimError> {
        let points = std::slice::from_ref(point);
        validate_all(points);
        self.ensure(points);
        self.resolved(points).pop().expect("one point")
    }

    /// Runs the full 20-workload suite under `cfg`/`trace` through the
    /// engine and returns results keyed by workload name, panicking on
    /// any simulation failure (an experiment configuration that cannot
    /// finish is a harness bug).
    pub fn suite(&self, cfg: &SimConfig, trace: &TraceSpec) -> BTreeMap<&'static str, SimResult> {
        let points: Vec<SimPoint> = ehs_workloads::SUITE
            .iter()
            .map(|w| SimPoint::new(w.name(), cfg.clone(), trace.clone()))
            .collect();
        let results = self.request(points.clone()).wait();
        points
            .iter()
            .zip(results)
            .map(|(p, r)| (p.workload, crate::expect_ok(p.workload, &p.config, r)))
            .collect()
    }

    /// Current counters (a consistent snapshot is only guaranteed while
    /// no batch is in flight).
    pub fn stats(&self) -> SweepStats {
        SweepStats {
            requested: self.requested.load(Ordering::Relaxed),
            memo_hits: self.memo_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            simulated: self.simulated.load(Ordering::Relaxed),
            resumed: self.resumed.load(Ordering::Relaxed),
            cycles_simulated: self.cycles_simulated.load(Ordering::Relaxed),
        }
    }

    /// Resolves every point in `points`, running each key that is not
    /// resolved yet on the worker pool. One batch at a time: the batch
    /// lock serializes concurrent callers, so a later one finds the
    /// keys an earlier one resolved.
    fn ensure(&self, points: &[SimPoint]) {
        // A panicking simulation poisons the lock but leaves no state
        // behind it: a point is recorded only once it is resolved.
        let _batch = self.batch.lock().unwrap_or_else(PoisonError::into_inner);
        let mut to_run: Vec<&SimPoint> = Vec::new();
        {
            let state = self.state.lock().expect("sweep state poisoned");
            let mut batch_keys = HashSet::new();
            for p in points {
                let key = p.key();
                if state.contains_key(&key) || !batch_keys.insert(key) {
                    self.memo_hits.fetch_add(1, Ordering::Relaxed);
                } else {
                    to_run.push(p);
                }
            }
        }

        // Bounded pool over this batch's misses.
        let workers = self.jobs.min(to_run.len());
        if workers <= 1 {
            for p in &to_run {
                self.compute_and_publish(p);
            }
        } else {
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    let (next, to_run) = (&next, &to_run);
                    scope.spawn(move || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(p) = to_run.get(i) else { break };
                        self.compute_and_publish(p);
                    });
                }
            });
        }
    }

    /// The results of `points`, which [`Sweep::ensure`] resolved, in
    /// order.
    fn resolved(&self, points: &[SimPoint]) -> Vec<Result<SimResult, SimError>> {
        let state = self.state.lock().expect("sweep state poisoned");
        points
            .iter()
            .map(|p| {
                (**state
                    .get(&p.key())
                    .expect("ensure() resolves every requested key"))
                .clone()
            })
            .collect()
    }

    /// Computes one point (disk cache first, simulation on a true
    /// miss) and publishes the result.
    fn compute_and_publish(&self, point: &SimPoint) {
        let key = point.key();
        let result = match self.load_cached(point, key) {
            Some(hit) => {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                Ok(hit)
            }
            None => {
                let program = self.assemble(point.workload);
                let trace = self.materialise(&point.trace);
                self.simulated.fetch_add(1, Ordering::Relaxed);
                let r = match &self.checkpoints {
                    Some(policy) => {
                        let out = crate::run_one_checkpointed(
                            &program,
                            &point.config,
                            &trace,
                            &policy.path_for(key),
                            policy.every_cycles,
                        );
                        if out.resumed_from.is_some() {
                            self.resumed.fetch_add(1, Ordering::Relaxed);
                        }
                        self.cycles_simulated
                            .fetch_add(out.cycles_simulated, Ordering::Relaxed);
                        out.result
                    }
                    None => {
                        // Counted even when the outcome is an error: a
                        // point that hit its cycle budget or faulted
                        // still simulated every one of those cycles.
                        let (r, cycles) = crate::run_one_counted(&program, &point.config, &trace);
                        self.cycles_simulated.fetch_add(cycles, Ordering::Relaxed);
                        r
                    }
                };
                if let Ok(ok) = &r {
                    self.store_cached(point, key, ok);
                }
                r
            }
        };
        self.state
            .lock()
            .expect("sweep state poisoned")
            .insert(key, Box::new(result));
    }

    /// Synthesizes (or reuses) the power trace a spec describes.
    fn materialise(&self, spec: &TraceSpec) -> PowerTrace {
        let id = canon::canonical_json(spec);
        let mut traces = self.traces.lock().expect("trace store poisoned");
        traces
            .entry(id)
            .or_insert_with(|| spec.synthesize())
            .clone()
    }

    /// Assembles (or reuses) the program of the named workload.
    fn assemble(&self, workload: &'static str) -> Arc<Program> {
        let mut programs = self.programs.lock().expect("program store poisoned");
        programs
            .entry(workload)
            .or_insert_with(|| {
                let w = ehs_workloads::by_name(workload)
                    .unwrap_or_else(|| panic!("unknown workload `{workload}` in sweep"));
                Arc::new(w.program())
            })
            .clone()
    }

    fn cache_path(&self, key: PointKey) -> Option<PathBuf> {
        self.disk_cache
            .as_ref()
            .map(|d| d.join(format!("{key}.json")))
    }

    fn load_cached(&self, point: &SimPoint, key: PointKey) -> Option<SimResult> {
        let path = self.cache_path(key)?;
        let text = std::fs::read_to_string(path).ok()?;
        let entry: CacheEntry = serde_json::from_str(&text).ok()?;
        // The salt is already folded into the file name via the key;
        // checking it again guards against a hand-copied stale file.
        (entry.salt == SIM_VERSION_SALT && entry.workload == point.workload).then_some(entry.result)
    }

    fn store_cached(&self, point: &SimPoint, key: PointKey, result: &SimResult) {
        let Some(path) = self.cache_path(key) else {
            return;
        };
        let entry = CacheEntry {
            salt: SIM_VERSION_SALT.to_owned(),
            key: key.to_string(),
            workload: point.workload.to_owned(),
            trace: point.trace.clone(),
            result: result.clone(),
        };
        let json = serde_json::to_string(&entry).expect("serialise cache entry");
        // Atomic so a crashed run can never leave a torn entry that a
        // later run would half-parse; best-effort, the run still succeeds.
        let _ = crate::write_atomic(&path, json);
    }
}

/// Panics on the first point whose configuration fails
/// [`SimConfig::validate`], naming its workload and the error.
fn validate_all(points: &[SimPoint]) {
    for p in points {
        if let Err(e) = p.config.validate() {
            panic!("workload `{}`: {e}", p.workload);
        }
    }
}

/// One persisted point result (`results/.cache/<key>.json`).
#[derive(Serialize, Deserialize)]
struct CacheEntry {
    salt: String,
    key: String,
    workload: String,
    trace: TraceSpec,
    result: SimResult,
}

/// A batch of requested points; dropping it without calling
/// [`wait`](SweepHandle::wait) abandons the request (nothing is
/// simulated on its behalf).
#[must_use = "a SweepHandle does nothing until wait() resolves it"]
pub struct SweepHandle<'a> {
    sweep: &'a Sweep,
    points: Vec<SimPoint>,
}

impl SweepHandle<'_> {
    /// Resolves every point in the batch (deduplicated against the
    /// store, earlier batches, the disk cache, and within the batch
    /// itself) and returns the results in request order.
    pub fn wait(self) -> Vec<Result<SimResult, SimError>> {
        self.sweep.ensure(&self.points);
        self.sweep.resolved(&self.points)
    }

    /// The points this handle will resolve.
    pub fn points(&self) -> &[SimPoint] {
        &self.points
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_point() -> SimPoint {
        SimPoint::new(
            "gsmd",
            SimConfig::builder().build(),
            TraceSpec::Constant {
                power_mw: 50.0,
                samples: 8,
            },
        )
    }

    #[test]
    fn key_is_stable_and_discriminating() {
        let a = tiny_point();
        assert_eq!(a.key(), tiny_point().key());
        let mut other = tiny_point();
        other.config.prefetch_degree = 4;
        assert_ne!(a.key(), other.key());
        let mut other_trace = tiny_point();
        other_trace.trace = TraceSpec::Constant {
            power_mw: 51.0,
            samples: 8,
        };
        assert_ne!(a.key(), other_trace.key());
        let renamed = SimPoint::new("fft", a.config.clone(), a.trace.clone());
        assert_ne!(a.key(), renamed.key());
    }

    /// The key of one fixed point, as the canonical JSON writer renders
    /// it today: any drift in that rendering (float or string
    /// formatting, key order) moves every cache key and fails here.
    #[test]
    fn key_of_a_fixed_point_is_pinned() {
        let point = SimPoint::new(
            "qsort",
            SimConfig::builder().ipex(Ipex::Both).build(),
            TraceSpec::default_rfhome(),
        );
        assert_eq!(point.key().to_string(), "7b14443dfdd0d517");
    }

    #[test]
    fn duplicate_requests_simulate_once() {
        let sweep = Sweep::new(SweepOptions::default());
        let p = tiny_point();
        // Duplicates within one batch...
        let rs = sweep.request(vec![p.clone(), p.clone(), p.clone()]).wait();
        assert_eq!(rs.len(), 3);
        assert!(rs.iter().all(|r| r.is_ok()));
        // ...and across later batches all collapse to one simulation.
        let _ = sweep.request(vec![p.clone()]).wait();
        let _ = sweep.get(&p).unwrap();
        let stats = sweep.stats();
        assert_eq!(stats.simulated, 1, "{stats:?}");
        assert_eq!(stats.requested, 4);
        assert_eq!(stats.memo_hits, 4, "2 in-batch + 2 later");
    }

    #[test]
    fn concurrent_batches_dedup_in_flight() {
        let sweep = Sweep::new(SweepOptions::default());
        let p = tiny_point();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let (sweep, p) = (&sweep, p.clone());
                scope.spawn(move || {
                    let r = sweep.request(vec![p]).wait();
                    assert!(r[0].is_ok());
                });
            }
        });
        assert_eq!(sweep.stats().simulated, 1);
    }

    #[test]
    fn checkpointed_engine_resumes_a_planted_snapshot() {
        use ehs_sim::Machine;

        let dir = std::env::temp_dir().join(format!(
            "ehs-sweep-ckpt-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let point = tiny_point();
        let policy = CheckpointPolicy {
            dir: dir.clone(),
            every_cycles: 10_000,
        };

        // Simulate an interrupted run: execute the point partway by
        // hand and leave its checkpoint behind.
        let workload = ehs_workloads::by_name(point.workload).unwrap();
        let program = workload.program();
        let trace = point.trace.synthesize();
        let mut m = Machine::with_trace(point.config.clone(), &program, trace);
        assert!(matches!(
            m.run_until(20_000).unwrap(),
            RunStatus::Paused,
            // gsmd takes far longer than 20k cycles at 50 mW
        ));
        crate::write_checkpoint(&policy.path_for(point.key()), &m.snapshot(&program));

        // A fresh engine must resume it — and produce the cold result.
        let cold = Sweep::new(SweepOptions::default()).get(&point).unwrap();
        let sweep = Sweep::new(SweepOptions {
            jobs: Some(1),
            checkpoints: Some(policy.clone()),
            ..SweepOptions::default()
        });
        let warm = sweep.get(&point).unwrap();
        let stats = sweep.stats();
        assert_eq!(warm, cold, "resumed result must be identical");
        assert_eq!(stats.resumed, 1, "{stats:?}");
        assert!(
            stats.cycles_simulated < cold.stats.total_cycles,
            "resume must repay fewer cycles ({} vs {})",
            stats.cycles_simulated,
            cold.stats.total_cycles
        );
        assert!(
            !policy.path_for(point.key()).exists(),
            "checkpoint must be deleted after completion"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An invalid point fails its whole batch before anything in it is
    /// keyed or simulated, naming the workload and the rule.
    #[test]
    fn an_invalid_point_fails_the_request_before_any_simulation() {
        let sweep = Sweep::new(SweepOptions::default());
        let mut bad = tiny_point();
        bad.config.prefetch_buffer_entries = 0;
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sweep.request(vec![tiny_point(), bad]).wait()
        }))
        .expect_err("an invalid config must not be simulated");
        let msg = panic.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("workload `gsmd`"), "{msg}");
        assert!(msg.contains("prefetch_buffer_entries"), "{msg}");
        assert_eq!(sweep.stats(), SweepStats::default());
    }

    #[test]
    fn errors_are_memoized_too() {
        let mut cfg = SimConfig::builder().build();
        cfg.max_cycles = 10; // guaranteed cycle-limit error
        let p = SimPoint::new(
            "gsmd",
            cfg,
            TraceSpec::Constant {
                power_mw: 50.0,
                samples: 8,
            },
        );
        let sweep = Sweep::new(SweepOptions::default());
        let e1 = sweep.get(&p).expect_err("10 cycles cannot complete gsmd");
        let e2 = sweep.get(&p).expect_err("memoized outcome must match");
        assert!(matches!(e1, SimError::CycleLimit { .. }));
        assert_eq!(e1, e2);
        assert_eq!(sweep.stats().simulated, 1);
    }
}
