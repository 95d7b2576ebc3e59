//! Versioned, canonically-serialized machine snapshots.
//!
//! A [`Snapshot`] captures the *complete* state of a [`Machine`] — core
//! registers, memory image (as a sparse delta against the program's
//! fresh load image), cache and prefetch-buffer contents, prefetcher
//! tables, IPEX throttle counters, NVM port/statistics state, capacitor
//! charge, energy accounting, event-count tallies, and the exact phase
//! of an in-flight outage — such that
//!
//! ```text
//! run_until(n); snapshot; resume; run()      ≡      run()
//! ```
//!
//! bit-for-bit: the final statistics, energy totals (f64-exact), memory
//! digest and emitted event counts of the split run equal those of the
//! uninterrupted run. Snapshots serialize to JSON through the vendored
//! `serde_json`, whose float writer is shortest-round-trip, so every
//! `f64` survives a save/load cycle exactly.
//!
//! The power trace and program text are deliberately *not* stored:
//! snapshots record their FNV-1a digests instead and [`Machine::resume`]
//! refuses to rebind a snapshot to different inputs. This keeps
//! checkpoint files small (the sweep engine writes one next to its disk
//! cache every N cycles) while still making stale-checkpoint reuse a
//! loud error rather than silent corruption.
//!
//! [`Machine`]: crate::Machine
//! [`Machine::resume`]: crate::Machine::resume

use ehs_energy::{EnergyBreakdown, PowerTrace};
use ehs_isa::{Interpreter, LoadImage, PAGE_BYTES};
use ehs_mem::{BufferState, CacheState, NvmState};
use ehs_prefetch::AnyPrefetcher;
use ipex::AnyPolicy;
use serde::{Deserialize, Serialize};

use crate::canon;
use crate::machine::CycleMark;
use crate::result::SimStats;
use crate::trace::EventCounts;
use crate::SimConfig;

/// Snapshot format version. Bumped whenever [`Snapshot`]'s layout or the
/// machine's execution semantics change; [`Machine::resume`] rejects any
/// other version, so stale checkpoint files invalidate themselves.
///
/// History:
/// * **1** — initial format.
/// * **2** — throttling-policy API: `ithrottle`/`dthrottle` may carry
///   any [`AnyPolicy`] kind (predictive, hysteresis, static-degree,
///   not just passthrough/IPEX) and `event_counts` gained
///   `policy_adapt`. v1 files are no longer read; every corpus
///   snapshot is v2.
/// * **2, no bump** — IPEX moved into `PrefetchMode::Policy` as
///   `PolicyConfig::Ipex`. A file whose `cfg` still has the old
///   `{"Ipex": …}` mode fails [`Snapshot::from_json`]; the sweep's
///   checkpoint loader discards it and reruns the point.
/// * **2, no bump** — the state types are the components; the wire
///   format is unchanged.
///
/// [`Machine::resume`]: crate::Machine::resume
pub const SNAPSHOT_VERSION: u32 = 2;

/// Where in the power-cycle state machine a snapshot was taken.
///
/// The machine's main loop is a phase machine precisely so that pauses —
/// and therefore snapshots — can land *inside* an outage: between two
/// dirty-block backup writes, or between two recharge ticks. Each
/// variant carries exactly the loop state the interrupted phase needs to
/// continue with an identical sequence of f64 operations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum Phase {
    /// Normal execution: fetching and retiring instructions.
    Run,
    /// Mid-backup: the JIT checkpoint is flushing dirty cache blocks.
    Backup {
        /// Dirty blocks still to write.
        remaining: u64,
        /// Backup window length so far (base + serialized NVM writes).
        backup_cycles: u64,
        /// `energy.backup_restore_nj` when the backup began, for the
        /// `BackupDone` event's energy delta.
        br_before: f64,
        /// Total dirty blocks this backup started with.
        dirty_total: u64,
    },
    /// Powered off, harvesting until the capacitor reaches `v_on`.
    Recharge,
}

/// One run of bytes that differ from the fresh program image.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemRun {
    /// Address of the first byte in this run.
    pub addr: u32,
    /// The bytes, hex-encoded (two lowercase digits per byte).
    pub hex: String,
}

/// Complete serialized state of a [`Machine`](crate::Machine).
///
/// All fields are public: the golden-state regression corpus diffs
/// snapshots field-by-field, and the checkpointed trace shrinker
/// rebinds `trace_digest` when it proves prefix equivalence.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Snapshot {
    /// Format version; must equal [`SNAPSHOT_VERSION`].
    pub version: u32,
    /// Full simulator configuration the machine was built with.
    pub cfg: SimConfig,
    /// FNV-1a digest of the fresh load image of the program.
    pub program_digest: u64,
    /// FNV-1a digest of the power trace (length + sample bits).
    pub trace_digest: u64,
    /// Simulated cycle (on + off time) at capture.
    pub cycle: u64,
    /// Power-cycle phase at capture.
    pub phase: Phase,
    /// Core register file.
    pub regs: [u32; 16],
    /// Core program counter.
    pub pc: u32,
    /// Whether the core has executed `halt`.
    pub halted: bool,
    /// Instructions retired by the functional core.
    pub executed: u64,
    /// Sparse memory delta against the fresh load image.
    pub mem_delta: Vec<MemRun>,
    /// FNV-1a digest of the full memory image at capture.
    pub mem_digest: u64,
    /// ICache lines, LRU order and dirty bits.
    pub icache: CacheState,
    /// DCache lines, LRU order and dirty bits.
    pub dcache: CacheState,
    /// ICache-side prefetch buffer entries.
    pub ibuf: BufferState,
    /// DCache-side prefetch buffer entries.
    pub dbuf: BufferState,
    /// Instruction prefetcher kind and tables.
    pub ipf: AnyPrefetcher,
    /// Data prefetcher kind and tables.
    pub dpf: AnyPrefetcher,
    /// ICache throttling-policy state (or passthrough).
    pub ithrottle: AnyPolicy,
    /// DCache throttling-policy state (or passthrough).
    pub dthrottle: AnyPolicy,
    /// NVM port scheduling and access counters.
    pub nvm: NvmState,
    /// Capacitor charge, nanojoules (exact).
    pub cap_energy_nj: f64,
    /// Simulation statistics so far.
    pub stats: SimStats,
    /// Energy accounting so far.
    pub energy: EnergyBreakdown,
    /// Dynamic energy charged since the last `advance_on`.
    pub pending_draw_nj: f64,
    /// Power-cycle summary mark (tracing deltas).
    pub mark: CycleMark,
    /// Event tallies emitted so far.
    pub event_counts: EventCounts,
    /// Injected fault: register index skipped on restore, if any.
    pub fault_skip_restore_reg: Option<u32>,
}

impl Snapshot {
    /// Serializes to pretty JSON (deterministic: struct-field order).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serialization cannot fail")
    }

    /// Parses a snapshot from JSON.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::State`] on malformed JSON. Version and identity
    /// digests are checked later, by [`Machine::resume`](crate::Machine::resume).
    pub fn from_json(json: &str) -> Result<Snapshot, SnapshotError> {
        serde_json::from_str(json).map_err(|e| SnapshotError::State(format!("bad snapshot: {e}")))
    }

    /// FNV-1a digest of this snapshot's canonical JSON — a single `u64`
    /// that covers *all* machine state. Two machines with equal digests
    /// are in bit-identical states (modulo FNV collisions).
    pub fn digest(&self) -> u64 {
        canon::canonical_digest(self)
    }
}

/// Why a snapshot could not be resumed.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// The snapshot was written by a different format version.
    VersionMismatch {
        /// Version found in the file.
        found: u32,
        /// Version this build expects.
        expected: u32,
    },
    /// The snapshot was captured from a different program.
    ProgramMismatch {
        /// Digest recorded in the snapshot.
        found: u64,
        /// Digest of the program supplied to resume.
        expected: u64,
    },
    /// The snapshot was captured under a different power trace.
    TraceMismatch {
        /// Digest recorded in the snapshot.
        found: u64,
        /// Digest of the trace supplied to resume.
        expected: u64,
    },
    /// A state component is of another kind or shape than the component
    /// the configuration builds, or is internally inconsistent. The
    /// message names the component.
    State(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::VersionMismatch { found, expected } => {
                write!(
                    f,
                    "snapshot version {found} but this build reads {expected}"
                )
            }
            SnapshotError::ProgramMismatch { found, expected } => write!(
                f,
                "snapshot program digest {found:#018x} != supplied program {expected:#018x}"
            ),
            SnapshotError::TraceMismatch { found, expected } => write!(
                f,
                "snapshot trace digest {found:#018x} != supplied trace {expected:#018x}"
            ),
            SnapshotError::State(msg) => write!(f, "snapshot state invalid: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Identity digest of a power trace: FNV-1a over the sample count and
/// every sample's IEEE-754 bit pattern (little-endian). Bit-exact — two
/// traces digest equal iff every sample is the same f64. Computed once
/// per trace and shared by its clones ([`PowerTrace::digest`]).
pub fn trace_digest(trace: &PowerTrace) -> u64 {
    trace.digest()
}

/// Gaps of fewer than this many equal bytes between two differing runs
/// are absorbed into one [`MemRun`] (run-header overhead beats storing
/// a few redundant bytes).
const COALESCE_GAP: usize = 16;

/// Computes the sparse delta of `cur` against the fresh image `base`.
///
/// The dense reference for [`mem_delta_paged`], which the snapshot
/// path uses.
///
/// # Panics
///
/// Panics if the images differ in length (always equal in practice:
/// both are sized by `cfg.nvm.size_bytes`).
pub fn mem_delta(base: &[u8], cur: &[u8]) -> Vec<MemRun> {
    assert_eq!(base.len(), cur.len(), "image size mismatch");
    let mut runs = Vec::new();
    let mut i = 0usize;
    while let Some(start) = first_diff(base, cur, i) {
        // Extend the run until COALESCE_GAP consecutive equal bytes.
        let mut end = start + 1;
        let mut j = start + 1;
        while j < cur.len() && j < end + COALESCE_GAP {
            if base[j] != cur[j] {
                end = j + 1;
            }
            j += 1;
        }
        runs.push(MemRun {
            addr: start as u32,
            hex: hex_encode(&cur[start..end]),
        });
        i = end;
    }
    runs
}

/// [`mem_delta`] of `cur`'s memory against `fresh`, scanning only the
/// pages where either may be nonzero: those `cur` holds (every other
/// page of it is zero) or touched by the program's segments.
///
/// The runs are identical to the dense [`mem_delta`]'s: a run never
/// spans a page both images hold as zero, since that page is 4096
/// equal bytes and runs only absorb gaps of under `COALESCE_GAP`.
/// So each maximal group of scanned pages is diffed on its own.
///
/// # Panics
///
/// Panics if the images differ in length.
pub fn mem_delta_paged(fresh: &LoadImage, cur: &Interpreter) -> Vec<MemRun> {
    let len = cur.mem_len();
    assert_eq!(fresh.len(), len, "image size mismatch");
    let scan = |p: usize| cur.has_page(p) || fresh.pages().contains(p);
    let pages = len.div_ceil(PAGE_BYTES);
    let mut runs = Vec::new();
    let (mut base, mut live) = (Vec::new(), Vec::new());
    let mut p = 0;
    while p < pages {
        if !scan(p) {
            p += 1;
            continue;
        }
        let first = p;
        while p < pages && scan(p) {
            p += 1;
        }
        let (start, end) = (first * PAGE_BYTES, (p * PAGE_BYTES).min(len));
        base.resize(end - start, 0);
        fresh.read(start, &mut base);
        live.resize(end - start, 0);
        cur.read_bytes(start as u32, &mut live);
        runs.extend(mem_delta(&base, &live).into_iter().map(|r| MemRun {
            addr: r.addr + start as u32,
            hex: r.hex,
        }));
    }
    runs
}

/// Applies a delta produced by [`mem_delta`] via `write(addr, bytes)`.
///
/// # Errors
///
/// [`SnapshotError::State`] on malformed hex or out-of-range addresses.
pub fn apply_mem_delta(
    delta: &[MemRun],
    image_len: usize,
    mut write: impl FnMut(u32, &[u8]),
) -> Result<(), SnapshotError> {
    for run in delta {
        let bytes = hex_decode(&run.hex)
            .ok_or_else(|| SnapshotError::State(format!("bad hex in mem run @{:#x}", run.addr)))?;
        let end = run.addr as usize + bytes.len();
        if end > image_len {
            return Err(SnapshotError::State(format!(
                "mem run @{:#x}+{} exceeds the {image_len}-byte image",
                run.addr,
                bytes.len()
            )));
        }
        write(run.addr, &bytes);
    }
    Ok(())
}

/// First index `>= from` where the images differ, skipping equal spans
/// eight bytes at a time.
fn first_diff(base: &[u8], cur: &[u8], from: usize) -> Option<usize> {
    let mut i = from;
    while i < cur.len() && !i.is_multiple_of(8) {
        if base[i] != cur[i] {
            return Some(i);
        }
        i += 1;
    }
    while i + 8 <= cur.len() && base[i..i + 8] == cur[i..i + 8] {
        i += 8;
    }
    while i < cur.len() {
        if base[i] != cur[i] {
            return Some(i);
        }
        i += 1;
    }
    None
}

fn hex_encode(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(DIGITS[(b >> 4) as usize] as char);
        s.push(DIGITS[(b & 0xf) as usize] as char);
    }
    s
}

fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let digit = |c: u8| -> Option<u8> {
        match c {
            b'0'..=b'9' => Some(c - b'0'),
            b'a'..=b'f' => Some(c - b'a' + 10),
            _ => None,
        }
    };
    let b = s.as_bytes();
    let mut out = Vec::with_capacity(b.len() / 2);
    for pair in b.chunks_exact(2) {
        out.push((digit(pair[0])? << 4) | digit(pair[1])?);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trip() {
        let data: Vec<u8> = (0..=255u8).collect();
        assert_eq!(hex_decode(&hex_encode(&data)).unwrap(), data);
        assert!(hex_decode("0g").is_none());
        assert!(hex_decode("abc").is_none());
    }

    #[test]
    fn mem_delta_round_trip() {
        let base = vec![0u8; 4096];
        let mut cur = base.clone();
        cur[3] = 7;
        cur[5] = 9; // gap of 1: coalesced with the first run
        cur[100] = 1;
        cur[4000..4096].fill(0xaa); // run to the very end
        let delta = mem_delta(&base, &cur);
        assert_eq!(delta.len(), 3, "{delta:?}");
        assert_eq!(delta[0].addr, 3);
        let mut rebuilt = base.clone();
        apply_mem_delta(&delta, rebuilt.len(), |addr, bytes| {
            rebuilt[addr as usize..addr as usize + bytes.len()].copy_from_slice(bytes);
        })
        .unwrap();
        assert_eq!(rebuilt, cur);
    }

    #[test]
    fn mem_delta_of_identical_images_is_empty() {
        let img = vec![42u8; 1 << 16];
        assert!(mem_delta(&img, &img).is_empty());
    }

    #[test]
    fn delta_out_of_range_is_rejected() {
        let delta = vec![MemRun {
            addr: 10,
            hex: "aabb".into(),
        }];
        assert!(apply_mem_delta(&delta, 11, |_, _| {}).is_err());
    }

    /// The memoized digest hashes the same bytes as the original
    /// definition: count, then every sample's bits, little-endian.
    #[test]
    fn trace_digest_matches_the_byte_layout() {
        let trace = ehs_energy::TraceKind::RfOffice.synthesize(5, 777);
        let mut bytes = (trace.len() as u64).to_le_bytes().to_vec();
        for i in 0..trace.len() as u64 {
            bytes.extend_from_slice(&trace.power_mw_at(i).to_bits().to_le_bytes());
        }
        assert_eq!(trace_digest(&trace), canon::fnv1a_64(&bytes));
        assert_eq!(trace_digest(&trace.clone()), canon::fnv1a_64(&bytes));
    }

    /// A page the live image never wrote but the fresh image loads is
    /// still scanned, so a delta against another program's image stays
    /// the dense one.
    #[test]
    fn paged_delta_scans_the_fresh_images_pages() {
        let len = 3 << 20;
        let other = ehs_isa::asm::assemble(".text\n halt\n.data\nw: .word 7, 8, 9\n").unwrap();
        let fresh = LoadImage::new(&other, len);
        let own = ehs_isa::asm::assemble(".text\n halt\n").unwrap();
        let mut cur = Interpreter::with_mem_size(&own, len);
        cur.write_bytes(5, &[1]);
        cur.write_bytes(PAGE_BYTES as u32 - 2, &[4; 5]);
        assert!(!cur.has_page(ehs_isa::DATA_BASE as usize / PAGE_BYTES));
        let mut dense = vec![0u8; len];
        fresh.read(0, &mut dense);
        let mut dense_cur = vec![0u8; len];
        cur.read_bytes(0, &mut dense_cur);
        let delta = mem_delta_paged(&fresh, &cur);
        assert_eq!(delta, mem_delta(&dense, &dense_cur));
        assert!(
            delta.iter().any(|r| r.addr == ehs_isa::DATA_BASE),
            "{delta:?}"
        );
    }

    #[test]
    fn trace_digest_is_bit_sensitive() {
        let a = PowerTrace::from_samples_mw(vec![1.0, 2.0, 3.0]);
        let b = PowerTrace::from_samples_mw(vec![1.0, 2.0, f64::from_bits(3.0f64.to_bits() + 1)]);
        let c = PowerTrace::from_samples_mw(vec![1.0, 2.0, 3.0]);
        assert_ne!(trace_digest(&a), trace_digest(&b));
        assert_eq!(trace_digest(&a), trace_digest(&c));
    }
}
