//! Golden-state snapshot corpus drift test.
//!
//! Each committed file under `tests/corpus/snapshots/` is the complete
//! machine state of one (workload, configuration) pair at a fixed cycle
//! under a fixed weak supply (see `ehs_repro::verify::snapcorpus`).
//! Regenerating every entry from cold must reproduce the committed
//! bytes exactly: any change to instruction timing, energy accounting,
//! cache/prefetcher behaviour or outage handling shifts at least one
//! field and fails here — with a field-level diff, so the first drifted
//! quantity is named directly instead of buried in 30 kB of JSON.
//!
//! Intentional behaviour changes regenerate the corpus
//! (`cargo run --release -p ehs-bench --bin regen_snapshots`) and
//! commit the diff alongside the change.
//!
//! The committed entries also serve as realistic outside input for
//! resume: one edited value that disagrees with the entry's own
//! configuration must be rejected by `Machine::resume`.

use ehs_repro::energy::PowerTrace;
use ehs_repro::sim::canon::content_diff;
use ehs_repro::sim::{Machine, Snapshot};
use ehs_repro::verify::{run_parallel, snapcorpus};

#[test]
fn snapshot_corpus_has_not_drifted() {
    let dir = snapcorpus::corpus_dir();
    let specs = snapcorpus::specs();
    assert_eq!(specs.len(), 15);
    let checks = run_parallel(&specs, |spec| {
        let path = dir.join(spec.file_name());
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: {e} (run regen_snapshots)", path.display()));
        let fresh = snapcorpus::generate(spec);
        (spec.file_name(), committed, fresh)
    });
    let mut drifted = Vec::new();
    for (name, committed, fresh) in checks {
        if committed == snapcorpus::render(&fresh) {
            continue;
        }
        // Byte mismatch: name the drifted fields, not the whole file.
        let diff = match Snapshot::from_json(&committed) {
            Ok(old) => content_diff(&old, &fresh).join("\n    "),
            Err(e) => format!("committed file no longer parses: {e}"),
        };
        drifted.push(format!("  {name}:\n    {diff}"));
    }
    assert!(
        drifted.is_empty(),
        "{} of 15 golden snapshots drifted (intentional? rerun regen_snapshots and \
         commit the diff):\n{}",
        drifted.len(),
        drifted.join("\n")
    );
}

#[test]
fn corpus_entries_capture_post_outage_state() {
    // The corpus supply is weak by construction; every committed entry
    // must have survived at least one outage, so backup/restore and
    // recharge state is pinned too.
    let dir = snapcorpus::corpus_dir();
    for spec in snapcorpus::specs() {
        let path = dir.join(spec.file_name());
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: {e} (run regen_snapshots)", path.display()));
        let snap = Snapshot::from_json(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(
            snap.stats.power_cycles > 1,
            "{}: captured before any outage (power_cycles = {})",
            spec.file_name(),
            snap.stats.power_cycles
        );
        // The capture lands at the first pause point at or after the
        // target cycle (instruction latencies and recharge ticks are
        // indivisible), so allow the sub-tick overshoot.
        assert!(
            snap.cycle >= snapcorpus::SNAP_CYCLE && snap.cycle < snapcorpus::SNAP_CYCLE + 10_000,
            "{}: captured at cycle {}",
            spec.file_name(),
            snap.cycle
        );
    }
}

/// Loads one committed corpus entry, checks it resumes as committed,
/// applies `edit`, and returns what resuming the edited snapshot gives.
fn resume_edited(
    file: &str,
    edit: impl FnOnce(&mut Snapshot),
) -> Result<Machine, ehs_repro::sim::SnapshotError> {
    let spec = snapcorpus::specs()
        .into_iter()
        .find(|s| s.file_name() == file)
        .unwrap_or_else(|| panic!("{file} is not a corpus entry"));
    let text = std::fs::read_to_string(snapcorpus::corpus_dir().join(file)).unwrap();
    let mut snap = Snapshot::from_json(&text).unwrap();
    let program = ehs_repro::workloads::by_name(spec.workload)
        .unwrap()
        .program();
    let trace = PowerTrace::constant_mw(snapcorpus::TRACE_MW, snapcorpus::TRACE_SAMPLES);
    assert!(
        Machine::resume(&snap, &program, trace.clone()).is_ok(),
        "{file} must resume unedited"
    );
    edit(&mut snap);
    Machine::resume(&snap, &program, trace)
}

/// Rewrites one `"field":value` pair in the compact JSON of a
/// serializable value — a prefetcher or throttling policy, whose fields
/// are private to its crate.
fn edit_json<T: serde::Serialize + serde::Deserialize>(value: &mut T, from: &str, to: &str) {
    let json = serde_json::to_string(&*value).unwrap();
    assert_eq!(json.matches(from).count(), 1, "{from} in {json}");
    *value = serde_json::from_str(&json.replace(from, to)).unwrap();
}

/// A stride table mask wider than its 16-entry table used to resume and
/// then index past the table mid-run.
#[test]
fn stride_index_mask_beyond_the_table_is_rejected_at_resume() {
    let err = resume_edited("qsort-baseline.json", |snap| {
        edit_json(&mut snap.dpf, "\"index_mask\":15", "\"index_mask\":31")
    })
    .err()
    .expect("index_mask 31 over a 16-entry table must be rejected");
    assert!(err.to_string().contains("dpf"), "{err}");
}

/// A stride degree other than the configured `prefetch_degree` used to
/// resume and run silently with the snapshot's degree.
#[test]
fn stride_degree_differing_from_the_config_is_rejected_at_resume() {
    let err = resume_edited("qsort-baseline.json", |snap| {
        assert_eq!(snap.cfg.prefetch_degree, 2);
        edit_json(&mut snap.dpf, "\"degree\":2", "\"degree\":1")
    })
    .err()
    .expect("stride degree 1 under prefetch_degree 2 must be rejected");
    assert!(err.to_string().contains("degree"), "{err}");
}

/// An IPEX controller state whose own (valid) configuration differs from
/// the snapshot's `cfg` used to resume and run under the state's copy.
#[test]
fn ipex_config_differing_from_the_config_is_rejected_at_resume() {
    let err = resume_edited("basicm-ipex_both.json", |snap| {
        assert_eq!(snap.ithrottle.kind_name(), "ipex");
        edit_json(
            &mut snap.ithrottle,
            "\"max_top_threshold_v\":3.38",
            "\"max_top_threshold_v\":3.39",
        )
    })
    .err()
    .expect("an IPEX state config differing from cfg must be rejected");
    assert!(err.to_string().contains("ithrottle"), "{err}");
}

/// An NVM too small for the program used to panic while loading it
/// inside `Machine::resume` instead of returning an error.
#[test]
fn nvm_too_small_for_the_program_is_rejected_at_resume() {
    for size_bytes in [65536, 4096, 8] {
        let err = resume_edited("gsmd-baseline.json", |snap| {
            snap.cfg.nvm.size_bytes = size_bytes;
        })
        .err()
        .unwrap_or_else(|| panic!("an NVM of {size_bytes} bytes must be rejected"));
        assert!(err.to_string().contains("nvm.size_bytes"), "{err}");
    }
}

/// A configuration value `SimConfig::validate` rejects used to
/// resume: a gsmd snapshot with a `u64::MAX` ALU latency resumed and,
/// run on, wrapped the cycle counter and reported completion at an
/// early cycle.
#[test]
fn config_the_builder_rejects_is_rejected_at_resume() {
    let err = resume_edited("gsmd-baseline.json", |snap| {
        snap.cfg.latencies[0] = u64::MAX;
    })
    .err()
    .expect("a u64::MAX latency must be rejected");
    assert!(err.to_string().contains("latencies"), "{err}");
}

/// A snapshot naming a data prefetcher this build does not model (here
/// a kind outside the paper's Table 4) is an error from
/// `Snapshot::from_json`, not a panic and not a silent fallback.
#[test]
fn unknown_data_prefetcher_kind_is_rejected_at_parse() {
    let path = snapcorpus::corpus_dir().join("qsort-baseline.json");
    let text = std::fs::read_to_string(&path).unwrap();
    let field = "\"data_prefetcher\": \"stride\"";
    assert_eq!(text.matches(field).count(), 1, "{}", path.display());
    let edited = text.replace(field, "\"data_prefetcher\": \"ampm\"");
    assert!(Snapshot::from_json(&edited).is_err());
}

/// No golden file holds a hysteresis or static-degree policy, or a
/// Markov, TIFS, GHB or best-offset prefetcher, so their wire forms are
/// pinned here: the FNV-1a digest of each one's serialized state after a
/// fixed input stream.
#[test]
fn kinds_no_golden_file_holds_keep_their_wire_form() {
    use ehs_repro::ipex::{HysteresisConfig, PolicyConfig, StaticDegreeConfig};
    use ehs_repro::mem::Persist;
    use ehs_repro::prefetch::{
        AccessEvent, AccessOutcome, DataPrefetcherKind, InstPrefetcherKind, Prefetcher,
    };
    use ehs_repro::sim::canon::fnv1a_64;

    let lcg = |x: &mut u32| {
        *x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        *x
    };
    let policies = [
        (
            PolicyConfig::Hysteresis(HysteresisConfig::paper_default()),
            0xcc3a_5108_3d44_6086,
        ),
        (
            PolicyConfig::StaticDegree(StaticDegreeConfig::conservative()),
            0xeaeb_f0e1_2e61_f3b6,
        ),
    ];
    for (pc, want) in policies {
        let mut p = pc.build();
        let mut x = 0x9e37_79b9;
        for i in 0..400u32 {
            // Voltages in 3.0-3.5 V, across the hysteresis band.
            p.observe_voltage(3.0 + f64::from(lcg(&mut x) >> 24) / 512.0);
            p.filter(&mut vec![i * 16, i * 16 + 16, i * 16 + 32]);
            if i % 97 == 96 {
                p.on_power_failure();
                p.on_reboot();
            }
        }
        let json = serde_json::to_string(&p.export_state()).unwrap();
        assert_eq!(
            fnv1a_64(json.as_bytes()),
            want,
            "{}: {json}",
            pc.kind_name()
        );
    }

    let prefetchers = [
        (
            InstPrefetcherKind::Markov.build_any(2),
            0x0419_bee1_dc4b_209d,
        ),
        (InstPrefetcherKind::Tifs.build_any(2), 0x1e42_dd85_2962_6aa0),
        (DataPrefetcherKind::Ghb.build_any(2), 0xa067_c5a8_9985_3481),
        (
            DataPrefetcherKind::BestOffset.build_any(2),
            0x4174_8479_32bd_1433,
        ),
    ];
    for (mut p, want) in prefetchers {
        let mut x = 0x1234_5678;
        let mut out = Vec::new();
        for i in 0..2000u32 {
            let r = lcg(&mut x);
            // A strided walk with random jumps, mostly misses.
            let addr = if r % 8 == 0 {
                (r >> 8) & 0xfff0
            } else {
                (i * 48) & 0xffff
            };
            let outcome = if r & 0x30 == 0 {
                AccessOutcome::CacheHit
            } else {
                AccessOutcome::Miss
            };
            let ev = if p.name() == "markov" || p.name() == "tifs" {
                AccessEvent::fetch(addr, outcome)
            } else {
                AccessEvent::data(0x40 + (r >> 28) * 4, addr, outcome, r & 1 == 0)
            };
            out.clear();
            p.observe(&ev, &mut out);
        }
        let json = serde_json::to_string(&p.export_state()).unwrap();
        assert_eq!(fnv1a_64(json.as_bytes()), want, "{}: {json}", p.name());
    }
}
