//! Snapshot/resume determinism across the full 20-workload suite.
//!
//! For every suite workload under a brownout-style supply (healthy base
//! with periodic single-sample dips — the adversarial fuzzer's first
//! strategy), running to a split point, serializing the complete
//! machine state through JSON, resuming a fresh machine from it, and
//! running on must land in the bit-identical full state as the
//! uninterrupted run: the comparison is the snapshot digest over
//! registers, memory delta, cache and prefetch-buffer contents,
//! prefetcher/throttle state, capacitor energy, statistics, energy
//! breakdown and event counts. The horizon is bounded so the suite
//! stays tier-1 fast; completion is not required for equivalence.

use proptest::prelude::*;
use serde::{Content, Serialize};

use ehs_repro::energy::PowerTrace;
use ehs_repro::prefetch::{DataPrefetcherKind, InstPrefetcherKind};
use ehs_repro::sim::slice::{plan_at, run_sliced_serial};
use ehs_repro::sim::{Ipex, Machine, SimConfig, Snapshot};
use ehs_repro::verify::run_parallel;
use ehs_repro::workloads::SUITE;

/// Deterministic brownout-style supply: a healthy base with a
/// single-sample dip every 7th sample and a strong recovery tail.
fn brownout_trace() -> PowerTrace {
    let mut samples: Vec<f64> = (0..96)
        .map(|i| {
            if i % 7 == 3 {
                0.5
            } else {
                24.0 + (i % 5) as f64
            }
        })
        .collect();
    samples.extend(std::iter::repeat_n(35.0, 16));
    PowerTrace::from_samples_mw(samples)
}

const SPLIT_CYCLE: u64 = 600_000;
const HORIZON: u64 = 1_500_000;

#[test]
fn snapshot_resume_is_bit_identical_for_all_20_workloads() {
    let trace = brownout_trace();
    let failures: Vec<String> = run_parallel(&SUITE, |w| {
        let program = w.program();
        // Alternate configurations so both controller shapes are swept.
        let cfg = if w.name().len() % 2 == 0 {
            SimConfig::builder().ipex(Ipex::Both).build()
        } else {
            SimConfig::builder().build()
        };

        let mut whole = Machine::with_trace(cfg.clone(), &program, trace.clone());
        whole.run_until(HORIZON).expect("whole run");

        let mut first = Machine::with_trace(cfg, &program, trace.clone());
        first.run_until(SPLIT_CYCLE).expect("first leg");
        let snap = match Snapshot::from_json(&first.snapshot(&program).to_json()) {
            Ok(s) => s,
            Err(e) => return Some(format!("{}: snapshot does not round-trip: {e}", w.name())),
        };
        let mut resumed = match Machine::resume(&snap, &program, trace.clone()) {
            Ok(m) => m,
            Err(e) => return Some(format!("{}: snapshot does not resume: {e}", w.name())),
        };
        if resumed.state_digest(&program) != snap.digest() {
            return Some(format!("{}: resumed state != snapshot", w.name()));
        }
        resumed.run_until(HORIZON).expect("resumed leg");
        if resumed.state_digest(&program) != whole.state_digest(&program) {
            return Some(format!(
                "{}: split run diverged from the uninterrupted run",
                w.name()
            ));
        }
        None
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(
        failures.is_empty(),
        "snapshot/resume broke determinism:\n  {}",
        failures.join("\n  ")
    );
}

/// Builds the configuration for one (ikind, dkind, policy) cell of the
/// prefetcher × throttling-policy grid, with a small memory image so
/// per-case snapshot capture stays cheap.
fn grid_cfg(ikind: InstPrefetcherKind, dkind: DataPrefetcherKind, policy: u8) -> SimConfig {
    use ehs_repro::ipex::{HysteresisConfig, PolicyConfig, PredictiveConfig, StaticDegreeConfig};
    let mut cfg = match policy {
        0 => SimConfig::builder().build(),
        1 => SimConfig::builder().ipex(Ipex::Both).build(),
        2 => SimConfig::builder()
            .throttle_policy(
                Ipex::Both,
                PolicyConfig::Predictive(PredictiveConfig::paper_default()),
            )
            .build(),
        3 => SimConfig::builder()
            .throttle_policy(
                Ipex::Both,
                PolicyConfig::Hysteresis(HysteresisConfig::paper_default()),
            )
            .build(),
        _ => SimConfig::builder()
            .throttle_policy(
                Ipex::Both,
                PolicyConfig::StaticDegree(StaticDegreeConfig::conservative()),
            )
            .build(),
    };
    cfg.inst_prefetcher = ikind;
    cfg.data_prefetcher = dkind;
    cfg.nvm.size_bytes = 1 << 21;
    cfg
}

proptest! {
    /// Random K-way slicing at arbitrary `run_until` boundaries
    /// stitches bit-identically to the monolithic run, across every
    /// prefetcher kind (4 instruction × 5 data) and all 5 throttling
    /// policies, under random supplies. This is the end-to-end slicing
    /// guarantee `ehs_sim::slice` rests on: entry snapshots + replayed
    /// targets reproduce the exact result and final state digest.
    #[test]
    fn random_k_way_slicing_stitches_bit_identically(
        ikind in prop_oneof![
            Just(InstPrefetcherKind::None),
            Just(InstPrefetcherKind::Sequential),
            Just(InstPrefetcherKind::Markov),
            Just(InstPrefetcherKind::Tifs),
        ],
        dkind in prop_oneof![
            Just(DataPrefetcherKind::None),
            Just(DataPrefetcherKind::Stride),
            Just(DataPrefetcherKind::Ghb),
            Just(DataPrefetcherKind::BestOffset),
            Just(DataPrefetcherKind::Ampm),
        ],
        policy in 0u8..5,
        raw_cuts in proptest::collection::vec(2_000u64..220_000, 1..6),
        samples in proptest::collection::vec(5.0f64..40.0, 4..24),
    ) {
        let w = ehs_repro::workloads::by_name("gsmd").unwrap();
        let program = w.program();
        let cfg = grid_cfg(ikind, dkind, policy);
        let trace = PowerTrace::from_samples_mw(samples);

        let mut mono = Machine::with_trace(cfg.clone(), &program, trace.clone());
        let truth = mono.run().expect("monolithic run completes");
        let truth_digest = mono.state_digest(&program);

        // plan_at demands strictly increasing, nonzero boundaries.
        let mut cuts = raw_cuts;
        cuts.sort_unstable();
        cuts.dedup();
        let plan = plan_at(&cfg, &program, &trace, &cuts).expect("forward pass");
        let stitched = run_sliced_serial(&plan, &program, &trace).expect("sliced replay");
        prop_assert_eq!(&stitched.result, &truth, "sliced result diverged");
        prop_assert_eq!(
            stitched.state_digest, truth_digest,
            "sliced final state diverged (plan of {} slices)", plan.len()
        );
    }
}

/// `map` with `field` replaced by `value`.
fn with_field(map: &Content, field: &str, value: Content) -> Content {
    let entries = map.as_map().expect("component state is a map");
    Content::Map(
        entries
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    if k == field { value.clone() } else { v.clone() },
                )
            })
            .collect(),
    )
}

/// The same value with a different shape: a count grown by one bit, a
/// vector one element shorter and one longer, a configuration with its
/// first field nudged.
fn reshaped(field: &str, value: &Content) -> Vec<(String, Content)> {
    match (field, value) {
        ("degree" | "index_mask" | "capacity", Content::U64(v)) => {
            vec![(
                format!("{field} {v}->{}", v * 2 + 1),
                Content::U64(v * 2 + 1),
            )]
        }
        ("lines" | "table" | "log" | "zones" | "history" | "thresholds", Content::Seq(items)) => {
            let last = items.last().expect("shape vectors are never empty").clone();
            let mut longer = items.clone();
            longer.push(last);
            vec![
                (
                    format!("{field} shortened"),
                    Content::Seq(items[1..].to_vec()),
                ),
                (format!("{field} lengthened"), Content::Seq(longer)),
            ]
        }
        ("cfg", Content::Map(cfg)) => {
            let (name, first) = &cfg[0];
            let nudged = match first {
                Content::U64(v) => Content::U64(v + 1),
                Content::F64(v) => Content::F64(v + 0.01),
                other => panic!("cfg.{name} is {other:?}"),
            };
            vec![(
                format!("cfg.{name} nudged"),
                with_field(value, name, nudged),
            )]
        }
        _ => Vec::new(),
    }
}

/// Every way this test corrupts one component of a snapshot, as
/// (description, corrupted component state); a prefetcher or policy
/// description starts with its kind.
fn corruptions(key: &str, state: &Content, buffer_entries: usize) -> Vec<(String, Content)> {
    let fields = state.as_map();
    match (key, fields) {
        ("icache" | "dcache", Some(fields)) => {
            let lines = serde::map_field(fields, "lines").unwrap();
            reshaped("lines", lines)
                .into_iter()
                .map(|(what, lines)| (what, with_field(state, "lines", lines)))
                .collect()
        }
        ("ibuf" | "dbuf", Some(_)) => {
            let entry = Content::Map(vec![
                ("block".into(), Content::U64(0x40)),
                ("ready_at".into(), Content::U64(0)),
            ]);
            let entries = Content::Seq(vec![entry; buffer_entries + 1]);
            vec![(
                format!("{} entries", buffer_entries + 1),
                with_field(state, "entries", entries),
            )]
        }
        // Prefetcher and policy states are externally tagged maps; the
        // unit kinds ("none", "passthrough") carry nothing to corrupt.
        // A policy's `degree` is a run-time decision, not shape.
        ("ipf" | "dpf" | "ithrottle" | "dthrottle", Some([(kind, inner)])) => inner
            .as_map()
            .expect("tagged state holds a map")
            .iter()
            .filter(|(field, _)| key.ends_with("pf") || field != "degree")
            .flat_map(|(field, value)| {
                reshaped(field, value).into_iter().map(move |(what, new)| {
                    let tagged = vec![(kind.clone(), with_field(inner, field, new))];
                    (format!("{kind} {what}"), Content::Map(tagged))
                })
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// A snapshot whose component disagrees in shape with what its own
/// configuration builds must fail `Machine::resume` — never resume and
/// then index out of bounds mid-run. Covers every prefetcher kind and
/// every throttling policy: mid-run snapshots from five cells of the
/// `grid_cfg` pool, each component corrupted one field at a time.
#[test]
fn corrupt_component_shapes_are_rejected_at_resume() {
    let cells = [
        (InstPrefetcherKind::None, DataPrefetcherKind::None, 0),
        (
            InstPrefetcherKind::Sequential,
            DataPrefetcherKind::Stride,
            1,
        ),
        (InstPrefetcherKind::Markov, DataPrefetcherKind::Ghb, 2),
        (InstPrefetcherKind::Tifs, DataPrefetcherKind::BestOffset, 3),
        (InstPrefetcherKind::Sequential, DataPrefetcherKind::Ampm, 4),
    ];
    let program = ehs_repro::workloads::by_name("gsmd").unwrap().program();
    let trace = brownout_trace();
    let outcomes = run_parallel(&cells, |&(ikind, dkind, policy)| {
        let cfg = grid_cfg(ikind, dkind, policy);
        let mut m = Machine::with_trace(cfg.clone(), &program, trace.clone());
        m.run_until(150_000).expect("first leg");
        let snap = m.snapshot(&program);
        assert!(
            Machine::resume(&snap, &program, trace.clone()).is_ok(),
            "{ikind:?}/{dkind:?}/{policy}: the uncorrupted snapshot must resume"
        );
        let whole = snap.to_content();
        let mut kinds = Vec::new();
        let mut accepted = Vec::new();
        for (key, state) in whole.as_map().unwrap() {
            for (what, bad) in corruptions(key, state, cfg.prefetch_buffer_entries) {
                kinds.push(what.split(' ').next().unwrap().to_string());
                let json = serde_json::to_string(&with_field(&whole, key, bad)).unwrap();
                let resumed = Snapshot::from_json(&json)
                    .map(|s| Machine::resume(&s, &program, trace.clone()).is_ok());
                if resumed == Ok(true) {
                    accepted.push(format!("{ikind:?}/{dkind:?}/{policy} {key}: {what}"));
                }
            }
        }
        (kinds, accepted)
    });
    let (kinds, accepted): (Vec<_>, Vec<_>) = outcomes.into_iter().unzip();
    let kinds: Vec<String> = kinds.concat();
    assert!(
        accepted.concat().is_empty(),
        "corrupt snapshots resumed:\n  {}",
        accepted.concat().join("\n  ")
    );
    for kind in [
        "sequential",
        "markov",
        "tifs",
        "stride",
        "ghb",
        "best-offset",
        "ampm",
        "ipex",
        "predictive",
        "hysteresis",
        "static-degree",
    ] {
        assert!(kinds.iter().any(|k| k == kind), "no {kind} state corrupted");
    }
}
