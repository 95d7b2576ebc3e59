//! Engine-level guarantees of `ehs_bench::sweep`: content-addressed key
//! stability, disk-cache round-tripping, and cache invalidation on
//! corruption.

use std::path::PathBuf;

use ehs_bench::sweep::{SimPoint, Sweep, SweepOptions};
use ehs_sim::prelude::*;
use ipex::{IpexConfig, PolicyConfig};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ehs-sweep-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

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

/// The digest must not depend on how the configuration was built —
/// explicit defaults, builder defaults, and the `Default` impl are the
/// same point, and so are the two ways of asking for IPEX.
#[test]
fn key_is_stable_across_construction_paths() {
    let via_builder = SimPoint::new(
        "gsmd",
        SimConfig::builder().build(),
        TraceSpec::default_rfhome(),
    );
    let via_default = SimPoint::new("gsmd", SimConfig::default(), TraceSpec::default_rfhome());
    assert_eq!(via_builder.key(), via_default.key());

    // ...while any semantic difference must change it.
    let mut other = via_default.clone();
    other.config.max_cycles += 1;
    assert_ne!(via_default.key(), other.key());

    // IPEX has one encoding: the `ipex()` shorthand and the explicit
    // policy are the same point, and other IPEX parameters are not.
    let point = |b: SimConfigBuilder| SimPoint::new("gsmd", b.build(), TraceSpec::default_rfhome());
    let via_ipex = point(SimConfig::builder().ipex(Ipex::Both));
    let via_policy = point(
        SimConfig::builder()
            .throttle_policy(Ipex::Both, PolicyConfig::Ipex(IpexConfig::paper_default())),
    );
    assert_eq!(via_ipex.key(), via_policy.key());
    let tuned = point(SimConfig::builder().throttle_policy(
        Ipex::Both,
        PolicyConfig::Ipex(IpexConfig::with_threshold_count(3)),
    ));
    assert_ne!(via_ipex.key(), tuned.key());
}

/// Equivalent trace *specs* hash equal; different parameters don't.
#[test]
fn trace_spec_identity_feeds_the_key() {
    let cfg = SimConfig::builder().build();
    let a = SimPoint::new("fft", cfg.clone(), TraceSpec::standard(TraceKind::RfHome));
    let b = SimPoint::new("fft", cfg.clone(), TraceSpec::default_rfhome());
    assert_eq!(a.key(), b.key(), "default_rfhome IS standard(RfHome)");
    let c = SimPoint::new(
        "fft",
        cfg,
        TraceSpec::Synthetic {
            kind: TraceKind::RfHome,
            seed: 43,
            samples: 400_000,
        },
    );
    assert_ne!(a.key(), c.key(), "a different seed is a different point");
}

#[test]
fn disk_cache_round_trips_and_survives_a_new_engine() {
    let dir = tmp_dir("roundtrip");
    let p = tiny_point();

    let first = Sweep::new(SweepOptions {
        jobs: Some(1),
        disk_cache: Some(dir.clone()),
        ..SweepOptions::default()
    });
    let r1 = first.get(&p).expect("simulates fine");
    let s1 = first.stats();
    assert_eq!((s1.simulated, s1.disk_hits), (1, 0), "{s1:?}");
    assert!(
        dir.join(format!("{}.json", p.key())).is_file(),
        "cache entry written"
    );

    // A brand-new engine over the same directory must not simulate.
    let second = Sweep::new(SweepOptions {
        jobs: Some(1),
        disk_cache: Some(dir.clone()),
        ..SweepOptions::default()
    });
    let r2 = second.get(&p).expect("loads from cache");
    let s2 = second.stats();
    assert_eq!((s2.simulated, s2.disk_hits), (0, 1), "{s2:?}");
    assert_eq!(
        serde_json::to_string(&r1).unwrap(),
        serde_json::to_string(&r2).unwrap(),
        "cached result identical to the simulated one"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_cache_entry_is_a_miss_not_a_crash() {
    let dir = tmp_dir("corrupt");
    let p = tiny_point();

    let first = Sweep::new(SweepOptions {
        jobs: Some(1),
        disk_cache: Some(dir.clone()),
        ..SweepOptions::default()
    });
    let _ = first.get(&p).expect("simulates fine");
    let entry = dir.join(format!("{}.json", p.key()));
    std::fs::write(&entry, b"{ not json").expect("clobber the entry");

    let second = Sweep::new(SweepOptions {
        jobs: Some(1),
        disk_cache: Some(dir.clone()),
        ..SweepOptions::default()
    });
    let _ = second.get(&p).expect("re-simulates");
    let s = second.stats();
    assert_eq!((s.simulated, s.disk_hits), (1, 0), "{s:?}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn no_cache_engine_touches_no_disk() {
    let dir = tmp_dir("none");
    let sweep = Sweep::in_memory();
    let _ = sweep.get(&tiny_point()).expect("simulates fine");
    assert!(!dir.exists());
    assert_eq!(sweep.stats().disk_hits, 0);
}
