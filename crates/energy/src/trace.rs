//! Harvested input-power traces.
//!
//! The paper digitises real harvester output into a text file of average
//! power values, one per 10 µs interval, and replays the file so that
//! every simulated configuration receives exactly the same input energy
//! (§6). This module reproduces that format: [`PowerTrace::to_text`] /
//! [`PowerTrace::from_text`] round-trip the file format, and
//! [`TraceKind::synthesize`] generates deterministic synthetic traces
//! standing in for the proprietary measured ones:
//!
//! * **RFHome / RFOffice** — bursty two-state (burst/idle) RF harvesting;
//!   the office environment has denser bursts than the home one.
//! * **Solar / Thermal** — a larger stable fraction with slow modulation
//!   and noise, still interrupted by weak spells (the paper notes even
//!   these traces cause frequent outages with a 0.47 µF capacitor).

use std::sync::{Arc, OnceLock};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Content, Deserialize, Serialize};

/// Trace sample interval in microseconds (paper: 10 µs).
pub const TRACE_SAMPLE_US: f64 = 10.0;

/// The four energy environments evaluated in Fig. 23.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum TraceKind {
    /// Ambient RF in a home — weakest, burstiest supply (the paper's
    /// headline environment).
    RfHome,
    /// Ambient RF in an office — bursty but denser than home.
    RfOffice,
    /// Photovoltaic — a relatively high stable fraction.
    Solar,
    /// Thermoelectric — the steadiest supply.
    Thermal,
}

impl TraceKind {
    /// All four environments, in the paper's Fig. 23 order.
    pub const ALL: [TraceKind; 4] = [
        TraceKind::Thermal,
        TraceKind::Solar,
        TraceKind::RfOffice,
        TraceKind::RfHome,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::RfHome => "RFHome",
            TraceKind::RfOffice => "RFOffice",
            TraceKind::Solar => "solar",
            TraceKind::Thermal => "thermal",
        }
    }

    /// Generates a deterministic synthetic trace of `samples` 10 µs
    /// intervals from `seed`. Identical `(kind, seed, samples)` inputs
    /// yield identical traces, which is what makes cross-configuration
    /// comparisons fair.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is zero: a trace needs at least one sample.
    pub fn synthesize(self, seed: u64, samples: usize) -> PowerTrace {
        assert!(samples > 0, "trace must contain at least one sample");
        // Distinct kinds must not share RNG streams even with equal seeds.
        let salt = match self {
            TraceKind::RfHome => 0x52_46_48,
            TraceKind::RfOffice => 0x52_46_4f,
            TraceKind::Solar => 0x53_4f_4c,
            TraceKind::Thermal => 0x54_48_45,
        };
        let mut rng = StdRng::seed_from_u64(seed ^ salt);
        let mut power_mw = Vec::with_capacity(samples);
        match self {
            TraceKind::RfHome | TraceKind::RfOffice => {
                // Two-state burst/idle process. Mean dwell times in samples.
                // Burst power sits below the ~14 mW system draw, so the
                // capacitor drains even while harvesting (the paper's RF
                // environments never sustain operation indefinitely).
                let (burst_mw, idle_mw, p_start, p_stop) = if self == TraceKind::RfOffice {
                    (12.0, 0.8, 0.090, 0.035)
                } else {
                    (11.0, 0.5, 0.070, 0.045)
                };
                let mut bursting = false;
                for _ in 0..samples {
                    if bursting {
                        if rng.gen_bool(p_stop) {
                            bursting = false;
                        }
                    } else if rng.gen_bool(p_start) {
                        bursting = true;
                    }
                    let base = if bursting { burst_mw } else { idle_mw };
                    let jitter = 1.0 + 0.35 * (rng.gen::<f64>() - 0.5);
                    power_mw.push((base * jitter).max(0.0));
                }
            }
            TraceKind::Solar => {
                // Slow sinusoidal irradiance with cloud dips.
                let mut cloud = 1.0f64;
                for i in 0..samples {
                    if rng.gen_bool(0.002) {
                        cloud = rng.gen_range(0.05..0.5);
                    } else {
                        cloud = (cloud + 0.01).min(1.0);
                    }
                    let slow = 1.0 + 0.25 * (i as f64 / 4000.0).sin();
                    let noise = 1.0 + 0.10 * (rng.gen::<f64>() - 0.5);
                    power_mw.push((9.0 * slow * cloud * noise).max(0.0));
                }
            }
            TraceKind::Thermal => {
                // Steady gradient with small drift and occasional sags.
                let mut sag = 1.0f64;
                for i in 0..samples {
                    if rng.gen_bool(0.001) {
                        sag = rng.gen_range(0.2..0.6);
                    } else {
                        sag = (sag + 0.02).min(1.0);
                    }
                    let drift = 1.0 + 0.08 * (i as f64 / 9000.0).cos();
                    let noise = 1.0 + 0.05 * (rng.gen::<f64>() - 0.5);
                    power_mw.push((8.5 * drift * sag * noise).max(0.0));
                }
            }
        }
        // Finite and non-negative by construction: no validation pass.
        PowerTrace::from_valid(power_mw)
    }
}

/// A self-describing *recipe* for a power trace.
///
/// Where [`PowerTrace`] is hundreds of kilobytes of samples, a
/// `TraceSpec` is a few words that deterministically reproduce it — the
/// trace's *identity* for content-addressed caching: two simulation
/// points with equal specs received byte-identical input power, so a
/// spec (not the sample vector) belongs in a cache key. The sweep
/// engine in `ehs-bench` keys every simulation point on
/// `(workload, config, trace spec, version salt)` and synthesises the
/// actual samples at most once per spec.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum TraceSpec {
    /// A [`TraceKind::synthesize`] trace: `(kind, seed, samples)`.
    Synthetic {
        /// Which energy environment to synthesize.
        kind: TraceKind,
        /// RNG seed (kind-salted internally, see [`TraceKind::synthesize`]).
        seed: u64,
        /// Number of 10 µs samples.
        samples: usize,
    },
    /// A constant-power trace (tests, ideal-supply experiments).
    Constant {
        /// Power during every sample, milliwatts.
        power_mw: f64,
        /// Number of 10 µs samples.
        samples: usize,
    },
}

impl TraceSpec {
    /// The paper's default §6 environment: synthetic RFHome, seed 42,
    /// 4 s of samples.
    pub fn default_rfhome() -> TraceSpec {
        TraceSpec::Synthetic {
            kind: TraceKind::RfHome,
            seed: 42,
            samples: 400_000,
        }
    }

    /// A synthetic spec for `kind` with the standard seed and length
    /// (what Fig. 23 uses for every environment).
    pub fn standard(kind: TraceKind) -> TraceSpec {
        TraceSpec::Synthetic {
            kind,
            seed: 42,
            samples: 400_000,
        }
    }

    /// The spec's RNG seed, if it has one (`Constant` traces are
    /// seedless).
    pub fn seed(&self) -> Option<u64> {
        match self {
            TraceSpec::Synthetic { seed, .. } => Some(*seed),
            TraceSpec::Constant { .. } => None,
        }
    }

    /// The same environment under a different RNG seed — the expansion
    /// step of a Monte Carlo seed sweep. Seedless specs (`Constant`)
    /// are returned unchanged: the metric they feed is seed-invariant
    /// by construction.
    pub fn with_seed(&self, seed: u64) -> TraceSpec {
        match *self {
            TraceSpec::Synthetic { kind, samples, .. } => TraceSpec::Synthetic {
                kind,
                seed,
                samples,
            },
            TraceSpec::Constant { .. } => self.clone(),
        }
    }

    /// Materialises the trace this spec describes. Deterministic: equal
    /// specs always produce equal traces.
    pub fn synthesize(&self) -> PowerTrace {
        match *self {
            TraceSpec::Synthetic {
                kind,
                seed,
                samples,
            } => kind.synthesize(seed, samples),
            TraceSpec::Constant { power_mw, samples } => PowerTrace::constant_mw(power_mw, samples),
        }
    }

    /// Short human label (`"RFHome(seed=42,n=400000)"`).
    pub fn label(&self) -> String {
        match self {
            TraceSpec::Synthetic {
                kind,
                seed,
                samples,
            } => format!("{}(seed={seed},n={samples})", kind.name()),
            TraceSpec::Constant { power_mw, samples } => {
                format!("const({power_mw}mW,n={samples})")
            }
        }
    }
}

/// A harvested-power trace: average input power per 10 µs interval.
///
/// Traces repeat cyclically when the simulation outlives them, matching
/// the paper's "record and replay" methodology. Clones share the
/// samples and the identity digest, so cloning is O(1).
#[derive(Debug, Clone)]
pub struct PowerTrace {
    shared: Arc<Samples>,
}

#[derive(Debug)]
struct Samples {
    power_mw: Vec<f64>,
    /// [`PowerTrace::digest`], computed on first use.
    digest: OnceLock<u64>,
}

impl PowerTrace {
    /// Builds a trace from raw milliwatt samples.
    ///
    /// # Panics
    ///
    /// Panics if `power_mw` is empty or contains a negative or
    /// non-finite sample.
    pub fn from_samples_mw(power_mw: Vec<f64>) -> PowerTrace {
        PowerTrace::validated(power_mw).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The validating constructor behind [`PowerTrace::from_samples_mw`],
    /// [`PowerTrace::from_text`] and deserialization.
    fn validated(power_mw: Vec<f64>) -> Result<PowerTrace, String> {
        if power_mw.is_empty() {
            return Err("trace must contain at least one sample".to_owned());
        }
        if !power_mw.iter().all(|p| p.is_finite() && *p >= 0.0) {
            return Err("power samples must be finite and non-negative".to_owned());
        }
        Ok(PowerTrace::from_valid(power_mw))
    }

    /// Wraps samples already known to be valid.
    fn from_valid(power_mw: Vec<f64>) -> PowerTrace {
        PowerTrace {
            shared: Arc::new(Samples {
                power_mw,
                digest: OnceLock::new(),
            }),
        }
    }

    /// A constant-power trace (useful in tests and for ideal-supply
    /// experiments).
    pub fn constant_mw(mw: f64, samples: usize) -> PowerTrace {
        PowerTrace::from_samples_mw(vec![mw; samples])
    }

    fn samples(&self) -> &[f64] {
        &self.shared.power_mw
    }

    /// Number of 10 µs samples.
    pub fn len(&self) -> usize {
        self.samples().len()
    }

    /// `true` if the trace has no samples (never constructible).
    pub fn is_empty(&self) -> bool {
        self.samples().is_empty()
    }

    /// Input power (mW) during sample `idx`, repeating cyclically.
    #[inline]
    pub fn power_mw_at(&self, idx: u64) -> f64 {
        let s = self.samples();
        s[(idx % s.len() as u64) as usize]
    }

    /// Harvested energy in nanojoules over one core cycle (5 ns) during
    /// trace sample `idx`: `P · 5 ns`.
    #[inline]
    pub fn harvest_nj_per_cycle(&self, idx: u64) -> f64 {
        crate::mw_to_nj_per_cycle(self.power_mw_at(idx))
    }

    /// Identity digest: 64-bit FNV-1a over the sample count and every
    /// sample's IEEE-754 bit pattern, all little-endian. Two traces
    /// digest equal iff every sample is the same f64. Computed once and
    /// shared by every clone.
    pub fn digest(&self) -> u64 {
        *self.shared.digest.get_or_init(|| {
            const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
            const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
            let fold = |h: u64, word: u64| {
                word.to_le_bytes()
                    .iter()
                    .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
            };
            let h = fold(FNV_OFFSET, self.len() as u64);
            self.samples().iter().fold(h, |h, p| fold(h, p.to_bits()))
        })
    }

    /// Mean power over the whole trace, in milliwatts.
    pub fn mean_power_mw(&self) -> f64 {
        self.samples().iter().sum::<f64>() / self.len() as f64
    }

    /// Fraction of samples at or above `threshold_mw` (a proxy for the
    /// "stable energy portion" the paper discusses in §6.7.9).
    pub fn stable_fraction(&self, threshold_mw: f64) -> f64 {
        let n = self
            .samples()
            .iter()
            .filter(|p| **p >= threshold_mw)
            .count();
        n as f64 / self.len() as f64
    }

    /// Serialises to the paper's text format: one average-power value
    /// (milliwatts) per line.
    pub fn to_text(&self) -> String {
        let mut s = String::with_capacity(self.len() * 8);
        for p in self.samples() {
            s.push_str(&format!("{p:.6}\n"));
        }
        s
    }

    /// Parses the text format produced by [`PowerTrace::to_text`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line if any line is not a
    /// finite non-negative number, or if the file holds no samples.
    pub fn from_text(text: &str) -> Result<PowerTrace, String> {
        let mut power_mw = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let v: f64 = line
                .parse()
                .map_err(|_| format!("line {}: bad sample `{line}`", i + 1))?;
            if v < 0.0 || !v.is_finite() {
                return Err(format!(
                    "line {}: power must be finite and non-negative",
                    i + 1
                ));
            }
            power_mw.push(v);
        }
        PowerTrace::validated(power_mw)
    }
}

impl PartialEq for PowerTrace {
    fn eq(&self, other: &PowerTrace) -> bool {
        Arc::ptr_eq(&self.shared, &other.shared) || self.samples() == other.samples()
    }
}

/// Same wire shape as a derived `{"power_mw": [...]}` struct.
impl Serialize for PowerTrace {
    fn to_content(&self) -> Content {
        Content::Map(vec![("power_mw".to_owned(), self.samples().to_content())])
    }
}

/// Goes through the validating constructor: an empty or non-finite
/// trace is an error, not a panic waiting in [`PowerTrace::power_mw_at`].
impl Deserialize for PowerTrace {
    fn from_content(c: &Content) -> Result<PowerTrace, serde::Error> {
        let map = c
            .as_map()
            .ok_or_else(|| serde::Error::expected("a power trace map"))?;
        let power_mw = Vec::<f64>::from_content(serde::map_field(map, "power_mw")?)?;
        PowerTrace::validated(power_mw).map_err(serde::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_reproduces_synthesis() {
        let spec = TraceSpec::Synthetic {
            kind: TraceKind::Solar,
            seed: 9,
            samples: 3000,
        };
        assert_eq!(spec.synthesize(), TraceKind::Solar.synthesize(9, 3000));
        let c = TraceSpec::Constant {
            power_mw: 25.0,
            samples: 8,
        };
        assert_eq!(c.synthesize(), PowerTrace::constant_mw(25.0, 8));
    }

    #[test]
    fn spec_round_trips_through_json() {
        for spec in [
            TraceSpec::default_rfhome(),
            TraceSpec::standard(TraceKind::Thermal),
            TraceSpec::Constant {
                power_mw: 50.0,
                samples: 16,
            },
        ] {
            let json = serde_json::to_string(&spec).unwrap();
            let back: TraceSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back, spec, "{json}");
        }
    }

    #[test]
    fn synthesis_is_deterministic() {
        let a = TraceKind::RfHome.synthesize(7, 5000);
        let b = TraceKind::RfHome.synthesize(7, 5000);
        assert_eq!(a, b);
        let c = TraceKind::RfHome.synthesize(8, 5000);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "trace must contain at least one sample")]
    fn synthesis_of_zero_samples_is_rejected() {
        TraceKind::Solar.synthesize(7, 0);
    }

    /// The kind-salting contract of [`TraceKind::synthesize`], pinned:
    /// equal `(seed, samples)` across *distinct* kinds must never yield
    /// identical traces (kinds must not share RNG streams), while equal
    /// full inputs must be byte-identical across two synthesize calls.
    #[test]
    fn kinds_differ_for_same_seed() {
        let samples = 2000;
        for seed in [0u64, 1, 42, 0xDEAD_BEEF, u64::MAX] {
            let traces: Vec<(TraceKind, PowerTrace)> = TraceKind::ALL
                .into_iter()
                .map(|k| (k, k.synthesize(seed, samples)))
                .collect();
            for (i, (ka, a)) in traces.iter().enumerate() {
                for (kb, b) in &traces[i + 1..] {
                    assert_ne!(
                        a, b,
                        "kinds {ka:?} and {kb:?} share a stream at seed {seed}"
                    );
                }
                // Byte-identical re-synthesis: the text rendering (the
                // persisted format) must match down to the last byte.
                let again = ka.synthesize(seed, samples);
                assert_eq!(a, &again, "{ka:?} seed {seed} not deterministic");
                assert_eq!(
                    a.to_text().into_bytes(),
                    again.to_text().into_bytes(),
                    "{ka:?} seed {seed} text form not byte-identical"
                );
            }
        }
    }

    #[test]
    fn with_seed_reseeds_synthetic_and_keeps_constant() {
        let spec = TraceSpec::default_rfhome();
        assert_eq!(spec.seed(), Some(42));
        let reseeded = spec.with_seed(7);
        assert_eq!(reseeded.seed(), Some(7));
        assert_eq!(
            reseeded,
            TraceSpec::Synthetic {
                kind: TraceKind::RfHome,
                seed: 7,
                samples: 400_000,
            }
        );
        assert_ne!(reseeded.synthesize(), spec.synthesize());

        let c = TraceSpec::Constant {
            power_mw: 25.0,
            samples: 8,
        };
        assert_eq!(c.seed(), None);
        assert_eq!(c.with_seed(99), c);
    }

    #[test]
    fn stable_sources_have_higher_stable_fraction() {
        let n = 200_000;
        let thermal = TraceKind::Thermal.synthesize(3, n);
        let solar = TraceKind::Solar.synthesize(3, n);
        let home = TraceKind::RfHome.synthesize(3, n);
        let office = TraceKind::RfOffice.synthesize(3, n);
        let t = 4.0; // mW
        assert!(thermal.stable_fraction(t) > solar.stable_fraction(t) * 0.9);
        assert!(solar.stable_fraction(t) > office.stable_fraction(t));
        assert!(office.stable_fraction(t) > home.stable_fraction(t));
    }

    #[test]
    fn rf_traces_are_weak_on_average() {
        let home = TraceKind::RfHome.synthesize(11, 100_000);
        let mean = home.mean_power_mw();
        // Mean must sit well below the ~13.8 mW system draw so outages occur.
        assert!(mean > 1.0 && mean < 13.0, "mean {mean}");
    }

    #[test]
    fn cyclic_indexing() {
        let tr = PowerTrace::from_samples_mw(vec![1.0, 2.0, 3.0]);
        assert_eq!(tr.power_mw_at(0), 1.0);
        assert_eq!(tr.power_mw_at(4), 2.0);
        assert_eq!(tr.power_mw_at(3_000_000_002), 3.0);
    }

    #[test]
    fn text_round_trip() {
        let tr = TraceKind::Solar.synthesize(5, 100);
        let text = tr.to_text();
        let back = PowerTrace::from_text(&text).unwrap();
        assert_eq!(back.len(), tr.len());
        for i in 0..tr.len() as u64 {
            assert!((back.power_mw_at(i) - tr.power_mw_at(i)).abs() < 1e-5);
        }
    }

    #[test]
    fn from_text_rejects_garbage() {
        assert!(PowerTrace::from_text("1.0\nnope\n").is_err());
        assert!(PowerTrace::from_text("-3.0\n").is_err());
        assert!(PowerTrace::from_text("\n\n").is_err());
        assert!(PowerTrace::from_text("1.0\n\n2.0\n").is_ok());
    }

    #[test]
    fn harvest_energy_per_cycle() {
        let tr = PowerTrace::constant_mw(10.0, 4);
        // 10 mW * 5 ns = 0.05 nJ.
        assert!((tr.harvest_nj_per_cycle(0) - 0.05).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_trace_panics() {
        PowerTrace::from_samples_mw(vec![]);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn infinite_sample_panics() {
        PowerTrace::from_samples_mw(vec![1.0, f64::INFINITY]);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn nan_sample_panics() {
        PowerTrace::from_samples_mw(vec![f64::NAN]);
    }

    #[test]
    fn from_text_rejects_non_finite() {
        assert!(PowerTrace::from_text("1.0\ninf\n").is_err());
        assert!(PowerTrace::from_text("NaN\n").is_err());
    }

    #[test]
    fn serde_round_trips_and_validates() {
        let tr = TraceKind::RfHome.synthesize(3, 50);
        let json = serde_json::to_string(&tr).unwrap();
        assert!(json.starts_with("{\"power_mw\":["), "{json}");
        let back: PowerTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, tr);
        assert_eq!(back.digest(), tr.digest());
        // Empty: an error, not a trace whose `power_mw_at` divides by 0.
        assert!(serde_json::from_str::<PowerTrace>(r#"{"power_mw":[]}"#).is_err());
        assert!(serde_json::from_str::<PowerTrace>(r#"{"power_mw":[1.0,-2.0]}"#).is_err());
        assert!(serde_json::from_str::<PowerTrace>(r#"{"power_mw":[1.0,1e999]}"#).is_err());
    }

    #[test]
    fn clones_share_samples_and_digest() {
        let a = TraceKind::Solar.synthesize(1, 1000);
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.shared, &b.shared));
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.digest(), TraceKind::Solar.synthesize(1, 1000).digest());
        assert_ne!(a.digest(), TraceKind::Solar.synthesize(2, 1000).digest());
    }
}
