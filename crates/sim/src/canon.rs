//! Canonical serialization and FNV-1a hashing for content-addressed
//! simulation-point keys.
//!
//! The sweep engine in `ehs-bench` memoizes [`SimResult`](crate::SimResult)s
//! under a digest of the *inputs* that determine them: workload name,
//! [`SimConfig`](crate::SimConfig), trace identity, and a simulator
//! version salt. For that digest to be stable it must not depend on
//! incidental serialization details, so keys are derived from a
//! *canonical* JSON rendering:
//!
//! * map keys are sorted recursively (struct-field declaration order and
//!   any future field reordering cannot change the digest),
//! * output is compact (no whitespace), rendered by the vendored
//!   `serde_json` writer itself (shortest round-trip floats, integral
//!   values as `1.0`), so a config that round-trips through JSON hashes
//!   identically.
//!
//! The digest itself is 64-bit FNV-1a — the same construction the
//! verification oracle already uses for memory digests: tiny, portable,
//! and deterministic across platforms (unlike `DefaultHasher`, which is
//! randomly seeded per process).

use serde::{Content, Serialize};

/// 64-bit FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// 64-bit FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hashes `bytes` with 64-bit FNV-1a.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Renders any serializable value as canonical JSON: compact, with all
/// map keys sorted recursively.
pub fn canonical_json<T: Serialize + ?Sized>(value: &T) -> String {
    compact(&Sorted(value))
}

/// `value` with every map's entries sorted by key, recursively. The
/// sort happens while its `Content` tree is built, so the writer renders
/// that tree without copying it again.
struct Sorted<'a, T: ?Sized>(&'a T);

impl<T: Serialize + ?Sized> Serialize for Sorted<'_, T> {
    fn to_content(&self) -> Content {
        fn sort_keys(c: &mut Content) {
            match c {
                Content::Seq(items) => items.iter_mut().for_each(sort_keys),
                Content::Map(entries) => {
                    entries.sort_by(|a, b| a.0.cmp(&b.0));
                    entries.iter_mut().for_each(|(_, v)| sort_keys(v));
                }
                _ => {}
            }
        }
        let mut content = self.0.to_content();
        sort_keys(&mut content);
        content
    }
}

/// Compact JSON through the vendored `serde_json` writer.
fn compact<T: Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string(value).expect("rendering a Content tree cannot fail")
}

/// Convenience: the FNV-1a 64 digest of a value's canonical JSON.
pub fn canonical_digest<T: Serialize + ?Sized>(value: &T) -> u64 {
    fnv1a_64(canonical_json(value).as_bytes())
}

/// Field-level difference report between two serializable values.
///
/// Walks both values' `Content` trees in lockstep and returns one line
/// per leaf that differs, as `path: left != right` with dotted/indexed
/// paths (`stats.total_cycles`, `mem_delta[3].hex`). Used by the
/// golden-snapshot corpus test so drift reads as *which fields* moved,
/// not as two multi-kilobyte JSON blobs.
pub fn content_diff<A: Serialize + ?Sized, B: Serialize + ?Sized>(a: &A, b: &B) -> Vec<String> {
    let mut out = Vec::new();
    diff_content(&a.to_content(), &b.to_content(), "", &mut out);
    out
}

fn diff_content(a: &Content, b: &Content, path: &str, out: &mut Vec<String>) {
    let label = |p: &str| {
        if p.is_empty() {
            "<root>".to_string()
        } else {
            p.to_string()
        }
    };
    match (a, b) {
        (Content::Seq(xs), Content::Seq(ys)) => {
            if xs.len() != ys.len() {
                out.push(format!(
                    "{}: length {} != {}",
                    label(path),
                    xs.len(),
                    ys.len()
                ));
            }
            for (i, (x, y)) in xs.iter().zip(ys.iter()).enumerate() {
                diff_content(x, y, &format!("{path}[{i}]"), out);
            }
        }
        (Content::Map(xs), Content::Map(ys)) => {
            fn lookup(entries: &[(String, Content)]) -> Vec<(&str, &Content)> {
                let mut m: Vec<(&str, &Content)> =
                    entries.iter().map(|(k, v)| (k.as_str(), v)).collect();
                m.sort_by_key(|(k, _)| *k);
                m
            }
            let (xs, ys) = (lookup(xs), lookup(ys));
            let (mut i, mut j) = (0, 0);
            while i < xs.len() || j < ys.len() {
                match (xs.get(i), ys.get(j)) {
                    (Some((kx, vx)), Some((ky, vy))) if kx == ky => {
                        let sub = if path.is_empty() {
                            (*kx).to_string()
                        } else {
                            format!("{path}.{kx}")
                        };
                        diff_content(vx, vy, &sub, out);
                        i += 1;
                        j += 1;
                    }
                    (Some((kx, _)), Some((ky, _))) if kx < ky => {
                        out.push(format!("{}: key '{kx}' only on the left", label(path)));
                        i += 1;
                    }
                    (Some(_), Some((ky, _))) => {
                        out.push(format!("{}: key '{ky}' only on the right", label(path)));
                        j += 1;
                    }
                    (Some((kx, _)), None) => {
                        out.push(format!("{}: key '{kx}' only on the left", label(path)));
                        i += 1;
                    }
                    (None, Some((ky, _))) => {
                        out.push(format!("{}: key '{ky}' only on the right", label(path)));
                        j += 1;
                    }
                    (None, None) => unreachable!(),
                }
            }
        }
        _ => {
            let (ra, rb) = (compact(a), compact(b));
            if ra != rb {
                out.push(format!("{}: {ra} != {rb}", label(path)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimConfig;

    #[test]
    fn fnv_known_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn map_keys_are_sorted_recursively() {
        let inner = Content::Map(vec![
            ("z".into(), Content::U64(1)),
            ("a".into(), Content::U64(2)),
        ]);
        let outer = Content::Map(vec![
            ("beta".into(), inner.clone()),
            ("alpha".into(), Content::Bool(true)),
        ]);
        assert_eq!(
            canonical_json(&outer),
            r#"{"alpha":true,"beta":{"a":2,"z":1}}"#
        );
    }

    #[test]
    fn field_order_does_not_change_digest() {
        let forward = Content::Map(vec![
            ("size_bytes".into(), Content::U64(2048)),
            ("assoc".into(), Content::U64(4)),
        ]);
        let reversed = Content::Map(vec![
            ("assoc".into(), Content::U64(4)),
            ("size_bytes".into(), Content::U64(2048)),
        ]);
        let (a, b) = (canonical_json(&forward), canonical_json(&reversed));
        assert_eq!(a, b);
        assert_eq!(fnv1a_64(a.as_bytes()), fnv1a_64(b.as_bytes()));
    }

    #[test]
    fn config_digest_is_stable_across_clones_and_runs() {
        let a = canonical_digest(&SimConfig::default());
        let b = canonical_digest(&SimConfig::default().clone());
        assert_eq!(a, b);
    }

    #[test]
    fn config_digest_distinguishes_configs() {
        let base = SimConfig::default();
        let mut bigger = SimConfig::default();
        bigger.icache.size_bytes = 4096;
        assert_ne!(canonical_digest(&base), canonical_digest(&bigger));
    }

    #[test]
    fn floats_render_like_serde_json() {
        let out = canonical_json(&Content::Seq(vec![
            Content::F64(1.0),
            Content::F64(0.47),
            Content::F64(f64::NAN),
        ]));
        assert_eq!(out, "[1.0,0.47,null]");
    }
}
