//! Access Map Pattern Matching prefetcher (Ishii, Inaba & Hiraki) —
//! described in the paper's §8.1 as a compact alternative to
//! history-table prefetchers.
//!
//! Memory is partitioned into fixed-size zones; each zone keeps a bitmap
//! of the blocks accessed recently. On a miss-like access to block `b`
//! of a zone, the prefetcher checks, for each candidate offset `d`,
//! whether the pattern "both `b−d` and `b−2d` were accessed" holds — if
//! so, `b+d` is likely next and is emitted, up to the degree.

use ehs_mem::{block_of, BLOCK_SIZE};
use serde::{Deserialize, Serialize};

use crate::{AccessEvent, Prefetcher, Shape, MAX_DEGREE};

/// Blocks per zone (zone size = 64 × 16 B = 1 kB).
const ZONE_BLOCKS: u32 = 64;

/// Offsets (in blocks) tested for pattern matches, nearest first.
const OFFSETS: [i32; 6] = [1, -1, 2, -2, 3, -3];

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
struct Zone {
    tag: u32,
    map: u64,
    valid: bool,
}

/// Bitmap-based pattern-matching prefetcher.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AmpmPrefetcher {
    degree: u32,
    zones: Vec<Zone>,
    index_mask: u32,
}

impl AmpmPrefetcher {
    /// Default number of tracked zones.
    pub const DEFAULT_ZONES: usize = 16;

    /// Creates an AMPM prefetcher with the default 16-zone table.
    ///
    /// # Panics
    ///
    /// Panics if `degree` is zero or exceeds [`MAX_DEGREE`].
    pub fn new(degree: u32) -> AmpmPrefetcher {
        AmpmPrefetcher::with_zones(degree, Self::DEFAULT_ZONES)
    }

    /// Creates an AMPM prefetcher with a custom power-of-two zone count.
    ///
    /// # Panics
    ///
    /// Panics if `degree` is out of range or `zones` is not a positive
    /// power of two.
    pub fn with_zones(degree: u32, zones: usize) -> AmpmPrefetcher {
        assert!(
            (1..=MAX_DEGREE).contains(&degree),
            "degree must be 1..={MAX_DEGREE}"
        );
        assert!(zones.is_power_of_two(), "zone count must be a power of two");
        AmpmPrefetcher {
            degree,
            zones: vec![Zone::default(); zones],
            index_mask: zones as u32 - 1,
        }
    }

    /// Splits an address into `(zone_tag, block_index_within_zone)`.
    fn locate(addr: u32) -> (u32, u32) {
        let block_no = block_of(addr) / BLOCK_SIZE;
        (block_no / ZONE_BLOCKS, block_no % ZONE_BLOCKS)
    }

    /// The fields construction fixes and no run mutates: a state
    /// restored into a configured prefetcher must match it on each.
    pub(crate) fn shape(&self) -> Shape {
        vec![
            ("degree", self.degree.into()),
            ("index_mask", self.index_mask.into()),
            ("zone count", self.zones.len() as u64),
        ]
    }

    fn zone_mut(&mut self, tag: u32) -> &mut Zone {
        let slot = (tag & self.index_mask) as usize;
        let z = &mut self.zones[slot];
        if !z.valid || z.tag != tag {
            *z = Zone {
                tag,
                map: 0,
                valid: true,
            };
        }
        z
    }

    fn bit(map: u64, idx: i64) -> bool {
        (0..ZONE_BLOCKS as i64).contains(&idx) && map & (1u64 << idx) != 0
    }
}

impl Prefetcher for AmpmPrefetcher {
    fn name(&self) -> &'static str {
        "ampm"
    }

    fn max_degree(&self) -> u32 {
        self.degree
    }

    fn observe(&mut self, event: &AccessEvent, out: &mut Vec<u32>) {
        let (tag, idx) = Self::locate(event.addr);
        let degree = self.degree;
        let zone = self.zone_mut(tag);
        zone.map |= 1u64 << idx;
        if !event.outcome.is_miss_like() {
            return;
        }
        let map = zone.map;
        let base_block = block_of(event.addr);
        let mut emitted = 0;
        for &d in &OFFSETS {
            if emitted == degree {
                break;
            }
            let i = idx as i64;
            // Pattern: b-d and b-2d accessed => b+d likely next.
            if Self::bit(map, i - d as i64)
                && Self::bit(map, i - 2 * d as i64)
                && !Self::bit(map, i + d as i64)
            {
                let target = i + d as i64;
                if (0..ZONE_BLOCKS as i64).contains(&target) {
                    out.push(base_block.wrapping_add((d * BLOCK_SIZE as i32) as u32));
                    emitted += 1;
                }
            }
        }
    }

    fn power_loss(&mut self) {
        self.zones.iter_mut().for_each(|z| *z = Zone::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AccessOutcome;

    fn miss(addr: u32) -> AccessEvent {
        AccessEvent::data(0x40, addr, AccessOutcome::Miss, false)
    }

    #[test]
    fn detects_ascending_unit_pattern() {
        let mut p = AmpmPrefetcher::new(2);
        let mut out = Vec::new();
        // Zone-local blocks 0,1,2: at block 2 the (+1) pattern holds.
        p.observe(&miss(0x8000), &mut out);
        p.observe(&miss(0x8010), &mut out);
        assert!(out.is_empty());
        p.observe(&miss(0x8020), &mut out);
        assert!(out.contains(&0x8030), "{out:?}");
    }

    #[test]
    fn detects_descending_pattern() {
        let mut p = AmpmPrefetcher::new(1);
        let mut out = Vec::new();
        p.observe(&miss(0x8050), &mut out);
        p.observe(&miss(0x8040), &mut out);
        p.observe(&miss(0x8030), &mut out);
        assert_eq!(out, vec![0x8020]);
    }

    #[test]
    fn detects_stride2_pattern() {
        let mut p = AmpmPrefetcher::new(1);
        let mut out = Vec::new();
        p.observe(&miss(0x8000), &mut out);
        p.observe(&miss(0x8020), &mut out);
        p.observe(&miss(0x8040), &mut out);
        assert_eq!(out, vec![0x8060]);
    }

    #[test]
    fn no_prediction_without_history() {
        let mut p = AmpmPrefetcher::new(2);
        let mut out = Vec::new();
        p.observe(&miss(0x8000), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn already_accessed_targets_not_emitted() {
        let mut p = AmpmPrefetcher::new(2);
        let mut out = Vec::new();
        // Access 0,1,2,3 then revisit 2: target 3 is already mapped.
        for a in [0x8000u32, 0x8010, 0x8020, 0x8030] {
            p.observe(&miss(a), &mut out);
        }
        out.clear();
        p.observe(&miss(0x8020), &mut out);
        assert!(!out.contains(&0x8030));
    }

    #[test]
    fn zone_boundaries_respected() {
        let mut p = AmpmPrefetcher::new(1);
        let mut out = Vec::new();
        // Zone is 1 kB: blocks 61,62,63 of zone 0; target 64 crosses out.
        p.observe(&miss(61 * 16), &mut out);
        p.observe(&miss(62 * 16), &mut out);
        p.observe(&miss(63 * 16), &mut out);
        assert!(
            out.is_empty(),
            "must not prefetch across the zone edge: {out:?}"
        );
    }

    #[test]
    fn power_loss_clears_maps() {
        let mut p = AmpmPrefetcher::new(1);
        let mut out = Vec::new();
        for a in [0x8000u32, 0x8010, 0x8020] {
            p.observe(&miss(a), &mut out);
        }
        p.power_loss();
        out.clear();
        p.observe(&miss(0x8030), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn hits_update_map_but_do_not_trigger() {
        let mut p = AmpmPrefetcher::new(1);
        let mut out = Vec::new();
        p.observe(
            &AccessEvent::data(0x40, 0x8000, AccessOutcome::CacheHit, false),
            &mut out,
        );
        p.observe(
            &AccessEvent::data(0x40, 0x8010, AccessOutcome::CacheHit, false),
            &mut out,
        );
        assert!(out.is_empty());
        // But the map they built enables a later miss to match.
        p.observe(&miss(0x8020), &mut out);
        assert_eq!(out, vec![0x8030]);
    }
}
