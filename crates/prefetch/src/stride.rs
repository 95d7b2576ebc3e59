//! PC-indexed stride prefetcher (Chen & Baer) — the paper's default data
//! prefetcher (Table 1).
//!
//! A small reference-prediction table, indexed by the low bits of the
//! load/store PC, tracks the last address and observed stride per static
//! instruction with the classic init → transient → steady state machine.
//! Once an entry is steady, accesses prefetch `addr + k*stride` for
//! `k = 1..=degree`. Per the paper's Table 1 ("2 initially and up to
//! 4"), a long steady streak doubles the degree up to [`MAX_DEGREE`] —
//! the conventional aggressiveness that IPEX throttles.

use ehs_mem::block_of;
use serde::{Deserialize, Serialize};

use crate::{AccessEvent, Prefetcher, Shape, MAX_DEGREE};

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum State {
    Init,
    Transient,
    Steady,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct Entry {
    tag: u32,
    last_addr: u32,
    stride: i32,
    state: State,
    /// Consecutive steady confirmations (drives the degree ramp).
    steady_count: u32,
}

/// Reference-prediction-table stride prefetcher.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StridePrefetcher {
    degree: u32,
    table: Vec<Option<Entry>>,
    index_mask: u32,
}

impl StridePrefetcher {
    /// Default number of reference-prediction-table entries.
    pub const DEFAULT_TABLE_SIZE: usize = 16;

    /// Creates a stride prefetcher with the default 16-entry table.
    ///
    /// # Panics
    ///
    /// Panics if `degree` is zero or exceeds [`MAX_DEGREE`].
    pub fn new(degree: u32) -> StridePrefetcher {
        StridePrefetcher::with_table_size(degree, Self::DEFAULT_TABLE_SIZE)
    }

    /// Creates a stride prefetcher with a custom power-of-two table size.
    ///
    /// # Panics
    ///
    /// Panics if `degree` is out of range or `table_size` is not a
    /// positive power of two.
    pub fn with_table_size(degree: u32, table_size: usize) -> StridePrefetcher {
        assert!(
            (1..=MAX_DEGREE).contains(&degree),
            "degree must be 1..={MAX_DEGREE}"
        );
        assert!(
            table_size.is_power_of_two(),
            "table size must be a power of two"
        );
        StridePrefetcher {
            degree,
            table: vec![None; table_size],
            index_mask: table_size as u32 - 1,
        }
    }

    #[inline]
    fn slot(&self, pc: u32) -> usize {
        // PCs are 4-byte aligned; drop the low bits before indexing.
        ((pc >> 2) & self.index_mask) as usize
    }

    /// The fields construction fixes and no run mutates: a state
    /// restored into a configured prefetcher must match it on each.
    pub(crate) fn shape(&self) -> Shape {
        vec![
            ("degree", self.degree.into()),
            ("index_mask", self.index_mask.into()),
            ("table length", self.table.len() as u64),
        ]
    }
}

impl Prefetcher for StridePrefetcher {
    fn name(&self) -> &'static str {
        "stride"
    }

    fn max_degree(&self) -> u32 {
        (self.degree * 2).min(MAX_DEGREE).min(3)
    }

    fn observe(&mut self, event: &AccessEvent, out: &mut Vec<u32>) {
        let slot = self.slot(event.pc);
        let entry = &mut self.table[slot];
        match entry {
            Some(e) if e.tag == event.pc => {
                let new_stride = event.addr.wrapping_sub(e.last_addr) as i32;
                match e.state {
                    State::Init => {
                        e.stride = new_stride;
                        e.state = State::Transient;
                    }
                    State::Transient | State::Steady => {
                        if new_stride == e.stride && new_stride != 0 {
                            e.state = State::Steady;
                            e.steady_count = e.steady_count.saturating_add(1);
                        } else {
                            e.stride = new_stride;
                            e.state = State::Transient;
                            e.steady_count = 0;
                        }
                    }
                }
                e.last_addr = event.addr;
                if e.state == State::Steady {
                    // Conventional confidence ramp: raise the degree on a
                    // long steady streak, but stay below the 4-entry
                    // prefetch-buffer capacity so a single burst cannot
                    // evict its own pending prefetches.
                    let degree = if e.steady_count >= 4 {
                        (self.degree * 2).min(MAX_DEGREE).min(3)
                    } else {
                        self.degree
                    };
                    let stride = e.stride;
                    let mut prev = block_of(event.addr);
                    let mut addr = event.addr;
                    for _ in 0..degree {
                        addr = addr.wrapping_add(stride as u32);
                        let blk = block_of(addr);
                        // Small strides land in the same block repeatedly;
                        // only emit distinct blocks.
                        if blk != prev {
                            out.push(blk);
                            prev = blk;
                        }
                    }
                }
            }
            _ => {
                // Allocate (replacing any alias).
                *entry = Some(Entry {
                    tag: event.pc,
                    last_addr: event.addr,
                    stride: 0,
                    state: State::Init,
                    steady_count: 0,
                });
            }
        }
    }

    fn power_loss(&mut self) {
        self.table.iter_mut().for_each(|e| *e = None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AccessOutcome;

    fn ev(pc: u32, addr: u32) -> AccessEvent {
        AccessEvent::data(pc, addr, AccessOutcome::Miss, false)
    }

    #[test]
    fn learns_constant_stride() {
        let mut p = StridePrefetcher::new(2);
        let mut out = Vec::new();
        // Stride of 16 from PC 0x40: A, A+16, A+32 -> steady on 3rd access.
        p.observe(&ev(0x40, 0x1000), &mut out);
        p.observe(&ev(0x40, 0x1010), &mut out);
        assert!(out.is_empty(), "not steady yet");
        p.observe(&ev(0x40, 0x1020), &mut out);
        assert_eq!(out, vec![0x1030, 0x1040]);
    }

    #[test]
    fn sub_block_strides_dedupe_blocks() {
        let mut p = StridePrefetcher::new(4);
        let mut out = Vec::new();
        // Stride 4: degree 4 covers addr+4..addr+16 — only one new block.
        p.observe(&ev(0x40, 0x1000), &mut out);
        p.observe(&ev(0x40, 0x1004), &mut out);
        p.observe(&ev(0x40, 0x1008), &mut out);
        assert_eq!(out, vec![0x1010]);
    }

    #[test]
    fn negative_stride_supported() {
        let mut p = StridePrefetcher::new(1);
        let mut out = Vec::new();
        p.observe(&ev(0x40, 0x2000), &mut out);
        p.observe(&ev(0x40, 0x1ff0), &mut out);
        p.observe(&ev(0x40, 0x1fe0), &mut out);
        assert_eq!(out, vec![0x1fd0]);
    }

    #[test]
    fn stride_change_resets_to_transient() {
        let mut p = StridePrefetcher::new(1);
        let mut out = Vec::new();
        p.observe(&ev(0x40, 0x1000), &mut out);
        p.observe(&ev(0x40, 0x1010), &mut out);
        p.observe(&ev(0x40, 0x1020), &mut out); // steady
        out.clear();
        p.observe(&ev(0x40, 0x5000), &mut out); // wild jump
        assert!(out.is_empty());
        p.observe(&ev(0x40, 0x5010), &mut out); // new stride observed once
        assert!(out.is_empty(), "one observation is not enough");
        p.observe(&ev(0x40, 0x5020), &mut out); // stride confirmed
        assert_eq!(out, vec![0x5030]);
    }

    #[test]
    fn different_pcs_use_different_entries() {
        let mut p = StridePrefetcher::new(1);
        let mut out = Vec::new();
        for i in 0..3 {
            p.observe(&ev(0x40, 0x1000 + i * 0x10), &mut out);
            p.observe(&ev(0x44, 0x8000 + i * 0x20), &mut out);
        }
        assert_eq!(out, vec![0x1030, 0x8060]);
    }

    #[test]
    fn power_loss_forgets_streams() {
        let mut p = StridePrefetcher::new(1);
        let mut out = Vec::new();
        p.observe(&ev(0x40, 0x1000), &mut out);
        p.observe(&ev(0x40, 0x1010), &mut out);
        p.observe(&ev(0x40, 0x1020), &mut out);
        assert_eq!(out.len(), 1);
        p.power_loss();
        out.clear();
        p.observe(&ev(0x40, 0x1030), &mut out);
        assert!(out.is_empty(), "table wiped; must relearn");
    }

    #[test]
    fn zero_stride_never_steady() {
        let mut p = StridePrefetcher::new(2);
        let mut out = Vec::new();
        for _ in 0..5 {
            p.observe(&ev(0x40, 0x1000), &mut out);
        }
        assert!(out.is_empty());
    }
}
