//! Temporal Instruction Fetch Streaming (Ferdman et al.) — Table 3
//! alternative instruction prefetcher.
//!
//! TIFS logs the instruction-miss stream in an Instruction Miss Log (IML)
//! and indexes the most recent log position of every block. On a miss it
//! locates the previous occurrence of the missing block and replays the
//! blocks that followed it last time, up to the degree. This recaptures
//! arbitrary (non-sequential) recurring fetch streams.

use std::collections::HashMap;

use ehs_mem::block_of;

use crate::{AccessEvent, Prefetcher, Shape, MAX_DEGREE};

/// Temporal-streaming instruction prefetcher.
#[derive(Debug, Clone)]
pub struct TifsPrefetcher {
    degree: u32,
    /// Circular instruction miss log.
    log: Vec<u32>,
    capacity: usize,
    /// Next insertion position (monotonic; wraps modulo capacity).
    head: u64,
    /// Block -> most recent monotonic log position.
    index: HashMap<u32, u64>,
}

impl TifsPrefetcher {
    /// Default miss-log capacity, in entries.
    pub const DEFAULT_LOG_SIZE: usize = 512;

    /// Creates a TIFS prefetcher with the default 512-entry miss log.
    ///
    /// # Panics
    ///
    /// Panics if `degree` is zero or exceeds [`MAX_DEGREE`].
    pub fn new(degree: u32) -> TifsPrefetcher {
        TifsPrefetcher::with_log_size(degree, Self::DEFAULT_LOG_SIZE)
    }

    /// Creates a TIFS prefetcher with a custom log capacity.
    ///
    /// # Panics
    ///
    /// Panics if `degree` is out of range or `log_size` is zero.
    pub fn with_log_size(degree: u32, log_size: usize) -> TifsPrefetcher {
        assert!(
            (1..=MAX_DEGREE).contains(&degree),
            "degree must be 1..={MAX_DEGREE}"
        );
        assert!(log_size > 0, "log size must be positive");
        TifsPrefetcher {
            degree,
            log: vec![0; log_size],
            capacity: log_size,
            head: 0,
            index: HashMap::new(),
        }
    }

    /// The fields construction fixes and no run mutates: a state
    /// restored into a configured prefetcher must match it on each.
    pub(crate) fn shape(&self) -> Shape {
        vec![
            ("degree", self.degree.into()),
            ("capacity", self.capacity as u64),
            ("log length", self.log.len() as u64),
        ]
    }

    fn replay_from(&self, pos: u64, out: &mut Vec<u32>) {
        // Entries after `pos` that are still in the log window.
        for k in 1..=self.degree as u64 {
            let p = pos + k;
            if p >= self.head {
                break;
            }
            out.push(self.log[(p % self.capacity as u64) as usize]);
        }
    }

    fn append(&mut self, block: u32) {
        self.log[(self.head % self.capacity as u64) as usize] = block;
        self.index.insert(block, self.head);
        self.head += 1;
        // Bound the index: drop entries that have aged out of the log to
        // keep the model's state comparable to the bounded hardware table.
        if self.index.len() > 2 * self.capacity {
            let oldest_valid = self.head.saturating_sub(self.capacity as u64);
            self.index.retain(|_, &mut pos| pos >= oldest_valid);
        }
    }
}

// Hand-written (de)serialization: the vendored serde has no HashMap
// support, and a HashMap would serialize in nondeterministic order
// anyway. The index is flattened to a block-sorted sequence of
// `{ "block": .., "pos": .. }` maps so equal prefetcher states always
// produce byte-identical canonical JSON.
impl serde::Serialize for TifsPrefetcher {
    fn to_content(&self) -> serde::Content {
        let mut index: Vec<(u32, u64)> = self.index.iter().map(|(&b, &p)| (b, p)).collect();
        index.sort_unstable();
        serde::Content::Map(vec![
            ("degree".to_string(), self.degree.to_content()),
            ("log".to_string(), self.log.to_content()),
            ("capacity".to_string(), self.capacity.to_content()),
            ("head".to_string(), self.head.to_content()),
            (
                "index".to_string(),
                serde::Content::Seq(
                    index
                        .iter()
                        .map(|&(block, pos)| {
                            serde::Content::Map(vec![
                                ("block".to_string(), block.to_content()),
                                ("pos".to_string(), pos.to_content()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl serde::Deserialize for TifsPrefetcher {
    fn from_content(c: &serde::Content) -> Result<Self, serde::Error> {
        let m = c.as_map().ok_or_else(|| serde::Error::expected("map"))?;
        let mut index = HashMap::new();
        for entry in serde::map_field(m, "index")?
            .as_seq()
            .ok_or_else(|| serde::Error::expected("sequence"))?
        {
            let em = entry
                .as_map()
                .ok_or_else(|| serde::Error::expected("map"))?;
            index.insert(
                u32::from_content(serde::map_field(em, "block")?)?,
                u64::from_content(serde::map_field(em, "pos")?)?,
            );
        }
        Ok(TifsPrefetcher {
            degree: u32::from_content(serde::map_field(m, "degree")?)?,
            log: Vec::from_content(serde::map_field(m, "log")?)?,
            capacity: usize::from_content(serde::map_field(m, "capacity")?)?,
            head: u64::from_content(serde::map_field(m, "head")?)?,
            index,
        })
    }
}

impl Prefetcher for TifsPrefetcher {
    fn name(&self) -> &'static str {
        "tifs"
    }

    fn max_degree(&self) -> u32 {
        self.degree
    }

    fn observe(&mut self, event: &AccessEvent, out: &mut Vec<u32>) {
        if !event.outcome.is_miss_like() {
            return;
        }
        let block = block_of(event.addr);
        let oldest_valid = self.head.saturating_sub(self.capacity as u64);
        if let Some(&pos) = self.index.get(&block) {
            if pos >= oldest_valid {
                self.replay_from(pos, out);
            }
        }
        self.append(block);
    }

    fn power_loss(&mut self) {
        self.head = 0;
        self.index.clear();
        self.log.iter_mut().for_each(|b| *b = 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AccessOutcome;

    fn miss(addr: u32) -> AccessEvent {
        AccessEvent::fetch(addr, AccessOutcome::Miss)
    }

    #[test]
    fn replays_recorded_stream() {
        let mut p = TifsPrefetcher::new(3);
        let mut out = Vec::new();
        for a in [0x100u32, 0x480, 0x220, 0x900] {
            p.observe(&miss(a), &mut out);
        }
        assert!(out.is_empty(), "first pass has no history");
        p.observe(&miss(0x100), &mut out);
        assert_eq!(out, vec![0x480, 0x220, 0x900]);
    }

    #[test]
    fn replay_limited_by_degree() {
        let mut p = TifsPrefetcher::new(1);
        let mut out = Vec::new();
        for a in [0x100u32, 0x480, 0x220] {
            p.observe(&miss(a), &mut out);
        }
        p.observe(&miss(0x100), &mut out);
        assert_eq!(out, vec![0x480]);
    }

    #[test]
    fn replay_stops_at_log_head() {
        let mut p = TifsPrefetcher::new(4);
        let mut out = Vec::new();
        p.observe(&miss(0x100), &mut out);
        p.observe(&miss(0x480), &mut out);
        // Only one successor exists so far.
        p.observe(&miss(0x100), &mut out);
        assert_eq!(out, vec![0x480]);
    }

    #[test]
    fn aged_out_positions_ignored() {
        let mut p = TifsPrefetcher::with_log_size(2, 4);
        let mut out = Vec::new();
        p.observe(&miss(0x100), &mut out);
        // Push the log far past 0x100's position.
        for i in 1..=6u32 {
            p.observe(&miss(0x1000 + i * 0x10), &mut out);
        }
        out.clear();
        p.observe(&miss(0x100), &mut out);
        assert!(out.is_empty(), "position fell out of the 4-entry window");
    }

    #[test]
    fn power_loss_clears_log() {
        let mut p = TifsPrefetcher::new(2);
        let mut out = Vec::new();
        p.observe(&miss(0x100), &mut out);
        p.observe(&miss(0x480), &mut out);
        p.power_loss();
        p.observe(&miss(0x100), &mut out);
        assert!(out.is_empty());
    }
}
