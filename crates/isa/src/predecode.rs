//! Pre-decoded text segment: decode once, execute many.
//!
//! [`DecodeCache`] holds one pre-decoded slot per word of the text
//! segment, built eagerly when the interpreter is constructed. The hot
//! execute loop then resolves the current instruction with two compares
//! and one indexed load instead of re-running [`Instr::decode`] every
//! step. Each slot also carries the resolved [`ExecClass`], so the
//! timing simulator indexes its latency/energy tables directly.
//!
//! The cache is *derived* state: it never appears in snapshots, and it
//! is kept coherent with memory by re-decoding exactly the words a
//! store or a snapshot restore touches (stores are aligned and at most
//! four bytes wide, so a store never straddles two words). Words that
//! do not decode keep a `None` slot and fault exactly like the
//! decode-from-memory path; program counters outside the covered range
//! (or with the cache disabled) fall back to that path unchanged.

use crate::image::PagedMem;
use crate::{ExecClass, Instr};

/// One pre-decoded instruction slot: the resolved operands plus the
/// execution class the timing tables are indexed by.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PreDecoded {
    pub instr: Instr,
    pub class: ExecClass,
}

/// A dense decode cache over the text segment `[0, limit)`.
#[derive(Debug, Clone)]
pub(crate) struct DecodeCache {
    /// One slot per text word; `None` marks a word that does not decode.
    slots: Vec<Option<PreDecoded>>,
    /// Byte addresses below this are covered. Always a multiple of 4
    /// and at most the memory size.
    limit: u32,
    /// Testing hook: a disabled cache forces every fetch down the
    /// decode-from-memory reference path.
    enabled: bool,
}

impl DecodeCache {
    /// Pre-decodes every word of `mem[0..limit)`.
    pub fn build(mem: &PagedMem, limit: u32) -> DecodeCache {
        let limit = limit.min(mem.len() as u32) & !3;
        let slots = (0..limit / 4).map(|w| decode_at(mem, w * 4)).collect();
        DecodeCache {
            slots,
            limit,
            enabled: true,
        }
    }

    /// The covered slot for `pc`, or `None` when `pc` is uncovered
    /// (outside the range, misaligned, or the cache is disabled) and the
    /// caller must take the decode-from-memory path.
    #[inline]
    pub fn lookup(&self, pc: u32) -> Option<Option<PreDecoded>> {
        if self.enabled && pc < self.limit && pc & 3 == 0 {
            Some(self.slots[(pc >> 2) as usize])
        } else {
            None
        }
    }

    /// Re-decodes the word containing `addr` after a store to it.
    /// Stores are aligned and at most 4 bytes, so exactly one slot can
    /// change. Runs even while disabled, so re-enabling is always sound.
    #[inline]
    pub fn refresh_word(&mut self, mem: &PagedMem, addr: u32) {
        if addr < self.limit {
            let w = addr & !3;
            self.slots[(w >> 2) as usize] = decode_at(mem, w);
        }
    }

    /// Re-decodes every covered word overlapping `[addr, addr + len)`
    /// (snapshot restore writes arbitrary byte ranges).
    pub fn refresh_range(&mut self, mem: &PagedMem, addr: u32, len: usize) {
        if addr >= self.limit || len == 0 {
            return;
        }
        let end = (addr as u64 + len as u64).min(self.limit as u64) as u32;
        let mut w = addr & !3;
        while w < end {
            self.slots[(w >> 2) as usize] = decode_at(mem, w);
            w += 4;
        }
    }

    /// Enables or disables the cache (testing hook; see module docs).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Whether lookups are currently served from the cache.
    pub fn enabled(&self) -> bool {
        self.enabled
    }
}

fn decode_at(mem: &PagedMem, addr: u32) -> Option<PreDecoded> {
    Instr::decode(mem.read_u32(addr as usize))
        .ok()
        .map(|instr| PreDecoded {
            instr,
            class: instr.class(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem_with(words: &[u32]) -> PagedMem {
        let mut mem = PagedMem::new(64);
        for (i, w) in words.iter().enumerate() {
            mem.write(i * 4, &w.to_le_bytes());
        }
        mem
    }

    #[test]
    fn covers_and_classifies_the_text_range() {
        let halt = 0u32; // opcode 0 decodes to halt
        let invalid = 0xffff_ffffu32;
        let mem = mem_with(&[halt, invalid, halt]);
        let c = DecodeCache::build(&mem, 12);
        let s = c.lookup(0).unwrap().unwrap();
        assert_eq!(s.instr, Instr::Halt);
        assert_eq!(s.class, ExecClass::Halt);
        assert!(c.lookup(4).unwrap().is_none(), "invalid word keeps None");
        assert!(c.lookup(12).is_none(), "past the limit is uncovered");
        assert!(c.lookup(2).is_none(), "misaligned is uncovered");
    }

    #[test]
    fn refresh_tracks_stores_and_restores() {
        let mut mem = mem_with(&[0, 0]);
        let mut c = DecodeCache::build(&mem, 8);
        assert!(c.lookup(4).unwrap().is_some());
        mem.write(4, &0xffff_ffffu32.to_le_bytes());
        c.refresh_word(&mem, 5);
        assert!(c.lookup(4).unwrap().is_none(), "store re-decodes the word");
        mem.write(4, &0u32.to_le_bytes());
        c.refresh_range(&mem, 2, 6);
        assert!(c.lookup(4).unwrap().is_some(), "restore re-decodes range");
        c.refresh_word(&mem, 4096); // out of range: no-op, no panic
    }

    #[test]
    fn disabled_cache_serves_nothing_but_stays_coherent() {
        let mem = mem_with(&[0]);
        let mut c = DecodeCache::build(&mem, 4);
        c.set_enabled(false);
        assert!(!c.enabled());
        assert!(c.lookup(0).is_none());
        c.set_enabled(true);
        assert!(c.lookup(0).unwrap().is_some());
    }
}
