//! Linked program images and the simulated memory map.

use std::collections::BTreeMap;
use std::fmt;

use crate::{DecodeError, Instr};

/// Base address of the text (code) segment.
pub const TEXT_BASE: u32 = 0x0000_0000;

/// Base address of the default data segment.
pub const DATA_BASE: u32 = 0x0010_0000;

/// Initial stack pointer (grows downward). Chosen to sit near the top of
/// the default 16 MB NVM of the evaluated system.
pub const STACK_TOP: u32 = 0x00FF_FFF0;

/// A contiguous initialised region of memory in a [`Program`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// First byte address of the segment.
    pub base: u32,
    /// Raw contents.
    pub bytes: Vec<u8>,
}

impl Segment {
    /// Address one past the last byte of the segment.
    pub fn end(&self) -> u32 {
        self.base + self.bytes.len() as u32
    }
}

/// A fully linked program: encoded text, initialised data and symbols.
///
/// Produced by [`asm::assemble`](crate::asm::assemble); consumed by the
/// functional [`Interpreter`](crate::Interpreter) and by the cycle-level
/// simulator, both of which copy the image into their memory model via
/// [`Program::segments`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    /// Encoded instructions, placed consecutively from [`TEXT_BASE`].
    pub text: Vec<u32>,
    /// Initialised data segments (non-overlapping, sorted by base).
    pub data: Vec<Segment>,
    /// Label table: symbol name → byte address.
    pub symbols: BTreeMap<String, u32>,
    /// Entry point (defaults to [`TEXT_BASE`]).
    pub entry: u32,
}

impl Program {
    /// Creates an empty program with entry at [`TEXT_BASE`].
    pub fn new() -> Program {
        Program::default()
    }

    /// Number of instructions in the text segment.
    pub fn len(&self) -> usize {
        self.text.len()
    }

    /// `true` if the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    /// Address one past the last text byte.
    pub fn text_end(&self) -> u32 {
        TEXT_BASE + (self.text.len() as u32) * 4
    }

    /// Address one past the highest segment byte: the smallest memory
    /// the program loads into.
    pub fn image_end(&self) -> usize {
        self.data
            .iter()
            .map(|s| s.end() as usize)
            .fold(self.text_end() as usize, usize::max)
    }

    /// Looks up a symbol's address.
    pub fn symbol(&self, name: &str) -> Option<u32> {
        self.symbols.get(name).copied()
    }

    /// Decodes the instruction at byte address `pc`, if it lies in text.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if the word at `pc` is not a valid
    /// instruction. Out-of-text addresses return `Ok(Instr::Halt)` so the
    /// callers treat falling off the end as termination.
    pub fn fetch(&self, pc: u32) -> Result<Instr, DecodeError> {
        if pc >= self.text_end() || !pc.is_multiple_of(4) {
            return Ok(Instr::Halt);
        }
        let idx = ((pc - TEXT_BASE) / 4) as usize;
        Instr::decode(self.text[idx])
    }

    /// All initialised segments, text first, as `(base, bytes)` pairs.
    ///
    /// The text words are serialised little-endian so that the stored
    /// program is bit-faithful to what [`Program::fetch`] decodes.
    pub fn segments(&self) -> Vec<Segment> {
        let mut out = Vec::with_capacity(1 + self.data.len());
        let mut text_bytes = Vec::with_capacity(self.text.len() * 4);
        for w in &self.text {
            text_bytes.extend_from_slice(&w.to_le_bytes());
        }
        out.push(Segment {
            base: TEXT_BASE,
            bytes: text_bytes,
        });
        out.extend(self.data.iter().cloned());
        out
    }

    /// Total initialised footprint in bytes (text + data).
    pub fn footprint(&self) -> usize {
        self.text.len() * 4 + self.data.iter().map(|s| s.bytes.len()).sum::<usize>()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "; entry {:#010x}", self.entry)?;
        for (i, word) in self.text.iter().enumerate() {
            let addr = TEXT_BASE + (i as u32) * 4;
            for (name, a) in &self.symbols {
                if *a == addr {
                    writeln!(f, "{name}:")?;
                }
            }
            match Instr::decode(*word) {
                Ok(instr) => writeln!(f, "  {addr:#010x}: {instr}")?,
                Err(_) => writeln!(f, "  {addr:#010x}: .word {word:#010x}")?,
            }
        }
        for seg in &self.data {
            writeln!(
                f,
                "; data segment {:#010x} ({} bytes)",
                seg.base,
                seg.bytes.len()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Reg;

    fn sample() -> Program {
        let mut p = Program::new();
        p.text = vec![
            Instr::Addi {
                rd: Reg::A0,
                rs1: Reg::Zero,
                imm: 5,
            }
            .encode(),
            Instr::Halt.encode(),
        ];
        p.data.push(Segment {
            base: DATA_BASE,
            bytes: vec![1, 2, 3, 4],
        });
        p.symbols.insert("main".into(), TEXT_BASE);
        p
    }

    #[test]
    fn fetch_in_and_out_of_text() {
        let p = sample();
        assert_eq!(
            p.fetch(TEXT_BASE).unwrap(),
            Instr::Addi {
                rd: Reg::A0,
                rs1: Reg::Zero,
                imm: 5
            }
        );
        assert_eq!(p.fetch(TEXT_BASE + 4).unwrap(), Instr::Halt);
        // Off the end and misaligned fetches halt.
        assert_eq!(p.fetch(p.text_end()).unwrap(), Instr::Halt);
        assert_eq!(p.fetch(TEXT_BASE + 2).unwrap(), Instr::Halt);
    }

    #[test]
    fn segments_round_trip_text() {
        let p = sample();
        let segs = p.segments();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].base, TEXT_BASE);
        let w = u32::from_le_bytes(segs[0].bytes[0..4].try_into().unwrap());
        assert_eq!(w, p.text[0]);
        assert_eq!(segs[1].end(), DATA_BASE + 4);
    }

    #[test]
    fn footprint_counts_text_and_data() {
        assert_eq!(sample().footprint(), 8 + 4);
    }

    #[test]
    fn symbol_lookup() {
        assert_eq!(sample().symbol("main"), Some(TEXT_BASE));
        assert_eq!(sample().symbol("nope"), None);
    }
}
