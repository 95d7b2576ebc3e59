//! Decoded instructions and their binary encoding.
//!
//! Every instruction occupies one 32-bit word. The encoding uses a 6-bit
//! opcode in bits `[31:26]` and one of four layouts below it:
//!
//! | format | fields |
//! |--------|--------|
//! | R      | `rd [25:22]`, `rs1 [21:18]`, `rs2 [17:14]` |
//! | I / S  | `rd/rs2 [25:22]`, `rs1 [21:18]`, `imm18 [17:0]` (signed) |
//! | B      | `rs1 [25:22]`, `rs2 [21:18]`, `imm18 [17:0]` (signed, bytes, PC-relative) |
//! | J / U  | `rd [25:22]`, `imm22 [21:0]` (signed; `lui` shifts it left by 14) |
//!
//! A full-zero word decodes to [`Instr::Halt`], so execution that strays
//! into zero-initialised memory stops deterministically.

use std::fmt;

use crate::Reg;

/// Width of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemWidth {
    /// 1 byte.
    Byte,
    /// 2 bytes.
    Half,
    /// 4 bytes.
    Word,
}

impl MemWidth {
    /// Size of the access in bytes.
    #[inline]
    pub fn bytes(self) -> u32 {
        match self {
            MemWidth::Byte => 1,
            MemWidth::Half => 2,
            MemWidth::Word => 4,
        }
    }
}

/// Broad execution class of an instruction; the timing simulator assigns
/// latency and dynamic energy per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ExecClass {
    /// Single-cycle integer ALU operation.
    Alu,
    /// Multi-cycle multiply.
    Mul,
    /// Multi-cycle divide/remainder.
    Div,
    /// Memory load (goes through the DCache).
    Load,
    /// Memory store (goes through the DCache).
    Store,
    /// Conditional branch.
    Branch,
    /// Unconditional jump (`jal`/`jalr`).
    Jump,
    /// Program termination.
    Halt,
}

impl ExecClass {
    /// Number of execution classes (for per-class lookup tables).
    pub const COUNT: usize = 8;

    /// Dense index of this class, `0..Self::COUNT` — the timing
    /// simulator's pre-computed latency/energy tables are indexed by it.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// A decoded EHS-RV instruction.
///
/// See the `instr` module documentation for the binary layout. Arithmetic
/// is two's-complement and wrapping; shifts use the low 5 bits of the
/// shift amount; `div`/`rem` follow the RISC-V convention for division by
/// zero (quotient −1, remainder = dividend) instead of trapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// `rd = rs1 + rs2` (wrapping).
    Add { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 - rs2` (wrapping).
    Sub { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 & rs2`.
    And { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 | rs2`.
    Or { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 ^ rs2`.
    Xor { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 << (rs2 & 31)`.
    Sll { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 >> (rs2 & 31)` (logical).
    Srl { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 >> (rs2 & 31)` (arithmetic).
    Sra { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = (rs1 as i32) < (rs2 as i32)`.
    Slt { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 < rs2` (unsigned).
    Sltu { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 * rs2` (wrapping, low 32 bits).
    Mul { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 / rs2` (signed; x/0 = −1).
    Div { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 % rs2` (signed; x%0 = x).
    Rem { rd: Reg, rs1: Reg, rs2: Reg },

    /// `rd = rs1 + imm` (wrapping).
    Addi { rd: Reg, rs1: Reg, imm: i32 },
    /// `rd = rs1 & imm`.
    Andi { rd: Reg, rs1: Reg, imm: i32 },
    /// `rd = rs1 | imm`.
    Ori { rd: Reg, rs1: Reg, imm: i32 },
    /// `rd = rs1 ^ imm`.
    Xori { rd: Reg, rs1: Reg, imm: i32 },
    /// `rd = (rs1 as i32) < imm`.
    Slti { rd: Reg, rs1: Reg, imm: i32 },
    /// `rd = rs1 << (imm & 31)`.
    Slli { rd: Reg, rs1: Reg, imm: i32 },
    /// `rd = rs1 >> (imm & 31)` (logical).
    Srli { rd: Reg, rs1: Reg, imm: i32 },
    /// `rd = rs1 >> (imm & 31)` (arithmetic).
    Srai { rd: Reg, rs1: Reg, imm: i32 },
    /// `rd = imm << 14` (load upper immediate).
    Lui { rd: Reg, imm: i32 },

    /// `rd = mem[rs1 + offset]`, optionally sign-extended for sub-word widths.
    Load {
        rd: Reg,
        base: Reg,
        offset: i32,
        width: MemWidth,
        signed: bool,
    },
    /// `mem[rs1 + offset] = src` (low `width` bytes).
    Store {
        src: Reg,
        base: Reg,
        offset: i32,
        width: MemWidth,
    },

    /// Branch to `pc + offset` if `rs1 == rs2`.
    Beq { rs1: Reg, rs2: Reg, offset: i32 },
    /// Branch to `pc + offset` if `rs1 != rs2`.
    Bne { rs1: Reg, rs2: Reg, offset: i32 },
    /// Branch to `pc + offset` if `rs1 < rs2` (signed).
    Blt { rs1: Reg, rs2: Reg, offset: i32 },
    /// Branch to `pc + offset` if `rs1 >= rs2` (signed).
    Bge { rs1: Reg, rs2: Reg, offset: i32 },
    /// Branch to `pc + offset` if `rs1 < rs2` (unsigned).
    Bltu { rs1: Reg, rs2: Reg, offset: i32 },
    /// Branch to `pc + offset` if `rs1 >= rs2` (unsigned).
    Bgeu { rs1: Reg, rs2: Reg, offset: i32 },

    /// `rd = pc + 4; pc += offset`.
    Jal { rd: Reg, offset: i32 },
    /// `rd = pc + 4; pc = rs1 + offset`.
    Jalr { rd: Reg, base: Reg, offset: i32 },

    /// Stop the program.
    Halt,
}

/// Error produced when a word does not decode to a valid instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// The offending word.
    pub word: u32,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid instruction word {:#010x}", self.word)
    }
}

impl std::error::Error for DecodeError {}

const IMM18_MIN: i32 = -(1 << 17);
const IMM18_MAX: i32 = (1 << 17) - 1;
const IMM22_MIN: i32 = -(1 << 21);
const IMM22_MAX: i32 = (1 << 21) - 1;

/// Range of the 18-bit signed immediate used by I/S/B formats.
pub const fn imm18_range() -> (i32, i32) {
    (IMM18_MIN, IMM18_MAX)
}

/// Range of the 22-bit signed immediate used by J/U formats.
pub const fn imm22_range() -> (i32, i32) {
    (IMM22_MIN, IMM22_MAX)
}

// Opcode numbers. Kept dense so decode is a simple match.
mod op {
    pub const HALT: u32 = 0;
    pub const ADD: u32 = 1;
    pub const SUB: u32 = 2;
    pub const AND: u32 = 3;
    pub const OR: u32 = 4;
    pub const XOR: u32 = 5;
    pub const SLL: u32 = 6;
    pub const SRL: u32 = 7;
    pub const SRA: u32 = 8;
    pub const SLT: u32 = 9;
    pub const SLTU: u32 = 10;
    pub const MUL: u32 = 11;
    pub const DIV: u32 = 12;
    pub const REM: u32 = 13;
    pub const ADDI: u32 = 14;
    pub const ANDI: u32 = 15;
    pub const ORI: u32 = 16;
    pub const XORI: u32 = 17;
    pub const SLTI: u32 = 18;
    pub const SLLI: u32 = 19;
    pub const SRLI: u32 = 20;
    pub const SRAI: u32 = 21;
    pub const LUI: u32 = 22;
    pub const LW: u32 = 23;
    pub const LH: u32 = 24;
    pub const LHU: u32 = 25;
    pub const LB: u32 = 26;
    pub const LBU: u32 = 27;
    pub const SW: u32 = 28;
    pub const SH: u32 = 29;
    pub const SB: u32 = 30;
    pub const BEQ: u32 = 31;
    pub const BNE: u32 = 32;
    pub const BLT: u32 = 33;
    pub const BGE: u32 = 34;
    pub const BLTU: u32 = 35;
    pub const BGEU: u32 = 36;
    pub const JAL: u32 = 37;
    pub const JALR: u32 = 38;
}

#[inline]
fn sext(value: u32, bits: u32) -> i32 {
    let shift = 32 - bits;
    ((value << shift) as i32) >> shift
}

#[inline]
fn field_reg(word: u32, lo: u32) -> Reg {
    // A 4-bit field always names a valid register.
    Reg::from_index(((word >> lo) & 0xf) as usize).expect("4-bit register field")
}

fn enc_r(opcode: u32, rd: Reg, rs1: Reg, rs2: Reg) -> u32 {
    (opcode << 26)
        | ((rd.index() as u32) << 22)
        | ((rs1.index() as u32) << 18)
        | ((rs2.index() as u32) << 14)
}

fn enc_i(opcode: u32, rd: Reg, rs1: Reg, imm: i32) -> u32 {
    debug_assert!(
        (IMM18_MIN..=IMM18_MAX).contains(&imm),
        "imm18 out of range: {imm}"
    );
    (opcode << 26)
        | ((rd.index() as u32) << 22)
        | ((rs1.index() as u32) << 18)
        | ((imm as u32) & 0x3ffff)
}

fn enc_j(opcode: u32, rd: Reg, imm: i32) -> u32 {
    debug_assert!(
        (IMM22_MIN..=IMM22_MAX).contains(&imm),
        "imm22 out of range: {imm}"
    );
    (opcode << 26) | ((rd.index() as u32) << 22) | ((imm as u32) & 0x3f_ffff)
}

impl Instr {
    /// A canonical no-op (`addi zero, zero, 0`).
    pub const NOP: Instr = Instr::Addi {
        rd: Reg::Zero,
        rs1: Reg::Zero,
        imm: 0,
    };

    /// Encodes the instruction into its 32-bit word.
    ///
    /// # Panics
    ///
    /// Debug builds assert that immediates fit their field; the assembler
    /// validates ranges before constructing instructions.
    pub fn encode(self) -> u32 {
        use Instr::*;
        match self {
            Add { rd, rs1, rs2 } => enc_r(op::ADD, rd, rs1, rs2),
            Sub { rd, rs1, rs2 } => enc_r(op::SUB, rd, rs1, rs2),
            And { rd, rs1, rs2 } => enc_r(op::AND, rd, rs1, rs2),
            Or { rd, rs1, rs2 } => enc_r(op::OR, rd, rs1, rs2),
            Xor { rd, rs1, rs2 } => enc_r(op::XOR, rd, rs1, rs2),
            Sll { rd, rs1, rs2 } => enc_r(op::SLL, rd, rs1, rs2),
            Srl { rd, rs1, rs2 } => enc_r(op::SRL, rd, rs1, rs2),
            Sra { rd, rs1, rs2 } => enc_r(op::SRA, rd, rs1, rs2),
            Slt { rd, rs1, rs2 } => enc_r(op::SLT, rd, rs1, rs2),
            Sltu { rd, rs1, rs2 } => enc_r(op::SLTU, rd, rs1, rs2),
            Mul { rd, rs1, rs2 } => enc_r(op::MUL, rd, rs1, rs2),
            Div { rd, rs1, rs2 } => enc_r(op::DIV, rd, rs1, rs2),
            Rem { rd, rs1, rs2 } => enc_r(op::REM, rd, rs1, rs2),
            Addi { rd, rs1, imm } => enc_i(op::ADDI, rd, rs1, imm),
            Andi { rd, rs1, imm } => enc_i(op::ANDI, rd, rs1, imm),
            Ori { rd, rs1, imm } => enc_i(op::ORI, rd, rs1, imm),
            Xori { rd, rs1, imm } => enc_i(op::XORI, rd, rs1, imm),
            Slti { rd, rs1, imm } => enc_i(op::SLTI, rd, rs1, imm),
            Slli { rd, rs1, imm } => enc_i(op::SLLI, rd, rs1, imm),
            Srli { rd, rs1, imm } => enc_i(op::SRLI, rd, rs1, imm),
            Srai { rd, rs1, imm } => enc_i(op::SRAI, rd, rs1, imm),
            Lui { rd, imm } => enc_j(op::LUI, rd, imm),
            Load {
                rd,
                base,
                offset,
                width,
                signed,
            } => {
                let opcode = match (width, signed) {
                    (MemWidth::Word, _) => op::LW,
                    (MemWidth::Half, true) => op::LH,
                    (MemWidth::Half, false) => op::LHU,
                    (MemWidth::Byte, true) => op::LB,
                    (MemWidth::Byte, false) => op::LBU,
                };
                enc_i(opcode, rd, base, offset)
            }
            Store {
                src,
                base,
                offset,
                width,
            } => {
                let opcode = match width {
                    MemWidth::Word => op::SW,
                    MemWidth::Half => op::SH,
                    MemWidth::Byte => op::SB,
                };
                enc_i(opcode, src, base, offset)
            }
            Beq { rs1, rs2, offset } => enc_i(op::BEQ, rs1, rs2, offset),
            Bne { rs1, rs2, offset } => enc_i(op::BNE, rs1, rs2, offset),
            Blt { rs1, rs2, offset } => enc_i(op::BLT, rs1, rs2, offset),
            Bge { rs1, rs2, offset } => enc_i(op::BGE, rs1, rs2, offset),
            Bltu { rs1, rs2, offset } => enc_i(op::BLTU, rs1, rs2, offset),
            Bgeu { rs1, rs2, offset } => enc_i(op::BGEU, rs1, rs2, offset),
            Jal { rd, offset } => enc_j(op::JAL, rd, offset),
            Jalr { rd, base, offset } => enc_i(op::JALR, rd, base, offset),
            Halt => 0,
        }
    }

    /// Decodes a 32-bit word.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if the opcode field is not a defined opcode.
    pub fn decode(word: u32) -> Result<Instr, DecodeError> {
        use Instr::*;
        let opcode = word >> 26;
        let rd = field_reg(word, 22);
        let rs1 = field_reg(word, 18);
        let rs2 = field_reg(word, 14);
        let imm18 = sext(word & 0x3ffff, 18);
        let imm22 = sext(word & 0x3f_ffff, 22);
        let instr = match opcode {
            op::HALT => Halt,
            op::ADD => Add { rd, rs1, rs2 },
            op::SUB => Sub { rd, rs1, rs2 },
            op::AND => And { rd, rs1, rs2 },
            op::OR => Or { rd, rs1, rs2 },
            op::XOR => Xor { rd, rs1, rs2 },
            op::SLL => Sll { rd, rs1, rs2 },
            op::SRL => Srl { rd, rs1, rs2 },
            op::SRA => Sra { rd, rs1, rs2 },
            op::SLT => Slt { rd, rs1, rs2 },
            op::SLTU => Sltu { rd, rs1, rs2 },
            op::MUL => Mul { rd, rs1, rs2 },
            op::DIV => Div { rd, rs1, rs2 },
            op::REM => Rem { rd, rs1, rs2 },
            op::ADDI => Addi {
                rd,
                rs1,
                imm: imm18,
            },
            op::ANDI => Andi {
                rd,
                rs1,
                imm: imm18,
            },
            op::ORI => Ori {
                rd,
                rs1,
                imm: imm18,
            },
            op::XORI => Xori {
                rd,
                rs1,
                imm: imm18,
            },
            op::SLTI => Slti {
                rd,
                rs1,
                imm: imm18,
            },
            op::SLLI => Slli {
                rd,
                rs1,
                imm: imm18,
            },
            op::SRLI => Srli {
                rd,
                rs1,
                imm: imm18,
            },
            op::SRAI => Srai {
                rd,
                rs1,
                imm: imm18,
            },
            op::LUI => Lui { rd, imm: imm22 },
            op::LW => Load {
                rd,
                base: rs1,
                offset: imm18,
                width: MemWidth::Word,
                signed: false,
            },
            op::LH => Load {
                rd,
                base: rs1,
                offset: imm18,
                width: MemWidth::Half,
                signed: true,
            },
            op::LHU => Load {
                rd,
                base: rs1,
                offset: imm18,
                width: MemWidth::Half,
                signed: false,
            },
            op::LB => Load {
                rd,
                base: rs1,
                offset: imm18,
                width: MemWidth::Byte,
                signed: true,
            },
            op::LBU => Load {
                rd,
                base: rs1,
                offset: imm18,
                width: MemWidth::Byte,
                signed: false,
            },
            op::SW => Store {
                src: rd,
                base: rs1,
                offset: imm18,
                width: MemWidth::Word,
            },
            op::SH => Store {
                src: rd,
                base: rs1,
                offset: imm18,
                width: MemWidth::Half,
            },
            op::SB => Store {
                src: rd,
                base: rs1,
                offset: imm18,
                width: MemWidth::Byte,
            },
            op::BEQ => Beq {
                rs1: rd,
                rs2: rs1,
                offset: imm18,
            },
            op::BNE => Bne {
                rs1: rd,
                rs2: rs1,
                offset: imm18,
            },
            op::BLT => Blt {
                rs1: rd,
                rs2: rs1,
                offset: imm18,
            },
            op::BGE => Bge {
                rs1: rd,
                rs2: rs1,
                offset: imm18,
            },
            op::BLTU => Bltu {
                rs1: rd,
                rs2: rs1,
                offset: imm18,
            },
            op::BGEU => Bgeu {
                rs1: rd,
                rs2: rs1,
                offset: imm18,
            },
            op::JAL => Jal { rd, offset: imm22 },
            op::JALR => Jalr {
                rd,
                base: rs1,
                offset: imm18,
            },
            _ => return Err(DecodeError { word }),
        };
        Ok(instr)
    }

    /// The instruction's execution class, used for latency/energy tables.
    pub fn class(self) -> ExecClass {
        use Instr::*;
        match self {
            Mul { .. } => ExecClass::Mul,
            Div { .. } | Rem { .. } => ExecClass::Div,
            Load { .. } => ExecClass::Load,
            Store { .. } => ExecClass::Store,
            Beq { .. } | Bne { .. } | Blt { .. } | Bge { .. } | Bltu { .. } | Bgeu { .. } => {
                ExecClass::Branch
            }
            Jal { .. } | Jalr { .. } => ExecClass::Jump,
            Halt => ExecClass::Halt,
            _ => ExecClass::Alu,
        }
    }

    /// `true` for loads.
    pub fn is_load(self) -> bool {
        matches!(self, Instr::Load { .. })
    }

    /// `true` for stores.
    pub fn is_store(self) -> bool {
        matches!(self, Instr::Store { .. })
    }

    /// `true` for any instruction that accesses data memory.
    pub fn is_mem(self) -> bool {
        self.is_load() || self.is_store()
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Instr::*;
        match *self {
            Add { rd, rs1, rs2 } => write!(f, "add {rd}, {rs1}, {rs2}"),
            Sub { rd, rs1, rs2 } => write!(f, "sub {rd}, {rs1}, {rs2}"),
            And { rd, rs1, rs2 } => write!(f, "and {rd}, {rs1}, {rs2}"),
            Or { rd, rs1, rs2 } => write!(f, "or {rd}, {rs1}, {rs2}"),
            Xor { rd, rs1, rs2 } => write!(f, "xor {rd}, {rs1}, {rs2}"),
            Sll { rd, rs1, rs2 } => write!(f, "sll {rd}, {rs1}, {rs2}"),
            Srl { rd, rs1, rs2 } => write!(f, "srl {rd}, {rs1}, {rs2}"),
            Sra { rd, rs1, rs2 } => write!(f, "sra {rd}, {rs1}, {rs2}"),
            Slt { rd, rs1, rs2 } => write!(f, "slt {rd}, {rs1}, {rs2}"),
            Sltu { rd, rs1, rs2 } => write!(f, "sltu {rd}, {rs1}, {rs2}"),
            Mul { rd, rs1, rs2 } => write!(f, "mul {rd}, {rs1}, {rs2}"),
            Div { rd, rs1, rs2 } => write!(f, "div {rd}, {rs1}, {rs2}"),
            Rem { rd, rs1, rs2 } => write!(f, "rem {rd}, {rs1}, {rs2}"),
            Addi { rd, rs1, imm } => write!(f, "addi {rd}, {rs1}, {imm}"),
            Andi { rd, rs1, imm } => write!(f, "andi {rd}, {rs1}, {imm}"),
            Ori { rd, rs1, imm } => write!(f, "ori {rd}, {rs1}, {imm}"),
            Xori { rd, rs1, imm } => write!(f, "xori {rd}, {rs1}, {imm}"),
            Slti { rd, rs1, imm } => write!(f, "slti {rd}, {rs1}, {imm}"),
            Slli { rd, rs1, imm } => write!(f, "slli {rd}, {rs1}, {imm}"),
            Srli { rd, rs1, imm } => write!(f, "srli {rd}, {rs1}, {imm}"),
            Srai { rd, rs1, imm } => write!(f, "srai {rd}, {rs1}, {imm}"),
            Lui { rd, imm } => write!(f, "lui {rd}, {imm}"),
            Load {
                rd,
                base,
                offset,
                width,
                signed,
            } => {
                let mnem = match (width, signed) {
                    (MemWidth::Word, _) => "lw",
                    (MemWidth::Half, true) => "lh",
                    (MemWidth::Half, false) => "lhu",
                    (MemWidth::Byte, true) => "lb",
                    (MemWidth::Byte, false) => "lbu",
                };
                write!(f, "{mnem} {rd}, {offset}({base})")
            }
            Store {
                src,
                base,
                offset,
                width,
            } => {
                let mnem = match width {
                    MemWidth::Word => "sw",
                    MemWidth::Half => "sh",
                    MemWidth::Byte => "sb",
                };
                write!(f, "{mnem} {src}, {offset}({base})")
            }
            Beq { rs1, rs2, offset } => write!(f, "beq {rs1}, {rs2}, {offset}"),
            Bne { rs1, rs2, offset } => write!(f, "bne {rs1}, {rs2}, {offset}"),
            Blt { rs1, rs2, offset } => write!(f, "blt {rs1}, {rs2}, {offset}"),
            Bge { rs1, rs2, offset } => write!(f, "bge {rs1}, {rs2}, {offset}"),
            Bltu { rs1, rs2, offset } => write!(f, "bltu {rs1}, {rs2}, {offset}"),
            Bgeu { rs1, rs2, offset } => write!(f, "bgeu {rs1}, {rs2}, {offset}"),
            Jal { rd, offset } => write!(f, "jal {rd}, {offset}"),
            Jalr { rd, base, offset } => write!(f, "jalr {rd}, {offset}({base})"),
            Halt => write!(f, "halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_word_is_halt() {
        assert_eq!(Instr::decode(0), Ok(Instr::Halt));
        assert_eq!(Instr::Halt.encode(), 0);
    }

    #[test]
    fn encode_decode_r_type() {
        let i = Instr::Add {
            rd: Reg::A0,
            rs1: Reg::T1,
            rs2: Reg::S3,
        };
        assert_eq!(Instr::decode(i.encode()), Ok(i));
    }

    #[test]
    fn encode_decode_negative_imm() {
        let i = Instr::Addi {
            rd: Reg::T0,
            rs1: Reg::Sp,
            imm: -1234,
        };
        assert_eq!(Instr::decode(i.encode()), Ok(i));
        let (lo, hi) = imm18_range();
        for imm in [lo, hi, 0, -1, 1] {
            let i = Instr::Addi {
                rd: Reg::T0,
                rs1: Reg::Sp,
                imm,
            };
            assert_eq!(Instr::decode(i.encode()), Ok(i));
        }
    }

    #[test]
    fn encode_decode_loads_stores() {
        for (width, signed) in [
            (MemWidth::Word, false),
            (MemWidth::Half, true),
            (MemWidth::Half, false),
            (MemWidth::Byte, true),
            (MemWidth::Byte, false),
        ] {
            let i = Instr::Load {
                rd: Reg::A1,
                base: Reg::S0,
                offset: -40,
                width,
                signed,
            };
            // `lw` canonicalises `signed` to false on decode.
            let rt = Instr::decode(i.encode()).unwrap();
            match rt {
                Instr::Load {
                    rd,
                    base,
                    offset,
                    width: w,
                    ..
                } => {
                    assert_eq!((rd, base, offset, w), (Reg::A1, Reg::S0, -40, width));
                }
                other => panic!("expected load, got {other}"),
            }
        }
        let s = Instr::Store {
            src: Reg::A2,
            base: Reg::Sp,
            offset: 8,
            width: MemWidth::Half,
        };
        assert_eq!(Instr::decode(s.encode()), Ok(s));
    }

    #[test]
    fn encode_decode_branches_and_jumps() {
        let b = Instr::Blt {
            rs1: Reg::T0,
            rs2: Reg::T1,
            offset: -64,
        };
        assert_eq!(Instr::decode(b.encode()), Ok(b));
        let j = Instr::Jal {
            rd: Reg::Ra,
            offset: 2048,
        };
        assert_eq!(Instr::decode(j.encode()), Ok(j));
        let jr = Instr::Jalr {
            rd: Reg::Zero,
            base: Reg::Ra,
            offset: 0,
        };
        assert_eq!(Instr::decode(jr.encode()), Ok(jr));
    }

    #[test]
    fn invalid_opcode_errors() {
        let word = 63 << 26;
        assert_eq!(Instr::decode(word), Err(DecodeError { word }));
    }

    #[test]
    fn classes() {
        assert_eq!(Instr::NOP.class(), ExecClass::Alu);
        assert_eq!(Instr::Halt.class(), ExecClass::Halt);
        let l = Instr::Load {
            rd: Reg::A0,
            base: Reg::Sp,
            offset: 0,
            width: MemWidth::Word,
            signed: false,
        };
        assert_eq!(l.class(), ExecClass::Load);
        assert!(l.is_load() && l.is_mem() && !l.is_store());
    }

    #[test]
    fn display_is_parseable_mnemonics() {
        let i = Instr::Load {
            rd: Reg::A0,
            base: Reg::Sp,
            offset: -4,
            width: MemWidth::Byte,
            signed: false,
        };
        assert_eq!(i.to_string(), "lbu a0, -4(sp)");
    }
}
