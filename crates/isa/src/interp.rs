//! Functional (untimed) reference interpreter.
//!
//! [`Interpreter`] executes a [`Program`] sequentially over a paged
//! byte memory: a table of 4 KiB pages, each allocated on its first
//! write, so a machine holds the pages its program touches rather than
//! the whole address space. It serves two roles in the workspace:
//!
//! 1. a test oracle for the workloads — each benchmark's checksum is
//!    validated against a plain-Rust reference implementation, and
//! 2. the *functional* half of the cycle-level simulator. The timing
//!    simulator in `ehs-sim` replays the interpreter's instruction and
//!    memory-access stream through its cache/NVM/energy models. This
//!    timing/functional split is sound for this study because the modelled
//!    crash-consistency scheme (NVSRAMCache JIT checkpointing) always
//!    flushes dirty state before an outage, so architectural state is
//!    exactly sequential execution; outages only change *timing* and
//!    *energy*.

use crate::image::{paged_digest, LoadImage, PagedMem, PAGE_BYTES};
use crate::predecode::DecodeCache;
use crate::{ExecClass, ExecError, Instr, MemWidth, Program, Reg, STACK_TOP};

/// Direction of a data-memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// A single data-memory access performed by an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Byte address of the access.
    pub addr: u32,
    /// Load or store.
    pub kind: AccessKind,
    /// Access width.
    pub width: MemWidth,
}

/// The architectural effects of one executed instruction, as reported by
/// [`Interpreter::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// Program counter the instruction was fetched from.
    pub pc: u32,
    /// The decoded instruction.
    pub instr: Instr,
    /// The instruction's execution class (pre-resolved, so timing
    /// callers index their latency/energy tables without re-classifying).
    pub class: ExecClass,
    /// The data access it performed, if it was a load or store.
    pub access: Option<MemAccess>,
    /// `true` if this instruction halted the program.
    pub halted: bool,
}

/// A sequential executor for EHS-RV programs over a paged memory.
///
/// See the `interp` module documentation for how this integrates with the
/// timing simulator.
#[derive(Debug, Clone)]
pub struct Interpreter {
    regs: [u32; 16],
    pc: u32,
    /// Allocated pages are those ever written (by the program load, a
    /// store or [`Interpreter::write_bytes`]); every other page is zero.
    mem: PagedMem,
    halted: bool,
    executed: u64,
    /// Pre-decoded text segment (derived state, never serialized; kept
    /// coherent on every store/restore that touches covered words).
    predec: DecodeCache,
}

/// Default memory size: 16 MB, matching the paper's default NVM capacity.
pub const DEFAULT_MEM_BYTES: usize = 16 << 20;

impl Interpreter {
    /// Creates an interpreter with the default 16 MB memory and loads
    /// `program` into it.
    pub fn new(program: &Program) -> Interpreter {
        Interpreter::with_mem_size(program, DEFAULT_MEM_BYTES)
    }

    /// Creates an interpreter with a custom memory size (in bytes).
    ///
    /// # Panics
    ///
    /// Panics if the program image does not fit in `mem_bytes`.
    pub fn with_mem_size(program: &Program, mem_bytes: usize) -> Interpreter {
        let image = LoadImage::new(program, mem_bytes);
        let mut mem = PagedMem::new(mem_bytes);
        image.load_into(&mut mem);
        let mut regs = [0u32; 16];
        regs[Reg::Sp.index()] = STACK_TOP.min(mem_bytes as u32 - 16);
        let predec = DecodeCache::build(&mem, program.text_end());
        Interpreter {
            regs,
            pc: program.entry,
            mem,
            halted: false,
            executed: 0,
            predec,
        }
    }

    /// Enables or disables the pre-decoded fast path (enabled by
    /// default). Disabling forces every fetch through the
    /// decode-from-memory reference path; the two must be step-for-step
    /// equivalent, which the verification suite proves.
    pub fn set_decode_cache_enabled(&mut self, on: bool) {
        self.predec.set_enabled(on);
    }

    /// Whether fetches are currently served from the pre-decoded form.
    pub fn decode_cache_enabled(&self) -> bool {
        self.predec.enabled()
    }

    /// Current program counter.
    #[inline]
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// `true` once a `halt` has executed.
    #[inline]
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Number of instructions executed so far.
    #[inline]
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Reads a register.
    #[inline]
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    /// Writes a register (writes to `zero` are discarded).
    #[inline]
    pub fn set_reg(&mut self, r: Reg, value: u32) {
        if r != Reg::Zero {
            self.regs[r.index()] = value;
        }
    }

    /// Memory size in bytes.
    pub fn mem_len(&self) -> usize {
        self.mem.len()
    }

    /// A snapshot of the full architectural register file.
    #[inline]
    pub fn registers(&self) -> [u32; 16] {
        self.regs
    }

    /// FNV-1a digest of the entire memory image, equal to
    /// [`mem_digest_of`](crate::mem_digest_of) of its bytes.
    ///
    /// Used by the differential oracle in `ehs-verify` and by snapshots.
    /// Only written pages are read; each unwritten (zero) page costs one
    /// multiply, so the digest costs what the run wrote.
    pub fn mem_digest(&self) -> u64 {
        paged_digest(
            self.mem.len(),
            |page| self.mem.has_page(page),
            |addr, buf| self.mem.read(addr, buf),
        )
    }

    /// Whether page `page` (of [`PAGE_BYTES`] bytes) has been written,
    /// by the program load, a store or [`Interpreter::write_bytes`].
    /// Only written pages are held; every other page is zero.
    pub fn has_page(&self, page: usize) -> bool {
        self.mem.has_page(page)
    }

    /// Reads a little-endian word from memory (for assertions in tests).
    ///
    /// # Panics
    ///
    /// Panics if `addr+4` exceeds the memory size.
    pub fn read_u32(&self, addr: u32) -> u32 {
        self.mem.read_u32(addr as usize)
    }

    /// Copies `buf.len()` bytes of memory starting at `addr` into `buf`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the memory size.
    pub fn read_bytes(&self, addr: u32, buf: &mut [u8]) {
        self.mem.read(addr as usize, buf);
    }

    /// Overwrites memory at `addr` with `bytes` (snapshot restore).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the memory size.
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8]) {
        self.mem.write(addr as usize, bytes);
        self.predec.refresh_range(&self.mem, addr, bytes.len());
    }

    /// Restores the non-memory architectural state (snapshot resume).
    ///
    /// Memory is restored separately via [`Interpreter::write_bytes`];
    /// the register file is taken verbatim (including `zero`, which is
    /// always 0 in a well-formed snapshot).
    pub fn restore_state(&mut self, regs: [u32; 16], pc: u32, halted: bool, executed: u64) {
        self.regs = regs;
        self.pc = pc;
        self.halted = halted;
        self.executed = executed;
    }

    fn load(&self, pc: u32, addr: u32, width: MemWidth, signed: bool) -> Result<u32, ExecError> {
        let n = width.bytes();
        if addr as usize + n as usize > self.mem.len() {
            return Err(ExecError::OutOfBounds { pc, addr });
        }
        if !addr.is_multiple_of(n) {
            return Err(ExecError::Misaligned { pc, addr });
        }
        // Aligned and at most a word wide, so the access stays in one
        // page; an unwritten page reads as zero.
        let Some(page) = self.mem.page(addr as usize) else {
            return Ok(0);
        };
        let a = addr as usize % PAGE_BYTES;
        Ok(match width {
            MemWidth::Byte => {
                let b = page[a] as u32;
                if signed {
                    b as u8 as i8 as i32 as u32
                } else {
                    b
                }
            }
            MemWidth::Half => {
                let h = u16::from_le_bytes([page[a], page[a + 1]]) as u32;
                if signed {
                    h as u16 as i16 as i32 as u32
                } else {
                    h
                }
            }
            MemWidth::Word => u32::from_le_bytes(page[a..a + 4].try_into().expect("4 bytes")),
        })
    }

    fn store(&mut self, pc: u32, addr: u32, value: u32, width: MemWidth) -> Result<(), ExecError> {
        let n = width.bytes();
        if addr as usize + n as usize > self.mem.len() {
            return Err(ExecError::OutOfBounds { pc, addr });
        }
        if !addr.is_multiple_of(n) {
            return Err(ExecError::Misaligned { pc, addr });
        }
        // The access is aligned and at most one word wide, so it stays
        // in one page and (self-modifying code) can change at most one
        // pre-decoded slot.
        let page = self.mem.page_mut(addr as usize);
        let a = addr as usize % PAGE_BYTES;
        match width {
            MemWidth::Byte => page[a] = value as u8,
            MemWidth::Half => page[a..a + 2].copy_from_slice(&(value as u16).to_le_bytes()),
            MemWidth::Word => page[a..a + 4].copy_from_slice(&value.to_le_bytes()),
        }
        self.predec.refresh_word(&self.mem, addr);
        Ok(())
    }

    /// Fetches, decodes and executes one instruction.
    ///
    /// Once halted, further calls return the `halt` step again without
    /// advancing.
    ///
    /// # Errors
    ///
    /// Propagates decode failures and memory faults as [`ExecError`].
    #[inline]
    pub fn step(&mut self) -> Result<Step, ExecError> {
        use Instr::*;
        let pc = self.pc;
        if self.halted {
            return Ok(Step {
                pc,
                instr: Halt,
                class: ExecClass::Halt,
                access: None,
                halted: true,
            });
        }
        // Fast path: a covered, aligned pc resolves from the pre-decoded
        // form; everything else (out of range, misaligned, cache
        // disabled) takes the decode-from-memory reference path with
        // the original fault semantics.
        let (instr, class) = match self.predec.lookup(pc) {
            Some(Some(p)) => (p.instr, p.class),
            Some(None) => {
                // Covered but undecodable: report the raw word, exactly
                // as the reference path would.
                let word = self.mem.read_u32(pc as usize);
                return Err(ExecError::InvalidInstruction { pc, word });
            }
            None => {
                if pc as usize + 4 > self.mem.len() || !pc.is_multiple_of(4) {
                    return Err(ExecError::OutOfBounds { pc, addr: pc });
                }
                let word = self.mem.read_u32(pc as usize);
                let instr =
                    Instr::decode(word).map_err(|_| ExecError::InvalidInstruction { pc, word })?;
                (instr, instr.class())
            }
        };

        let mut next_pc = pc.wrapping_add(4);
        let mut access = None;
        match instr {
            Add { rd, rs1, rs2 } => self.set_reg(rd, self.reg(rs1).wrapping_add(self.reg(rs2))),
            Sub { rd, rs1, rs2 } => self.set_reg(rd, self.reg(rs1).wrapping_sub(self.reg(rs2))),
            And { rd, rs1, rs2 } => self.set_reg(rd, self.reg(rs1) & self.reg(rs2)),
            Or { rd, rs1, rs2 } => self.set_reg(rd, self.reg(rs1) | self.reg(rs2)),
            Xor { rd, rs1, rs2 } => self.set_reg(rd, self.reg(rs1) ^ self.reg(rs2)),
            Sll { rd, rs1, rs2 } => self.set_reg(rd, self.reg(rs1) << (self.reg(rs2) & 31)),
            Srl { rd, rs1, rs2 } => self.set_reg(rd, self.reg(rs1) >> (self.reg(rs2) & 31)),
            Sra { rd, rs1, rs2 } => {
                self.set_reg(rd, ((self.reg(rs1) as i32) >> (self.reg(rs2) & 31)) as u32)
            }
            Slt { rd, rs1, rs2 } => {
                self.set_reg(rd, ((self.reg(rs1) as i32) < (self.reg(rs2) as i32)) as u32)
            }
            Sltu { rd, rs1, rs2 } => self.set_reg(rd, (self.reg(rs1) < self.reg(rs2)) as u32),
            Mul { rd, rs1, rs2 } => self.set_reg(rd, self.reg(rs1).wrapping_mul(self.reg(rs2))),
            Div { rd, rs1, rs2 } => {
                let a = self.reg(rs1) as i32;
                let b = self.reg(rs2) as i32;
                let q = if b == 0 { -1 } else { a.wrapping_div(b) };
                self.set_reg(rd, q as u32);
            }
            Rem { rd, rs1, rs2 } => {
                let a = self.reg(rs1) as i32;
                let b = self.reg(rs2) as i32;
                let r = if b == 0 { a } else { a.wrapping_rem(b) };
                self.set_reg(rd, r as u32);
            }
            Addi { rd, rs1, imm } => self.set_reg(rd, self.reg(rs1).wrapping_add(imm as u32)),
            Andi { rd, rs1, imm } => self.set_reg(rd, self.reg(rs1) & imm as u32),
            Ori { rd, rs1, imm } => self.set_reg(rd, self.reg(rs1) | imm as u32),
            Xori { rd, rs1, imm } => self.set_reg(rd, self.reg(rs1) ^ imm as u32),
            Slti { rd, rs1, imm } => self.set_reg(rd, ((self.reg(rs1) as i32) < imm) as u32),
            Slli { rd, rs1, imm } => self.set_reg(rd, self.reg(rs1) << (imm as u32 & 31)),
            Srli { rd, rs1, imm } => self.set_reg(rd, self.reg(rs1) >> (imm as u32 & 31)),
            Srai { rd, rs1, imm } => {
                self.set_reg(rd, ((self.reg(rs1) as i32) >> (imm as u32 & 31)) as u32)
            }
            Lui { rd, imm } => self.set_reg(rd, (imm as u32) << 14),
            Load {
                rd,
                base,
                offset,
                width,
                signed,
            } => {
                let addr = self.reg(base).wrapping_add(offset as u32);
                let v = self.load(pc, addr, width, signed)?;
                self.set_reg(rd, v);
                access = Some(MemAccess {
                    addr,
                    kind: AccessKind::Read,
                    width,
                });
            }
            Store {
                src,
                base,
                offset,
                width,
            } => {
                let addr = self.reg(base).wrapping_add(offset as u32);
                self.store(pc, addr, self.reg(src), width)?;
                access = Some(MemAccess {
                    addr,
                    kind: AccessKind::Write,
                    width,
                });
            }
            Beq { rs1, rs2, offset } => {
                if self.reg(rs1) == self.reg(rs2) {
                    next_pc = pc.wrapping_add(offset as u32);
                }
            }
            Bne { rs1, rs2, offset } => {
                if self.reg(rs1) != self.reg(rs2) {
                    next_pc = pc.wrapping_add(offset as u32);
                }
            }
            Blt { rs1, rs2, offset } => {
                if (self.reg(rs1) as i32) < (self.reg(rs2) as i32) {
                    next_pc = pc.wrapping_add(offset as u32);
                }
            }
            Bge { rs1, rs2, offset } => {
                if (self.reg(rs1) as i32) >= (self.reg(rs2) as i32) {
                    next_pc = pc.wrapping_add(offset as u32);
                }
            }
            Bltu { rs1, rs2, offset } => {
                if self.reg(rs1) < self.reg(rs2) {
                    next_pc = pc.wrapping_add(offset as u32);
                }
            }
            Bgeu { rs1, rs2, offset } => {
                if self.reg(rs1) >= self.reg(rs2) {
                    next_pc = pc.wrapping_add(offset as u32);
                }
            }
            Jal { rd, offset } => {
                self.set_reg(rd, pc.wrapping_add(4));
                next_pc = pc.wrapping_add(offset as u32);
            }
            Jalr { rd, base, offset } => {
                let target = self.reg(base).wrapping_add(offset as u32) & !3;
                self.set_reg(rd, pc.wrapping_add(4));
                next_pc = target;
            }
            Halt => {
                self.halted = true;
                next_pc = pc;
            }
        }
        self.pc = next_pc;
        self.executed += 1;
        Ok(Step {
            pc,
            instr,
            class,
            access,
            halted: self.halted,
        })
    }

    /// Runs until `halt` or until `max_steps` instructions have executed.
    ///
    /// Returns the number of instructions executed.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::StepLimit`] if the program has not halted
    /// within the budget, or any fault from [`Interpreter::step`].
    pub fn run(&mut self, max_steps: u64) -> Result<u64, ExecError> {
        let start = self.executed;
        while !self.halted {
            if self.executed - start >= max_steps {
                return Err(ExecError::StepLimit {
                    executed: self.executed,
                });
            }
            self.step()?;
        }
        Ok(self.executed - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn run_asm(src: &str) -> Interpreter {
        let p = assemble(src).expect("assembles");
        let mut vm = Interpreter::new(&p);
        vm.run(1_000_000).expect("halts");
        vm
    }

    #[test]
    fn arithmetic_loop_sums() {
        let vm = run_asm(
            r#"
            .text
            main:
                li t0, 0        ; i
                li a0, 0        ; sum
                li t1, 10
            loop:
                add a0, a0, t0
                addi t0, t0, 1
                blt t0, t1, loop
                halt
            "#,
        );
        assert_eq!(vm.reg(Reg::A0), 45);
    }

    #[test]
    fn memory_round_trip_all_widths() {
        let vm = run_asm(
            r#"
            .text
            main:
                la  a1, buf
                li  t0, 0x12345678
                sw  t0, 0(a1)
                lw  a0, 0(a1)
                lbu a2, 0(a1)
                lb  a3, 3(a1)
                lhu t1, 0(a1)
                sh  t0, 8(a1)
                lhu t2, 8(a1)
                halt
            .data
            buf: .space 16
            "#,
        );
        assert_eq!(vm.reg(Reg::A0), 0x12345678);
        assert_eq!(vm.reg(Reg::A2), 0x78);
        assert_eq!(vm.reg(Reg::A3), 0x12);
        assert_eq!(vm.reg(Reg::T1), 0x5678);
        assert_eq!(vm.reg(Reg::T2), 0x5678);
    }

    #[test]
    fn signed_loads_sign_extend() {
        let vm = run_asm(
            r#"
            .text
            main:
                la a1, buf
                li t0, -1
                sb t0, 0(a1)
                lb a0, 0(a1)
                lbu a2, 0(a1)
                halt
            .data
            buf: .space 4
            "#,
        );
        assert_eq!(vm.reg(Reg::A0), 0xffff_ffff);
        assert_eq!(vm.reg(Reg::A2), 0xff);
    }

    #[test]
    fn call_and_return() {
        let vm = run_asm(
            r#"
            .text
            main:
                li a0, 5
                call double
                call double
                halt
            double:
                add a0, a0, a0
                ret
            "#,
        );
        assert_eq!(vm.reg(Reg::A0), 20);
    }

    #[test]
    fn stack_push_pop() {
        let vm = run_asm(
            r#"
            .text
            main:
                li t0, 42
                subi sp, sp, 8
                sw t0, 0(sp)
                sw t0, 4(sp)
                lw a0, 4(sp)
                addi sp, sp, 8
                halt
            "#,
        );
        assert_eq!(vm.reg(Reg::A0), 42);
    }

    #[test]
    fn division_semantics() {
        let vm = run_asm(
            r#"
            .text
            main:
                li t0, 7
                li t1, -2
                div a0, t0, t1   ; -3
                rem a1, t0, t1   ; 1
                li t2, 0
                div a2, t0, t2   ; -1 (div by zero)
                rem a3, t0, t2   ; 7
                halt
            "#,
        );
        assert_eq!(vm.reg(Reg::A0) as i32, -3);
        assert_eq!(vm.reg(Reg::A1) as i32, 1);
        assert_eq!(vm.reg(Reg::A2) as i32, -1);
        assert_eq!(vm.reg(Reg::A3) as i32, 7);
    }

    #[test]
    fn zero_register_is_immutable() {
        let vm = run_asm(".text\nmain:\n li a0, 3\n add zero, a0, a0\n mv a1, zero\n halt\n");
        assert_eq!(vm.reg(Reg::Zero), 0);
        assert_eq!(vm.reg(Reg::A1), 0);
    }

    #[test]
    fn halt_is_sticky() {
        let p = assemble(".text\n halt\n").unwrap();
        let mut vm = Interpreter::new(&p);
        let s1 = vm.step().unwrap();
        assert!(s1.halted);
        let pc = vm.pc();
        let s2 = vm.step().unwrap();
        assert!(s2.halted);
        assert_eq!(vm.pc(), pc);
        assert_eq!(vm.executed(), 1);
    }

    #[test]
    fn out_of_bounds_faults() {
        let p =
            assemble(".text\nmain:\n li a1, 0x7ffffff\n slli a1, a1, 4\n lw a0, 0(a1)\n halt\n")
                .unwrap();
        let mut vm = Interpreter::new(&p);
        let err = vm.run(100).unwrap_err();
        assert!(matches!(err, ExecError::OutOfBounds { .. }), "{err}");
    }

    #[test]
    fn misaligned_faults() {
        let p = assemble(".text\nmain:\n la a1, b\n lw a0, 1(a1)\n halt\n.data\nb: .word 1, 2\n")
            .unwrap();
        let mut vm = Interpreter::new(&p);
        let err = vm.run(100).unwrap_err();
        assert!(matches!(err, ExecError::Misaligned { .. }), "{err}");
    }

    #[test]
    fn step_limit_reported() {
        let p = assemble(".text\nmain:\n j main\n").unwrap();
        let mut vm = Interpreter::new(&p);
        let err = vm.run(10).unwrap_err();
        assert_eq!(err, ExecError::StepLimit { executed: 10 });
    }

    fn held_pages(vm: &Interpreter) -> Vec<usize> {
        (0..vm.mem_len().div_ceil(PAGE_BYTES))
            .filter(|&p| vm.has_page(p))
            .collect()
    }

    /// Bytes, halves and words at the last aligned slot of a page and
    /// the first slot of the next stay in their own page.
    #[test]
    fn accesses_at_a_page_boundary_stay_in_their_page() {
        let boundary = 0x20_0000u32;
        let page = boundary as usize / PAGE_BYTES;
        for (n, st, ld, ldu) in [
            (1, "sb", "lb", "lbu"),
            (2, "sh", "lh", "lhu"),
            (4, "sw", "lw", "lw"),
        ] {
            let p = assemble(&format!(
                ".text\nmain:\n li a1, {boundary}\n li t0, -2023406815\n li t1, 0x5a\n\
                 {st} t0, -{n}(a1)\n {st} t1, 0(a1)\n\
                 {ld} a0, -{n}(a1)\n {ldu} a2, -{n}(a1)\n {ld} a3, 0(a1)\n halt\n"
            ))
            .unwrap();
            let mut vm = Interpreter::new(&p);
            assert!(!vm.has_page(page - 1) && !vm.has_page(page));
            vm.run(100).unwrap();
            // t0 = 0x87654321: its low `n` bytes, sign- and zero-extended.
            let low = 0x8765_4321u32 & (u32::MAX >> (32 - 8 * n));
            let sign = (low >> (8 * n - 1)) & 1 == 1;
            let signed = if sign {
                low | !(u32::MAX >> (32 - 8 * n))
            } else {
                low
            };
            assert_eq!(vm.reg(Reg::A0), signed, "{ld} at the last slot");
            assert_eq!(vm.reg(Reg::A2), low, "{ldu} at the last slot");
            assert_eq!(vm.reg(Reg::A3), 0x5a, "{ld} at the first slot");
            let mut around = [0xffu8; 8];
            vm.read_bytes(boundary - 4, &mut around);
            let mut expect = [0u8; 8];
            expect[4 - n as usize..4].copy_from_slice(&low.to_le_bytes()[..n as usize]);
            expect[4] = 0x5a;
            assert_eq!(around, expect, "{st} bytes around the boundary");
            assert!(vm.has_page(page - 1) && vm.has_page(page));
        }
    }

    /// `write_bytes` over three pages allocates the one never written,
    /// and reading an unwritten page returns zeros without allocating.
    #[test]
    fn write_bytes_spans_pages_and_reads_of_absent_pages_allocate_nothing() {
        let p = assemble(".text\nmain:\n halt\n.data\nw: .word 7\n").unwrap();
        let mut vm = Interpreter::new(&p);
        let loaded = held_pages(&vm);
        let first = crate::DATA_BASE as usize / PAGE_BYTES;
        assert_eq!(loaded, [0, first]);
        // From the end of the written data page, over a whole page never
        // written, into the start of the next.
        let addr = (first + 1) * PAGE_BYTES - 10;
        let bytes: Vec<u8> = (0..PAGE_BYTES + 30).map(|i| i as u8 | 1).collect();
        vm.write_bytes(addr as u32, &bytes);
        assert_eq!(held_pages(&vm), [0, first, first + 1, first + 2]);
        let mut back = vec![0u8; bytes.len() + 8];
        vm.read_bytes(addr as u32 - 4, &mut back);
        assert_eq!(back[..4], [0; 4]);
        assert_eq!(back[4..4 + bytes.len()], bytes[..]);
        assert_eq!(back[4 + bytes.len()..], [0; 4]);
        assert_eq!(vm.read_u32(crate::DATA_BASE), 7);

        let mut absent = vec![0xffu8; 2 * PAGE_BYTES];
        vm.read_bytes((first + 8) as u32 * PAGE_BYTES as u32, &mut absent);
        assert!(absent.iter().all(|&b| b == 0));
        assert_eq!(vm.read_u32(0x30_0000), 0);
        let _ = vm.mem_digest();
        assert_eq!(held_pages(&vm), [0, first, first + 1, first + 2]);
    }

    #[test]
    fn steps_report_accesses() {
        let p =
            assemble(".text\nmain:\n la a1, w\n lw a0, 0(a1)\n halt\n.data\nw: .word 9\n").unwrap();
        let mut vm = Interpreter::new(&p);
        let mut reads = 0;
        while !vm.halted() {
            let s = vm.step().unwrap();
            if let Some(a) = s.access {
                assert_eq!(a.kind, AccessKind::Read);
                assert_eq!(a.addr, crate::DATA_BASE);
                reads += 1;
            }
        }
        assert_eq!(reads, 1);
        assert_eq!(vm.reg(Reg::A0), 9);
    }
}
