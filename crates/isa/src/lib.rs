//! # ehs-isa — the EHS-RV instruction set
//!
//! A compact 32-bit RISC instruction set used by the intermittent-computing
//! simulator in this workspace. The paper evaluates IPEX on an in-order
//! ARMv7-M nonvolatile processor; since no ARM toolchain is assumed here,
//! the workloads are written for this custom ISA instead. It preserves the
//! properties that matter for the study: fixed 4-byte instructions fetched
//! through an instruction cache, loads/stores through a data cache, and a
//! simple in-order execution model.
//!
//! The crate provides:
//!
//! * [`Instr`] — the decoded instruction set with a binary
//!   [`Instr::encode`]/[`Instr::decode`] round trip (programs are stored as
//!   real words in simulated NVM, so instruction fetch exercises real cache
//!   contents),
//! * [`Reg`] — the 16 general-purpose registers,
//! * [`asm`] — a small two-pass assembler with labels, `.data` directives
//!   and the usual pseudo-instructions (`li`, `la`, `call`, …),
//! * [`Program`] — a linked program image (text + data + symbols),
//! * [`Interpreter`] — a functional (untimed) reference interpreter used to
//!   validate workloads and as a differential-testing oracle for the
//!   cycle-level simulator. Its memory is a table of 4 KiB pages, each
//!   allocated on its first write.
//! * [`PageMap`] and [`LoadImage`] — a program's fresh image by its
//!   segments and the pages they touch, so digests and snapshot deltas
//!   cost what a run wrote.
//!
//! ```
//! use ehs_isa::{asm, Interpreter};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = asm::assemble(
//!     r#"
//!     .text
//!     li   a0, 6
//!     li   a1, 7
//!     mul  a0, a0, a1
//!     halt
//!     "#,
//! )?;
//! let mut vm = Interpreter::new(&program);
//! vm.run(10_000)?;
//! assert_eq!(vm.reg(ehs_isa::Reg::A0), 42);
//! # Ok(())
//! # }
//! ```

pub mod asm;
mod error;
mod image;
mod instr;
mod interp;
mod predecode;
mod program;
mod reg;

pub use error::{AsmError, ExecError};
pub use image::{mem_digest_of, LoadImage, PageMap, PAGE_BYTES};
pub use instr::{imm18_range, imm22_range, DecodeError, ExecClass, Instr, MemWidth};
pub use interp::{AccessKind, Interpreter, MemAccess, Step, DEFAULT_MEM_BYTES};
pub use program::{Program, Segment, DATA_BASE, STACK_TOP, TEXT_BASE};
pub use reg::{ParseRegError, Reg, NUM_REGS};
