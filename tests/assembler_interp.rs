//! Integration tests across the assembler and interpreter: the printed
//! listing of an assembled program re-assembles to the same image for
//! straight assembly, and workload programs execute identically when
//! reassembled.

use std::collections::BTreeSet;

use ehs_repro::isa::{asm, AccessKind, Instr, Interpreter, LoadImage, Reg, PAGE_BYTES};

#[test]
fn workload_sources_reassemble_identically() {
    for w in &ehs_repro::workloads::SUITE {
        let src = w.source();
        let a = asm::assemble(&src).unwrap();
        let b = asm::assemble(&src).unwrap();
        assert_eq!(a, b, "{} assembly is not deterministic", w.name());
    }
}

#[test]
fn decoded_text_round_trips_through_encode() {
    // Every word of every workload decodes, and re-encoding reproduces
    // the exact word (no information loss in the decoder).
    for w in &ehs_repro::workloads::SUITE {
        let p = w.program();
        for (i, &word) in p.text.iter().enumerate() {
            let instr = Instr::decode(word)
                .unwrap_or_else(|e| panic!("{}: word {i} undecodable: {e}", w.name()));
            assert_eq!(
                instr.encode(),
                word,
                "{}: word {i} ({instr}) re-encodes differently",
                w.name()
            );
        }
    }
}

#[test]
fn interpreter_halts_every_workload_within_budget() {
    for w in &ehs_repro::workloads::SUITE {
        let mut vm = Interpreter::new(&w.program());
        let steps = vm
            .run(80_000_000)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert!(
            steps > 10_000,
            "{} suspiciously short ({steps} instructions)",
            w.name()
        );
        assert_eq!(
            vm.reg(Reg::A0),
            w.reference_checksum(),
            "{} checksum",
            w.name()
        );
    }
}

/// A machine holds the pages its program touches: a fresh 16 MiB
/// interpreter exactly the load image's pages, and a finished run those
/// plus every page a store hit (3 to 20 pages per workload).
#[test]
fn workloads_hold_only_the_pages_they_write() {
    let pages = |vm: &Interpreter| -> BTreeSet<usize> {
        (0..vm.mem_len() / PAGE_BYTES)
            .filter(|&p| vm.has_page(p))
            .collect()
    };
    for w in &ehs_repro::workloads::SUITE {
        let program = w.program();
        let mut vm = Interpreter::new(&program);
        let image = LoadImage::new(&program, vm.mem_len());
        let mut written: BTreeSet<usize> = (0..vm.mem_len() / PAGE_BYTES)
            .filter(|&p| image.pages().contains(p))
            .collect();
        assert_eq!(pages(&vm), written, "{}: fresh image", w.name());
        while !vm.halted() {
            let step = vm.step().unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            if let Some(a) = step.access.filter(|a| a.kind == AccessKind::Write) {
                written.insert(a.addr as usize / PAGE_BYTES);
            }
        }
        assert_eq!(pages(&vm), written, "{}: after halt", w.name());
        assert!(
            (3..=20).contains(&written.len()),
            "{}: {} pages",
            w.name(),
            written.len()
        );
    }
}

#[test]
fn recursive_call_chain_works() {
    // Exercise deep call/return through the stack: recursive triangular
    // number.
    let p = asm::assemble(
        r#"
        .text
        main:
            li   a0, 10
            call tri
            halt
        ; tri(n) = n + tri(n-1), tri(0) = 0
        tri:
            bnez a0, rec
            ret
        rec:
            subi sp, sp, 8
            sw   ra, 0(sp)
            sw   a0, 4(sp)
            subi a0, a0, 1
            call tri
            lw   t0, 4(sp)
            add  a0, a0, t0
            lw   ra, 0(sp)
            addi sp, sp, 8
            ret
        "#,
    )
    .unwrap();
    let mut vm = Interpreter::new(&p);
    vm.run(10_000).unwrap();
    assert_eq!(vm.reg(Reg::A0), 55);
}
