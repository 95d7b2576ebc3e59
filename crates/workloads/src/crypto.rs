//! `rijndaele`/`rijndaeld`, `pegwite`/`pegwitd` — cryptographic kernels
//! (MediaBench stand-ins).
//!
//! * **rijndael** — an AES-flavoured block cipher round structure: the
//!   real AES S-box (inverse S-box for decryption), a ShiftRows-style
//!   byte permutation, an XOR mixing layer and a table-derived round
//!   key, 10 rounds over a stream of 16-byte blocks. Byte-table lookups
//!   dominate, as in the original.
//! * **pegwit** — the original is elliptic-curve crypto over GF(2^255);
//!   the stand-in keeps its signature behaviour (data-dependent lookups
//!   into a table larger than the DCache) with a 4 kB field table driving
//!   a 16-word sponge. Data-dependent indices defeat stride prefetching,
//!   matching pegwit's very high DCache stall share in the paper's
//!   Fig. 2.

use crate::{checksum_fold, lcg_next};

const LCG_MUL: u32 = 1664525;
const LCG_INC: u32 = 1013904223;

/// The AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

fn inv_sbox() -> [u8; 256] {
    let mut inv = [0u8; 256];
    for (i, &v) in SBOX.iter().enumerate() {
        inv[v as usize] = i as u8;
    }
    inv
}

/// Encryption ShiftRows permutation (row-wise rotation of the 4×4 state).
const PERM_E: [u8; 16] = [0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11];
/// Decryption inverse permutation.
const PERM_D: [u8; 16] = [0, 13, 10, 7, 4, 1, 14, 11, 8, 5, 2, 15, 12, 9, 6, 3];

const RIJ_BLOCKS: u32 = 48;
const RIJ_ROUNDS: u32 = 10;
const RIJE_SEED: u32 = 161803;
const RIJD_SEED: u32 = 271828;

fn bytes_list(b: &[u8]) -> String {
    b.iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

fn gen_rijndael(encrypt: bool) -> String {
    let pad = crate::pad_asm("s2", "a0", if encrypt { 0xae5e } else { 0xae5d }, 240);
    let name = if encrypt { "rijndaele" } else { "rijndaeld" };
    let seed = if encrypt { RIJE_SEED } else { RIJD_SEED };
    let sbox = if encrypt { SBOX } else { inv_sbox() };
    let perm = if encrypt { PERM_E } else { PERM_D };
    format!(
        r#"
; {name}: AES-style rounds over {RIJ_BLOCKS} blocks
.text
main:
    li   s0, {seed}
    li   s1, 0               ; cs
    li   s2, 0               ; block counter
block_loop:
    li   t0, {RIJ_BLOCKS}
    bge  s2, t0, done
    ; --- fill 16-byte state from LCG ---
    la   a3, state
    li   t4, 0
fillb:
    li   a2, {LCG_MUL}
    mul  s0, s0, a2
    li   a2, {LCG_INC}
    add  s0, s0, a2
    srli t1, s0, 16
    andi t1, t1, 255
    add  a0, a3, t4
    sb   t1, 0(a0)
    addi t4, t4, 1
    li   a2, 16
    blt  t4, a2, fillb
    ; --- rounds ---
    li   s3, 0               ; round
round_loop:
    li   t0, {RIJ_ROUNDS}
    bge  s3, t0, block_out
    ; sub+shift+key: tmp[i] = sbox[state[perm[i]]] ^ sbox[(round*16+i)&255]
    li   t4, 0
sub_loop:
    la   a0, perm
    add  a0, a0, t4
    lbu  a0, 0(a0)           ; perm[i]
    la   a1, state
    add  a1, a1, a0
    lbu  a1, 0(a1)           ; state[perm[i]]
    la   a0, sbox
    add  a1, a0, a1
    lbu  a1, 0(a1)           ; substituted
    ; round key byte
    slli t1, s3, 4
    add  t1, t1, t4
    andi t1, t1, 255
    add  t1, a0, t1
    lbu  t1, 0(t1)
    xor  a1, a1, t1
    la   a0, tmp
    add  a0, a0, t4
    sb   a1, 0(a0)
    addi t4, t4, 1
    li   a2, 16
    blt  t4, a2, sub_loop
    ; mix: state[i] = tmp[i] ^ tmp[(i+4)&15]
    li   t4, 0
mix_loop:
    la   a0, tmp
    add  a1, a0, t4
    lbu  a1, 0(a1)
    addi t1, t4, 4
    andi t1, t1, 15
    add  t1, a0, t1
    lbu  t1, 0(t1)
    xor  a1, a1, t1
    la   a0, state
    add  a0, a0, t4
    sb   a1, 0(a0)
    addi t4, t4, 1
    li   a2, 16
    blt  t4, a2, mix_loop
{pad}
    addi s3, s3, 1
    j    round_loop
block_out:
    ; --- fold the 16 output bytes ---
    li   t4, 0
foldb:
    la   a0, state
    add  a0, a0, t4
    lbu  a1, 0(a0)
    li   a2, 31
    mul  s1, s1, a2
    add  s1, s1, a1
    addi t4, t4, 1
    li   a2, 16
    blt  t4, a2, foldb
    addi s2, s2, 1
    j    block_loop
done:
    la   a1, result
    sw   s1, 0(a1)
    mv   a0, s1
    halt
.data
result: .word 0
state:  .space 16
tmp:    .space 16
perm:   .byte {perm_list}
sbox:   .byte {sbox_list}
"#,
        perm_list = bytes_list(&perm),
        sbox_list = bytes_list(&sbox),
    )
}

/// Generates the `rijndaele` assembly.
pub fn gen_rijndaele() -> String {
    gen_rijndael(true)
}

/// Generates the `rijndaeld` assembly.
pub fn gen_rijndaeld() -> String {
    gen_rijndael(false)
}

fn ref_rijndael(encrypt: bool) -> u32 {
    let seed = if encrypt { RIJE_SEED } else { RIJD_SEED };
    let sbox = if encrypt { SBOX } else { inv_sbox() };
    let perm = if encrypt { PERM_E } else { PERM_D };
    let mut x = seed;
    let mut cs = 0u32;
    for _ in 0..RIJ_BLOCKS {
        let mut state = [0u8; 16];
        for b in state.iter_mut() {
            x = lcg_next(x);
            *b = ((x >> 16) & 255) as u8;
        }
        for round in 0..RIJ_ROUNDS {
            let mut tmp = [0u8; 16];
            for i in 0..16usize {
                let sub = sbox[state[perm[i] as usize] as usize];
                let rk = sbox[((round * 16 + i as u32) & 255) as usize];
                tmp[i] = sub ^ rk;
            }
            for i in 0..16usize {
                state[i] = tmp[i] ^ tmp[(i + 4) & 15];
            }
        }
        for b in state {
            cs = checksum_fold(cs, b as u32);
        }
    }
    cs
}

/// Reference model for [`gen_rijndaele`].
pub fn ref_rijndaele() -> u32 {
    ref_rijndael(true)
}

/// Reference model for [`gen_rijndaeld`].
pub fn ref_rijndaeld() -> u32 {
    ref_rijndael(false)
}

// ---------------------------------------------------------------------
// pegwit
// ---------------------------------------------------------------------

const PEG_TABLE_WORDS: u32 = 1024; // 4 kB, twice the DCache
const PEG_ROUNDS: u32 = 200;
const PEGE_SEED: u32 = 906090;
const PEGD_SEED: u32 = 131071;

fn gen_pegwit(encrypt: bool) -> String {
    let pad = crate::pad_asm("s2", "t1", if encrypt { 0x4e6e } else { 0x4e6d }, 230);
    let name = if encrypt { "pegwite" } else { "pegwitd" };
    let seed = if encrypt { PEGE_SEED } else { PEGD_SEED };
    let mult = if encrypt { 5 } else { 3 };
    // Encrypt mixes forward neighbours, decrypt backward ones.
    let neighbour = if encrypt {
        "    addi a1, t4, 1\n"
    } else {
        "    addi a1, t4, 15\n"
    };
    format!(
        r#"
; {name}: GF-table sponge, {PEG_ROUNDS} rounds over a 4 kB field table
.text
main:
    li   s0, {seed}
    li   s1, 0               ; cs
    ; --- fill field table ({PEG_TABLE_WORDS} words) ---
    la   s2, gftab
    li   t4, 0
fillt:
    li   a2, {LCG_MUL}
    mul  s0, s0, a2
    li   a2, {LCG_INC}
    add  s0, s0, a2
    slli t0, t4, 2
    add  t0, s2, t0
    sw   s0, 0(t0)
    addi t4, t4, 1
    li   a2, {PEG_TABLE_WORDS}
    blt  t4, a2, fillt
    ; --- fill 16-word state ---
    la   s3, pstate
    li   t4, 0
fills:
    li   a2, {LCG_MUL}
    mul  s0, s0, a2
    li   a2, {LCG_INC}
    add  s0, s0, a2
    slli t0, t4, 2
    add  t0, s3, t0
    sw   s0, 0(t0)
    addi t4, t4, 1
    li   a2, 16
    blt  t4, a2, fills
    ; --- rounds ---
    li   s2, 0               ; round (gftab base reloaded below)
round_loop:
    li   t0, {PEG_ROUNDS}
    bge  s2, t0, done
    li   t4, 0               ; i
lane_loop:
    slli t0, t4, 2
    add  t0, s3, t0
    lw   t1, 0(t0)           ; state[i]
{neighbour}    andi a1, a1, 15
    slli a1, a1, 2
    add  a1, s3, a1
    lw   a1, 0(a1)           ; neighbour lane
    xor  a2, t1, a1
    li   a3, {idx_mask}
    and  a2, a2, a3          ; data-dependent table index
    slli a2, a2, 2
    la   a3, gftab
    add  a2, a3, a2
    lw   a2, 0(a2)           ; table value
    li   a3, {mult}
    mul  t1, t1, a3
    add  t1, t1, a2          ; state[i] = state[i]*mult + tab
    sw   t1, 0(t0)
{pad}
    addi t4, t4, 1
    li   a2, 16
    blt  t4, a2, lane_loop
    ; fold state[round & 15]
    andi t0, s2, 15
    slli t0, t0, 2
    add  t0, s3, t0
    lw   t1, 0(t0)
    li   a2, 31
    mul  s1, s1, a2
    add  s1, s1, t1
    addi s2, s2, 1
    j    round_loop
done:
    la   a1, result
    sw   s1, 0(a1)
    mv   a0, s1
    halt
.data
result: .word 0
pstate: .space 64
gftab:  .space {tab_bytes}
"#,
        idx_mask = PEG_TABLE_WORDS - 1,
        tab_bytes = PEG_TABLE_WORDS * 4,
    )
}

/// Generates the `pegwite` assembly.
pub fn gen_pegwite() -> String {
    gen_pegwit(true)
}

/// Generates the `pegwitd` assembly.
pub fn gen_pegwitd() -> String {
    gen_pegwit(false)
}

fn ref_pegwit(encrypt: bool) -> u32 {
    let seed = if encrypt { PEGE_SEED } else { PEGD_SEED };
    let mult: u32 = if encrypt { 5 } else { 3 };
    let mut x = seed;
    let mut tab = vec![0u32; PEG_TABLE_WORDS as usize];
    for t in tab.iter_mut() {
        x = lcg_next(x);
        *t = x;
    }
    let mut state = [0u32; 16];
    for s in state.iter_mut() {
        x = lcg_next(x);
        *s = x;
    }
    let mut cs = 0u32;
    for round in 0..PEG_ROUNDS {
        for i in 0..16usize {
            let nb = if encrypt { (i + 1) & 15 } else { (i + 15) & 15 };
            let idx = ((state[i] ^ state[nb]) & (PEG_TABLE_WORDS - 1)) as usize;
            state[i] = state[i].wrapping_mul(mult).wrapping_add(tab[idx]);
        }
        cs = checksum_fold(cs, state[(round & 15) as usize]);
    }
    cs
}

/// Reference model for [`gen_pegwite`].
pub fn ref_pegwite() -> u32 {
    ref_pegwit(true)
}

/// Reference model for [`gen_pegwitd`].
pub fn ref_pegwitd() -> u32 {
    ref_pegwit(false)
}

#[cfg(test)]
mod tests {
    use crate::{by_name, check_workload};

    #[test]
    fn rijndaele_matches_reference() {
        check_workload(by_name("rijndaele").unwrap());
    }

    #[test]
    fn rijndaeld_matches_reference() {
        check_workload(by_name("rijndaeld").unwrap());
    }

    #[test]
    fn pegwite_matches_reference() {
        check_workload(by_name("pegwite").unwrap());
    }

    #[test]
    fn pegwitd_matches_reference() {
        check_workload(by_name("pegwitd").unwrap());
    }

    #[test]
    fn inverse_sbox_inverts() {
        let inv = super::inv_sbox();
        for i in 0..256usize {
            assert_eq!(inv[super::SBOX[i] as usize] as usize, i);
        }
    }

    #[test]
    fn perms_are_permutations() {
        for perm in [super::PERM_E, super::PERM_D] {
            let mut seen = [false; 16];
            for &p in &perm {
                assert!(!seen[p as usize]);
                seen[p as usize] = true;
            }
        }
    }
}
