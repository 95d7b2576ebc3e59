//! `susanc` / `susane` — SUSAN-style image feature detection (MiBench
//! stand-in).
//!
//! A synthetic grayscale image is scanned with a brightness-similarity
//! mask: for every interior pixel, the number of mask pixels within a
//! threshold of the centre brightness (the USAN area) is counted and the
//! classic response `g − n` (when `n < g`) is folded into the checksum.
//! `susanc` (corners) uses a 5×5 mask on a 40×40 image; `susane` (edges)
//! uses a 3×3 mask on a 64×64 image. 2-D strided neighbour access is the
//! kernels' defining memory pattern.

use crate::{checksum_fold, lcg_next};

const LCG_MUL: u32 = 1664525;
const LCG_INC: u32 = 1013904223;

const SIM_THRESHOLD: i32 = 27;

struct SusanParams {
    name: &'static str,
    seed: u32,
    dim: u32,
    border: u32,
    g: u32,
    /// Neighbour offsets (dr, dc), excluding the centre.
    offsets: Vec<(i32, i32)>,
}

fn susanc_params() -> SusanParams {
    let mut offsets = Vec::new();
    for dr in -2i32..=2 {
        for dc in -2i32..=2 {
            if (dr, dc) != (0, 0) {
                offsets.push((dr, dc));
            }
        }
    }
    SusanParams {
        name: "susanc",
        seed: 40_004,
        dim: 40,
        border: 2,
        g: 18,
        offsets,
    }
}

fn susane_params() -> SusanParams {
    let mut offsets = Vec::new();
    for dr in -1i32..=1 {
        for dc in -1i32..=1 {
            if (dr, dc) != (0, 0) {
                offsets.push((dr, dc));
            }
        }
    }
    SusanParams {
        name: "susane",
        seed: 64_064,
        dim: 64,
        border: 1,
        g: 6,
        offsets,
    }
}

fn gen_susan(p: &SusanParams) -> String {
    let pad = crate::pad_asm(
        "t3",
        "t0",
        p.seed ^ 0x5a5a,
        if p.name == "susanc" { 230 } else { 200 },
    );
    let offs: Vec<String> = p
        .offsets
        .iter()
        .map(|(dr, dc)| (dr * p.dim as i32 + dc).to_string())
        .collect();
    format!(
        r#"
; {name}: USAN similarity scan, {dim}x{dim} image, {k}-pixel mask
.text
main:
    li   s0, {seed}
    li   s1, 0               ; cs
    la   s2, img
    la   s3, offs
    ; --- fill image bytes ---
    li   t4, 0
fill:
    li   a2, {LCG_MUL}
    mul  s0, s0, a2
    li   a2, {LCG_INC}
    add  s0, s0, a2
    srli t1, s0, 16
    andi t1, t1, 255
    add  a0, s2, t4
    sb   t1, 0(a0)
    addi t4, t4, 1
    li   a2, {npix}
    blt  t4, a2, fill
    ; --- scan interior pixels ---
    li   t4, {border}        ; r
row_loop:
    li   a2, {row_end}
    bge  t4, a2, done
    li   t3, {border}        ; c
col_loop:
    li   a2, {row_end}
    bge  t3, a2, row_next
    ; center = img[r*dim + c]
    li   a0, {dim}
    mul  a0, t4, a0
    add  a0, a0, t3
    add  a1, s2, a0
    lbu  t0, 0(a1)           ; center
    ; count similar neighbours
    li   t1, 0               ; n
    li   t2, 0               ; k
mask_loop:
    li   a2, {k}
    bge  t2, a2, mask_done
    slli a1, t2, 2
    add  a1, s3, a1
    lw   a1, 0(a1)           ; offset (signed words of index delta)
    add  a1, a1, a0          ; neighbour index
    add  a1, s2, a1
    lbu  a1, 0(a1)
    sub  a1, a1, t0
    bgez a1, absd
    neg  a1, a1
absd:
    li   a2, {thresh}
    bgt  a1, a2, not_sim
    addi t1, t1, 1
not_sim:
    addi t2, t2, 1
    j    mask_loop
mask_done:
    ; response = n < g ? g - n : 0
    li   a1, {g}
    blt  t1, a1, respond
    li   a1, 0
    j    fold_resp
respond:
    sub  a1, a1, t1
fold_resp:
    li   a2, 31
    mul  s1, s1, a2
    add  s1, s1, a1
{pad}
    addi t3, t3, 1
    j    col_loop
row_next:
    addi t4, t4, 1
    j    row_loop
done:
    la   a1, result
    sw   s1, 0(a1)
    mv   a0, s1
    halt
.data
result: .word 0
offs:   .word {offs_list}
img:    .space {npix}
"#,
        name = p.name,
        seed = p.seed,
        dim = p.dim,
        k = p.offsets.len(),
        npix = p.dim * p.dim,
        border = p.border,
        row_end = p.dim - p.border,
        thresh = SIM_THRESHOLD,
        g = p.g,
        offs_list = offs.join(", "),
    )
}

/// Generates the `susanc` assembly.
pub fn gen_susanc() -> String {
    gen_susan(&susanc_params())
}

/// Generates the `susane` assembly.
pub fn gen_susane() -> String {
    gen_susan(&susane_params())
}

fn ref_susan(p: &SusanParams) -> u32 {
    let dim = p.dim as usize;
    let mut x = p.seed;
    let img: Vec<u8> = (0..dim * dim)
        .map(|_| {
            x = lcg_next(x);
            ((x >> 16) & 255) as u8
        })
        .collect();
    let mut cs = 0u32;
    let border = p.border as usize;
    for r in border..dim - border {
        for c in border..dim - border {
            let center = img[r * dim + c] as i32;
            let mut n = 0u32;
            for &(dr, dc) in &p.offsets {
                let idx = ((r as i32 + dr) * dim as i32 + (c as i32 + dc)) as usize;
                let d = (img[idx] as i32 - center).abs();
                if d <= SIM_THRESHOLD {
                    n += 1;
                }
            }
            let resp = p.g.saturating_sub(n);
            cs = checksum_fold(cs, resp);
        }
    }
    cs
}

/// Reference model for [`gen_susanc`].
pub fn ref_susanc() -> u32 {
    ref_susan(&susanc_params())
}

/// Reference model for [`gen_susane`].
pub fn ref_susane() -> u32 {
    ref_susan(&susane_params())
}

#[cfg(test)]
mod tests {
    use crate::{by_name, check_workload};

    #[test]
    fn susanc_matches_reference() {
        check_workload(by_name("susanc").unwrap());
    }

    #[test]
    fn susane_matches_reference() {
        check_workload(by_name("susane").unwrap());
    }

    #[test]
    fn masks_have_expected_sizes() {
        assert_eq!(super::susanc_params().offsets.len(), 24);
        assert_eq!(super::susane_params().offsets.len(), 8);
    }
}
