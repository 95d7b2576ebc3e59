//! `fft`, `ifft`, `jpegd`, `unepic` — signal/image transform kernels
//! (MediaBench stand-ins).
//!
//! * **fft/ifft** — a real iterative radix-2 fixed-point FFT (Q14
//!   twiddles from an embedded sine table, per-stage scaling), 512
//!   points. Bit-reversal plus strided butterflies give the classic FFT
//!   access pattern.
//! * **jpegd** — dequantisation (standard JPEG luminance table) followed
//!   by a separable 8×8 integer Walsh–Hadamard reconstruction over a
//!   stream of coefficient blocks — the row/column-pass structure of an
//!   IDCT with exact integer arithmetic.
//! * **unepic** — multi-level inverse Haar wavelet reconstruction of a
//!   64×64 image (EPIC's decompression core): row and column passes at
//!   strides 4 and 256 bytes.

use crate::{checksum_fold, lcg_next};

const LCG_MUL: u32 = 1664525;
const LCG_INC: u32 = 1013904223;

// ---------------------------------------------------------------------
// fft / ifft
// ---------------------------------------------------------------------

const FFT_N: u32 = 512;
const FFT_BITS: u32 = 9;
const FFT_SEED: u32 = 1991;
const IFFT_SEED: u32 = 1992;

/// Q14 sine table, one full period of length [`FFT_N`].
fn sintab() -> Vec<i32> {
    (0..FFT_N)
        .map(|k| {
            let th = 2.0 * std::f64::consts::PI * k as f64 / FFT_N as f64;
            (th.sin() * 16384.0).round() as i32
        })
        .collect()
}

fn gen_fft_common(inverse: bool) -> String {
    let pad = crate::pad_asm("t3", "t0", if inverse { 0x1ff7 } else { 0xff7 }, 220);
    let seed = if inverse { IFFT_SEED } else { FFT_SEED };
    let name = if inverse { "ifft" } else { "fft" };
    let table: Vec<String> = sintab().iter().map(|v| v.to_string()).collect();
    // Forward: wi = -sin; inverse: wi = +sin.
    let wi_sign = if inverse { "" } else { "    neg  a1, a1\n" };
    // The inverse transform also fills `im` with spectrum data.
    let im_fill = if inverse {
        r#"
    li   a2, {MUL}
    mul  s0, s0, a2
    li   a2, {INC}
    add  s0, s0, a2
    srli t2, s0, 16
    andi t2, t2, 2047
    subi t2, t2, 1024
"#
        .replace("{MUL}", &LCG_MUL.to_string())
        .replace("{INC}", &LCG_INC.to_string())
    } else {
        "    li   t2, 0\n".to_owned()
    };
    format!(
        r#"
; {name}: fixed-point radix-2 FFT, {FFT_N} points
.text
main:
    li   s0, {seed}
    la   s2, re
    la   s3, im
    ; --- fill input ---
    li   t4, 0
fill:
    li   a2, {LCG_MUL}
    mul  s0, s0, a2
    li   a2, {LCG_INC}
    add  s0, s0, a2
    srli t1, s0, 16
    andi t1, t1, 2047
    subi t1, t1, 1024        ; re sample in [-1024, 1023]
{im_fill}
    slli t0, t4, 2
    add  a0, s2, t0
    sw   t1, 0(a0)
    add  a0, s3, t0
    sw   t2, 0(a0)
    addi t4, t4, 1
    li   a2, {FFT_N}
    blt  t4, a2, fill
    ; --- bit-reverse permutation ---
    li   t4, 0
brp:
    ; r = bitrev9(i)
    mv   t0, t4
    li   t1, 0
    li   t2, {FFT_BITS}
brbit:
    slli t1, t1, 1
    andi a0, t0, 1
    or   t1, t1, a0
    srli t0, t0, 1
    subi t2, t2, 1
    bnez t2, brbit
    ble  t1, t4, brskip      ; swap only when r > i
    slli a0, t4, 2
    slli a1, t1, 2
    ; swap re
    add  a2, s2, a0
    add  a3, s2, a1
    lw   t0, 0(a2)
    lw   t2, 0(a3)
    sw   t2, 0(a2)
    sw   t0, 0(a3)
    ; swap im
    add  a2, s3, a0
    add  a3, s3, a1
    lw   t0, 0(a2)
    lw   t2, 0(a3)
    sw   t2, 0(a2)
    sw   t0, 0(a3)
brskip:
    addi t4, t4, 1
    li   a2, {FFT_N}
    blt  t4, a2, brp
    ; --- stages ---
    li   s1, 2               ; len
stage_loop:
    li   t0, {FFT_N}
    bgt  s1, t0, stages_done
    li   t4, 0               ; i
i_loop:
    li   t0, {FFT_N}
    bge  t4, t0, next_stage
    li   t3, 0               ; j
j_loop:
    srli t0, s1, 1           ; half
    bge  t3, t0, j_done
    ; k = j * (N / len)
    li   t0, {FFT_N}
    div  t0, t0, s1          ; step
    mul  t1, t3, t0          ; k
    la   a0, sintab
    slli t2, t1, 2
    add  t2, a0, t2
    lw   a1, 0(t2)           ; sin(k)
{wi_sign}    ; wr = sintab[(k + N/4) & (N-1)]
    addi t1, t1, {quarter}
    andi t1, t1, {nmask}
    slli t1, t1, 2
    add  t1, a0, t1
    lw   a0, 0(t1)           ; wr   (a1 = wi)
    ; b = (re/im)[i+j+half]
    add  t1, t4, t3
    srli t0, s1, 1
    add  t2, t1, t0
    slli t2, t2, 2           ; idxB bytes
    add  a2, s2, t2
    lw   a2, 0(a2)           ; re_b
    add  a3, s3, t2
    lw   a3, 0(a3)           ; im_b
    ; tr = (wr*re_b - wi*im_b) >> 14
    mul  t0, a0, a2
    mul  t1, a1, a3
    sub  t0, t0, t1
    srai t0, t0, 14          ; tr
    ; ti = (wr*im_b + wi*re_b) >> 14
    mul  t1, a0, a3
    mul  t2, a1, a2
    add  t1, t1, t2
    srai t1, t1, 14          ; ti
    ; recompute idxA (a2) / idxB (a3), in bytes
    add  a2, t4, t3
    srli a0, s1, 1
    add  a3, a2, a0
    slli a2, a2, 2
    slli a3, a3, 2
    ; re halves
    add  a0, s2, a2
    lw   a1, 0(a0)           ; ur
    add  t2, a1, t0
    srai t2, t2, 1
    sw   t2, 0(a0)
    sub  t2, a1, t0
    srai t2, t2, 1
    add  a0, s2, a3
    sw   t2, 0(a0)
    ; im halves
    add  a0, s3, a2
    lw   a1, 0(a0)           ; ui
    add  t2, a1, t1
    srai t2, t2, 1
    sw   t2, 0(a0)
    sub  t2, a1, t1
    srai t2, t2, 1
    add  a0, s3, a3
    sw   t2, 0(a0)
{pad}
    addi t3, t3, 1
    j    j_loop
j_done:
    add  t4, t4, s1          ; i += len
    j    i_loop
next_stage:
    slli s1, s1, 1
    j    stage_loop
stages_done:
    ; --- checksum: fold (re ^ im) & 0xffff over all points ---
    li   s1, 0
    li   t4, 0
cksum:
    slli t0, t4, 2
    add  a0, s2, t0
    lw   a1, 0(a0)
    add  a0, s3, t0
    lw   a2, 0(a0)
    xor  a1, a1, a2
    li   a2, 65535
    and  a1, a1, a2
    li   a2, 31
    mul  s1, s1, a2
    add  s1, s1, a1
    addi t4, t4, 1
    li   a2, {FFT_N}
    blt  t4, a2, cksum
    la   a1, result
    sw   s1, 0(a1)
    mv   a0, s1
    halt
.data
result: .word 0
sintab: .word {table}
re:     .space {buf}
im:     .space {buf}
"#,
        quarter = FFT_N / 4,
        nmask = FFT_N - 1,
        table = table.join(", "),
        buf = FFT_N * 4,
    )
}

/// Generates the `fft` assembly.
pub fn gen_fft() -> String {
    gen_fft_common(false)
}

/// Generates the `ifft` assembly.
pub fn gen_ifft() -> String {
    gen_fft_common(true)
}

fn ref_fft_common(inverse: bool) -> u32 {
    let seed = if inverse { IFFT_SEED } else { FFT_SEED };
    let tab = sintab();
    let n = FFT_N as usize;
    let mut x = seed;
    let mut re = vec![0i32; n];
    let mut im = vec![0i32; n];
    for i in 0..n {
        x = lcg_next(x);
        re[i] = (((x >> 16) & 2047) as i32) - 1024;
        if inverse {
            x = lcg_next(x);
            im[i] = (((x >> 16) & 2047) as i32) - 1024;
        }
    }
    // Bit-reverse permutation.
    for i in 0..n {
        let mut v = i;
        let mut r = 0usize;
        for _ in 0..FFT_BITS {
            r = (r << 1) | (v & 1);
            v >>= 1;
        }
        if r > i {
            re.swap(i, r);
            im.swap(i, r);
        }
    }
    // Stages.
    let mut len = 2usize;
    while len <= n {
        let half = len / 2;
        let step = n / len;
        let mut i = 0;
        while i < n {
            for j in 0..half {
                let k = j * step;
                let wi = if inverse { tab[k] } else { -tab[k] };
                let wr = tab[(k + n / 4) & (n - 1)];
                let (rb, ib) = (re[i + j + half], im[i + j + half]);
                let tr = (wr.wrapping_mul(rb).wrapping_sub(wi.wrapping_mul(ib))) >> 14;
                let ti = (wr.wrapping_mul(ib).wrapping_add(wi.wrapping_mul(rb))) >> 14;
                let (ur, ui) = (re[i + j], im[i + j]);
                re[i + j] = (ur + tr) >> 1;
                im[i + j] = (ui + ti) >> 1;
                re[i + j + half] = (ur - tr) >> 1;
                im[i + j + half] = (ui - ti) >> 1;
            }
            i += len;
        }
        len <<= 1;
    }
    let mut cs = 0u32;
    for i in 0..n {
        cs = checksum_fold(cs, ((re[i] ^ im[i]) & 0xffff) as u32);
    }
    cs
}

/// Reference model for [`gen_fft`].
pub fn ref_fft() -> u32 {
    ref_fft_common(false)
}

/// Reference model for [`gen_ifft`].
pub fn ref_ifft() -> u32 {
    ref_fft_common(true)
}

// ---------------------------------------------------------------------
// jpegd
// ---------------------------------------------------------------------

const JPEG_BLOCKS: u32 = 20;
const JPEG_SEED: u32 = 7321;

/// The standard JPEG luminance quantisation table (zig-zag free,
/// row-major).
const QTAB: [i32; 64] = [
    16, 11, 10, 16, 24, 40, 51, 61, 12, 12, 14, 19, 26, 58, 60, 55, 14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62, 18, 22, 37, 56, 68, 109, 103, 77, 24, 35, 55, 64, 81, 104, 113,
    92, 49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103, 99,
];

/// Generates the `jpegd` assembly: for each coefficient block, dequantise
/// with the JPEG luminance table, then run the separable 8×8 integer
/// Walsh–Hadamard reconstruction (row pass stride 4, column pass stride
/// 32) and fold the clamped output.
pub fn gen_jpegd() -> String {
    let pad = crate::pad_asm("t4", "t1", 0x79e5, 230);
    let qtab: Vec<String> = QTAB.iter().map(|v| v.to_string()).collect();
    format!(
        r#"
; jpegd: dequant + 8x8 separable WHT reconstruction, {JPEG_BLOCKS} blocks
.text
main:
    li   s0, {JPEG_SEED}
    li   s1, 0               ; cs
    li   s2, 0               ; block counter
block_loop:
    li   t0, {JPEG_BLOCKS}
    bge  s2, t0, done
    ; --- fill + dequantise 64 coefficients ---
    la   s3, blk
    li   t4, 0
fillq:
    li   a2, {LCG_MUL}
    mul  s0, s0, a2
    li   a2, {LCG_INC}
    add  s0, s0, a2
    srli t1, s0, 16
    andi t1, t1, 1023
    subi t1, t1, 512         ; coeff
    la   a0, qtab
    slli a1, t4, 2
    add  a0, a0, a1
    lw   a0, 0(a0)
    mul  t1, t1, a0          ; dequantised
    slli a1, t4, 2
    add  a1, s3, a1
    sw   t1, 0(a1)
{pad}
    addi t4, t4, 1
    li   a2, 64
    blt  t4, a2, fillq
    ; --- row passes: wht8(blk + r*32, stride 4) ---
    li   t4, 0
rows:
    slli a0, t4, 5
    add  a0, s3, a0
    li   a1, 4
    call wht8
    addi t4, t4, 1
    li   a2, 8
    blt  t4, a2, rows
    ; --- column passes: wht8(blk + c*4, stride 32) ---
    li   t4, 0
cols:
    slli a0, t4, 2
    add  a0, s3, a0
    li   a1, 32
    call wht8
    addi t4, t4, 1
    li   a2, 8
    blt  t4, a2, cols
    ; --- fold clamped pixels: p = clamp(v>>6 + 128, 0, 255) ---
    li   t4, 0
foldpx:
    slli a0, t4, 2
    add  a0, s3, a0
    lw   a1, 0(a0)
    srai a1, a1, 6
    addi a1, a1, 128
    bgez a1, fp1
    li   a1, 0
fp1:
    li   a2, 255
    ble  a1, a2, fp2
    mv   a1, a2
fp2:
    li   a2, 31
    mul  s1, s1, a2
    add  s1, s1, a1
    addi t4, t4, 1
    li   a2, 64
    blt  t4, a2, foldpx
    addi s2, s2, 1
    j    block_loop
done:
    la   a1, result
    sw   s1, 0(a1)
    mv   a0, s1
    halt

; --- wht8(a0 = base addr, a1 = stride bytes): in-place 8-point WHT.
;     t4 is treated as callee-saved (the block loops keep counters there).
wht8:
    subi sp, sp, 4
    sw   t4, 0(sp)
    li   t0, 4               ; h
wht_stage:
    beqz t0, wht_done
    li   t1, 0               ; g (group start)
wht_group:
    li   a2, 8
    bge  t1, a2, wht_next
    li   t2, 0               ; k
wht_pair:
    bge  t2, t0, wht_gnext
    ; i = g+k, j = g+k+h
    add  a2, t1, t2
    mul  a2, a2, a1
    add  a2, a0, a2          ; &v[i]
    add  a3, t1, t2
    add  a3, a3, t0
    mul  a3, a3, a1
    add  a3, a0, a3          ; &v[j]
    lw   t3, 0(a2)           ; a
    lw   t4, 0(a3)           ; b
    add  t4, t3, t4
    sw   t4, 0(a2)
    lw   t4, 0(a3)
    sub  t3, t3, t4
    sw   t3, 0(a3)
    addi t2, t2, 1
    j    wht_pair
wht_gnext:
    slli a2, t0, 1
    add  t1, t1, a2          ; g += 2h
    j    wht_group
wht_next:
    srli t0, t0, 1
    j    wht_stage
wht_done:
    lw   t4, 0(sp)
    addi sp, sp, 4
    ret
.data
result: .word 0
qtab:   .word {qtab}
blk:    .space 256
"#,
        qtab = qtab.join(", "),
    )
}

/// Reference model for [`gen_jpegd`].
pub fn ref_jpegd() -> u32 {
    fn wht8(v: &mut [i32; 64], base: usize, stride: usize) {
        let mut h = 4usize;
        while h > 0 {
            let mut g = 0usize;
            while g < 8 {
                for k in 0..h {
                    let i = base + (g + k) * stride;
                    let j = base + (g + k + h) * stride;
                    let (a, b) = (v[i], v[j]);
                    v[i] = a.wrapping_add(b);
                    v[j] = a.wrapping_sub(b);
                }
                g += 2 * h;
            }
            h >>= 1;
        }
    }
    let mut x = JPEG_SEED;
    let mut cs = 0u32;
    for _ in 0..JPEG_BLOCKS {
        let mut blk = [0i32; 64];
        for (i, b) in blk.iter_mut().enumerate() {
            x = lcg_next(x);
            let c = (((x >> 16) & 1023) as i32) - 512;
            *b = c.wrapping_mul(QTAB[i]);
        }
        for r in 0..8 {
            wht8(&mut blk, r * 8, 1);
        }
        for c in 0..8 {
            wht8(&mut blk, c, 8);
        }
        for v in blk {
            let p = ((v >> 6) + 128).clamp(0, 255);
            cs = checksum_fold(cs, p as u32);
        }
    }
    cs
}

// ---------------------------------------------------------------------
// unepic
// ---------------------------------------------------------------------

const EPIC_DIM: u32 = 64;
const EPIC_SEED: u32 = 515;

/// Generates the `unepic` assembly: fills a 64×64 coefficient image and
/// reconstructs it through three inverse-Haar levels (16→32→64), rows
/// then columns per level.
pub fn gen_unepic() -> String {
    let pad = crate::pad_asm("s3", "t0", 0x0e71c, 150);
    let pad2 = crate::pad_asm("s3", "t0", 0x1e71c, 150);
    format!(
        r#"
; unepic: 3-level inverse Haar reconstruction of a {EPIC_DIM}x{EPIC_DIM} image
.text
main:
    li   s0, {EPIC_SEED}
    la   s2, img
    ; --- fill coefficients in [-1024, 1023] ---
    li   t4, 0
fill:
    li   a2, {LCG_MUL}
    mul  s0, s0, a2
    li   a2, {LCG_INC}
    add  s0, s0, a2
    srli t1, s0, 16
    andi t1, t1, 2047
    subi t1, t1, 1024
    slli t0, t4, 2
    add  a0, s2, t0
    sw   t1, 0(a0)
    addi t4, t4, 1
    li   a2, {npix}
    blt  t4, a2, fill
    ; --- levels: size = 16, 32, 64 ---
    li   s1, 16
level:
    li   t0, {EPIC_DIM}
    bgt  s1, t0, levels_done
    ; row passes: ipass(img + r*256, half=size/2, stride=4) for r < size
    li   s3, 0
rowp:
    bge  s3, s1, colp_init
    slli a0, s3, 8           ; r * 64 * 4
    add  a0, s2, a0
    srli a1, s1, 1
    li   a2, 4
    call ipass
{pad}
    addi s3, s3, 1
    j    rowp
colp_init:
    li   s3, 0
colp:
    bge  s3, s1, level_next
    slli a0, s3, 2           ; c * 4
    add  a0, s2, a0
    srli a1, s1, 1
    li   a2, 256             ; 64 words per row
    call ipass
{pad2}
    addi s3, s3, 1
    j    colp
level_next:
    slli s1, s1, 1
    j    level
levels_done:
    ; --- checksum all pixels ---
    li   s1, 0
    li   t4, 0
cksum:
    slli t0, t4, 2
    add  a0, s2, t0
    lw   a1, 0(a0)
    li   a2, 65535
    and  a1, a1, a2
    li   a2, 31
    mul  s1, s1, a2
    add  s1, s1, a1
    addi t4, t4, 1
    li   a2, {npix}
    blt  t4, a2, cksum
    la   a1, result
    sw   s1, 0(a1)
    mv   a0, s1
    halt

; --- ipass(a0 = base, a1 = half, a2 = stride bytes): inverse Haar pairs
;     via the tmp buffer ---
ipass:
    ; tmp[2k] = v[k] + v[k+half]; tmp[2k+1] = v[k] - v[k+half]
    li   t0, 0               ; k
ip1:
    bge  t0, a1, ip2_init
    mul  t1, t0, a2
    add  t1, a0, t1
    lw   t2, 0(t1)           ; a = v[k]
    add  t1, t0, a1
    mul  t1, t1, a2
    add  t1, a0, t1
    lw   t3, 0(t1)           ; d = v[k+half]
    la   a3, tmp
    slli t1, t0, 3           ; 2k words -> 8k bytes
    add  a3, a3, t1
    add  t1, t2, t3
    sw   t1, 0(a3)
    sub  t1, t2, t3
    sw   t1, 4(a3)
    addi t0, t0, 1
    j    ip1
ip2_init:
    ; copy back: v[k*stride] = tmp[k] for k < 2*half
    li   t0, 0
    slli t3, a1, 1           ; 2*half
ip2:
    bge  t0, t3, ip_done
    la   a3, tmp
    slli t1, t0, 2
    add  a3, a3, t1
    lw   t2, 0(a3)
    mul  t1, t0, a2
    add  t1, a0, t1
    sw   t2, 0(t1)
    addi t0, t0, 1
    j    ip2
ip_done:
    ret
.data
result: .word 0
tmp:    .space 256
img:    .space {img_bytes}
"#,
        npix = EPIC_DIM * EPIC_DIM,
        img_bytes = EPIC_DIM * EPIC_DIM * 4,
    )
}

/// Reference model for [`gen_unepic`].
pub fn ref_unepic() -> u32 {
    let dim = EPIC_DIM as usize;
    let mut x = EPIC_SEED;
    let mut img = vec![0i32; dim * dim];
    for p in img.iter_mut() {
        x = lcg_next(x);
        *p = (((x >> 16) & 2047) as i32) - 1024;
    }
    fn ipass(img: &mut [i32], base: usize, half: usize, stride: usize) {
        let mut tmp = [0i32; 64];
        for k in 0..half {
            let a = img[base + k * stride];
            let d = img[base + (k + half) * stride];
            tmp[2 * k] = a.wrapping_add(d);
            tmp[2 * k + 1] = a.wrapping_sub(d);
        }
        for (k, item) in tmp.iter().enumerate().take(2 * half) {
            img[base + k * stride] = *item;
        }
    }
    let mut size = 16usize;
    while size <= dim {
        for r in 0..size {
            ipass(&mut img, r * dim, size / 2, 1);
        }
        for c in 0..size {
            ipass(&mut img, c, size / 2, dim);
        }
        size <<= 1;
    }
    let mut cs = 0u32;
    for v in img {
        cs = checksum_fold(cs, (v & 0xffff) as u32);
    }
    cs
}

#[cfg(test)]
mod tests {
    use crate::{by_name, check_workload};

    #[test]
    fn fft_matches_reference() {
        check_workload(by_name("fft").unwrap());
    }

    #[test]
    fn ifft_matches_reference() {
        check_workload(by_name("ifft").unwrap());
    }

    #[test]
    fn jpegd_matches_reference() {
        check_workload(by_name("jpegd").unwrap());
    }

    #[test]
    fn unepic_matches_reference() {
        check_workload(by_name("unepic").unwrap());
    }

    #[test]
    fn fft_and_ifft_differ() {
        assert_ne!(super::ref_fft(), super::ref_ifft());
    }
}
