//! `adpcmd`/`adpcme`, `g721d`/`g721e`, `gsmd`/`gsme` — audio-codec
//! kernels (MediaBench stand-ins).
//!
//! * **adpcm** — the real IMA ADPCM step/index algorithm with the
//!   standard 89-entry step table (table-lookup heavy).
//! * **g721** — a G.721-style adaptive-predictor codec: 1-tap adaptive
//!   prediction, adaptive quantiser step, per-sample division.
//! * **gsm** — frame-based processing: the encoder computes 9-lag
//!   autocorrelations per 160-sample frame; the decoder runs long-term
//!   prediction against a history buffer.

use crate::{checksum_fold, lcg_next};

const LCG_MUL: u32 = 1664525;
const LCG_INC: u32 = 1013904223;

/// The standard IMA ADPCM step-size table.
const STEP_TABLE: [i32; 89] = [
    7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31, 34, 37, 41, 45, 50, 55, 60, 66,
    73, 80, 88, 97, 107, 118, 130, 143, 157, 173, 190, 209, 230, 253, 279, 307, 337, 371, 408, 449,
    494, 544, 598, 658, 724, 796, 876, 963, 1060, 1166, 1282, 1411, 1552, 1707, 1878, 2066, 2272,
    2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871, 5358, 5894, 6484, 7132, 7845, 8630, 9493,
    10442, 11487, 12635, 13899, 15289, 16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767,
];

/// The standard IMA ADPCM index-adjust table (indexed by the 4-bit code).
const INDEX_TABLE: [i32; 16] = [-1, -1, -1, -1, 2, 4, 6, 8, -1, -1, -1, -1, 2, 4, 6, 8];

fn step_table_words() -> String {
    STEP_TABLE
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

fn index_table_words() -> String {
    INDEX_TABLE
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

// ---------------------------------------------------------------------
// adpcme — IMA ADPCM encoder
// ---------------------------------------------------------------------

const ADPCM_N: u32 = 3000;
const ADPCME_SEED: u32 = 99;

/// Generates the `adpcme` assembly.
pub fn gen_adpcme() -> String {
    let pad = crate::pad_asm("s2", "t0", 0xadce, 230);
    format!(
        r#"
; adpcme: IMA ADPCM encoder, {ADPCM_N} samples
.text
main:
    li   s0, {ADPCME_SEED}
    li   s1, 0               ; cs
    li   s2, 0               ; i
    li   s3, {ADPCM_N}
    la   t4, state
outer:
    li   a2, {LCG_MUL}
    mul  s0, s0, a2
    li   a2, {LCG_INC}
    add  s0, s0, a2
    srli t0, s0, 16
    slli t0, t0, 16
    srai t0, t0, 16          ; s: signed 16-bit sample
    lw   t1, 0(t4)           ; valpred
    lw   t2, 4(t4)           ; index
    la   a0, steptab
    slli a1, t2, 2
    add  a0, a0, a1
    lw   t3, 0(a0)           ; step
    sub  a0, t0, t1          ; delta
    li   a1, 0               ; sign
    bgez a0, pos
    li   a1, 8
    neg  a0, a0
pos:
    li   a2, 0               ; code
    srli a3, t3, 3           ; vpdiff = step>>3
    blt  a0, t3, no4
    ori  a2, a2, 4
    sub  a0, a0, t3
    add  a3, a3, t3
no4:
    srli t3, t3, 1
    blt  a0, t3, no2
    ori  a2, a2, 2
    sub  a0, a0, t3
    add  a3, a3, t3
no2:
    srli t3, t3, 1
    blt  a0, t3, no1
    ori  a2, a2, 1
    add  a3, a3, t3
no1:
    beqz a1, addv
    sub  t1, t1, a3
    j    clampv
addv:
    add  t1, t1, a3
clampv:
    li   a0, 32767
    ble  t1, a0, ck1
    mv   t1, a0
ck1:
    li   a0, -32768
    bge  t1, a0, ck2
    mv   t1, a0
ck2:
    or   a2, a2, a1          ; code |= sign
    la   a0, indextab
    slli a1, a2, 2
    add  a0, a0, a1
    lw   a0, 0(a0)
    add  t2, t2, a0
    bgez t2, ck3
    li   t2, 0
ck3:
    li   a0, 88
    ble  t2, a0, ck4
    mv   t2, a0
ck4:
    sw   t1, 0(t4)
    sw   t2, 4(t4)
    li   a0, 31
    mul  s1, s1, a0
    add  s1, s1, a2
{pad}
    addi s2, s2, 1
    blt  s2, s3, outer
    la   a1, result
    sw   s1, 0(a1)
    mv   a0, s1
    halt
.data
result:   .word 0
state:    .word 0, 0
steptab:  .word {steps}
indextab: .word {indexes}
"#,
        steps = step_table_words(),
        indexes = index_table_words(),
    )
}

/// Reference model for [`gen_adpcme`].
pub fn ref_adpcme() -> u32 {
    let mut x = ADPCME_SEED;
    let (mut valpred, mut index) = (0i32, 0i32);
    let mut cs = 0u32;
    for _ in 0..ADPCM_N {
        x = lcg_next(x);
        let s = (x >> 16) as u16 as i16 as i32;
        let step = STEP_TABLE[index as usize];
        let mut delta = s - valpred;
        let sign = if delta < 0 { 8 } else { 0 };
        if sign != 0 {
            delta = -delta;
        }
        let mut code = 0i32;
        let mut vpdiff = step >> 3;
        let mut st = step;
        if delta >= st {
            code |= 4;
            delta -= st;
            vpdiff += st;
        }
        st >>= 1;
        if delta >= st {
            code |= 2;
            delta -= st;
            vpdiff += st;
        }
        st >>= 1;
        if delta >= st {
            code |= 1;
            vpdiff += st;
        }
        valpred = if sign != 0 {
            valpred - vpdiff
        } else {
            valpred + vpdiff
        };
        valpred = valpred.clamp(-32768, 32767);
        code |= sign;
        index = (index + INDEX_TABLE[code as usize]).clamp(0, 88);
        cs = checksum_fold(cs, code as u32);
    }
    cs
}

// ---------------------------------------------------------------------
// adpcmd — IMA ADPCM decoder
// ---------------------------------------------------------------------

const ADPCMD_SEED: u32 = 1234;

/// Generates the `adpcmd` assembly.
pub fn gen_adpcmd() -> String {
    let pad = crate::pad_asm("s2", "t0", 0xadcd, 230);
    format!(
        r#"
; adpcmd: IMA ADPCM decoder, {ADPCM_N} codes
.text
main:
    li   s0, {ADPCMD_SEED}
    li   s1, 0               ; cs
    li   s2, 0               ; i
    li   s3, {ADPCM_N}
    la   t4, state
outer:
    li   a2, {LCG_MUL}
    mul  s0, s0, a2
    li   a2, {LCG_INC}
    add  s0, s0, a2
    srli t0, s0, 16
    andi t0, t0, 15          ; code
    lw   t1, 0(t4)           ; valpred
    lw   t2, 4(t4)           ; index
    la   a0, steptab
    slli a1, t2, 2
    add  a0, a0, a1
    lw   t3, 0(a0)           ; step
    ; index += indextab[code], clamped
    la   a0, indextab
    slli a1, t0, 2
    add  a0, a0, a1
    lw   a0, 0(a0)
    add  t2, t2, a0
    bgez t2, dk1
    li   t2, 0
dk1:
    li   a0, 88
    ble  t2, a0, dk2
    mv   t2, a0
dk2:
    ; vpdiff = step>>3 (+ step if bit2, + step>>1 if bit1, + step>>2 if bit0)
    srli a3, t3, 3
    andi a0, t0, 4
    beqz a0, dn4
    add  a3, a3, t3
dn4:
    srli t3, t3, 1
    andi a0, t0, 2
    beqz a0, dn2
    add  a3, a3, t3
dn2:
    srli t3, t3, 1
    andi a0, t0, 1
    beqz a0, dn1
    add  a3, a3, t3
dn1:
    andi a0, t0, 8
    beqz a0, daddv
    sub  t1, t1, a3
    j    dclampv
daddv:
    add  t1, t1, a3
dclampv:
    li   a0, 32767
    ble  t1, a0, dck1
    mv   t1, a0
dck1:
    li   a0, -32768
    bge  t1, a0, dck2
    mv   t1, a0
dck2:
    sw   t1, 0(t4)
    sw   t2, 4(t4)
    li   a0, 31
    mul  s1, s1, a0
    ; fold the low 16 bits of the sample
    li   a1, 65535
    and  a2, t1, a1
    add  s1, s1, a2
{pad}
    addi s2, s2, 1
    blt  s2, s3, outer
    la   a1, result
    sw   s1, 0(a1)
    mv   a0, s1
    halt
.data
result:   .word 0
state:    .word 0, 0
steptab:  .word {steps}
indextab: .word {indexes}
"#,
        steps = step_table_words(),
        indexes = index_table_words(),
    )
}

/// Reference model for [`gen_adpcmd`].
pub fn ref_adpcmd() -> u32 {
    let mut x = ADPCMD_SEED;
    let (mut valpred, mut index) = (0i32, 0i32);
    let mut cs = 0u32;
    for _ in 0..ADPCM_N {
        x = lcg_next(x);
        let code = ((x >> 16) & 15) as i32;
        let step = STEP_TABLE[index as usize];
        index = (index + INDEX_TABLE[code as usize]).clamp(0, 88);
        let mut vpdiff = step >> 3;
        if code & 4 != 0 {
            vpdiff += step;
        }
        if code & 2 != 0 {
            vpdiff += step >> 1;
        }
        if code & 1 != 0 {
            vpdiff += step >> 2;
        }
        valpred = if code & 8 != 0 {
            valpred - vpdiff
        } else {
            valpred + vpdiff
        };
        valpred = valpred.clamp(-32768, 32767);
        cs = checksum_fold(cs, (valpred & 0xffff) as u32);
    }
    cs
}

// ---------------------------------------------------------------------
// g721e / g721d — adaptive-predictor codec
// ---------------------------------------------------------------------

const G721_N: u32 = 2500;
const G721E_SEED: u32 = 555;
const G721D_SEED: u32 = 666;

/// Shared state-update snippet notes: state layout in memory is
/// `[p1, p2, a, step]` (words). See the reference models for the exact
/// arithmetic.
fn gen_g721(encode: bool) -> String {
    let pad = crate::pad_asm("s2", "t0", if encode { 0x721e } else { 0x721d }, 230);
    let seed = if encode { G721E_SEED } else { G721D_SEED };
    let name = if encode { "g721e" } else { "g721d" };
    // Input production differs; both then share the reconstruction and
    // adaptation datapath.
    let input = if encode {
        r#"
    ; sample s = signed 16-bit from LCG
    srli t0, s0, 16
    slli t0, t0, 16
    srai t0, t0, 16          ; t0 = s
    ; e = s - pred ; q = clamp(e/step, -7, 7)
    sub  a0, t0, a3          ; e
    div  t0, a0, t2          ; q = e / step
    li   a1, 7
    ble  t0, a1, qc1
    mv   t0, a1
qc1:
    li   a1, -7
    bge  t0, a1, qc2
    mv   t0, a1
qc2:
    ; sign flag for coeff adaptation comes from e
    slti a0, a0, 0           ; a0 = (e < 0)
    ; fold the 4-bit code now, while q is still live in t0
    ; (the adaptation code below reuses t0)
    andi a2, t0, 15
    li   a1, 31
    mul  s1, s1, a1
    add  s1, s1, a2
"#
    } else {
        r#"
    ; 4-bit code from LCG, sign-extended to q in [-8, 7]
    srli t0, s0, 16
    andi t0, t0, 15
    slli t0, t0, 28
    srai t0, t0, 28          ; q
    ; sign flag for coeff adaptation comes from q
    slti a0, t0, 0           ; a0 = (q < 0)
"#
    };
    let foldv = if encode {
        // The code was already folded inside the input block (q's
        // register is clobbered by the adaptation logic).
        ""
    } else {
        // fold the low 16 bits of the reconstruction
        r#"
    li   a1, 65535
    and  a2, t3, a1
    li   a1, 31
    mul  s1, s1, a1
    add  s1, s1, a2
"#
    };
    format!(
        r#"
; {name}: G.721-style adaptive predictor, {G721_N} samples
.text
main:
    li   s0, {seed}
    li   s1, 0               ; cs
    li   s2, 0               ; i
    li   s3, {G721_N}
    la   t4, state
    ; init: p1=0 p2=0 a=64 step=16
    li   a0, 64
    sw   a0, 8(t4)
    li   a0, 16
    sw   a0, 12(t4)
outer:
    li   a2, {LCG_MUL}
    mul  s0, s0, a2
    li   a2, {LCG_INC}
    add  s0, s0, a2
    ; load state: t1=p1 a2=p2 (temporarily) t2=step a3=pred
    lw   t1, 0(t4)           ; p1
    lw   a2, 4(t4)           ; p2
    lw   t2, 12(t4)          ; step
    lw   a3, 8(t4)           ; a (coeff)
    sub  a1, t1, a2          ; d = p1 - p2
    mul  a3, a3, a1          ; a*d
    srai a3, a3, 8
    add  a3, t1, a3          ; pred = p1 + (a*d >> 8)
    ; stash d's sign in t3 for adaptation (d < 0)
    slti t3, a1, 0
{input}
    ; here: t0 = q, a0 = (err sign), t3 = (d sign), a3 = pred, t2 = step
    ; rec = pred + q*step
    mul  a1, t0, t2
    add  a1, a3, a1          ; rec (before clamp)
    li   a2, 30000
    ble  a1, a2, rc1
    mv   a1, a2
rc1:
    li   a2, -30000
    bge  a1, a2, rc2
    mv   a1, a2
rc2:
    mv   t3, a1              ; keep rec in t3... but adaptation needs d sign
    ; NOTE: d-sign was moved into a2 below before t3 was overwritten
    ; --- step adaptation: |q| >= 4 ? step += step>>1 : step -= step>>3
    bgez t0, qa1
    neg  a2, t0
    j    qa2
qa1:
    mv   a2, t0
qa2:
    li   a1, 4
    blt  a2, a1, small_q
    srli a1, t2, 1
    add  t2, t2, a1
    j    step_clamp
small_q:
    srli a1, t2, 3
    sub  t2, t2, a1
step_clamp:
    li   a1, 4
    bge  t2, a1, sc1
    mv   t2, a1
sc1:
    li   a1, 2048
    ble  t2, a1, sc2
    mv   t2, a1
sc2:
    sw   t2, 12(t4)          ; step
    ; --- coeff adaptation: (errsign == dsign) ? a += 2 : a -= 2 ---
    lw   a1, 0(t4)           ; reload p1
    lw   a2, 4(t4)           ; reload p2
    sub  a2, a1, a2          ; d again
    slti a2, a2, 0           ; d sign
    lw   t0, 8(t4)           ; a
    beq  a0, a2, grow_a
    subi t0, t0, 2
    j    a_clamp
grow_a:
    addi t0, t0, 2
a_clamp:
    bgez t0, ac1
    li   t0, 0
ac1:
    li   a2, 255
    ble  t0, a2, ac2
    mv   t0, a2
ac2:
    sw   t0, 8(t4)
    ; --- shift reconstruction history: p2 = p1; p1 = rec ---
    sw   a1, 4(t4)
    sw   t3, 0(t4)
    ; --- fold (decoder only; encoder folds in its input block) ---
{foldv}
{pad}
    addi s2, s2, 1
    blt  s2, s3, outer
    la   a1, result
    sw   s1, 0(a1)
    mv   a0, s1
    halt
.data
result: .word 0
state:  .word 0, 0, 64, 16
"#
    )
}

/// Generates the `g721e` assembly.
pub fn gen_g721e() -> String {
    gen_g721(true)
}

/// Generates the `g721d` assembly.
pub fn gen_g721d() -> String {
    gen_g721(false)
}

fn ref_g721(encode: bool) -> u32 {
    let seed = if encode { G721E_SEED } else { G721D_SEED };
    let mut x = seed;
    let (mut p1, mut p2, mut a, mut step) = (0i32, 0i32, 64i32, 16i32);
    let mut cs = 0u32;
    for _ in 0..G721_N {
        x = lcg_next(x);
        let d = p1 - p2;
        let pred = p1 + ((a.wrapping_mul(d)) >> 8);
        let (q, err_neg) = if encode {
            let s = (x >> 16) as u16 as i16 as i32;
            let e = s - pred;
            let q = (e.wrapping_div(step)).clamp(-7, 7);
            (q, e < 0)
        } else {
            let code = ((x >> 16) & 15) as i32;
            let q = (code << 28) >> 28; // sign-extend 4 bits
            (q, q < 0)
        };
        let rec = (pred + q * step).clamp(-30000, 30000);
        // Step adaptation.
        let qa = q.abs();
        step = if qa >= 4 {
            step + (step >> 1)
        } else {
            step - (step >> 3)
        };
        step = step.clamp(4, 2048);
        // Coefficient adaptation.
        let d_neg = d < 0;
        a = if err_neg == d_neg { a + 2 } else { a - 2 };
        a = a.clamp(0, 255);
        // History.
        p2 = p1;
        p1 = rec;
        let v = if encode {
            (q & 0xf) as u32
        } else {
            (rec & 0xffff) as u32
        };
        cs = checksum_fold(cs, v);
    }
    cs
}

/// Reference model for [`gen_g721e`].
pub fn ref_g721e() -> u32 {
    ref_g721(true)
}

/// Reference model for [`gen_g721d`].
pub fn ref_g721d() -> u32 {
    ref_g721(false)
}

// ---------------------------------------------------------------------
// gsme — autocorrelation encoder
// ---------------------------------------------------------------------

const GSM_FRAMES: u32 = 12;
const GSM_FRAME_LEN: u32 = 160;
const GSME_SEED: u32 = 2024;

/// Generates the `gsme` assembly: per 160-sample frame, computes the
/// 9-lag autocorrelation of the (scaled) samples and folds the
/// normalised coefficients.
pub fn gen_gsme() -> String {
    let pad = crate::pad_asm("s2", "t0", 0x95e, 230);
    format!(
        r#"
; gsme: 9-lag autocorrelation over {GSM_FRAMES} frames of {GSM_FRAME_LEN}
.text
main:
    li   s0, {GSME_SEED}
    li   s1, 0               ; cs
    li   s2, 0               ; frame
frame_loop:
    li   t0, {GSM_FRAMES}
    bge  s2, t0, done
    ; --- generate frame: sc[i] = (signed sample) >> 4 ---
    la   s3, frame
    li   t0, 0
gen:
    li   a2, {LCG_MUL}
    mul  s0, s0, a2
    li   a2, {LCG_INC}
    add  s0, s0, a2
    srli t1, s0, 16
    slli t1, t1, 16
    srai t1, t1, 20          ; (i16 sample) >> 4
    slli t2, t0, 2
    add  t2, s3, t2
    sw   t1, 0(t2)
    addi t0, t0, 1
    li   a2, {GSM_FRAME_LEN}
    blt  t0, a2, gen
    ; --- acf0 for normalisation ---
    li   t4, 0               ; k = 0
    li   a3, 1               ; norm = 1 (patched after k=0)
acf_loop:
    li   t0, 9
    bge  t4, t0, frame_done
    ; acf = sum_{{i=k}}^{{159}} sc[i]*sc[i-k]
    li   t0, 0               ; acc
    mv   t1, t4              ; i = k
mac:
    slli t2, t1, 2
    add  t2, s3, t2
    lw   a0, 0(t2)           ; sc[i]
    sub  t3, t1, t4
    slli t3, t3, 2
    add  t3, s3, t3
    lw   a1, 0(t3)           ; sc[i-k]
    mul  a0, a0, a1
    add  t0, t0, a0
    addi t1, t1, 1
    li   a2, {GSM_FRAME_LEN}
    blt  t1, a2, mac
    ; k == 0: norm = (acf0 >> 6) + 1
    bnez t4, not_k0
    srai a3, t0, 6
    addi a3, a3, 1
not_k0:
    div  t0, t0, a3          ; r = acf / norm
    li   a1, 31
    mul  s1, s1, a1
    add  s1, s1, t0
{pad}
    addi t4, t4, 1
    j    acf_loop
frame_done:
    addi s2, s2, 1
    j    frame_loop
done:
    la   a1, result
    sw   s1, 0(a1)
    mv   a0, s1
    halt
.data
result: .word 0
frame:  .space {frame_bytes}
"#,
        frame_bytes = GSM_FRAME_LEN * 4,
    )
}

/// Reference model for [`gen_gsme`].
pub fn ref_gsme() -> u32 {
    let mut x = GSME_SEED;
    let mut cs = 0u32;
    for _ in 0..GSM_FRAMES {
        let sc: Vec<i32> = (0..GSM_FRAME_LEN)
            .map(|_| {
                x = lcg_next(x);
                // ((i16 sample) << 16) >> 20 == sample >> 4 with sign.
                (((x >> 16) as u16 as i16 as i32) << 16) >> 20
            })
            .collect();
        let mut norm = 1i32;
        for k in 0..9usize {
            let mut acc = 0i32;
            for i in k..GSM_FRAME_LEN as usize {
                acc = acc.wrapping_add(sc[i].wrapping_mul(sc[i - k]));
            }
            if k == 0 {
                norm = (acc >> 6) + 1;
            }
            let r = acc.wrapping_div(norm);
            cs = checksum_fold(cs, r as u32);
        }
    }
    cs
}

// ---------------------------------------------------------------------
// gsmd — long-term-prediction decoder
// ---------------------------------------------------------------------

const GSMD_SEED: u32 = 808;
const GSM_B: i32 = 230; // Q8 LTP gain

/// Generates the `gsmd` assembly: reconstructs each frame by adding a
/// long-term prediction (lag 40–103, gain 230/256) from the output
/// history to an LCG residual.
pub fn gen_gsmd() -> String {
    let pad = crate::pad_asm("t0", "t1", 0x95d, 230);
    format!(
        r#"
; gsmd: LTP reconstruction over {GSM_FRAMES} frames of {GSM_FRAME_LEN}
.text
main:
    li   s0, {GSMD_SEED}
    li   s1, 0               ; cs
    li   s2, 0               ; frame
    la   s3, out             ; history+output buffer, first 160 zeroed
frame_loop:
    li   t0, {GSM_FRAMES}
    bge  s2, t0, done
    ; lag = 40 + (lcg>>16)&63
    li   a2, {LCG_MUL}
    mul  s0, s0, a2
    li   a2, {LCG_INC}
    add  s0, s0, a2
    srli t4, s0, 16
    andi t4, t4, 63
    addi t4, t4, 40          ; lag
    li   t0, 0               ; i
sample:
    ; residual r = (i16 from LCG) >> 2
    li   a2, {LCG_MUL}
    mul  s0, s0, a2
    li   a2, {LCG_INC}
    add  s0, s0, a2
    srli t1, s0, 16
    slli t1, t1, 16
    srai t1, t1, 18          ; r
    ; idx = (frame*160 + 160 + i)
    li   a0, {GSM_FRAME_LEN}
    mul  a1, s2, a0
    add  a1, a1, a0
    add  a1, a1, t0          ; idx
    sub  a2, a1, t4          ; idx - lag
    slli a2, a2, 2
    add  a2, s3, a2
    lw   a2, 0(a2)           ; past
    li   a3, {GSM_B}
    mul  a2, a2, a3
    srai a2, a2, 8
    add  t1, t1, a2          ; v = r + (b*past)>>8
    li   a2, 30000
    ble  t1, a2, vc1
    mv   t1, a2
vc1:
    li   a2, -30000
    bge  t1, a2, vc2
    mv   t1, a2
vc2:
    slli a2, a1, 2
    add  a2, s3, a2
    sw   t1, 0(a2)           ; out[idx] = v
    ; fold every sample (low 16 bits)
    li   a2, 65535
    and  a2, t1, a2
    li   a3, 31
    mul  s1, s1, a3
    add  s1, s1, a2
{pad}
    addi t0, t0, 1
    li   a2, {GSM_FRAME_LEN}
    blt  t0, a2, sample
    addi s2, s2, 1
    j    frame_loop
done:
    la   a1, result
    sw   s1, 0(a1)
    mv   a0, s1
    halt
.data
result: .word 0
out:    .space {out_bytes}
"#,
        out_bytes = (GSM_FRAMES + 1) * GSM_FRAME_LEN * 4,
    )
}

/// Reference model for [`gen_gsmd`].
pub fn ref_gsmd() -> u32 {
    let mut x = GSMD_SEED;
    let mut cs = 0u32;
    let n = ((GSM_FRAMES + 1) * GSM_FRAME_LEN) as usize;
    let mut out = vec![0i32; n];
    for f in 0..GSM_FRAMES as usize {
        x = lcg_next(x);
        let lag = (40 + ((x >> 16) & 63)) as usize;
        for i in 0..GSM_FRAME_LEN as usize {
            x = lcg_next(x);
            let r = (((x >> 16) as u16 as i16 as i32) << 16) >> 18;
            let idx = f * GSM_FRAME_LEN as usize + GSM_FRAME_LEN as usize + i;
            let past = out[idx - lag];
            let v = (r + ((past.wrapping_mul(GSM_B)) >> 8)).clamp(-30000, 30000);
            out[idx] = v;
            cs = checksum_fold(cs, (v & 0xffff) as u32);
        }
    }
    cs
}

#[cfg(test)]
mod tests {
    use crate::{by_name, check_workload};

    #[test]
    fn adpcme_matches_reference() {
        check_workload(by_name("adpcme").unwrap());
    }

    #[test]
    fn adpcmd_matches_reference() {
        check_workload(by_name("adpcmd").unwrap());
    }

    #[test]
    fn g721e_matches_reference() {
        check_workload(by_name("g721e").unwrap());
    }

    #[test]
    fn g721d_matches_reference() {
        check_workload(by_name("g721d").unwrap());
    }

    #[test]
    fn gsme_matches_reference() {
        check_workload(by_name("gsme").unwrap());
    }

    #[test]
    fn gsmd_matches_reference() {
        check_workload(by_name("gsmd").unwrap());
    }

    #[test]
    fn encoder_decoder_checksums_differ() {
        assert_ne!(super::ref_adpcme(), super::ref_adpcmd());
        assert_ne!(super::ref_g721e(), super::ref_g721d());
    }
}
