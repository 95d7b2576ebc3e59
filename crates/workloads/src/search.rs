//! `qsort`, `strings`, `patricia` — sorting, searching and
//! pointer-chasing kernels (MiBench stand-ins).

use crate::{checksum_fold, lcg_next, LCG_INC, LCG_MUL};

// ---------------------------------------------------------------------
// qsort
// ---------------------------------------------------------------------

const QSORT_N: u32 = 2048;
const QSORT_SEED: u32 = 777;

/// Generates the `qsort` assembly: an iterative Lomuto quicksort over
/// `QSORT_N` LCG-filled words, checksumming the sorted array.
pub fn gen_qsort() -> String {
    let pad = crate::pad_asm("t0", "a0", 0x95027, 230);
    format!(
        r#"
; qsort: iterative quicksort of {QSORT_N} words
.text
main:
    ; --- fill arr with LCG values (0..65535) ---
    li   s0, {QSORT_SEED}
    la   s2, arr
    li   t0, 0
    li   t1, {QSORT_N}
    li   a2, {LCG_MUL}
    li   a3, {LCG_INC}
fill:
    mul  s0, s0, a2
    add  s0, s0, a3
    srli t2, s0, 16
    slli t3, t0, 2
    add  t3, s2, t3
    sw   t2, 0(t3)
    addi t0, t0, 1
    blt  t0, t1, fill
    ; --- push (0, N-1) on the work stack ---
    la   s3, stk             ; stack pointer (grows up, 8 bytes/frame)
    li   t0, 0
    li   t1, {QSORT_N}
    subi t1, t1, 1
    sw   t0, 0(s3)
    sw   t1, 4(s3)
    addi s3, s3, 8
loop:
    la   t2, stk
    beq  s3, t2, done        ; stack empty
    subi s3, s3, 8
    lw   t0, 0(s3)           ; lo
    lw   t1, 4(s3)           ; hi
    bge  t0, t1, loop
    ; --- Lomuto partition: pivot = arr[hi] ---
    slli a0, t1, 2
    add  a0, s2, a0
    lw   t4, 0(a0)           ; pivot
    subi t2, t0, 1           ; i = lo-1
    mv   t3, t0              ; j = lo
part:
    bge  t3, t1, part_done
    slli a0, t3, 2
    add  a0, s2, a0
    lw   a1, 0(a0)           ; arr[j]
    bgt  a1, t4, no_swap
    addi t2, t2, 1
    slli a2, t2, 2
    add  a2, s2, a2
    lw   a3, 0(a2)           ; arr[i]
    sw   a1, 0(a2)
    sw   a3, 0(a0)
no_swap:
    addi t3, t3, 1
    j    part
part_done:
    addi t2, t2, 1           ; p = i+1
    slli a0, t2, 2
    add  a0, s2, a0
    lw   a1, 0(a0)           ; arr[p]
    slli a2, t1, 2
    add  a2, s2, a2
    lw   a3, 0(a2)           ; arr[hi]
    sw   a3, 0(a0)
    sw   a1, 0(a2)
    ; --- push (lo, p-1) and (p+1, hi) ---
    subi a0, t2, 1
    sw   t0, 0(s3)
    sw   a0, 4(s3)
    addi s3, s3, 8
    addi a0, t2, 1
    sw   a0, 0(s3)
    sw   t1, 4(s3)
    addi s3, s3, 8
{pad}
    ; restore LCG constants clobbered by partition scratch
    li   a2, {LCG_MUL}
    li   a3, {LCG_INC}
    j    loop
done:
    ; --- checksum sorted array ---
    li   s1, 0
    li   t0, 0
    li   t1, {QSORT_N}
    li   a1, 31
cksum:
    slli t2, t0, 2
    add  t2, s2, t2
    lw   t3, 0(t2)
    mul  s1, s1, a1
    add  s1, s1, t3
    addi t0, t0, 1
    blt  t0, t1, cksum
    la   a1, result
    sw   s1, 0(a1)
    mv   a0, s1
    halt
.data
result: .word 0
arr:    .space {arr_bytes}
stk:    .space {stk_bytes}
"#,
        arr_bytes = QSORT_N * 4,
        stk_bytes = QSORT_N * 8 + 16,
    )
}

/// Reference model for [`gen_qsort`]: the checksum of the sorted values
/// (independent of partition order).
pub fn ref_qsort() -> u32 {
    let mut x = QSORT_SEED;
    let mut vals: Vec<u32> = (0..QSORT_N)
        .map(|_| {
            x = lcg_next(x);
            x >> 16
        })
        .collect();
    vals.sort_unstable();
    vals.into_iter().fold(0u32, checksum_fold)
}

// ---------------------------------------------------------------------
// strings
// ---------------------------------------------------------------------

const HAY_LEN: u32 = 4096;
const STR_SEED: u32 = 4242;
const NEEDLE_LEN: u32 = 6;
/// Needle start offsets inside the haystack (self-referential needles
/// guarantee at least one match each).
const NEEDLE_OFFS: [u32; 6] = [17, 512, 1033, 2048, 3071, 4000];

/// Generates the `strings` assembly: builds a 4 kB haystack over an
/// 8-letter alphabet and counts occurrences of six 6-byte needles taken
/// from the haystack itself (naive search).
pub fn gen_strings() -> String {
    let pad = crate::pad_asm("zero", "a1", 0x57815, 14);
    let offs: Vec<String> = NEEDLE_OFFS.iter().map(|o| o.to_string()).collect();
    format!(
        r#"
; strings: multi-needle naive substring search
.text
main:
    ; --- build haystack: 8-letter alphabet from LCG ---
    li   s0, {STR_SEED}
    la   s2, hay
    li   t0, 0
    li   t1, {HAY_LEN}
    li   a2, {LCG_MUL}
    li   a3, {LCG_INC}
build:
    mul  s0, s0, a2
    add  s0, s0, a3
    srli t2, s0, 16
    andi t2, t2, 7
    addi t2, t2, 97          ; 'a' + (x>>16)%8
    add  t3, s2, t0
    sb   t2, 0(t3)
    addi t0, t0, 1
    blt  t0, t1, build
    ; --- for each needle offset, count matches ---
    li   s1, 0               ; cs
    la   s3, offs
    li   s0, 0               ; needle index
needle_loop:
    li   t0, {nn}
    bge  s0, t0, done
    slli t0, s0, 2
    add  t0, s3, t0
    lw   t4, 0(t0)           ; off
    add  t4, s2, t4          ; needle ptr
    li   a0, 0               ; count
    li   t0, 0               ; pos
    li   t1, {scan_end}      ; HAY_LEN - NEEDLE_LEN inclusive bound
scan:
    bgt  t0, t1, scan_done
    add  t2, s2, t0          ; window ptr
    li   t3, 0               ; q
cmp:
    add  a1, t2, t3
    lbu  a1, 0(a1)
    add  a2, t4, t3
    lbu  a2, 0(a2)
    bne  a1, a2, cmp_fail
    addi t3, t3, 1
    li   a3, {NEEDLE_LEN}
    blt  t3, a3, cmp
    addi a0, a0, 1           ; full match
cmp_fail:
{pad}
    addi t0, t0, 1
    j    scan
scan_done:
    ; cs = fold(cs, count)
    li   a1, 31
    mul  s1, s1, a1
    add  s1, s1, a0
    addi s0, s0, 1
    j    needle_loop
done:
    la   a1, result
    sw   s1, 0(a1)
    mv   a0, s1
    halt
.data
result: .word 0
offs:   .word {offs_list}
hay:    .space {HAY_LEN}
"#,
        nn = NEEDLE_OFFS.len(),
        scan_end = HAY_LEN - NEEDLE_LEN,
        offs_list = offs.join(", "),
    )
}

/// Reference model for [`gen_strings`].
pub fn ref_strings() -> u32 {
    let mut x = STR_SEED;
    let hay: Vec<u8> = (0..HAY_LEN)
        .map(|_| {
            x = lcg_next(x);
            (((x >> 16) & 7) + 97) as u8
        })
        .collect();
    let mut cs = 0u32;
    for &off in &NEEDLE_OFFS {
        let needle = &hay[off as usize..(off + NEEDLE_LEN) as usize];
        let mut count = 0u32;
        for pos in 0..=(HAY_LEN - NEEDLE_LEN) as usize {
            if &hay[pos..pos + NEEDLE_LEN as usize] == needle {
                count += 1;
            }
        }
        cs = checksum_fold(cs, count);
    }
    cs
}

// ---------------------------------------------------------------------
// patricia
// ---------------------------------------------------------------------

const TRIE_KEYS: u32 = 256;
const TRIE_LOOKUPS: u32 = 2048;
const TRIE_SEED: u32 = 31337;
/// Node layout: left(4) right(4) present(4) pad(4) = 16 bytes.
const NODE_SIZE: u32 = 16;

/// Generates the `patricia` assembly: inserts 256 random 16-bit keys
/// into a bitwise trie (16 levels, heap-allocated 16-byte nodes), then
/// performs 2048 lookups alternating between inserted keys and random
/// probes. Lookups chase child pointers — the irregular-access profile
/// of MiBench's patricia.
pub fn gen_patricia() -> String {
    let pad = crate::pad_asm("t4", "t3", 0x9a771, 230);
    format!(
        r#"
; patricia: bitwise trie build + pointer-chasing lookups
.text
main:
    li   s0, {TRIE_SEED}     ; LCG state
    la   s2, nodes           ; node pool; node 0 = root
    li   s3, 1               ; next free node index
    li   a2, {LCG_MUL}
    li   a3, {LCG_INC}
    ; --- insert TRIE_KEYS keys, also recording them in keys[] ---
    li   t4, 0               ; insert counter
insert_loop:
    li   t0, {TRIE_KEYS}
    bge  t4, t0, inserted
    mul  s0, s0, a2
    add  s0, s0, a3
    srli t0, s0, 16          ; key
    la   t1, keys
    slli t2, t4, 2
    add  t1, t1, t2
    sw   t0, 0(t1)
    ; walk/create 16 levels
    mv   t1, s2              ; p = root
    li   t2, 16              ; b = 16
ins_level:
    beqz t2, ins_done
    subi t2, t2, 1
    srl  t3, t0, t2
    andi t3, t3, 1           ; bit
    slli t3, t3, 2           ; child offset 0 or 4
    add  t3, t1, t3
    lw   a0, 0(t3)           ; child ptr
    bnez a0, ins_follow
    ; allocate node: nodes + next*16
    slli a0, s3, 4
    add  a0, s2, a0
    addi s3, s3, 1
    sw   a0, 0(t3)
ins_follow:
    mv   t1, a0
    j    ins_level
ins_done:
    li   a0, 1
    sw   a0, 8(t1)           ; present flag
    addi t4, t4, 1
    j    insert_loop
inserted:
    ; --- lookups: even j -> keys[j/2 mod KEYS], odd j -> random ---
    li   s1, 0               ; cs
    li   t4, 0               ; j
lookup_loop:
    li   t0, {TRIE_LOOKUPS}
    bge  t4, t0, done
    andi t0, t4, 1
    bnez t0, rand_key
    srli t0, t4, 1
    andi t0, t0, {keys_mask}
    la   t1, keys
    slli t0, t0, 2
    add  t1, t1, t0
    lw   t0, 0(t1)           ; key from keys[]
    j    have_key
rand_key:
    mul  s0, s0, a2
    add  s0, s0, a3
    srli t0, s0, 16
have_key:
    ; walk the trie counting steps
    mv   t1, s2              ; p = root
    li   t2, 16              ; b
    li   t3, 0               ; steps
walk:
    beqz t2, walk_end
    subi t2, t2, 1
    srl  a0, t0, t2
    andi a0, a0, 1
    slli a0, a0, 2
    add  a0, t1, a0
    lw   a0, 0(a0)
    beqz a0, walk_out        ; null child: absent
    mv   t1, a0
    addi t3, t3, 1
    j    walk
walk_end:
    lw   a0, 8(t1)           ; present?
    slli t3, t3, 1
    add  t3, t3, a0          ; steps*2 + present
    j    walk_fold
walk_out:
    slli t3, t3, 1           ; steps*2 + 0
walk_fold:
    li   a1, 31
    mul  s1, s1, a1
    add  s1, s1, t3
{pad}
    addi t4, t4, 1
    j    lookup_loop
done:
    la   a1, result
    sw   s1, 0(a1)
    mv   a0, s1
    halt
.data
result: .word 0
keys:   .space {keys_bytes}
        .align 16
nodes:  .space {nodes_bytes}
"#,
        keys_mask = TRIE_KEYS - 1,
        keys_bytes = TRIE_KEYS * 4,
        nodes_bytes = (TRIE_KEYS * 17 + 8) * NODE_SIZE,
    )
}

/// Reference model for [`gen_patricia`].
pub fn ref_patricia() -> u32 {
    #[derive(Clone, Copy, Default)]
    struct Node {
        child: [u32; 2], // node indices; 0 = null (root is 0 but never a child)
        present: bool,
    }
    let mut nodes = vec![Node::default(); (TRIE_KEYS as usize) * 17 + 8];
    let mut next = 1u32;
    let mut x = TRIE_SEED;
    let mut keys = Vec::with_capacity(TRIE_KEYS as usize);

    for _ in 0..TRIE_KEYS {
        x = lcg_next(x);
        let key = x >> 16;
        keys.push(key);
        let mut p = 0usize;
        for b in (0..16).rev() {
            let bit = ((key >> b) & 1) as usize;
            if nodes[p].child[bit] == 0 {
                nodes[p].child[bit] = next;
                next += 1;
            }
            p = nodes[p].child[bit] as usize;
        }
        nodes[p].present = true;
    }

    let mut cs = 0u32;
    for j in 0..TRIE_LOOKUPS {
        let key = if j % 2 == 0 {
            keys[((j / 2) & (TRIE_KEYS - 1)) as usize]
        } else {
            x = lcg_next(x);
            x >> 16
        };
        let mut p = 0usize;
        let mut steps = 0u32;
        let mut fell_out = false;
        for b in (0..16).rev() {
            let bit = ((key >> b) & 1) as usize;
            let c = nodes[p].child[bit];
            if c == 0 {
                fell_out = true;
                break;
            }
            p = c as usize;
            steps += 1;
        }
        let v = if fell_out {
            steps * 2
        } else {
            steps * 2 + nodes[p].present as u32
        };
        cs = checksum_fold(cs, v);
    }
    cs
}

#[cfg(test)]
mod tests {
    use crate::{by_name, check_workload};

    #[test]
    fn qsort_matches_reference() {
        check_workload(by_name("qsort").unwrap());
    }

    #[test]
    fn strings_matches_reference() {
        check_workload(by_name("strings").unwrap());
    }

    #[test]
    fn patricia_matches_reference() {
        check_workload(by_name("patricia").unwrap());
    }

    #[test]
    fn strings_needles_all_match_at_least_once() {
        // Self-referential needles guarantee >= 1 occurrence each, so the
        // reference checksum cannot be the all-zero fold.
        assert_ne!(super::ref_strings(), 0);
    }
}
