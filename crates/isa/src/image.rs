//! Memory images at page granularity.
//!
//! A simulated memory is 16 MB, but a run writes a few dozen kilobytes
//! of it: the program's segments, its data and its stack. [`PageMap`]
//! records which 4 KiB pages may hold a nonzero byte, so that digests
//! and snapshot deltas scan only those pages. The invariant every user
//! relies on: **a page outside the map is all zero**.
//!
//! [`mem_digest_of`] is the dense reference digest; [`paged_digest`]
//! computes the same value from the written pages alone, folding each
//! zero page into the hash with one multiply.

use crate::{Program, Segment};

/// Page size of a [`PageMap`], bytes.
pub const PAGE_BYTES: usize = 4096;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// What hashing a zero page does to the digest state: FNV-1a of a zero
/// word is `h * P`, and a page is 512 words.
const ZERO_PAGE_FACTOR: u64 = FNV_PRIME.wrapping_pow((PAGE_BYTES / 8) as u32);

/// The set of pages of a memory that may hold a nonzero byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageMap {
    bits: Vec<u64>,
}

impl PageMap {
    /// An empty map covering `mem_len` bytes.
    pub fn new(mem_len: usize) -> PageMap {
        PageMap {
            bits: vec![0; mem_len.div_ceil(PAGE_BYTES).div_ceil(64)],
        }
    }

    /// Marks the page holding byte `addr`.
    #[inline]
    pub(crate) fn mark_addr(&mut self, addr: usize) {
        let page = addr / PAGE_BYTES;
        self.bits[page / 64] |= 1 << (page % 64);
    }

    /// Marks every page overlapping `[addr, addr + len)`.
    pub fn mark(&mut self, addr: usize, len: usize) {
        if len > 0 {
            for page in addr / PAGE_BYTES..=(addr + len - 1) / PAGE_BYTES {
                self.mark_addr(page * PAGE_BYTES);
            }
        }
    }

    /// Whether page `page` is marked.
    #[inline]
    pub fn contains(&self, page: usize) -> bool {
        self.bits[page / 64] & (1 << (page % 64)) != 0
    }
}

/// The fresh image a program loads into a `len`-byte memory — its
/// segments over zeros — without materialising the zeros.
#[derive(Debug, Clone)]
pub struct LoadImage {
    segments: Vec<Segment>,
    len: usize,
    pages: PageMap,
}

impl LoadImage {
    /// The load image of `program` in a `len`-byte memory.
    ///
    /// # Panics
    ///
    /// Panics if a segment does not fit in `len` bytes.
    pub fn new(program: &Program, len: usize) -> LoadImage {
        let segments = program.segments();
        let mut pages = PageMap::new(len);
        for seg in &segments {
            assert!(
                seg.base as usize + seg.bytes.len() <= len,
                "program segment at {:#x} exceeds memory size {len:#x}",
                seg.base
            );
            pages.mark(seg.base as usize, seg.bytes.len());
        }
        LoadImage {
            segments,
            len,
            pages,
        }
    }

    /// Image size, bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` for a zero-byte image.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The pages the segments touch; every other page is zero.
    pub fn pages(&self) -> &PageMap {
        &self.pages
    }

    /// Copies the segment bytes that fall in `[addr, addr + buf.len())`
    /// into `buf`, in segment order (a later segment wins), leaving the
    /// other bytes of `buf` as they are.
    pub(crate) fn overlay(&self, addr: usize, buf: &mut [u8]) {
        let end = addr + buf.len();
        for seg in &self.segments {
            let (base, seg_end) = (seg.base as usize, seg.end() as usize);
            let (lo, hi) = (base.max(addr), seg_end.min(end));
            if lo < hi {
                buf[lo - addr..hi - addr].copy_from_slice(&seg.bytes[lo - base..hi - base]);
            }
        }
    }

    /// Copies image bytes `[addr, addr + buf.len())` into `buf`.
    pub fn read(&self, addr: usize, buf: &mut [u8]) {
        buf.fill(0);
        self.overlay(addr, buf);
    }

    /// [`mem_digest_of`] the image, equal to the `mem_digest` of a
    /// freshly loaded [`Interpreter`](crate::Interpreter).
    pub fn digest(&self) -> u64 {
        paged_digest(self.len, &self.pages, |addr, buf| self.read(addr, buf))
    }
}

/// FNV-1a over 8-byte little-endian chunks (plus a length-tagged tail).
///
/// The dense reference for every memory digest: the paged digests of
/// [`Interpreter::mem_digest`](crate::Interpreter::mem_digest) and
/// [`LoadImage::digest`] must agree with it bit for bit.
pub fn mem_digest_of(bytes: &[u8]) -> u64 {
    let full = bytes.len() - bytes.len() % 8;
    fold_tail(fold_words(FNV_OFFSET, &bytes[..full]), &bytes[full..])
}

/// [`mem_digest_of`] a `len`-byte image whose pages outside `written`
/// are all zero. `read(addr, buf)` fills `buf` with the image bytes at
/// `addr`; it is asked only for written pages and the sub-word tail.
pub(crate) fn paged_digest(
    len: usize,
    written: &PageMap,
    mut read: impl FnMut(usize, &mut [u8]),
) -> u64 {
    let full = len - len % 8;
    let mut buf = [0u8; PAGE_BYTES];
    let mut h = FNV_OFFSET;
    for start in (0..full).step_by(PAGE_BYTES) {
        let end = (start + PAGE_BYTES).min(full);
        if written.contains(start / PAGE_BYTES) {
            let page = &mut buf[..end - start];
            read(start, page);
            h = fold_words(h, page);
        } else if end - start == PAGE_BYTES {
            h = h.wrapping_mul(ZERO_PAGE_FACTOR);
        } else {
            h = h.wrapping_mul(FNV_PRIME.wrapping_pow(((end - start) / 8) as u32));
        }
    }
    let tail = &mut buf[..len - full];
    read(full, tail);
    fold_tail(h, tail)
}

/// Folds whole 8-byte words (`bytes.len()` is a multiple of 8).
fn fold_words(mut h: u64, bytes: &[u8]) -> u64 {
    for c in bytes.chunks_exact(8) {
        h ^= u64::from_le_bytes(c.try_into().expect("8 bytes"));
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Folds the final partial word, zero-padded and length-tagged.
fn fold_tail(mut h: u64, rem: &[u8]) -> u64 {
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h ^= u64::from_le_bytes(tail);
        h = h.wrapping_mul(FNV_PRIME);
        h ^= rem.len() as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    #[test]
    fn zero_page_factor_is_512_zero_words() {
        let page = vec![0u8; PAGE_BYTES];
        assert_eq!(
            fold_words(FNV_OFFSET, &page),
            FNV_OFFSET.wrapping_mul(ZERO_PAGE_FACTOR)
        );
    }

    #[test]
    fn page_map_marks_every_overlapped_page() {
        let mut m = PageMap::new(5 * PAGE_BYTES + 1);
        m.mark(PAGE_BYTES - 1, 2);
        m.mark(5 * PAGE_BYTES, 1);
        m.mark(3 * PAGE_BYTES, 0);
        let marked: Vec<usize> = (0..6).filter(|&p| m.contains(p)).collect();
        assert_eq!(marked, [0, 1, 5]);
    }

    #[test]
    fn load_image_matches_a_dense_load() {
        let p = assemble(".text\nmain:\n halt\n.data\nw: .word 1, 2, 3\n").unwrap();
        for len in [(2 << 20) + 5, 2 << 20] {
            let image = LoadImage::new(&p, len);
            let mut dense = vec![0u8; len];
            image.overlay(0, &mut dense);
            assert_eq!(image.digest(), mem_digest_of(&dense));
            let mut window = vec![0xffu8; 64];
            image.read(crate::DATA_BASE as usize - 4, &mut window);
            let at = crate::DATA_BASE as usize - 4;
            assert_eq!(window[..], dense[at..at + 64]);
        }
    }
}
