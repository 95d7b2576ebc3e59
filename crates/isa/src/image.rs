//! Memory images at page granularity.
//!
//! A simulated memory is 16 MB, but a run writes a few dozen kilobytes
//! of it: the program's segments, its data and its stack. [`PagedMem`]
//! holds a memory as a table of 4 KiB pages, each allocated on its
//! first write, and [`LoadImage`] describes a program's fresh image by
//! its segments and the [`PageMap`] of pages they touch. The invariant
//! every user relies on: **an absent or unmarked page is all zero**, so
//! digests and snapshot deltas read only the pages a run wrote.
//!
//! [`mem_digest_of`] is the dense reference digest; [`paged_digest`]
//! computes the same value from the written pages alone, folding each
//! zero page into the hash with one multiply.

use crate::{Program, Segment};

/// Page size of the interpreter's paged memory and of a [`PageMap`], bytes.
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
    pub(crate) fn new(mem_len: usize) -> PageMap {
        PageMap {
            bits: vec![0; mem_len.div_ceil(PAGE_BYTES).div_ceil(64)],
        }
    }

    /// Marks every page overlapping `[addr, addr + len)`.
    pub(crate) fn mark(&mut self, addr: usize, len: usize) {
        for (at, _) in page_spans(addr, len) {
            let page = at / PAGE_BYTES;
            self.bits[page / 64] |= 1 << (page % 64);
        }
    }

    /// Whether page `page` is marked.
    #[inline]
    pub fn contains(&self, page: usize) -> bool {
        self.bits[page / 64] & (1 << (page % 64)) != 0
    }
}

/// One page of a [`PagedMem`].
type Page = [u8; PAGE_BYTES];

/// A `len`-byte memory held as a table of pages, each allocated zeroed
/// on its first write. An absent page reads as zero and costs one table
/// entry, so the allocated pages are exactly the pages ever written.
#[derive(Debug, Clone)]
pub(crate) struct PagedMem {
    table: Vec<Option<Box<Page>>>,
    len: usize,
}

impl PagedMem {
    /// An all-zero memory of `len` bytes, holding no page.
    pub fn new(len: usize) -> PagedMem {
        PagedMem {
            table: vec![None; len.div_ceil(PAGE_BYTES)],
            len,
        }
    }

    /// Memory size, bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether page `page` has been written.
    pub fn has_page(&self, page: usize) -> bool {
        self.table[page].is_some()
    }

    /// The page holding byte `addr`, or `None` while it is all zero.
    #[inline]
    pub fn page(&self, addr: usize) -> Option<&Page> {
        self.table[addr / PAGE_BYTES].as_deref()
    }

    /// The page holding byte `addr`, allocated zeroed on first use.
    #[inline]
    pub fn page_mut(&mut self, addr: usize) -> &mut Page {
        self.table[addr / PAGE_BYTES].get_or_insert_with(zeroed_page)
    }

    /// Copies bytes `[addr, addr + buf.len())` into `buf`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the memory size.
    pub fn read(&self, addr: usize, buf: &mut [u8]) {
        self.check_range(addr, buf.len());
        for (at, n) in page_spans(addr, buf.len()) {
            let (off, dst) = (at % PAGE_BYTES, &mut buf[at - addr..at - addr + n]);
            match self.page(at) {
                Some(page) => dst.copy_from_slice(&page[off..off + n]),
                None => dst.fill(0),
            }
        }
    }

    /// Copies `bytes` into memory at `addr`, allocating every page the
    /// range overlaps.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the memory size.
    pub fn write(&mut self, addr: usize, bytes: &[u8]) {
        self.check_range(addr, bytes.len());
        for (at, n) in page_spans(addr, bytes.len()) {
            let off = at % PAGE_BYTES;
            self.page_mut(at)[off..off + n].copy_from_slice(&bytes[at - addr..at - addr + n]);
        }
    }

    /// The little-endian word at `addr` (any alignment).
    pub fn read_u32(&self, addr: usize) -> u32 {
        let mut word = [0u8; 4];
        self.read(addr, &mut word);
        u32::from_le_bytes(word)
    }

    fn check_range(&self, addr: usize, len: usize) {
        assert!(
            addr.checked_add(len).is_some_and(|end| end <= self.len),
            "range {addr:#x}+{len} exceeds memory size {:#x}",
            self.len
        );
    }
}

#[cold]
fn zeroed_page() -> Box<Page> {
    vec![0u8; PAGE_BYTES]
        .into_boxed_slice()
        .try_into()
        .expect("a page-sized slice")
}

/// Splits `[addr, addr + len)` at page boundaries into `(start, len)`
/// pieces, in address order.
fn page_spans(addr: usize, len: usize) -> impl Iterator<Item = (usize, usize)> {
    let end = addr + len;
    let mut at = addr;
    std::iter::from_fn(move || {
        (at < end).then(|| {
            let n = (PAGE_BYTES - at % PAGE_BYTES).min(end - at);
            at += n;
            (at - n, n)
        })
    })
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
        assert!(
            program.image_end() <= len,
            "program image ends at {:#x}, past memory size {len:#x}",
            program.image_end()
        );
        let segments = program.segments();
        let mut pages = PageMap::new(len);
        for seg in &segments {
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

    /// Writes the segments into `mem`, in segment order.
    pub(crate) fn load_into(&self, mem: &mut PagedMem) {
        for seg in &self.segments {
            mem.write(seg.base as usize, &seg.bytes);
        }
    }

    /// Copies image bytes `[addr, addr + buf.len())` into `buf`: the
    /// segment bytes in segment order (a later segment wins) over zeros.
    pub fn read(&self, addr: usize, buf: &mut [u8]) {
        buf.fill(0);
        let end = addr + buf.len();
        for seg in &self.segments {
            let (base, seg_end) = (seg.base as usize, seg.end() as usize);
            let (lo, hi) = (base.max(addr), seg_end.min(end));
            if lo < hi {
                buf[lo - addr..hi - addr].copy_from_slice(&seg.bytes[lo - base..hi - base]);
            }
        }
    }

    /// [`mem_digest_of`] the image, equal to the `mem_digest` of a
    /// freshly loaded [`Interpreter`](crate::Interpreter).
    pub fn digest(&self) -> u64 {
        paged_digest(
            self.len,
            |page| self.pages.contains(page),
            |addr, buf| self.read(addr, buf),
        )
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

/// [`mem_digest_of`] a `len`-byte image whose pages for which
/// `written(page)` is false are all zero. `read(addr, buf)` fills `buf`
/// with the image bytes at `addr`; it is asked only for written pages
/// and the sub-word tail.
pub(crate) fn paged_digest(
    len: usize,
    written: impl Fn(usize) -> bool,
    mut read: impl FnMut(usize, &mut [u8]),
) -> u64 {
    let full = len - len % 8;
    let mut buf = [0u8; PAGE_BYTES];
    let mut h = FNV_OFFSET;
    for start in (0..full).step_by(PAGE_BYTES) {
        let end = (start + PAGE_BYTES).min(full);
        if written(start / PAGE_BYTES) {
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
            for seg in p.segments() {
                let base = seg.base as usize;
                dense[base..base + seg.bytes.len()].copy_from_slice(&seg.bytes);
            }
            assert_eq!(image.digest(), mem_digest_of(&dense));
            let vm = crate::Interpreter::with_mem_size(&p, len);
            let mut loaded = vec![0xffu8; len];
            vm.read_bytes(0, &mut loaded);
            assert!(loaded == dense, "the interpreter loads the dense image");
            assert_eq!(vm.mem_digest(), mem_digest_of(&dense));
            let mut window = vec![0xffu8; 64];
            image.read(crate::DATA_BASE as usize - 4, &mut window);
            let at = crate::DATA_BASE as usize - 4;
            assert_eq!(window[..], dense[at..at + 64]);
        }
    }
}
