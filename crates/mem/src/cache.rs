//! Set-associative, write-back, write-allocate SRAM cache (tag store).

use serde::{Deserialize, Serialize};

use crate::block::{block_of, BLOCK_SIZE};
use crate::Persist;

/// Geometry of a [`Cache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Number of ways per set (1 = direct-mapped).
    pub assoc: u32,
}

impl CacheConfig {
    /// The paper's default: 2 kB, 4-way, 16 B blocks (Table 1).
    pub fn paper_default() -> CacheConfig {
        CacheConfig {
            size_bytes: 2048,
            assoc: 4,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> u32 {
        self.size_bytes / BLOCK_SIZE / self.assoc
    }

    fn validate(&self) {
        assert!(
            self.size_bytes >= BLOCK_SIZE,
            "cache smaller than one block"
        );
        assert!(self.assoc >= 1, "associativity must be at least 1");
        assert_eq!(
            self.size_bytes % (BLOCK_SIZE * self.assoc),
            0,
            "capacity must be a multiple of assoc * block size"
        );
        assert!(
            self.num_sets().is_power_of_two(),
            "number of sets must be a power of two (got {})",
            self.num_sets()
        );
    }
}

/// Aggregate counters maintained by a [`Cache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Demand accesses (loads + stores, or instruction fetches).
    pub accesses: u64,
    /// Demand accesses that hit.
    pub hits: u64,
    /// Demand accesses that missed.
    pub misses: u64,
    /// Block fills (demand fills + prefetch promotions).
    pub fills: u64,
    /// Dirty evictions that required a write-back to NVM.
    pub writebacks: u64,
    /// Dirty blocks flushed by JIT checkpoints on power failure.
    pub checkpoint_flushes: u64,
}

impl CacheStats {
    /// Miss rate over demand accesses, in `[0, 1]`. Zero if no accesses.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// A dirty block evicted by [`Cache::fill`]; the owner must write it back
/// to NVM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Writeback {
    /// Block base address of the evicted line.
    pub block: u32,
}

/// One cache line: how the tag store holds it and how a
/// [`CacheState`] carries it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LineState {
    /// Line holds a block.
    pub valid: bool,
    /// Line differs from NVM.
    pub dirty: bool,
    /// Stored tag bits.
    pub tag: u32,
    /// LRU timestamp (the cache's `tick` at last touch).
    pub last_use: u64,
}

/// Complete serializable state of a [`Cache`] — lines in set-major
/// order, the LRU tick and the accumulated statistics. Produced and
/// consumed through the cache's [`Persist`] impl.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheState {
    /// All lines, `num_sets * assoc` of them, set-major.
    pub lines: Vec<LineState>,
    /// Monotonic LRU clock.
    pub tick: u64,
    /// Counters at the time of the export.
    pub stats: CacheStats,
}

/// A write-back, write-allocate, LRU set-associative cache.
///
/// The cache stores tags and dirty bits only; see the
/// [crate documentation](crate) for the timing/functional split. Misses do
/// *not* allocate automatically — the simulator calls [`Cache::fill`] once
/// the NVM read completes, which keeps miss timing explicit.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: Vec<LineState>,
    set_shift: u32,
    set_mask: u32,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (see [`CacheConfig`]): the number
    /// of sets must be a power of two and the capacity a multiple of
    /// `assoc * 16`.
    pub fn new(cfg: CacheConfig) -> Cache {
        cfg.validate();
        let num_sets = cfg.num_sets();
        Cache {
            cfg,
            sets: vec![LineState::default(); (num_sets * cfg.assoc) as usize],
            set_shift: BLOCK_SIZE.trailing_zeros(),
            set_mask: num_sets - 1,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    #[inline]
    fn set_of(&self, block: u32) -> usize {
        (((block >> self.set_shift) & self.set_mask) * self.cfg.assoc) as usize
    }

    #[inline]
    fn tag_of(&self, block: u32) -> u32 {
        block >> self.set_shift >> self.set_mask.count_ones()
    }

    fn ways(&mut self, block: u32) -> &mut [LineState] {
        let start = self.set_of(block);
        let assoc = self.cfg.assoc as usize;
        &mut self.sets[start..start + assoc]
    }

    /// Performs a demand access to the block containing `addr`.
    ///
    /// Returns `true` on hit (updating LRU state and, for writes, the
    /// dirty bit). Returns `false` on miss; the caller is expected to
    /// fetch the block and then [`Cache::fill`] it.
    #[inline]
    pub fn access(&mut self, addr: u32, is_write: bool) -> bool {
        let block = block_of(addr);
        let tag = self.tag_of(block);
        self.tick += 1;
        let tick = self.tick;
        self.stats.accesses += 1;
        for line in self.ways(block) {
            if line.valid && line.tag == tag {
                line.last_use = tick;
                line.dirty |= is_write;
                self.stats.hits += 1;
                return true;
            }
        }
        self.stats.misses += 1;
        false
    }

    /// Checks residency without disturbing LRU state or statistics.
    #[inline]
    pub fn contains(&self, addr: u32) -> bool {
        let block = block_of(addr);
        let tag = self.tag_of(block);
        let start = self.set_of(block);
        let assoc = self.cfg.assoc as usize;
        self.sets[start..start + assoc]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    /// Installs the block containing `addr`, evicting the LRU way if the
    /// set is full.
    ///
    /// Returns the dirty victim (if any) that must be written back to NVM.
    /// Filling a block that is already resident only updates its LRU/dirty
    /// state.
    pub fn fill(&mut self, addr: u32, is_write: bool) -> Option<Writeback> {
        let block = block_of(addr);
        let tag = self.tag_of(block);
        self.tick += 1;
        let tick = self.tick;
        self.stats.fills += 1;
        let set_bits = self.set_mask.count_ones();
        let set_index = (block >> self.set_shift) & self.set_mask;
        let shift = self.set_shift;

        // Already resident (e.g. racing prefetch promotion): refresh only.
        for line in self.ways(block) {
            if line.valid && line.tag == tag {
                line.last_use = tick;
                line.dirty |= is_write;
                return None;
            }
        }
        // Prefer an invalid way.
        if let Some(line) = self.ways(block).iter_mut().find(|l| !l.valid) {
            *line = LineState {
                valid: true,
                dirty: is_write,
                tag,
                last_use: tick,
            };
            return None;
        }
        // Evict the LRU way.
        let victim = self
            .ways(block)
            .iter_mut()
            .min_by_key(|l| l.last_use)
            .expect("assoc >= 1");
        let evicted_dirty = victim.dirty;
        let evicted_tag = victim.tag;
        *victim = LineState {
            valid: true,
            dirty: is_write,
            tag,
            last_use: tick,
        };
        if evicted_dirty {
            self.stats.writebacks += 1;
            let victim_block = ((evicted_tag << set_bits) | set_index) << shift;
            Some(Writeback {
                block: victim_block,
            })
        } else {
            None
        }
    }

    /// Number of dirty lines currently resident (cost of a JIT checkpoint).
    pub fn dirty_count(&self) -> u32 {
        self.sets.iter().filter(|l| l.valid && l.dirty).count() as u32
    }

    /// Number of valid lines currently resident.
    pub fn valid_count(&self) -> u32 {
        self.sets.iter().filter(|l| l.valid).count() as u32
    }

    /// Flushes all dirty lines (JIT checkpoint): marks them clean, counts
    /// them in [`CacheStats::checkpoint_flushes`], and returns how many
    /// blocks were flushed (each costs one NVM write).
    pub fn checkpoint_flush(&mut self) -> u32 {
        let mut flushed = 0;
        for line in &mut self.sets {
            if line.valid && line.dirty {
                line.dirty = false;
                flushed += 1;
            }
        }
        self.stats.checkpoint_flushes += flushed as u64;
        flushed
    }

    /// Wipes the entire cache — the effect of a power failure on volatile
    /// SRAM. Dirty lines are assumed to have been flushed by the JIT
    /// checkpoint beforehand (call [`Cache::checkpoint_flush`] first).
    pub fn power_loss(&mut self) {
        for line in &mut self.sets {
            *line = LineState::default();
        }
    }
}

impl Persist for Cache {
    type State = CacheState;

    /// The complete internal state (lines, LRU clock, statistics) as a
    /// serializable value, for snapshot/resume.
    fn export_state(&self) -> CacheState {
        CacheState {
            lines: self.sets.clone(),
            tick: self.tick,
            stats: self.stats,
        }
    }

    /// Rejects a state whose line count does not match this cache's
    /// geometry (snapshot taken under a different configuration).
    fn import_state(&mut self, state: &CacheState) -> Result<(), String> {
        if state.lines.len() != self.sets.len() {
            return Err(format!(
                "cache state has {} lines, geometry expects {}",
                state.lines.len(),
                self.sets.len()
            ));
        }
        self.sets.copy_from_slice(&state.lines);
        self.tick = state.tick;
        self.stats = state.stats;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 16B = 128 B
        Cache::new(CacheConfig {
            size_bytes: 128,
            assoc: 2,
        })
    }

    #[test]
    fn paper_default_geometry() {
        let cfg = CacheConfig::paper_default();
        assert_eq!(cfg.num_sets(), 32);
        Cache::new(cfg); // must not panic
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn invalid_geometry_panics() {
        Cache::new(CacheConfig {
            size_bytes: 96,
            assoc: 2,
        });
    }

    #[test]
    fn hit_after_fill_same_block() {
        let mut c = tiny();
        assert!(!c.access(0x100, false));
        c.fill(0x100, false);
        assert!(c.access(0x10f, false)); // same block
        assert!(!c.access(0x110, false)); // next block
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 holds blocks whose set index bits are 0: 0x000, 0x040, 0x080...
        c.fill(0x000, false);
        c.fill(0x040, false);
        // Touch 0x000 so 0x040 becomes LRU.
        assert!(c.access(0x000, false));
        c.fill(0x080, false);
        assert!(c.contains(0x000));
        assert!(!c.contains(0x040));
        assert!(c.contains(0x080));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.fill(0x000, true); // dirty
        c.fill(0x040, false);
        let wb = c.fill(0x080, false); // evicts 0x000 (LRU, dirty)
        assert_eq!(wb, Some(Writeback { block: 0x000 }));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_no_writeback() {
        let mut c = tiny();
        c.fill(0x000, false);
        c.fill(0x040, false);
        assert_eq!(c.fill(0x080, false), None);
    }

    #[test]
    fn write_hit_sets_dirty() {
        let mut c = tiny();
        c.fill(0x000, false);
        assert_eq!(c.dirty_count(), 0);
        assert!(c.access(0x004, true));
        assert_eq!(c.dirty_count(), 1);
    }

    #[test]
    fn checkpoint_flush_cleans_everything() {
        let mut c = tiny();
        c.fill(0x000, true); // set 0
        c.fill(0x010, true); // set 1
        c.fill(0x020, false); // set 2
        assert_eq!(c.dirty_count(), 2);
        assert_eq!(c.checkpoint_flush(), 2);
        assert_eq!(c.dirty_count(), 0);
        assert_eq!(c.stats().checkpoint_flushes, 2);
        // Lines remain resident after a checkpoint (it is a flush, not a wipe).
        assert!(c.contains(0x000));
    }

    #[test]
    fn power_loss_wipes_all() {
        let mut c = tiny();
        c.fill(0x000, false);
        c.fill(0x040, true);
        c.power_loss();
        assert_eq!(c.valid_count(), 0);
        assert!(!c.contains(0x000));
    }

    #[test]
    fn refill_resident_block_updates_dirty() {
        let mut c = tiny();
        c.fill(0x000, false);
        assert_eq!(c.fill(0x000, true), None);
        assert_eq!(c.dirty_count(), 1);
        // Only counted as fills, not duplicated lines.
        assert_eq!(c.valid_count(), 1);
    }

    #[test]
    fn direct_mapped_works() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 64,
            assoc: 1,
        });
        c.fill(0x000, false);
        c.fill(0x040, false); // same set (4 sets), evicts 0x000
        assert!(!c.contains(0x000));
        assert!(c.contains(0x040));
    }

    #[test]
    fn victim_block_address_reconstructed_correctly() {
        let mut c = tiny();
        // Block 0x7d30 maps to set ((0x7d30>>4)&3); use two in the same set.
        let a = 0x7d30;
        let b = a + 4 * 16; // same set, different tag
        let d = a + 8 * 16;
        c.fill(a, true);
        c.fill(b, true);
        let wb = c.fill(d, false).expect("dirty eviction");
        assert_eq!(wb.block, a);
    }

    #[test]
    fn miss_rate_computation() {
        let mut c = tiny();
        assert_eq!(c.stats().miss_rate(), 0.0);
        c.access(0x0, false);
        c.fill(0x0, false);
        c.access(0x0, false);
        assert!((c.stats().miss_rate() - 0.5).abs() < 1e-12);
    }
}
