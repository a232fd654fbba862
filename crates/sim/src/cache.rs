//! Set-associative cache model with LRU replacement.
//!
//! Used for both the per-SM L1 data caches and the shared L2 slices.
//! The model tracks tags only (no data), which is all the timing model
//! needs; hit/miss/byte counters feed the profiler.

use crate::config::CacheConfig;

/// Result of a cache probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Access {
    /// Line present.
    Hit,
    /// Line absent; it has been allocated (possibly evicting LRU).
    Miss,
}

/// One way's metadata: tag and LRU stamp side by side, so a set probe
/// walks a single contiguous span instead of two parallel arrays.
#[derive(Debug, Clone, Copy)]
struct WayMeta {
    /// Line number resident in this way; `u64::MAX` marks invalid.
    tag: u64,
    /// LRU stamp (larger = more recently used).
    stamp: u64,
}

/// A tag-only set-associative LRU cache.
///
/// # Example
///
/// ```
/// use gcs_sim::cache::{Cache, Access};
/// use gcs_sim::config::CacheConfig;
///
/// let mut c = Cache::new(CacheConfig { bytes: 1024, line_bytes: 128, ways: 2 });
/// assert_eq!(c.access(0), Access::Miss);
/// assert_eq!(c.access(0), Access::Hit);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: u32,
    line_shift: u32,
    /// `sets - 1` when the set count is a power of two; the probe paths
    /// then index with a mask instead of a 64-bit modulo.
    set_mask: u64,
    /// Flat `sets x ways` metadata (tag + stamp interleaved).
    meta: Vec<WayMeta>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Builds a cache for the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the line size is not a power of two or the geometry does
    /// not yield at least one set.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let sets = cfg.sets();
        let ways = cfg.ways as usize;
        Cache {
            cfg,
            sets,
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_mask: if sets.is_power_of_two() {
                u64::from(sets) - 1
            } else {
                0
            },
            meta: vec![
                WayMeta {
                    tag: u64::MAX,
                    stamp: 0
                };
                sets as usize * ways
            ],
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Geometry this cache was built with.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Set index of a line number. All shipped geometries have
    /// power-of-two set counts and take the mask path; the modulo
    /// fallback keeps arbitrary configurations correct.
    #[inline]
    fn set_of(&self, line: u64) -> usize {
        if self.set_mask != 0 {
            (line & self.set_mask) as usize
        } else {
            (line % u64::from(self.sets)) as usize
        }
    }

    /// Probes (and on miss allocates) the line containing `addr`.
    pub fn access(&mut self, addr: u64) -> Access {
        self.clock += 1;
        let line = addr >> self.line_shift;
        let ways = self.cfg.ways as usize;
        let base = self.set_of(line) * ways;
        let slots = &mut self.meta[base..base + ways];

        if let Some(w) = slots.iter().position(|m| m.tag == line) {
            slots[w].stamp = self.clock;
            self.hits += 1;
            return Access::Hit;
        }
        self.misses += 1;
        // Prefer an invalid way, else evict LRU.
        let victim = match slots.iter().position(|m| m.tag == u64::MAX) {
            Some(w) => w,
            None => {
                let mut lru = 0;
                for w in 1..ways {
                    if slots[w].stamp < slots[lru].stamp {
                        lru = w;
                    }
                }
                lru
            }
        };
        slots[victim] = WayMeta {
            tag: line,
            stamp: self.clock,
        };
        Access::Miss
    }

    /// Probes without allocating on miss (used for store lookups when the
    /// policy is write-no-allocate).
    pub fn probe(&mut self, addr: u64) -> Access {
        let line = addr >> self.line_shift;
        let ways = self.cfg.ways as usize;
        let base = self.set_of(line) * ways;
        if let Some(w) = self.meta[base..base + ways]
            .iter()
            .position(|m| m.tag == line)
        {
            self.clock += 1;
            self.meta[base + w].stamp = self.clock;
            self.hits += 1;
            Access::Hit
        } else {
            self.misses += 1;
            Access::Miss
        }
    }

    /// Whether the line containing `addr` is resident. Side-effect-free
    /// (no LRU promotion, no tally): the oracle the L2 stage's elided
    /// probes are `debug_assert!`ed against.
    pub(crate) fn contains(&self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let ways = self.cfg.ways as usize;
        let base = self.set_of(line) * ways;
        self.meta[base..base + ways].iter().any(|m| m.tag == line)
    }

    /// Installs the line containing `addr` without counting a probe
    /// (fill path on a response from the next level). Inserts at MRU.
    pub fn fill(&mut self, addr: u64) {
        self.fill_at(addr, false);
    }

    /// Installs the line at the **LRU** position instead of MRU — the
    /// streaming-resistant insertion policy used for DRAM fills into the
    /// shared L2. A line with no reuse is evicted by the next fill to
    /// its set, so a zero-reuse stream cannot flush a co-runner's hot
    /// working set; lines that do get hit are promoted to MRU by the
    /// probe path and survive.
    pub fn fill_lru(&mut self, addr: u64) {
        self.fill_at(addr, true);
    }

    fn fill_at(&mut self, addr: u64, at_lru: bool) {
        self.clock += 1;
        let line = addr >> self.line_shift;
        let ways = self.cfg.ways as usize;
        let base = self.set_of(line) * ways;
        let slots = &mut self.meta[base..base + ways];
        if slots.iter().any(|m| m.tag == line) {
            return;
        }
        let victim = match slots.iter().position(|m| m.tag == u64::MAX) {
            Some(w) => w,
            None => {
                let mut lru = 0;
                for w in 1..ways {
                    if slots[w].stamp < slots[lru].stamp {
                        lru = w;
                    }
                }
                lru
            }
        };
        let stamp = if at_lru {
            // Just below every resident line's stamp: next insertion to
            // this set evicts this line first unless it gets promoted.
            let min = (0..ways)
                .filter(|&w| w != victim)
                .map(|w| slots[w].stamp)
                .min()
                .unwrap_or(self.clock);
            min.saturating_sub(1)
        } else {
            self.clock
        };
        slots[victim] = WayMeta { tag: line, stamp };
    }

    /// Invalidates everything (used when an SM is handed to a different
    /// application: the incoming app must not inherit warm lines).
    pub fn flush(&mut self) {
        self.meta.fill(WayMeta {
            tag: u64::MAX,
            stamp: 0,
        });
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate in `[0, 1]`, zero when no accesses happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 128 B lines.
        Cache::new(CacheConfig {
            bytes: 512,
            line_bytes: 128,
            ways: 2,
        })
    }

    #[test]
    fn hit_after_miss() {
        let mut c = tiny();
        assert_eq!(c.access(0x1000), Access::Miss);
        assert_eq!(c.access(0x1000), Access::Hit);
        assert_eq!(c.access(0x1001), Access::Hit, "same line");
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Three distinct lines mapping to set 0: lines 0, 2, 4 (even lines).
        let a = 0u64;
        let b = 2 * 128;
        let d = 4 * 128;
        c.access(a);
        c.access(b);
        c.access(a); // a is now MRU, b is LRU
        c.access(d); // evicts b
        assert_eq!(c.access(a), Access::Hit);
        assert_eq!(c.access(b), Access::Miss, "b was evicted");
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = tiny();
        c.access(0); // set 0
        c.access(128); // set 1
        assert_eq!(c.access(0), Access::Hit);
        assert_eq!(c.access(128), Access::Hit);
    }

    #[test]
    fn probe_does_not_allocate() {
        let mut c = tiny();
        assert_eq!(c.probe(0x40), Access::Miss);
        assert_eq!(c.probe(0x40), Access::Miss, "probe must not allocate");
        c.fill(0x40);
        assert_eq!(c.probe(0x40), Access::Hit);
    }

    #[test]
    fn fill_is_idempotent() {
        let mut c = tiny();
        c.fill(0);
        c.fill(0);
        assert_eq!(c.access(0), Access::Hit);
    }

    #[test]
    fn flush_empties() {
        let mut c = tiny();
        c.access(0);
        c.flush();
        assert_eq!(c.access(0), Access::Miss);
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = tiny(); // 4 lines capacity
        let lines = 16u64;
        // Two passes over 16 distinct lines with LRU => all misses.
        for _ in 0..2 {
            for i in 0..lines {
                c.access(i * 128);
            }
        }
        assert_eq!(c.misses(), 32);
        assert_eq!(c.hits(), 0);
    }

    #[test]
    fn working_set_within_cache_hits_on_second_pass() {
        let mut c = tiny();
        for _ in 0..2 {
            for i in 0..4u64 {
                c.access(i * 128);
            }
        }
        assert_eq!(c.misses(), 4);
        assert_eq!(c.hits(), 4);
    }
}
#[cfg(test)]
mod lru_insertion_tests {
    use super::*;
    use crate::config::CacheConfig;

    fn tiny() -> Cache {
        // 1 set x 4 ways.
        Cache::new(CacheConfig {
            bytes: 512,
            line_bytes: 128,
            ways: 4,
        })
    }

    #[test]
    fn lru_fills_evict_each_other_not_hot_lines() {
        let mut c = tiny();
        // Three hot lines, promoted by hits.
        for l in 0..3u64 {
            c.access(l * 512); // all map to set 0 (1 set)
            c.access(l * 512);
        }
        // A stream of 32 no-reuse fills at LRU position.
        for l in 10..42u64 {
            c.fill_lru(l * 512);
        }
        // The hot lines must still be resident.
        for l in 0..3u64 {
            assert_eq!(c.probe(l * 512), Access::Hit, "hot line {l} was flushed");
        }
    }

    #[test]
    fn lru_filled_line_promoted_on_hit_survives() {
        let mut c = tiny();
        for l in 0..3u64 {
            c.access(l * 512);
        }
        c.fill_lru(100 * 512);
        assert_eq!(c.probe(100 * 512), Access::Hit, "promoted by this probe");
        // Another LRU fill must now evict something else... the probe
        // promoted line 100 to MRU, so a subsequent fill_lru + probe of
        // a different line leaves line 100 resident.
        c.fill_lru(200 * 512);
        c.fill_lru(300 * 512);
        assert_eq!(c.probe(100 * 512), Access::Hit);
    }
}
