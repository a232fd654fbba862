//! Warp execution state (struct-of-arrays) and address generation.
//!
//! Per-warp state lives in a [`WarpTable`]: one parallel array per
//! field rather than a `Vec<Option<Warp>>`. The scheduler's age scan,
//! the issue path's pc/iteration bookkeeping and the response path's
//! outstanding counters each walk one contiguous array, so the hot loop
//! stays in a handful of cache lines even at 48 warps per SM.

use crate::kernel::{AccessPattern, KernelDesc, PatternKind};
use crate::rng::SimRng;

/// Maximum access patterns a kernel may declare (keeps per-warp state
/// inline and allocation-free).
pub const MAX_PATTERNS: usize = 4;

/// Execution state of every warp slot on one SM, struct-of-arrays.
///
/// A slot is *free* when `ages[slot] == u64::MAX`; occupancy itself is
/// tracked by the owning SM's bitmask. All arrays have the same fixed
/// length (the SM's warp-slot count) for the life of the table — no
/// steady-state allocation.
#[derive(Debug)]
pub struct WarpTable {
    /// Monotone dispatch sequence number per slot (the GTO scheduler's
    /// age); `u64::MAX` marks a free slot.
    pub ages: Vec<u64>,
    /// Global block index each warp belongs to (also used in address
    /// generation so blocks touch distinct regions).
    pub block: Vec<u32>,
    /// Warp index within its block.
    pub warp_in_block: Vec<u32>,
    /// Next op index in the kernel body.
    pub pc: Vec<u32>,
    /// Loop iterations left (including the current one).
    pub iters_left: Vec<u32>,
    /// Outstanding load transactions; the warp sleeps until zero.
    pub outstanding: Vec<u16>,
    /// Set when the warp issued its final instruction (a load) and only
    /// waits for outstanding transactions before retiring. Prevents the
    /// slot from being recycled while responses are still in flight.
    pub retiring: Vec<bool>,
    /// Per-pattern access counters.
    pub pattern_ctr: Vec<[u32; MAX_PATTERNS]>,
    /// Successful memory accesses so far (trace replay's group cursor:
    /// addresses for the warp's next access come from this group of its
    /// recorded stream).
    pub replay_group: Vec<u32>,
    /// Back-pressure retries of the *current* access (trace replay's
    /// attempt cursor; counted only while replaying, reset when the
    /// access issues).
    pub replay_attempt: Vec<u32>,
}

impl WarpTable {
    /// Builds an all-free table with `slots` warp slots.
    pub fn new(slots: usize) -> Self {
        WarpTable {
            ages: vec![u64::MAX; slots],
            block: vec![0; slots],
            warp_in_block: vec![0; slots],
            pc: vec![0; slots],
            iters_left: vec![0; slots],
            outstanding: vec![0; slots],
            retiring: vec![false; slots],
            pattern_ctr: vec![[0; MAX_PATTERNS]; slots],
            replay_group: vec![0; slots],
            replay_attempt: vec![0; slots],
        }
    }

    /// Number of warp slots.
    pub fn slots(&self) -> usize {
        self.ages.len()
    }

    /// Initializes `slot` with a fresh warp at the start of the kernel
    /// body.
    pub fn init(&mut self, slot: usize, block: u32, warp_in_block: u32, age: u64, iters: u32) {
        self.ages[slot] = age;
        self.block[slot] = block;
        self.warp_in_block[slot] = warp_in_block;
        self.pc[slot] = 0;
        self.iters_left[slot] = iters;
        self.outstanding[slot] = 0;
        self.retiring[slot] = false;
        self.pattern_ctr[slot] = [0; MAX_PATTERNS];
        self.replay_group[slot] = 0;
        self.replay_attempt[slot] = 0;
    }

    /// Marks `slot` free again.
    pub fn release(&mut self, slot: usize) {
        self.ages[slot] = u64::MAX;
    }

    /// Advances `slot` past the op just issued. Returns `true` when the
    /// warp has retired its last instruction.
    pub fn advance(&mut self, slot: usize, body_len: u32) -> bool {
        let pc = self.pc[slot] + 1;
        if pc >= body_len {
            self.pc[slot] = 0;
            self.iters_left[slot] -= 1;
            if self.iters_left[slot] == 0 {
                return true;
            }
        } else {
            self.pc[slot] = pc;
        }
        false
    }

    /// Bumps the pattern counter of `slot` after an access.
    pub fn bump_counter(&mut self, slot: usize, pattern_idx: usize) {
        self.pattern_ctr[slot][pattern_idx] = self.pattern_ctr[slot][pattern_idx].wrapping_add(1);
    }

    /// Advances the trace cursors past a successfully issued access.
    pub fn bump_access(&mut self, slot: usize) {
        self.replay_group[slot] = self.replay_group[slot].wrapping_add(1);
        self.replay_attempt[slot] = 0;
    }

    /// Counts a back-pressure retry of the current access toward the
    /// trace attempt cursor.
    pub fn bump_attempt(&mut self, slot: usize) {
        self.replay_attempt[slot] = self.replay_attempt[slot].saturating_add(1);
    }
}

/// Generates the line-aligned addresses for one warp access through
/// `pattern`, appending them to `out`.
///
/// `app_base` isolates address spaces between co-running applications;
/// `pattern_idx` further separates regions within an application.
/// `block`/`warp_in_block` identify the warp, `counter` is its access
/// count through this pattern so far, and `global_warp` is the warp's
/// unique index in the grid (`block * warps_per_block + warp_in_block`);
/// `total_warps` lets streaming patterns give each warp a contiguous
/// chunk of the working set (each warp streams sequentially through its
/// own chunk, which is what coalesced CUDA kernels look like from the
/// DRAM's perspective).
#[allow(clippy::too_many_arguments)]
pub fn generate_addresses(
    pattern: &AccessPattern,
    pattern_idx: usize,
    app_base: u64,
    block: u32,
    warp_in_block: u32,
    counter: u32,
    global_warp: u64,
    total_warps: u64,
    line_bytes: u64,
    rng: &mut SimRng,
    out: &mut Vec<u64>,
) {
    let base = app_base + ((pattern_idx as u64) << 36);
    let ws_lines = (pattern.working_set / line_bytes).max(1);
    let counter = u64::from(counter);
    let n = u64::from(pattern.transactions);

    match pattern.kind {
        PatternKind::Streaming => {
            // Line-interleaved across warps, like a coalesced CUDA grid
            // reading `a[global_thread_id]`: at any instant the warps of
            // one block touch *adjacent* lines, which is what gives
            // streaming kernels their DRAM row-buffer locality.
            let tw = total_warps.max(1);
            for t in 0..n {
                let line = (global_warp * n + t + counter * tw * n) % ws_lines;
                out.push(base + line * line_bytes);
            }
        }
        PatternKind::Strided { stride } => {
            for t in 0..n {
                let off = (global_warp * line_bytes + (counter * n + t) * stride)
                    % pattern.working_set;
                out.push(base + (off / line_bytes) * line_bytes);
            }
        }
        PatternKind::Random => {
            for _ in 0..n {
                let line = rng.gen_range(ws_lines);
                out.push(base + line * line_bytes);
            }
        }
        PatternKind::Tiled { tile_bytes } => {
            let tiles = (pattern.working_set / tile_bytes).max(1);
            let tile = u64::from(block) % tiles;
            let tile_lines = (tile_bytes / line_bytes).max(1);
            for t in 0..n {
                let line_in_tile = (u64::from(warp_in_block) + (counter * n + t)) % tile_lines;
                out.push(base + tile * tile_bytes + line_in_tile * line_bytes);
            }
        }
    }
}

/// Consumes exactly the RNG draws [`generate_addresses`] would for one
/// access through `pattern`, discarding them.
///
/// Trace replay calls this instead of generating: only `Random`
/// patterns touch the per-SM RNG (one [`SimRng::gen_range`] per
/// transaction), and keeping the stream position identical means a
/// co-runner that later inherits this SM — an SMRA drain handoff —
/// observes the exact RNG state the recording run produced. That parity
/// is what makes replayed-next-to-synthetic co-runs bit-identical.
pub fn burn_random_draws(pattern: &AccessPattern, line_bytes: u64, rng: &mut SimRng) {
    if matches!(pattern.kind, PatternKind::Random) {
        let ws_lines = (pattern.working_set / line_bytes).max(1);
        for _ in 0..pattern.transactions {
            let _ = rng.gen_range(ws_lines);
        }
    }
}

/// Validates that a kernel fits the inline pattern-state limit.
///
/// # Errors
///
/// Returns an error string when the kernel declares more than
/// [`MAX_PATTERNS`] patterns.
pub fn check_pattern_limit(kernel: &KernelDesc) -> Result<(), String> {
    if kernel.patterns.len() > MAX_PATTERNS {
        Err(format!(
            "kernel {} declares {} patterns; the simulator supports at most {MAX_PATTERNS}",
            kernel.name,
            kernel.patterns.len()
        ))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(42)
    }

    #[test]
    fn advance_wraps_and_retires() {
        let mut t = WarpTable::new(1);
        t.init(0, 0, 0, 0, 2);
        assert!(!t.advance(0, 3)); // pc 1
        assert!(!t.advance(0, 3)); // pc 2
        assert!(!t.advance(0, 3)); // wrap, iter 1 left
        assert!(!t.advance(0, 3));
        assert!(!t.advance(0, 3));
        assert!(t.advance(0, 3)); // retired
    }

    #[test]
    fn init_resets_previous_slot_state() {
        let mut t = WarpTable::new(1);
        t.init(0, 0, 0, 0, 1);
        t.bump_counter(0, 2);
        t.outstanding[0] = 3;
        t.retiring[0] = true;
        t.release(0);
        assert_eq!(t.ages[0], u64::MAX, "slot free");
        t.init(0, 7, 1, 9, 4);
        assert_eq!(t.ages[0], 9);
        assert_eq!(t.pattern_ctr[0], [0; MAX_PATTERNS]);
        assert_eq!(t.outstanding[0], 0);
        assert!(!t.retiring[0]);
    }

    #[test]
    fn streaming_strides_by_grid_width() {
        let p = AccessPattern::streaming(1 << 20);
        let mut out = Vec::new();
        let mut r = rng();
        generate_addresses(&p, 0, 0, 0, 0, 0, 0, 8, 128, &mut r, &mut out);
        generate_addresses(&p, 0, 0, 0, 0, 1, 0, 8, 128, &mut r, &mut out);
        assert_eq!(out.len(), 2);
        // Grid-stride loop: next iteration jumps by total_warps lines.
        assert_eq!(out[1], out[0] + 8 * 128);
    }

    #[test]
    fn streaming_adjacent_warps_touch_adjacent_lines() {
        let p = AccessPattern::streaming(1 << 20);
        let mut a = Vec::new();
        let mut b = Vec::new();
        let mut r = rng();
        generate_addresses(&p, 0, 0, 0, 0, 0, 0, 8, 128, &mut r, &mut a);
        generate_addresses(&p, 0, 0, 0, 1, 0, 1, 8, 128, &mut r, &mut b);
        assert_eq!(b[0], a[0] + 128, "warp 1 reads the line after warp 0");
    }

    #[test]
    fn random_addresses_stay_in_working_set() {
        let ws = 64 * 128u64;
        let p = AccessPattern::random(ws, 4);
        let mut out = Vec::new();
        let mut r = rng();
        generate_addresses(&p, 1, 1 << 40, 3, 1, 0, 25, 32, 128, &mut r, &mut out);
        assert_eq!(out.len(), 4);
        for &a in &out {
            let off = a - ((1u64 << 40) + (1u64 << 36));
            assert!(off < ws);
            assert_eq!(off % 128, 0, "line aligned");
        }
    }

    #[test]
    fn tiled_blocks_reuse_their_tile() {
        let p = AccessPattern::tiled(1 << 16, 1 << 12);
        let mut first = Vec::new();
        let mut r = rng();
        generate_addresses(&p, 0, 0, 2, 0, 0, 16, 64, 128, &mut r, &mut first);
        // Walk enough accesses to wrap the tile: tile has 32 lines.
        let mut again = Vec::new();
        generate_addresses(&p, 0, 0, 2, 0, 32, 16, 64, 128, &mut r, &mut again);
        assert_eq!(first, again, "tile walk is periodic");
    }

    #[test]
    fn pattern_limit_enforced() {
        use crate::kernel::{KernelDesc, Op, PatternId};
        let k = KernelDesc {
            name: "toolarge".into(),
            grid_blocks: 1,
            warps_per_block: 1,
            iters_per_warp: 1,
            body: vec![Op::Load(PatternId(0))],
            patterns: vec![AccessPattern::streaming(4096); MAX_PATTERNS + 1],
            active_lanes: 32,
        };
        assert!(check_pattern_limit(&k).is_err());
    }

    #[test]
    fn addresses_of_different_apps_never_alias() {
        let p = AccessPattern::streaming(1 << 30);
        let mut a = Vec::new();
        let mut b = Vec::new();
        let mut r = rng();
        generate_addresses(&p, 0, 0u64 << 40, 0, 0, 0, 0, 8, 128, &mut r, &mut a);
        generate_addresses(&p, 0, 1u64 << 40, 0, 0, 0, 0, 8, 128, &mut r, &mut b);
        assert_ne!(a[0] >> 40, b[0] >> 40);
    }
}
