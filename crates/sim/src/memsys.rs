//! Shared memory system: interconnect, L2 slices and DRAM controllers.
//!
//! This is where inter-application interference happens. All SMs —
//! regardless of which application owns them — funnel their L1 misses
//! through the same L2 slices and memory controllers, so a bandwidth-
//! hungry co-runner inflates everyone's queueing delays and evicts
//! everyone's L2 lines, exactly the mechanism the thesis classifies
//! around (§3.2.2).
//!
//! Topology: the device has `num_mem_ctrls` **slices**, each an L2 bank
//! paired with one DRAM channel. Addresses are row-interleaved across
//! slices so a streaming warp enjoys row-buffer locality within one
//! channel. Each channel schedules with **FR-FCFS** (row hits first,
//! then oldest) by default — the policy the thesis blames for class-M
//! dominance — or plain FCFS for the ablation bench.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::cache::{Access, Cache};
use crate::config::GpuConfig;
use crate::kernel::AppId;
use crate::stats::SimStats;

/// Bound on the slice input queue; SMs are back-pressured beyond this.
/// Kept shallow: a deep queue lets a bandwidth-saturating application
/// bury its co-runners' requests in queueing delay far beyond what a
/// credit-based real interconnect would allow.
const SLICE_QUEUE_DEPTH: usize = 128;

/// Capacity of a slice's presence log (`Slice::gained`). Under
/// saturation a slice sees one fill and one insert per bus slot between
/// full scans, so a handful of entries is ample; overflow is safe (it
/// drops the verdicts), only slower.
const PRESENCE_LOG_CAP: usize = 8;

/// A single 128-byte memory transaction from an SM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Byte address (line-aligned by the issuing SM).
    pub addr: u64,
    /// Write (store) transactions complete silently.
    pub is_write: bool,
    /// Application that issued the transaction.
    pub app: AppId,
    /// Issuing SM.
    pub sm: u32,
    /// Warp slot to wake on completion (ignored for writes).
    pub warp_slot: u32,
    /// Cycle at which the request reaches the slice (after interconnect).
    pub arrive_at: u64,
}

/// A read response ready to wake a warp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Cycle at which the response reaches the SM.
    pub at: u64,
    /// Destination SM.
    pub sm: u32,
    /// Destination warp slot.
    pub warp_slot: u32,
}

#[derive(Debug, Clone, Copy)]
struct DramBank {
    open_row: u64,
    ready_at: u64,
}

/// A queued DRAM transaction with its bank index and global row
/// precomputed at enqueue time. FR-FCFS scans the queue every bus slot;
/// carrying these two values kills the division chain
/// (`addr / row_bytes / num_slices % banks`) that the scan would
/// otherwise re-derive per element per cycle.
#[derive(Debug, Clone, Copy)]
struct DramEntry {
    req: MemRequest,
    bank: u32,
    row: u64,
}

/// DRAM controller queue with O(1) out-of-order removal.
///
/// FR-FCFS services requests out of arrival order, which previously
/// cost an O(queue) element shift per pick (`VecDeque::remove`). Here a
/// pick leaves a tombstone instead; live order is preserved and leading
/// tombstones are popped eagerly. A compaction guard bounds the slot
/// storage when an old request starves behind a row-hit stream.
#[derive(Debug, Default)]
struct DramQueue {
    slots: VecDeque<Option<DramEntry>>,
    live: usize,
}

impl DramQueue {
    /// Live (un-serviced) requests.
    fn len(&self) -> usize {
        self.live
    }

    fn is_empty(&self) -> bool {
        self.live == 0
    }

    fn push_back(&mut self, req: MemRequest, bank: u32, row: u64) {
        self.slots.push_back(Some(DramEntry { req, bank, row }));
        self.live += 1;
    }

    /// Live requests oldest-first, each with its raw slot index (valid
    /// until the next `take`/`push_back`).
    fn iter(&self) -> impl Iterator<Item = (usize, &DramEntry)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|r| (i, r)))
    }

    /// Removes the live request at raw slot `idx` in O(1).
    ///
    /// # Panics
    ///
    /// Panics if `idx` does not hold a live request.
    fn take(&mut self, idx: usize) -> DramEntry {
        let entry = self.slots[idx].take().expect("take of a live slot");
        self.live -= 1;
        while matches!(self.slots.front(), Some(None)) {
            self.slots.pop_front();
        }
        // Starvation guard: if tombstones ever dominate (an old request
        // pinned behind a long row-hit stream), compact in place.
        if self.slots.len() > 2 * self.live + 16 {
            self.slots.retain(Option::is_some);
        }
        entry
    }
}

#[derive(Debug)]
struct DramCtrl {
    banks: Vec<DramBank>,
    queue: DramQueue,
    bus_free_at: u64,
}

impl DramCtrl {
    fn new(num_banks: u32) -> Self {
        DramCtrl {
            banks: vec![
                DramBank {
                    open_row: u64::MAX,
                    ready_at: 0,
                };
                num_banks as usize
            ],
            queue: DramQueue::default(),
            bus_free_at: 0,
        }
    }
}

/// Miss-status holding registers per slice: outstanding DRAM reads keyed
/// by line address, with the requests merged onto each fill. The live
/// limit is [`MemSys::mshr_cap`]; a fault plan can throttle it below
/// this nominal capacity.
const MSHRS_PER_SLICE: usize = GpuConfig::MAX_MSHRS_PER_SLICE as usize;

/// Sentinel terminating an intrusive waiter list.
const MSHR_NONE: u32 = u32::MAX;

/// One waiter in the MSHR arena: the merged request plus an intrusive
/// link to the next waiter on the same line (or the next free node when
/// the node is on the free list).
#[derive(Debug, Clone, Copy)]
struct MshrWaiter {
    req: MemRequest,
    next: u32,
}

/// Flat MSHR table: a dense slab of in-flight line addresses (at most
/// [`MSHRS_PER_SLICE`], so lookup is a linear scan over one packed
/// `u64` array — far cheaper than hashing at this size) with per-line
/// waiter lists threaded through a single arena via intrusive links.
/// The arena grows only during warm-up; drained nodes go on a free list
/// and are recycled, so the steady-state miss path never allocates.
#[derive(Debug)]
struct MshrTable {
    /// Packed line addresses of in-flight fills (dense, unordered).
    lines: Vec<u64>,
    /// First waiter of each line's list, parallel to `lines`. The head
    /// is always the request that went to DRAM; merges append.
    heads: Vec<u32>,
    /// Last waiter of each line's list, parallel to `lines` (O(1)
    /// append keeps merge order identical to the old Vec push order).
    tails: Vec<u32>,
    /// Waiter arena; free nodes are chained through `next`.
    nodes: Vec<MshrWaiter>,
    /// Head of the free-node list (`MSHR_NONE` when empty).
    free: u32,
}

impl MshrTable {
    fn new() -> Self {
        MshrTable {
            lines: Vec::with_capacity(MSHRS_PER_SLICE),
            heads: Vec::with_capacity(MSHRS_PER_SLICE),
            tails: Vec::with_capacity(MSHRS_PER_SLICE),
            nodes: Vec::new(),
            free: MSHR_NONE,
        }
    }

    /// Live (in-flight) line entries.
    fn len(&self) -> usize {
        self.lines.len()
    }

    fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Index of `line`'s entry, if a fill for it is in flight.
    #[inline]
    fn find(&self, line: u64) -> Option<usize> {
        self.lines.iter().position(|&l| l == line)
    }

    /// Pops a node off the free list or grows the arena (warm-up only).
    fn alloc_node(&mut self, req: MemRequest) -> u32 {
        if self.free != MSHR_NONE {
            let i = self.free;
            self.free = self.nodes[i as usize].next;
            self.nodes[i as usize] = MshrWaiter {
                req,
                next: MSHR_NONE,
            };
            i
        } else {
            self.nodes.push(MshrWaiter {
                req,
                next: MSHR_NONE,
            });
            (self.nodes.len() - 1) as u32
        }
    }

    /// Allocates a new line entry whose first waiter is `req` (the
    /// request that goes to DRAM). Caller enforces the capacity gate.
    fn insert(&mut self, line: u64, req: MemRequest) {
        let n = self.alloc_node(req);
        self.lines.push(line);
        self.heads.push(n);
        self.tails.push(n);
    }

    /// Appends `req` to the waiter list of entry `idx` (an MSHR hit:
    /// the fill is already in flight, no second fetch).
    fn merge(&mut self, idx: usize, req: MemRequest) {
        let n = self.alloc_node(req);
        let tail = self.tails[idx];
        self.nodes[tail as usize].next = n;
        self.tails[idx] = n;
    }

    /// Removes entry `idx` (O(1) swap-remove; the table is unordered)
    /// and returns the head of its waiter list for draining via
    /// [`MshrTable::drain_next`].
    fn remove(&mut self, idx: usize) -> u32 {
        let head = self.heads[idx];
        self.lines.swap_remove(idx);
        self.heads.swap_remove(idx);
        self.tails.swap_remove(idx);
        head
    }

    /// Frees waiter node `i`, returning its request and successor.
    fn drain_next(&mut self, i: u32) -> (MemRequest, u32) {
        let node = self.nodes[i as usize];
        self.nodes[i as usize].next = self.free;
        self.free = i;
        (node.req, node.next)
    }

    /// Arena size (test hook: steady state must not grow it).
    #[cfg(test)]
    fn arena_len(&self) -> usize {
        self.nodes.len()
    }
}

#[derive(Debug)]
struct Slice {
    l2: Cache,
    input: VecDeque<MemRequest>,
    ctrl: DramCtrl,
    /// In-flight DRAM reads with their merged waiters.
    mshr: MshrTable,
    /// Earliest cycle at which the L2 stage of this slice could possibly
    /// make progress (`u64::MAX` when nothing is queued). Maintained by
    /// `tick` and lowered by `push`; consumed by [`MemSys::next_event`].
    l2_event: u64,
    /// First cycle at which the L2 stage scan must run again. Armed
    /// (to the first future arrival) when a scan consumed nothing and
    /// left only stalled misses: nothing about such a scan can change
    /// until a DRAM service frees queue/MSHR space or fills a line, or
    /// a new request arrives — both of which reset this to zero. Pure
    /// scan elision: no observable work is skipped.
    scan_wake: u64,
    /// The DRAM-side event bound for *queries after the last tick*:
    /// exactly what [`dram_bound`] would compute at `now + 1`,
    /// maintained at the end of every slice tick. Invariants:
    /// `u64::MAX` iff the controller queue is empty; strictly greater
    /// than the tick cycle otherwise. Banks and `bus_free_at` mutate
    /// only on a service, so the value stays exact across elided
    /// (skipped) ticks.
    dram_next: u64,
    /// Tick-elision gate: the earliest cycle a tick of this slice could
    /// be anything but a no-op, i.e.
    /// `min(l2_event, dram_next)` at the end of the slice's last tick.
    /// Before that cycle the tick provably changes nothing observable
    /// (see `tick_slice`; each skip is `debug_assert!`ed by
    /// [`tick_is_noop`]): no due arrival, no consumable stalled miss
    /// (DRAM/MSHR space can only be freed by a service, which cannot
    /// happen before `dram_next`), and no DRAM pick can succeed.
    /// Lowered by `push` (to the new `arrive_at`), reset to 0 by the
    /// fault knobs (`set_extra_latency`, `set_mshr_cap`): a knob change
    /// can turn a stalled-miss re-scan from a no-op into progress, which
    /// breaks the proof until the next real tick.
    sleep_at: u64,
    /// Stalled-miss verdicts: the first `verdicts` entries of `input`
    /// were examined by an earlier scan and found to be an **L2 miss
    /// with, for a read, no MSHR entry to merge onto**. A verdict says
    /// nothing about space — whether the entry can proceed into the
    /// MSHR table and DRAM queue is tested live on every scan — so it
    /// can only turn false when its line *gains* presence, and a line
    /// gains presence in exactly two places: `l2.fill_lru` on a DRAM
    /// read service and `mshr.insert`. Both append the line to
    /// `gained`; a verdicted entry whose line is not in that log is a
    /// known miss and skips the L2 way scan and the MSHR tag scan, one
    /// whose line is logged takes the full probe path. Kept as a count,
    /// not indices: the scan's `pop_front` fast path shifts indices,
    /// the verdicted entries always remain the queue's prefix.
    /// Dropped (with the log) by the fault knobs.
    verdicts: u32,
    /// Lines that gained presence since the oldest outstanding verdict
    /// was taken (see `verdicts`). Trimmed only once a scan has checked
    /// every old verdict against it — a port-limited scan that stops
    /// inside the prefix keeps the unreached verdicts *and* the log. An
    /// overflow drops every verdict instead (full re-probe, never a
    /// guess).
    gained: [u64; PRESENCE_LOG_CAP],
    /// Live entries of `gained`.
    gained_len: u8,
    /// Requests consumed as L2 hits / as misses (fetched or merged),
    /// each counted once at consumption — the step-mode-independent
    /// tallies behind [`MemSys::l2_hit_rate`].
    req_hits: u64,
    req_misses: u64,
}

impl Slice {
    fn new(cfg: &GpuConfig) -> Self {
        Slice {
            l2: Cache::new(cfg.l2_slice),
            input: VecDeque::new(),
            ctrl: DramCtrl::new(cfg.dram.banks),
            mshr: MshrTable::new(),
            l2_event: u64::MAX,
            scan_wake: 0,
            dram_next: u64::MAX,
            sleep_at: u64::MAX,
            verdicts: 0,
            gained: [0; PRESENCE_LOG_CAP],
            gained_len: 0,
            req_hits: 0,
            req_misses: 0,
        }
    }

    /// Forgets every stalled-miss verdict: the next scan probes the
    /// whole queue again.
    #[inline]
    fn drop_verdicts(&mut self) {
        self.verdicts = 0;
        self.gained_len = 0;
    }

    /// Resets the tick gates after a test wrote slice state behind their
    /// back: an empty slice is exactly idle, a busy one is forced to
    /// tick next cycle with a stale (0) DRAM bound, which that tick
    /// revalidates.
    #[cfg(test)]
    fn cold_start_gates(&mut self) {
        if self.input.is_empty() && self.ctrl.queue.is_empty() {
            self.dram_next = u64::MAX;
            self.sleep_at = u64::MAX;
        } else {
            self.dram_next = 0;
            self.sleep_at = 0;
        }
    }

    /// Whether `line` gained presence since the verdicts were taken.
    #[inline]
    fn gained_presence(&self, line: u64) -> bool {
        self.gained[..usize::from(self.gained_len)].contains(&line)
    }

    /// Logs that `line` gained presence (L2 fill or MSHR insert).
    /// Returns `false` when the log is full — the caller must then drop
    /// the verdicts the log was guarding.
    #[inline]
    fn log_presence(&mut self, line: u64) -> bool {
        let n = usize::from(self.gained_len);
        if n == PRESENCE_LOG_CAP {
            return false;
        }
        self.gained[n] = line;
        self.gained_len += 1;
        true
    }

    /// The verdict invariant, recomputed from scratch for one queued
    /// request: L2 miss and, for a read, nothing to merge onto.
    /// Side-effect-free; the oracle behind every elided probe.
    fn is_unmergeable_miss(&self, req: &MemRequest, line_mask: u64) -> bool {
        !self.l2.contains(req.addr)
            && (req.is_write || self.mshr.find(req.addr & line_mask).is_none())
    }
}

/// Whether a tick of `slice` at `now` would be a no-op: the DRAM pick
/// fails (nothing queued, bus busy, or no ready bank) and no due input
/// entry could be consumed (each is an unmergeable miss without DRAM /
/// MSHR space). Side-effect-free; the oracle behind every elided tick.
fn tick_is_noop(slice: &Slice, now: u64, ctx: &MemTickCtx) -> bool {
    let ctrl = &slice.ctrl;
    let pick_fails = ctrl.queue.is_empty()
        || ctrl.bus_free_at > now
        || MemSys::schedule_dram(ctrl, now, ctx.fr_fcfs).is_err();
    let dram_full = ctrl.queue.len() >= ctx.queue_depth;
    pick_fails
        && slice
            .input
            .iter()
            .take_while(|r| r.arrive_at <= now)
            .all(|r| {
                slice.is_unmergeable_miss(r, ctx.line_mask)
                    && (dram_full || (!r.is_write && slice.mshr.len() >= ctx.mshr_cap))
            })
}

/// Everything a slice tick reads from the enclosing [`MemSys`]: config
/// constants plus the live fault knobs, hoisted once per stepped cycle
/// into one small struct the tick reads while it holds a slice mutably.
/// Fault events apply before the memory phase of a cycle, so the
/// snapshot is constant within it.
#[derive(Debug, Clone, Copy)]
struct MemTickCtx {
    num_slices: u64,
    banks: u64,
    icnt: u64,
    /// Nominal L2 latency plus the fault-injected extra.
    l2_lat: u64,
    extra_dram: u64,
    mshr_cap: usize,
    line_mask: u64,
    line_bytes: u64,
    row_bytes: u64,
    row_shift: u32,
    fr_fcfs: bool,
    l2_ports: u32,
    queue_depth: usize,
    t_row_hit: u64,
    t_row_miss: u64,
    t_burst: u64,
    t_rc: u64,
}

/// The shared memory hierarchy below the L1s.
///
/// One gated tick steps the slices: stalled-miss verdicts, per-slice
/// `sleep_at` and device-wide `sleep_min` tick elision, and the
/// `ev_min` bound that makes [`MemSys::next_event`] O(1).
#[derive(Debug)]
pub struct MemSys {
    cfg: GpuConfig,
    /// The slices, in global order.
    slices: Vec<Slice>,
    /// `min(l2_event, dram_next)` over the slices — their whole
    /// contribution to [`MemSys::next_event`]. Lowered by `push`,
    /// recomputed at the end of every non-skipped tick; never above the
    /// exact per-slice bound.
    ev_min: u64,
    /// Exact `min(sleep_at)` over the slices: before this cycle the
    /// whole tick is a no-op and is skipped outright. Lowered by `push`,
    /// zeroed by the fault knobs, recomputed at the end of every
    /// non-skipped tick.
    sleep_min: u64,
    /// Pending read responses ordered by completion cycle.
    responses: BinaryHeap<Reverse<(u64, u32, u32)>>,
    line_bytes: u64,
    /// `!(line_bytes - 1)`: line alignment by mask (line sizes are
    /// asserted powers of two).
    line_mask: u64,
    row_bytes: u64,
    /// `log2(row_bytes)` when `row_bytes` is a power of two (every
    /// shipped config); `u32::MAX` otherwise (divide fallback).
    row_shift: u32,
    /// `num_slices - 1` when the slice count is a power of two, else 0
    /// (modulo fallback — e.g. the 6-channel gtx480).
    slice_mask: u64,
    /// Fault-injected extra L2 access latency (0 = nominal).
    extra_l2_lat: u64,
    /// Fault-injected extra DRAM data latency (0 = nominal). Inflates
    /// data return time only; bank occupancy and bus rate stay nominal.
    extra_dram_lat: u64,
    /// Live per-slice MSHR limit, `<= MSHRS_PER_SLICE`.
    mshr_cap: usize,
    /// Admission mask: bit `g` is set iff slice `g`'s input queue holds
    /// at least [`SLICE_QUEUE_DEPTH`] requests. Queues grow only in
    /// `push` (which sets the bit) and shrink only in the L2 stage
    /// (after which `tick` re-derives the mask), so
    /// [`MemSys::can_accept`] is a bit test.
    full_mask: u64,
}

impl MemSys {
    /// Builds the memory system for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the line size is not a power of two (the caches
    /// enforce the same invariant) or there are more than 64 memory
    /// controllers; [`GpuConfig::validate`] rejects both up front.
    pub fn new(cfg: &GpuConfig) -> Self {
        assert!(
            cfg.num_mem_ctrls <= 64,
            "at most 64 memory controllers (the admission mask is one word)"
        );
        let slices: Vec<Slice> = (0..cfg.num_mem_ctrls).map(|_| Slice::new(cfg)).collect();
        let line_bytes = u64::from(cfg.l1.line_bytes);
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let num_slices = slices.len() as u64;
        MemSys {
            slices,
            ev_min: u64::MAX,
            sleep_min: u64::MAX,
            line_bytes,
            line_mask: !(line_bytes - 1),
            row_bytes: cfg.dram.row_bytes,
            row_shift: if cfg.dram.row_bytes.is_power_of_two() {
                cfg.dram.row_bytes.trailing_zeros()
            } else {
                u32::MAX
            },
            slice_mask: if num_slices.is_power_of_two() {
                num_slices - 1
            } else {
                0
            },
            cfg: cfg.clone(),
            responses: BinaryHeap::new(),
            extra_l2_lat: 0,
            extra_dram_lat: 0,
            mshr_cap: MSHRS_PER_SLICE,
            full_mask: 0,
        }
    }

    /// Global DRAM row of an address (shift when `row_bytes` is a power
    /// of two, divide otherwise).
    #[inline]
    fn row_of(&self, addr: u64) -> u64 {
        if self.row_shift != u32::MAX {
            addr >> self.row_shift
        } else {
            addr / self.row_bytes
        }
    }

    /// Sets fault-injected extra latency on every L2 access and DRAM
    /// data return. `(0, 0)` restores nominal timing.
    pub fn set_extra_latency(&mut self, extra_l2: u32, extra_dram: u32) {
        self.extra_l2_lat = u64::from(extra_l2);
        self.extra_dram_lat = u64::from(extra_dram);
        // Timing changed under sleeping scans and ticks.
        self.knob_changed();
    }

    /// Throttles the per-slice MSHR limit, clamped to
    /// `[1, MAX_MSHRS_PER_SLICE]`. Entries already in flight stay live;
    /// the cap only gates new allocations.
    pub fn set_mshr_cap(&mut self, cap: u32) {
        self.mshr_cap = (cap.max(1) as usize).min(MSHRS_PER_SLICE);
        // A raised cap can unstall sleeping misses.
        self.knob_changed();
    }

    /// A fault knob changed under the no-op proofs the scan and tick
    /// gates rest on: force a re-scan and a real tick of every slice,
    /// and drop the verdicts. The `ev_min` bounds stay — knobs change no
    /// queue state, so the exact `next_event` value is unchanged.
    fn knob_changed(&mut self) {
        for slice in &mut self.slices {
            slice.scan_wake = 0;
            slice.sleep_at = 0;
            slice.drop_verdicts();
        }
        self.sleep_min = 0;
    }

    /// Slice an address routes to (row-interleaved so streams keep
    /// row-buffer locality within one channel).
    fn slice_of(&self, addr: u64) -> usize {
        let row = self.row_of(addr);
        if self.slice_mask != 0 {
            (row & self.slice_mask) as usize
        } else {
            (row % self.slices.len() as u64) as usize
        }
    }

    /// Whether the target slice can take one more request.
    #[inline]
    fn can_accept(&self, addr: u64) -> bool {
        let g = self.slice_of(addr);
        let free = self.full_mask & (1u64 << g) == 0;
        debug_assert_eq!(
            free,
            self.slices[g].input.len() < SLICE_QUEUE_DEPTH,
            "admission mask out of step with slice {g}'s queue depth"
        );
        free
    }

    /// Whether every address in `addrs` targets a slice that can take
    /// one more request this cycle. This is the whole-access admission
    /// check every issue path applies before pushing any transaction of
    /// a load or store (no partial issue).
    pub fn can_accept_all(&self, addrs: &[u64]) -> bool {
        addrs.iter().all(|&a| self.can_accept(a))
    }

    /// Injects a transaction (already line-aligned). Call only after
    /// `MemSys::can_accept` returned `true` this cycle.
    pub fn push(&mut self, req: MemRequest) {
        let g = self.slice_of(req.addr);
        let slice = &mut self.slices[g];
        debug_assert!(slice.input.len() < SLICE_QUEUE_DEPTH + 64);
        slice.l2_event = slice.l2_event.min(req.arrive_at);
        slice.scan_wake = 0;
        // The new arrival can matter no earlier than `arrive_at`, so
        // lowering (not zeroing) the gates keeps both exact —
        // `l2_event` dropped by the same amount, so `ev_min` stays the
        // true minimum.
        slice.sleep_at = slice.sleep_at.min(req.arrive_at);
        self.sleep_min = self.sleep_min.min(req.arrive_at);
        self.ev_min = self.ev_min.min(req.arrive_at);
        slice.input.push_back(req);
        if slice.input.len() >= SLICE_QUEUE_DEPTH {
            self.full_mask |= 1u64 << g;
        }
    }

    /// Re-derives the admission mask from the queue depths; called
    /// after every L2 stage, the only place a queue shrinks — so bits
    /// can only clear here, and an empty mask is already exact.
    fn refresh_full_mask(&mut self) {
        if self.full_mask == 0 {
            return;
        }
        let mut mask = 0u64;
        for (g, slice) in self.slices.iter().enumerate() {
            mask |= u64::from(slice.input.len() >= SLICE_QUEUE_DEPTH) << g;
        }
        self.full_mask = mask;
    }

    /// The per-cycle constants the slice tick reads.
    fn tick_ctx(&self) -> MemTickCtx {
        MemTickCtx {
            num_slices: self.slices.len() as u64,
            banks: u64::from(self.cfg.dram.banks),
            icnt: u64::from(self.cfg.icnt_lat),
            l2_lat: u64::from(self.cfg.l2_lat) + self.extra_l2_lat,
            extra_dram: self.extra_dram_lat,
            mshr_cap: self.mshr_cap,
            line_mask: self.line_mask,
            line_bytes: self.line_bytes,
            row_bytes: self.row_bytes,
            row_shift: self.row_shift,
            fr_fcfs: self.cfg.dram.fr_fcfs,
            l2_ports: self.cfg.l2_ports,
            queue_depth: self.cfg.dram.queue_depth,
            t_row_hit: u64::from(self.cfg.dram.t_row_hit),
            t_row_miss: u64::from(self.cfg.dram.t_row_miss),
            t_burst: u64::from(self.cfg.dram.t_burst),
            t_rc: u64::from(self.cfg.dram.t_rc),
        }
    }

    /// Advances the slices and DRAM controllers by one cycle. Before
    /// `sleep_min` the whole tick is skipped; otherwise an idle slice
    /// and a slice before its `sleep_at` are skipped (each skip a proven
    /// no-op, `debug_assert!`ed by [`tick_is_noop`]), every other slice
    /// ticks straight into the response heap and `stats`, and the
    /// `ev_min` / `sleep_min` aggregates are recomputed.
    pub fn tick(&mut self, now: u64, stats: &mut SimStats) {
        let ctx = self.tick_ctx();
        if now < self.sleep_min {
            debug_assert!(
                self.slices.iter().all(|s| tick_is_noop(s, now, &ctx)),
                "the memory system slept through a tick with work at cycle {now}"
            );
        } else {
            for slice in &mut self.slices {
                if slice.input.is_empty() && slice.ctrl.queue.is_empty() {
                    debug_assert!(slice.mshr.is_empty());
                    continue;
                }
                if now < slice.sleep_at {
                    debug_assert!(
                        tick_is_noop(slice, now, &ctx),
                        "slice slept through a tick with work at cycle {now}"
                    );
                    continue;
                }
                tick_slice(slice, now, &ctx, &mut self.responses, stats);
            }
            self.refresh_gates();
        }
        self.refresh_full_mask();
    }

    /// Recomputes `ev_min` and `sleep_min` from the slices.
    fn refresh_gates(&mut self) {
        self.ev_min = u64::MAX;
        self.sleep_min = u64::MAX;
        for s in &self.slices {
            self.ev_min = self.ev_min.min(s.l2_event.min(s.dram_next));
            self.sleep_min = self.sleep_min.min(s.sleep_at);
        }
    }
}

/// The DRAM-side event bound of one slice at query cycle `now`,
/// recomputed from the queue: the next scheduling opportunity
/// (`bus_free_at`, or the earliest bank-ready time when the bus is
/// free but every candidate bank was busy), `u64::MAX` when nothing is
/// queued. The oracle behind `Slice::dram_next` and the `ev_min`
/// bound (debug builds only).
fn dram_bound(slice: &Slice, now: u64) -> u64 {
    let ctrl = &slice.ctrl;
    if ctrl.queue.is_empty() {
        return u64::MAX;
    }
    if ctrl.bus_free_at >= now {
        ctrl.bus_free_at
    } else {
        let mut ev = u64::MAX;
        for (_, e) in ctrl.queue.iter() {
            ev = ev.min(ctrl.banks[e.bank as usize].ready_at);
        }
        ev
    }
}

/// One slice's cycle: the L2 stage, the DRAM stage and the event
/// bookkeeping, with responses pushed onto `responses` and traffic
/// counted into `stats`. Keeps the stalled-miss verdicts
/// (`Slice::verdicts`) and the tick gates (`dram_next`, `sleep_at`).
fn tick_slice(
    slice: &mut Slice,
    now: u64,
    ctx: &MemTickCtx,
    responses: &mut BinaryHeap<Reverse<(u64, u32, u32)>>,
    stats: &mut SimStats,
) {
    let num_slices = ctx.num_slices;
    let banks = ctx.banks;
    let icnt = ctx.icnt;
    let l2_lat = ctx.l2_lat;
    let extra_dram = ctx.extra_dram;
    let mshr_cap = ctx.mshr_cap;
    let line_mask = ctx.line_mask;
    let line_bytes = ctx.line_bytes;
    let row_bytes = ctx.row_bytes;
    let row_shift = ctx.row_shift;
    let fr_fcfs = ctx.fr_fcfs;
    {
        {
            // L2 stage: process up to l2_ports arrived requests. A miss
            // that cannot enter a full DRAM queue is *skipped over*, not
            // blocked on: L2 hits behind it would otherwise suffer
            // head-of-line delay whenever a co-runner saturates the
            // channel. Misses stay in arrival order among themselves:
            // consumed entries are compacted out in place (front pops
            // while no miss has been bypassed, one order-preserving
            // tail shift afterwards) instead of an O(queue) element
            // shift per removal.
            let mut processed = 0;
            let mut stalled_kept = false; // bypassed misses left in queue
            let mut due_left = false; // port-limited with due entries left
            let mut next_arrival = u64::MAX; // first not-yet-due arrival
            // A sleeping scan (armed below) would re-probe the same
            // stalled misses to the same verdicts; skip it wholesale
            // until a service or arrival can change the outcome.
            let scanned = now >= slice.scan_wake;
            if scanned {
                let mut len = slice.input.len();
                // The leading `old_left` entries carry a stalled-miss
                // verdict from an earlier scan (see `Slice::verdicts`);
                // counted down as the cursor passes them.
                let mut old_left = (slice.verdicts as usize).min(len);
                let mut i = 0; // read cursor
                let mut w = 0; // write cursor (entries kept)
                if old_left > 0
                    && slice.gained_len == 0
                    && slice.ctrl.queue.len() >= ctx.queue_depth
                {
                    // No line gained presence and nothing — read or
                    // write — can enter a full DRAM queue: the whole
                    // verdicted prefix stalls again, unexamined.
                    debug_assert!(
                        slice
                            .input
                            .iter()
                            .take(old_left)
                            .all(|r| slice.is_unmergeable_miss(r, line_mask)),
                        "stale stalled-miss verdict in the skipped prefix"
                    );
                    i = old_left;
                    w = old_left;
                    old_left = 0;
                    stalled_kept = true;
                }
                while i < len {
                    let req = slice.input[i];
                    if processed >= ctx.l2_ports {
                        if req.arrive_at <= now {
                            due_left = true;
                        } else {
                            next_arrival = req.arrive_at;
                        }
                        break;
                    }
                    if req.arrive_at > now {
                        next_arrival = req.arrive_at;
                        break; // queue is FIFO in arrival time
                    }
                    let dram_full = slice.ctrl.queue.len() >= ctx.queue_depth;
                    let line = req.addr & line_mask;
                    // An old verdict stands unless its line gained
                    // presence since: no way scan, no MSHR tag scan.
                    let known_miss = old_left > 0 && {
                        old_left -= 1;
                        !slice.gained_presence(line)
                    };
                    debug_assert!(
                        !known_miss || slice.is_unmergeable_miss(&req, line_mask),
                        "stale stalled-miss verdict"
                    );
                    // Probe without allocating: a stalled miss retries
                    // later, and an early allocation would turn that
                    // retry into a phantom hit. Lines are filled on DRAM
                    // response.
                    let hit = !known_miss && slice.l2.probe(req.addr) == Access::Hit;
                    let consumed = if hit {
                        if !req.is_write {
                            // Write hits are absorbed silently.
                            let at = now + l2_lat + icnt;
                            stats.app_mut(req.app).l2_to_l1_bytes += line_bytes;
                            responses.push(Reverse((at, req.sm, req.warp_slot)));
                        }
                        true
                    } else {
                        // MSHR hit: a fill for this line is already in
                        // flight; merge instead of fetching twice
                        // (merging is not gated by a full DRAM queue).
                        let mshr_hit = if known_miss || req.is_write {
                            None
                        } else {
                            slice.mshr.find(line)
                        };
                        if let Some(idx) = mshr_hit {
                            slice.mshr.merge(idx, req);
                            true
                        } else if !dram_full && (req.is_write || slice.mshr.len() < mshr_cap) {
                            if !req.is_write {
                                // Space only shrinks within a scan, so
                                // nothing ahead of an insert has stalled
                                // in this scan: the only verdicts it can
                                // overturn are the old ones still behind
                                // the cursor, which check the log live.
                                debug_assert!(w == 0, "MSHR insert behind a stalled entry");
                                slice.mshr.insert(line, req);
                                if old_left > 0 && !slice.log_presence(line) {
                                    old_left = 0; // overflow: re-probe the rest
                                }
                            }
                            let row = if row_shift != u32::MAX {
                                req.addr >> row_shift
                            } else {
                                req.addr / row_bytes
                            };
                            let bank = ((row / num_slices) % banks) as u32;
                            slice.ctrl.queue.push_back(req, bank, row);
                            true
                        } else {
                            false // stalled; younger requests bypass
                        }
                    };
                    if consumed {
                        processed += 1;
                        if hit {
                            slice.req_hits += 1;
                        } else {
                            slice.req_misses += 1;
                        }
                        if i == 0 && w == 0 {
                            slice.input.pop_front(); // no gap yet: O(1)
                            len -= 1;
                        } else {
                            i += 1; // leave a gap; closed below
                        }
                    } else {
                        stalled_kept = true;
                        if w != i {
                            slice.input[w] = slice.input[i];
                        }
                        w += 1;
                        i += 1;
                    }
                }
                // Every kept entry below the cursor was examined (or its
                // old verdict re-affirmed) and stalled; a port-limited
                // scan leaves `old_left` unreached verdicts right behind
                // them. The log is spent only once every old verdict
                // has been checked against it.
                slice.verdicts = (w + old_left) as u32;
                if old_left == 0 {
                    slice.gained_len = 0;
                }
                // Close the gap: shift the unexamined tail down over the
                // consumed entries, preserving order.
                if w != i {
                    while i < len {
                        slice.input[w] = slice.input[i];
                        w += 1;
                        i += 1;
                    }
                    slice.input.truncate(w);
                }
            }

            // DRAM stage: one scheduling decision per free bus slot.
            let mut serviced = false;
            // Earliest bank-ready time when the bus was free but every
            // queued request's bank was busy.
            let mut banks_ready_at = u64::MAX;
            if slice.ctrl.bus_free_at <= now && !slice.ctrl.queue.is_empty() {
                let pick = MemSys::schedule_dram(&slice.ctrl, now, fr_fcfs);
                banks_ready_at = pick.err().unwrap_or(u64::MAX);
                if let Ok(idx) = pick {
                    serviced = true;
                    let entry = slice.ctrl.queue.take(idx);
                    let req = entry.req;
                    let global_row = entry.row;
                    // Rows are distributed to slices by `row % slices`, so
                    // the bank index uses the row bits *above* the slice
                    // selection (precomputed at enqueue) or slices would
                    // only ever exercise gcd(slices, banks) of their
                    // banks.
                    let bank = &mut slice.ctrl.banks[entry.bank as usize];
                    let row_hit = bank.open_row == global_row;
                    let lat = if row_hit { ctx.t_row_hit } else { ctx.t_row_miss };
                    // Data latency differs from bank occupancy: an open
                    // row pipelines CAS-to-CAS at bus rate, while a row
                    // miss ties the bank up for the activate cycle.
                    let occupancy = if row_hit { ctx.t_burst } else { ctx.t_rc };
                    let start = now.max(bank.ready_at);
                    let done = start + lat + extra_dram;
                    bank.open_row = global_row;
                    bank.ready_at = start + occupancy;
                    slice.ctrl.bus_free_at = now + ctx.t_burst;

                    if req.is_write {
                        stats.app_mut(req.app).dram_write_bytes += line_bytes;
                    } else {
                        let a = stats.app_mut(req.app);
                        a.dram_read_bytes += line_bytes;
                        a.l2_to_l1_bytes += line_bytes;
                        if row_hit {
                            a.dram_row_hits += 1;
                        } else {
                            a.dram_row_misses += 1;
                        }
                        slice.l2.fill_lru(req.addr);
                        let at = done + l2_lat + icnt;
                        let line = req.addr & line_mask;
                        // The line gained presence: a verdicted write,
                        // or read that arrived after it, now hits.
                        if slice.verdicts > 0 && !slice.log_presence(line) {
                            slice.drop_verdicts();
                        }
                        match slice.mshr.find(line) {
                            Some(idx) => {
                                // Drain the waiter chain in arrival order
                                // (the chain head is the request that went
                                // to DRAM), returning each node to the
                                // free list.
                                let mut node = slice.mshr.remove(idx);
                                while node != MSHR_NONE {
                                    let (w, next) = slice.mshr.drain_next(node);
                                    if w.warp_slot != req.warp_slot || w.sm != req.sm {
                                        // Merged request: counts as L2
                                        // traffic for its own app.
                                        stats.app_mut(w.app).l2_to_l1_bytes += line_bytes;
                                    }
                                    responses.push(Reverse((at, w.sm, w.warp_slot)));
                                    node = next;
                                }
                            }
                            None => {
                                // Read issued before MSHR tracking began
                                // (cannot happen in practice; defensive).
                                responses.push(Reverse((at, req.sm, req.warp_slot)));
                            }
                        }
                    }
                }
            }

            // Event-horizon bookkeeping: the earliest cycle this slice's
            // L2 stage could make progress again. Port-limited due work
            // retries next cycle. A bypassed (stalled) miss can only
            // proceed after a DRAM service frees queue or MSHR space
            // (or fills its line), so it re-arms only when one happened
            // this cycle — otherwise the DRAM-side bound computed by
            // `next_event` covers the wait. Failing those, the first
            // future arrival decides.
            if scanned {
                let mut ev = next_arrival;
                if due_left || (stalled_kept && serviced) {
                    ev = ev.min(now + 1);
                }
                slice.l2_event = ev;
                if stalled_kept && processed == 0 && !due_left && !serviced {
                    // Nothing consumed, nothing freed: the next scan is
                    // identical until a service or push wakes us.
                    slice.scan_wake = next_arrival;
                }
            } else if serviced {
                // A service while the scan slept: stalled misses may now
                // proceed — scan (and let the horizon step) next cycle.
                slice.scan_wake = 0;
                slice.l2_event = slice.l2_event.min(now + 1);
            }

            // The DRAM bound for queries after this tick is exactly
            // what the per-slice `next_event` scan would compute at
            // `now + 1` — a busy bus frees at `bus_free_at` (a service
            // sets it at least `t_burst >= 1` ahead); a free one with
            // work left means the pick just failed, and the arbiter's
            // own pass found the earliest bank-ready time — and it stays
            // exact across elided cycles: banks and the bus mutate only
            // on a service, and no service can happen before it.
            slice.dram_next = if slice.ctrl.queue.is_empty() {
                u64::MAX
            } else if slice.ctrl.bus_free_at > now {
                slice.ctrl.bus_free_at
            } else {
                banks_ready_at
            };
            debug_assert_eq!(
                slice.dram_next,
                dram_bound(slice, now + 1),
                "DRAM bound at cycle {now}"
            );
            // Before min(l2_event, dram_next) a tick is a full no-op:
            // no arrival is due (l2_event covers due work and
            // port-limited retries; a re-scan over only stalled misses
            // probes to the same verdicts because queue/MSHR space can
            // only be freed by a service), and no DRAM pick can succeed
            // before dram_next.
            slice.sleep_at = slice.l2_event.min(slice.dram_next);
        }
    }
}

impl MemSys {
    /// FR-FCFS (or plain FCFS) arbitration: index into the queue of the
    /// request to service next, or — when every queued request's bank
    /// is busy — `Err` with the earliest of their bank-ready times.
    fn schedule_dram(ctrl: &DramCtrl, now: u64, fr_fcfs: bool) -> Result<usize, u64> {
        // One pass: the oldest request that hits an open row on a ready
        // bank wins outright (first ready, FR-FCFS only); failing that,
        // the oldest on any ready bank, remembered on the way. Bank and
        // row were precomputed at enqueue, so the scan is a pair of
        // loads per entry. `Err`: every bank busy, the bus slot stalls.
        let mut pick = None;
        let mut ready_at = u64::MAX;
        for (i, e) in ctrl.queue.iter() {
            let bank = &ctrl.banks[e.bank as usize];
            if bank.ready_at <= now {
                if !fr_fcfs || bank.open_row == e.row {
                    pick = Some(i);
                    break;
                }
                pick = pick.or(Some(i));
            } else {
                ready_at = ready_at.min(bank.ready_at);
            }
        }
        debug_assert_eq!(
            pick,
            {
                // The two scans this replaces: row hits, then oldest.
                let ready = |e: &DramEntry| ctrl.banks[e.bank as usize].ready_at <= now;
                let open = |e: &DramEntry| ctrl.banks[e.bank as usize].open_row == e.row;
                let first = |f: &dyn Fn(&DramEntry) -> bool| {
                    ctrl.queue.iter().find(|(_, e)| f(e)).map(|(i, _)| i)
                };
                let row_hit = fr_fcfs.then(|| first(&|e| ready(e) && open(e))).flatten();
                row_hit.or_else(|| first(&ready))
            },
            "single-pass arbitration disagrees with the two-pass scan"
        );
        pick.ok_or(ready_at)
    }

    /// Earliest cycle `>= now` at which the memory system could change
    /// observable state, or `None` when it is completely idle (nothing
    /// will ever happen again without new requests).
    ///
    /// `now` is the next cycle the device will execute; [`MemSys::tick`]
    /// must already have run for `now - 1`. The bound is the minimum of
    /// the response-heap head, each slice's next L2-stage event
    /// (maintained by `tick`/`push`), and each DRAM channel's next
    /// scheduling opportunity (`bus_free_at`, or the earliest bank-ready
    /// time when the bus is free but every candidate bank was busy).
    /// `ev_min` keeps the minimum of the last two over the slices, so
    /// the query reads O(1) state; it is `debug_assert!`ed against the
    /// per-slice scan.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        let head = self
            .responses
            .peek()
            .map_or(u64::MAX, |&Reverse((at, _, _))| at);
        let ev = head.min(self.ev_min);
        debug_assert!(
            {
                let scan = self
                    .slices
                    .iter()
                    .fold(head, |ev, s| ev.min(s.l2_event).min(dram_bound(s, now)));
                (ev == u64::MAX) == (scan == u64::MAX) && ev.max(now) <= scan.max(now)
            },
            "event bound above the per-slice scan at cycle {now}"
        );
        (ev != u64::MAX).then(|| ev.max(now))
    }

    /// Pops every response due at or before `now`.
    pub fn drain_completions(&mut self, now: u64, out: &mut Vec<Completion>) {
        while let Some(&Reverse((at, sm, slot))) = self.responses.peek() {
            if at > now {
                break;
            }
            self.responses.pop();
            out.push(Completion {
                at,
                sm,
                warp_slot: slot,
            });
        }
    }

    /// True when any DRAM controller has queued requests (the phase
    /// profiler's DRAM-bound vs. L2-bound discriminator).
    pub fn any_dram_queued(&self) -> bool {
        self.slices.iter().any(|s| !s.ctrl.queue.is_empty())
    }

    /// True when no request or response is anywhere in flight.
    pub fn is_idle(&self) -> bool {
        self.responses.is_empty()
            && self
                .slices
                .iter()
                .all(|s| s.input.is_empty() && s.ctrl.queue.is_empty() && s.mshr.is_empty())
    }

    /// Appends one [`SliceDiag`](crate::stats::SliceDiag) per slice —
    /// queue depths and MSHR occupancy for error snapshots.
    pub fn slice_diags(&self, out: &mut Vec<crate::stats::SliceDiag>) {
        for (i, s) in self.slices.iter().enumerate() {
            out.push(crate::stats::SliceDiag {
                id: i as u32,
                input_depth: s.input.len() as u32,
                dram_queue_depth: s.ctrl.queue.len() as u32,
                mshr_used: s.mshr.len() as u32,
            });
        }
    }

    /// Aggregate L2 hit rate across slices (diagnostics): requests
    /// consumed as hits over all requests consumed, each counted once —
    /// the same figure in either step mode.
    pub fn l2_hit_rate(&self) -> f64 {
        let (h, m) = self
            .slices
            .iter()
            .fold((0u64, 0u64), |(h, m), s| (h + s.req_hits, m + s.req_misses));
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    /// Test-only direct access to a slice by global index.
    #[cfg(test)]
    fn slice_mut(&mut self, g: usize) -> &mut Slice {
        &mut self.slices[g]
    }

    /// Test-only: cold-starts every gate after a test wrote slice state
    /// (bus, controller queue) directly, behind the gates' backs.
    #[cfg(test)]
    fn reset_gates(&mut self) {
        self.slices.iter_mut().for_each(Slice::cold_start_gates);
        self.refresh_gates();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;

    fn mk() -> (MemSys, SimStats) {
        let cfg = GpuConfig::test_small();
        (MemSys::new(&cfg), SimStats::new(4))
    }

    fn read(addr: u64, at: u64) -> MemRequest {
        MemRequest {
            addr,
            is_write: false,
            app: AppId(0),
            sm: 0,
            warp_slot: 0,
            arrive_at: at,
        }
    }

    #[test]
    fn l2_hit_completes_quickly() {
        let (mut ms, mut st) = mk();
        // Warm the line via a full DRAM round trip.
        ms.push(read(0x0, 0));
        let mut out = Vec::new();
        for c in 0..1000 {
            ms.tick(c, &mut st);
            ms.drain_completions(c, &mut out);
        }
        assert_eq!(out.len(), 1);
        let miss_at = out[0].at;
        out.clear();

        // Second access: L2 hit, must be much faster.
        ms.push(read(0x0, miss_at));
        for c in miss_at..miss_at + 1000 {
            ms.tick(c, &mut st);
            ms.drain_completions(c, &mut out);
        }
        assert_eq!(out.len(), 1);
        let hit_lat = out[0].at - miss_at;
        assert!(hit_lat < miss_at, "hit {hit_lat} vs miss {miss_at}");
        assert!(st.app_mut(AppId(0)).l2_to_l1_bytes >= 256);
        assert_eq!(st.app_mut(AppId(0)).dram_read_bytes, 128);
    }

    #[test]
    fn writes_do_not_complete() {
        let (mut ms, mut st) = mk();
        ms.push(MemRequest {
            is_write: true,
            ..read(0x0, 0)
        });
        let mut out = Vec::new();
        for c in 0..1000 {
            ms.tick(c, &mut st);
            ms.drain_completions(c, &mut out);
        }
        assert!(out.is_empty());
        assert_eq!(st.app_mut(AppId(0)).dram_write_bytes, 128);
        assert!(ms.is_idle());
    }

    #[test]
    fn row_hits_faster_than_row_misses() {
        let cfg = GpuConfig::test_small();
        let mut ms = MemSys::new(&cfg);
        let mut st = SimStats::new(4);
        let mut out = Vec::new();
        // Two lines in the same row: second should be a row hit.
        ms.push(read(0, 0));
        ms.push(read(128, 0));
        for c in 0..2000 {
            ms.tick(c, &mut st);
            ms.drain_completions(c, &mut out);
        }
        assert_eq!(out.len(), 2);
        let a = st.app_mut(AppId(0));
        assert_eq!(a.dram_row_hits, 1);
        assert_eq!(a.dram_row_misses, 1);
    }

    #[test]
    fn random_rows_all_miss() {
        let cfg = GpuConfig::test_small();
        let row = cfg.dram.row_bytes;
        let mut ms = MemSys::new(&cfg);
        let mut st = SimStats::new(4);
        let mut out = Vec::new();
        // Different rows on the same slice: stride by row_bytes * slices.
        let stride = row * u64::from(cfg.num_mem_ctrls);
        for i in 0..4u64 {
            ms.push(read(i * 7919 * stride, 0));
        }
        for c in 0..20_000 {
            ms.tick(c, &mut st);
            ms.drain_completions(c, &mut out);
        }
        assert_eq!(out.len(), 4);
        assert_eq!(st.app_mut(AppId(0)).dram_row_hits, 0);
    }

    #[test]
    fn slice_routing_is_row_granular() {
        let (ms, _) = mk();
        let row = GpuConfig::test_small().dram.row_bytes;
        assert_eq!(ms.slice_of(0), ms.slice_of(row - 1));
        assert_ne!(ms.slice_of(0), ms.slice_of(row));
    }

    #[test]
    fn mshr_merges_concurrent_reads_to_one_line() {
        let (mut ms, mut st) = mk();
        // Two different warps read the same line in the same cycle: one
        // DRAM fetch, two responses.
        let mut second = read(0x0, 0);
        second.warp_slot = 5;
        ms.push(read(0x0, 0));
        ms.push(second);
        let mut out = Vec::new();
        for c in 0..2000 {
            ms.tick(c, &mut st);
            ms.drain_completions(c, &mut out);
        }
        assert_eq!(out.len(), 2, "both warps woken");
        assert_eq!(
            st.app_mut(AppId(0)).dram_read_bytes,
            128,
            "single DRAM fetch"
        );
        assert_eq!(
            st.app_mut(AppId(0)).l2_to_l1_bytes,
            256,
            "both requests produce L2->L1 traffic"
        );
        assert!(ms.is_idle());
    }

    #[test]
    fn mshr_duplicate_transactions_from_one_warp_both_complete() {
        let (mut ms, mut st) = mk();
        // Same warp, same line, two transactions: the warp needs two
        // responses or it would wait forever.
        ms.push(read(0x0, 0));
        ms.push(read(0x0, 0));
        let mut out = Vec::new();
        for c in 0..2000 {
            ms.tick(c, &mut st);
            ms.drain_completions(c, &mut out);
        }
        assert_eq!(out.len(), 2);
        assert!(ms.is_idle());
    }

    #[test]
    fn mshr_same_line_merge_is_unbounded() {
        // Merging onto an in-flight line is not capped: every reader of
        // the line lands on one MSHR entry and one DRAM fetch, however
        // many there are.
        let mut cfg = GpuConfig::test_small();
        cfg.l2_ports = 16;
        let mut ms = MemSys::new(&cfg);
        let mut st = SimStats::new(4);
        // Hold the DRAM bus so tick 0 only runs the L2/MSHR stage and
        // the table state stays observable.
        ms.slice_mut(0).ctrl.bus_free_at = 100;
        for slot in 0..16u32 {
            let mut r = read(0x0, 0);
            r.warp_slot = slot;
            ms.push(r);
        }
        ms.tick(0, &mut st);
        assert_eq!(ms.slice_mut(0).mshr.len(), 1, "one entry for one line");
        assert_eq!(ms.slice_mut(0).mshr.arena_len(), 16, "one node per waiter");
        let mut out = Vec::new();
        for c in 1..2000 {
            ms.tick(c, &mut st);
            ms.drain_completions(c, &mut out);
        }
        assert_eq!(out.len(), 16, "every merged reader woken");
        assert_eq!(st.app_mut(AppId(0)).dram_read_bytes, 128, "one fetch");
        assert!(ms.is_idle());
    }

    #[test]
    fn mshr_arena_reused_after_drain() {
        // Waiter nodes drained by a fill go on the free list; a second
        // burst of equal width must recycle them rather than grow the
        // arena — the steady-state miss path is allocation-free.
        let mut cfg = GpuConfig::test_small();
        cfg.l2_ports = 8;
        let row = cfg.dram.row_bytes;
        let slices = u64::from(cfg.num_mem_ctrls);
        let mut ms = MemSys::new(&cfg);
        let mut st = SimStats::new(4);
        let mut out = Vec::new();

        let burst = |ms: &mut MemSys, line_addr: u64, at: u64| {
            for slot in 0..4u32 {
                let mut r = read(line_addr, at);
                r.warp_slot = slot;
                ms.push(r);
            }
        };
        burst(&mut ms, 0, 0);
        for c in 0..2000 {
            ms.tick(c, &mut st);
            ms.drain_completions(c, &mut out);
        }
        assert_eq!(out.len(), 4);
        let arena = ms.slice_mut(0).mshr.arena_len();
        assert_eq!(arena, 4, "one node per waiter");

        // Second burst to a *different* line (the first is now in L2),
        // still on slice 0.
        burst(&mut ms, row * slices, 2000);
        for c in 2000..4000 {
            ms.tick(c, &mut st);
            ms.drain_completions(c, &mut out);
        }
        assert_eq!(out.len(), 8);
        assert_eq!(
            ms.slice_mut(0).mshr.arena_len(),
            arena,
            "drained nodes recycled, arena did not grow"
        );
        assert!(ms.is_idle());
    }

    #[test]
    fn mshr_full_table_stalls_new_read_misses() {
        // Distinct-line read misses beyond the MSHR cap stay in the
        // slice input queue (stalled, order preserved) until a fill
        // frees an entry; they complete eventually.
        let mut cfg = GpuConfig::test_small();
        cfg.l2_ports = 8;
        let row = cfg.dram.row_bytes;
        let slices = u64::from(cfg.num_mem_ctrls);
        let mut ms = MemSys::new(&cfg);
        ms.set_mshr_cap(2);
        let mut st = SimStats::new(4);
        // Hold the DRAM bus so the first tick cannot already fill (and
        // free) an entry.
        ms.slice_mut(0).ctrl.bus_free_at = 100;
        for i in 0..4u64 {
            let mut r = read(i * row * slices, 0); // all slice 0, distinct lines
            r.warp_slot = i as u32;
            ms.push(r);
        }
        ms.tick(0, &mut st);
        assert_eq!(ms.slice_mut(0).mshr.len(), 2, "table full at the cap");
        let kept: Vec<u32> = ms.slice_mut(0).input.iter().map(|r| r.warp_slot).collect();
        assert_eq!(kept, [2, 3], "overflow misses stalled in arrival order");
        let mut out = Vec::new();
        for c in 1..5000 {
            ms.tick(c, &mut st);
            ms.drain_completions(c, &mut out);
        }
        assert_eq!(out.len(), 4, "stalled misses complete after fills");
        assert!(ms.is_idle());
    }

    #[test]
    fn backpressure_reported() {
        let (mut ms, _) = mk();
        let mut n = 0u64;
        while ms.can_accept(0) {
            ms.push(read(0, 0));
            n += 1;
            assert!(n < 10_000, "queue never fills");
        }
        assert_eq!(n as usize, SLICE_QUEUE_DEPTH);
    }

    #[test]
    fn fr_fcfs_prioritizes_open_row() {
        let cfg = GpuConfig::test_small();
        let row = cfg.dram.row_bytes;
        let slices = u64::from(cfg.num_mem_ctrls);
        let mut ms = MemSys::new(&cfg);
        let mut st = SimStats::new(4);
        let mut out = Vec::new();

        // Open row 0 with a first access, then queue: a different-row
        // request (older) and a row-0 request (younger). FR-FCFS should
        // service the row-0 request first.
        ms.push(read(0, 0));
        for c in 0..500 {
            ms.tick(c, &mut st);
            ms.drain_completions(c, &mut out);
        }
        out.clear();
        let other_row = read(32 * row * slices, 500);
        // Pick an address on slice 0 but a different row: row index must be
        // a multiple of `slices` to land on slice 0.
        assert_eq!(ms.slice_of(other_row.addr), 0);
        let mut same_row = read(128, 500);
        same_row.warp_slot = 7;
        assert_eq!(ms.slice_of(same_row.addr), 0);
        ms.push(other_row);
        ms.push(same_row);
        for c in 500..3000 {
            ms.tick(c, &mut st);
            ms.drain_completions(c, &mut out);
        }
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].warp_slot, 7, "row hit serviced first");
    }

    #[test]
    fn fcfs_mode_services_in_order() {
        let mut cfg = GpuConfig::test_small();
        cfg.dram.fr_fcfs = false;
        let row = cfg.dram.row_bytes;
        let slices = u64::from(cfg.num_mem_ctrls);
        let mut ms = MemSys::new(&cfg);
        let mut st = SimStats::new(4);
        let mut out = Vec::new();
        ms.push(read(0, 0));
        for c in 0..500 {
            ms.tick(c, &mut st);
            ms.drain_completions(c, &mut out);
        }
        out.clear();
        let mut other_row = read(32 * row * slices, 500);
        other_row.warp_slot = 1;
        let mut same_row = read(128, 500);
        same_row.warp_slot = 7;
        ms.push(other_row);
        ms.push(same_row);
        for c in 500..5000 {
            ms.tick(c, &mut st);
            ms.drain_completions(c, &mut out);
        }
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].warp_slot, 1, "plain FCFS keeps arrival order");
    }

    #[test]
    fn stalled_misses_keep_arrival_order_while_hits_bypass() {
        // Pins the L2 bypass semantics the in-place compaction must
        // preserve: when the DRAM queue is full, misses stay queued *in
        // arrival order among themselves* while younger L2 hits are
        // consumed past them.
        let mut cfg = GpuConfig::test_small();
        cfg.l2_ports = 8; // process the whole scenario in one tick
        cfg.dram.fr_fcfs = false;
        let depth = cfg.dram.queue_depth;
        let mut ms = MemSys::new(&cfg);
        let mut st = SimStats::new(4);
        let mut out = Vec::new();

        // Warm line 0 into slice 0's L2 via a full round trip.
        ms.push(read(0, 0));
        for c in 0..500 {
            ms.tick(c, &mut st);
            ms.drain_completions(c, &mut out);
        }
        assert_eq!(out.len(), 1);
        assert!(ms.is_idle());

        // Keep the DRAM queue full for the tick under test: writes
        // occupy queue slots but produce no responses, and only one
        // leaves per bus slot.
        for _ in 0..depth + 4 {
            ms.slice_mut(0).ctrl.queue.push_back(
                MemRequest {
                    is_write: true,
                    ..read(0, 500)
                },
                0,
                0,
            );
        }

        // Same slice (rows 2, 4, 6 with 2 slices): three misses with two
        // hits interleaved behind them, all due at cycle 500.
        let line = |r: u64, slot: u32| MemRequest {
            warp_slot: slot,
            ..read(r * cfg.dram.row_bytes, 500)
        };
        ms.push(line(2, 1)); // miss A
        ms.push(line(4, 2)); // miss B
        ms.push(line(0, 3)); // hit
        ms.push(line(6, 4)); // miss C
        ms.push(line(0, 5)); // hit
        ms.tick(500, &mut st);

        let kept: Vec<u32> = ms.slice_mut(0).input.iter().map(|r| r.warp_slot).collect();
        assert_eq!(kept, [1, 2, 4], "stalled misses kept, arrival order");
        assert_eq!(ms.responses.len(), 2, "both hits consumed past them");
        assert_eq!(
            ms.slice_mut(0).l2_event,
            501,
            "a DRAM service this tick may have freed space: retry next cycle"
        );
    }

    #[test]
    fn dram_queue_take_is_order_preserving() {
        let mut q = DramQueue::default();
        for i in 0..6u64 {
            q.push_back(read(i, 0), 0, 0);
        }
        // Service out of order (as FR-FCFS does), middle then front.
        let (idx, _) = q.iter().find(|(_, e)| e.req.addr == 3).expect("live");
        assert_eq!(q.take(idx).req.addr, 3);
        let (idx, _) = q.iter().next().expect("live");
        assert_eq!(q.take(idx).req.addr, 0);
        assert_eq!(q.len(), 4);
        let rest: Vec<u64> = q.iter().map(|(_, e)| e.req.addr).collect();
        assert_eq!(rest, [1, 2, 4, 5], "oldest-first order survives takes");

        // Starvation guard: repeated push/take churn with one pinned
        // request must not grow the slot storage without bound.
        for i in 0..10_000u64 {
            q.push_back(read(100 + i, 0), 0, 0);
            let (idx, _) = q.iter().last().expect("live");
            q.take(idx);
        }
        assert!(
            q.slots.len() <= 2 * q.live + 16,
            "tombstones dominate: {} slots for {} live",
            q.slots.len(),
            q.live
        );
    }

    #[test]
    fn next_event_tracks_pending_work() {
        let (mut ms, mut st) = mk();
        assert_eq!(ms.next_event(5), None, "idle memsys has no events");

        ms.push(read(0, 10));
        assert_eq!(ms.next_event(0), Some(10), "next event is the arrival");
        assert_eq!(ms.next_event(12), Some(12), "past events clamp to now");

        let mut out = Vec::new();
        let mut c = 0;
        while !ms.is_idle() {
            ms.tick(c, &mut st);
            ms.drain_completions(c, &mut out);
            // While anything is in flight the memsys must always offer
            // a bound — a busy system with no next event would deadlock
            // the event-horizon stepper.
            if !ms.is_idle() {
                assert!(ms.next_event(c + 1).is_some(), "busy but eventless at {c}");
            }
            c += 1;
            assert!(c < 2000, "single read never completed");
        }
        assert_eq!(out.len(), 1);
        assert_eq!(ms.next_event(c), None, "drained memsys is eventless again");
    }
}

/// The stalled-miss verdicts (`Slice::verdicts` + the presence log):
/// one directed test per invalidation path and a seeded stress, all run
/// against a twin that re-probes everything.
#[cfg(test)]
mod verdict_tests {
    use super::*;
    use crate::rng::SimRng;

    /// Seeds of the randomized stress.
    const SEEDS: u64 = if cfg!(feature = "proptest-tests") { 24 } else { 3 };

    /// Far enough out that a held bus never frees by itself.
    const HOLD: u64 = 1 << 40;

    /// Two memory systems driven identically. `slow` is a non-eliding
    /// reference: before every tick it forgets its verdicts and opens
    /// every gate (`sleep_at`, `sleep_min`, `scan_wake`), so it ticks
    /// every busy slice and re-probes its whole queue, as the tick did
    /// before any elision existed; `fast` must agree with it on every
    /// queue, tally, event bound, response and statistic after every
    /// tick.
    struct Twin {
        fast: MemSys,
        slow: MemSys,
        st_fast: SimStats,
        st_slow: SimStats,
        /// Every completion drained so far.
        done: Vec<Completion>,
    }

    impl Twin {
        fn new(cfg: &GpuConfig) -> Self {
            Twin {
                fast: MemSys::new(cfg),
                slow: MemSys::new(cfg),
                st_fast: SimStats::new(4),
                st_slow: SimStats::new(4),
                done: Vec::new(),
            }
        }

        /// Applies `f` — a direct write of slice state (the bus, the
        /// controller queue) behind the tick gates' backs — to both
        /// sides, then cold-starts the gates.
        fn both(&mut self, f: impl Fn(&mut MemSys)) {
            self.knob(f);
            self.fast.reset_gates();
            self.slow.reset_gates();
        }

        /// Applies `f` — public API calls, which keep the gates right
        /// themselves — to both sides.
        fn knob(&mut self, f: impl Fn(&mut MemSys)) {
            f(&mut self.fast);
            f(&mut self.slow);
        }

        fn push(&mut self, req: MemRequest) {
            self.fast.push(req);
            self.slow.push(req);
        }

        fn tick(&mut self, now: u64) {
            for s in &mut self.slow.slices {
                s.drop_verdicts();
                s.sleep_at = 0;
                s.scan_wake = 0;
            }
            self.slow.sleep_min = 0;
            self.fast.tick(now, &mut self.st_fast);
            self.slow.tick(now, &mut self.st_slow);
            for (g, (a, b)) in self.fast.slices.iter().zip(&self.slow.slices).enumerate() {
                assert_eq!(a.input, b.input, "slice {g} input queue, cycle {now}");
                assert_eq!(
                    (a.ctrl.queue.len(), a.mshr.len(), a.l2_event),
                    (b.ctrl.queue.len(), b.mshr.len(), b.l2_event),
                    "slice {g} (dram queue, mshr, l2_event), cycle {now}"
                );
                assert_eq!(
                    (a.req_hits, a.req_misses),
                    (b.req_hits, b.req_misses),
                    "slice {g} consumption tallies, cycle {now}"
                );
            }
            let (mut a, mut b) = (Vec::new(), Vec::new());
            self.fast.drain_completions(now, &mut a);
            self.slow.drain_completions(now, &mut b);
            assert_eq!(a, b, "completions, cycle {now}");
            self.done.extend(a);
            assert_eq!(self.st_fast, self.st_slow, "stats, cycle {now}");
            assert_eq!(
                self.fast.next_event(now + 1),
                self.slow.next_event(now + 1),
                "event bound after cycle {now}"
            );
        }

        /// Ticks from `from` until both are idle; returns the end cycle.
        fn run_to_idle(&mut self, from: u64) -> u64 {
            let mut c = from;
            while !self.fast.is_idle() || !self.slow.is_idle() {
                self.tick(c);
                c += 1;
                assert!(c < from + 200_000, "never drained");
            }
            c
        }

        fn slice0(&mut self) -> &mut Slice {
            self.fast.slice_mut(0)
        }

        fn queued_slots(&mut self) -> Vec<u32> {
            self.slice0().input.iter().map(|r| r.warp_slot).collect()
        }
    }

    /// One-tick scenarios on slice 0: plain FCFS, wide L2 port.
    fn cfg(l2_ports: u32) -> GpuConfig {
        let mut c = GpuConfig::test_small();
        c.l2_ports = l2_ports;
        c.dram.fr_fcfs = false;
        c
    }

    /// Address of the `k`-th line of slice 0 (16 lines per row, slice 0
    /// owns the even rows), so consecutive lines spread over L2 sets.
    fn line0(k: u64) -> u64 {
        let c = GpuConfig::test_small();
        (k / 16) * c.dram.row_bytes * u64::from(c.num_mem_ctrls) + (k % 16) * 128
    }

    fn rd(k: u64, slot: u32, at: u64) -> MemRequest {
        MemRequest {
            addr: line0(k),
            is_write: false,
            app: AppId(0),
            sm: 0,
            warp_slot: slot,
            arrive_at: at,
        }
    }

    fn wr(k: u64, at: u64) -> MemRequest {
        MemRequest {
            is_write: true,
            warp_slot: u32::MAX,
            ..rd(k, 0, at)
        }
    }

    /// Holds slice 0's DRAM bus and parks `n` filler writes in its
    /// controller queue (they occupy slots, fill nothing, wake no one).
    fn hold_bus_with_fillers(t: &mut Twin, n: usize) {
        t.both(|ms| {
            let s = ms.slice_mut(0);
            s.ctrl.bus_free_at = HOLD;
            for j in 0..n {
                s.ctrl.queue.push_back(wr(10_000 + j as u64, 0), 0, 0);
            }
        });
    }

    fn release_bus(t: &mut Twin, at: u64) {
        t.both(|ms| ms.slice_mut(0).ctrl.bus_free_at = at);
    }

    /// Frees `n` controller-queue slots at once, waking the scan as the
    /// services that would have freed them do.
    fn free_dram_slots(t: &mut Twin, n: usize) {
        t.both(|ms| {
            let s = ms.slice_mut(0);
            for _ in 0..n {
                let (idx, _) = s.ctrl.queue.iter().next().expect("a filler is queued");
                s.ctrl.queue.take(idx);
            }
            s.scan_wake = 0;
        });
    }

    #[test]
    fn fill_turns_a_verdicted_write_into_a_hit() {
        let c = cfg(8);
        let depth = c.dram.queue_depth;
        let mut t = Twin::new(&c);
        t.both(|ms| ms.slice_mut(0).ctrl.bus_free_at = HOLD);
        // A read of line 0 goes to DRAM (oldest in the queue) ...
        t.push(rd(0, 1, 0));
        t.tick(0);
        assert_eq!(t.slice0().mshr.len(), 1);
        // ... the queue fills up behind it, and a write to the same
        // line stalls on the full queue: L2 miss, verdicted.
        hold_bus_with_fillers(&mut t, depth - 1);
        t.push(wr(0, 1));
        t.tick(1);
        assert_eq!((t.slice0().verdicts, t.slice0().gained_len), (1, 0));
        // The read's service fills line 0: presence gained, logged.
        release_bus(&mut t, 2);
        t.tick(2);
        assert_eq!((t.slice0().verdicts, t.slice0().gained_len), (1, 1));
        // The next scan must re-probe the write and absorb it as a hit
        // (a stale "known miss" would send it to DRAM instead).
        t.tick(3);
        assert!(t.slice0().input.is_empty(), "write absorbed by the L2 hit");
        assert_eq!(t.slice0().req_hits, 1);
        t.run_to_idle(4);
        assert_eq!(t.done.len(), 1);
        assert_eq!(
            t.st_fast.app(AppId(0)).dram_write_bytes,
            (depth as u64 - 1) * 128,
            "only the fillers reached DRAM as writes"
        );
    }

    #[test]
    fn mshr_insert_turns_a_later_verdicted_read_into_a_merge() {
        let c = cfg(8);
        let mut t = Twin::new(&c);
        hold_bus_with_fillers(&mut t, c.dram.queue_depth);
        // Two reads of one line stall on the full DRAM queue.
        t.push(rd(0, 1, 0));
        t.push(rd(0, 2, 0));
        t.tick(0);
        assert_eq!(t.slice0().verdicts, 2);
        // One filler leaves; the first read takes the slot and the MSHR
        // entry, and the second — still verdicted "nothing to merge
        // onto" — must see that insert and merge, not stall for a
        // second fetch.
        release_bus(&mut t, 1);
        t.tick(1);
        t.tick(2);
        assert!(t.slice0().input.is_empty(), "insert, then merge");
        assert_eq!(t.slice0().mshr.len(), 1);
        t.run_to_idle(3);
        assert_eq!(t.done.len(), 2, "both readers woken");
        assert_eq!(t.st_fast.app(AppId(0)).dram_read_bytes, 128, "one fetch");
    }

    #[test]
    fn write_among_stalled_reads_proceeds_when_only_the_mshr_is_full() {
        let c = cfg(8);
        let mut t = Twin::new(&c);
        t.knob(|ms| ms.set_mshr_cap(1));
        hold_bus_with_fillers(&mut t, c.dram.queue_depth - 1);
        t.push(rd(0, 0, 0)); // takes the only MSHR and the last slot
        t.tick(0);
        t.push(rd(1, 1, 1));
        t.push(wr(2, 1));
        t.push(rd(3, 2, 1));
        t.tick(1);
        assert_eq!(t.slice0().verdicts, 3, "all three stall on the full queue");
        // One filler leaves: DRAM has a slot, the MSHR table does not.
        // The space test is live and per entry — the verdicted write
        // goes, the verdicted reads on either side of it stay.
        release_bus(&mut t, 2);
        t.tick(2);
        t.tick(3);
        assert_eq!(t.queued_slots(), [1, 2]);
        assert_eq!((t.slice0().verdicts, t.slice0().gained_len), (2, 0));
        t.run_to_idle(4);
        assert_eq!(t.done.len(), 3);
    }

    #[test]
    fn port_limited_scan_keeps_the_unreached_verdicts_and_the_log() {
        let c = cfg(2);
        let mut t = Twin::new(&c);
        hold_bus_with_fillers(&mut t, c.dram.queue_depth);
        // Lines 0 1 2 0 3: the second reader of line 0 sits *behind*
        // the point where the next scan runs out of ports.
        for (slot, k) in [0u64, 1, 2, 0, 3].into_iter().enumerate() {
            t.push(rd(k, slot as u32, 0));
        }
        t.tick(0);
        assert_eq!(t.slice0().verdicts, 5, "stalls do not use up ports");
        free_dram_slots(&mut t, 4);
        // Scan 1 inserts lines 0 and 1 and stops inside the prefix: the
        // three unreached verdicts stand, and so must the log.
        t.tick(1);
        assert_eq!((t.slice0().verdicts, t.slice0().gained_len), (3, 2));
        // Scan 2: line 2 is a known miss; the reader of line 0 finds
        // its line in the kept log, re-probes and merges.
        t.tick(2);
        assert_eq!(t.queued_slots(), [4]);
        assert_eq!(t.slice0().mshr.len(), 3);
        t.tick(3);
        assert_eq!((t.slice0().verdicts, t.slice0().gained_len), (0, 0));
        release_bus(&mut t, 4);
        t.run_to_idle(4);
        assert_eq!(t.done.len(), 5);
        assert_eq!(t.st_fast.app(AppId(0)).dram_read_bytes, 4 * 128);
    }

    #[test]
    fn log_overflow_falls_back_to_a_full_reprobe() {
        let c = cfg(2);
        let mut t = Twin::new(&c);
        hold_bus_with_fillers(&mut t, c.dram.queue_depth);
        // Eleven distinct lines, then line 0 again at the very back.
        let n = PRESENCE_LOG_CAP as u64 + 3;
        for k in 0..n {
            t.push(rd(k, k as u32, 0));
        }
        t.push(rd(0, n as u32, 0));
        t.tick(0);
        assert_eq!(t.slice0().verdicts as u64, n + 1);
        free_dram_slots(&mut t, c.dram.queue_depth);
        // Two inserts per port-limited scan fill the log ...
        let filling = PRESENCE_LOG_CAP as u64 / 2;
        for cyc in 1..=filling {
            t.tick(cyc);
        }
        assert_eq!(
            (t.slice0().verdicts, usize::from(t.slice0().gained_len)),
            (4, PRESENCE_LOG_CAP)
        );
        // ... and the next insert overflows it: every verdict goes.
        t.tick(filling + 1);
        assert_eq!((t.slice0().verdicts, t.slice0().gained_len), (0, 0));
        // The trailing reader of line 0 is re-probed and merges.
        t.tick(filling + 2);
        assert!(t.slice0().input.is_empty());
        assert_eq!(t.slice0().mshr.len() as u64, n);
        release_bus(&mut t, filling + 3);
        t.run_to_idle(filling + 3);
        assert_eq!(t.done.len() as u64, n + 1);
        assert_eq!(t.st_fast.app(AppId(0)).dram_read_bytes, n * 128);
    }

    #[test]
    fn raising_the_mshr_cap_unstalls_without_a_stale_verdict() {
        let c = cfg(8);
        let mut t = Twin::new(&c);
        t.both(|ms| {
            ms.set_mshr_cap(1);
            ms.slice_mut(0).ctrl.bus_free_at = HOLD;
        });
        for k in 0..3 {
            t.push(rd(k, k as u32, 0));
        }
        t.tick(0);
        assert_eq!(t.queued_slots(), [1, 2], "table full at the cap");
        assert_eq!(t.slice0().verdicts, 2);
        t.tick(1);
        let s = t.slice0();
        assert!(
            s.scan_wake == u64::MAX || s.sleep_at > 1,
            "the tick or the scan was elided"
        );
        t.knob(|ms| ms.set_mshr_cap(GpuConfig::MAX_MSHRS_PER_SLICE));
        assert_eq!((t.slice0().verdicts, t.slice0().scan_wake), (0, 0));
        t.tick(2);
        assert!(t.slice0().input.is_empty(), "both proceed at the next tick");
        assert_eq!(t.slice0().mshr.len(), 3);
        release_bus(&mut t, 3);
        t.run_to_idle(3);
        assert_eq!(t.done.len(), 3);
    }

    #[test]
    fn random_traffic_completes_every_read_exactly_once() {
        // A 16-line L2 under a 96-line universe: hits, merges, MSHR
        // stalls, queue stalls and evictions all collide, on both
        // slices, while the fault knobs flip underneath.
        let mut c = GpuConfig::test_small();
        c.l2_slice.bytes = 2048;
        let icnt = u64::from(c.icnt_lat);
        for seed in 0..SEEDS {
            let mut rng = SimRng::seed_from_u64(0x5EED_0000 + seed);
            let mut t = Twin::new(&c);
            let mut next_id = 0u32;
            let mut addrs = Vec::new();
            let mut p_burst = 30;
            let cycles = 12_000;
            for now in 0..cycles {
                if now % 1500 == 0 {
                    p_burst = [2, 10, 30, 60][rng.gen_range(4) as usize];
                }
                if rng.gen_range(400) == 0 {
                    let cap = 1 + rng.gen_range(u64::from(GpuConfig::MAX_MSHRS_PER_SLICE)) as u32;
                    t.knob(|ms| ms.set_mshr_cap(cap));
                }
                if rng.gen_range(400) == 0 {
                    let (l2, dram) = (rng.gen_range(8) as u32, rng.gen_range(40) as u32);
                    t.knob(|ms| ms.set_extra_latency(l2, dram));
                }
                if rng.gen_range(100) < p_burst {
                    // One warp access: up to 32 transactions admitted
                    // whole, so a queue can overshoot its depth.
                    addrs.clear();
                    for _ in 0..1 + rng.gen_range(32) {
                        addrs.push(rng.gen_range(96) * 128);
                    }
                    let ok = t.fast.can_accept_all(&addrs);
                    assert_eq!(ok, t.slow.can_accept_all(&addrs));
                    if ok {
                        let is_write = rng.gen_range(5) == 0;
                        for &addr in &addrs {
                            t.push(MemRequest {
                                addr,
                                is_write,
                                app: AppId((next_id % 2) as u16),
                                sm: 0,
                                warp_slot: if is_write { u32::MAX } else { next_id },
                                arrive_at: now + icnt,
                            });
                            next_id += u32::from(!is_write);
                        }
                    }
                }
                t.tick(now);
            }
            t.knob(|ms| {
                ms.set_mshr_cap(GpuConfig::MAX_MSHRS_PER_SLICE);
                ms.set_extra_latency(0, 0);
            });
            t.run_to_idle(cycles);
            let mut seen = vec![0u8; next_id as usize];
            for d in &t.done {
                seen[d.warp_slot as usize] += 1;
            }
            assert!(next_id > 2_000, "seed {seed}: only {next_id} reads pushed");
            assert!(
                seen.iter().all(|&n| n == 1),
                "seed {seed}: a read completed {:?} times",
                seen.iter().find(|&&n| n != 1)
            );
        }
    }
}
