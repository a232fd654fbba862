//! Sharded-SM stepping: data structures and the parallel phase of the
//! sharded simulation loop (DESIGN.md §12).
//!
//! SMs interact only through the shared L2/DRAM [`MemSys`], so a cycle
//! splits into an embarrassingly parallel half (scheduler picks,
//! address generation, L1 probes, SM-local completions) and a serial
//! merge half (memory-system admission, block dispatch, handoffs).
//! [`ShardPlan`] partitions the SM ids into `k` contiguous shards;
//! each shard's parallel half runs against a [`ShardCell`] that owns
//! its SMs for the duration of a `run`/`run_for` call, and the serial
//! half drains the suspended accesses in canonical rotation order so
//! the merged request stream — and therefore every statistic — is
//! bit-identical to the unsharded reference step.
//!
//! [`SmActivity`] — the exact ready / dispatch / next-wake summaries
//! that let a step visit only the SMs that can act — lives here too. It
//! is the one SM-activity implementation: the device keeps one over all
//! its SMs for the default lane, and every cell keeps one over its own.

use std::sync::{Arc, Condvar, Mutex};

use crate::config::GpuConfig;
use crate::gpu::MAX_APPS;
use crate::kernel::KernelDesc;
use crate::memsys::{tick_shard, Completion, MemShard, MemSys, MemTickCtx};
use crate::sm::Sm;
use crate::stats::{IssueDelta, SimStats};
use crate::trace_fmt::{KernelTrace, TraceHook};

/// A fixed partition of the SM ids `0..num_sms` into `shards`
/// contiguous, equally sized ranges (the last may be short). The
/// partition — and the canonical merge order derived from it — depends
/// only on `(num_sms, shards)`, never on thread timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    /// Number of SMs being partitioned.
    pub num_sms: u32,
    /// Number of shards (at least 1, at most `num_sms`).
    pub shards: u32,
}

impl ShardPlan {
    /// Builds the plan, clamping `shards` into `[1, num_sms]`.
    pub fn new(num_sms: u32, shards: u32) -> Self {
        ShardPlan {
            num_sms,
            shards: shards.clamp(1, num_sms.max(1)),
        }
    }

    /// SMs per shard (ceiling division; every shard except possibly the
    /// last holds exactly this many).
    pub fn chunk(&self) -> u32 {
        self.num_sms.div_ceil(self.shards)
    }

    /// Shard owning SM `sm`.
    pub fn shard_of(&self, sm: u32) -> u32 {
        sm / self.chunk()
    }

    /// `(first_sm, len)` of each shard, in shard order.
    pub fn ranges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let chunk = self.chunk();
        let n = self.num_sms;
        (0..self.shards).filter_map(move |s| {
            let base = s * chunk;
            if base >= n {
                None
            } else {
                Some((base, chunk.min(n - base)))
            }
        })
    }
}

/// One application's immutable launch state, snapshotted for the
/// duration of a sharded run so the parallel phase never borrows the
/// device (kernels and replay traces are never mutated mid-run).
#[derive(Debug)]
pub(crate) struct SnapApp {
    /// The launched kernel.
    pub kernel: KernelDesc,
    /// Its address-space base.
    pub base: u64,
    /// Replay trace, when the app replays a recording. Recording apps
    /// force the unsharded path, so `Record` never appears here.
    pub replay: Option<Arc<KernelTrace>>,
}

/// Everything the parallel phase needs, owned (no borrow of [`Gpu`]).
#[derive(Debug)]
pub(crate) struct RunSnapshot {
    /// Per-app launch state, indexed by app id.
    pub apps: Vec<SnapApp>,
    /// Device configuration.
    pub cfg: GpuConfig,
}

/// Wake-ring length: a sleeper due fewer than this many cycles after
/// the filing cycle goes to ring slot `wake % WAKE_RING`, a later one
/// to the overflow set.
const WAKE_RING: u64 = 64;

/// Exact activity summaries over a slab of SMs (local indices `0..n`),
/// so a step can visit only the SMs that can act. Three sets, one bit
/// per SM:
///
/// - `ready`: bit `i` ⇔ `sms[i].has_ready_work()`. Set when a memory
///   response is delivered, re-derived after every visit.
/// - `dispatch`: bit `i` ⇔ SM `i` is in service, owned, and its owner
///   has undispatched blocks — a superset of the SMs that can take a
///   block this cycle (slot space and pending handoffs are checked at
///   the visit). Only the device fills it; a cell's dispatch runs in the
///   serial merge, which walks every SM while blocks remain.
/// - wakes: `wake_at[i]` is SM `i`'s filed next sleeper wake-up
///   (`u64::MAX` = none), filed in ring slot `wake_at % 64` when it was
///   under 64 cycles past the filing cycle, in the overflow set `far`
///   otherwise. A step at cycle `c` consumes ring slot `c % 64`, after
///   moving any far wake that came within reach into the ring.
///
/// **Invariants** (between steps; the users `debug_assert!` each
/// elision against the scan it replaces):
/// - every not-ready SM's `wake_at` equals its `next_wake()`, and is
///   filed in the ring slot of that cycle or in `far`;
/// - every filed wake is at or after the next cycle to be stepped, and
///   the clock never jumps past one, so no ring slot is skipped while
///   it holds a live wake;
/// - a ready SM may carry a stale `wake_at` — it is visited every step
///   anyway and refiled when it stops being ready ([`Self::refresh`]);
/// - stale ring and far bits (a refiled or no longer sleeping SM) are
///   harmless: visiting an SM that cannot act is a no-op, and the wake
///   minimum skips any bit whose `wake_at` disagrees with its slot.
///
/// Outside a visit an SM's next wake can only *decrease* (sleepers are
/// popped only by `Sm::wake`, at a visit), so the cached `wake_min` is
/// exact whenever it is not in the past, and refiling lowers it with a
/// plain `min`.
#[derive(Debug, Clone)]
pub(crate) struct SmActivity {
    /// Number of SMs covered.
    n: usize,
    /// `u64` words per set.
    words: usize,
    ready: Vec<u64>,
    dispatch: Vec<u64>,
    wake_at: Vec<u64>,
    /// `WAKE_RING` sets of `words` words each.
    ring: Vec<u64>,
    far: Vec<u64>,
    /// Lower bound on every wake filed in `far` (`u64::MAX` = none).
    far_min: u64,
    /// Cached `min(wake_at)` over the not-ready SMs; exact when not
    /// below the query cycle (see type docs).
    wake_min: u64,
}

impl SmActivity {
    /// Empty summaries for `n` SMs; [`Self::rebuild`] before use.
    pub fn new(n: usize) -> Self {
        let words = n.div_ceil(64).max(1);
        SmActivity {
            n,
            words,
            ready: vec![0; words],
            dispatch: vec![0; words],
            wake_at: vec![u64::MAX; n],
            ring: vec![0; words * WAKE_RING as usize],
            far: vec![0; words],
            far_min: u64::MAX,
            wake_min: u64::MAX,
        }
    }

    /// Recomputes every summary from scratch; `base` is the next cycle
    /// to be stepped (no SM may sleep before it) and `dispatch` decides
    /// each SM's dispatch bit.
    pub fn rebuild(&mut self, sms: &[Sm], base: u64, mut dispatch: impl FnMut(usize, &Sm) -> bool) {
        debug_assert_eq!(sms.len(), self.n);
        self.ready.fill(0);
        self.dispatch.fill(0);
        self.ring.fill(0);
        self.far.fill(0);
        self.far_min = u64::MAX;
        self.wake_min = u64::MAX;
        for (i, sm) in sms.iter().enumerate() {
            self.set_ready(i, sm.has_ready_work());
            if dispatch(i, sm) {
                self.dispatch[i / 64] |= 1 << (i % 64);
            }
            self.file_wake(i, sm.next_wake().unwrap_or(u64::MAX), base);
        }
    }

    /// Sets or clears SM `i`'s ready bit.
    #[inline]
    pub fn set_ready(&mut self, i: usize, ready: bool) {
        let bit = 1u64 << (i % 64);
        if ready {
            self.ready[i / 64] |= bit;
        } else {
            self.ready[i / 64] &= !bit;
        }
    }

    /// Whether any SM has ready work.
    #[inline]
    pub fn any_ready(&self) -> bool {
        self.ready.iter().any(|&w| w != 0)
    }

    /// The dispatch superset (see type docs).
    #[inline]
    pub fn dispatch(&self) -> &[u64] {
        &self.dispatch
    }

    /// Files SM `i`'s next wake at `at` (`u64::MAX` = no sleeper);
    /// `base` is the next cycle whose ring slot has not been consumed.
    #[inline]
    fn file_wake(&mut self, i: usize, at: u64, base: u64) {
        self.wake_at[i] = at;
        if at == u64::MAX {
            return;
        }
        debug_assert!(
            at >= base,
            "SM {i} filed a wake at {at}, before cycle {base}"
        );
        let bit = 1u64 << (i % 64);
        if at - base < WAKE_RING {
            self.ring[(at % WAKE_RING) as usize * self.words + i / 64] |= bit;
        } else {
            self.far[i / 64] |= bit;
            self.far_min = self.far_min.min(at);
        }
        self.wake_min = self.wake_min.min(at);
    }

    /// Post-visit upkeep for SM `i` at base cycle `base`: re-derives its
    /// ready bit and refiles its wake. An SM that was ready and stays
    /// ready skips the refile — it is visited again next step, and
    /// refiled when it stops being ready. An unchanged wake is still
    /// filed: its slot lies ahead, so nothing has consumed it.
    #[inline]
    pub fn refresh(&mut self, i: usize, sm: &Sm, base: u64) {
        let ready = sm.has_ready_work();
        if ready && has_bit(&self.ready, i) {
            return;
        }
        self.set_ready(i, ready);
        let at = sm.next_wake().unwrap_or(u64::MAX);
        if at != self.wake_at[i] {
            self.file_wake(i, at, base);
        }
    }

    /// Whether no SM can act at `now`: none ready, no dispatch
    /// candidate, and no wake filed at or before `now` (the cached
    /// minimum never exceeds a live filing). An idle slab may then skip
    /// [`Self::take_visit`]: the slot it leaves unconsumed holds only
    /// stale bits, and a far wake is pulled in by the first visit it
    /// comes due at.
    #[inline]
    pub fn quiet_at(&self, now: u64) -> bool {
        self.wake_min > now && self.ready.iter().chain(&self.dispatch).all(|&w| w == 0)
    }

    /// Writes into `out` the SMs that may act at cycle `now` — ready,
    /// in the dispatch superset, or filed to wake at `now` — and
    /// consumes `now`'s ring slot. Call once per stepped cycle.
    pub fn take_visit(&mut self, now: u64, out: &mut Vec<u64>) {
        if self.far_min < now + WAKE_RING {
            self.pull_far(now);
        }
        let slot = (now % WAKE_RING) as usize * self.words;
        out.clear();
        for w in 0..self.words {
            out.push(self.ready[w] | self.dispatch[w] | self.ring[slot + w]);
            self.ring[slot + w] = 0;
        }
    }

    /// Moves every far wake due before `now + WAKE_RING` into its ring
    /// slot and drops far bits of SMs that no longer sleep.
    fn pull_far(&mut self, now: u64) {
        self.far_min = u64::MAX;
        for w in 0..self.words {
            let mut bits = self.far[w];
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let at = self.wake_at[w * 64 + b];
                if at == u64::MAX || at < now + WAKE_RING {
                    self.far[w] &= !(1 << b);
                    if at != u64::MAX {
                        self.ring[(at % WAKE_RING) as usize * self.words + w] |= 1 << b;
                    }
                } else {
                    self.far_min = self.far_min.min(at);
                }
            }
        }
    }

    /// Earliest filed wake at or after `base` (the next cycle to step),
    /// read from the cache or, when the cached value is in the past,
    /// from the first live ring slot and the far set. Exact over the
    /// not-ready SMs; callers query it only when no SM stayed ready.
    pub fn wake_min(&mut self, base: u64) -> Option<u64> {
        if self.wake_min < base {
            self.wake_min = self.scan_wake_min(base);
        }
        (self.wake_min != u64::MAX).then_some(self.wake_min)
    }

    fn scan_wake_min(&self, base: u64) -> u64 {
        let mut best = u64::MAX;
        for at in base..base + WAKE_RING {
            let slot = (at % WAKE_RING) as usize * self.words;
            let mut bits = Rotation::new(&self.ring[slot..slot + self.words], 0);
            if bits.any(|i| self.wake_at[i] == at) {
                best = at;
                break;
            }
        }
        for i in Rotation::new(&self.far, 0) {
            let at = self.wake_at[i];
            if at >= base {
                best = best.min(at);
            }
        }
        best
    }

    /// Sets every SM's bit in `out` (the reference step's visit set).
    pub fn all(&self, out: &mut [u64]) {
        for (w, word) in out.iter_mut().enumerate() {
            let left = self.n - w * 64;
            *word = if left >= 64 { !0 } else { (1 << left) - 1 };
        }
    }
}

/// Whether bit `i` of `set` is set.
#[inline]
pub(crate) fn has_bit(set: &[u64], i: usize) -> bool {
    set[i / 64] & (1 << (i % 64)) != 0
}

/// The set bits of an SM set in rotation order from bit `start`:
/// `start..`, then `..start`, each ascending (`start = 0` is plain
/// ascending order). Bits past the slab's SM count must be clear.
pub(crate) struct Rotation<'a> {
    set: &'a [u64],
    /// Unvisited bits of the current word; `base` is its first index.
    cur: u64,
    base: usize,
    /// Next whole word to load, and how many are left to load.
    next: usize,
    left: usize,
    /// The start word's bits below `start`, visited last.
    tail: u64,
    tail_base: usize,
}

impl<'a> Rotation<'a> {
    /// Walks `set` from bit `start` (which must lie inside it).
    #[inline]
    pub fn new(set: &'a [u64], start: usize) -> Self {
        let (w, b) = (start / 64, start % 64);
        Rotation {
            set,
            cur: set[w] & (!0 << b),
            base: w * 64,
            next: if w + 1 == set.len() { 0 } else { w + 1 },
            left: set.len() - 1,
            tail: set[w] & ((1 << b) - 1),
            tail_base: w * 64,
        }
    }
}

impl Iterator for Rotation<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        loop {
            if self.cur != 0 {
                let b = self.cur.trailing_zeros() as usize;
                self.cur &= self.cur - 1;
                return Some(self.base + b);
            }
            if self.left > 0 {
                self.left -= 1;
                self.cur = self.set[self.next];
                self.base = self.next * 64;
                self.next = if self.next + 1 == self.set.len() {
                    0
                } else {
                    self.next + 1
                };
            } else if self.tail != 0 {
                self.cur = std::mem::take(&mut self.tail);
                self.base = self.tail_base;
            } else {
                return None;
            }
        }
    }
}

/// One shard's working state during a sharded run. Owns its SMs
/// (drained out of `Gpu::sms` at run entry, restored at every exit)
/// plus their [`SmActivity`] summaries, maintained at every point an SM
/// is touched, so phase A visits only the SMs that can act and
/// quiescence and horizon reads are bit-equal to the reference scans.
#[derive(Debug)]
pub(crate) struct ShardCell {
    /// Global id of `sms[0]`.
    pub base: u32,
    /// The shard's SMs, in global id order.
    pub sms: Vec<Sm>,
    /// Ready / next-wake summaries of `sms` (the dispatch set stays
    /// empty: dispatch runs in the serial merge).
    pub act: SmActivity,
    /// Scratch for phase A's visit set.
    visit: Vec<u64>,
    /// Global ids (ascending) of SMs holding a suspended access that
    /// the serial merge phase must resolve this cycle.
    pub pending: Vec<u32>,
    /// Per-app issue statistics accumulated by the parallel phase;
    /// folded into [`SimStats`](crate::stats::SimStats) at run exit.
    pub deltas: [IssueDelta; MAX_APPS],
    /// Per-app blocks retired this cycle by the parallel phase
    /// (completions and SM-local issue); folded every cycle.
    pub retired: [u32; MAX_APPS],
    /// Whether any SM of this shard had ready work this cycle (the
    /// reference loop's `any_issued` contribution).
    pub any_issued: bool,
}

impl ShardCell {
    /// Wraps `sms` (whose first element has global id `base`) at device
    /// cycle `cycle` (the next one to be stepped), building their
    /// activity summaries.
    pub fn new(base: u32, sms: Vec<Sm>, cycle: u64) -> Self {
        let mut act = SmActivity::new(sms.len());
        act.rebuild(&sms, cycle, |_, _| false);
        ShardCell {
            base,
            sms,
            act,
            visit: Vec::new(),
            pending: Vec::new(),
            deltas: [IssueDelta::default(); MAX_APPS],
            retired: [0; MAX_APPS],
            any_issued: false,
        }
    }

    /// Post-visit summary upkeep for local SM `i` during the step at
    /// cycle `now` (call after any operation that may change readiness
    /// or sleepers).
    #[inline]
    pub fn refresh(&mut self, i: usize, now: u64) {
        self.act.refresh(i, &self.sms[i], now + 1);
    }
}

/// The parallel half of one sharded cycle for one cell: applies this
/// shard's memory completions, then visits exactly the SMs that can
/// act (ready work, or a sleeper due at `now`) and runs the SM-local
/// part of their issue path ([`Sm::issue_prepare`]). Suspended
/// accesses are noted in `cell.pending` for the serial merge.
///
/// Touches nothing outside the cell and the snapshot, so cells step
/// concurrently without synchronization and the result is independent
/// of shard-visit order.
pub(crate) fn phase_a_cell(cell: &mut ShardCell, now: u64, comps: &[Completion], snap: &RunSnapshot) {
    cell.any_issued = false;
    debug_assert!(cell.pending.is_empty(), "pending not drained last cycle");

    // 1. This shard's completions, in drain order (per-SM order is all
    // that matters: responses for different SMs never interact).
    let lo = cell.base;
    let hi = cell.base + cell.sms.len() as u32;
    for c in comps {
        if c.sm < lo || c.sm >= hi {
            continue;
        }
        let local = (c.sm - lo) as usize;
        let sm = &mut cell.sms[local];
        let retired = sm.on_mem_response(c.warp_slot);
        if retired > 0 {
            let owner = sm.owner.expect("retiring SM has an owner");
            cell.retired[usize::from(owner.0)] += retired;
        }
        // Responses only flip ready bits (never sleepers).
        cell.act.set_ready(local, sm.has_ready_work());
    }

    // 2. Visit the SMs that can possibly act: ready, or a sleeper due
    // at `now` (the cell's dispatch set is empty); a quiet cell visits
    // none. A skipped SM is exactly one the reference loop would have
    // visited to no effect: `wake` pops nothing and `has_ready_work` is
    // false. Ascending order keeps `pending` sorted.
    let acts = |sm: &Sm| sm.has_ready_work() || sm.next_wake().is_some_and(|w| w <= now);
    if cell.act.quiet_at(now) {
        debug_assert!(
            !cell.sms.iter().any(acts),
            "cell {lo}: an SM can act at cycle {now} in a quiet cell"
        );
        return;
    }
    let mut visit = std::mem::take(&mut cell.visit);
    cell.act.take_visit(now, &mut visit);
    debug_assert!(
        cell.sms
            .iter()
            .enumerate()
            .all(|(i, sm)| !acts(sm) || has_bit(&visit, i)),
        "cell {lo}: an SM that can act at cycle {now} is missing from the visit set"
    );
    for i in Rotation::new(&visit, 0) {
        let sm = &mut cell.sms[i];
        sm.wake(now);
        if let Some(owner) = sm.owner {
            if sm.has_ready_work() {
                cell.any_issued = true;
                let sa = &snap.apps[usize::from(owner.0)];
                let mut hook = match &sa.replay {
                    Some(trace) => TraceHook::Replay(trace),
                    None => TraceHook::None,
                };
                let retired = sm.issue_prepare(
                    now,
                    &sa.kernel,
                    sa.base,
                    &snap.cfg,
                    &mut hook,
                    &mut cell.deltas[usize::from(owner.0)],
                );
                if retired > 0 {
                    cell.retired[usize::from(owner.0)] += retired;
                }
                if sm.has_pending() {
                    cell.pending.push(lo + i as u32);
                }
            }
        }
        cell.refresh(i, now);
    }
    cell.visit = visit;
}

/// Uniform indexed access to the SM set, whether it lives in
/// `Gpu::sms` (the unsharded path) or is split across [`ShardCell`]s
/// mid-run. Lets the serial phases — handoff completion, finish
/// detection, SM reassignment, fault application — exist once and run
/// bit-identically on both layouts.
pub(crate) trait SmSlab {
    /// Number of SMs.
    fn len(&self) -> usize;
    /// The SM with global id `i`.
    fn get(&self, i: usize) -> &Sm;
    /// The SM with global id `i`, mutably.
    fn get_mut(&mut self, i: usize) -> &mut Sm;
}

impl SmSlab for Vec<Sm> {
    fn len(&self) -> usize {
        Vec::len(self)
    }
    fn get(&self, i: usize) -> &Sm {
        &self[i]
    }
    fn get_mut(&mut self, i: usize) -> &mut Sm {
        &mut self[i]
    }
}

/// [`SmSlab`] over the cells of a sharded run (global id `i` lives in
/// cell `i / chunk` at local index `i % chunk`).
pub(crate) struct CellsView<'a, 'b> {
    cells: &'a mut [&'b mut ShardCell],
    chunk: usize,
    len: usize,
}

impl<'a, 'b> CellsView<'a, 'b> {
    /// Builds the view; `cells` must be in shard order with every cell
    /// except the last holding the same number of SMs.
    pub fn new(cells: &'a mut [&'b mut ShardCell]) -> Self {
        let chunk = cells.first().map_or(1, |c| c.sms.len().max(1));
        let len = cells.iter().map(|c| c.sms.len()).sum();
        CellsView { cells, chunk, len }
    }
}

impl SmSlab for CellsView<'_, '_> {
    fn len(&self) -> usize {
        self.len
    }
    fn get(&self, i: usize) -> &Sm {
        &self.cells[i / self.chunk].sms[i % self.chunk]
    }
    fn get_mut(&mut self, i: usize) -> &mut Sm {
        &mut self.cells[i / self.chunk].sms[i % self.chunk]
    }
}

/// How a sharded run executes its cells: sequentially in one thread,
/// or with the parallel phase fanned out to worker threads. Both give
/// the serial phases exclusive access to every cell in shard order, so
/// results are identical by construction.
pub(crate) trait ShardExec {
    /// Runs the cycle's parallel work for cycle `now`: [`phase_a_cell`]
    /// on every SM cell, and — when the memory system is sharded —
    /// phase M ([`tick_shard`]) on every memory shard, followed by the
    /// serial boundary fold ([`MemSys::fold_shards`]). With one memory
    /// shard, `memsys.tick` ticks the one cell directly. Phase
    /// A never touches the memory system and phase M never touches SM
    /// state, so the two phases commute and may overlap on workers.
    fn phase_am(
        &mut self,
        now: u64,
        comps: &[Completion],
        snap: &RunSnapshot,
        memsys: &mut MemSys,
        stats: &mut SimStats,
    );
    /// Runs `f` with exclusive access to all cells, in shard order.
    fn with_cells<R>(&mut self, f: impl FnOnce(&mut [&mut ShardCell]) -> R) -> R;
}

/// Single-thread executor: the default (no synchronization at all).
pub(crate) struct SeqExec<'a> {
    /// The run's cells, in shard order.
    pub cells: &'a mut [ShardCell],
}

impl ShardExec for SeqExec<'_> {
    fn phase_am(
        &mut self,
        now: u64,
        comps: &[Completion],
        snap: &RunSnapshot,
        memsys: &mut MemSys,
        stats: &mut SimStats,
    ) {
        for cell in self.cells.iter_mut() {
            phase_a_cell(cell, now, comps, snap);
        }
        // Dispatches internally: one cell ticks straight into the heap,
        // several run `tick_shard` per cell then fold in cell order.
        memsys.tick(now, stats);
    }

    fn with_cells<R>(&mut self, f: impl FnOnce(&mut [&mut ShardCell]) -> R) -> R {
        let mut refs: Vec<&mut ShardCell> = self.cells.iter_mut().collect();
        f(&mut refs)
    }
}

/// Epoch-barrier shared between the coordinator and the phase-A
/// workers of a threaded run.
#[derive(Debug, Default)]
pub(crate) struct ShardCtl {
    state: Mutex<CtlState>,
    /// Signals a new epoch (or shutdown) to the workers.
    go: Condvar,
    /// Signals per-worker phase-A completion back to the coordinator.
    done: Condvar,
    /// The cycle's completions, published before each epoch.
    comps: Mutex<Vec<Completion>>,
    /// Immutable per-tick memory-system context, published before each
    /// epoch when phase M runs on the workers.
    pub(crate) mem_ctx: Mutex<MemTickCtx>,
}

#[derive(Debug, Default)]
struct CtlState {
    epoch: u64,
    now: u64,
    finished: usize,
    shutdown: bool,
}

impl ShardCtl {
    /// Wakes every worker for one phase-A epoch at cycle `now` and
    /// returns once all `workers` helpers reported done. The caller
    /// must process the coordinator's own shards between publishing
    /// and waiting — this method does both ends of the barrier.
    fn run_epoch(
        &self,
        now: u64,
        comps: &[Completion],
        workers: usize,
        coordinator: impl FnOnce(&[Completion]),
    ) {
        {
            let mut c = self.comps.lock().unwrap();
            c.clear();
            c.extend_from_slice(comps);
        }
        {
            let mut st = self.state.lock().unwrap();
            st.now = now;
            st.finished = 0;
            st.epoch += 1;
        }
        self.go.notify_all();
        coordinator(comps);
        let mut st = self.state.lock().unwrap();
        while st.finished < workers {
            st = self.done.wait(st).unwrap();
        }
    }

    /// Tells the workers to exit; called once the drive loop returns.
    pub fn shutdown(&self) {
        self.state.lock().unwrap().shutdown = true;
        self.go.notify_all();
    }
}

/// Sends shutdown to the workers when dropped, so a panic unwinding
/// out of the coordinator's drive loop cannot leave workers parked on
/// the epoch condvar (which would hang the joining thread scope).
pub(crate) struct ShutdownGuard<'a>(pub &'a ShardCtl);

impl Drop for ShutdownGuard<'_> {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// Body of a parallel-phase worker `id` (of `threads` total,
/// coordinator included): waits for each epoch, steps the SM cells it
/// owns (`shard % threads == id`), then ticks its stripe of memory
/// shards (phase M) when the run shards the memory system, reports
/// done. Returns on shutdown. Memory shards ride the same leased
/// workers — no thread is ever spawned for phase M, so the
/// `GCS_SIM_THREADS` budget holds by construction.
pub(crate) fn worker_loop(
    id: usize,
    threads: usize,
    cells: &[Mutex<ShardCell>],
    mem: &[Mutex<Option<MemShard>>],
    ctl: &ShardCtl,
    snap: &RunSnapshot,
) {
    let mut seen = 0u64;
    loop {
        let now = {
            let mut st = ctl.state.lock().unwrap();
            while st.epoch == seen && !st.shutdown {
                st = ctl.go.wait(st).unwrap();
            }
            if st.shutdown {
                return;
            }
            seen = st.epoch;
            st.now
        };
        {
            let comps = ctl.comps.lock().unwrap();
            for s in (id..cells.len()).step_by(threads) {
                let mut cell = cells[s].lock().unwrap();
                phase_a_cell(&mut cell, now, &comps, snap);
            }
        }
        if !mem.is_empty() {
            let ctx = *ctl.mem_ctx.lock().unwrap();
            for s in (id..mem.len()).step_by(threads) {
                let mut slot = mem[s].lock().unwrap();
                if let Some(cell) = slot.as_mut() {
                    tick_shard(cell, now, &ctx);
                }
            }
        }
        let mut st = ctl.state.lock().unwrap();
        st.finished += 1;
        drop(st);
        ctl.done.notify_one();
    }
}

/// Threaded executor: cells live behind (uncontended) mutexes; the
/// coordinator steps shard stripe 0 itself while `threads - 1` helper
/// workers step the rest, meeting at an epoch barrier. Serial phases
/// lock every cell — exclusive by the barrier — and run unchanged, so
/// thread count can never affect results.
pub(crate) struct ThreadedExec<'a> {
    /// The run's cells, in shard order.
    pub cells: &'a [Mutex<ShardCell>],
    /// Phase-M slots, one per memory shard (empty when the memory
    /// system is unsharded). Filled by the coordinator before each
    /// epoch and drained after the barrier.
    pub mem: &'a [Mutex<Option<MemShard>>],
    /// The epoch barrier shared with the workers.
    pub ctl: &'a ShardCtl,
    /// Total participating threads (coordinator + helpers).
    pub threads: usize,
}

impl ShardExec for ThreadedExec<'_> {
    fn phase_am(
        &mut self,
        now: u64,
        comps: &[Completion],
        snap: &RunSnapshot,
        memsys: &mut MemSys,
        stats: &mut SimStats,
    ) {
        let (cells, mem, ctl, threads) = (self.cells, self.mem, self.ctl, self.threads);
        if mem.is_empty() {
            ctl.run_epoch(now, comps, threads - 1, |comps| {
                for s in (0..cells.len()).step_by(threads) {
                    let mut cell = cells[s].lock().unwrap();
                    phase_a_cell(&mut cell, now, comps, snap);
                }
            });
            memsys.tick(now, stats);
            return;
        }
        // Publish the tick context and fill the shard slots *before*
        // the epoch bump so the workers find both on wake.
        let ctx = memsys.tick_ctx();
        *ctl.mem_ctx.lock().unwrap() = ctx;
        for (slot, cell) in mem.iter().zip(memsys.take_shards()) {
            *slot.lock().unwrap() = Some(cell);
        }
        ctl.run_epoch(now, comps, threads - 1, |comps| {
            for s in (0..cells.len()).step_by(threads) {
                let mut cell = cells[s].lock().unwrap();
                phase_a_cell(&mut cell, now, comps, snap);
            }
            for s in (0..mem.len()).step_by(threads) {
                let mut slot = mem[s].lock().unwrap();
                if let Some(cell) = slot.as_mut() {
                    tick_shard(cell, now, &ctx);
                }
            }
        });
        // Barrier passed: every shard is back at rest. Drain the slots
        // in shard order and run the serial boundary fold.
        let mut shards = Vec::with_capacity(mem.len());
        for slot in mem {
            shards.push(slot.lock().unwrap().take().expect("phase-M slot drained early"));
        }
        memsys.restore_shards(shards);
        memsys.fold_shards(stats);
    }

    fn with_cells<R>(&mut self, f: impl FnOnce(&mut [&mut ShardCell]) -> R) -> R {
        let mut guards: Vec<_> = self.cells.iter().map(|m| m.lock().unwrap()).collect();
        let mut refs: Vec<&mut ShardCell> = guards.iter_mut().map(|g| &mut **g).collect();
        f(&mut refs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_partitions_every_sm_once() {
        for n in [1u32, 2, 7, 8, 60, 61] {
            for k in [1u32, 2, 3, 4, 7, 64] {
                let plan = ShardPlan::new(n, k);
                let mut seen = vec![false; n as usize];
                for (s, (base, len)) in plan.ranges().enumerate() {
                    for sm in base..base + len {
                        assert!(!seen[sm as usize], "SM {sm} in two shards");
                        seen[sm as usize] = true;
                        assert_eq!(plan.shard_of(sm), s as u32);
                    }
                }
                assert!(seen.iter().all(|&s| s), "n={n} k={k} missed an SM");
            }
        }
    }

    #[test]
    fn plan_clamps_shards() {
        assert_eq!(ShardPlan::new(8, 0).shards, 1);
        assert_eq!(ShardPlan::new(8, 100).shards, 8);
        assert_eq!(ShardPlan::new(60, 4).chunk(), 15);
    }
}
