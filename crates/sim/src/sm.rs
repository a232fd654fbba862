//! Streaming multiprocessor: warp slots, block residency, L1 cache and
//! the per-cycle issue path.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::cache::{Access, Cache};
use crate::config::GpuConfig;
use crate::kernel::{AppId, KernelDesc, Op, PatternId};
use crate::memsys::{MemRequest, MemSys};
use crate::rng::SimRng;
use crate::sched::WarpScheduler;
use crate::stats::{IssueDelta, SimStats};
use crate::trace_fmt::TraceHook;
use crate::warp::{burn_random_draws, generate_addresses, PendingAccess, WarpTable};

/// A block resident on an SM: its id and how many of its warps are
/// still alive (drain-based SM migration waits for this to reach zero
/// for every resident block — §3.2.4's third deallocation method).
#[derive(Debug, Clone, PartialEq, Eq)]
struct ResidentBlock {
    block: u32,
    warps_left: u32,
    /// Warp slots currently parked at a block barrier.
    barrier_waiters: Vec<u32>,
}

/// One streaming multiprocessor.
#[derive(Debug)]
pub struct Sm {
    /// SM index on the device.
    pub id: u32,
    /// Application currently owning this SM (`None` = idle).
    pub owner: Option<AppId>,
    /// Set while a drain-based handoff is pending.
    pub pending_owner: Option<AppId>,
    /// Per-slot warp state, struct-of-arrays (see [`WarpTable`]).
    warps: WarpTable,
    /// Bitmask of slots that can issue this cycle (bit `slot` set).
    ready: u64,
    /// Bitmask of slots holding a live warp.
    occupied: u64,
    /// `(1 << slots) - 1`: every valid slot bit.
    slot_mask: u64,
    /// Sleeping warps keyed by wake cycle.
    sleepers: BinaryHeap<Reverse<(u64, u32)>>,
    blocks: Vec<ResidentBlock>,
    l1: Cache,
    sched: WarpScheduler,
    rng: SimRng,
    age_seq: u64,
    /// Live warp slots oldest-first. `age_seq` is monotone, so
    /// appending on dispatch and removing on retire keeps the list
    /// sorted by age with no ties — GTO's oldest-ready fallback is its
    /// first ready entry.
    by_age: Vec<u8>,
    free_slots: u32,
    /// Scratch buffer for generated addresses (avoids per-issue allocation).
    addr_buf: Vec<u64>,
    /// Access suspended between the sharded prepare and merge phases;
    /// always `None` outside a sharded step (DESIGN.md §12).
    pending: Option<PendingAccess>,
}

impl Sm {
    /// Creates an idle SM.
    ///
    /// # Panics
    ///
    /// Panics if the configuration asks for more than 64 warp slots —
    /// the ready/occupancy bitmasks are single words.
    pub fn new(id: u32, cfg: &GpuConfig) -> Self {
        let slots = cfg.max_warps_per_sm as usize;
        assert!(slots <= 64, "at most 64 warp slots per SM");
        Sm {
            id,
            owner: None,
            pending_owner: None,
            warps: WarpTable::new(slots),
            ready: 0,
            occupied: 0,
            slot_mask: if slots == 64 {
                u64::MAX
            } else {
                (1u64 << slots) - 1
            },
            sleepers: BinaryHeap::new(),
            blocks: Vec::with_capacity(cfg.max_blocks_per_sm as usize),
            l1: Cache::new(cfg.l1),
            sched: WarpScheduler::new(cfg.sched),
            rng: SimRng::seed_from_u64(0x9E37_79B9 ^ u64::from(id)),
            age_seq: 0,
            by_age: Vec::with_capacity(slots),
            free_slots: cfg.max_warps_per_sm,
            addr_buf: Vec::with_capacity(32),
            pending: None,
        }
    }

    /// Flips a ready bit. Every write to the mask goes through here.
    #[inline]
    fn set_ready(&mut self, slot: usize, val: bool) {
        let bit = 1u64 << slot;
        if val {
            self.ready |= bit;
        } else {
            self.ready &= !bit;
        }
    }

    /// Number of resident blocks.
    pub fn resident_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of live warps.
    pub fn live_warps(&self) -> u32 {
        self.warps.slots() as u32 - self.free_slots
    }

    /// Number of warps currently ready to issue (diagnostics).
    pub fn ready_warps(&self) -> u32 {
        self.ready.count_ones()
    }

    /// True when no warp is resident.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Whether a new block of `kernel` fits right now.
    pub fn can_take_block(&self, kernel: &KernelDesc, cfg: &GpuConfig) -> bool {
        self.pending_owner.is_none()
            && (self.blocks.len() as u32) < cfg.max_blocks_per_sm
            && self.free_slots >= kernel.warps_per_block
    }

    /// Installs block `block_id` of `kernel`, creating its warps.
    ///
    /// # Panics
    ///
    /// Panics if the block does not fit (call [`Sm::can_take_block`]).
    pub fn dispatch_block(&mut self, kernel: &KernelDesc, block_id: u32) {
        assert!(
            self.free_slots >= kernel.warps_per_block,
            "dispatch without capacity check"
        );
        self.blocks.push(ResidentBlock {
            block: block_id,
            warps_left: kernel.warps_per_block,
            barrier_waiters: Vec::new(),
        });
        // Lowest free slots first, exactly as the old linear scan did.
        let mut placed = 0;
        while placed < kernel.warps_per_block {
            let slot = (!self.occupied & self.slot_mask).trailing_zeros() as usize;
            self.warps
                .init(slot, block_id, placed, self.age_seq, kernel.iters_per_warp);
            self.age_seq += 1;
            self.by_age.push(slot as u8);
            self.occupied |= 1u64 << slot;
            self.set_ready(slot, true);
            self.free_slots -= 1;
            placed += 1;
        }
    }

    /// Handles a returning memory transaction for `slot`. Returns 1 when
    /// this response retired the warp *and* completed its block.
    pub fn on_mem_response(&mut self, slot: u32) -> u32 {
        let slot = slot as usize;
        if self.occupied & (1u64 << slot) != 0 {
            debug_assert!(
                self.warps.outstanding[slot] > 0,
                "response for warp with no pending loads"
            );
            self.warps.outstanding[slot] -= 1;
            if self.warps.outstanding[slot] == 0 {
                if self.warps.retiring[slot] {
                    return self.retire(slot);
                }
                self.set_ready(slot, true);
            }
        } else {
            debug_assert!(false, "response for an empty warp slot");
        }
        0
    }

    /// Wakes sleeping warps due at `now`.
    pub fn wake(&mut self, now: u64) {
        while let Some(&Reverse((at, slot))) = self.sleepers.peek() {
            if at > now {
                break;
            }
            self.sleepers.pop();
            if self.occupied & (1u64 << slot) != 0 {
                self.set_ready(slot as usize, true);
            }
        }
    }

    /// Cheap check whether `issue` could do anything this cycle.
    pub fn has_ready_work(&self) -> bool {
        // `ready` bits are authoritative; sleepers are woken by `wake`.
        self.ready != 0
    }

    /// Next wake-up cycle of any sleeping warp, if all are asleep.
    pub fn next_wake(&self) -> Option<u64> {
        self.sleepers.peek().map(|&Reverse((at, _))| at)
    }

    /// Issues up to `cfg.issue_per_sm` instructions. Returns the number
    /// of retired warps (so the caller can track block/app completion).
    #[allow(clippy::too_many_arguments)]
    pub fn issue(
        &mut self,
        now: u64,
        kernel: &KernelDesc,
        app: AppId,
        app_base: u64,
        cfg: &GpuConfig,
        memsys: &mut MemSys,
        stats: &mut SimStats,
        hook: &mut TraceHook<'_>,
    ) -> u32 {
        let mut retired_blocks = 0;
        let body_len = kernel.body.len() as u32;
        let total_warps = kernel.total_warps();
        let line = u64::from(cfg.l1.line_bytes);

        for _ in 0..cfg.issue_per_sm {
            let Some(slot) = self.sched.pick(self.ready, &self.warps.ages, &self.by_age) else {
                break;
            };
            // Every arm below clears the picked warp's ready bit (it
            // either sleeps, waits on memory, parks at a barrier or
            // retires), so clear it once up front.
            self.set_ready(slot, false);
            debug_assert!(self.occupied & (1u64 << slot) != 0, "ready slot has a warp");
            let op = kernel.body[self.warps.pc[slot] as usize];

            match op {
                Op::Alu { latency } | Op::Sfu { latency } => {
                    let s = stats.app_mut(app);
                    s.warp_insts += 1;
                    s.thread_insts += u64::from(kernel.active_lanes);
                    s.alu_insts += 1;
                    let done = self.warps.advance(slot, body_len);
                    if done {
                        retired_blocks += self.retire(slot);
                    } else {
                        self.sleepers
                            .push(Reverse((now + u64::from(latency), slot as u32)));
                    }
                }
                Op::Load(PatternId(p)) => {
                    let p = usize::from(p);
                    let pattern = &kernel.patterns[p];
                    let block = self.warps.block[slot];
                    let warp_in_block = self.warps.warp_in_block[slot];
                    let global_warp = u64::from(block) * u64::from(kernel.warps_per_block)
                        + u64::from(warp_in_block);
                    self.addr_buf.clear();
                    if let TraceHook::Replay(trace) = hook {
                        trace.fill_addrs(
                            global_warp,
                            self.warps.replay_group[slot],
                            self.warps.replay_attempt[slot],
                            app_base,
                            &mut self.addr_buf,
                        );
                        burn_random_draws(pattern, line, &mut self.rng);
                    } else {
                        generate_addresses(
                            pattern,
                            p,
                            app_base,
                            block,
                            warp_in_block,
                            self.warps.pattern_ctr[slot][p],
                            global_warp,
                            total_warps,
                            line,
                            &mut self.rng,
                            &mut self.addr_buf,
                        );
                    }
                    if let TraceHook::Record(rec) = hook {
                        rec.record_attempt(global_warp, &self.addr_buf);
                    }

                    // L1 probe per transaction WITHOUT allocating: a load
                    // may still be rejected by back-pressure below, and
                    // allocating now would turn its retry into a phantom
                    // hit. Misses are compacted to the front of the buffer.
                    let mut miss_addrs = 0usize;
                    let mut hits = 0u64;
                    {
                        let mut i = 0;
                        while i < self.addr_buf.len() {
                            match self.l1.probe(self.addr_buf[i]) {
                                Access::Hit => {
                                    hits += 1;
                                    self.addr_buf.swap_remove(i);
                                }
                                Access::Miss => {
                                    miss_addrs += 1;
                                    i += 1;
                                }
                            }
                        }
                    }

                    // Back-pressure: if any miss target cannot accept,
                    // retry the whole load later (no partial issue).
                    if miss_addrs > 0 && !memsys.can_accept_all(&self.addr_buf) {
                        self.warps.bump_attempt(slot);
                        self.sleepers.push(Reverse((now + 2, slot as u32)));
                        continue;
                    }
                    // The load issues for real: allocate the missing lines
                    // (allocate-at-issue; responses find the line present).
                    for &a in &self.addr_buf {
                        self.l1.fill(a);
                    }

                    let s = stats.app_mut(app);
                    s.warp_insts += 1;
                    s.thread_insts += u64::from(kernel.active_lanes);
                    s.mem_insts += 1;
                    s.l1_hits += hits;
                    s.l1_misses += miss_addrs as u64;

                    if let TraceHook::Record(rec) = hook {
                        rec.commit(global_warp);
                    }
                    self.warps.bump_counter(slot, p);
                    self.warps.bump_access(slot);
                    let done = self.warps.advance(slot, body_len);
                    if miss_addrs == 0 {
                        // All hits: short fixed latency, or immediate
                        // retirement when this was the final instruction.
                        if done {
                            retired_blocks += self.retire(slot);
                        } else {
                            self.sleepers
                                .push(Reverse((now + u64::from(cfg.l1_hit_lat), slot as u32)));
                        }
                    } else {
                        self.warps.outstanding[slot] = miss_addrs as u16;
                        // Retirement (if this was the final instruction)
                        // waits until the last response returns, so the
                        // slot cannot be recycled under in-flight events.
                        self.warps.retiring[slot] = done;
                        for &addr in &self.addr_buf {
                            memsys.push(MemRequest {
                                addr,
                                is_write: false,
                                app,
                                sm: self.id,
                                warp_slot: slot as u32,
                                arrive_at: now + u64::from(cfg.icnt_lat),
                            });
                        }
                    }
                }
                Op::Barrier => {
                    let s = stats.app_mut(app);
                    s.warp_insts += 1;
                    s.thread_insts += u64::from(kernel.active_lanes);
                    s.alu_insts += 1;
                    let block = self.warps.block[slot];
                    let b = self
                        .blocks
                        .iter_mut()
                        .find(|b| b.block == block)
                        .expect("warp's block is resident");
                    b.barrier_waiters.push(slot as u32);
                    if b.barrier_waiters.len() as u32 == b.warps_left {
                        // Last arrival: release everyone past the barrier.
                        let waiters = std::mem::take(&mut b.barrier_waiters);
                        for w_slot in waiters {
                            let ws = w_slot as usize;
                            let done = self.warps.advance(ws, body_len);
                            if done {
                                retired_blocks += self.retire(ws);
                            } else {
                                self.sleepers.push(Reverse((now + 1, w_slot)));
                            }
                        }
                    }
                }
                Op::Store(PatternId(p)) => {
                    let p = usize::from(p);
                    let pattern = &kernel.patterns[p];
                    let block = self.warps.block[slot];
                    let warp_in_block = self.warps.warp_in_block[slot];
                    let global_warp = u64::from(block) * u64::from(kernel.warps_per_block)
                        + u64::from(warp_in_block);
                    self.addr_buf.clear();
                    if let TraceHook::Replay(trace) = hook {
                        trace.fill_addrs(
                            global_warp,
                            self.warps.replay_group[slot],
                            self.warps.replay_attempt[slot],
                            app_base,
                            &mut self.addr_buf,
                        );
                        burn_random_draws(pattern, line, &mut self.rng);
                    } else {
                        generate_addresses(
                            pattern,
                            p,
                            app_base,
                            block,
                            warp_in_block,
                            self.warps.pattern_ctr[slot][p],
                            global_warp,
                            total_warps,
                            line,
                            &mut self.rng,
                            &mut self.addr_buf,
                        );
                    }
                    if let TraceHook::Record(rec) = hook {
                        rec.record_attempt(global_warp, &self.addr_buf);
                    }
                    if !memsys.can_accept_all(&self.addr_buf) {
                        self.warps.bump_attempt(slot);
                        self.sleepers.push(Reverse((now + 2, slot as u32)));
                        continue;
                    }
                    let s = stats.app_mut(app);
                    s.warp_insts += 1;
                    s.thread_insts += u64::from(kernel.active_lanes);
                    s.mem_insts += 1;
                    // Stores bypass the L1 (write-through, no-allocate).
                    for &addr in &self.addr_buf {
                        memsys.push(MemRequest {
                            addr,
                            is_write: true,
                            app,
                            sm: self.id,
                            warp_slot: u32::MAX,
                            arrive_at: now + u64::from(cfg.icnt_lat),
                        });
                    }
                    if let TraceHook::Record(rec) = hook {
                        rec.commit(global_warp);
                    }
                    self.warps.bump_counter(slot, p);
                    self.warps.bump_access(slot);
                    let done = self.warps.advance(slot, body_len);
                    if done {
                        // Stores are fire-and-forget; nothing to wait for.
                        retired_blocks += self.retire(slot);
                    } else {
                        // Warp may issue again next cycle.
                        self.sleepers.push(Reverse((now + 1, slot as u32)));
                    }
                }
            }
        }
        retired_blocks
    }

    /// Whether a prepared access is waiting for the serial merge phase.
    pub(crate) fn has_pending(&self) -> bool {
        self.pending.is_some()
    }

    /// The parallel half of a sharded issue cycle: runs the issue loop
    /// using only SM-local state — scheduler pick, address generation
    /// (including replay-cursor and RNG draws), L1 probes, and full
    /// completion of ops that never touch the shared memory system
    /// (ALU/SFU, barriers, all-hit loads). The loop suspends at the
    /// first op that needs `MemSys` admission (a load with L1 misses,
    /// or any store), parking it in `self.pending` for
    /// [`Sm::resolve_pending`] to finish in canonical order. Statistics
    /// go to `delta`, folded into [`SimStats`] at run exit.
    ///
    /// Must mirror [`Sm::issue`] exactly up to the suspension point —
    /// the `shard_equivalence` suite pins the two paths bit-identical.
    /// Recording hooks are unreachable here (recording forces the
    /// unsharded step), so only `None`/`Replay` hooks arrive.
    pub(crate) fn issue_prepare(
        &mut self,
        now: u64,
        kernel: &KernelDesc,
        app_base: u64,
        cfg: &GpuConfig,
        hook: &mut TraceHook<'_>,
        delta: &mut IssueDelta,
    ) -> u32 {
        debug_assert!(self.pending.is_none(), "unresolved access from a previous cycle");
        debug_assert!(
            !matches!(hook, TraceHook::Record(_)),
            "recording runs the unsharded step"
        );
        let mut retired_blocks = 0;
        let body_len = kernel.body.len() as u32;
        let total_warps = kernel.total_warps();
        let line = u64::from(cfg.l1.line_bytes);

        for i in 0..cfg.issue_per_sm {
            let Some(slot) = self.sched.pick(self.ready, &self.warps.ages, &self.by_age) else {
                break;
            };
            self.set_ready(slot, false);
            debug_assert!(self.occupied & (1u64 << slot) != 0, "ready slot has a warp");
            let op = kernel.body[self.warps.pc[slot] as usize];

            match op {
                Op::Alu { latency } | Op::Sfu { latency } => {
                    delta.warp_insts += 1;
                    delta.thread_insts += u64::from(kernel.active_lanes);
                    delta.alu_insts += 1;
                    let done = self.warps.advance(slot, body_len);
                    if done {
                        retired_blocks += self.retire(slot);
                    } else {
                        self.sleepers
                            .push(Reverse((now + u64::from(latency), slot as u32)));
                    }
                }
                Op::Load(PatternId(p)) => {
                    let p = usize::from(p);
                    self.generate_access_addrs(slot, p, kernel, app_base, total_warps, line, hook);

                    // Same allocate-on-accept probe as the reference
                    // path: misses compact to the front of the buffer.
                    let mut miss_addrs = 0usize;
                    let mut hits = 0u64;
                    {
                        let mut j = 0;
                        while j < self.addr_buf.len() {
                            match self.l1.probe(self.addr_buf[j]) {
                                Access::Hit => {
                                    hits += 1;
                                    self.addr_buf.swap_remove(j);
                                }
                                Access::Miss => {
                                    miss_addrs += 1;
                                    j += 1;
                                }
                            }
                        }
                    }

                    if miss_addrs > 0 {
                        // Needs MemSys admission: suspend for the merge
                        // phase. The miss addresses stay in `addr_buf`.
                        self.pending = Some(PendingAccess {
                            slot: slot as u32,
                            pattern: p as u32,
                            l1_hits: hits,
                            is_store: false,
                            budget_left: cfg.issue_per_sm - 1 - i,
                        });
                        return retired_blocks;
                    }
                    // All hits: fully SM-local, identical to the
                    // reference accept arm with an empty miss set.
                    delta.warp_insts += 1;
                    delta.thread_insts += u64::from(kernel.active_lanes);
                    delta.mem_insts += 1;
                    delta.l1_hits += hits;
                    self.warps.bump_counter(slot, p);
                    self.warps.bump_access(slot);
                    let done = self.warps.advance(slot, body_len);
                    if done {
                        retired_blocks += self.retire(slot);
                    } else {
                        self.sleepers
                            .push(Reverse((now + u64::from(cfg.l1_hit_lat), slot as u32)));
                    }
                }
                Op::Barrier => {
                    delta.warp_insts += 1;
                    delta.thread_insts += u64::from(kernel.active_lanes);
                    delta.alu_insts += 1;
                    let block = self.warps.block[slot];
                    let b = self
                        .blocks
                        .iter_mut()
                        .find(|b| b.block == block)
                        .expect("warp's block is resident");
                    b.barrier_waiters.push(slot as u32);
                    if b.barrier_waiters.len() as u32 == b.warps_left {
                        let waiters = std::mem::take(&mut b.barrier_waiters);
                        for w_slot in waiters {
                            let ws = w_slot as usize;
                            let done = self.warps.advance(ws, body_len);
                            if done {
                                retired_blocks += self.retire(ws);
                            } else {
                                self.sleepers.push(Reverse((now + 1, w_slot)));
                            }
                        }
                    }
                }
                Op::Store(PatternId(p)) => {
                    let p = usize::from(p);
                    self.generate_access_addrs(slot, p, kernel, app_base, total_warps, line, hook);
                    // Stores always face the admission check: suspend.
                    self.pending = Some(PendingAccess {
                        slot: slot as u32,
                        pattern: p as u32,
                        l1_hits: 0,
                        is_store: true,
                        budget_left: cfg.issue_per_sm - 1 - i,
                    });
                    return retired_blocks;
                }
            }
        }
        retired_blocks
    }

    /// Fills `addr_buf` for one access of `slot` through pattern `p`:
    /// replay-cursor lookup (with RNG-parity burn) or synthetic
    /// generation, exactly as the reference issue arms do.
    #[allow(clippy::too_many_arguments)]
    fn generate_access_addrs(
        &mut self,
        slot: usize,
        p: usize,
        kernel: &KernelDesc,
        app_base: u64,
        total_warps: u64,
        line: u64,
        hook: &mut TraceHook<'_>,
    ) {
        let pattern = &kernel.patterns[p];
        let block = self.warps.block[slot];
        let warp_in_block = self.warps.warp_in_block[slot];
        let global_warp =
            u64::from(block) * u64::from(kernel.warps_per_block) + u64::from(warp_in_block);
        self.addr_buf.clear();
        if let TraceHook::Replay(trace) = hook {
            trace.fill_addrs(
                global_warp,
                self.warps.replay_group[slot],
                self.warps.replay_attempt[slot],
                app_base,
                &mut self.addr_buf,
            );
            burn_random_draws(pattern, line, &mut self.rng);
        } else {
            generate_addresses(
                pattern,
                p,
                app_base,
                block,
                warp_in_block,
                self.warps.pattern_ctr[slot][p],
                global_warp,
                total_warps,
                line,
                &mut self.rng,
                &mut self.addr_buf,
            );
        }
    }

    /// The serial half of a sharded issue cycle: resolves the suspended
    /// access against the live memory system, exactly as the reference
    /// arms would at this SM's rotation turn — reject re-sleeps the warp
    /// with an attempt bump; accept allocates L1 lines, counts stats
    /// directly (the serial phase may touch [`SimStats`]), and pushes
    /// the transactions in buffer order. Returns retired blocks and the
    /// issue budget left for [`Sm::issue_more`].
    pub(crate) fn resolve_pending(
        &mut self,
        now: u64,
        kernel: &KernelDesc,
        app: AppId,
        cfg: &GpuConfig,
        memsys: &mut MemSys,
        stats: &mut SimStats,
    ) -> (u32, u32) {
        let pa = self.pending.take().expect("a prepared access is pending");
        let slot = pa.slot as usize;
        let p = pa.pattern as usize;
        let body_len = kernel.body.len() as u32;

        if !memsys.can_accept_all(&self.addr_buf) {
            self.warps.bump_attempt(slot);
            self.sleepers.push(Reverse((now + 2, pa.slot)));
            return (0, pa.budget_left);
        }

        if pa.is_store {
            let s = stats.app_mut(app);
            s.warp_insts += 1;
            s.thread_insts += u64::from(kernel.active_lanes);
            s.mem_insts += 1;
            // Stores bypass the L1 (write-through, no-allocate).
            for &addr in &self.addr_buf {
                memsys.push(MemRequest {
                    addr,
                    is_write: true,
                    app,
                    sm: self.id,
                    warp_slot: u32::MAX,
                    arrive_at: now + u64::from(cfg.icnt_lat),
                });
            }
            self.warps.bump_counter(slot, p);
            self.warps.bump_access(slot);
            let done = self.warps.advance(slot, body_len);
            if done {
                (self.retire(slot), pa.budget_left)
            } else {
                self.sleepers.push(Reverse((now + 1, pa.slot)));
                (0, pa.budget_left)
            }
        } else {
            // Loads only suspend with at least one miss in the buffer.
            let miss_addrs = self.addr_buf.len();
            debug_assert!(miss_addrs > 0);
            for &a in &self.addr_buf {
                self.l1.fill(a);
            }
            let s = stats.app_mut(app);
            s.warp_insts += 1;
            s.thread_insts += u64::from(kernel.active_lanes);
            s.mem_insts += 1;
            s.l1_hits += pa.l1_hits;
            s.l1_misses += miss_addrs as u64;
            self.warps.bump_counter(slot, p);
            self.warps.bump_access(slot);
            let done = self.warps.advance(slot, body_len);
            self.warps.outstanding[slot] = miss_addrs as u16;
            self.warps.retiring[slot] = done;
            for &addr in &self.addr_buf {
                memsys.push(MemRequest {
                    addr,
                    is_write: false,
                    app,
                    sm: self.id,
                    warp_slot: pa.slot,
                    arrive_at: now + u64::from(cfg.icnt_lat),
                });
            }
            (0, pa.budget_left)
        }
    }

    /// Continues an SM's issue loop with `budget` iterations against
    /// the live memory system — the remainder of a sharded cycle after
    /// [`Sm::resolve_pending`], running at the SM's rotation turn in
    /// the serial phase. Semantically the tail of [`Sm::issue`]'s loop.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn issue_more(
        &mut self,
        budget: u32,
        now: u64,
        kernel: &KernelDesc,
        app: AppId,
        app_base: u64,
        cfg: &GpuConfig,
        memsys: &mut MemSys,
        stats: &mut SimStats,
        hook: &mut TraceHook<'_>,
    ) -> u32 {
        let mut retired_blocks = 0;
        let body_len = kernel.body.len() as u32;
        let total_warps = kernel.total_warps();
        let line = u64::from(cfg.l1.line_bytes);

        for _ in 0..budget {
            let Some(slot) = self.sched.pick(self.ready, &self.warps.ages, &self.by_age) else {
                break;
            };
            self.set_ready(slot, false);
            let op = kernel.body[self.warps.pc[slot] as usize];

            match op {
                Op::Alu { latency } | Op::Sfu { latency } => {
                    let s = stats.app_mut(app);
                    s.warp_insts += 1;
                    s.thread_insts += u64::from(kernel.active_lanes);
                    s.alu_insts += 1;
                    let done = self.warps.advance(slot, body_len);
                    if done {
                        retired_blocks += self.retire(slot);
                    } else {
                        self.sleepers
                            .push(Reverse((now + u64::from(latency), slot as u32)));
                    }
                }
                Op::Load(PatternId(p)) => {
                    let p = usize::from(p);
                    self.generate_access_addrs(slot, p, kernel, app_base, total_warps, line, hook);
                    let mut miss_addrs = 0usize;
                    let mut hits = 0u64;
                    {
                        let mut j = 0;
                        while j < self.addr_buf.len() {
                            match self.l1.probe(self.addr_buf[j]) {
                                Access::Hit => {
                                    hits += 1;
                                    self.addr_buf.swap_remove(j);
                                }
                                Access::Miss => {
                                    miss_addrs += 1;
                                    j += 1;
                                }
                            }
                        }
                    }
                    if miss_addrs > 0 && !memsys.can_accept_all(&self.addr_buf) {
                        self.warps.bump_attempt(slot);
                        self.sleepers.push(Reverse((now + 2, slot as u32)));
                        continue;
                    }
                    for &a in &self.addr_buf {
                        self.l1.fill(a);
                    }
                    let s = stats.app_mut(app);
                    s.warp_insts += 1;
                    s.thread_insts += u64::from(kernel.active_lanes);
                    s.mem_insts += 1;
                    s.l1_hits += hits;
                    s.l1_misses += miss_addrs as u64;
                    self.warps.bump_counter(slot, p);
                    self.warps.bump_access(slot);
                    let done = self.warps.advance(slot, body_len);
                    if miss_addrs == 0 {
                        if done {
                            retired_blocks += self.retire(slot);
                        } else {
                            self.sleepers
                                .push(Reverse((now + u64::from(cfg.l1_hit_lat), slot as u32)));
                        }
                    } else {
                        self.warps.outstanding[slot] = miss_addrs as u16;
                        self.warps.retiring[slot] = done;
                        for &addr in &self.addr_buf {
                            memsys.push(MemRequest {
                                addr,
                                is_write: false,
                                app,
                                sm: self.id,
                                warp_slot: slot as u32,
                                arrive_at: now + u64::from(cfg.icnt_lat),
                            });
                        }
                    }
                }
                Op::Barrier => {
                    let s = stats.app_mut(app);
                    s.warp_insts += 1;
                    s.thread_insts += u64::from(kernel.active_lanes);
                    s.alu_insts += 1;
                    let block = self.warps.block[slot];
                    let b = self
                        .blocks
                        .iter_mut()
                        .find(|b| b.block == block)
                        .expect("warp's block is resident");
                    b.barrier_waiters.push(slot as u32);
                    if b.barrier_waiters.len() as u32 == b.warps_left {
                        let waiters = std::mem::take(&mut b.barrier_waiters);
                        for w_slot in waiters {
                            let ws = w_slot as usize;
                            let done = self.warps.advance(ws, body_len);
                            if done {
                                retired_blocks += self.retire(ws);
                            } else {
                                self.sleepers.push(Reverse((now + 1, w_slot)));
                            }
                        }
                    }
                }
                Op::Store(PatternId(p)) => {
                    let p = usize::from(p);
                    self.generate_access_addrs(slot, p, kernel, app_base, total_warps, line, hook);
                    if !memsys.can_accept_all(&self.addr_buf) {
                        self.warps.bump_attempt(slot);
                        self.sleepers.push(Reverse((now + 2, slot as u32)));
                        continue;
                    }
                    let s = stats.app_mut(app);
                    s.warp_insts += 1;
                    s.thread_insts += u64::from(kernel.active_lanes);
                    s.mem_insts += 1;
                    for &addr in &self.addr_buf {
                        memsys.push(MemRequest {
                            addr,
                            is_write: true,
                            app,
                            sm: self.id,
                            warp_slot: u32::MAX,
                            arrive_at: now + u64::from(cfg.icnt_lat),
                        });
                    }
                    self.warps.bump_counter(slot, p);
                    self.warps.bump_access(slot);
                    let done = self.warps.advance(slot, body_len);
                    if done {
                        retired_blocks += self.retire(slot);
                    } else {
                        self.sleepers.push(Reverse((now + 1, slot as u32)));
                    }
                }
            }
        }
        retired_blocks
    }

    /// Retires the warp in `slot`; returns 1 if its block completed.
    fn retire(&mut self, slot: usize) -> u32 {
        debug_assert!(
            self.occupied & (1u64 << slot) != 0,
            "retiring empty slot"
        );
        let block = self.warps.block[slot];
        self.warps.release(slot);
        let pos = self.by_age.iter().position(|&s| usize::from(s) == slot);
        self.by_age.remove(pos.expect("live warp is age-ordered"));
        self.occupied &= !(1u64 << slot);
        self.set_ready(slot, false);
        self.free_slots += 1;
        let idx = self
            .blocks
            .iter()
            .position(|b| b.block == block)
            .expect("warp's block is resident");
        self.blocks[idx].warps_left -= 1;
        if self.blocks[idx].warps_left == 0 {
            self.blocks.swap_remove(idx);
            1
        } else {
            0
        }
    }

    /// Requests a drain-based ownership change. Takes effect once every
    /// resident block finishes ([`Sm::try_complete_handoff`]).
    pub fn request_handoff(&mut self, new_owner: Option<AppId>) {
        self.pending_owner = new_owner;
        if self.is_empty() {
            self.complete_handoff();
        }
    }

    /// Completes a pending handoff if the SM has drained. Returns `true`
    /// when ownership changed this call.
    pub fn try_complete_handoff(&mut self) -> bool {
        if self.pending_owner.is_some() && self.is_empty() {
            self.complete_handoff();
            true
        } else {
            false
        }
    }

    fn complete_handoff(&mut self) {
        self.owner = self.pending_owner.take();
        // The incoming application must not inherit warm lines.
        self.l1.flush();
        self.sched.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::AccessPattern;

    fn cfg() -> GpuConfig {
        GpuConfig::test_small()
    }

    fn alu_kernel() -> KernelDesc {
        KernelDesc {
            name: "alu".into(),
            grid_blocks: 2,
            warps_per_block: 2,
            iters_per_warp: 3,
            body: vec![Op::Alu { latency: 2 }],
            patterns: vec![],
            active_lanes: 32,
        }
    }

    fn run_to_idle(sm: &mut Sm, kernel: &KernelDesc, cfg: &GpuConfig) -> (u64, u32) {
        let mut ms = MemSys::new(cfg);
        let mut st = SimStats::new(2);
        let mut done_blocks = 0;
        let mut cycle = 0u64;
        while !sm.is_empty() {
            sm.wake(cycle);
            let mut comps = Vec::new();
            ms.drain_completions(cycle, &mut comps);
            for c in comps {
                done_blocks += sm.on_mem_response(c.warp_slot);
            }
            ms.tick(cycle, &mut st);
            done_blocks +=
                sm.issue(cycle, kernel, AppId(0), 0, cfg, &mut ms, &mut st, &mut TraceHook::None);
            cycle += 1;
            assert!(cycle < 1_000_000, "SM never drained");
        }
        (cycle, done_blocks)
    }

    #[test]
    fn dispatch_and_capacity() {
        let cfg = cfg();
        let mut sm = Sm::new(0, &cfg);
        let k = alu_kernel();
        assert!(sm.can_take_block(&k, &cfg));
        sm.dispatch_block(&k, 0);
        assert_eq!(sm.resident_blocks(), 1);
        assert_eq!(sm.live_warps(), 2);
    }

    #[test]
    fn alu_kernel_retires_blocks() {
        let cfg = cfg();
        let mut sm = Sm::new(0, &cfg);
        let k = alu_kernel();
        sm.dispatch_block(&k, 0);
        sm.dispatch_block(&k, 1);
        let (_, done) = run_to_idle(&mut sm, &k, &cfg);
        assert_eq!(done, 2);
        assert!(sm.is_empty());
        assert_eq!(sm.live_warps(), 0);
    }

    #[test]
    fn load_kernel_counts_memory_traffic() {
        let cfg = cfg();
        let mut sm = Sm::new(0, &cfg);
        let k = KernelDesc {
            name: "ld".into(),
            grid_blocks: 1,
            warps_per_block: 1,
            iters_per_warp: 8,
            body: vec![Op::Load(PatternId(0))],
            patterns: vec![AccessPattern::streaming(1 << 20)],
            active_lanes: 32,
        };
        sm.dispatch_block(&k, 0);
        let mut ms = MemSys::new(&cfg);
        let mut st = SimStats::new(1);
        let mut cycle = 0u64;
        while !sm.is_empty() || !ms.is_idle() {
            sm.wake(cycle);
            let mut comps = Vec::new();
            ms.drain_completions(cycle, &mut comps);
            for c in comps {
                let _ = sm.on_mem_response(c.warp_slot);
            }
            ms.tick(cycle, &mut st);
            sm.issue(cycle, &k, AppId(0), 0, &cfg, &mut ms, &mut st, &mut TraceHook::None);
            cycle += 1;
            assert!(cycle < 100_000);
        }
        let a = st.app(AppId(0));
        assert_eq!(a.mem_insts, 8);
        assert!(a.dram_read_bytes > 0, "streaming loads reach DRAM");
    }

    #[test]
    fn store_kernel_does_not_block() {
        let cfg = cfg();
        let mut sm = Sm::new(0, &cfg);
        let k = KernelDesc {
            name: "st".into(),
            grid_blocks: 1,
            warps_per_block: 1,
            iters_per_warp: 4,
            body: vec![Op::Store(PatternId(0))],
            patterns: vec![AccessPattern::streaming(1 << 20)],
            active_lanes: 32,
        };
        sm.dispatch_block(&k, 0);
        let (cycles, done) = run_to_idle(&mut sm, &k, &cfg);
        assert_eq!(done, 1);
        // 4 stores at 1 cycle apiece plus wake slack.
        assert!(cycles < 64, "stores stalled the warp: {cycles} cycles");
    }

    #[test]
    fn handoff_waits_for_drain() {
        let cfg = cfg();
        let mut sm = Sm::new(0, &cfg);
        sm.owner = Some(AppId(0));
        let k = alu_kernel();
        sm.dispatch_block(&k, 0);
        sm.request_handoff(Some(AppId(1)));
        assert_eq!(sm.owner, Some(AppId(0)), "still draining");
        assert!(!sm.try_complete_handoff());
        let _ = run_to_idle(&mut sm, &k, &cfg);
        assert!(sm.try_complete_handoff());
        assert_eq!(sm.owner, Some(AppId(1)));
    }

    #[test]
    fn handoff_immediate_when_empty() {
        let cfg = cfg();
        let mut sm = Sm::new(0, &cfg);
        sm.owner = Some(AppId(0));
        sm.request_handoff(Some(AppId(1)));
        assert_eq!(sm.owner, Some(AppId(1)));
        assert!(sm.pending_owner.is_none());
    }

    #[test]
    fn barrier_synchronizes_block() {
        let cfg = cfg();
        let mut sm = Sm::new(0, &cfg);
        // Two warps with very different ALU latencies before a barrier:
        // both must leave the barrier together.
        let k = KernelDesc {
            name: "bar".into(),
            grid_blocks: 1,
            warps_per_block: 4,
            iters_per_warp: 6,
            body: vec![Op::Alu { latency: 12 }, Op::Barrier, Op::Alu { latency: 2 }],
            patterns: vec![],
            active_lanes: 32,
        };
        sm.dispatch_block(&k, 0);
        let (_, done) = run_to_idle(&mut sm, &k, &cfg);
        assert_eq!(done, 1, "block retires despite barriers");
    }

    #[test]
    fn barrier_as_last_op_retires_cleanly() {
        let cfg = cfg();
        let mut sm = Sm::new(0, &cfg);
        let k = KernelDesc {
            name: "bar-tail".into(),
            grid_blocks: 2,
            warps_per_block: 2,
            iters_per_warp: 3,
            body: vec![Op::Alu { latency: 4 }, Op::Barrier],
            patterns: vec![],
            active_lanes: 32,
        };
        sm.dispatch_block(&k, 0);
        sm.dispatch_block(&k, 1);
        let (_, done) = run_to_idle(&mut sm, &k, &cfg);
        assert_eq!(done, 2);
        assert!(sm.is_empty());
    }

    #[test]
    fn barrier_with_memory_ops_interleaved() {
        let cfg = cfg();
        let mut sm = Sm::new(0, &cfg);
        let k = KernelDesc {
            name: "bar-mem".into(),
            grid_blocks: 1,
            warps_per_block: 3,
            iters_per_warp: 4,
            body: vec![
                Op::Load(PatternId(0)),
                Op::Barrier,
                Op::Alu { latency: 2 },
            ],
            patterns: vec![AccessPattern::streaming(1 << 20)],
            active_lanes: 32,
        };
        sm.dispatch_block(&k, 0);
        let (_, done) = run_to_idle(&mut sm, &k, &cfg);
        assert_eq!(done, 1);
    }

    #[test]
    fn block_limit_respected() {
        let cfg = cfg();
        let mut sm = Sm::new(0, &cfg);
        let k = alu_kernel();
        for b in 0..cfg.max_blocks_per_sm {
            assert!(sm.can_take_block(&k, &cfg));
            sm.dispatch_block(&k, b);
        }
        assert!(!sm.can_take_block(&k, &cfg), "block limit");
    }

    #[test]
    fn warp_slot_limit_respected() {
        let cfg = cfg();
        let mut sm = Sm::new(0, &cfg);
        let k = KernelDesc {
            warps_per_block: cfg.max_warps_per_sm,
            ..alu_kernel()
        };
        assert!(sm.can_take_block(&k, &cfg));
        sm.dispatch_block(&k, 0);
        assert!(!sm.can_take_block(&k, &cfg), "warp slots exhausted");
    }
}
