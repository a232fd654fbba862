//! Warp scheduling policies.
//!
//! The device issues from a per-SM pool of *ready* warps. Two policies
//! are provided:
//!
//! * [`WarpSchedPolicy::Gto`] — greedy-then-oldest (Rogers et al.,
//!   MICRO 2012), the policy of Table 4.1: keep issuing from the warp
//!   that issued last until it stalls, then fall back to the oldest
//!   ready warp.
//! * [`WarpSchedPolicy::Lrr`] — loose round-robin, the classic baseline;
//!   used by the scheduler-ablation bench.

/// Which warp the SM issues from next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WarpSchedPolicy {
    /// Greedy-then-oldest.
    #[default]
    Gto,
    /// Loose round-robin.
    Lrr,
}

/// Per-SM scheduler state: picks among ready warp slots.
#[derive(Debug, Clone)]
pub struct WarpScheduler {
    policy: WarpSchedPolicy,
    last_issued: Option<usize>,
    rr_cursor: usize,
}

impl WarpScheduler {
    /// Creates a scheduler with the given policy.
    pub fn new(policy: WarpSchedPolicy) -> Self {
        WarpScheduler {
            policy,
            last_issued: None,
            rr_cursor: 0,
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> WarpSchedPolicy {
        self.policy
    }

    /// Picks the next slot to issue from.
    ///
    /// `ready` is a bitmask of slots that can issue this cycle (bit
    /// `slot` set = ready) and `order` the same set re-indexed by age
    /// ([`AgeOrder`]), so GTO's fallback — the oldest ready slot — is one
    /// `trailing_zeros` instead of a walk or an age comparison per ready
    /// warp. `ages[slot]` is a monotone dispatch sequence number (smaller
    /// = older), read only by the debug oracle and for the slot count.
    /// At most 64 slots are supported. Returns `None` when no slot is
    /// ready.
    pub fn pick(&mut self, ready: u64, order: &AgeOrder, ages: &[u64]) -> Option<usize> {
        debug_assert!(ages.len() <= 64, "more warp slots than mask bits");
        if ready == 0 {
            return None;
        }
        let chosen = match self.policy {
            WarpSchedPolicy::Gto => {
                // Greedy part: stick with the last issued warp.
                if let Some(last) = self.last_issued {
                    if last < 64 && ready & (1u64 << last) != 0 {
                        return Some(self.note(last));
                    }
                }
                // Oldest part: the lowest ready rank.
                let oldest = order.oldest_ready();
                debug_assert_eq!(
                    oldest,
                    Some(oldest_ready_by_scan(ready, ages)),
                    "age order out of step with the age stamps"
                );
                oldest
            }
            WarpSchedPolicy::Lrr => {
                // First ready slot at or after the cursor, wrapping.
                let n = ages.len();
                let above = ready & (u64::MAX << self.rr_cursor);
                let slot = if above != 0 {
                    above.trailing_zeros() as usize
                } else {
                    ready.trailing_zeros() as usize
                };
                self.rr_cursor = (slot + 1) % n;
                Some(slot)
            }
        };
        chosen.map(|s| self.note(s))
    }

    fn note(&mut self, slot: usize) -> usize {
        self.last_issued = Some(slot);
        slot
    }

    /// Clears greedy/round-robin state (used on SM reassignment).
    pub fn reset(&mut self) {
        self.last_issued = None;
        self.rr_cursor = 0;
    }
}

/// The live warp slots of an SM oldest-first, with each slot's rank
/// (its position in that order) and the ready set indexed by rank. The
/// SM's `age_seq` is monotone, so appending on dispatch and removing on
/// retire keeps the order sorted by age with no ties.
///
/// **Invariants:** `rank[by_age[r]] == r` for every live rank `r`, and
/// rank bit `r` of `ready` is set iff slot `by_age[r]` is ready. A
/// retire removes rank `r` and shifts every younger rank, and every
/// higher `ready` bit, down by one.
#[derive(Debug, Clone)]
pub struct AgeOrder {
    by_age: Vec<u8>,
    rank: [u8; 64],
    ready: u64,
}

impl AgeOrder {
    /// An empty order for up to `slots` (≤ 64) warp slots.
    pub fn new(slots: usize) -> Self {
        AgeOrder {
            by_age: Vec::with_capacity(slots),
            rank: [0; 64],
            ready: 0,
        }
    }

    /// Appends `slot` as the youngest live warp, not ready.
    #[inline]
    pub fn push(&mut self, slot: usize) {
        self.rank[slot] = self.by_age.len() as u8;
        self.by_age.push(slot as u8);
    }

    /// Removes live `slot` (and its ready bit), shifting the younger
    /// ranks down over it.
    pub(crate) fn remove(&mut self, slot: usize) {
        let r = usize::from(self.rank[slot]);
        debug_assert_eq!(usize::from(self.by_age[r]), slot, "rank out of step");
        self.by_age.remove(r);
        for &s in &self.by_age[r..] {
            self.rank[usize::from(s)] -= 1;
        }
        let below = self.ready & ((1u64 << r) - 1);
        self.ready = below | ((self.ready >> r) >> 1) << r;
    }

    /// Sets or clears live `slot`'s ready bit.
    #[inline]
    pub fn set_ready(&mut self, slot: usize, ready: bool) {
        let bit = 1u64 << self.rank[slot];
        if ready {
            self.ready |= bit;
        } else {
            self.ready &= !bit;
        }
    }

    /// The oldest ready slot, if any.
    #[inline]
    pub(crate) fn oldest_ready(&self) -> Option<usize> {
        (self.ready != 0).then(|| usize::from(self.by_age[self.ready.trailing_zeros() as usize]))
    }

    /// The ready set by slot, recomputed from the ranks (the oracle the
    /// SM checks its own mask against in debug builds).
    pub(crate) fn ready_slots(&self) -> u64 {
        let mut m = self.ready;
        let mut slots = 0u64;
        while m != 0 {
            slots |= 1 << self.by_age[m.trailing_zeros() as usize];
            m &= m - 1;
        }
        slots
    }
}

/// The oldest ready slot by comparing age stamps: smallest
/// `ages[slot]` over the set bits of `ready` (non-zero). Ascending bit
/// order + strict `<` keeps the lowest slot on a tie. This is the scan
/// [`WarpScheduler::pick`] used to run per fallback; it survives as the
/// oracle its ordered pick is `debug_assert!`ed against.
fn oldest_ready_by_scan(ready: u64, ages: &[u64]) -> usize {
    let mut m = ready;
    let mut best = m.trailing_zeros() as usize;
    m &= m - 1;
    while m != 0 {
        let slot = m.trailing_zeros() as usize;
        m &= m - 1;
        if ages[slot] < ages[best] {
            best = slot;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    /// Every slot oldest-first (lowest slot first among equal ages),
    /// with `ready` marked.
    fn order(ages: &[u64], ready: u64) -> AgeOrder {
        let mut slots: Vec<usize> = (0..ages.len()).collect();
        slots.sort_by_key(|&s| ages[s]);
        let mut order = AgeOrder::new(ages.len());
        for s in slots {
            order.push(s);
            order.set_ready(s, ready & (1 << s) != 0);
        }
        order
    }

    /// `s.pick` over `ready` with the order `ages` implies.
    fn pick(s: &mut WarpScheduler, ready: u64, ages: &[u64]) -> Option<usize> {
        s.pick(ready, &order(ages, ready), ages)
    }

    #[test]
    fn gto_sticks_with_last_warp() {
        let mut s = WarpScheduler::new(WarpSchedPolicy::Gto);
        let ages = vec![10, 5, 7];
        // First pick: oldest ready (slot 1, age 5).
        assert_eq!(pick(&mut s, 0b111, &ages), Some(1));
        // Greedy: keeps slot 1 while it stays ready.
        assert_eq!(pick(&mut s, 0b111, &ages), Some(1));
        // Slot 1 stalls: falls back to oldest ready = slot 2 (age 7).
        assert_eq!(pick(&mut s, 0b101, &ages), Some(2));
    }

    #[test]
    fn gto_none_when_all_stalled() {
        let mut s = WarpScheduler::new(WarpSchedPolicy::Gto);
        assert_eq!(pick(&mut s, 0, &[1, 2]), None);
    }

    #[test]
    fn gto_age_tie_prefers_lowest_slot() {
        // Equal ages cannot occur on an SM (`age_seq` is monotone), but
        // the oracle scan keeps its documented tie-break — ascending
        // bits, strict `<`, lowest slot — and an order that breaks ties
        // the same way agrees with it.
        let ages = [7, 7, 7];
        assert_eq!(oldest_ready_by_scan(0b110, &ages), 1);
        let mut s = WarpScheduler::new(WarpSchedPolicy::Gto);
        assert_eq!(pick(&mut s, 0b110, &ages), Some(1));
    }

    #[test]
    fn ordered_pick_matches_age_scan_under_churn() {
        // The SM's bookkeeping in miniature: dispatch stamps a free slot
        // with the next `age_seq` and appends it to the order, retire
        // clears its ready bit and removes it (shifting the younger
        // ranks), and ready bits flip in between. The rank-indexed ready
        // set must stay the slot-indexed one, and the ordered fallback
        // must name the slot the age scan names.
        const SLOTS: usize = 48;
        let mut rng = SimRng::seed_from_u64(0x6A0);
        let mut ages = vec![0u64; SLOTS];
        let mut order = AgeOrder::new(SLOTS);
        let mut live: Vec<usize> = Vec::new();
        let mut ready = 0u64;
        let mut age_seq = 0u64;
        let mut picks = 0;
        for _ in 0..40_000 {
            match rng.gen_range(4) {
                0 if live.len() < SLOTS => {
                    // Lowest free slot, as `Sm::dispatch_block` places.
                    let used = live.iter().fold(0u64, |m, &s| m | 1 << s);
                    let slot = (!used).trailing_zeros() as usize;
                    ages[slot] = age_seq;
                    age_seq += 1;
                    live.push(slot);
                    order.push(slot);
                }
                1 if !live.is_empty() => {
                    let slot = live.remove(rng.gen_range(live.len() as u64) as usize);
                    order.set_ready(slot, false);
                    ready &= !(1u64 << slot);
                    order.remove(slot);
                }
                2 => {
                    for &slot in &live {
                        if rng.gen_range(3) == 0 {
                            let on = ready & (1 << slot) == 0;
                            order.set_ready(slot, on);
                            ready ^= 1 << slot;
                        }
                    }
                }
                _ => {
                    assert_eq!(order.ready_slots(), ready, "rank-indexed ready set");
                    if ready == 0 {
                        continue;
                    }
                    // A fresh scheduler has no greedy memory, so this is
                    // the oldest-ready fallback alone.
                    let mut s = WarpScheduler::new(WarpSchedPolicy::Gto);
                    let got = s.pick(ready, &order, &ages);
                    assert_eq!(got, Some(oldest_ready_by_scan(ready, &ages)));
                    picks += 1;
                }
            }
        }
        assert!(picks > 5_000, "only {picks} picks exercised");
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // constant per build, which is the point
    fn debug_assertions_are_on_under_cargo_test() {
        // The ordered pick, the admission mask and the stalled-miss
        // verdicts are each `debug_assert!`ed against the computation
        // they replace; that oracle must not be compiled out of tier-1.
        assert!(cfg!(debug_assertions));
    }

    #[test]
    fn lrr_rotates() {
        let mut s = WarpScheduler::new(WarpSchedPolicy::Lrr);
        let ages = vec![0, 0, 0];
        assert_eq!(pick(&mut s, 0b111, &ages), Some(0));
        assert_eq!(pick(&mut s, 0b111, &ages), Some(1));
        assert_eq!(pick(&mut s, 0b111, &ages), Some(2));
        assert_eq!(pick(&mut s, 0b111, &ages), Some(0));
    }

    #[test]
    fn lrr_skips_stalled() {
        let mut s = WarpScheduler::new(WarpSchedPolicy::Lrr);
        let ages = vec![0, 0, 0];
        assert_eq!(pick(&mut s, 0b101, &ages), Some(0));
        assert_eq!(pick(&mut s, 0b101, &ages), Some(2));
        assert_eq!(pick(&mut s, 0b101, &ages), Some(0));
    }

    #[test]
    fn lrr_full_width_mask() {
        // 64 slots: the cursor reaches slot 63 and the `u64::MAX << 64`
        // hazard would bite if the wrap were not by modulo.
        let mut s = WarpScheduler::new(WarpSchedPolicy::Lrr);
        let ages = vec![0u64; 64];
        let only_last = 1u64 << 63;
        assert_eq!(pick(&mut s, only_last, &ages), Some(63));
        assert_eq!(
            pick(&mut s, only_last | 1, &ages),
            Some(0),
            "cursor wrapped"
        );
    }

    #[test]
    fn reset_clears_greedy_state() {
        let mut s = WarpScheduler::new(WarpSchedPolicy::Gto);
        let ages = vec![2, 1];
        assert_eq!(pick(&mut s, 0b11, &ages), Some(1));
        s.reset();
        // After reset the greedy memory is gone; picks oldest again.
        assert_eq!(pick(&mut s, 0b11, &ages), Some(1));
    }

    #[test]
    fn empty_slots() {
        let mut s = WarpScheduler::new(WarpSchedPolicy::Lrr);
        assert_eq!(pick(&mut s, 0, &[]), None);
        let mut g = WarpScheduler::new(WarpSchedPolicy::Gto);
        assert_eq!(pick(&mut g, 0, &[]), None);
    }
}
