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
    /// `slot` set = ready); `ages[slot]` is a monotone dispatch sequence
    /// number (smaller = older) and `by_age` lists the live slots
    /// oldest-first — the same order, kept sorted by the SM (append on
    /// dispatch, remove on retire) so GTO's fallback is "first ready
    /// entry" instead of an age comparison per ready warp. Every ready
    /// slot must be listed. At most 64 slots are supported. Returns
    /// `None` when no slot is ready.
    pub fn pick(&mut self, ready: u64, ages: &[u64], by_age: &[u8]) -> Option<usize> {
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
                // Oldest part: the first ready slot in age order.
                let oldest = by_age
                    .iter()
                    .map(|&s| usize::from(s))
                    .find(|&s| ready & (1u64 << s) != 0);
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

    /// Slots oldest-first, lowest slot first among equal ages.
    fn by_age(ages: &[u64]) -> Vec<u8> {
        let mut order: Vec<u8> = (0..ages.len() as u8).collect();
        order.sort_by_key(|&s| ages[usize::from(s)]);
        order
    }

    #[test]
    fn gto_sticks_with_last_warp() {
        let mut s = WarpScheduler::new(WarpSchedPolicy::Gto);
        let ages = vec![10, 5, 7];
        let order = by_age(&ages);
        // First pick: oldest ready (slot 1, age 5).
        assert_eq!(s.pick(0b111, &ages, &order), Some(1));
        // Greedy: keeps slot 1 while it stays ready.
        assert_eq!(s.pick(0b111, &ages, &order), Some(1));
        // Slot 1 stalls: falls back to oldest ready = slot 2 (age 7).
        assert_eq!(s.pick(0b101, &ages, &order), Some(2));
    }

    #[test]
    fn gto_none_when_all_stalled() {
        let mut s = WarpScheduler::new(WarpSchedPolicy::Gto);
        assert_eq!(s.pick(0, &[1, 2], &[0, 1]), None);
    }

    #[test]
    fn gto_age_tie_prefers_lowest_slot() {
        // Equal ages cannot occur on an SM (`age_seq` is monotone), but
        // the oracle scan keeps its documented tie-break — ascending
        // bits, strict `<`, lowest slot — and an order list that breaks
        // ties the same way agrees with it.
        let ages = [7, 7, 7];
        assert_eq!(oldest_ready_by_scan(0b110, &ages), 1);
        let mut s = WarpScheduler::new(WarpSchedPolicy::Gto);
        assert_eq!(s.pick(0b110, &ages, &by_age(&ages)), Some(1));
    }

    #[test]
    fn ordered_pick_matches_age_scan_under_churn() {
        // The SM's bookkeeping in miniature: dispatch stamps a free slot
        // with the next `age_seq` and appends it to the order, retire
        // removes it. Over random ready masks the ordered fallback must
        // name the slot the age scan names.
        const SLOTS: usize = 48;
        let mut rng = SimRng::seed_from_u64(0x6A0);
        let mut ages = vec![0u64; SLOTS];
        let mut order: Vec<u8> = Vec::new();
        let mut live = 0u64;
        let mut age_seq = 0u64;
        let mut picks = 0;
        for _ in 0..20_000 {
            match rng.gen_range(4) {
                0 if live.count_ones() < SLOTS as u32 => {
                    // Lowest free slot, as `Sm::dispatch_block` places.
                    let slot = (!live).trailing_zeros() as usize;
                    ages[slot] = age_seq;
                    age_seq += 1;
                    live |= 1 << slot;
                    order.push(slot as u8);
                }
                1 if live != 0 => {
                    let nth = rng.gen_range(u64::from(live.count_ones())) as usize;
                    let slot = order[nth];
                    live &= !(1u64 << slot);
                    order.remove(nth);
                }
                _ => {
                    let ready = live & rng.next_u64() & rng.next_u64();
                    if ready == 0 {
                        continue;
                    }
                    // A fresh scheduler has no greedy memory, so this is
                    // the oldest-ready fallback alone.
                    let mut s = WarpScheduler::new(WarpSchedPolicy::Gto);
                    let got = s.pick(ready, &ages, &order);
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
        let order = by_age(&ages);
        assert_eq!(s.pick(0b111, &ages, &order), Some(0));
        assert_eq!(s.pick(0b111, &ages, &order), Some(1));
        assert_eq!(s.pick(0b111, &ages, &order), Some(2));
        assert_eq!(s.pick(0b111, &ages, &order), Some(0));
    }

    #[test]
    fn lrr_skips_stalled() {
        let mut s = WarpScheduler::new(WarpSchedPolicy::Lrr);
        let ages = vec![0, 0, 0];
        let order = by_age(&ages);
        assert_eq!(s.pick(0b101, &ages, &order), Some(0));
        assert_eq!(s.pick(0b101, &ages, &order), Some(2));
        assert_eq!(s.pick(0b101, &ages, &order), Some(0));
    }

    #[test]
    fn lrr_full_width_mask() {
        // 64 slots: the cursor reaches slot 63 and the `u64::MAX << 64`
        // hazard would bite if the wrap were not by modulo.
        let mut s = WarpScheduler::new(WarpSchedPolicy::Lrr);
        let ages = vec![0u64; 64];
        let order = by_age(&ages);
        let only_last = 1u64 << 63;
        assert_eq!(s.pick(only_last, &ages, &order), Some(63));
        assert_eq!(
            s.pick(only_last | 1, &ages, &order),
            Some(0),
            "cursor wrapped"
        );
    }

    #[test]
    fn reset_clears_greedy_state() {
        let mut s = WarpScheduler::new(WarpSchedPolicy::Gto);
        let ages = vec![2, 1];
        let order = by_age(&ages);
        assert_eq!(s.pick(0b11, &ages, &order), Some(1));
        s.reset();
        // After reset the greedy memory is gone; picks oldest again.
        assert_eq!(s.pick(0b11, &ages, &order), Some(1));
    }

    #[test]
    fn empty_slots() {
        let mut s = WarpScheduler::new(WarpSchedPolicy::Lrr);
        assert_eq!(s.pick(0, &[], &[]), None);
        let mut g = WarpScheduler::new(WarpSchedPolicy::Gto);
        assert_eq!(g.pick(0, &[], &[]), None);
    }
}
