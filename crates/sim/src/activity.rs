//! Exact SM activity summaries: the ready / dispatch / next-wake sets
//! that let a device step visit only the SMs that can act, and read
//! quiescence and the horizon wake without scanning every SM
//! (DESIGN.md §8, "Active-SM stepping").

use crate::sm::Sm;

/// A wake calendar over ids `0..n`: each id files at most one wake
/// cycle, and the calendar hands back the ids due at a cycle and the
/// earliest filed wake, both without scanning the ids. Two levels:
///
/// - a ring of [`WakeRing::SLOTS`] id sets, slot `at % SLOTS` holding
///   the ids due at `at`, for every wake in `[base, base + SLOTS)`;
/// - an overflow set `far` for wakes filed `SLOTS` or more cycles past
///   `base`, each with its cycle in `far_at` and their exact minimum in
///   `far_min`, pulled into the ring as the calendar advances and they
///   come within reach.
///
/// `base` is the next cycle whose slot [`WakeRing::take`] has not
/// consumed. The occupancy word `occ` has bit `k` set iff ring slot `k`
/// is non-empty, so the earliest ring wake is
/// `base + occ.rotate_right(base % SLOTS).trailing_zeros()` — O(1). A
/// ring wake's cycle is its slot's, so the calendar keeps no per-id
/// cycle for it: filing and taking touch one slot word and the
/// occupancy word. A caller that withdraws a wake names its cycle.
///
/// **Invariants** (rechecked from the slots by the unit tests' `check`,
/// which also compares `next` with a brute-force scan; in every debug
/// build `file` asserts one wake per id, `take(now)` that nothing at or
/// before `now` stays filed, and `next` that the slot it names is
/// non-empty):
/// - an id has at most one bit, in one ring slot or in `far`;
/// - every ring wake lies in `[base, base + SLOTS)` and every far wake
///   at or after `base + SLOTS` once a take has pulled (filing puts
///   only such wakes there), and `far_min` is the least far wake;
/// - `occ` bit `k` ⇔ ring slot `k` is non-empty.
///
/// The device files SMs in one; each SM files its warp slots in another.
#[derive(Debug, Clone)]
pub(crate) struct WakeRing {
    /// `u64` words per id set.
    words: usize,
    /// `SLOTS` id sets of `words` words each.
    ring: Vec<u64>,
    /// Bit `k` set iff ring slot `k` holds an id.
    occ: u64,
    far: Vec<u64>,
    /// Each far id's wake cycle (stale for ids not in `far`).
    far_at: Vec<u64>,
    /// Least wake filed in `far` (`u64::MAX` = none).
    far_min: u64,
    /// The next cycle whose ring slot has not been consumed.
    base: u64,
    /// The filed ids, for the one-wake-per-id check (debug builds).
    #[cfg(debug_assertions)]
    filed: Vec<u64>,
}

impl WakeRing {
    /// Ring length: a wake due fewer than this many cycles past `base`
    /// goes to its ring slot, a later one to the overflow set.
    const SLOTS: u64 = 64;

    /// An empty calendar for ids `0..n`, based at cycle 0.
    pub fn new(n: usize) -> Self {
        let words = n.div_ceil(64).max(1);
        WakeRing {
            words,
            ring: vec![0; words * Self::SLOTS as usize],
            occ: 0,
            far: vec![0; words],
            far_at: vec![u64::MAX; n],
            far_min: u64::MAX,
            base: 0,
            #[cfg(debug_assertions)]
            filed: vec![0; words],
        }
    }

    /// Unfiles every id and bases the calendar at `base`.
    fn reset(&mut self, base: u64) {
        self.ring.fill(0);
        self.far.fill(0);
        self.occ = 0;
        self.far_min = u64::MAX;
        self.base = base;
        #[cfg(debug_assertions)]
        self.filed.fill(0);
    }

    /// Files `id` to wake at `at` (`u64::MAX` files nothing). The id must
    /// not hold a wake already, and `at` must not lie before `base`.
    #[inline]
    pub fn file(&mut self, id: usize, at: u64) {
        if at == u64::MAX {
            return;
        }
        let (w, bit) = (id / 64, 1u64 << (id % 64));
        #[cfg(debug_assertions)]
        {
            assert_eq!(
                self.filed[w] & bit,
                0,
                "id {id} filed a second wake (at {at})"
            );
            self.filed[w] |= bit;
        }
        debug_assert!(
            at >= self.base,
            "id {id} filed a wake at {at}, before cycle {}",
            self.base
        );
        if at - self.base < Self::SLOTS {
            let k = (at % Self::SLOTS) as usize;
            self.ring[k * self.words + w] |= bit;
            self.occ |= 1 << k;
        } else {
            self.far[w] |= bit;
            self.far_at[id] = at;
            self.far_min = self.far_min.min(at);
        }
    }

    /// Withdraws the wake `id` filed at `at`. A wake before `base` was
    /// taken already, and `u64::MAX` names none: both are no-ops.
    fn unfile(&mut self, id: usize, at: u64) {
        if at == u64::MAX || at < self.base {
            return;
        }
        let (w, bit) = (id / 64, 1u64 << (id % 64));
        #[cfg(debug_assertions)]
        {
            assert_ne!(
                self.filed[w] & bit,
                0,
                "id {id} withdrew a wake it never filed"
            );
            self.filed[w] &= !bit;
        }
        if self.far[w] & bit != 0 {
            debug_assert_eq!(self.far_at[id], at, "id {id} withdrew the wrong far wake");
            self.far[w] &= !bit;
            if at == self.far_min {
                self.far_min = Rotation::new(&self.far, 0)
                    .map(|i| self.far_at[i])
                    .min()
                    .unwrap_or(u64::MAX);
            }
        } else {
            let k = (at % Self::SLOTS) as usize;
            let slot = &mut self.ring[k * self.words..(k + 1) * self.words];
            debug_assert_ne!(
                slot[w] & bit,
                0,
                "id {id} withdrew a wake at {at} it never filed"
            );
            slot[w] &= !bit;
            if slot.iter().all(|&x| x == 0) {
                self.occ &= !(1 << k);
            }
        }
    }

    /// ORs into `out` every id due at or before `now`, unfiles them and
    /// advances `base` to `now + 1`, pulling the far wakes that came
    /// within reach into the ring. Nothing at or before `now` is left
    /// filed. A `now` before `base` has nothing left to take.
    #[inline]
    pub fn take(&mut self, now: u64, out: &mut [u64]) {
        if now < self.base {
            return;
        }
        let span = now - self.base + 1;
        let due = if span >= Self::SLOTS {
            self.occ
        } else {
            self.occ & ((1u64 << span) - 1).rotate_left((self.base % Self::SLOTS) as u32)
        };
        self.base = now + 1;
        if due != 0 {
            self.take_slots(due, out);
        }
        if self.far_min < self.base + Self::SLOTS {
            self.pull_far(now, out);
        }
        debug_assert!(
            self.next().is_none_or(|at| at > now),
            "a wake at or before {now} was left filed"
        );
    }

    /// Empties the ring slots of `due` into `out`.
    #[inline]
    fn take_slots(&mut self, due: u64, out: &mut [u64]) {
        self.occ &= !due;
        let mut slots = due;
        while slots != 0 {
            let k = slots.trailing_zeros() as usize;
            slots &= slots - 1;
            let ring = &mut self.ring[k * self.words..(k + 1) * self.words];
            #[cfg(debug_assertions)]
            for (f, r) in self.filed.iter_mut().zip(ring.iter()) {
                *f &= !r;
            }
            for (o, r) in out.iter_mut().zip(ring) {
                *o |= std::mem::take(r);
            }
        }
    }

    /// Moves every far wake due before `base + SLOTS` into its ring slot;
    /// one already due (at or before `now`) goes to `out` instead.
    fn pull_far(&mut self, now: u64, out: &mut [u64]) {
        self.far_min = u64::MAX;
        for (w, o) in out.iter_mut().enumerate() {
            let mut bits = self.far[w];
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let at = self.far_at[w * 64 + b];
                if at <= now {
                    self.far[w] &= !(1 << b);
                    *o |= 1 << b;
                    #[cfg(debug_assertions)]
                    {
                        self.filed[w] &= !(1 << b);
                    }
                } else if at < self.base + Self::SLOTS {
                    self.far[w] &= !(1 << b);
                    let k = (at % Self::SLOTS) as usize;
                    self.ring[k * self.words + w] |= 1 << b;
                    self.occ |= 1 << k;
                } else {
                    self.far_min = self.far_min.min(at);
                }
            }
        }
    }

    /// The earliest filed wake, in O(1): the first occupied ring slot
    /// at or after `base`, or the far minimum if that is sooner.
    #[inline]
    pub fn next(&self) -> Option<u64> {
        let ring = if self.occ == 0 {
            u64::MAX
        } else {
            let r = (self.base % Self::SLOTS) as u32;
            self.base + u64::from(self.occ.rotate_right(r).trailing_zeros())
        };
        let at = ring.min(self.far_min);
        debug_assert!(
            ring == u64::MAX || {
                let k = (ring % Self::SLOTS) as usize;
                self.ring[k * self.words..(k + 1) * self.words]
                    .iter()
                    .any(|&x| x != 0)
            },
            "the occupancy word names an empty slot"
        );
        (at != u64::MAX).then_some(at)
    }

    /// The earliest filed wake by brute force: every non-empty slot's
    /// cycle and every far wake (`u64::MAX` = none). The unit tests'
    /// oracle behind [`Self::next`].
    #[cfg(test)]
    fn scan_min(&self) -> u64 {
        let slot_min = (0..Self::SLOTS)
            .filter(|&k| {
                let k = k as usize;
                self.ring[k * self.words..(k + 1) * self.words]
                    .iter()
                    .any(|&x| x != 0)
            })
            .map(|k| self.base + (k + Self::SLOTS - self.base % Self::SLOTS) % Self::SLOTS)
            .min()
            .unwrap_or(u64::MAX);
        let far_min = Rotation::new(&self.far, 0).map(|i| self.far_at[i]).min();
        slot_min.min(far_min.unwrap_or(u64::MAX))
    }

    /// Recomputes every invariant from the slots: the unit tests' oracle.
    #[cfg(test)]
    fn check(&self) -> bool {
        let mut seen = vec![0u64; self.words];
        let mut occ = 0u64;
        for (k, slot) in self.ring.chunks(self.words).enumerate() {
            for (s, &ids) in seen.iter_mut().zip(slot) {
                if ids != 0 {
                    occ |= 1 << k;
                }
                if *s & ids != 0 {
                    return false;
                }
                *s |= ids;
            }
        }
        #[cfg(debug_assertions)]
        if (0..self.words).any(|w| self.filed[w] != seen[w] | self.far[w]) {
            return false;
        }
        let far_min = Rotation::new(&self.far, 0).map(|i| self.far_at[i]).min();
        (0..self.words).all(|w| seen[w] & self.far[w] == 0)
            && self.next().unwrap_or(u64::MAX) == self.scan_min()
            && occ == self.occ
            && far_min.unwrap_or(u64::MAX) == self.far_min
            && far_min.is_none_or(|m| m >= self.base)
    }
}

/// Exact activity summaries over the device's SMs, so a step can visit
/// only the SMs that can act. Three sets, one bit per SM:
///
/// - `ready`: bit `i` ⇔ `sms[i].has_ready_work()`. Set when a memory
///   response is delivered, re-derived after every visit.
/// - `dispatch`: bit `i` ⇔ SM `i` is in service, owned, and its owner
///   has undispatched blocks — a superset of the SMs that can take a
///   block this cycle (slot space and pending handoffs are checked at
///   the visit).
/// - `wakes`: SM `i` filed at its next sleeper wake-up in a
///   [`WakeRing`] based at the next cycle to be stepped. A step at cycle
///   `c` takes the SMs due at `c`.
///
/// **Invariants** (between steps; the users `debug_assert!` each
/// elision against the scan it replaces):
/// - every not-ready SM is filed at its `next_wake()` (or not at all);
/// - every filed wake is at or after the next cycle to be stepped, and
///   the clock never jumps past one, so no SM misses its wake;
/// - a ready SM may stay filed at a wake it no longer has — it is
///   visited every step anyway and refiled when it stops being ready
///   ([`Self::refresh`]); visiting an SM that cannot act is a no-op.
///
/// So the earliest filed wake is exact whenever no SM is ready, the only
/// time it is asked.
#[derive(Debug, Clone)]
pub(crate) struct SmActivity {
    /// Number of SMs covered.
    n: usize,
    ready: Vec<u64>,
    dispatch: Vec<u64>,
    /// SM `i`'s filed wake (`u64::MAX` = none); after its slot is taken
    /// it names a past cycle, which withdraws nothing.
    wake_at: Vec<u64>,
    wakes: WakeRing,
}

impl SmActivity {
    /// Empty summaries for `n` SMs; [`Self::rebuild`] before use.
    pub fn new(n: usize) -> Self {
        let words = n.div_ceil(64).max(1);
        SmActivity {
            n,
            ready: vec![0; words],
            dispatch: vec![0; words],
            wake_at: vec![u64::MAX; n],
            wakes: WakeRing::new(n),
        }
    }

    /// Recomputes every summary from scratch; `base` is the next cycle
    /// to be stepped (no SM may sleep before it) and `dispatch` decides
    /// each SM's dispatch bit.
    pub fn rebuild(&mut self, sms: &[Sm], base: u64, mut dispatch: impl FnMut(usize, &Sm) -> bool) {
        debug_assert_eq!(sms.len(), self.n);
        self.ready.fill(0);
        self.dispatch.fill(0);
        self.wakes.reset(base);
        for (i, sm) in sms.iter().enumerate() {
            self.set_ready(i, sm.has_ready_work());
            if dispatch(i, sm) {
                self.dispatch[i / 64] |= 1 << (i % 64);
            }
            self.wake_at[i] = sm.next_wake().unwrap_or(u64::MAX);
            self.wakes.file(i, self.wake_at[i]);
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

    /// Post-visit upkeep for SM `i` after the visits of one step:
    /// re-derives its ready bit and refiles its wake. An SM that was
    /// ready and stays ready skips the refile — it is visited again next
    /// step, and refiled when it stops being ready. An unchanged wake
    /// stays filed: its slot lies ahead, so nothing has consumed it.
    #[inline]
    pub fn refresh(&mut self, i: usize, sm: &Sm) {
        let ready = sm.has_ready_work();
        if ready && has_bit(&self.ready, i) {
            return;
        }
        self.set_ready(i, ready);
        let at = sm.next_wake().unwrap_or(u64::MAX);
        if at != self.wake_at[i] {
            self.wakes.unfile(i, self.wake_at[i]);
            self.wakes.file(i, at);
            self.wake_at[i] = at;
        }
    }

    /// Writes into `out` the SMs that may act at cycle `now` — ready,
    /// in the dispatch superset, or filed to wake at `now` — and takes
    /// them off the calendar. Call once per stepped cycle.
    pub fn take_visit(&mut self, now: u64, out: &mut Vec<u64>) {
        out.clear();
        out.extend(self.ready.iter().zip(&self.dispatch).map(|(r, d)| r | d));
        self.wakes.take(now, out);
    }

    /// Earliest filed wake (O(1)); exact over the not-ready SMs, and
    /// asked only when no SM stayed ready. `base` is the next cycle to
    /// step, which no filed wake precedes.
    pub fn wake_min(&self, base: u64) -> Option<u64> {
        let at = self.wakes.next();
        debug_assert!(
            at.is_none_or(|at| at >= base),
            "a filed wake at {at:?} precedes cycle {base}"
        );
        at
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
/// ascending order). Bits past the SM count must be clear.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    /// The ids `take(now)` hands back from a one-word ring.
    fn take(ring: &mut WakeRing, now: u64) -> u64 {
        let mut out = [0u64];
        ring.take(now, &mut out);
        assert!(ring.check(), "invariants after take({now})");
        out[0]
    }

    #[test]
    fn each_delay_wakes_exactly_at_its_cycle() {
        // 63 is the last ring slot, 64 the first far wake, 255 the
        // longest ALU latency a kernel can name.
        for delay in [1u64, 2, 63, 64, 65, 255] {
            for start in [0u64, 5, 63, 64, 1_000] {
                let mut ring = WakeRing::new(4);
                ring.reset(start);
                ring.file(3, start + delay);
                assert!(ring.check());
                assert_eq!(
                    ring.next(),
                    Some(start + delay),
                    "delay {delay} from {start}"
                );
                for now in start..start + delay {
                    assert_eq!(take(&mut ring, now), 0, "delay {delay}: early at {now}");
                    assert_eq!(ring.next(), Some(start + delay));
                }
                assert_eq!(take(&mut ring, start + delay), 1 << 3, "delay {delay}");
                assert_eq!(ring.next(), None);
            }
        }
    }

    #[test]
    fn far_wakes_are_pulled_into_the_ring_as_they_come_within_reach() {
        let mut ring = WakeRing::new(70);
        ring.file(0, 200);
        ring.file(65, 130);
        ring.file(7, 10);
        assert_eq!(ring.next(), Some(10));
        assert_eq!(ring.far_min, 130);
        // Stepping every cycle: 130 enters the ring at base 67, 200 at
        // base 137; each fires at its own cycle and nowhere else. A far
        // withdrawal re-derives the far minimum.
        ring.file(66, 500);
        ring.unfile(66, 500);
        assert_eq!(ring.far_min, 130);
        let mut fired = Vec::new();
        for now in 0..=200 {
            let mut out = [0u64; 2];
            ring.take(now, &mut out);
            assert!(ring.check(), "invariants at {now}");
            for id in Rotation::new(&out, 0) {
                fired.push((now, id));
            }
            if now == 67 {
                assert_eq!(ring.far_min, 200, "130 pulled once within reach");
            }
        }
        assert_eq!(fired, [(10, 7), (130, 65), (200, 0)]);
        // A jump past a far wake hands it back at once, never late.
        ring.file(1, 900);
        assert_eq!(take(&mut ring, 1_000), 1 << 1);
        assert_eq!(ring.next(), None);
    }

    #[test]
    fn refiling_moves_a_wake_and_keeps_the_occupancy_exact() {
        let mut ring = WakeRing::new(3);
        ring.file(0, 5);
        ring.file(1, 5);
        ring.file(2, 300);
        ring.unfile(0, 5);
        assert!(ring.check());
        assert_eq!(ring.next(), Some(5), "id 1 still holds slot 5");
        ring.unfile(1, 5);
        ring.unfile(2, 300);
        assert!(ring.check());
        assert_eq!(
            ring.next(),
            None,
            "an emptied slot leaves the occupancy word"
        );
        ring.file(2, 40);
        assert_eq!(ring.next(), Some(40));
    }

    #[test]
    fn constant_time_next_matches_the_least_filed_wake() {
        // A seeded schedule over two words of ids: random files (near,
        // ring-edge and far), refiles, and takes that step or jump, with
        // the O(1) next wake checked against a brute-force minimum.
        let mut rng = SimRng::seed_from_u64(0x3A4E);
        let n = 100;
        let mut ring = WakeRing::new(n);
        let mut want = vec![u64::MAX; n];
        let mut now = 0u64;
        for _ in 0..20_000 {
            let id = rng.gen_range(n as u64) as usize;
            match rng.gen_range(4) {
                0 | 1 => {
                    let delay =
                        [1, 2, 63, 64, 65, 255, 1 + rng.gen_range(300)][rng.gen_range(7) as usize];
                    ring.unfile(id, want[id]);
                    ring.file(id, now + 1 + delay);
                    want[id] = now + 1 + delay;
                }
                2 => {
                    ring.unfile(id, want[id]);
                    want[id] = u64::MAX;
                }
                _ => {
                    now += if rng.gen_range(8) == 0 {
                        1 + rng.gen_range(200)
                    } else {
                        1
                    };
                    let mut out = vec![0u64; 2];
                    ring.take(now, &mut out);
                    for (i, at) in want.iter_mut().enumerate() {
                        let due = *at <= now;
                        assert_eq!(has_bit(&out, i), due, "id {i} at {now}");
                        if due {
                            *at = u64::MAX;
                        }
                    }
                }
            }
            let least = want.iter().copied().min().filter(|&a| a != u64::MAX);
            assert_eq!(ring.next(), least, "next wake at {now}");
            assert!(ring.check(), "invariants at {now}");
        }
    }
}
