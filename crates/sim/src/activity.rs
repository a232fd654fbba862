//! Exact SM activity summaries: the ready / dispatch / next-wake sets
//! that let a device step visit only the SMs that can act, and read
//! quiescence and the horizon wake without scanning every SM
//! (DESIGN.md §8, "Active-SM stepping").

use crate::sm::Sm;

/// Wake-ring length: a sleeper due fewer than this many cycles after
/// the filing cycle goes to ring slot `wake % WAKE_RING`, a later one
/// to the overflow set.
const WAKE_RING: u64 = 64;

/// Exact activity summaries over the device's SMs, so a step can visit
/// only the SMs that can act. Three sets, one bit per SM:
///
/// - `ready`: bit `i` ⇔ `sms[i].has_ready_work()`. Set when a memory
///   response is delivered, re-derived after every visit.
/// - `dispatch`: bit `i` ⇔ SM `i` is in service, owned, and its owner
///   has undispatched blocks — a superset of the SMs that can take a
///   block this cycle (slot space and pending handoffs are checked at
///   the visit).
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
