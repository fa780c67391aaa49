//! A hashed timer wheel for the site-hosting kernel.
//!
//! A per-site heap of deadlines is fine for a handful of timers, but
//! one event loop multiplexes every hosted site's vote timeouts, ack re-sends and inquiry retries for thousands of
//! concurrent transactions on one thread, where arming and cancelling
//! must be O(1). Classic solution (Varghese & Lauck): a circular array
//! of slots at fixed tick granularity; a timer hashes to
//! `deadline_tick % slots` and entries whose deadline lies laps ahead
//! simply stay in their slot until their tick actually arrives.
//!
//! The wheel is host-agnostic over a key type `K` (the reactor uses
//! `(SiteId, engine token, purpose)`) and deterministic: `advance`
//! yields due timers ordered by (deadline tick, arm order), never by
//! hash-slot accident.
//!
//! A [`TimerId`] carries the slot its entry sits in, so cancelling
//! scans that one slot and the wheel keeps no per-timer index.

use std::time::{Duration, Instant};

/// Handle returned by [`TimerWheel::arm`], used to cancel: the timer's
/// arm-order id and its slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct TimerId {
    id: u64,
    slot: u32,
}

/// Number of wheel slots. One lap at the default granularity covers
/// ~512 ms; longer delays (backed-off retries cap at 5 s) park in
/// their slot for a few laps.
pub const WHEEL_SLOTS: usize = 512;

/// Default tick granularity: 1 ms, matching the resolution
/// [`NetDelays`](crate::NetDelays) are specified in.
pub const WHEEL_TICK: Duration = Duration::from_millis(1);

/// The slot a deadline tick hashes to.
fn slot_of(tick: u64) -> u32 {
    (tick % WHEEL_SLOTS as u64) as u32
}

#[derive(Clone, Debug)]
struct Entry<K> {
    id: u64,
    fire_tick: u64,
    key: K,
}

/// The wheel. See the module docs.
#[derive(Debug)]
pub struct TimerWheel<K> {
    slots: Vec<Vec<Entry<K>>>,
    /// Armed timers not yet fired or cancelled.
    live: usize,
    tick: Duration,
    /// Wheel epoch: tick 0 is `t0`.
    t0: Instant,
    /// Next tick index `advance` will process.
    cursor: u64,
    next_id: u64,
}

impl<K> TimerWheel<K> {
    /// A wheel with [`WHEEL_SLOTS`] slots of [`WHEEL_TICK`] granularity,
    /// with tick 0 at `t0`.
    #[must_use]
    pub fn new(t0: Instant) -> Self {
        TimerWheel {
            slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            live: 0,
            tick: WHEEL_TICK,
            t0,
            cursor: 0,
            next_id: 0,
        }
    }

    /// Armed timers not yet fired or cancelled.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Is the wheel empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    fn tick_of(&self, at: Instant) -> u64 {
        // Round up: a timer never fires before its deadline.
        let nanos = at.saturating_duration_since(self.t0).as_nanos();
        let per = self.tick.as_nanos();
        nanos.div_ceil(per) as u64
    }

    /// Arm a timer to fire at `fire_at` (clamped to the next tick if in
    /// the past, so due work still surfaces through `advance`).
    pub fn arm(&mut self, fire_at: Instant, key: K) -> TimerId {
        let fire_tick = self.tick_of(fire_at).max(self.cursor);
        let id = self.next_id;
        self.next_id += 1;
        let slot = slot_of(fire_tick);
        self.slots[slot as usize].push(Entry { id, fire_tick, key });
        self.live += 1;
        TimerId { id, slot }
    }

    /// Cancel an armed timer. Returns `false` when the id already fired
    /// or was cancelled (cancellation is idempotent).
    pub fn cancel(&mut self, id: TimerId) -> bool {
        let bucket = &mut self.slots[id.slot as usize];
        let Some(pos) = bucket.iter().position(|e| e.id == id.id) else {
            return false;
        };
        bucket.swap_remove(pos);
        self.live -= 1;
        true
    }

    /// Cancel every timer whose key satisfies `pred` (e.g. all timers
    /// of a crashed site). Returns how many were removed.
    pub fn cancel_where(&mut self, mut pred: impl FnMut(&K) -> bool) -> usize {
        let mut removed = 0;
        for slot in &mut self.slots {
            let before = slot.len();
            slot.retain(|e| !pred(&e.key));
            removed += before - slot.len();
        }
        self.live -= removed;
        removed
    }

    /// Fire everything due at `now`: walk the slots the cursor passes
    /// on its way to `now`'s tick (at most one full lap — entries from
    /// future laps stay put) and return the due (id, key) pairs ordered
    /// by (deadline tick, arm order).
    pub fn advance(&mut self, now: Instant) -> Vec<(TimerId, K)> {
        // `tick_of` rounds deadlines up, so a timer is due once `now`
        // has fully reached its tick: everything with
        // fire_tick <= floor(elapsed / tick) fires.
        let done = {
            let nanos = now.saturating_duration_since(self.t0).as_nanos();
            (nanos / self.tick.as_nanos()) as u64
        };
        if done < self.cursor {
            return Vec::new();
        }
        let mut due: Vec<Entry<K>> = Vec::new();
        let span = (done - self.cursor + 1).min(WHEEL_SLOTS as u64);
        for step in 0..span {
            let slot = slot_of(self.cursor + step) as usize;
            let bucket = &mut self.slots[slot];
            let mut i = 0;
            while i < bucket.len() {
                if bucket[i].fire_tick <= done {
                    due.push(bucket.swap_remove(i));
                } else {
                    i += 1;
                }
            }
        }
        self.cursor = done + 1;
        self.live -= due.len();
        due.sort_by_key(|e| (e.fire_tick, e.id));
        due.into_iter()
            .map(|e| {
                let slot = slot_of(e.fire_tick);
                (TimerId { id: e.id, slot }, e.key)
            })
            .collect()
    }

    /// Earliest pending deadline, if any (a full-wheel scan — O(slots +
    /// entries), run once per reactor tick to bound the poll sleep).
    #[must_use]
    pub fn next_deadline(&self) -> Option<Instant> {
        self.slots
            .iter()
            .flatten()
            .map(|e| e.fire_tick)
            .min()
            .map(|t| self.t0 + self.tick * u32::try_from(t).unwrap_or(u32::MAX))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn fires_in_deadline_order_across_laps() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(t0);
        // 700 ms is more than one 512-slot lap ahead: it parks in its
        // slot (700 % 512 = 188) and must NOT fire when the cursor first
        // passes slot 188 at ~188 ms.
        wheel.arm(t0 + ms(700), "lap2");
        wheel.arm(t0 + ms(5), "early");
        wheel.arm(t0 + ms(5), "early-second");
        wheel.arm(t0 + ms(200), "mid");
        assert_eq!(wheel.len(), 4);

        let due: Vec<_> = wheel
            .advance(t0 + ms(250))
            .into_iter()
            .map(|(_, k)| k)
            .collect();
        assert_eq!(due, vec!["early", "early-second", "mid"]);
        assert_eq!(wheel.len(), 1);

        assert!(wheel.advance(t0 + ms(699)).is_empty(), "lap-2 entry parked");
        let late: Vec<_> = wheel
            .advance(t0 + ms(701))
            .into_iter()
            .map(|(_, k)| k)
            .collect();
        assert_eq!(late, vec!["lap2"]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn cancelled_timer_never_fires() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(t0);
        let keep = wheel.arm(t0 + ms(10), 1u32);
        let drop_ = wheel.arm(t0 + ms(10), 2u32);
        assert!(wheel.cancel(drop_));
        assert!(!wheel.cancel(drop_), "cancel is idempotent");
        let due = wheel.advance(t0 + ms(20));
        assert_eq!(due, vec![(keep, 1u32)]);
        assert!(!wheel.cancel(keep), "already fired");
    }

    #[test]
    fn a_cancel_removes_its_own_entry_from_a_shared_slot() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(t0);
        // One lap apart: both hash to slot 5.
        let near = wheel.arm(t0 + ms(5), "near");
        let far = wheel.arm(t0 + ms(5 + WHEEL_SLOTS as u64), "far");
        assert!(wheel.cancel(far));
        assert_eq!(wheel.len(), 1);
        let due = wheel.advance(t0 + ms(2 * WHEEL_SLOTS as u64));
        assert_eq!(due, vec![(near, "near")]);
        assert!(wheel.is_empty());
        assert!(!wheel.cancel(near), "already fired");
    }

    #[test]
    fn cancel_where_sweeps_a_sites_timers() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(t0);
        wheel.arm(t0 + ms(10), (7u64, "vote"));
        wheel.arm(t0 + ms(300), (7u64, "retry"));
        wheel.arm(t0 + ms(10), (8u64, "vote"));
        assert_eq!(wheel.cancel_where(|(site, _)| *site == 7), 2);
        let due: Vec<_> = wheel
            .advance(t0 + ms(500))
            .into_iter()
            .map(|(_, k)| k)
            .collect();
        assert_eq!(due, vec![(8u64, "vote")]);
    }

    #[test]
    fn past_deadlines_clamp_to_next_advance() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(t0);
        assert!(wheel.advance(t0 + ms(100)).is_empty());
        // Armed "in the past" relative to the cursor: surfaces on the
        // next advance instead of being lost.
        wheel.arm(t0 + ms(50), "late");
        let due: Vec<_> = wheel
            .advance(t0 + ms(101))
            .into_iter()
            .map(|(_, k)| k)
            .collect();
        assert_eq!(due, vec!["late"]);
    }

    #[test]
    fn next_deadline_tracks_minimum() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(t0);
        assert_eq!(wheel.next_deadline(), None);
        wheel.arm(t0 + ms(400), ());
        let id = wheel.arm(t0 + ms(30), ());
        let dl = wheel.next_deadline().expect("armed");
        assert_eq!(dl.duration_since(t0), ms(30));
        wheel.cancel(id);
        let dl = wheel.next_deadline().expect("one left");
        assert_eq!(dl.duration_since(t0), ms(400));
    }
}
