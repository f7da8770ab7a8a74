//! Equivalence property for the slab event calendar.
//!
//! The original engine queue was a `BinaryHeap` of `(time, seq)`-ordered
//! entries owning boxed payloads: strict `(time, seq)` pop order, ties
//! FIFO by insertion. The slab calendar replaces it with handle-indexed
//! storage, a same-instant FIFO lane, tombstone cancellation, a timing
//! wheel, a front class and ordered streams — none of which may change
//! the observable order. This test drives random
//! schedule/cancel/pop traces through both queues and asserts identical
//! pop sequences, identical cancellation outcomes, and identical live
//! counts at every step.

use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use tengig_sim::{Calendar, EventId, Nanos};

/// Sort class of a reference key: front-class events precede normal
/// ones at the same instant.
const FRONT: u8 = 0;
const NORMAL: u8 = 1;

/// The pre-overhaul queue, reduced to its ordering semantics: a binary
/// max-heap on inverted `(time, class, seq)` keys, payloads owned by the
/// entries. Cancellation (which the old engine lacked) is modeled the
/// straightforward way — an eager sweep of the backing store — so the
/// property checks the tombstone scheme against remove-semantics, not
/// against another lazy implementation of itself.
struct ReferenceQueue {
    heap: BinaryHeap<Reverse<(Nanos, u8, u64, u32)>>,
    cancelled: Vec<bool>,
    seq: u64,
    now: Nanos,
    live: usize,
}

impl ReferenceQueue {
    fn new() -> Self {
        ReferenceQueue {
            heap: BinaryHeap::new(),
            cancelled: Vec::new(),
            seq: 0,
            now: Nanos::ZERO,
            live: 0,
        }
    }

    /// Schedule a payload (its tag is its position in `cancelled`).
    fn schedule(&mut self, at: Nanos) -> u32 {
        self.schedule_class(at, NORMAL)
    }

    fn schedule_class(&mut self, at: Nanos, class: u8) -> u32 {
        let tag = self.cancelled.len() as u32;
        self.cancelled.push(false);
        self.heap
            .push(Reverse((at.max(self.now), class, self.seq, tag)));
        self.seq += 1;
        self.live += 1;
        tag
    }

    fn cancel(&mut self, tag: u32) -> bool {
        if self.cancelled[tag as usize] {
            return false;
        }
        // "already popped" shows as absent from the heap.
        if !self.heap.iter().any(|Reverse((_, _, _, t))| *t == tag) {
            return false;
        }
        self.cancelled[tag as usize] = true;
        self.live -= 1;
        true
    }

    fn pop(&mut self) -> Option<(Nanos, u32)> {
        while let Some(Reverse((at, _, _, tag))) = self.heap.pop() {
            if self.cancelled[tag as usize] {
                continue;
            }
            self.now = at;
            self.live -= 1;
            return Some((at, tag));
        }
        None
    }
}

/// One step of a random trace, decoded from a `(kind, offset, pick,
/// timer_offset)` tuple: kinds 0-1 schedule at `now + offset` (tiny
/// offsets force heavy timestamp collisions; offset 0 exercises the
/// same-instant FIFO lane), kind 2 schedules at a medium offset (the
/// clock jumps whole wheel slots ahead of parked timers, so the wheel's
/// horizon goes stale and same-instant/near-tick fallbacks get hit),
/// kind 3 arms a wheel timer at `now + timer_offset` (offsets up to
/// 2^30 ns span several wheel levels, so cascade boundaries and
/// cancel-after-cascade get exercised), kind 4 arms a wheel timer at the
/// tiny offset (the near-tick fallback path, colliding with slab events
/// on the same instant), kind 5 cancels the `pick`-th id issued so far
/// (live, popped, or already cancelled — all three outcomes must agree
/// across queues), kind 6 schedules a front-class event at
/// `now + offset + 1`, kinds 7-8 schedule on ordered stream `pick % 4`
/// at the tiny offset and kind 9 at the medium one (a stream's tail is
/// as often after the new time as before it, so appends, out-of-order
/// fallbacks, same-instant lane diversions and head refills at `now`
/// all occur), and kinds 10-13 pop the earliest live event from both
/// queues.
#[derive(Debug, Clone, Copy)]
enum Op {
    Schedule { offset: u64 },
    ScheduleTimer { offset: u64 },
    ScheduleFront { offset: u64 },
    ScheduleOrdered { offset: u64, stream: u32 },
    Cancel { pick: usize },
    Pop,
}

fn decode(kind: u8, offset: u64, pick: usize, timer_offset: u64) -> Op {
    let stream = (pick % 4) as u32;
    match kind {
        0..=1 => Op::Schedule { offset },
        2 => Op::Schedule {
            offset: timer_offset >> 4,
        },
        3 => Op::ScheduleTimer {
            offset: timer_offset,
        },
        4 => Op::ScheduleTimer { offset },
        5 => Op::Cancel { pick },
        6 => Op::ScheduleFront { offset: offset + 1 },
        7..=8 => Op::ScheduleOrdered { offset, stream },
        9 => Op::ScheduleOrdered {
            offset: timer_offset >> 4,
            stream,
        },
        _ => Op::Pop,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Identical pop order (FIFO-stable at equal timestamps), identical
    /// cancellation results, identical live counts — across arbitrary
    /// interleavings of schedule, timer-lane schedule, front-class
    /// schedule, ordered-stream schedule, cancel, and pop. The reference
    /// queue has no lane, wheel or streams: this is the proof that each is
    /// observationally identical to plain heap scheduling.
    #[test]
    fn slab_calendar_matches_the_reference_binary_heap(
        ops in proptest::collection::vec(
            (0u8..14, 0u64..6, 0usize..64, 0u64..(1u64 << 30)),
            1..400,
        )
    ) {
        let mut cal: Calendar<u32> = Calendar::new();
        let mut reference = ReferenceQueue::new();
        let mut ids: Vec<(EventId, u32)> = Vec::new();
        for (kind, offset, pick, timer_offset) in ops {
            match decode(kind, offset, pick, timer_offset) {
                Op::Schedule { offset } => {
                    let at = cal.now() + Nanos(offset);
                    let tag = reference.schedule(at);
                    let id = cal.schedule(at, tag);
                    ids.push((id, tag));
                }
                Op::ScheduleTimer { offset } => {
                    let at = cal.now() + Nanos(offset);
                    let tag = reference.schedule(at);
                    let id = cal.schedule_timer(at, tag);
                    ids.push((id, tag));
                }
                Op::ScheduleFront { offset } => {
                    let at = cal.now() + Nanos(offset);
                    let tag = reference.schedule_class(at, FRONT);
                    let id = cal.schedule_front(at, tag);
                    ids.push((id, tag));
                }
                Op::ScheduleOrdered { offset, stream } => {
                    // No handle: stream events cannot be cancelled.
                    let at = cal.now() + Nanos(offset);
                    let tag = reference.schedule(at);
                    cal.schedule_ordered(at, stream, tag);
                }
                Op::Cancel { pick } if !ids.is_empty() => {
                    let (id, tag) = ids[pick % ids.len()];
                    let got = cal.cancel(id);
                    let want = reference.cancel(tag);
                    prop_assert_eq!(
                        got.is_some(),
                        want,
                        "cancel diverged for tag {}", tag
                    );
                    if let Some(p) = got {
                        prop_assert_eq!(p, tag, "cancel returned the wrong payload");
                    }
                }
                Op::Cancel { .. } => {}
                Op::Pop => {
                    prop_assert_eq!(cal.pop(), reference.pop(), "pop order diverged");
                }
            }
            prop_assert_eq!(cal.len(), reference.live, "live counts diverged");
            prop_assert_eq!(cal.now(), reference.now, "clocks diverged");
        }
        // Drain both completely: the tails must match too.
        loop {
            let (a, b) = (cal.pop(), reference.pop());
            prop_assert_eq!(a, b, "drain order diverged");
            if a.is_none() {
                break;
            }
        }
    }

    /// With no cancellations at all, pop order is exactly the
    /// stable-by-insertion sort of the schedule times.
    #[test]
    fn pop_order_is_a_stable_sort_of_schedule_times(
        times in proptest::collection::vec(0u64..50, 1..200)
    ) {
        let mut cal: Calendar<usize> = Calendar::new();
        for (i, &t) in times.iter().enumerate() {
            cal.schedule(Nanos(t), i);
        }
        let mut expect: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        expect.sort_by_key(|&(t, i)| (t, i));
        let got: Vec<(u64, usize)> =
            std::iter::from_fn(|| cal.pop().map(|(at, i)| (at.as_nanos(), i))).collect();
        prop_assert_eq!(got, expect);
    }
}
