//! The slab-backed event calendar underneath [`crate::Engine`].
//!
//! Five structural choices keep the hot path allocation- and
//! comparison-light, replacing the original `BinaryHeap<Box<event>>`:
//!
//! * **Slab storage.** Payloads live in a slab (`Vec` of slots) and are
//!   referenced by `u32` handles; freed slots go on an intrusive freelist
//!   and are reused, so steady-state scheduling performs no allocation
//!   and the heap itself only moves 24-byte copyable keys around.
//! * **Cancellation tombstones.** [`Calendar::cancel`] frees the payload
//!   immediately and bumps the slot generation; the key already sitting
//!   in the heap is left behind as a tombstone and discarded lazily when
//!   it surfaces. Cancelling is O(1) instead of an O(n) heap rebuild or
//!   an O(log n) removal.
//! * **Same-timestamp batching.** An event scheduled for the *current*
//!   instant (the overwhelmingly common "immediately after this one"
//!   pattern, plus past-clamped events) bypasses the heap into a FIFO
//!   lane. Draining the lane costs no comparisons, and the keys never
//!   pay sift-up/sift-down traffic.
//! * **A hierarchical timing wheel for far timers.** Protocol timers
//!   (RTO, delayed ACK) are armed hundreds of milliseconds out and almost
//!   always cancelled before they fire; parking their keys in the heap
//!   makes every such tombstone pay an O(log n) sift when it finally
//!   surfaces. [`Calendar::schedule_timer`] parks the key in a
//!   power-of-two-span bucket instead — O(1) insert, O(1) cancel, and a
//!   cancelled key is reaped in bulk when its bucket expires, never
//!   touching the heap at all. Buckets cascade toward the heap as the
//!   clock approaches (see `surface`), so by the time an instant is
//!   popped every timer key for it has been merged into the heap and the
//!   observable order is unchanged.
//! * **Ordered streams for pipeline stages.** A FIFO server stamps its
//!   completions in nondecreasing time order, so the events it feeds
//!   already arrive sorted. [`Calendar::schedule_ordered`] appends such an
//!   event to a per-stream FIFO and only the stream's head key sits in the
//!   heap; when the head pops, the stream's next key is pushed. The heap
//!   then holds about one key per active stream instead of one per frame
//!   in flight (thousands on a long fat WAN pipe), and each sift is a few
//!   levels deep. The stream id lives in the slab slot, so `Key` stays 24
//!   bytes; in exchange stream events return no handle and cannot be
//!   cancelled.
//!
//! The observable order is **exactly** the strict `(time, seq)` order of
//! the original queue. The lane is sound because a key only enters it
//! while the clock already sits at its timestamp, so every heap key with
//! the same timestamp was scheduled earlier and holds a smaller `seq`:
//! draining heap keys at `now` before lane keys reproduces the global
//! sequence order. The wheel is sound because a bucket is flushed into
//! the heap no later than its span's start time, and the heap orders
//! flushed keys by `(time, seq)` regardless of when they arrive. Streams
//! are sound because a key joins a stream only when its `at` is at or
//! after the stream's tail (otherwise it falls back to the plain heap),
//! and every key keeps the `(at, seq)` it was given when scheduled: each
//! stream is therefore sorted, its head is its minimum, and the heap top
//! is the minimum over heap and streams alike — the same `(time, seq)`
//! merge, whatever times the caller passes. A same-instant ordered event
//! takes the lane like any other, so a stream key refilled into the heap
//! at `now` was scheduled before the clock reached `now` and rightly pops
//! ahead of the lane. The equivalence (including cancellation, cascade
//! boundaries and stream fallbacks) is pinned by property tests against
//! a reference heap in `crates/sim/tests/calendar_equivalence.rs`.

use crate::prof::CalendarCounters;
use crate::time::Nanos;
use std::collections::VecDeque;

/// Handle to a scheduled event, returned by the schedule calls and
/// accepted by [`Calendar::cancel`] (via `Engine::cancel`).
///
/// The generation makes handles ABA-safe: once the event fires or is
/// cancelled, the slot is recycled under a new generation and the old
/// handle turns inert (cancelling it is a no-op returning `None`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventId {
    slot: u32,
    gen: u32,
}

/// A heap/lane key: everything the ordering needs, nothing it does not.
/// 24 bytes and `Copy`, so sift operations move keys, not payloads.
#[derive(Debug, Clone, Copy)]
struct Key {
    at: Nanos,
    seq: u64,
    slot: u32,
    gen: u32,
}

impl Key {
    #[inline]
    fn before(&self, other: &Key) -> bool {
        (self.at, self.seq) < (other.at, other.seq)
    }
}

/// One slab slot: vacant slots chain through the freelist, occupied slots
/// own the payload and name the ordered stream their key belongs to
/// ([`NIL`] for a key scheduled outside any stream). Both carry the
/// slot's current generation.
#[derive(Debug)]
enum Slot<T> {
    Vacant { next_free: u32, gen: u32 },
    Occupied { payload: T, gen: u32, stream: u32 },
}

/// Freelist terminator, and the stream tag of a key outside any stream.
const NIL: u32 = u32::MAX;

/// One ordered stream ([`Calendar::schedule_ordered`]): its head key sits
/// in the heap, the keys behind it wait here in `(at, seq)` order.
#[derive(Debug, Default)]
struct Stream {
    /// Keys behind the head, oldest first.
    queued: VecDeque<Key>,
    /// `at` of the last key appended: the append guard.
    tail: Nanos,
    /// Whether the stream's head key is in the heap.
    active: bool,
}

/// Class bit composed into every key's sequence number. Normal events
/// carry it set; front-class events ([`Calendar::schedule_front`]) carry
/// it clear, so under the strict `(time, seq)` order every front-class
/// key at an instant precedes every normal key at that instant, while
/// keys within a class keep FIFO scheduling order among themselves.
const SEQ_NORMAL: u64 = 1 << 63;

// ---- timing-wheel geometry ----
//
// Level-0 ticks are `2^WHEEL_SHIFT` ns (≈65.5 µs) and every level packs
// `WHEEL_SLOTS` slots of the level below into one slot, so slot spans grow
// by powers of two: level 0 covers 4.2 ms, level 1 covers 268 ms (delayed
// ACKs), level 2 covers 17 s (RTOs), level 5 covers 52 days. Timers beyond
// the top level park in the farthest top slot and re-park when it expires.

/// log2 of the level-0 tick length in nanoseconds.
const WHEEL_SHIFT: u32 = 16;
/// log2 of the slots per level (64 slots ↔ one `u64` occupancy bitmap).
const WHEEL_LEVEL_BITS: u32 = 6;
/// Slots per level.
const WHEEL_SLOTS: usize = 1 << WHEEL_LEVEL_BITS;
/// Slots per level in the `u64` domain the tick arithmetic runs in,
/// derived from the same shift so no cast is involved.
const WHEEL_SLOTS_U64: u64 = 1 << WHEEL_LEVEL_BITS;
/// Mask extracting a bucket index from an absolute slot number.
const WHEEL_SLOT_MASK: u64 = WHEEL_SLOTS_U64 - 1;
/// Number of levels.
const WHEEL_LEVELS: usize = 6;

/// Widen a `u32` slab handle (or level count) to an indexing `usize`.
/// Checked so a hypothetical sub-32-bit target fails loudly rather than
/// silently truncating an index.
#[inline]
fn widen(v: u32) -> usize {
    usize::try_from(v).expect("u32 does not fit usize on this target")
}

/// Narrow an already-masked absolute slot number to a bucket index. The
/// caller guarantees `v < WHEEL_SLOTS`, so the conversion is exact.
#[inline]
fn bucket_index(v: u64) -> usize {
    debug_assert!(v < WHEEL_SLOTS_U64);
    usize::try_from(v).expect("masked slot number exceeds usize")
}

/// The bit shift selecting `level`'s absolute slot number from a tick.
#[inline]
fn level_shift(level: usize) -> u32 {
    WHEEL_LEVEL_BITS * u32::try_from(level).expect("wheel level exceeds u32")
}

/// A deterministic event calendar: a slab of payloads indexed by a binary
/// min-heap of `(time, seq)` keys, with a FIFO fast lane for events at the
/// current instant, a timing wheel for far timers, ordered streams for
/// FIFO-server completions, and O(1) tombstone cancellation.
#[derive(Debug)]
pub struct Calendar<T> {
    heap: Vec<Key>,
    /// Keys whose `at` equals the current time, in insertion (= seq) order.
    lane: VecDeque<Key>,
    slots: Vec<Slot<T>>,
    free_head: u32,
    now: Nanos,
    seq: u64,
    /// Scheduled-and-not-cancelled events (tombstones excluded).
    live: usize,
    /// Timing-wheel buckets, flat-indexed `level * WHEEL_SLOTS + bucket`.
    /// Empty until the first [`Calendar::schedule_timer`] call, so purely
    /// frame-clocked workloads never pay for the wheel.
    wheel: Vec<Vec<Key>>,
    /// Per-level occupancy bitmaps: bit `b` set ⇔ bucket `b` holds keys.
    wheel_occupied: [u64; WHEEL_LEVELS],
    /// Keys currently parked in wheel buckets, tombstones included.
    wheel_items: usize,
    /// Level-0 tick up to which wheel slots have been surfaced: no parked
    /// key's tick is `<=` this, and it only moves forward through expiry
    /// (or snaps under the clock while the wheel is empty).
    wheel_horizon: u64,
    /// Lower bound on the earliest parked key's timestamp (`u64::MAX`
    /// when the wheel is empty); lets `surface` bail in one compare.
    wheel_next_start: Nanos,
    /// Ordered streams, indexed by the caller's stream id. Grown on
    /// first use of an id.
    streams: Vec<Stream>,
    /// Self-profiling routing counters (see [`CalendarCounters`]):
    /// deterministic, but calendar-private — the slab/lane/wheel split
    /// depends on this calendar's own horizon history.
    prof: CalendarCounters,
}

impl<T> Default for Calendar<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Calendar<T> {
    /// An empty calendar at time zero.
    pub fn new() -> Self {
        Calendar {
            heap: Vec::new(),
            lane: VecDeque::new(),
            slots: Vec::new(),
            free_head: NIL,
            now: Nanos::ZERO,
            seq: 0,
            live: 0,
            wheel: Vec::new(),
            wheel_occupied: [0; WHEEL_LEVELS],
            wheel_items: 0,
            wheel_horizon: 0,
            wheel_next_start: Nanos(u64::MAX),
            streams: Vec::new(),
            prof: CalendarCounters::default(),
        }
    }

    /// Snapshot of the routing counters accumulated so far.
    #[inline]
    pub fn prof_counters(&self) -> CalendarCounters {
        self.prof
    }

    /// Current virtual time; advances only in [`Calendar::pop`] and
    /// [`Calendar::advance_now_to`].
    #[inline]
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Live (scheduled, not cancelled, not yet popped) events.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no live events remain.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Schedule `payload` at absolute time `at`, which the caller must
    /// have clamped to `at >= now`. Returns a handle for cancellation.
    pub fn schedule(&mut self, at: Nanos, payload: T) -> EventId {
        debug_assert!(at >= self.now, "calendar caller must clamp to now");
        let at = at.max(self.now);
        let seq = self.seq | SEQ_NORMAL;
        self.seq += 1;
        let (slot, gen) = self.insert(payload, NIL);
        let key = Key { at, seq, slot, gen };
        if at == self.now {
            // Fast lane: every heap key at this timestamp predates (and
            // outranks) every lane key, so FIFO order is (at, seq) order.
            self.lane.push_back(key);
            self.prof.sched_lane += 1;
            let depth = u64::try_from(self.lane.len()).expect("lane depth exceeds u64");
            self.prof.lane_hiwater = self.prof.lane_hiwater.max(depth);
        } else {
            self.heap_push(key);
            self.prof.sched_slab += 1;
        }
        self.live += 1;
        EventId { slot, gen }
    }

    /// Schedule `payload` at absolute time `at` through the timing-wheel
    /// lane. Semantically identical to [`Calendar::schedule`] — same
    /// `(time, seq)` pop order, same handle, same [`Calendar::cancel`] —
    /// but tuned for far-future timers that are usually cancelled before
    /// they fire: the key parks in a wheel bucket (O(1)) and a cancelled
    /// key is reaped when its bucket expires instead of paying heap
    /// sift traffic. Events at or near the current tick fall back to the
    /// heap/lane path.
    pub fn schedule_timer(&mut self, at: Nanos, payload: T) -> EventId {
        debug_assert!(at >= self.now, "calendar caller must clamp to now");
        let at = at.max(self.now);
        if self.wheel_items == 0 {
            // No parked key depends on the cursor: snap it under the
            // clock so level selection sees true distances.
            self.wheel_horizon = self.now.as_nanos() >> WHEEL_SHIFT;
        }
        let tick = at.as_nanos() >> WHEEL_SHIFT;
        if at == self.now || tick <= self.wheel_horizon {
            // Same-instant events must take the FIFO lane (a key parked
            // now would surface into the heap *after* older lane keys and
            // jump them), and the already-surfaced region may not re-park;
            // the heap/lane path is exact for both.
            self.prof.wheel_fallbacks += 1;
            return self.schedule(at, payload);
        }
        let seq = self.seq | SEQ_NORMAL;
        self.seq += 1;
        let (slot, gen) = self.insert(payload, NIL);
        self.wheel_park(Key { at, seq, slot, gen });
        self.live += 1;
        self.prof.wheel_parked += 1;
        EventId { slot, gen }
    }

    /// Schedule `payload` at strictly-future time `at` in the **front
    /// class**: at equal timestamps a front-class event fires before
    /// every normal event (whatever their scheduling order), while
    /// front-class events keep FIFO order among themselves. The sharded
    /// lab's ingress drain rides this so a merged arrival batch is
    /// applied before any normal event of the same instant, making the
    /// pop order independent of which shard scheduled what first.
    ///
    /// Strictly-future is load-bearing: a front key never has to enter
    /// the same-instant FIFO lane (where it would pop *after* older lane
    /// keys and break the class order), so it always goes to the heap.
    pub fn schedule_front(&mut self, at: Nanos, payload: T) -> EventId {
        assert!(at > self.now, "front-class events must be strictly future");
        let seq = self.seq;
        self.seq += 1;
        let (slot, gen) = self.insert(payload, NIL);
        self.heap_push(Key { at, seq, slot, gen });
        self.live += 1;
        EventId { slot, gen }
    }

    /// Schedule `payload` at absolute time `at` on ordered stream
    /// `stream`: same `(time, seq)` pop order as [`Calendar::schedule`],
    /// but when `at` is at or after the stream's last key the event joins
    /// the stream's FIFO instead of the heap, and only the stream's head
    /// key occupies a heap slot. Meant for the completions of one FIFO
    /// server, whose times never decrease; an earlier time is still
    /// exact, it just falls back to the heap (counted in
    /// [`CalendarCounters::ordered_fallbacks`]). A same-instant event
    /// takes the lane. Stream events return no handle: they cannot be
    /// cancelled. Stream ids index a dense table, so keep them small.
    pub fn schedule_ordered(&mut self, at: Nanos, stream: u32, payload: T) {
        debug_assert!(at >= self.now, "calendar caller must clamp to now");
        debug_assert!(stream != NIL, "stream id reserved for unstreamed keys");
        let at = at.max(self.now);
        if at == self.now {
            // A stream key refilled at `now` pops ahead of the lane, so a
            // same-instant event must take the lane itself.
            self.schedule(at, payload);
            return;
        }
        let s = widen(stream);
        if s >= self.streams.len() {
            self.streams.resize_with(s + 1, Stream::default);
        }
        let st = &self.streams[s];
        if st.active && at < st.tail {
            self.prof.ordered_fallbacks += 1;
            self.schedule(at, payload);
            return;
        }
        let seq = self.seq | SEQ_NORMAL;
        self.seq += 1;
        let (slot, gen) = self.insert(payload, stream);
        let key = Key { at, seq, slot, gen };
        let st = &mut self.streams[s];
        st.tail = at;
        if st.active {
            st.queued.push_back(key);
        } else {
            st.active = true;
            self.heap_push(key);
        }
        self.live += 1;
        self.prof.sched_ordered += 1;
    }

    /// Cancel a scheduled event, returning its payload if the handle was
    /// still live. The payload is freed now; the key left in the heap (or
    /// lane) becomes a tombstone discarded lazily on pop.
    pub fn cancel(&mut self, id: EventId) -> Option<T> {
        self.prof.cancels += 1;
        match self.slots.get(widen(id.slot)) {
            Some(Slot::Occupied { gen, stream, .. }) if *gen == id.gen => {
                debug_assert!(*stream == NIL, "a handle reached a stream key");
                let (payload, _) = self.remove(id.slot);
                self.live -= 1;
                self.prof.cancel_hits += 1;
                Some(payload)
            }
            _ => None,
        }
    }

    /// Timestamp of the earliest live event, without popping it.
    /// Tombstones encountered on the way are discarded.
    pub fn peek_time(&mut self) -> Option<Nanos> {
        loop {
            self.surface();
            if let Some(&top) = self.heap.first() {
                if top.at == self.now {
                    if self.is_live(top) {
                        return Some(top.at);
                    }
                    self.heap_pop();
                    continue;
                }
            }
            if let Some(&front) = self.lane.front() {
                if self.is_live(front) {
                    return Some(front.at);
                }
                self.lane.pop_front();
                continue;
            }
            let &top = self.heap.first()?;
            if self.is_live(top) {
                return Some(top.at);
            }
            self.heap_pop();
        }
    }

    /// Pop the earliest live event in strict `(time, seq)` order,
    /// advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Nanos, T)> {
        loop {
            // Wheel keys that could pop next must be in the heap first;
            // one branch when no timers are parked.
            self.surface();
            // Heap keys at the current instant precede the lane: they
            // were scheduled before the clock reached `now`, so their
            // seqs are smaller than any lane key's.
            if let Some(&top) = self.heap.first() {
                if top.at == self.now {
                    self.heap_pop();
                    if let Some(p) = self.take_live(top) {
                        return Some((top.at, p));
                    }
                    continue;
                }
            }
            if let Some(front) = self.lane.pop_front() {
                debug_assert!(front.at == self.now, "lane key left behind the clock");
                if let Some(p) = self.take_live(front) {
                    return Some((front.at, p));
                }
                continue;
            }
            // Lane drained: the earliest event (if any) sits atop the heap
            // strictly in the future; popping it advances the clock.
            let top = self.heap_pop()?;
            if let Some(p) = self.take_live(top) {
                debug_assert!(top.at >= self.now, "time went backwards");
                self.now = top.at;
                return Some((top.at, p));
            }
        }
    }

    /// Advance the clock without running events, e.g. to pin a measurement
    /// window edge. The caller must ensure no live event is earlier.
    pub fn advance_now_to(&mut self, at: Nanos) {
        debug_assert!(
            self.peek_time().map_or(true, |t| t >= at),
            "advancing the clock over a pending event"
        );
        if at > self.now {
            self.now = at;
        }
    }

    // ---- the timing wheel ----

    /// Park a key in the bucket whose span covers its distance from the
    /// horizon. Caller guarantees `tick(key.at) > wheel_horizon`.
    fn wheel_park(&mut self, key: Key) {
        if self.wheel.is_empty() {
            self.wheel = (0..WHEEL_LEVELS * WHEEL_SLOTS)
                .map(|_| Vec::new())
                .collect();
        }
        let tick = key.at.as_nanos() >> WHEEL_SHIFT;
        debug_assert!(tick > self.wheel_horizon, "parking under the horizon");
        let dist = tick - self.wheel_horizon;
        // floor(log2(dist)) / bits picks the level whose spans cover the
        // distance; beyond the top level, park in the farthest top slot
        // (the key re-parks strictly closer each time that slot expires).
        let mut level = widen((63 - dist.leading_zeros()) / WHEEL_LEVEL_BITS);
        // An unaligned horizon can put the natural level's slot index a
        // full ring ahead of the cursor, where it would alias the cursor
        // bucket; one level up the slot distance is exactly 1.
        if level < WHEEL_LEVELS {
            let shift = level_shift(level);
            if (tick >> shift) - (self.wheel_horizon >> shift) >= WHEEL_SLOTS_U64 {
                level += 1;
            }
        }
        let (level, bucket, start_tick) = if level < WHEEL_LEVELS {
            let shift = level_shift(level);
            let slot_abs = tick >> shift;
            (
                level,
                bucket_index(slot_abs & WHEEL_SLOT_MASK),
                slot_abs << shift,
            )
        } else {
            let top = WHEEL_LEVELS - 1;
            let shift = level_shift(top);
            let slot_abs = (self.wheel_horizon >> shift) + WHEEL_SLOT_MASK;
            (
                top,
                bucket_index(slot_abs & WHEEL_SLOT_MASK),
                slot_abs << shift,
            )
        };
        self.wheel[level * WHEEL_SLOTS + bucket].push(key);
        self.wheel_occupied[level] |= 1u64 << bucket;
        self.wheel_items += 1;
        // Slot starts are lower bounds on their keys' timestamps, so the
        // cache stays a sound lower bound.
        let start = Nanos(start_tick << WHEEL_SHIFT);
        if start < self.wheel_next_start {
            self.wheel_next_start = start;
        }
    }

    /// The occupied slot with the earliest span start, as
    /// `(level, bucket, start_tick)`. Starts are computed cursor-relative
    /// per level, which can only *under*estimate a stale slot's true
    /// start — flushing early is harmless, flushing late never happens.
    fn earliest_wheel_slot(&self) -> Option<(usize, usize, u64)> {
        let mut best: Option<(usize, usize, u64)> = None;
        for level in 0..WHEEL_LEVELS {
            let bits = self.wheel_occupied[level];
            if bits == 0 {
                continue;
            }
            let shift = level_shift(level);
            let cur = self.wheel_horizon >> shift;
            let rot = u32::try_from(cur & WHEEL_SLOT_MASK).expect("masked slot fits u32");
            let dist = u64::from(bits.rotate_right(rot).trailing_zeros());
            let slot_abs = cur + dist;
            if best.map_or(true, |(_, _, s)| (slot_abs << shift) < s) {
                best = Some((
                    level,
                    bucket_index(slot_abs & WHEEL_SLOT_MASK),
                    slot_abs << shift,
                ));
            }
        }
        best
    }

    /// Merge every wheel key that could precede the next heap/lane pop
    /// into the heap: expire occupied slots in span-start order until the
    /// earliest remaining span starts after the heap/lane front. Level-0
    /// slots flush straight to the heap; higher slots cascade their keys
    /// down a level (tombstones are reaped on the way, never sifted).
    #[inline]
    fn surface(&mut self) {
        if self.wheel_items > 0 {
            self.surface_slow();
        }
    }

    fn surface_slow(&mut self) {
        while self.wheel_items > 0 {
            // Wheel keys are strictly beyond `now`, so a non-empty lane
            // (keys *at* `now`) already bounds them out; otherwise the
            // heap top (even a tombstone — the loop in pop/peek clears it
            // and surfaces again) bounds the next pop time.
            let bound = if !self.lane.is_empty() {
                Some(self.now)
            } else {
                self.heap.first().map(|k| k.at)
            };
            if let Some(b) = bound {
                if self.wheel_next_start > b {
                    return;
                }
            }
            let Some((level, bucket, start_tick)) = self.earliest_wheel_slot() else {
                unreachable!("wheel_items > 0 with all bitmaps empty")
            };
            let start = Nanos(start_tick << WHEEL_SHIFT);
            self.wheel_next_start = start;
            if let Some(b) = bound {
                if start > b {
                    return;
                }
            }
            self.wheel_occupied[level] &= !(1u64 << bucket);
            let mut keys = std::mem::take(&mut self.wheel[level * WHEEL_SLOTS + bucket]);
            self.wheel_items -= keys.len();
            self.prof.wheel_cascades += 1;
            if start_tick > self.wheel_horizon {
                self.wheel_horizon = start_tick;
            }
            for key in keys.drain(..) {
                if !self.is_live(key) {
                    continue; // cancelled while parked: reaped in bulk
                }
                if key.at.as_nanos() >> WHEEL_SHIFT <= self.wheel_horizon {
                    self.heap_push(key);
                } else {
                    self.wheel_park(key);
                }
            }
            // Hand the drained vec back so the bucket keeps its capacity
            // (unless a cascading key re-parked into this very bucket).
            if self.wheel[level * WHEEL_SLOTS + bucket].is_empty() {
                self.wheel[level * WHEEL_SLOTS + bucket] = keys;
            }
        }
        self.wheel_next_start = Nanos(u64::MAX);
    }

    #[inline]
    fn is_live(&self, key: Key) -> bool {
        matches!(
            self.slots.get(widen(key.slot)),
            Some(Slot::Occupied { gen, .. }) if *gen == key.gen
        )
    }

    /// Remove the payload behind a popped `key` if the key is live (not a
    /// tombstone), recycling its slot. A stream head hands its heap slot
    /// to the next key of its stream.
    fn take_live(&mut self, key: Key) -> Option<T> {
        if !self.is_live(key) {
            return None;
        }
        let (p, stream) = self.remove(key.slot);
        self.live -= 1;
        if stream != NIL {
            let st = &mut self.streams[widen(stream)];
            match st.queued.pop_front() {
                Some(next) => self.heap_push(next),
                None => st.active = false,
            }
        }
        Some(p)
    }

    fn insert(&mut self, payload: T, stream: u32) -> (u32, u32) {
        if self.free_head != NIL {
            let slot = self.free_head;
            let s = &mut self.slots[widen(slot)];
            let Slot::Vacant { next_free, gen } = *s else {
                unreachable!("freelist points at an occupied slot")
            };
            self.free_head = next_free;
            *s = Slot::Occupied {
                payload,
                gen,
                stream,
            };
            (slot, gen)
        } else {
            assert!(
                self.slots.len() < widen(NIL),
                "calendar slab exhausted u32 handles"
            );
            let slot = u32::try_from(self.slots.len()).expect("guarded: len < u32::MAX");
            self.slots.push(Slot::Occupied {
                payload,
                gen: 0,
                stream,
            });
            (slot, 0)
        }
    }

    /// Free an occupied slot, bumping its generation so stale keys and
    /// handles go inert, and chain it onto the freelist. Returns the
    /// payload and the slot's stream tag.
    fn remove(&mut self, slot: u32) -> (T, u32) {
        let s = &mut self.slots[widen(slot)];
        let next = Slot::Vacant {
            next_free: self.free_head,
            gen: match s {
                Slot::Occupied { gen, .. } => gen.wrapping_add(1),
                Slot::Vacant { .. } => unreachable!("double free of a calendar slot"),
            },
        };
        let Slot::Occupied {
            payload, stream, ..
        } = std::mem::replace(s, next)
        else {
            unreachable!("checked occupied above")
        };
        self.free_head = slot;
        (payload, stream)
    }

    // ---- the key heap: a plain binary min-heap over `Key` ----

    fn heap_push(&mut self, key: Key) {
        self.heap.push(key);
        let depth = u64::try_from(self.heap.len()).expect("heap depth exceeds u64");
        self.prof.heap_hiwater = self.prof.heap_hiwater.max(depth);
        let mut i = self.heap.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i].before(&self.heap[parent]) {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn heap_pop(&mut self) -> Option<Key> {
        let last = self.heap.pop()?;
        if self.heap.is_empty() {
            return Some(last);
        }
        let top = std::mem::replace(&mut self.heap[0], last);
        // Sift the relocated tail down to its place.
        let len = self.heap.len();
        let mut i = 0;
        loop {
            let l = 2 * i + 1;
            if l >= len {
                break;
            }
            let r = l + 1;
            let child = if r < len && self.heap[r].before(&self.heap[l]) {
                r
            } else {
                l
            };
            if self.heap[child].before(&self.heap[i]) {
                self.heap.swap(i, child);
                i = child;
            } else {
                break;
            }
        }
        Some(top)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut c: Calendar<u32> = Calendar::new();
        c.schedule(Nanos(30), 3);
        c.schedule(Nanos(10), 1);
        c.schedule(Nanos(10), 2);
        c.schedule(Nanos(20), 9);
        assert_eq!(c.len(), 4);
        let order: Vec<u32> = std::iter::from_fn(|| c.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec![1, 2, 9, 3]);
        assert_eq!(c.now(), Nanos(30));
    }

    #[test]
    fn current_instant_uses_the_lane_and_keeps_global_order() {
        let mut c: Calendar<u32> = Calendar::new();
        c.schedule(Nanos(5), 1);
        c.schedule(Nanos(5), 2);
        let (at, p) = c.pop().expect("event pending");
        assert_eq!((at, p), (Nanos(5), 1));
        // Scheduled *at* the clock: lands in the lane, after key 2.
        c.schedule(Nanos(5), 3);
        assert!(!c.lane.is_empty(), "same-instant event must take the lane");
        assert_eq!(c.pop().map(|(_, p)| p), Some(2));
        assert_eq!(c.pop().map(|(_, p)| p), Some(3));
        assert_eq!(c.pop(), None);
    }

    #[test]
    fn cancel_frees_immediately_and_tombstones_the_key() {
        let mut c: Calendar<String> = Calendar::new();
        let a = c.schedule(Nanos(10), "a".to_string());
        c.schedule(Nanos(20), "b".to_string());
        assert_eq!(c.cancel(a), Some("a".to_string()));
        assert_eq!(c.len(), 1);
        // Double-cancel and cancel-after-pop are inert.
        assert_eq!(c.cancel(a), None);
        assert_eq!(c.pop(), Some((Nanos(20), "b".to_string())));
        assert_eq!(c.pop(), None);
        assert!(c.is_empty());
    }

    #[test]
    fn slots_are_reused_through_the_freelist() {
        let mut c: Calendar<u64> = Calendar::new();
        for round in 0..100u64 {
            let at = Nanos(round + 1);
            c.schedule(at, round);
            let (_, p) = c.pop().expect("just scheduled");
            assert_eq!(p, round);
        }
        assert_eq!(c.slots.len(), 1, "steady-state churn must reuse one slot");
    }

    #[test]
    fn stale_handle_after_reuse_does_not_cancel_the_new_tenant() {
        let mut c: Calendar<u32> = Calendar::new();
        let a = c.schedule(Nanos(10), 1);
        c.pop();
        // Slot reused under a new generation.
        let _b = c.schedule(Nanos(20), 2);
        assert_eq!(c.cancel(a), None, "old handle must be inert");
        assert_eq!(c.pop().map(|(_, p)| p), Some(2));
    }

    /// One level-0 tick in nanoseconds, for boundary arithmetic below.
    const TICK: u64 = 1 << WHEEL_SHIFT;

    #[test]
    fn wheel_timers_pop_in_global_time_seq_order() {
        let mut c: Calendar<u32> = Calendar::new();
        // Interleave slab events and wheel timers across cascade
        // boundaries: one tick, a level-0 wrap, a level-1 wrap, and a
        // same-timestamp collision between the two lanes.
        c.schedule(Nanos(3 * TICK), 1);
        c.schedule_timer(Nanos(3 * TICK), 2); // same instant, later seq
        c.schedule_timer(Nanos(TICK + 5), 3);
        c.schedule_timer(Nanos(64 * TICK), 4); // level-1 territory
        c.schedule_timer(Nanos(64 * 64 * TICK + 9), 5); // level-2 territory
        c.schedule(Nanos(2), 0);
        let got: Vec<u32> = std::iter::from_fn(|| c.pop().map(|(_, p)| p)).collect();
        assert_eq!(got, vec![0, 3, 1, 2, 4, 5]);
        assert!(c.is_empty());
    }

    #[test]
    fn cancelled_wheel_timer_rearmed_at_the_same_tick_preserves_fifo() {
        let mut c: Calendar<u32> = Calendar::new();
        let at = Nanos(7 * TICK + 3);
        c.schedule(at, 10); // slab event, seq 0
        let t = c.schedule_timer(at, 11); // timer, seq 1
        assert_eq!(c.cancel(t), Some(11));
        // Re-armed at the same tick: the fresh seq must order it after
        // the slab event and before anything scheduled later.
        c.schedule_timer(at, 12); // seq 2
        c.schedule(at, 13); // slab event, seq 3
        let got: Vec<u32> = std::iter::from_fn(|| c.pop().map(|(_, p)| p)).collect();
        assert_eq!(got, vec![10, 12, 13]);
    }

    #[test]
    fn cancel_after_cascade_still_returns_the_payload() {
        let mut c: Calendar<u32> = Calendar::new();
        // A timer two level-1 slots out, and a slab event between here
        // and there: popping the slab event forces the wheel to cascade
        // the timer's level-1 slot down to level 0 / the heap.
        let t = c.schedule_timer(Nanos(130 * TICK), 1);
        c.schedule(Nanos(129 * TICK), 2);
        assert_eq!(c.pop(), Some((Nanos(129 * TICK), 2)));
        assert_eq!(c.cancel(t), Some(1), "handle must survive the cascade");
        assert_eq!(c.pop(), None);
        assert!(c.is_empty());
    }

    #[test]
    fn timers_beyond_the_top_level_span_repark_and_still_fire_exactly() {
        let mut c: Calendar<u32> = Calendar::new();
        // ~104 days out: past the 52-day top-level span, so the key parks
        // in the farthest top slot and re-parks as the clock approaches.
        let far = Nanos(1 << 53);
        c.schedule_timer(far, 1);
        assert_eq!(c.peek_time(), Some(far));
        assert_eq!(c.pop(), Some((far, 1)));
        assert_eq!(c.now(), far);
    }

    #[test]
    fn cancelled_timers_never_reach_the_heap() {
        let mut c: Calendar<u32> = Calendar::new();
        // Arm-then-cancel churn, the RTO pattern: the heap must stay
        // empty the whole time — that is the point of the wheel lane.
        for i in 0..1000u32 {
            let id = c.schedule_timer(Nanos(3_000_000 + u64::from(i)), i);
            assert_eq!(c.cancel(id), Some(i));
        }
        assert!(c.heap.is_empty(), "parked tombstones must not hit the heap");
        assert!(c.is_empty());
        assert_eq!(c.pop(), None);
        assert_eq!(c.wheel_items, 0, "drain must reap every tombstone");
    }

    #[test]
    fn front_class_precedes_normals_at_the_same_instant() {
        let mut c: Calendar<u32> = Calendar::new();
        // Normals scheduled first, front key last — it still pops first
        // at its instant, and FIFO holds within each class.
        c.schedule(Nanos(10), 1);
        c.schedule(Nanos(10), 2);
        c.schedule_timer(Nanos(10), 3);
        c.schedule_front(Nanos(10), 100);
        c.schedule_front(Nanos(10), 101);
        c.schedule(Nanos(5), 0);
        let got: Vec<u32> = std::iter::from_fn(|| c.pop().map(|(_, p)| p)).collect();
        assert_eq!(got, vec![0, 100, 101, 1, 2, 3]);
        assert_eq!(c.now(), Nanos(10));
    }

    #[test]
    fn front_class_keys_can_be_cancelled() {
        let mut c: Calendar<u32> = Calendar::new();
        let f = c.schedule_front(Nanos(10), 7);
        c.schedule(Nanos(10), 8);
        assert_eq!(c.cancel(f), Some(7));
        assert_eq!(c.pop(), Some((Nanos(10), 8)));
        assert!(c.is_empty());
    }

    #[test]
    #[should_panic(expected = "strictly future")]
    fn front_class_rejects_the_current_instant() {
        let mut c: Calendar<u32> = Calendar::new();
        c.schedule(Nanos(5), 1);
        c.pop();
        c.schedule_front(Nanos(5), 2);
    }

    #[test]
    fn an_ordered_stream_keeps_one_heap_key() {
        let mut c: Calendar<u64> = Calendar::new();
        for i in 0..100u64 {
            c.schedule_ordered(Nanos(10 + i / 3), 7, i);
        }
        assert_eq!(c.heap.len(), 1, "only the stream head sits in the heap");
        assert_eq!(c.len(), 100);
        let got: Vec<u64> = std::iter::from_fn(|| c.pop().map(|(_, p)| p)).collect();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        let p = c.prof_counters();
        assert_eq!((p.sched_ordered, p.ordered_fallbacks), (100, 0));
        assert_eq!(p.heap_hiwater, 1);
    }

    #[test]
    fn an_out_of_order_append_falls_back_to_the_heap() {
        let mut c: Calendar<u32> = Calendar::new();
        c.schedule_ordered(Nanos(20), 0, 1);
        c.schedule_ordered(Nanos(10), 0, 2); // before the tail: heap
        c.schedule_ordered(Nanos(20), 0, 3); // at the tail: appended
        c.schedule_ordered(Nanos(15), 1, 4); // another stream's head
        assert_eq!(c.heap.len(), 3, "stream heads plus the fallback");
        let p = c.prof_counters();
        assert_eq!((p.sched_ordered, p.ordered_fallbacks), (3, 1));
        let got: Vec<(Nanos, u32)> = std::iter::from_fn(|| c.pop()).collect();
        assert_eq!(
            got,
            vec![
                (Nanos(10), 2),
                (Nanos(15), 4),
                (Nanos(20), 1),
                (Nanos(20), 3)
            ]
        );
        assert!(c.is_empty());
    }

    #[test]
    fn a_stream_head_refilled_at_now_pops_before_the_lane() {
        let mut c: Calendar<u32> = Calendar::new();
        c.schedule_ordered(Nanos(10), 3, 1);
        c.schedule_ordered(Nanos(10), 3, 2);
        assert_eq!(c.pop(), Some((Nanos(10), 1)));
        // Key 2 was refilled into the heap at `now`; these two are
        // scheduled later at the same instant, so they take the lane.
        c.schedule(Nanos(10), 3);
        c.schedule_ordered(Nanos(10), 3, 4);
        assert_eq!(c.lane.len(), 2, "same-instant schedules take the lane");
        let got: Vec<u32> = std::iter::from_fn(|| c.pop().map(|(_, p)| p)).collect();
        assert_eq!(got, vec![2, 3, 4]);
    }

    #[test]
    fn peek_time_skips_tombstones() {
        let mut c: Calendar<u32> = Calendar::new();
        let a = c.schedule(Nanos(10), 1);
        c.schedule(Nanos(30), 3);
        c.cancel(a);
        assert_eq!(c.peek_time(), Some(Nanos(30)));
        assert_eq!(c.pop().map(|(at, _)| at), Some(Nanos(30)));
        assert_eq!(c.peek_time(), None);
    }
}
