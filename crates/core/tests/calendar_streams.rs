//! The lab's pipeline events ride the calendar's ordered streams: on the
//! Internet2 record path, where tens of megabytes are in flight, the
//! binary heap holds about one key per FIFO server instead of one per
//! frame, and every stage's completions arrive in stream order.

use tengig::experiments::wan::wan_lab_seeded;
use tengig::lab;
use tengig_net::WanSpec;

/// Events of the window: enough to reach thousands of frames in flight
/// on the 180 ms path, few enough to stay quick in a debug build.
const WINDOW_EVENTS: u64 = 100_000;

#[test]
fn wan_record_heap_holds_one_key_per_stream_not_per_frame() {
    let (mut lab, mut eng) = wan_lab_seeded(&WanSpec::record_run(), None, 2003);
    lab::kick(&mut lab, &mut eng);
    while eng.executed() < WINDOW_EVENTS && eng.step(&mut lab) {}
    assert_eq!(eng.executed(), WINDOW_EVENTS, "the stream ended early");
    let c = eng.calendar_counters();
    assert!(
        eng.pending() > 1_000,
        "the window must end with thousands of events pending, got {}",
        eng.pending()
    );
    assert!(c.sched_ordered > WINDOW_EVENTS / 2, "{c:?}");
    assert_eq!(c.ordered_fallbacks, 0, "{c:?}");
    assert!(c.heap_hiwater <= 32, "{c:?}");
}
