//! Host-speed calibration.
//!
//! On a shared host the speed of a core drifts by a third or more over
//! minutes as other tenants come and go, and every host-time reading
//! drifts with it. The benchmark therefore runs this fixed kernel before
//! every repeat and scales its host times by how fast the kernel ran: a
//! reading is reported as the seconds it would have taken on the
//! reference host, where the kernel takes [`REFERENCE_S`]. The kernel
//! shares no code with the simulator, so a change to the simulator moves
//! the scaled time exactly as it moves the raw one.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Host seconds of one [`kernel`] run on the reference host (a 2-vCPU
/// Xeon VM, unloaded).
pub const REFERENCE_S: f64 = 0.0325;

/// A small discrete-event loop like the simulator's hot path: a binary
/// heap of timed events, a branch on state, and scattered updates to a
/// 512 KiB table. About 33 ms on the reference host.
pub fn kernel() {
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    let mut state = vec![0u64; 1 << 16];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let next = |x: &mut u64| {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    };
    for id in 0..4096u32 {
        heap.push(Reverse((next(&mut x) % 1_000_000, id)));
    }
    for _ in 0..400_000 {
        let Some(Reverse((t, id))) = heap.pop() else {
            break;
        };
        let r = next(&mut x);
        let slot = (r as usize) & (state.len() - 1);
        state[slot] = state[slot].wrapping_add(t ^ u64::from(id));
        if state[slot] & 1 == 0 {
            x = x.rotate_left(3);
        }
        heap.push(Reverse((t + 1 + r % 5000, id)));
    }
    std::hint::black_box(&state);
}
