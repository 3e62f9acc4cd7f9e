//! Simulated time: the one place the engine waits (see "Simulated time" in
//! ARCHITECTURE.md). Every partition runs in this process, so network and
//! disk latency are modelled by waiting for a deadline on [`now_us`].
//!
//! * **Charged waits** ([`wait_until`], [`charge_latency_us`]): data-plane
//!   latency billed to the calling worker. Their sum *is* the measured
//!   transaction latency, so they must cost what they say at every size.
//!   `thread::sleep` returns 50–100 µs late, so the wait sleeps only while
//!   the time left exceeds this thread's *observed* sleep overshoot (nothing
//!   to tune, no size at which the mechanism switches) and busy-waits the
//!   rest, at most `MAX_SPIN_US`: a busier host gets a late return instead.
//! * **Event-driven waits** ([`park_until`], the bus mailbox receive):
//!   control-plane threads block until a deadline *or* a wake-up; they never
//!   spin or poll. A virtual clock (ROADMAP) replaces this module, not its
//!   callers.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Longest stretch a charged wait will busy-wait, microseconds.
const MAX_SPIN_US: u64 = 200;

thread_local! {
    /// How late this thread's recent sleeps returned, µs: jumps up at once,
    /// decays by 1/8 per sleep; the first sleep sets it.
    static SLEEP_OVERSHOOT_US: Cell<u64> = const { Cell::new(0) };
}

/// Monotonic microseconds since an arbitrary process-wide origin.
pub fn now_us() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    let origin = ORIGIN.get_or_init(Instant::now);
    origin.elapsed().as_micros() as u64
}

/// Block the calling thread until [`now_us`] reaches `deadline_us`: sleep
/// the coarse part, busy-wait the tail.
pub fn wait_until(deadline_us: u64) {
    loop {
        let now = now_us();
        if now >= deadline_us {
            return;
        }
        let overshoot = SLEEP_OVERSHOOT_US.get();
        let left = deadline_us - now;
        if left <= overshoot {
            break;
        }
        let ask = left - overshoot;
        std::thread::sleep(Duration::from_micros(ask));
        let late = now_us().saturating_sub(now + ask).min(MAX_SPIN_US);
        SLEEP_OVERSHOOT_US.set(if late >= overshoot {
            late
        } else {
            overshoot - (overshoot - late).div_ceil(8)
        });
    }
    while now_us() < deadline_us {
        std::hint::spin_loop();
    }
}

/// Block the calling thread for `us` microseconds of simulated latency.
pub fn charge_latency_us(us: u64) {
    if us > 0 {
        wait_until(now_us() + us);
    }
}

/// Park (no spinning) until `deadline_us`, or until `stop` is raised by
/// someone who then unparks this thread. `false` if stopped first.
pub fn park_until(deadline_us: u64, stop: &AtomicBool) -> bool {
    while !stop.load(Ordering::Acquire) {
        let now = now_us();
        if now >= deadline_us {
            return true;
        }
        std::thread::park_timeout(Duration::from_micros(deadline_us - now));
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_latency_waits_roughly_right() {
        for us in [100, 700] {
            let start = Instant::now();
            charge_latency_us(us);
            let el = start.elapsed();
            assert!(el >= Duration::from_micros(us - 5), "waited only {el:?}");
            assert!(el < Duration::from_millis(20), "waited far too long {el:?}");
        }
    }

    #[test]
    fn zero_latency_is_free() {
        let start = Instant::now();
        for _ in 0..1000 {
            charge_latency_us(0);
        }
        assert!(start.elapsed() < Duration::from_millis(5));
    }

    #[test]
    fn now_us_is_monotonic() {
        let a = now_us();
        charge_latency_us(10);
        assert!(now_us() >= a + 10);
    }

    #[test]
    fn passed_deadline_returns_at_once() {
        let start = Instant::now();
        for _ in 0..1000 {
            wait_until(now_us().saturating_sub(10));
        }
        assert!(start.elapsed() < Duration::from_millis(5));
    }

    #[test]
    fn park_until_honours_deadline_and_stop() {
        let stop = AtomicBool::new(false);
        let deadline = now_us() + 2_000;
        assert!(park_until(deadline, &stop));
        assert!(now_us() >= deadline);
        stop.store(true, Ordering::Release);
        let start = Instant::now();
        assert!(!park_until(now_us() + 5_000_000, &stop));
        assert!(start.elapsed() < Duration::from_millis(100));
    }
}
