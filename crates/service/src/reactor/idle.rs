//! How an idle reactor waits on a wall-driven simulated device.
//!
//! The reactor polls a virtual-time device with the wall clock, so a
//! modeled completion is delivered only once the wall clock passes its
//! timestamp. Waking up late can delay it, and with it the reads it
//! triggers — unless the device is backlogged: a read submitted before
//! the earliest die frees starts exactly when that die frees, whenever
//! it was submitted ([`Device::next_free_time`]). So the reactor waits
//! one of two ways ([`idle_wait`]):
//!
//! * every die booked past the target plus [`WAKE_MARGIN`] → one plain
//!   `thread::sleep` ([`Wait::Sleep`]): a wake-up up to the margin late
//!   moves no read's modeled start or finish, and the core is free;
//! * otherwise → [`sleep_until`] the target ([`Wait::Until`]): a coarse
//!   sleep to the margin, then yielding passes, exact to a few µs.
//!
//! Both are exact only while the thread wakes up less than the margin
//! late, which is the usual case but not the tail (see [`WAKE_MARGIN`]).
//!
//! [`Device::next_free_time`]: e2lsh_storage::device::Device::next_free_time

use std::time::{Duration, Instant};

/// How late a sleeping thread may wake up: the lead [`sleep_until`]'s
/// coarse sleep keeps before its target, and the backlog past the target
/// a plain sleep needs. It covers the usual wake-up, not the tail:
/// 50–250 µs `thread::sleep`s on a 2-vCPU x86-64 Linux VM woke up 57 µs
/// late at the median, 94–98 µs at p99 and 1.4–2.3 ms at the maximum
/// while the VM was idle, and 0.6–0.9 ms at p99 and 3.4–4.4 ms at the
/// maximum on a busier one. A wake-up later than the margin can delay a
/// read after either wait: past the backlog of a plain sleep, or past
/// the target of the coarse sleep in [`sleep_until`].
pub(super) const WAKE_MARGIN: f64 = 200e-6;

/// How long a reactor with free slots will block on other event sources
/// before re-checking the job queue for admittable work.
pub(super) const ADMIT_CHECK_S: f64 = 500e-6;

/// How an idle reactor waits for its next device event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(super) enum Wait {
    /// One plain sleep of this length: the device is backlogged past
    /// the target, so waking up late delays no read.
    Sleep(Duration),
    /// [`sleep_until`] this epoch-relative time: exact.
    Until(f64),
}

/// The wait for a reactor idle at `now` whose device next completes at
/// `next_completion` and next frees a die at `next_free` (`None`: the
/// device cannot say). With `free_slots`, the target is capped at
/// [`ADMIT_CHECK_S`] from now so queued jobs are admitted promptly.
pub(super) fn idle_wait(
    now: f64,
    next_completion: f64,
    next_free: Option<f64>,
    free_slots: bool,
) -> Wait {
    let cap = if free_slots {
        now + ADMIT_CHECK_S
    } else {
        f64::INFINITY
    };
    let target = next_completion.min(cap);
    match next_free {
        Some(free) if free >= target + WAKE_MARGIN => {
            Wait::Sleep(Duration::from_secs_f64((target - now).max(0.0)))
        }
        _ => Wait::Until(target),
    }
}

/// Sleep (coarsely, then yielding) until `epoch + t`. The final window
/// yields the core each pass instead of pure spinning: on an
/// oversubscribed machine a spin here can starve the very thread whose
/// progress it is waiting on.
pub(crate) fn sleep_until(epoch: Instant, t: f64) {
    loop {
        let now = epoch.elapsed().as_secs_f64();
        let rem = t - now;
        if rem <= 0.0 {
            return;
        }
        // A coarse sleep is worth it only when it is 100 µs or more.
        if rem > WAKE_MARGIN + 100e-6 {
            std::thread::sleep(Duration::from_secs_f64(rem - WAKE_MARGIN));
        } else {
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const US: f64 = 1e-6;

    fn sleep_to(now: f64, t: f64) -> Wait {
        Wait::Sleep(Duration::from_secs_f64(t - now))
    }

    #[test]
    fn backlogged_device_gets_a_plain_sleep() {
        // Next completion in 100 µs; no die frees before 400 µs.
        let (now, t) = (1.0, 1.0 + 100.0 * US);
        assert_eq!(
            idle_wait(now, t, Some(1.0 + 400.0 * US), false),
            sleep_to(now, t)
        );
        // Booked exactly to the target plus the margin still suffices.
        assert_eq!(
            idle_wait(now, t, Some(t + WAKE_MARGIN), false),
            sleep_to(now, t)
        );
    }

    #[test]
    fn a_die_freeing_inside_the_margin_keeps_the_exact_wait() {
        let t = 100.0 * US;
        assert_eq!(idle_wait(0.0, t, Some(250.0 * US), false), Wait::Until(t));
        // An idle die (free in the past) too.
        assert_eq!(idle_wait(0.0, t, Some(0.0), false), Wait::Until(t));
    }

    #[test]
    fn free_slots_cap_both_waits() {
        let (now, far) = (2.0, 2.0 + 5e-3);
        let cap = now + ADMIT_CHECK_S;
        // Backlogged past the cap plus the margin: sleep to the cap.
        assert_eq!(idle_wait(now, far, Some(far), true), sleep_to(now, cap));
        // A die frees just after the cap: exact wait to the cap.
        assert_eq!(
            idle_wait(now, far, Some(cap + 50.0 * US), true),
            Wait::Until(cap)
        );
        // A completion before the cap is the target itself.
        let near = now + 100.0 * US;
        assert_eq!(idle_wait(now, near, None, true), Wait::Until(near));
    }

    #[test]
    fn a_device_without_die_times_waits_exactly() {
        let t = 3.0 + 100.0 * US;
        assert_eq!(idle_wait(3.0, t, None, false), Wait::Until(t));
        assert_eq!(
            idle_wait(3.0, 9.0, None, true),
            Wait::Until(3.0 + ADMIT_CHECK_S)
        );
    }

    #[test]
    fn a_target_already_past_sleeps_zero() {
        assert_eq!(
            idle_wait(1.0, 0.5, Some(2.0), false),
            Wait::Sleep(Duration::ZERO)
        );
    }
}
