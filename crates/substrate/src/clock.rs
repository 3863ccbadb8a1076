//! The timer driver behind a real-I/O realization.
//!
//! The simulator *is* its own clock — virtual time advances exactly to
//! the next scheduled event. A real substrate has no such luxury: time
//! passes whether the process is ready or not, and "sleep until the
//! next TCP retransmit timer" must become an actual OS wait — one that
//! a frame arriving from the OS can cut short. [`Clock`] is that seam.
//! [`WallClock`] is the production driver: monotonic OS time mapped to
//! the architecture's microsecond [`Instant`]s, and a sleep that is
//! `thread::park_timeout`, so whoever holds the sleeping thread's
//! handle ends the sleep with `unpark` (the tunnels' reader threads
//! do, see [`crate::real::Doorbell`]). There is no polling slice: an
//! idle node sleeps to its next timer, however far away.
//! [`TestClock`] advances instantly so unit tests of the real
//! backend's event loop never actually wait.

use catenet_sim::Instant;

/// A source of time plus the ability to wait for it to pass.
///
/// Instants are catenet instants: microseconds since the clock's epoch
/// (process start for [`WallClock`]), the same representation virtual
/// time uses, so `Node` and the TCP RTO machinery are oblivious to
/// which realization is driving them.
pub trait Clock: Send {
    /// Microseconds elapsed since this clock's epoch.
    fn now(&self) -> Instant;

    /// Block until roughly `deadline`, or return early if woken (a
    /// waiting clock's sleep ends when the sleeping thread is
    /// unparked). Callers must re-check [`Clock::now`] and loop.
    fn sleep_until(&mut self, deadline: Instant);

    /// Whether [`Clock::sleep_until`] lets real time pass. Another
    /// thread can hand work to a sleeper only then: a clock that jumps
    /// to its deadline is seconds ahead while a datagram is still
    /// between the kernel and that thread, so a substrate under such a
    /// clock must do its own I/O, inline.
    fn waits(&self) -> bool {
        true
    }
}

/// Monotonic wall-clock time, the real-I/O driver.
pub struct WallClock {
    epoch: std::time::Instant,
}

impl WallClock {
    /// A wall clock whose epoch is "now".
    pub fn new() -> WallClock {
        WallClock {
            epoch: std::time::Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> WallClock {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> Instant {
        Instant::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    fn sleep_until(&mut self, deadline: Instant) {
        let now = self.now();
        if deadline <= now {
            return;
        }
        // An `unpark` that came before this call left a token, and the
        // park returns at once: a waker never has to know whether the
        // sleeper got here yet.
        let remaining = deadline.duration_since(now).total_micros();
        std::thread::park_timeout(std::time::Duration::from_micros(remaining));
    }
}

/// A clock that never waits: `sleep_until` jumps straight to the
/// deadline. Lets tests drive [`crate::real::RealSubstrate`]'s event
/// loop through hours of protocol time in milliseconds of test time
/// (sockets are still real, but on loopback delivery is immediate).
pub struct TestClock {
    now: Instant,
}

impl TestClock {
    /// A test clock starting at 0.
    pub fn new() -> TestClock {
        TestClock { now: Instant::ZERO }
    }
}

impl Default for TestClock {
    fn default() -> TestClock {
        TestClock::new()
    }
}

impl Clock for TestClock {
    fn now(&self) -> Instant {
        self.now
    }

    fn sleep_until(&mut self, deadline: Instant) {
        if deadline > self.now {
            self.now = deadline;
        }
    }

    fn waits(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catenet_sim::Duration;

    #[test]
    fn wall_clock_is_monotonic_and_advances() {
        let mut clock = WallClock::new();
        let a = clock.now();
        let deadline = a + Duration::from_millis(2);
        // A park may return early (a stale token, a spurious wake):
        // loop, as every caller must.
        while clock.now() < deadline {
            clock.sleep_until(deadline);
        }
        assert!(clock.now() >= deadline);
        assert!(clock.waits());
    }

    #[test]
    fn wall_clock_sleep_ends_at_an_unpark() {
        let sleeper = std::thread::current();
        let (asleep_tx, asleep_rx) = std::sync::mpsc::channel();
        let waker = std::thread::spawn(move || {
            asleep_rx.recv().expect("the sleeper announces itself");
            sleeper.unpark();
        });
        let mut clock = WallClock::new();
        let start = clock.now();
        asleep_tx.send(()).expect("the waker is listening");
        // Whether the unpark lands before or during the park, an hour's
        // sleep is over in well under a second.
        clock.sleep_until(start + Duration::from_secs(3600));
        assert!(clock.now() < start + Duration::from_secs(1));
        waker.join().expect("waker thread");
    }

    #[test]
    fn test_clock_jumps() {
        let mut clock = TestClock::new();
        clock.sleep_until(Instant::from_secs(100));
        assert_eq!(clock.now(), Instant::from_secs(100));
        clock.sleep_until(Instant::from_secs(50)); // never goes back
        assert_eq!(clock.now(), Instant::from_secs(100));
        assert!(!clock.waits());
    }
}
