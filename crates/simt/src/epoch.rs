//! Operation pins and the quiescent window.
//!
//! The paper runs FLUSH "as a separate kernel call so that no other thread
//! can perform an operation in those buckets". A host-side table has no
//! kernel boundary to lean on, so every operation holds an [`EpochPin`]
//! (RAII) on the table's [`EpochClock`] for its warp launch, and a
//! maintainer claims a window with none live through
//! [`EpochClock::quiesce`]. The clock is a live-pin count under one mutex:
//! the window holds that mutex, so every new pin waits until it closes.

use std::fmt;

use parking_lot::{Mutex, MutexGuard};

/// The live-pin count of one table: operations in flight.
#[derive(Debug, Default)]
pub struct EpochClock {
    pins: Mutex<usize>,
}

impl EpochClock {
    /// A clock with no pins.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pins the clock for the duration of the returned guard (one pin per
    /// launch / traversal). Waits while a [`Quiesced`] window is open.
    pub fn pin(&self) -> EpochPin<'_> {
        *self.pins.lock() += 1;
        EpochPin { clock: self }
    }

    /// Claims a quiescent window: `Some` iff no pin is live and no other
    /// window is open, and while the returned guard lives every
    /// [`pin`](Self::pin) blocks. A pin either registered before this check
    /// (so it fails) or waits for the window to close, so nothing pinned can
    /// observe memory rewritten inside it.
    ///
    /// Never blocks: it only tries the lock, so a second maintainer finds the
    /// window held and gets `None`, as does a caller that meets a pin being
    /// taken or dropped on another thread. The holder must not call
    /// [`pin`](Self::pin): it takes the same lock.
    pub fn quiesce(&self) -> Option<Quiesced<'_>> {
        let pins = self.pins.try_lock()?;
        if *pins == 0 {
            Some(Quiesced { _pins: pins })
        } else {
            None
        }
    }
}

/// A window with no live pin, held by [`EpochClock::quiesce`]; new pins
/// wait until it drops.
pub struct Quiesced<'c> {
    _pins: MutexGuard<'c, usize>,
}

impl fmt::Debug for Quiesced<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Quiesced")
    }
}

/// RAII pin on an [`EpochClock`]; dropped when the launch completes.
#[derive(Debug)]
pub struct EpochPin<'c> {
    clock: &'c EpochClock,
}

impl Drop for EpochPin<'_> {
    fn drop(&mut self) {
        *self.clock.pins.lock() -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn every_pin_must_drop_before_the_window_opens() {
        let c = EpochClock::new();
        let mut pins: Vec<_> = (0..5).map(|_| c.pin()).collect();
        while let Some(pin) = pins.pop() {
            assert!(c.quiesce().is_none(), "{} pins still live", pins.len() + 1);
            drop(pin);
        }
        assert!(c.quiesce().is_some());
    }

    #[test]
    fn quiesce_fails_while_pinned_and_blocks_new_pins() {
        let c = EpochClock::new();
        let pin = c.pin();
        assert!(c.quiesce().is_none(), "a live pin refuses the window");
        drop(pin);
        let quiet = c.quiesce().expect("no pins: the window opens");
        let pinned = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _pin = c.pin();
                pinned.store(true, Ordering::SeqCst);
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(!pinned.load(Ordering::SeqCst), "pin ran inside the window");
            drop(quiet);
        });
        assert!(pinned.load(Ordering::SeqCst));
        assert!(c.quiesce().is_some());
    }

    #[test]
    fn a_held_window_refuses_a_second_quiesce() {
        let c = EpochClock::new();
        let quiet = c.quiesce().expect("no pins: the window opens");
        assert!(c.quiesce().is_none(), "two windows at once");
        drop(quiet);
        assert!(c.quiesce().is_some());
    }

    #[test]
    fn pins_work_across_threads() {
        let c = EpochClock::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let _pin = c.pin();
                    assert!(c.quiesce().is_none());
                });
            }
        });
        assert!(c.quiesce().is_some());
    }
}
