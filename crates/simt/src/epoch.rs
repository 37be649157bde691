//! Epoch-based grace periods for deferred reclamation.
//!
//! Concurrent compaction unlinks slabs from live chains while other warps
//! may still be traversing them. The unlinked slab cannot be scrubbed and
//! returned to the allocator immediately: a racing reader that loaded the
//! predecessor's next-pointer *before* the unlink may still dereference it.
//! The classic answer is epoch-based reclamation, and the GPU analogue is
//! per-launch quiescence: a kernel launch pins the epoch it started in, and
//! memory retired at epoch `t` is reclaimable only once every pinned launch
//! started at an epoch ≥ `t` (it then provably started *after* the unlink
//! and can never have read the stale pointer).
//!
//! [`EpochClock`] is that clock: launches take an [`EpochPin`] (RAII) for
//! their duration, retirers tag retired memory with [`EpochClock::advance`]
//! *after* the unlink is published, and the reclaimer frees a tag `t`
//! entry once [`EpochClock::horizon`]` >= t`.
//!
//! Ordering: `advance` is a `SeqCst` fetch-add and `pin` a `SeqCst` load,
//! so a pin that observes epoch ≥ t happens-after the advance that produced
//! t, which itself happens-after the unlink CAS the retirer performed.
//!
//! Pins are counted per epoch, not registered one by one: the horizon only
//! needs the smallest pinned epoch, and the pin set's storage then grows
//! with the number of *distinct* epochs pinned at once — one in steady
//! state — rather than with how many warps happen to overlap. Warps pin on
//! every batch, so a steady-state batch loop stays allocation-free however
//! the executors interleave.
//!
//! [`EpochClock::quiesce`] is the exclusive counterpart: it holds the pin
//! registry's lock while no pin is live, so an owner can rewrite memory in
//! place (the paper's compacting FLUSH) while every new pin waits.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{Mutex, MutexGuard};

/// A monotonic epoch clock with registered pins (active launches).
#[derive(Debug, Default)]
pub struct EpochClock {
    /// The global epoch, advanced once per retirement batch.
    clock: AtomicU64,
    /// Active pins as `(epoch, count)` pairs, one per distinct pinned
    /// epoch. Entries leave by `swap_remove`, so the capacity is kept.
    pins: Mutex<Vec<(u64, usize)>>,
}

impl EpochClock {
    /// A fresh clock at epoch 0 with no pins.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current epoch.
    pub fn current(&self) -> u64 {
        self.clock.load(Ordering::SeqCst)
    }

    /// Advances the clock and returns the new epoch — the retirement tag
    /// for memory whose unlink was published *before* this call.
    pub fn advance(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Pins the current epoch for the duration of the returned guard
    /// (one pin per launch / traversal).
    pub fn pin(&self) -> EpochPin<'_> {
        let mut pins = self.pins.lock();
        // Load under the lock: a `horizon` call either sees this pin, or
        // ran entirely before the load, and so before this launch could
        // reach any memory it let go.
        let epoch = self.clock.load(Ordering::SeqCst);
        match pins.iter_mut().find(|(e, _)| *e == epoch) {
            Some((_, count)) => *count += 1,
            None => pins.push((epoch, 1)),
        }
        EpochPin { clock: self, epoch }
    }

    /// The reclamation horizon: the minimum epoch any active pin holds, or
    /// `u64::MAX` when nothing is pinned. Memory retired with tag `t` is
    /// safe to free iff `horizon() >= t`.
    pub fn horizon(&self) -> u64 {
        self.pins
            .lock()
            .iter()
            .map(|&(epoch, _)| epoch)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Number of active pins (in-flight launches).
    pub fn active_pins(&self) -> usize {
        self.pins.lock().iter().map(|&(_, count)| count).sum()
    }

    /// Claims a quiescent window: `Some` iff no pin is live, and while the
    /// returned guard lives every [`pin`](Self::pin) blocks. A pin either
    /// registered before this check (so it fails) or waits for the window
    /// to close, so nothing pinned can observe memory rewritten inside it.
    ///
    /// The holder must not call [`pin`](Self::pin), [`horizon`](Self::horizon)
    /// or [`active_pins`](Self::active_pins): they take the same lock.
    pub fn quiesce(&self) -> Option<Quiesced<'_>> {
        let pins = self.pins.lock();
        pins.is_empty().then_some(Quiesced { _pins: pins })
    }
}

/// A window with no live pin, held by [`EpochClock::quiesce`]; new pins
/// wait until it drops.
pub struct Quiesced<'c> {
    _pins: MutexGuard<'c, Vec<(u64, usize)>>,
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
    epoch: u64,
}

impl EpochPin<'_> {
    /// The epoch this pin holds.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl Drop for EpochPin<'_> {
    fn drop(&mut self) {
        let mut pins = self.clock.pins.lock();
        if let Some(i) = pins.iter().position(|&(e, _)| e == self.epoch) {
            pins[i].1 -= 1;
            if pins[i].1 == 0 {
                pins.swap_remove(i);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_clock_has_open_horizon() {
        let c = EpochClock::new();
        assert_eq!(c.current(), 0);
        assert_eq!(c.horizon(), u64::MAX, "no pins: everything reclaimable");
        assert_eq!(c.active_pins(), 0);
    }

    #[test]
    fn advance_is_monotonic_and_returns_new_epoch() {
        let c = EpochClock::new();
        assert_eq!(c.advance(), 1);
        assert_eq!(c.advance(), 2);
        assert_eq!(c.current(), 2);
    }

    #[test]
    fn pin_blocks_reclamation_of_later_retirements() {
        let c = EpochClock::new();
        let pin = c.pin(); // pinned at epoch 0
        assert_eq!(pin.epoch(), 0);
        let tag = c.advance(); // retire something at tag 1
        // The pinned launch started before the unlink: not reclaimable.
        assert!(c.horizon() < tag);
        drop(pin);
        assert!(c.horizon() >= tag, "pin released: reclaimable");
    }

    #[test]
    fn pin_taken_after_retirement_does_not_block_it() {
        let c = EpochClock::new();
        let tag = c.advance(); // tag 1, published before the pin below
        let _pin = c.pin(); // pinned at epoch 1: happens-after the unlink
        assert!(c.horizon() >= tag, "late pin cannot reach retired memory");
    }

    #[test]
    fn horizon_is_minimum_over_pins() {
        let c = EpochClock::new();
        let early = c.pin(); // epoch 0
        c.advance();
        let late = c.pin(); // epoch 1
        assert_eq!(c.horizon(), 0);
        assert_eq!(c.active_pins(), 2);
        drop(early);
        assert_eq!(c.horizon(), 1);
        drop(late);
        assert_eq!(c.horizon(), u64::MAX);
    }

    #[test]
    fn pins_at_one_epoch_share_an_entry() {
        let c = EpochClock::new();
        let pins: Vec<_> = (0..5).map(|_| c.pin()).collect();
        assert_eq!(c.active_pins(), 5);
        assert_eq!(c.pins.lock().len(), 1, "one distinct epoch, one entry");
        let cap = c.pins.lock().capacity();
        drop(pins);
        assert_eq!(c.active_pins(), 0);
        assert_eq!(c.horizon(), u64::MAX);
        // Overlapping pins at the same epoch never grow the storage.
        let more: Vec<_> = (0..64).map(|_| c.pin()).collect();
        assert_eq!(c.pins.lock().capacity(), cap);
        drop(more);
    }

    #[test]
    fn quiesce_fails_while_pinned_and_blocks_new_pins() {
        let c = EpochClock::new();
        let pin = c.pin();
        assert!(c.quiesce().is_none(), "a live pin refuses the window");
        drop(pin);
        let quiet = c.quiesce().expect("no pins: the window opens");
        let pinned = std::sync::atomic::AtomicBool::new(false);
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
        assert_eq!(c.active_pins(), 0);
    }

    #[test]
    fn pins_work_across_threads() {
        let c = EpochClock::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        let pin = c.pin();
                        let tag = c.advance();
                        assert!(pin.epoch() < tag);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        assert_eq!(c.active_pins(), 0);
        assert_eq!(c.current(), 8);
        assert_eq!(c.horizon(), u64::MAX);
    }
}
