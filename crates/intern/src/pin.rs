//! Lift pins and quiescent sweeps. Every lift holds a [`Pin`]; [`sweep`]
//! stops new first pins, waits until no pin is live, and only then hands
//! out the [`Quiescent`] token that `ConsSet::clear` and `Memo::clear`
//! demand. So no table is cleared while a handle from before the sweep may
//! still meet one interned after it.
//!
//! Only a thread's first pin registers or waits; nested pins, and pins on
//! the helper threads [`parallel`](crate::parallel) spawns for a pinned
//! thread, never wait, so a lift cannot block on a sweep waiting for it.

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

struct State {
    /// Threads holding a first pin.
    live: usize,
    /// A sweep is waiting for `live` to reach 0, or clearing.
    sweeping: bool,
    /// Completed sweeps plus one.
    generation: u64,
}

static STATE: Mutex<State> = Mutex::new(State {
    live: 0,
    sweeping: false,
    generation: 1,
});
static CHANGED: Condvar = Condvar::new();

thread_local! {
    /// Pins held by this thread, plus one inherited from a pinned spawner.
    static DEPTH: Cell<usize> = const { Cell::new(0) };
}

fn state() -> MutexGuard<'static, State> {
    STATE.lock().unwrap_or_else(PoisonError::into_inner)
}

fn wait_while(
    guard: MutexGuard<'static, State>,
    blocked: impl FnMut(&mut State) -> bool,
) -> MutexGuard<'static, State> {
    CHANGED
        .wait_while(guard, blocked)
        .unwrap_or_else(PoisonError::into_inner)
}

/// Holds off sweeps while alive. Not `Send`: a pin belongs to the thread
/// whose lift it covers.
#[must_use = "a pin only protects the scope it is held in"]
pub struct Pin {
    _thread_bound: PhantomData<*const ()>,
}

/// Pins the calling thread until the returned guard drops. A thread's first
/// pin waits while a sweep is pending; nested pins return at once.
pub fn pin() -> Pin {
    let depth = DEPTH.get();
    if depth == 0 {
        wait_while(state(), |st| st.sweeping).live += 1;
    }
    DEPTH.set(depth + 1);
    Pin {
        _thread_bound: PhantomData,
    }
}

impl Drop for Pin {
    fn drop(&mut self) {
        let depth = DEPTH.get() - 1;
        DEPTH.set(depth);
        if depth == 0 {
            let mut st = state();
            st.live -= 1;
            if st.live == 0 {
                CHANGED.notify_all();
            }
        }
    }
}

/// Proof that no pin is live: only [`sweep`] constructs one.
pub struct Quiescent {
    _private: (),
}

/// Stops new first pins, waits until no pin is live, and runs `clear` with
/// the [`Quiescent`] token. Returns the new sweep generation (2 after the
/// first sweep of the process) and `clear`'s result.
///
/// # Panics
///
/// When the calling thread holds a pin: the sweep would wait for itself.
pub fn sweep<R>(clear: impl FnOnce(&Quiescent) -> R) -> (u64, R) {
    assert!(
        DEPTH.get() == 0,
        "stng_intern::sweep called on a thread that holds a lift pin; \
         sweep between lifts, never inside one"
    );
    let mut st = wait_while(state(), |st| st.sweeping);
    st.sweeping = true;
    // Re-admits pins even if `clear` panics.
    struct Reopen(MutexGuard<'static, State>);
    impl Drop for Reopen {
        fn drop(&mut self) {
            self.0.sweeping = false;
            CHANGED.notify_all();
        }
    }
    let mut reopen = Reopen(wait_while(st, |st| st.live > 0));
    let out = clear(&Quiescent { _private: () });
    reopen.0.generation += 1;
    (reopen.0.generation, out)
}

/// Whether the calling thread holds (or inherited) a pin.
pub(crate) fn held() -> bool {
    DEPTH.get() > 0
}

/// Called first thing on a fresh scoped helper thread with [`held`] read
/// on its spawner: the spawner's pin outlives the helper, so the helper's
/// pins nest in it.
pub(crate) fn inherit(pinned: bool) {
    DEPTH.set(pinned as usize);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc;

    /// Spins until a sweep has closed the gate to first pins, or `sweeper`
    /// has already finished.
    fn until_pending<T>(sweeper: &std::thread::JoinHandle<T>) {
        while !state().sweeping && !sweeper.is_finished() {
            std::thread::yield_now();
        }
    }

    #[test]
    fn nested_pins_do_not_block_a_pending_sweep_or_each_other() {
        let outer = pin();
        let sweeper = std::thread::spawn(|| sweep(|_| ()).0);
        // The outer pin keeps the sweep pending; a nested pin must pass it.
        until_pending(&sweeper);
        drop(pin());
        assert!(held());
        drop(outer);
        assert!(!held());
        assert!(sweeper.join().unwrap() >= 2);
    }

    #[test]
    fn a_sweep_waits_for_a_pin_held_on_another_thread() {
        let (pinned_tx, pinned_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let released = std::sync::Arc::new(AtomicBool::new(false));
        let flag = released.clone();
        let lifter = std::thread::spawn(move || {
            let _pin = pin();
            pinned_tx.send(()).unwrap();
            release_rx.recv().unwrap();
            flag.store(true, Ordering::SeqCst);
        });
        pinned_rx.recv().unwrap();
        let sweeper = std::thread::spawn(move || sweep(|_| released.load(Ordering::SeqCst)).1);
        until_pending(&sweeper);
        release_tx.send(()).unwrap();
        assert!(
            sweeper.join().unwrap(),
            "the sweep cleared while the other thread was still pinned"
        );
        lifter.join().unwrap();
    }

    #[test]
    fn a_sweep_from_a_pinned_thread_panics_instead_of_deadlocking() {
        let _pin = pin();
        let caught = std::panic::catch_unwind(|| sweep(|_| ()))
            .expect_err("sweeping under a pin must panic");
        let message = caught
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| caught.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(message.contains("holds a lift pin"), "{message}");
    }

    #[test]
    fn helpers_of_a_pinned_thread_pin_without_waiting() {
        let outer = pin();
        let sweeper = std::thread::spawn(|| sweep(|_| ()));
        until_pending(&sweeper);
        let (a, b) = crate::parallel::join(2, || drop(pin()), || drop(pin()));
        assert_eq!((a, b), ((), ()));
        let doubled = crate::parallel::map(&[1, 2, 3], 2, |x| {
            let _pin = pin();
            x * 2
        });
        assert_eq!(doubled, vec![2, 4, 6]);
        drop(outer);
        sweeper.join().unwrap();
    }
}
