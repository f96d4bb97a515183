//! Test harness over the deterministic fault-injection registry
//! (`stng_intern::guard::fault`). Only compiled with the `fault-inject`
//! feature — the injection *points* are always compiled in (and cost one
//! relaxed atomic load while disarmed), but the machinery to arm them
//! ships only to tests.
//!
//! The registry is process-global, so two tests arming different plans at
//! once would see each other's faults. [`armed`] therefore hands out an
//! RAII guard that holds a global lock for the duration of the chaos run
//! and disarms the registry on drop (including on panic/failed assert).
//! A test that reruns a batch without faults calls [`ChaosGuard::disarm`]
//! and keeps the guard: `run_batch` sweeps the global arenas, which is only
//! safe while no other chaos test is mid-lift, so the rerun must stay under
//! the lock.

use std::sync::{Mutex, MutexGuard};
use stng_intern::guard::fault::{self, FaultPlan, Injected};

static CHAOS_LOCK: Mutex<()> = Mutex::new(());

/// Holds the chaos lock with the registry armed; disarms on drop.
pub struct ChaosGuard {
    _lock: MutexGuard<'static, ()>,
}

impl ChaosGuard {
    /// Faults injected since this guard armed the registry.
    pub fn injected(&self) -> Injected {
        fault::injected()
    }

    /// Disarms the registry but keeps the chaos lock, so a fault-free rerun
    /// stays serialized against every other chaos run.
    pub fn disarm(&self) {
        fault::disarm();
    }
}

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        fault::disarm();
    }
}

/// Arms `plan` and returns the guard keeping it armed. Serializes against
/// every other chaos run in the process.
pub fn armed(plan: FaultPlan) -> ChaosGuard {
    // A previous test panicking while holding the lock poisons it; the
    // protected state (the registry) is reset by arm(), so recovery is safe.
    let lock = CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    fault::arm(plan);
    ChaosGuard { _lock: lock }
}
