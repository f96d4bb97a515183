//! Resource governance for the lifting engines.
//!
//! The three unbounded searches in the pipeline — the CEGIS candidate loop,
//! the Fourier–Motzkin case-split prover, and the compiled bounded checker —
//! are each individually terminating in the common case but have no shared
//! notion of "this kernel has used up its slice". A [`Budget`] is a cheaply
//! clonable token carrying up to three limits:
//!
//! * a **wall-clock deadline** (checked with `Instant::now`, so only polled
//!   at coarse-grained points: prover attempts, capture units, and quantifier
//!   back-edges every few hundred points),
//! * a **prover-attempt budget** — a counter decremented once per
//!   `ProofSession` attempt across every candidate of a kernel,
//! * **bounded-check fuel** — an abstract counter decremented by the bounded
//!   checker (capture steps, per-state VC checks, quantifier points).
//!
//! The counters are deterministic; only the deadline depends on the clock.
//! Determinism tests therefore pin behaviour with counter budgets and a
//! single worker thread.
//!
//! A budget never *stops* anything by itself — engines poll it cooperatively
//! and bail out with a soft failure. The first limit to trip is recorded as a
//! [`DegradeReason`] and stays visible via [`Budget::exhausted`], so the
//! synthesis driver can distinguish "prover ran out of attempts, fall back to
//! bounded validation" from "deadline passed, report a timeout".
//!
//! Budgets nest: a per-kernel budget created with [`Budget::child`] also
//! consumes from (and observes the trip state of) the batch-wide budget, so a
//! global `--deadline-ms` cuts every kernel short no matter what its local
//! slice says.
//!
//! The [`fault`] submodule is the deterministic fault-injection registry used
//! by the chaos harness. It is always compiled (a single relaxed atomic load
//! when disarmed, i.e. always in production) so that injection points do not
//! need cross-crate cargo features; only the harness that *arms* it lives
//! behind the `fault-inject` feature of `stng-service`.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a budget stopped the work it governed. The first limit to trip wins
/// and is sticky for the lifetime of the budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// The wall-clock deadline passed.
    Deadline,
    /// The kernel-level pool of prover attempts ran dry.
    ProverAttempts,
    /// The bounded-checking fuel counter ran dry.
    CheckFuel,
    /// The budget was cancelled explicitly (e.g. another worker crashed).
    Cancelled,
}

impl DegradeReason {
    pub fn as_str(self) -> &'static str {
        match self {
            DegradeReason::Deadline => "deadline",
            DegradeReason::ProverAttempts => "prover-attempts",
            DegradeReason::CheckFuel => "check-fuel",
            DegradeReason::Cancelled => "cancelled",
        }
    }

    /// Whether this reason also rules out the bounded-validation fallback.
    ///
    /// Running out of prover attempts only abandons the *sound proof*; the
    /// extended bounded validation can still run and produce a degraded
    /// (bounded-validated) result. A dead deadline, exhausted fuel, or an
    /// explicit cancellation halt the fallback too.
    pub fn halts_validation(self) -> bool {
        !matches!(self, DegradeReason::ProverAttempts)
    }

    pub fn parse(s: &str) -> Option<DegradeReason> {
        match s {
            "deadline" => Some(DegradeReason::Deadline),
            "prover-attempts" => Some(DegradeReason::ProverAttempts),
            "check-fuel" => Some(DegradeReason::CheckFuel),
            "cancelled" => Some(DegradeReason::Cancelled),
            _ => None,
        }
    }
}

impl std::fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[derive(Debug)]
struct Inner {
    deadline: Option<Instant>,
    /// Remaining prover attempts; `None` means unlimited.
    prover_attempts: Option<AtomicI64>,
    /// Remaining bounded-check fuel; `None` means unlimited.
    check_fuel: Option<AtomicI64>,
    cancelled: AtomicBool,
    /// 0 = live; otherwise `DegradeReason` discriminant + 1 of the first
    /// limit that tripped.
    tripped: AtomicU8,
    parent: Option<Budget>,
}

fn reason_code(r: DegradeReason) -> u8 {
    match r {
        DegradeReason::Deadline => 1,
        DegradeReason::ProverAttempts => 2,
        DegradeReason::CheckFuel => 3,
        DegradeReason::Cancelled => 4,
    }
}

fn code_reason(code: u8) -> Option<DegradeReason> {
    match code {
        1 => Some(DegradeReason::Deadline),
        2 => Some(DegradeReason::ProverAttempts),
        3 => Some(DegradeReason::CheckFuel),
        4 => Some(DegradeReason::Cancelled),
        _ => None,
    }
}

/// A shared, cheaply-pollable resource budget. `Clone` is an `Arc` bump;
/// the unlimited budget is a null handle, so the disarmed poll is a single
/// `Option` check.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    inner: Option<Arc<Inner>>,
}

impl Budget {
    /// A budget with no limits. Polling it never fails and costs one branch.
    pub fn unlimited() -> Budget {
        Budget { inner: None }
    }

    /// A root budget with the given limits (`None` limits are unlimited).
    pub fn limited(
        deadline: Option<Duration>,
        prover_attempts: Option<u64>,
        check_fuel: Option<u64>,
    ) -> Budget {
        Budget::build(deadline, prover_attempts, check_fuel, None)
    }

    /// A child budget: its own (typically tighter) limits, but every consume
    /// and every poll also charges/observes `self`. Deriving a child from an
    /// unlimited budget yields a root budget with the given limits.
    pub fn child(
        &self,
        deadline: Option<Duration>,
        prover_attempts: Option<u64>,
        check_fuel: Option<u64>,
    ) -> Budget {
        let parent = self.inner.is_some().then(|| self.clone());
        Budget::build(deadline, prover_attempts, check_fuel, parent)
    }

    fn build(
        deadline: Option<Duration>,
        prover_attempts: Option<u64>,
        check_fuel: Option<u64>,
        parent: Option<Budget>,
    ) -> Budget {
        if deadline.is_none() && prover_attempts.is_none() && check_fuel.is_none() {
            return match parent {
                Some(p) => p,
                None => Budget::unlimited(),
            };
        }
        let clamp = |n: u64| AtomicI64::new(n.min(i64::MAX as u64) as i64);
        Budget {
            inner: Some(Arc::new(Inner {
                deadline: deadline.map(|d| Instant::now() + d),
                prover_attempts: prover_attempts.map(clamp),
                check_fuel: check_fuel.map(clamp),
                cancelled: AtomicBool::new(false),
                tripped: AtomicU8::new(0),
                parent,
            })),
        }
    }

    pub fn is_unlimited(&self) -> bool {
        self.inner.is_none()
    }

    /// Cancel the budget (and transitively everything observing it).
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.cancelled.store(true, Ordering::Relaxed);
            self.trip(DegradeReason::Cancelled);
        }
    }

    /// The first limit that tripped, if any — on this budget or an ancestor.
    pub fn exhausted(&self) -> Option<DegradeReason> {
        let mut cur = self.inner.as_deref();
        while let Some(inner) = cur {
            if let Some(r) = code_reason(inner.tripped.load(Ordering::Relaxed)) {
                return Some(r);
            }
            cur = inner.parent.as_ref().and_then(|p| p.inner.as_deref());
        }
        None
    }

    /// Record the first limit to trip on this budget. The recorded reason is
    /// what [`Budget::exhausted`] reports; polls return whatever condition
    /// fired *now*, which may differ if e.g. a deadline passes after the
    /// attempt pool ran dry.
    fn trip(&self, reason: DegradeReason) {
        if let Some(inner) = &self.inner {
            let code = reason_code(reason);
            let _ = inner
                .tripped
                .compare_exchange(0, code, Ordering::Relaxed, Ordering::Relaxed);
        }
    }

    /// Poll the clock-dependent limits (deadline, cancellation) on this
    /// budget and its ancestors. Counter limits are *not* consulted here.
    pub fn check_time(&self) -> Result<(), DegradeReason> {
        if let Some(r) = self.exhausted() {
            if r.halts_validation() {
                return Err(r);
            }
        }
        let mut cur = self;
        loop {
            let Some(inner) = cur.inner.as_deref() else {
                return Ok(());
            };
            if inner.cancelled.load(Ordering::Relaxed) {
                cur.trip(DegradeReason::Cancelled);
                return Err(DegradeReason::Cancelled);
            }
            if let Some(deadline) = inner.deadline {
                if Instant::now() >= deadline {
                    cur.trip(DegradeReason::Deadline);
                    return Err(DegradeReason::Deadline);
                }
            }
            match &inner.parent {
                Some(p) => cur = p,
                None => return Ok(()),
            }
        }
    }

    /// Charge `n` prover attempts against this budget chain; also polls the
    /// clock. Exhaustion is sticky.
    pub fn consume_prover_attempts(&self, n: u64) -> Result<(), DegradeReason> {
        self.consume(
            n,
            |inner| inner.prover_attempts.as_ref(),
            DegradeReason::ProverAttempts,
        )?;
        self.check_time()
    }

    /// Charge `n` units of bounded-check fuel against this budget chain;
    /// also polls the clock. Exhaustion is sticky.
    pub fn consume_check_fuel(&self, n: u64) -> Result<(), DegradeReason> {
        self.consume(
            n,
            |inner| inner.check_fuel.as_ref(),
            DegradeReason::CheckFuel,
        )?;
        self.check_time()
    }

    fn consume(
        &self,
        n: u64,
        counter: impl Fn(&Inner) -> Option<&AtomicI64>,
        reason: DegradeReason,
    ) -> Result<(), DegradeReason> {
        // Sticky short-circuit — but only for trip reasons that actually
        // bar this consumption: a dry prover-attempt pool must not starve
        // the bounded-validation fallback of fuel.
        if let Some(r) = self.exhausted() {
            if r.halts_validation() || r == reason {
                return Err(r);
            }
        }
        let n = n.min(i64::MAX as u64) as i64;
        let mut cur = self;
        loop {
            let Some(inner) = cur.inner.as_deref() else {
                return Ok(());
            };
            if let Some(c) = counter(inner) {
                if c.fetch_sub(n, Ordering::Relaxed) < n {
                    cur.trip(reason);
                    return Err(reason);
                }
            }
            match &inner.parent {
                Some(p) => cur = p,
                None => return Ok(()),
            }
        }
    }

    /// Remaining fuel on the nearest fuel-limited budget in the chain
    /// (`None` if fuel is unlimited). For diagnostics only.
    pub fn fuel_remaining(&self) -> Option<u64> {
        let mut cur = self.inner.as_deref();
        while let Some(inner) = cur {
            if let Some(c) = &inner.check_fuel {
                return Some(c.load(Ordering::Relaxed).max(0) as u64);
            }
            cur = inner.parent.as_ref().and_then(|p| p.inner.as_deref());
        }
        None
    }
}

pub mod fault {
    //! Deterministic fault-injection registry.
    //!
    //! Injection points are compiled in unconditionally but cost a single
    //! relaxed atomic load while disarmed (the production state). A test
    //! arms a seeded [`FaultPlan`]; firing is a pure function of the plan
    //! and per-site call counters, so a single-threaded run replays the
    //! same faults every time.

    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Mutex;
    use std::time::Duration;

    /// What to inject, and where. All fields default to "never fire".
    #[derive(Debug, Clone, Default)]
    pub struct FaultPlan {
        /// Seed; offsets the phase of the periodic counters so different
        /// seeds tear different writes.
        pub seed: u64,
        /// Tear every `period`-th disk-cache write (truncate the payload
        /// mid-file, simulating a crash during the write). 0 = never.
        pub torn_write_period: u64,
        /// Fail every `period`-th disk-cache read with a transient error.
        /// 0 = never.
        pub read_error_period: u64,
        /// Kernels (matched by substring of the kernel name) whose CEGIS
        /// candidate workers panic.
        pub panic_kernels: Vec<String>,
        /// Kernels (matched by substring) whose prover calls stall.
        pub stall_kernels: Vec<String>,
        /// How long an injected prover stall sleeps.
        pub stall_ms: u64,
        /// Kernels (matched by substring) whose bounded-screen capture
        /// panics *inside* the `OnceLock::get_or_init` initializer — the
        /// poisoned-capture scenario. The cell is left uninitialized (std
        /// propagates the panic), so the session must surface `Crashed`
        /// rather than wedge.
        pub capture_panic_kernels: Vec<String>,
        /// Kernels (matched by substring) whose bounded-screen capture
        /// stalls (sleeps `stall_ms`) inside the initializer, so a
        /// wall-deadline budget trips mid-capture.
        pub capture_stall_kernels: Vec<String>,
        /// Kernels (matched by substring) whose capture tears the state of
        /// one unit after the first: that unit holds a synthetic capture
        /// error instead of usable states. The screen must surface the
        /// error for candidates that pass the earlier unit, never hang or
        /// fabricate a verdict.
        pub torn_capture_kernels: Vec<String>,
    }

    /// Counts of faults actually injected since the registry was last armed.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct Injected {
        pub torn_writes: u64,
        pub read_errors: u64,
        pub candidate_panics: u64,
        pub prover_stalls: u64,
        pub capture_panics: u64,
        pub capture_stalls: u64,
        pub torn_captures: u64,
    }

    static ARMED: AtomicBool = AtomicBool::new(false);
    static PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);
    static WRITE_CALLS: AtomicU64 = AtomicU64::new(0);
    static READ_CALLS: AtomicU64 = AtomicU64::new(0);
    static INJ_TORN: AtomicU64 = AtomicU64::new(0);
    static INJ_READ: AtomicU64 = AtomicU64::new(0);
    static INJ_PANIC: AtomicU64 = AtomicU64::new(0);
    static INJ_STALL: AtomicU64 = AtomicU64::new(0);
    static INJ_CAPTURE_PANIC: AtomicU64 = AtomicU64::new(0);
    static INJ_CAPTURE_STALL: AtomicU64 = AtomicU64::new(0);
    static INJ_TORN_CAPTURE: AtomicU64 = AtomicU64::new(0);

    fn splitmix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Arm the registry with a plan. Resets all call and injection counters.
    pub fn arm(plan: FaultPlan) {
        let mut slot = PLAN.lock().unwrap();
        WRITE_CALLS.store(0, Ordering::Relaxed);
        READ_CALLS.store(0, Ordering::Relaxed);
        INJ_TORN.store(0, Ordering::Relaxed);
        INJ_READ.store(0, Ordering::Relaxed);
        INJ_PANIC.store(0, Ordering::Relaxed);
        INJ_STALL.store(0, Ordering::Relaxed);
        INJ_CAPTURE_PANIC.store(0, Ordering::Relaxed);
        INJ_CAPTURE_STALL.store(0, Ordering::Relaxed);
        INJ_TORN_CAPTURE.store(0, Ordering::Relaxed);
        *slot = Some(plan);
        ARMED.store(true, Ordering::Release);
    }

    /// Disarm the registry; injection points revert to a single atomic load.
    pub fn disarm() {
        ARMED.store(false, Ordering::Release);
        *PLAN.lock().unwrap() = None;
    }

    pub fn armed() -> bool {
        ARMED.load(Ordering::Relaxed)
    }

    pub fn injected() -> Injected {
        Injected {
            torn_writes: INJ_TORN.load(Ordering::Relaxed),
            read_errors: INJ_READ.load(Ordering::Relaxed),
            candidate_panics: INJ_PANIC.load(Ordering::Relaxed),
            prover_stalls: INJ_STALL.load(Ordering::Relaxed),
            capture_panics: INJ_CAPTURE_PANIC.load(Ordering::Relaxed),
            capture_stalls: INJ_CAPTURE_STALL.load(Ordering::Relaxed),
            torn_captures: INJ_TORN_CAPTURE.load(Ordering::Relaxed),
        }
    }

    /// Matches `kernel` against a substring list of an armed plan, bumping
    /// `counter` on a hit. The shared shape of every by-kernel-name site.
    fn fires_for_kernel(
        kernel: &str,
        pick: impl Fn(&FaultPlan) -> &[String],
        counter: &AtomicU64,
    ) -> bool {
        if !armed() {
            return false;
        }
        let guard = PLAN.lock().unwrap();
        let Some(plan) = guard.as_ref() else {
            return false;
        };
        let fire = pick(plan).iter().any(|k| kernel.contains(k.as_str()));
        if fire {
            counter.fetch_add(1, Ordering::Relaxed);
        }
        fire
    }

    /// `stall_ms` of an armed plan when `kernel` matches the substring list
    /// `pick` (and `stall_ms > 0`), bumping `counter` on a hit.
    fn stall_for_kernel(
        kernel: &str,
        pick: impl Fn(&FaultPlan) -> &[String],
        counter: &AtomicU64,
    ) -> Option<Duration> {
        if !armed() {
            return None;
        }
        let stall_ms = PLAN.lock().unwrap().as_ref()?.stall_ms;
        (stall_ms > 0 && fires_for_kernel(kernel, pick, counter))
            .then(|| Duration::from_millis(stall_ms))
    }

    fn fires_periodic(period: u64, seed: u64, tag: u64, calls: &AtomicU64) -> bool {
        if period == 0 {
            return false;
        }
        let i = calls.fetch_add(1, Ordering::Relaxed);
        let phase = splitmix(seed ^ tag) % period;
        i % period == phase
    }

    /// Should this disk-cache write be torn? (Call once per write.)
    pub fn tear_write() -> bool {
        if !armed() {
            return false;
        }
        let guard = PLAN.lock().unwrap();
        let Some(plan) = guard.as_ref() else {
            return false;
        };
        let fire = fires_periodic(plan.torn_write_period, plan.seed, 0x7ea4, &WRITE_CALLS);
        if fire {
            INJ_TORN.fetch_add(1, Ordering::Relaxed);
        }
        fire
    }

    /// Should this disk-cache read fail with a transient error?
    pub fn fail_read() -> bool {
        if !armed() {
            return false;
        }
        let guard = PLAN.lock().unwrap();
        let Some(plan) = guard.as_ref() else {
            return false;
        };
        let fire = fires_periodic(plan.read_error_period, plan.seed, 0x4ead, &READ_CALLS);
        if fire {
            INJ_READ.fetch_add(1, Ordering::Relaxed);
        }
        fire
    }

    /// Should the candidate worker for this kernel panic?
    pub fn panic_candidate(kernel: &str) -> bool {
        if !armed() {
            return false;
        }
        let guard = PLAN.lock().unwrap();
        let Some(plan) = guard.as_ref() else {
            return false;
        };
        let fire = plan
            .panic_kernels
            .iter()
            .any(|k| kernel.contains(k.as_str()));
        if fire {
            INJ_PANIC.fetch_add(1, Ordering::Relaxed);
        }
        fire
    }

    /// How long the prover for this kernel should stall, if at all.
    pub fn prover_stall(kernel: &str) -> Option<Duration> {
        stall_for_kernel(kernel, |p| &p.stall_kernels, &INJ_STALL)
    }

    /// Should the bounded-screen capture for this kernel panic inside its
    /// `OnceLock` initializer? (The cell stays uninitialized after the
    /// propagated panic.)
    pub fn capture_panic(kernel: &str) -> bool {
        fires_for_kernel(kernel, |p| &p.capture_panic_kernels, &INJ_CAPTURE_PANIC)
    }

    /// How long the bounded-screen capture for this kernel should stall, if
    /// at all (sleeps inside the initializer, so a wall deadline trips
    /// mid-capture).
    pub fn capture_stall(kernel: &str) -> Option<Duration> {
        stall_for_kernel(kernel, |p| &p.capture_stall_kernels, &INJ_CAPTURE_STALL)
    }

    /// Should the capture for this kernel tear the state of one unit after
    /// the first (a synthetic capture error instead of usable states)?
    pub fn torn_capture(kernel: &str) -> bool {
        fires_for_kernel(kernel, |p| &p.torn_capture_kernels, &INJ_TORN_CAPTURE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let b = Budget::unlimited();
        assert!(b.check_time().is_ok());
        assert!(b.consume_prover_attempts(1_000_000).is_ok());
        assert!(b.consume_check_fuel(u64::MAX).is_ok());
        assert_eq!(b.exhausted(), None);
    }

    #[test]
    fn prover_attempt_budget_trips_and_is_sticky() {
        let b = Budget::limited(None, Some(3), None);
        assert!(b.consume_prover_attempts(1).is_ok());
        assert!(b.consume_prover_attempts(2).is_ok());
        assert_eq!(
            b.consume_prover_attempts(1),
            Err(DegradeReason::ProverAttempts)
        );
        assert_eq!(b.exhausted(), Some(DegradeReason::ProverAttempts));
        // Sticky: further attempt consumes keep failing with that reason.
        assert_eq!(
            b.consume_prover_attempts(1),
            Err(DegradeReason::ProverAttempts)
        );
        // But attempt exhaustion does not halt the validation fallback:
        // the clock and (unlimited) fuel stay available.
        assert!(b.check_time().is_ok());
        assert!(b.consume_check_fuel(1).is_ok());
    }

    #[test]
    fn fuel_trips_with_its_own_reason_and_halts_validation() {
        let b = Budget::limited(None, None, Some(10));
        assert!(b.consume_check_fuel(10).is_ok());
        assert_eq!(b.consume_check_fuel(1), Err(DegradeReason::CheckFuel));
        assert_eq!(b.check_time(), Err(DegradeReason::CheckFuel));
    }

    #[test]
    fn deadline_in_the_past_trips_on_poll() {
        let b = Budget::limited(Some(Duration::from_nanos(0)), None, None);
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(b.check_time(), Err(DegradeReason::Deadline));
        assert_eq!(b.exhausted(), Some(DegradeReason::Deadline));
    }

    #[test]
    fn child_consumes_from_parent() {
        let parent = Budget::limited(None, Some(5), None);
        let child = parent.child(None, Some(100), None);
        assert!(child.consume_prover_attempts(5).is_ok());
        // Child has 95 left, but the parent pool is dry.
        assert_eq!(
            child.consume_prover_attempts(1),
            Err(DegradeReason::ProverAttempts)
        );
        assert_eq!(parent.exhausted(), Some(DegradeReason::ProverAttempts));
        assert_eq!(child.exhausted(), Some(DegradeReason::ProverAttempts));
    }

    #[test]
    fn child_of_unlimited_is_a_root() {
        let child = Budget::unlimited().child(None, Some(1), None);
        assert!(child.consume_prover_attempts(1).is_ok());
        assert_eq!(
            child.consume_prover_attempts(1),
            Err(DegradeReason::ProverAttempts)
        );
    }

    #[test]
    fn cancellation_halts_everything() {
        let b = Budget::limited(None, Some(1_000), None);
        b.cancel();
        assert_eq!(b.check_time(), Err(DegradeReason::Cancelled));
        assert_eq!(b.consume_prover_attempts(1), Err(DegradeReason::Cancelled));
    }

    #[test]
    fn degrade_reason_round_trips_through_strings() {
        for r in [
            DegradeReason::Deadline,
            DegradeReason::ProverAttempts,
            DegradeReason::CheckFuel,
            DegradeReason::Cancelled,
        ] {
            assert_eq!(DegradeReason::parse(r.as_str()), Some(r));
        }
        assert_eq!(DegradeReason::parse("bogus"), None);
    }

    #[test]
    fn fault_registry_is_deterministic_and_off_by_default() {
        assert!(!fault::armed());
        assert!(!fault::tear_write());
        assert!(fault::prover_stall("anything").is_none());
    }
}
