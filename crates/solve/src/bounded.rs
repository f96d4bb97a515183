//! Bounded and randomized checking of verification conditions (§3.1's
//! hierarchy of checking procedures, below the sound verifier).
//!
//! Candidates produced by the synthesizer are first screened here: the
//! kernel is executed concretely on small random inputs in the modular data
//! domain (§4.4), the machine states reached at every loop head are captured,
//! and every VC is evaluated on every captured state. A candidate that
//! violates a VC on any reachable state is certainly wrong and is rejected
//! with a counterexample; candidates that survive are handed to
//! [`crate::prover::SmtLite`] for the final, sound check.
//!
//! Several layers keep the screen cheap (this is where CEGIS spends its
//! wall time on 3D+ kernels):
//!
//! * **Compiled checking** — states are slot-addressed
//!   ([`stng_ir::slots::SlotState`]), captured by a bytecode-compiled
//!   tracer, and VCs are lowered once per candidate into flat programs
//!   ([`stng_pred::compile::CompiledVcSet`]), so the per-quantifier-point
//!   work is a handful of register ops with zero allocation. This is the
//!   only production engine: a kernel body the slot compiler rejects, or a
//!   VC set outside the compiled subset, is an `Err` (which CEGIS treats as
//!   a rejected candidate). The tree interpreter is the differential oracle
//!   only — [`stng_ir::interp`] for capture,
//!   [`stng_pred::eval::check_vc_on_state`] for VCs (see
//!   [`CheckSession::find_counterexample_exhaustive`]).
//! * **Cross-candidate state reuse** — reachable states depend only on the
//!   kernel and the (size, trial) seed, never on the candidate. A
//!   [`CheckSession`] owned by the CEGIS loop captures every (size, trial)
//!   unit once, on the first screen, into immutable snapshots and scans
//!   them for every candidate in one pass, recompiling only the
//!   candidate-dependent VCs between iterations.
//! * **Batched structure-of-arrays execution** — within a unit, VCs are
//!   scanned in the order they were generated, each compiled VC program
//!   running across all in-scope captured states in one op-major pass over
//!   SoA-transposed state columns ([`stng_ir::slots::SlotBatch`]) instead
//!   of re-entering an evaluator per state.
//! * **Implication-first checking** — a VC `H ⇒ C` holds wherever `C`
//!   holds, so each VC's body and conclusion run first and its hypotheses
//!   are evaluated only on the states where the conclusion fails. Every
//!   captured state is reachable, so on a correct candidate every
//!   hypothesis holds and could never refute it: a surviving candidate's
//!   screen evaluates no hypothesis at all. The order moves only the split
//!   between `Holds` and `Vacuous`; `Violated` and evaluation errors, the
//!   outcomes the scan acts on, come back exactly as under a
//!   hypothesis-first order.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use stng_intern::guard::{fault, Budget};
use stng_ir::error::{Error, Result};
use stng_ir::interp::{eval_int_expr, ArrayData, State};
use stng_ir::ir::{Kernel, ParamKind};
use stng_ir::slots::{
    exec_stmts_traced, Compiler, LoopTrace, ProgramSet, Scratch, SlotMap, SlotState, SlotStmt,
    SLOT_BATCH_MAX_LANES,
};
use stng_ir::value::{ModInt, MOD_FIELD};
use stng_pred::compile::CompiledVcSet;
use stng_pred::eval::{check_vc_on_state, VcOutcome};
use stng_pred::vcgen::{Vc, VcScope};
use stng_sym::choose_small_bounds;

/// The program point a captured state was snapshotted at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateOrigin {
    /// Before any statement executed.
    Initial,
    /// At the head of an iteration of the named loop.
    LoopHead(String),
    /// Immediately after the named loop exited.
    LoopExit(String),
    /// After the whole kernel executed.
    Final,
}

impl StateOrigin {
    /// Whether a VC anchored at `scope` should be evaluated on a state
    /// captured here.
    fn in_scope(&self, scope: &VcScope) -> bool {
        match (scope, self) {
            (VcScope::Any, _) => true,
            (VcScope::Initial, StateOrigin::Initial) => true,
            (VcScope::LoopHead(v), StateOrigin::LoopHead(w)) => v == w,
            (VcScope::LoopExit(v), StateOrigin::LoopExit(w)) => v == w,
            (VcScope::Final, StateOrigin::Final) => true,
            _ => false,
        }
    }
}

impl fmt::Display for StateOrigin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateOrigin::Initial => write!(f, "initial"),
            StateOrigin::LoopHead(v) => write!(f, "head of loop {v}"),
            StateOrigin::LoopExit(v) => write!(f, "exit of loop {v}"),
            StateOrigin::Final => write!(f, "final"),
        }
    }
}

/// A concrete state on which some VC failed.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Name of the violated verification condition.
    pub vc_name: String,
    /// Short description of where the state came from.
    pub origin: String,
}

/// Configuration of the bounded checker.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundedChecker {
    /// Grid sizes (values given to size-like integer parameters) to try.
    pub grid_sizes: Vec<i64>,
    /// Number of random input states generated per grid size.
    pub trials_per_size: usize,
    /// RNG seed, so counterexample search is reproducible.
    pub seed: u64,
    /// Worker threads used for state capture and VC checking (1 = serial,
    /// the default). Results are deterministic regardless of the thread
    /// count. Splitting one screen's six units over two threads did not pay
    /// on the corpus; CEGIS instead runs the whole screen on a helper thread
    /// beside the candidate's proof (see `SynthesisConfig::parallelism`).
    pub parallelism: usize,
}

impl Default for BoundedChecker {
    fn default() -> Self {
        BoundedChecker {
            grid_sizes: vec![3, 4],
            trials_per_size: 3,
            seed: 0x5717_1e57,
            parallelism: 1,
        }
    }
}

/// SplitMix64 finalizer: a full-avalanche mix of one 64-bit word.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl BoundedChecker {
    /// Creates a checker with default settings.
    pub fn new() -> BoundedChecker {
        BoundedChecker::default()
    }

    /// Deterministic per-(size, trial) RNG seed, so units can be captured in
    /// any order (or concurrently) with reproducible inputs.
    ///
    /// Each word is avalanche-mixed before combining: the previous
    /// `size * 31 + trial` linearization aliased distinct units (e.g.
    /// `(3, 31)` with `(4, 0)`), giving them identical random inputs.
    pub fn unit_seed(&self, size: i64, trial: usize) -> u64 {
        splitmix(splitmix(self.seed ^ (size as u64)) ^ (trial as u64))
    }
}

/// The reachable states of one (size, trial) execution.
#[derive(Debug)]
pub struct CapturedUnit {
    /// Grid size of this unit.
    pub size: i64,
    /// Trial index of this unit.
    pub trial: usize,
    /// Snapshots in execution order, tagged with their program point.
    pub states: Vec<(StateOrigin, SlotState<ModInt>)>,
    /// Hash-map views of `states`, materialized once on first use by the
    /// tree-walking reference scan (the conversion deep-copies array
    /// payloads, so it must not repeat per candidate).
    oracle: OnceLock<Vec<State<ModInt>>>,
}

impl CapturedUnit {
    fn new(size: i64, trial: usize, states: Vec<(StateOrigin, SlotState<ModInt>)>) -> CapturedUnit {
        CapturedUnit {
            size,
            trial,
            states,
            oracle: OnceLock::new(),
        }
    }

    /// The snapshots as hash-map states (converted once, then shared).
    pub fn oracle_states(&self) -> &[State<ModInt>] {
        self.oracle
            .get_or_init(|| self.states.iter().map(|(_, s)| s.to_state()).collect())
    }
}

/// A bounded-checking session: reachable states captured **once** per
/// (size, trial) and shared — via `Arc`-backed immutable snapshots — across
/// every candidate the CEGIS loop screens.
///
/// The first screen captures all `grid_sizes × trials_per_size` units and
/// later screens reuse them. [`CheckSession::capture_count`] counts capture
/// executions, not stored states, so a regression that recaptures drifts it
/// and fails the bench gate.
pub struct CheckSession {
    checker: BoundedChecker,
    kernel: Kernel,
    map: Arc<SlotMap>,
    units: OnceLock<Vec<std::result::Result<CapturedUnit, Error>>>,
    compiled_body: OnceLock<Result<(Vec<SlotStmt>, ProgramSet)>>,
    capture_runs: AtomicU64,
    capture_ns: AtomicU64,
    check_ns: AtomicU64,
    screened: AtomicU64,
    survivors: AtomicU64,
    batch_scans: AtomicU64,
    budget: Budget,
}

impl CheckSession {
    /// Creates a session for one kernel. Cheap: nothing is captured until
    /// the first counterexample search.
    pub fn new(checker: BoundedChecker, kernel: Kernel) -> CheckSession {
        CheckSession::with_budget(checker, kernel, Budget::unlimited())
    }

    /// Creates a session governed by a [`Budget`]: capture steps and VC
    /// checks charge bounded-check fuel, and deadlines are polled between
    /// units. An interrupted capture or scan surfaces as a session `Err`
    /// (never as a spurious "all checks passed"); callers tell interruptions
    /// from genuine evaluation failures via [`Budget::exhausted`].
    pub fn with_budget(checker: BoundedChecker, kernel: Kernel, budget: Budget) -> CheckSession {
        let map = Arc::new(SlotMap::for_kernel(&kernel));
        CheckSession {
            checker,
            kernel,
            map,
            units: OnceLock::new(),
            compiled_body: OnceLock::new(),
            capture_runs: AtomicU64::new(0),
            capture_ns: AtomicU64::new(0),
            check_ns: AtomicU64::new(0),
            screened: AtomicU64::new(0),
            survivors: AtomicU64::new(0),
            batch_scans: AtomicU64::new(0),
            budget,
        }
    }

    fn budget_error(&self) -> Error {
        let reason = self
            .budget
            .exhausted()
            .map(|r| r.as_str())
            .unwrap_or("budget");
        Error::interp(format!("bounded check interrupted: {reason} exhausted"))
    }

    /// The slot resolver shared by captured states and compiled VCs.
    pub fn map(&self) -> &Arc<SlotMap> {
        &self.map
    }

    /// Number of (size, trial) capture executions performed so far: 0
    /// before the first screen, then exactly `grid_sizes × trials_per_size`
    /// (any recapture drifts it).
    pub fn capture_count(&self) -> usize {
        self.capture_runs.load(Ordering::Relaxed) as usize
    }

    /// Wall time spent capturing states, in nanoseconds (0 before the
    /// first screen).
    pub fn capture_ns(&self) -> u64 {
        self.capture_ns.load(Ordering::Relaxed)
    }

    /// Cumulative wall time spent scanning states against VCs, in
    /// nanoseconds, summed over [`find_counterexample`] calls. CEGIS makes
    /// those calls one after another, so the sum stays within wall time.
    ///
    /// [`find_counterexample`]: Self::find_counterexample
    pub fn check_ns(&self) -> u64 {
        self.check_ns.load(Ordering::Relaxed)
    }

    /// Candidates screened (one per [`find_counterexample`] call).
    ///
    /// [`find_counterexample`]: Self::find_counterexample
    pub fn screened(&self) -> u64 {
        self.screened.load(Ordering::Relaxed)
    }

    /// Candidates that survived the screen (no counterexample on any
    /// unit).
    pub fn survivors(&self) -> u64 {
        self.survivors.load(Ordering::Relaxed)
    }

    /// Batched (VC program × state chunk) executions performed by the
    /// SoA scan path.
    pub fn batch_scans(&self) -> u64 {
        self.batch_scans.load(Ordering::Relaxed)
    }

    /// The kernel body compiled once per session. A body outside the
    /// compiled subset (hand-built IR with conditionals, say) is an error
    /// that every capture unit reports.
    fn compiled_body(&self) -> &Result<(Vec<SlotStmt>, ProgramSet)> {
        self.compiled_body.get_or_init(|| {
            let mut compiler = Compiler::new(&self.map);
            let body = compiler
                .compile_stmts(&self.kernel.body)
                .map_err(|e| Error::interp(format!("bounded check: kernel body {e}")))?;
            Ok((body, compiler.into_set()))
        })
    }

    /// Every (size, trial) unit's capture result, captured on first touch,
    /// in scan order: `grid_sizes` order, then trial order. A unit whose
    /// capture failed keeps its error in place, so a violation in an
    /// earlier unit wins over a capture error in a later one.
    pub fn captured_units(&self) -> &[std::result::Result<CapturedUnit, Error>] {
        self.units.get_or_init(|| {
            let _span = stng_obs::span(&stng_obs::names::BOUNDED_CAPTURE);
            // Fault sites for the capture (no-ops while the registry is
            // disarmed). A panic here propagates out of `get_or_init` with
            // the cell left uninitialized — the chaos suite pins that this
            // surfaces as `Crashed`, never a wedge.
            if fault::capture_panic(&self.kernel.name) {
                panic!("fault-inject: capture panic in '{}'", self.kernel.name);
            }
            if let Some(pause) = fault::capture_stall(&self.kernel.name) {
                std::thread::sleep(pause);
            }
            let (body, set) = match self.compiled_body() {
                Ok(compiled) => compiled,
                Err(err) => return vec![Err(err.clone())],
            };
            let start = Instant::now();
            let keys: Vec<(i64, usize)> = self
                .checker
                .grid_sizes
                .iter()
                .flat_map(|&size| (0..self.checker.trials_per_size).map(move |trial| (size, trial)))
                .collect();
            let mut units =
                stng_intern::parallel::map(&keys, self.checker.parallelism, |&(size, trial)| {
                    self.capture_unit(body, set, size, trial)
                        .map(|states| CapturedUnit::new(size, trial, states))
                });
            if fault::torn_capture(&self.kernel.name) && units.len() > 1 {
                let torn = format!("fault-inject: torn state in '{}'", self.kernel.name);
                units[1] = Err(Error::interp(torn));
            }
            self.capture_ns
                .store(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            units
        })
    }

    /// Builds the randomized initial state of one (size, trial) unit.
    fn initial_state(&self, size: i64, rng: &mut StdRng) -> Result<SlotState<ModInt>> {
        let bounds = choose_small_bounds(&self.kernel, size);
        // Bound-dimension expressions are evaluated through a scalars-only
        // hash-map state (they only mention integer parameters).
        let mut bound_state: State<ModInt> = State::new();
        for (name, value) in &bounds {
            bound_state.set_int(name.clone(), *value);
        }
        let mut state: SlotState<ModInt> = SlotState::new(Arc::clone(&self.map));
        for (name, value) in &bounds {
            state.set_int(name, *value);
        }
        for name in self.kernel.real_params() {
            state.set_real(&name, ModInt::new(rng.gen_range(0..MOD_FIELD)));
        }
        for param in &self.kernel.params {
            if let ParamKind::Array { dims } = &param.kind {
                let mut concrete = Vec::new();
                for (lo, hi) in dims {
                    let lo = eval_int_expr(lo, &bound_state)?;
                    let hi = eval_int_expr(hi, &bound_state)?;
                    concrete.push((lo, hi));
                }
                let array =
                    ArrayData::from_fn(concrete, |_| ModInt::new(rng.gen_range(0..MOD_FIELD)));
                state.set_array(&param.name, array);
            }
        }
        Ok(state)
    }

    /// Runs the kernel through the compiled tracer and captures the initial
    /// state, the state at the head of every loop iteration and at every
    /// loop exit, and the final state.
    fn capture_unit(
        &self,
        body: &[SlotStmt],
        set: &ProgramSet,
        size: i64,
        trial: usize,
    ) -> Result<Vec<(StateOrigin, SlotState<ModInt>)>> {
        self.capture_runs.fetch_add(1, Ordering::Relaxed);
        let mut rng = StdRng::seed_from_u64(self.checker.unit_seed(size, trial));
        let mut state = self.initial_state(size, &mut rng)?;
        let mut sink = SnapshotSink {
            snapshots: vec![(StateOrigin::Initial, state.clone())],
        };
        let mut sc = Scratch::for_set(set);
        let mut steps = 0u64;
        exec_stmts_traced(
            body, set, &mut state, &mut sc, &mut steps, 200_000, &mut sink,
        )
        .map_err(|e| e.render(&self.map))?;
        if self.budget.consume_check_fuel(steps).is_err() {
            return Err(self.budget_error());
        }
        sink.snapshots.push((StateOrigin::Final, state));
        Ok(sink.snapshots)
    }

    /// Checks the candidate's VCs against every captured unit in one pass.
    /// Returns the first violation found (deterministic: units in
    /// `grid_sizes` order then trial order, VCs in generation order,
    /// states in execution order — independent of the thread count), or
    /// `None` when all checks pass.
    ///
    /// Which counterexample is reported can differ from the exhaustive
    /// state-major scan (this scan is VC-major within a unit), but *whether*
    /// one exists cannot: a candidate survives iff no VC fails on any state
    /// of any unit. `stng-verify`'s `diff.bounded-screen` oracle pins this
    /// corpus-wide.
    ///
    /// # Errors
    ///
    /// Returns an error when the kernel body or the VC set is outside the
    /// compiled subset, and propagates interpreter errors from state
    /// capture — but, as with the pre-session per-unit pipeline, only when
    /// no earlier unit already produced a violation: the first Some result
    /// in unit order wins, whether it is a counterexample or a capture
    /// error. (VC *evaluation* errors are rejections, not errors: they
    /// become counterexamples, as in the tree-walking checker.)
    pub fn find_counterexample(&self, vcs: &[Vc]) -> Result<Option<Counterexample>> {
        let _span = stng_obs::span(&stng_obs::names::BOUNDED_SCAN);
        let start = Instant::now();
        self.screened.fetch_add(1, Ordering::Relaxed);
        let result = self.screen(vcs);
        self.check_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if let Ok(None) = result {
            self.survivors.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    fn screen(&self, vcs: &[Vc]) -> Result<Option<Counterexample>> {
        let compiled = CompiledVcSet::compile(vcs, &self.map)
            .map_err(|e| Error::interp(format!("bounded check: VC set {e}")))?;
        let found = stng_intern::parallel::find_first(
            self.captured_units(),
            self.checker.parallelism,
            |_, unit| match unit {
                Ok(unit) => self.scan_unit(unit, &compiled, vcs),
                Err(err) => Some(Err(err.clone())),
            },
        );
        found.map(|(_, found)| found).transpose()
    }

    /// Exhaustive reference scan: checks every VC on every state in
    /// size → trial → state → VC order with the tree-walking evaluator
    /// ([`check_vc_on_state`]) — no compiled VCs, no batching.
    /// `stng-verify`'s `diff.bounded-screen` oracle compares
    /// [`find_counterexample`](Self::find_counterexample) against this.
    ///
    /// # Errors
    ///
    /// Propagates the first capture error in unit order.
    pub fn find_counterexample_exhaustive(&self, vcs: &[Vc]) -> Result<Option<Counterexample>> {
        for unit in self.captured_units() {
            let unit = unit.as_ref().map_err(Error::clone)?;
            if let Some(found) = self.scan_unit_interp(unit, vcs) {
                return found.map(Some);
            }
        }
        Ok(None)
    }

    /// Batched unit scan: VCs in generation order, each VC's program run
    /// across all in-scope states of the unit in SoA chunks. Within a
    /// chunk lanes are reported in state order, so the scan stays
    /// deterministic; the first failing lane of the first failing VC wins.
    fn scan_unit(
        &self,
        unit: &CapturedUnit,
        compiled: &CompiledVcSet,
        vcs: &[Vc],
    ) -> Option<Result<Counterexample>> {
        let mut sc = compiled.scratch::<ModInt>();
        let mut bsc = compiled.batch_scratch::<ModInt>();
        let mut out = Vec::new();
        let mut lanes: Vec<&SlotState<ModInt>> = Vec::new();
        let mut origins: Vec<&StateOrigin> = Vec::new();
        for (k, vc) in vcs.iter().enumerate() {
            lanes.clear();
            origins.clear();
            for (origin, state) in &unit.states {
                if origin.in_scope(&vc.scope) {
                    lanes.push(state);
                    origins.push(origin);
                }
            }
            let mut offset = 0;
            while offset < lanes.len() {
                let end = (offset + SLOT_BATCH_MAX_LANES).min(lanes.len());
                let chunk = &lanes[offset..end];
                // One fuel unit per (state, VC) check, charged per chunk;
                // the batched check itself polls at quantifier back-edges.
                if self.budget.consume_check_fuel(chunk.len() as u64).is_err() {
                    return Some(Err(self.budget_error()));
                }
                self.batch_scans.fetch_add(1, Ordering::Relaxed);
                compiled.check_batch(k, chunk, &mut sc, &mut bsc, &self.budget, &mut out);
                for (lane, outcome) in out.iter().enumerate() {
                    match outcome {
                        Ok(VcOutcome::Violated) => {
                            let origin = origins[offset + lane];
                            return Some(Ok(Counterexample {
                                vc_name: vc.name.clone(),
                                origin: format!(
                                    "{origin} (size {}, trial {})",
                                    unit.size, unit.trial
                                ),
                            }));
                        }
                        Ok(_) => {}
                        Err(err) => {
                            // A budget interruption must not masquerade as
                            // a rejection: it says nothing about the
                            // candidate.
                            if self.budget.exhausted().is_some() {
                                return Some(Err(self.budget_error()));
                            }
                            // Evaluation errors (out-of-bounds candidate
                            // indices) also reject the candidate.
                            return Some(Ok(Counterexample {
                                vc_name: vc.name.clone(),
                                origin: format!("evaluation error: {}", err.render(&self.map)),
                            }));
                        }
                    }
                }
                offset = end;
            }
        }
        None
    }

    /// Tree-walking scan of one unit over its hash-map views: the
    /// exhaustive reference scan's per-unit step.
    fn scan_unit_interp(&self, unit: &CapturedUnit, vcs: &[Vc]) -> Option<Result<Counterexample>> {
        for ((origin, _), state) in unit.states.iter().zip(unit.oracle_states()) {
            for vc in vcs {
                if !origin.in_scope(&vc.scope) {
                    continue;
                }
                if self.budget.consume_check_fuel(1).is_err() {
                    return Some(Err(self.budget_error()));
                }
                match check_vc_on_state(vc, state) {
                    Ok(VcOutcome::Violated) => {
                        return Some(Ok(Counterexample {
                            vc_name: vc.name.clone(),
                            origin: format!("{origin} (size {}, trial {})", unit.size, unit.trial),
                        }));
                    }
                    Ok(_) => {}
                    Err(err) => {
                        if self.budget.exhausted().is_some() {
                            return Some(Err(self.budget_error()));
                        }
                        return Some(Ok(Counterexample {
                            vc_name: vc.name.clone(),
                            origin: format!("evaluation error: {err}"),
                        }));
                    }
                }
            }
        }
        None
    }
}

/// Snapshot sink for the compiled capture executor: collects the full
/// machine state at the head of every loop iteration and at every loop
/// exit, via the [`LoopTrace`] hook of [`exec_stmts_traced`] (one shared
/// implementation of the loop protocol). Snapshots are cheap: flat scalar
/// memcpys plus array `Arc` bumps (an array's payload is copied only when a
/// later store mutates it).
struct SnapshotSink {
    snapshots: Vec<(StateOrigin, SlotState<ModInt>)>,
}

impl LoopTrace<ModInt> for SnapshotSink {
    fn at_loop_head(&mut self, var_name: &str, state: &SlotState<ModInt>) {
        self.snapshots
            .push((StateOrigin::LoopHead(var_name.to_string()), state.clone()));
    }

    fn at_loop_exit(&mut self, var_name: &str, state: &SlotState<ModInt>) {
        self.snapshots
            .push((StateOrigin::LoopExit(var_name.to_string()), state.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use stng_ir::ir::IrStmt;
    use stng_ir::lower::kernel_from_source;
    use stng_pred::fixtures;
    use stng_pred::vcgen::{analyze_loop_nest, generate_vcs};

    /// Screens one candidate through a fresh session.
    fn screen_once(
        checker: &BoundedChecker,
        kernel: &Kernel,
        vcs: &[Vc],
    ) -> Result<Option<Counterexample>> {
        CheckSession::new(checker.clone(), kernel.clone()).find_counterexample(vcs)
    }

    fn vcs_with(
        post: stng_pred::lang::Postcondition,
        invariants: Vec<stng_pred::lang::Invariant>,
    ) -> (Kernel, Vec<Vc>) {
        let kernel = kernel_from_source(fixtures::RUNNING_EXAMPLE, 0).unwrap();
        let nest = analyze_loop_nest(&kernel).unwrap();
        let vcs = generate_vcs(&nest, &kernel.assumptions, &invariants, &post);
        (kernel, vcs)
    }

    #[test]
    fn correct_candidates_have_no_bounded_counterexample() {
        let (kernel, vcs) = vcs_with(
            fixtures::running_example_post(),
            fixtures::running_example_invariants(),
        );
        assert!(screen_once(&BoundedChecker::new(), &kernel, &vcs)
            .unwrap()
            .is_none());
    }

    #[test]
    fn wrong_postcondition_is_rejected_quickly() {
        let mut post = fixtures::running_example_post();
        post.clauses[0].eq.rhs = stng_ir::ir::IrExpr::Load {
            array: "b".into(),
            indices: vec![
                stng_ir::ir::IrExpr::var("vi"),
                stng_ir::ir::IrExpr::var("vj"),
            ],
        };
        let (kernel, vcs) = vcs_with(post, fixtures::running_example_invariants());
        let cex = screen_once(&BoundedChecker::new(), &kernel, &vcs).unwrap();
        assert!(cex.is_some());
    }

    #[test]
    fn wrong_invariant_is_rejected() {
        let mut invariants = fixtures::running_example_invariants();
        invariants[1].scalar_eqs[0].1 = stng_ir::ir::IrExpr::Load {
            array: "b".into(),
            indices: vec![stng_ir::ir::IrExpr::var("i"), stng_ir::ir::IrExpr::var("j")],
        };
        let (kernel, vcs) = vcs_with(fixtures::running_example_post(), invariants);
        let cex = screen_once(&BoundedChecker::new(), &kernel, &vcs).unwrap();
        assert!(
            cex.is_some(),
            "expected a counterexample for the wrong invariant"
        );
    }

    #[test]
    fn counterexamples_are_reproducible_across_runs() {
        let mut post = fixtures::running_example_post();
        post.clauses[0].eq.rhs = stng_ir::ir::IrExpr::Real(0.0);
        let (kernel, vcs) = vcs_with(post, fixtures::running_example_invariants());
        let checker = BoundedChecker::new();
        let a = screen_once(&checker, &kernel, &vcs).unwrap().unwrap();
        let b = screen_once(&checker, &kernel, &vcs).unwrap().unwrap();
        assert_eq!(a.vc_name, b.vc_name);
        assert_eq!(a.origin, b.origin);
    }

    #[test]
    fn session_captures_once_across_candidates() {
        let (kernel, vcs) = vcs_with(
            fixtures::running_example_post(),
            fixtures::running_example_invariants(),
        );
        let checker = BoundedChecker::new();
        let session = CheckSession::new(checker.clone(), kernel.clone());
        assert_eq!(session.capture_count(), 0, "capture is lazy");
        for _ in 0..5 {
            assert!(session.find_counterexample(&vcs).unwrap().is_none());
        }
        assert_eq!(
            session.capture_count(),
            checker.grid_sizes.len() * checker.trials_per_size,
            "states are captured once per (size, trial), not per candidate"
        );
        assert!(session.capture_ns() > 0);
        assert!(session.check_ns() > 0);
        assert_eq!(session.screened(), 5);
        assert_eq!(session.survivors(), 5, "every candidate survived");
        assert!(session.batch_scans() > 0);
    }

    #[test]
    fn killed_candidates_capture_every_unit_once() {
        let mut post = fixtures::running_example_post();
        post.clauses[0].eq.rhs = stng_ir::ir::IrExpr::Real(0.0);
        let (kernel, vcs) = vcs_with(post, fixtures::running_example_invariants());
        let checker = BoundedChecker::new();
        let session = CheckSession::new(checker.clone(), kernel);
        for _ in 0..3 {
            assert!(session.find_counterexample(&vcs).unwrap().is_some());
        }
        assert_eq!(
            session.capture_count(),
            checker.grid_sizes.len() * checker.trials_per_size,
            "the first screen captures every (size, trial) unit, and no screen recaptures"
        );
        assert_eq!(session.screened(), 3);
        assert_eq!(session.survivors(), 0);
    }

    /// Collects the tree interpreter's loop-head and loop-exit states, the
    /// oracle side of [`compiled_and_interpreted_capture_agree`].
    struct OracleSink {
        snapshots: Vec<(StateOrigin, State<ModInt>)>,
    }

    impl stng_ir::interp::LoopTrace<ModInt> for OracleSink {
        fn at_loop_head(&mut self, var_name: &str, state: &State<ModInt>) {
            self.snapshots
                .push((StateOrigin::LoopHead(var_name.to_string()), state.clone()));
        }

        fn at_loop_exit(&mut self, var_name: &str, state: &State<ModInt>) {
            self.snapshots
                .push((StateOrigin::LoopExit(var_name.to_string()), state.clone()));
        }
    }

    #[test]
    fn compiled_and_interpreted_capture_agree() {
        let kernel = kernel_from_source(fixtures::RUNNING_EXAMPLE, 0).unwrap();
        let checker = BoundedChecker::new();
        let session = CheckSession::new(checker.clone(), kernel.clone());
        let (body, set) = session.compiled_body().as_ref().unwrap();
        for &(size, trial) in &[(3i64, 0usize), (4, 2)] {
            let fast = session.capture_unit(body, set, size, trial).unwrap();
            let mut rng = StdRng::seed_from_u64(checker.unit_seed(size, trial));
            let mut state = session.initial_state(size, &mut rng).unwrap().to_state();
            let mut sink = OracleSink {
                snapshots: vec![(StateOrigin::Initial, state.clone())],
            };
            stng_ir::interp::run_stmts_traced(&kernel.body, &mut state, 200_000, &mut sink)
                .unwrap();
            sink.snapshots.push((StateOrigin::Final, state));
            assert_eq!(fast.len(), sink.snapshots.len());
            for ((ao, a), (bo, b)) in fast.iter().zip(&sink.snapshots) {
                assert_eq!(ao, bo);
                assert_eq!(&a.to_state(), b, "state mismatch at {ao}");
            }
        }
    }

    #[test]
    fn kernel_body_outside_the_compiled_subset_is_an_error() {
        // Hand-built IR with a conditional: the slot compiler rejects it,
        // and with no tree-walking capture fallback the screen must say so
        // instead of answering.
        use stng_ir::ir::{IrExpr, IterDomain, Param, ParamKind};
        let kernel = Kernel {
            name: "guarded".into(),
            params: vec![
                Param {
                    name: "n".into(),
                    kind: ParamKind::IntScalar,
                },
                Param {
                    name: "a".into(),
                    kind: ParamKind::Array {
                        dims: vec![(IrExpr::Int(0), IrExpr::var("n"))],
                    },
                },
            ],
            locals: vec![Param {
                name: "i".into(),
                kind: ParamKind::IntScalar,
            }],
            body: vec![IrStmt::Loop {
                domain: IterDomain::unit("i", IrExpr::Int(1), IrExpr::var("n")),
                body: vec![IrStmt::If {
                    cond: IrExpr::cmp(stng_ir::ir::CmpOp::Gt, IrExpr::var("i"), IrExpr::Int(1)),
                    then_body: vec![IrStmt::Store {
                        array: "a".into(),
                        indices: vec![IrExpr::var("i")],
                        value: IrExpr::Real(0.0),
                    }],
                    else_body: vec![],
                }],
            }],
            assumptions: vec![],
        };
        let tautology = Vc {
            name: "tautology".into(),
            hypotheses: vec![],
            body: vec![],
            conclusion: stng_pred::lang::Pred::Bool(IrExpr::cmp(
                stng_ir::ir::CmpOp::Eq,
                IrExpr::Int(0),
                IrExpr::Int(0),
            )),
            int_scalars: vec![],
            scope: VcScope::Any,
        };
        let session = CheckSession::new(BoundedChecker::new(), kernel);
        let err = session
            .find_counterexample(std::slice::from_ref(&tautology))
            .unwrap_err();
        assert!(err.to_string().contains("not compilable"), "error: {err}");
        assert_eq!(session.capture_count(), 0, "nothing was executed");
        assert_eq!(session.survivors(), 0);
    }

    #[test]
    fn early_violation_wins_over_later_capture_error() {
        // A kernel whose capture fails only at size 4: `a` is declared
        // `0..min(n,3)` but stored through `1..n`, so the size-4 units hit
        // an out-of-bounds store while the size-3 units capture fine. As in
        // the pre-session per-unit pipeline, a violation found in an
        // earlier unit must win over the later units' capture errors.
        use stng_ir::ir::{IrExpr, IterDomain, Param, ParamKind};
        let kernel = Kernel {
            name: "oob_at_4".into(),
            params: vec![
                Param {
                    name: "n".into(),
                    kind: ParamKind::IntScalar,
                },
                Param {
                    name: "a".into(),
                    kind: ParamKind::Array {
                        dims: vec![(
                            IrExpr::Int(0),
                            IrExpr::Call {
                                func: "min".into(),
                                args: vec![IrExpr::var("n"), IrExpr::Int(3)],
                            },
                        )],
                    },
                },
            ],
            locals: vec![Param {
                name: "i".into(),
                kind: ParamKind::IntScalar,
            }],
            body: vec![IrStmt::Loop {
                domain: IterDomain::unit("i", IrExpr::Int(1), IrExpr::var("n")),
                body: vec![IrStmt::Store {
                    array: "a".into(),
                    indices: vec![IrExpr::var("i")],
                    value: IrExpr::Real(0.0),
                }],
            }],
            assumptions: vec![],
        };
        let always_false = Vc {
            name: "always-false".into(),
            hypotheses: vec![],
            body: vec![],
            conclusion: stng_pred::lang::Pred::Bool(stng_ir::ir::IrExpr::cmp(
                stng_ir::ir::CmpOp::Eq,
                IrExpr::Int(0),
                IrExpr::Int(1),
            )),
            int_scalars: vec![],
            scope: VcScope::Initial,
        };
        let checker = BoundedChecker::new(); // grid sizes [3, 4]
        let cex = screen_once(&checker, &kernel, std::slice::from_ref(&always_false))
            .expect("size-3 violation wins over the size-4 capture error")
            .expect("the always-false VC is violated");
        assert_eq!(cex.vc_name, "always-false");
        assert!(cex.origin.contains("size 3"), "origin: {}", cex.origin);
        // With only the failing size, the capture error surfaces.
        let failing_only = BoundedChecker {
            grid_sizes: vec![4],
            ..BoundedChecker::new()
        };
        let err =
            screen_once(&failing_only, &kernel, std::slice::from_ref(&always_false)).unwrap_err();
        assert!(
            err.to_string().contains("out of bounds"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn unit_seeds_do_not_alias() {
        let checker = BoundedChecker::new();
        // The pre-fix linearization aliased (3, 31) with (4, 0).
        assert_ne!(checker.unit_seed(3, 31), checker.unit_seed(4, 0));
        // Exhaustive pairwise distinctness over a realistic parameter box.
        let mut seen = std::collections::HashMap::new();
        for size in 0..=16i64 {
            for trial in 0..=64usize {
                if let Some(prev) = seen.insert(checker.unit_seed(size, trial), (size, trial)) {
                    panic!("seed collision: {prev:?} vs {:?}", (size, trial));
                }
            }
        }
    }

    #[test]
    fn unit_seeds_are_pinned() {
        // Bounded-checking inputs are part of observable behaviour
        // (counterexample reproducibility); pin the derivation so it cannot
        // drift silently.
        let checker = BoundedChecker::new();
        assert_eq!(checker.seed, 0x5717_1e57);
        assert_eq!(checker.unit_seed(3, 0), 0x7aad_d091_7a12_84f7);
        assert_eq!(checker.unit_seed(4, 2), 0x77c2_9d85_a5b3_492a);
    }

    /// The fault registry is process-global, so the capture-fault tests
    /// must not arm/disarm concurrently with each other.
    static FAULT_TEST_LOCK: Mutex<()> = Mutex::new(());

    /// A panic injected inside the capture must leave the
    /// `OnceLock` uninitialized — not poisoned — so the same session (and a
    /// fresh one) recovers once the fault is disarmed. The kernel name
    /// carries a unique substring because the fault registry is
    /// process-global and other tests may run concurrently.
    #[test]
    fn capture_panic_does_not_wedge_the_session() {
        use stng_intern::guard::fault::{self, FaultPlan};
        let _serial = FAULT_TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let (mut kernel, vcs) = vcs_with(
            fixtures::running_example_post(),
            fixtures::running_example_invariants(),
        );
        kernel.name = "capture_panic_wedge_probe".into();
        let session = CheckSession::new(BoundedChecker::new(), kernel);

        fault::arm(FaultPlan {
            capture_panic_kernels: vec!["capture_panic_wedge_probe".into()],
            ..FaultPlan::default()
        });
        let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            session.find_counterexample(&vcs)
        }));
        fault::disarm();
        assert!(hit.is_err(), "armed capture should panic");

        // Same session, fault disarmed: the cell was never initialized, so
        // capture simply runs again and the screen completes normally.
        assert!(session.find_counterexample(&vcs).unwrap().is_none());
    }

    /// A torn unit surfaces as a classified capture error (never a panic
    /// or a hang) for a candidate that passes every earlier unit.
    #[test]
    fn torn_capture_is_a_classified_error() {
        use stng_intern::guard::fault::{self, FaultPlan};
        let _serial = FAULT_TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let (mut kernel, vcs) = vcs_with(
            fixtures::running_example_post(),
            fixtures::running_example_invariants(),
        );
        kernel.name = "torn_capture_probe".into();
        let session = CheckSession::new(BoundedChecker::new(), kernel);

        fault::arm(FaultPlan {
            torn_capture_kernels: vec!["torn_capture_probe".into()],
            ..FaultPlan::default()
        });
        // The correct candidate passes the first unit and hits the torn
        // second one.
        let err = session.find_counterexample(&vcs).unwrap_err();
        let injected = fault::injected();
        fault::disarm();
        assert!(
            err.to_string().contains("torn state"),
            "unexpected error: {err}"
        );
        assert!(injected.torn_captures >= 1);

        // A fresh session after disarm is unaffected.
        let (mut kernel2, _) = vcs_with(
            fixtures::running_example_post(),
            fixtures::running_example_invariants(),
        );
        kernel2.name = "torn_capture_probe_recovered".into();
        let fresh = CheckSession::new(BoundedChecker::new(), kernel2);
        assert!(fresh.find_counterexample(&vcs).unwrap().is_none());
    }

    /// An injected stall inside the capture slows the screen but does not
    /// change its verdict, and the injection counter records the hit.
    #[test]
    fn capture_stall_only_delays() {
        use stng_intern::guard::fault::{self, FaultPlan};
        let _serial = FAULT_TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let (mut kernel, vcs) = vcs_with(
            fixtures::running_example_post(),
            fixtures::running_example_invariants(),
        );
        kernel.name = "capture_stall_probe".into();
        let session = CheckSession::new(BoundedChecker::new(), kernel);

        fault::arm(FaultPlan {
            capture_stall_kernels: vec!["capture_stall_probe".into()],
            stall_ms: 5,
            ..FaultPlan::default()
        });
        let verdict = session.find_counterexample(&vcs);
        let injected = fault::injected();
        fault::disarm();
        assert!(verdict.unwrap().is_none());
        assert!(injected.capture_stalls >= 1);
    }
}
