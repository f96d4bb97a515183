//! Layer 2 — the unified differential-oracle registry.
//!
//! Every subsystem with a fast/slow pair is registered here as a
//! [`DiffOracle`] the harness drives: the three oracles that previously
//! lived only as scattered release-mode tests (compiled checking, compiled
//! proving, the bounded screen), plus two new members — canon/fingerprint
//! and disk-cache rehydration. The release tests of the first two remain
//! the tier-1 / CI-release depth; the bounded screen's differential lives
//! only here (its unit tests below keep it in tier 1). The registry
//! re-drives every property with counted (rather than panicking) verdicts
//! so one `stng-verify` run reports every divergence across every oracle.
//!
//! Adding a new differential pair = implementing [`DiffOracle`] and
//! appending it to [`registry`]; see `docs/verification.md`.

use crate::layer3::SplitMix64;
use crate::report::CheckReport;
use std::sync::Arc;
use stng::{KernelOutcome, LiftCache, Stng};
use stng_intern::guard::Budget;
use stng_ir::canon::{canonicalize, rename_kernel};
use stng_ir::interp::{run_kernel, ArrayData, State};
use stng_ir::ir::{CmpOp, IrExpr, IrStmt, Kernel};
use stng_ir::lower::kernel_from_source;
use stng_ir::value::{ModInt, MOD_FIELD};
use stng_pred::lang::{Invariant, OutEq, Postcondition, QuantBound, QuantClause};
use stng_pred::vcgen::{analyze_loop_nest, generate_vcs, Vc};
use stng_pred::{fixtures, LoopNest};
use stng_service::cache::PipelineCache;
use stng_solve::bounded::{BoundedChecker, CheckSession};
use stng_solve::{ProverSession, SmtLite, Verdict};
use stng_sym::exec::choose_small_bounds;

/// How far an oracle sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// PR gate: a bounded prefix of the corpus plus the special cases.
    Quick,
    /// Nightly/chaos: the whole corpus.
    Deep,
}

/// One registered fast/slow differential pair.
pub trait DiffOracle {
    fn name(&self) -> &'static str;
    fn run(&self, tier: Tier) -> CheckReport;
}

/// Every registered oracle, in run order.
pub fn registry() -> Vec<Box<dyn DiffOracle>> {
    vec![
        Box::new(CompiledChecking),
        Box::new(CompiledProving),
        Box::new(BoundedScreen),
        Box::new(CanonFingerprint),
        Box::new(CacheRehydration),
    ]
}

/// Corpus kernels that lower and analyze, bounded by tier.
fn analyzable_corpus(tier: Tier) -> Vec<(String, Kernel, LoopNest)> {
    let mut out = Vec::new();
    for corpus_kernel in stng_corpus::all_kernels() {
        let Ok(kernel) = kernel_from_source(&corpus_kernel.source, 0) else {
            continue;
        };
        let Ok(nest) = analyze_loop_nest(&kernel) else {
            continue;
        };
        out.push((corpus_kernel.name.clone(), kernel, nest));
        if tier == Tier::Quick && out.len() >= 10 {
            break;
        }
    }
    out
}

/// The shared synthetic postcondition family (`out[v⃗] = f(out[v⃗])` with an
/// index shift to force evaluation errors and a bump to force violations) —
/// the same family the release differential tests use.
fn synthetic_post(kernel: &Kernel, shift: i64, bump: bool) -> Postcondition {
    let mut clauses = Vec::new();
    for array in kernel.output_arrays() {
        let Some(dims) = kernel.array_dims(&array) else {
            continue;
        };
        let vars: Vec<String> = (0..dims.len()).map(|k| format!("dv{k}")).collect();
        let bounds = dims
            .iter()
            .zip(&vars)
            .map(|((lo, hi), v)| QuantBound::inclusive(v.clone(), lo.clone(), hi.clone()))
            .collect();
        let indices: Vec<IrExpr> = vars.iter().map(|v| IrExpr::var(v.clone())).collect();
        let read_indices: Vec<IrExpr> = if shift == 0 {
            indices.clone()
        } else {
            indices
                .iter()
                .map(|ix| IrExpr::add(ix.clone(), IrExpr::Int(shift)))
                .collect()
        };
        let mut rhs = IrExpr::Load {
            array: array.clone(),
            indices: read_indices,
        };
        if bump {
            rhs = IrExpr::add(rhs, IrExpr::Real(1.0));
        }
        clauses.push(QuantClause {
            bounds,
            eq: OutEq {
                array,
                indices,
                rhs,
            },
        });
    }
    Postcondition { clauses }
}

fn empty_invariants(nest: &LoopNest) -> Vec<Invariant> {
    nest.levels.iter().map(|_| Invariant::empty()).collect()
}

fn test_checker() -> BoundedChecker {
    BoundedChecker {
        grid_sizes: vec![3, 4],
        trials_per_size: 1,
        ..BoundedChecker::default()
    }
}

/// Four VC families per kernel: trivial / wrong / erroring / unbound-hyp.
fn vc_families(kernel: &Kernel, nest: &LoopNest) -> Vec<(&'static str, Vec<Vc>)> {
    let invariants = empty_invariants(nest);
    let mut families = vec![
        (
            "trivial",
            generate_vcs(
                nest,
                &kernel.assumptions,
                &invariants,
                &synthetic_post(kernel, 0, false),
            ),
        ),
        (
            "wrong",
            generate_vcs(
                nest,
                &kernel.assumptions,
                &invariants,
                &synthetic_post(kernel, 0, true),
            ),
        ),
        (
            "erroring",
            generate_vcs(
                nest,
                &kernel.assumptions,
                &invariants,
                &synthetic_post(kernel, 900, false),
            ),
        ),
    ];
    let mut unbound = generate_vcs(
        nest,
        &kernel.assumptions,
        &invariants,
        &synthetic_post(kernel, 0, false),
    );
    for vc in &mut unbound {
        vc.hypotheses.push(stng_pred::Pred::Bool(IrExpr::cmp(
            CmpOp::Le,
            IrExpr::var("never_bound_registry_var"),
            IrExpr::Int(0),
        )));
    }
    families.push(("unbound-hyp", unbound));
    families
}

/// Compiled VC checking vs the tree interpreter on every captured state.
struct CompiledChecking;

impl DiffOracle for CompiledChecking {
    fn name(&self) -> &'static str {
        "diff.compiled-checking"
    }

    fn run(&self, tier: Tier) -> CheckReport {
        use stng_pred::compile::CompiledVcSet;
        use stng_pred::eval::check_vc_on_state;
        let mut check = CheckReport::new(self.name());
        let mut kernels = 0u64;
        let mut outcomes = [0u64; 4];
        for (name, kernel, nest) in analyzable_corpus(tier) {
            let session = CheckSession::new(test_checker(), kernel.clone());
            if session.captured_units().iter().any(|u| u.is_err()) {
                continue;
            }
            kernels += 1;
            for (family, vcs) in vc_families(&kernel, &nest) {
                let compiled = match CompiledVcSet::compile(&vcs, session.map()) {
                    Ok(c) => c,
                    Err(e) => {
                        check.fail(format!("{name}/{family}: VCs must stay compilable: {e}"));
                        continue;
                    }
                };
                let mut sc = compiled.scratch::<ModInt>();
                for unit in session.captured_units() {
                    let unit = unit.as_ref().expect("checked above");
                    for (origin, state) in &unit.states {
                        let oracle_state = state.to_state();
                        for (k, vc) in vcs.iter().enumerate() {
                            check.cases += 1;
                            let slow = check_vc_on_state(vc, &oracle_state);
                            let fast = compiled.check(k, state, &mut sc);
                            match (slow, fast) {
                                (Ok(a), Ok(b)) if a == b => {
                                    outcomes[a as usize] += 1;
                                }
                                (Err(_), Err(_)) => outcomes[3] += 1,
                                (a, b) => check.fail(format!(
                                    "{name}/{family}: VC '{}' at {origin}: \
                                     tree {a:?} vs compiled {b:?}",
                                    vc.name
                                )),
                            }
                        }
                    }
                }
            }
        }
        check.count("kernels", kernels);
        check.count("vacuous", outcomes[0]);
        check.count("holds", outcomes[1]);
        check.count("violated", outcomes[2]);
        check.count("errors", outcomes[3]);
        if kernels == 0 {
            check.fail("no corpus kernel participated".to_string());
        }
        check
    }
}

/// Legacy / compiled / session prover verdict and attempt agreement, plus
/// budget-classification agreement on the running example.
struct CompiledProving;

impl DiffOracle for CompiledProving {
    fn name(&self) -> &'static str {
        "diff.compiled-proving"
    }

    fn run(&self, tier: Tier) -> CheckReport {
        let mut check = CheckReport::new(self.name());
        let prover = SmtLite {
            max_split_depth: 6,
            max_attempts: 4000,
        };
        let mut valid = 0u64;
        let mut unknown = 0u64;
        let mut kernels = 0u64;
        for (name, kernel, nest) in analyzable_corpus(tier) {
            kernels += 1;
            let invariants = empty_invariants(&nest);
            for (family, shift, bump) in [
                ("trivial", 0, false),
                ("wrong", 0, true),
                ("shifted", 9, false),
            ] {
                let vcs = generate_vcs(
                    &nest,
                    &kernel.assumptions,
                    &invariants,
                    &synthetic_post(&kernel, shift, bump),
                );
                check.cases += 1;
                let (legacy, la) = prover.verify_all_legacy(&vcs, &Budget::unlimited());
                let session = ProverSession::new();
                let (compiled, ca) =
                    prover.verify_all_session(&vcs, &Budget::unlimited(), &session);
                if compiled != legacy || ca != la || session.misses() != ca as u64 {
                    check.fail(format!(
                        "{name}/{family}: compiled ({compiled:?}, {ca} attempts, {} \
                         counted) vs legacy ({legacy:?}, {la})",
                        session.misses()
                    ));
                    continue;
                }
                match legacy {
                    Verdict::Valid => valid += 1,
                    Verdict::Unknown(_) => unknown += 1,
                }
            }
        }
        // Budget-interruption classification on the deepest real proof.
        let kernel = kernel_from_source(fixtures::RUNNING_EXAMPLE, 0).expect("fixture lowers");
        let nest = analyze_loop_nest(&kernel).expect("fixture analyzes");
        let vcs = generate_vcs(
            &nest,
            &kernel.assumptions,
            &fixtures::running_example_invariants(),
            &fixtures::running_example_post(),
        );
        let mut tripped = 0u64;
        let mut clean = 0u64;
        for attempts in [1u64, 2, 8, 32, 1 << 20] {
            check.cases += 1;
            let lb = Budget::limited(None, Some(attempts), None);
            let (lv, la) = prover.verify_all_legacy(&vcs, &lb);
            let cb = Budget::limited(None, Some(attempts), None);
            let (cv, ca) = prover.verify_all_session(&vcs, &cb, &ProverSession::new());
            if lv != cv || la != ca || lb.exhausted() != cb.exhausted() {
                check.fail(format!(
                    "governed@{attempts}: legacy ({lv:?}, {la}, {:?}) vs \
                     compiled ({cv:?}, {ca}, {:?})",
                    lb.exhausted(),
                    cb.exhausted()
                ));
            } else if lb.exhausted().is_some() {
                tripped += 1;
            } else {
                clean += 1;
            }
        }
        if tripped == 0 || clean == 0 {
            check.fail(format!(
                "governed sweep vacuous: {tripped} tripped, {clean} clean"
            ));
        }
        check.count("kernels", kernels);
        check.count("valid", valid);
        check.count("unknown", unknown);
        check.count("governed-tripped", tripped);
        check.count("governed-clean", clean);
        check
    }
}

/// The batched screen vs the exhaustive tree-walking reference scan —
/// verdict (presence/absence/error) agreement over the corpus, plus two
/// fixed cases whose verdict is also pinned: the running example with its
/// real invariants, and a kernel whose capture fails at one grid size.
struct BoundedScreen;

/// Verdict classes of one screening: survived, killed, errored.
const SURVIVED: usize = 0;
const KILLED: usize = 1;
const ERRORED: usize = 2;

/// Screens `vcs` through both scans and returns the agreed verdict class,
/// or records the divergence — or a verdict other than `expected`, when
/// given — and returns `None`. Layer 1 screens its enumerated chunks with
/// it too.
pub(crate) fn screen_verdict(
    session: &CheckSession,
    vcs: &[Vc],
    label: &str,
    expected: Option<usize>,
    check: &mut CheckReport,
) -> Option<usize> {
    check.cases += 1;
    let screened = session.find_counterexample(vcs);
    let exhaustive = session.find_counterexample_exhaustive(vcs);
    let verdict = match (&screened, &exhaustive) {
        (Ok(None), Ok(None)) => SURVIVED,
        (Ok(Some(_)), Ok(Some(_))) => KILLED,
        (Err(_), Err(_)) => ERRORED,
        _ => {
            check.fail(format!(
                "{label}: screen {screened:?} vs exhaustive {exhaustive:?}"
            ));
            return None;
        }
    };
    if expected.is_some_and(|e| e != verdict) {
        check.fail(format!(
            "{label}: verdict class {verdict}, expected {expected:?}"
        ));
        return None;
    }
    Some(verdict)
}

/// The running example with its hand-written invariants: the correct
/// candidate survives both scans on every repeated screening of one session.
fn screen_real_invariants(check: &mut CheckReport) {
    let kernel = kernel_from_source(fixtures::RUNNING_EXAMPLE, 0).expect("running example lowers");
    let nest = analyze_loop_nest(&kernel).expect("running example analyzes");
    let vcs = generate_vcs(
        &nest,
        &kernel.assumptions,
        &fixtures::running_example_invariants(),
        &fixtures::running_example_post(),
    );
    let session = CheckSession::new(BoundedChecker::new(), kernel);
    for round in 0..3 {
        let label = format!("running-example/round{round}");
        screen_verdict(&session, &vcs, &label, Some(SURVIVED), check);
    }
}

const OOB_AT_4: &str = r#"
procedure oob_at_4(n, a)
  real (kind=8), dimension(0:min(n, 3)) :: a
  integer :: i
  do i = 1, n
    a(i) = 0.0
  enddo
end procedure
"#;

/// A kernel whose capture fails at size 4 only (`a` declared `0..min(n,3)`
/// but stored through `1..n`): a size-3 violation wins over the size-4
/// capture error in both scans, and a surviving candidate surfaces the
/// error in both.
fn screen_capture_errors(check: &mut CheckReport) {
    use stng_pred::vcgen::VcScope;
    let kernel = kernel_from_source(OOB_AT_4, 0).expect("oob_at_4 lowers");
    let vc = |name: &str, rhs: i64| Vc {
        name: name.into(),
        hypotheses: vec![],
        body: vec![],
        conclusion: stng_pred::Pred::Bool(IrExpr::cmp(CmpOp::Eq, IrExpr::Int(0), IrExpr::Int(rhs))),
        int_scalars: vec![],
        scope: VcScope::Initial,
    };
    let session = CheckSession::new(BoundedChecker::new(), kernel);
    let killed = [vc("always-false", 1)];
    screen_verdict(&session, &killed, "oob_at_4/killed", Some(KILLED), check);
    let errored = [vc("tautology", 0)];
    screen_verdict(&session, &errored, "oob_at_4/errored", Some(ERRORED), check);
}

impl DiffOracle for BoundedScreen {
    fn name(&self) -> &'static str {
        "diff.bounded-screen"
    }

    fn run(&self, tier: Tier) -> CheckReport {
        let mut check = CheckReport::new(self.name());
        let mut verdicts = [0u64; 3];
        let mut kernels = 0u64;
        for (name, kernel, nest) in analyzable_corpus(tier) {
            kernels += 1;
            let session = CheckSession::new(
                BoundedChecker {
                    grid_sizes: vec![3, 4],
                    trials_per_size: 2,
                    ..BoundedChecker::default()
                },
                kernel.clone(),
            );
            let families = vc_families(&kernel, &nest);
            // Two rounds: the second runs on the cached captured states.
            for round in 0..2 {
                for (family, vcs) in &families {
                    let label = format!("{name}/{family}/round{round}");
                    if let Some(verdict) = screen_verdict(&session, vcs, &label, None, &mut check) {
                        verdicts[verdict] += 1;
                    }
                }
            }
        }
        check.count("kernels", kernels);
        check.count("survived", verdicts[SURVIVED]);
        check.count("killed", verdicts[KILLED]);
        check.count("errored", verdicts[ERRORED]);
        // Both main verdict classes must occur, and the whole corpus must
        // exercise the property broadly.
        let (min_kernels, min_verdicts) = match tier {
            Tier::Quick => (1, 1),
            Tier::Deep => (20, 21),
        };
        if kernels < min_kernels
            || verdicts[SURVIVED] < min_verdicts
            || verdicts[KILLED] < min_verdicts
        {
            check.fail(format!(
                "sweep too thin: {kernels} kernels, {} survived, {} killed \
                 (need {min_kernels}, {min_verdicts}, {min_verdicts})",
                verdicts[SURVIVED], verdicts[KILLED]
            ));
        }
        screen_real_invariants(&mut check);
        screen_capture_errors(&mut check);
        check
    }
}

/// Canon / fingerprint: alpha-renames must preserve the fingerprint;
/// structured mutations (coefficient bump, loop restride, extra statement)
/// must change it.
struct CanonFingerprint;

/// Mutates the first real constant in the body; returns success.
fn bump_first_real(stmts: &mut [IrStmt]) -> bool {
    fn in_expr(e: &mut IrExpr) -> bool {
        match e {
            IrExpr::Real(v) => {
                *v += 1.0;
                true
            }
            IrExpr::Int(_) | IrExpr::Var(_) => false,
            IrExpr::Load { indices, .. } => indices.iter_mut().any(in_expr),
            IrExpr::Bin { lhs, rhs, .. } | IrExpr::Cmp { lhs, rhs, .. } => {
                in_expr(lhs) || in_expr(rhs)
            }
            IrExpr::Call { args, .. } => args.iter_mut().any(in_expr),
            IrExpr::And(a, b) | IrExpr::Or(a, b) => in_expr(a) || in_expr(b),
            IrExpr::Not(e) => in_expr(e),
        }
    }
    stmts.iter_mut().any(|stmt| match stmt {
        IrStmt::AssignScalar { value, .. } => in_expr(value),
        IrStmt::Store { indices, value, .. } => indices.iter_mut().any(in_expr) || in_expr(value),
        IrStmt::Loop { body, .. } => bump_first_real(body),
        IrStmt::If {
            cond,
            then_body,
            else_body,
        } => in_expr(cond) || bump_first_real(then_body) || bump_first_real(else_body),
    })
}

/// Doubles the first loop's step; returns success.
fn restride_first_loop(stmts: &mut [IrStmt]) -> bool {
    stmts.iter_mut().any(|stmt| match stmt {
        IrStmt::Loop { domain, .. } => {
            domain.step *= 2;
            true
        }
        IrStmt::If {
            then_body,
            else_body,
            ..
        } => restride_first_loop(then_body) || restride_first_loop(else_body),
        _ => false,
    })
}

impl DiffOracle for CanonFingerprint {
    fn name(&self) -> &'static str {
        "diff.canon-fingerprint"
    }

    fn run(&self, tier: Tier) -> CheckReport {
        let mut check = CheckReport::new(self.name());
        let mut rng = SplitMix64::new(0x00c0_ffee_0000_0001);
        let mut renames = 0u64;
        let mut mutations = 0u64;
        for (name, kernel, _) in analyzable_corpus(tier) {
            let base = canonicalize(&kernel);
            // Alpha-renames collide.
            for trial in 0..2 {
                let map: std::collections::HashMap<String, String> = kernel
                    .params
                    .iter()
                    .chain(&kernel.locals)
                    .enumerate()
                    .map(|(k, p)| (p.name.clone(), format!("vr{k}_{:x}", rng.next_u64())))
                    .collect();
                check.cases += 1;
                renames += 1;
                let variant = canonicalize(&rename_kernel(&kernel, &map));
                if variant.fingerprint != base.fingerprint || variant.text != base.text {
                    check.fail(format!(
                        "{name}/rename{trial}: alpha-rename changed the fingerprint"
                    ));
                }
            }
            // Structured mutations separate.
            let mut bumped = kernel.clone();
            if bump_first_real(&mut bumped.body) {
                check.cases += 1;
                mutations += 1;
                if canonicalize(&bumped).fingerprint == base.fingerprint {
                    check.fail(format!(
                        "{name}: coefficient bump did not change the fingerprint"
                    ));
                }
            }
            let mut restrided = kernel.clone();
            if restride_first_loop(&mut restrided.body) {
                check.cases += 1;
                mutations += 1;
                if canonicalize(&restrided).fingerprint == base.fingerprint {
                    check.fail(format!("{name}: restride did not change the fingerprint"));
                }
            }
        }
        check.count("renames", renames);
        check.count("mutations", mutations);
        if renames == 0 || mutations == 0 {
            check.fail("sweep vacuous: no renames or no mutations ran".to_string());
        }
        check
    }
}

/// Disk-cache rehydration round-trip: lift a kernel through a persistent
/// cache, then lift its alpha-renamed twin through a *fresh* cache instance
/// over the same directory (forcing disk rehydration into the renamed
/// vocabulary), and interpreter-validate the rehydrated summary against the
/// renamed kernel on random inputs.
struct CacheRehydration;

/// Arrays read (via `Load`) anywhere in an expression.
fn loads_of(e: &IrExpr, out: &mut std::collections::BTreeSet<String>) {
    match e {
        IrExpr::Load { array, indices } => {
            out.insert(array.clone());
            for ix in indices {
                loads_of(ix, out);
            }
        }
        IrExpr::Int(_) | IrExpr::Real(_) | IrExpr::Var(_) => {}
        IrExpr::Bin { lhs, rhs, .. } | IrExpr::Cmp { lhs, rhs, .. } => {
            loads_of(lhs, out);
            loads_of(rhs, out);
        }
        IrExpr::Call { args, .. } => {
            for a in args {
                loads_of(a, out);
            }
        }
        IrExpr::And(a, b) | IrExpr::Or(a, b) => {
            loads_of(a, out);
            loads_of(b, out);
        }
        IrExpr::Not(e) => loads_of(e, out),
    }
}

/// Runs `kernel` on seeded random inputs and checks every postcondition
/// clause whose right-hand side reads only arrays the kernel never stores
/// to (in-place clauses would compare against post-state and are skipped —
/// the skip count is reported). Returns (clauses validated, clauses
/// skipped) or an error description.
pub(crate) fn validate_summary(
    kernel: &Kernel,
    post: &Postcondition,
    seed: u64,
    sizes: &[i64],
) -> Result<(u64, u64), String> {
    let outputs: std::collections::BTreeSet<String> = kernel.output_arrays().into_iter().collect();
    let mut validated = 0u64;
    let mut skipped = 0u64;
    let mut rng = SplitMix64::new(seed);
    for &size in sizes {
        let bounds = choose_small_bounds(kernel, size);
        let mut state: State<ModInt> = State::new();
        for (name, value) in &bounds {
            state.set_int(name.clone(), *value);
        }
        for name in kernel.real_params() {
            state.set_real(
                name.clone(),
                ModInt::new((rng.next_u64() % MOD_FIELD as u64) as i64),
            );
        }
        for param in &kernel.params {
            if let stng_ir::ir::ParamKind::Array { dims } = &param.kind {
                let mut concrete = Vec::new();
                for (lo, hi) in dims {
                    let lo = stng_ir::interp::eval_int_expr(lo, &state)
                        .map_err(|e| format!("bound eval: {e}"))?;
                    let hi = stng_ir::interp::eval_int_expr(hi, &state)
                        .map_err(|e| format!("bound eval: {e}"))?;
                    concrete.push((lo, hi));
                }
                let array = ArrayData::from_fn(concrete, |_| {
                    ModInt::new((rng.next_u64() % MOD_FIELD as u64) as i64)
                });
                state.set_array(param.name.clone(), array);
            }
        }
        run_kernel(kernel, &mut state).map_err(|e| format!("kernel run (size {size}): {e}"))?;
        for clause in &post.clauses {
            let mut reads = std::collections::BTreeSet::new();
            loads_of(&clause.eq.rhs, &mut reads);
            if reads.intersection(&outputs).next().is_some() {
                skipped += 1;
                continue;
            }
            match stng_pred::eval::eval_quant_clause(clause, &mut state) {
                Ok(true) => validated += 1,
                Ok(false) => {
                    return Err(format!(
                        "clause over '{}' does not hold on the interpreter (size {size})",
                        clause.eq.array
                    ))
                }
                Err(e) => return Err(format!("clause eval (size {size}): {e}")),
            }
        }
    }
    Ok((validated, skipped))
}

impl DiffOracle for CacheRehydration {
    fn name(&self) -> &'static str {
        "diff.cache-rehydration"
    }

    fn run(&self, _tier: Tier) -> CheckReport {
        let mut check = CheckReport::new(self.name());
        let pairs = [("heat0", "heat0_renamed"), ("jac2s2", "jac2s2_ws")];
        let corpus = stng_corpus::all_kernels();
        let source_of = |name: &str| {
            corpus
                .iter()
                .find(|k| k.name == name)
                .map(|k| k.source.clone())
        };
        let dir =
            std::env::temp_dir().join(format!("stng-verify-rehydrate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut validated_total = 0u64;
        let mut skipped_total = 0u64;
        for (original, renamed) in pairs {
            check.cases += 1;
            let (Some(src_a), Some(src_b)) = (source_of(original), source_of(renamed)) else {
                check.fail(format!("corpus pair {original}/{renamed} missing"));
                continue;
            };
            // Record through a persistent cache.
            let warm = match PipelineCache::persistent(64, &dir) {
                Ok(c) => Arc::new(c),
                Err(e) => {
                    check.fail(format!("cache dir unusable: {e}"));
                    continue;
                }
            };
            let report_a = match Stng::new()
                .with_cache(warm.clone() as Arc<dyn LiftCache>)
                .lift_source(&src_a)
            {
                Ok(r) => r,
                Err(e) => {
                    check.fail(format!("{original}: parse error: {e}"));
                    continue;
                }
            };
            if !report_a.kernels.iter().any(|k| k.outcome.is_translated()) {
                check.fail(format!("{original}: expected a translated kernel"));
                continue;
            }
            // A *fresh* cache instance over the same directory: the memory
            // tier is empty, so the hit must rehydrate from disk into the
            // renamed kernel's vocabulary.
            let cold = match PipelineCache::persistent(64, &dir) {
                Ok(c) => Arc::new(c),
                Err(e) => {
                    check.fail(format!("cache dir unusable: {e}"));
                    continue;
                }
            };
            let report_b = match Stng::new()
                .with_cache(cold.clone() as Arc<dyn LiftCache>)
                .lift_source(&src_b)
            {
                Ok(r) => r,
                Err(e) => {
                    check.fail(format!("{renamed}: parse error: {e}"));
                    continue;
                }
            };
            let Some(hit) = report_b.kernels.iter().find(|k| k.outcome.is_translated()) else {
                check.fail(format!("{renamed}: expected a translated kernel"));
                continue;
            };
            if !hit.cached || cold.stats().disk_hits == 0 {
                check.fail(format!(
                    "{renamed}: expected a disk rehydration hit (cached={}, disk_hits={})",
                    hit.cached,
                    cold.stats().disk_hits
                ));
                continue;
            }
            let KernelOutcome::Translated { post, .. } = &hit.outcome else {
                unreachable!("checked translated above");
            };
            let Some(kernel_b) = &hit.kernel else {
                check.fail(format!("{renamed}: rehydrated report lost its kernel"));
                continue;
            };
            match validate_summary(kernel_b, post, 0x5EED_0001, &[3, 4]) {
                Ok((validated, skipped)) => {
                    validated_total += validated;
                    skipped_total += skipped;
                    if validated == 0 {
                        check.fail(format!(
                            "{renamed}: rehydrated summary had no validatable clause"
                        ));
                    }
                }
                Err(e) => check.fail(format!(
                    "{renamed}: rehydrated summary failed interpreter validation: {e}"
                )),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        check.count("clauses-validated", validated_total);
        check.count("clauses-skipped-inplace", skipped_total);
        check
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_example_summary_validates_on_the_interpreter() {
        let kernel = kernel_from_source(fixtures::RUNNING_EXAMPLE, 0).unwrap();
        let post = fixtures::running_example_post();
        let (validated, _skipped) =
            validate_summary(&kernel, &post, 42, &[3, 4]).expect("fixture post validates");
        assert!(validated > 0);
    }

    #[test]
    fn bounded_screen_pins_real_invariants_and_capture_errors() {
        let mut check = CheckReport::new("test");
        screen_real_invariants(&mut check);
        screen_capture_errors(&mut check);
        assert_eq!(check.failures, 0, "{:?}", check.notes);
        assert_eq!(check.cases, 5, "three screenings plus two");
    }

    #[test]
    fn bounded_screen_oracle_is_green_on_the_whole_corpus() {
        let report = BoundedScreen.run(Tier::Deep);
        assert_eq!(report.failures, 0, "{:?}", report.notes);
    }

    #[test]
    fn canon_fingerprint_oracle_is_green_on_quick() {
        let report = CanonFingerprint.run(Tier::Quick);
        assert_eq!(report.failures, 0, "{:?}", report.notes);
        assert!(report.cases > 0);
    }
}
