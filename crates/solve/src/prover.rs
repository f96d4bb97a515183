//! The sound verifier ("SMT-lite"): proves verification conditions valid for
//! all states.
//!
//! The paper discharges its final, soundness-critical check with Z3. The VCs
//! produced for the restricted predicate language only need a specific
//! fragment of reasoning, which this module implements directly:
//!
//! * linear integer arithmetic over the loop counters and bounds
//!   ([`crate::lin`], Fourier–Motzkin),
//! * ground theory-of-arrays reasoning — reads over the symbolic stores
//!   performed by a VC body are resolved by proving index equality or
//!   disequality, case-splitting when neither is provable,
//! * equality of real-valued expressions with uninterpreted pure functions,
//!   via the sum-of-products normal form of [`crate::norm`], and
//! * instantiation of universally quantified hypotheses at the indices the
//!   goal needs (the partial-Skolemization discipline of §4.3): a hypothesis
//!   clause is only ever instantiated at a goal read's index vector.
//!
//! The verifier is sound but deliberately incomplete: it either returns
//! [`Verdict::Valid`] (every VC proven for all states) or
//! [`Verdict::Unknown`] with a reason. It never claims invalidity —
//! counterexamples are the bounded checker's job.

use crate::lin::{LinCtx, SplitCase, SPLIT_CASES};
use crate::norm::{NAtom, NormErr, NormExpr, Store, SymState};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use stng_intern::guard::Budget;
use stng_intern::Symbol;
use stng_ir::ir::{Affine, IrExpr, IrStmt};
use stng_pred::lang::{Pred, QuantClause};
use stng_pred::vcgen::Vc;

/// Result of attempting to verify one or more VCs.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Every condition was proven valid for all states.
    Valid,
    /// At least one condition could not be proven; the payload explains the
    /// first failure.
    Unknown(String),
}

impl Verdict {
    /// True when the verdict is [`Verdict::Valid`].
    pub fn is_valid(&self) -> bool {
        matches!(self, Verdict::Valid)
    }
}

/// Per-kernel prover counters, shared by every CEGIS candidate of a kernel.
///
/// Only counts: every obligation the case-split search attempts is a
/// [miss](ProverSession::misses), and [`ProverSession::hits`] is always 0.
/// Obligations are not memoized: no obligation recurs on the corpus or the
/// benchmark streams, and a replayed verdict would charge no attempts, so
/// a cancelled proof could change what later candidates are charged.
#[derive(Debug, Default)]
pub struct ProverSession {
    misses: AtomicU64,
}

impl ProverSession {
    /// A fresh session with zeroed counters.
    pub fn new() -> ProverSession {
        ProverSession::default()
    }

    /// Obligations answered without proof work: always 0.
    pub fn hits(&self) -> u64 {
        0
    }

    /// Obligations the prover attempted.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// Internal failure raised while attempting a proof under one context.
#[derive(Debug, Clone)]
enum Failure {
    /// A read/store index pair could not be ordered: case-split on it.
    Ambiguous(Affine, Affine),
    /// A quantified goal was not directly provable; these comparison pairs
    /// are promising case splits.
    Coverage(Vec<(Affine, Affine)>, String),
    /// Not provable by any strategy this prover has.
    Hard(String),
}

/// Configuration of the verifier.
#[derive(Debug, Clone, PartialEq)]
pub struct SmtLite {
    /// Maximum depth of nested case splits.
    pub max_split_depth: usize,
    /// Global budget on proof attempts (guards against pathological
    /// split explosion).
    pub max_attempts: usize,
}

impl Default for SmtLite {
    fn default() -> Self {
        SmtLite {
            max_split_depth: 10,
            max_attempts: 50_000,
        }
    }
}

impl SmtLite {
    /// Creates a verifier with default limits.
    pub fn new() -> SmtLite {
        SmtLite::default()
    }

    /// Verifies a set of VCs; valid only if every one is valid. Returns the
    /// verdict and the total number of proof attempts spent (the case-split
    /// search effort). Every proof attempt charges the shared [`Budget`]
    /// (attempt pool + wall-clock deadline). Exhaustion yields
    /// `Verdict::Unknown` — sound but incomplete, exactly like the prover's
    /// own internal limits; the caller distinguishes the cases via
    /// [`Budget::exhausted`].
    pub fn verify_all_governed(&self, vcs: &[Vc], budget: &Budget) -> (Verdict, usize) {
        self.verify_all_with(vcs, budget, None, false)
    }

    /// [`SmtLite::verify_all_governed`] that also counts the obligations it
    /// attempts into the kernel's [`ProverSession`]. Same verdicts, same
    /// attempts, same charges.
    pub fn verify_all_session(
        &self,
        vcs: &[Vc],
        budget: &Budget,
        session: &ProverSession,
    ) -> (Verdict, usize) {
        self.verify_all_with(vcs, budget, Some(session), false)
    }

    /// Oracle verification: identical logic, but every [`LinCtx`] runs the
    /// original tree-walking Fourier–Motzkin with no verdict memo or learned
    /// cores. The corpus-wide differential test pins
    /// `verify_all_session` ≡ `verify_all_governed` ≡ this.
    pub fn verify_all_legacy(&self, vcs: &[Vc], budget: &Budget) -> (Verdict, usize) {
        self.verify_all_with(vcs, budget, None, true)
    }

    fn verify_all_with(
        &self,
        vcs: &[Vc],
        budget: &Budget,
        session: Option<&ProverSession>,
        legacy: bool,
    ) -> (Verdict, usize) {
        let mut attempts = 0;
        for vc in vcs {
            let (verdict, spent) = self.verify_vc_with(vc, budget, session, legacy);
            attempts += spent;
            if let Verdict::Unknown(reason) = verdict {
                return (Verdict::Unknown(format!("{}: {reason}", vc.name)), attempts);
            }
        }
        (Verdict::Valid, attempts)
    }

    fn verify_vc_with(
        &self,
        vc: &Vc,
        budget: &Budget,
        counters: Option<&ProverSession>,
        legacy: bool,
    ) -> (Verdict, usize) {
        let mut session = ProofSession {
            vc,
            hyp_clauses: Vec::new(),
            hyp_real_env: Default::default(),
            attempts: 0,
            max_attempts: self.max_attempts,
            budget,
            counters,
        };
        let mut hyp_real_env = BTreeMap::new();
        // Partition hypotheses.
        let mut base_ctx = if legacy {
            LinCtx::new_legacy()
        } else {
            LinCtx::new()
        };
        for hyp in &vc.hypotheses {
            for conjunct in hyp.conjuncts() {
                match conjunct {
                    Pred::Bool(e) => {
                        // Partial representation is sound for hypotheses.
                        let _ = base_ctx.assume_bool_expr(e);
                    }
                    Pred::DataEq { lhs, rhs } => {
                        if let IrExpr::Var(name) = lhs {
                            // Value over the pre-state; normalize with an
                            // empty symbolic state (no stores yet).
                            let pre = SymState::default();
                            if let Ok(v) = pre.norm_data(rhs, &base_ctx) {
                                hyp_real_env.insert(Symbol::intern(name), v);
                            }
                        }
                    }
                    Pred::Stride { var, lo, step } => {
                        // The counter is lo + step·k for a fresh witness
                        // k ≥ 0. Installing it as an exact *definition*
                        // substitutes `var` out of all linear reasoning up
                        // front — the ISSUE's "i = lo + step·k before linear
                        // reasoning" — so Fourier–Motzkin works on the
                        // witness and the gcd tightening sees the stride.
                        let pre = SymState::default();
                        if let Some(lo_aff) = pre.norm_int(lo) {
                            let witness = Affine::var(format!("k!{var}"));
                            base_ctx
                                .define(Symbol::intern(var), &lo_aff.add(&witness.scale(*step)));
                            base_ctx.assume_le(&Affine::constant(0), &witness);
                        }
                    }
                    Pred::Forall(clause) => session.hyp_clauses.push(clause),
                    Pred::And(_) => unreachable!("conjuncts() flattens conjunctions"),
                }
            }
        }
        session.hyp_real_env = std::sync::Arc::new(hyp_real_env);
        let verdict = match session.prove(&base_ctx, self.max_split_depth) {
            Ok(()) => Verdict::Valid,
            Err(reason) => Verdict::Unknown(reason),
        };
        (verdict, session.attempts)
    }
}

struct ProofSession<'a> {
    vc: &'a Vc,
    hyp_clauses: Vec<&'a QuantClause>,
    hyp_real_env: std::sync::Arc<BTreeMap<Symbol, NormExpr>>,
    attempts: usize,
    max_attempts: usize,
    budget: &'a Budget,
    /// Kernel-level obligation counters, when the caller keeps them.
    counters: Option<&'a ProverSession>,
}

impl<'a> ProofSession<'a> {
    fn prove(&mut self, ctx: &LinCtx, depth: usize) -> Result<(), String> {
        if ctx.is_infeasible() {
            return Ok(());
        }
        // One span per obligation; recursion through `split` nests them, so
        // an armed trace shows the case-split tree. The close event carries
        // the remaining split depth.
        let mut oblig_span = stng_obs::span(&stng_obs::names::PROVE_OBLIG);
        oblig_span.arg(depth as u64);
        if let Some(counters) = self.counters {
            counters.misses.fetch_add(1, Ordering::Relaxed);
        }
        self.attempts += 1;
        if self.attempts > self.max_attempts {
            return Err("proof attempt budget exhausted".to_string());
        }
        // One poll per case-split attempt: charges the kernel-level attempt
        // pool and checks the wall-clock deadline. The prover stays sound —
        // exhaustion is just one more way to answer Unknown.
        if let Err(reason) = self.budget.consume_prover_attempts(1) {
            return Err(format!("prover budget exhausted ({reason})"));
        }
        match self.attempt(ctx) {
            Ok(()) => Ok(()),
            Err(Failure::Hard(msg)) => Err(msg),
            Err(Failure::Ambiguous(a, b)) => {
                if depth == 0 {
                    Err("case-split depth exhausted (ambiguous array access)".to_string())
                } else {
                    self.split(ctx, depth, &a, &b)
                }
            }
            Err(Failure::Coverage(candidates, msg)) => {
                if depth == 0 {
                    Err(format!("case-split depth exhausted: {msg}"))
                } else {
                    let mut last_err = msg;
                    let mut closed = false;
                    for (a, b) in candidates {
                        match self.split(ctx, depth, &a, &b) {
                            Ok(()) => {
                                closed = true;
                                break;
                            }
                            Err(e) => last_err = e,
                        }
                    }
                    if closed {
                        Ok(())
                    } else {
                        Err(format!("no case split closed the goal: {last_err}"))
                    }
                }
            }
        }
    }

    fn split(&mut self, ctx: &LinCtx, depth: usize, a: &Affine, b: &Affine) -> Result<(), String> {
        for case in SPLIT_CASES {
            let ctx2 = ctx.with_case(a, b, case);
            if ctx2.is_infeasible() {
                continue;
            }
            // Splitting must make progress in the two inequality branches;
            // the equality branch always adds information.
            if case != SplitCase::Equal && ctx2 == *ctx {
                continue;
            }
            self.prove(&ctx2, depth - 1)?;
        }
        Ok(())
    }

    /// One direct proof attempt under a fixed linear context.
    fn attempt(&mut self, ctx: &LinCtx) -> Result<(), Failure> {
        // 1. Execute the straight-line body symbolically.
        let mut state = SymState {
            real_env: std::sync::Arc::clone(&self.hyp_real_env),
            ..SymState::default()
        };
        for stmt in &self.vc.body {
            match stmt {
                IrStmt::AssignScalar { name, value } => {
                    let is_int_update = self.vc.int_scalars.contains(name)
                        || (value_is_integer_shaped(value)
                            && !state.real_env.contains_key(&Symbol::intern(name))
                            && value
                                .free_vars()
                                .iter()
                                .all(|v| !state.real_env.contains_key(&Symbol::intern(v))));
                    if is_int_update {
                        if let Some(aff) = state.norm_int(value) {
                            state.int_env.insert(Symbol::intern(name), aff);
                            continue;
                        }
                    }
                    let v = state.norm_data(value, ctx).map_err(norm_err_to_failure)?;
                    std::sync::Arc::make_mut(&mut state.real_env).insert(Symbol::intern(name), v);
                }
                IrStmt::Store {
                    array,
                    indices,
                    value,
                } => {
                    let idx: Option<Vec<Affine>> =
                        indices.iter().map(|ix| state.norm_int(ix)).collect();
                    let idx = idx.ok_or_else(|| {
                        Failure::Hard(format!("non-affine store index into '{array}'"))
                    })?;
                    let v = state.norm_data(value, ctx).map_err(norm_err_to_failure)?;
                    state.stores.push(Store {
                        array: Symbol::intern(array),
                        indices: idx,
                        value: v,
                    });
                }
                other => {
                    return Err(Failure::Hard(format!(
                        "verification-condition body is not straight-line: {other:?}"
                    )))
                }
            }
        }

        // 2. Prove every conclusion conjunct.
        for conjunct in self.vc.conclusion.conjuncts() {
            match conjunct {
                Pred::Bool(e) => {
                    let substituted = subst_int_env(e, &state);
                    if !ctx.entails_bool_expr(&substituted) {
                        return Err(Failure::Hard(format!("scalar condition not entailed: {e}")));
                    }
                }
                Pred::DataEq { lhs, rhs } => {
                    let l = state.norm_data(lhs, ctx).map_err(norm_err_to_failure)?;
                    let r = state.norm_data(rhs, ctx).map_err(norm_err_to_failure)?;
                    if !self.data_eq(&l, &r, ctx) {
                        return Err(Failure::Hard(format!(
                            "scalar data equality not provable: {lhs} = {rhs}"
                        )));
                    }
                }
                Pred::Stride { var, lo, step } => {
                    // The post-state value of the counter must stay aligned:
                    // `step | value − lo` under the known stride facts.
                    let value = state.int_value(var);
                    let lo_aff = state
                        .norm_int(lo)
                        .ok_or_else(|| Failure::Hard(format!("non-affine stride base {lo}")))?;
                    if !ctx.divisible(&value.sub(&lo_aff), *step) {
                        return Err(Failure::Hard(format!(
                            "stride fact not provable: {var} == {lo} (mod {step})"
                        )));
                    }
                }
                Pred::Forall(clause) => {
                    self.prove_forall(clause, ctx, &state)?;
                }
                Pred::And(_) => unreachable!("conjuncts() flattens conjunctions"),
            }
        }
        Ok(())
    }

    /// Proves a universally quantified conclusion clause under `ctx` in the
    /// post-state described by `state`.
    fn prove_forall(
        &mut self,
        clause: &QuantClause,
        ctx: &LinCtx,
        state: &SymState,
    ) -> Result<(), Failure> {
        // Rename quantified variables to fresh names so they cannot clash
        // with program variables.
        let renaming: Vec<(String, String)> = clause
            .bounds
            .iter()
            .map(|b| (b.var.clone(), format!("q!{}", b.var)))
            .collect();
        let rename = |e: &IrExpr| -> IrExpr {
            let mut out = e.clone();
            for (old, new) in &renaming {
                out = out.subst_var(old, &IrExpr::var(new.clone()));
            }
            out
        };

        // Assume the bounds of the quantified variables in an extended
        // context (bounds are evaluated in the post-state). Strided bounds
        // additionally pin the variable to its arithmetic progression:
        // `q = lo + step·t` is installed as an exact definition with a fresh
        // witness `t ≥ 0`, so both the linear reasoning and divisibility
        // questions about `q` resolve through the substitution.
        let mut ctx2 = ctx.clone();
        for bound in &clause.bounds {
            let qname = format!("q!{}", bound.var);
            let qvar = Affine::var(qname.as_str());
            let lo = state
                .norm_int(&rename(&bound.inclusive_lo()))
                .ok_or_else(|| Failure::Hard(format!("non-affine bound {}", bound.lo)))?;
            let hi = state
                .norm_int(&rename(&bound.inclusive_hi()))
                .ok_or_else(|| Failure::Hard(format!("non-affine bound {}", bound.hi)))?;
            if bound.step > 1 {
                let witness = Affine::var(format!("t!{qname}"));
                ctx2.define(Symbol::intern(&qname), &lo.add(&witness.scale(bound.step)));
                ctx2.assume_le(&Affine::constant(0), &witness);
            }
            ctx2.assume_le(&lo, &qvar);
            ctx2.assume_le(&qvar, &hi);
        }
        if ctx2.is_infeasible() {
            // Empty quantification domain: vacuously true.
            return Ok(());
        }

        // Target indices of the goal read, in the post-state.
        let mut target: Vec<Affine> = Vec::new();
        for ix in &clause.eq.indices {
            let aff = state
                .norm_int(&rename(ix))
                .ok_or_else(|| Failure::Hard(format!("non-affine output index {ix}")))?;
            target.push(aff);
        }

        // Left-hand side: the post-state content of the output array.
        let goal_array = Symbol::intern(&clause.eq.array);
        let lhs = state
            .resolve_load(goal_array, &target, &ctx2)
            .map_err(norm_err_to_failure)?;
        // Right-hand side: the defining expression in the post-state.
        let rhs = state
            .norm_data(&rename(&clause.eq.rhs), &ctx2)
            .map_err(norm_err_to_failure)?;

        if self.data_eq(&lhs, &rhs, &ctx2) {
            return Ok(());
        }

        // Direct proof failed: propose case splits between the goal indices
        // and (a) the indices of stores to the same array, (b) the bounds of
        // hypothesis clauses describing the same array.
        let mut candidates: Vec<(Affine, Affine)> = Vec::new();
        for store in &state.stores {
            if store.array == goal_array && store.indices.len() == target.len() {
                for (t, s) in target.iter().zip(&store.indices) {
                    if !ctx2.entails_eq(t, s) && !ctx2.entails_ne(t, s) {
                        candidates.push((t.clone(), s.clone()));
                    }
                }
            }
        }
        let pre = SymState {
            real_env: std::sync::Arc::clone(&self.hyp_real_env),
            ..SymState::default()
        };
        for hyp in &self.hyp_clauses {
            if hyp.eq.array != clause.eq.array || hyp.bounds.len() != target.len() {
                continue;
            }
            for (dim, bound) in hyp.bounds.iter().enumerate() {
                for expr in [bound.inclusive_lo(), bound.inclusive_hi()] {
                    if let Some(aff) = pre.norm_int(&expr) {
                        let pair = (target[dim].clone(), aff);
                        if !candidates.contains(&pair) {
                            candidates.push(pair);
                        }
                    }
                }
            }
        }
        Err(Failure::Coverage(
            candidates,
            format!(
                "quantified goal not provable directly: {}[..] vs {}",
                clause.eq.array, clause.eq.rhs
            ),
        ))
    }

    /// Checks equality of two normalized data expressions, rewriting
    /// pre-state reads of output arrays through the quantified hypotheses
    /// (quantifier instantiation at the read's own index vector).
    fn data_eq(&mut self, lhs: &NormExpr, rhs: &NormExpr, ctx: &LinCtx) -> bool {
        if lhs.eq_mod_ctx(rhs, ctx) {
            return true;
        }
        let mut l = *lhs;
        let mut r = *rhs;
        for _ in 0..4 {
            let mut changed = false;
            for side in [&mut l, &mut r] {
                let loads = side.loads();
                for (array, indices) in loads {
                    if let Some(replacement) = self.rewrite_via_hypotheses(array, indices, ctx) {
                        let atom = NAtom::Load {
                            array,
                            indices: indices.to_vec(),
                        };
                        *side = side.subst_atom(&atom, &replacement);
                        changed = true;
                    }
                }
            }
            if l.eq_mod_ctx(&r, ctx) {
                return true;
            }
            if !changed {
                break;
            }
        }
        false
    }

    /// Attempts to rewrite a pre-state read `array[indices]` using one of the
    /// quantified hypothesis clauses: the clause is instantiated at exactly
    /// this index vector (partial Skolemization), its bounds must be entailed
    /// by the context, and its right-hand side becomes the read's value. For
    /// strided clause bounds the instantiation point must additionally be
    /// *aligned*: `step | index − lo`, decided under the stride facts in
    /// scope.
    fn rewrite_via_hypotheses(
        &self,
        array: Symbol,
        indices: &[Affine],
        ctx: &LinCtx,
    ) -> Option<NormExpr> {
        let pre = SymState {
            real_env: std::sync::Arc::clone(&self.hyp_real_env),
            ..SymState::default()
        };
        'clauses: for clause in &self.hyp_clauses {
            if clause.eq.array != array.as_str()
                || clause.eq.indices.len() != indices.len()
                || clause.bounds.len() != clause.eq.indices.len()
            {
                continue;
            }
            // The clause's output indices must be exactly its quantified
            // variables, in order — which is how every predicate this system
            // builds is shaped.
            let mut quant_vars: Vec<&String> = Vec::new();
            for (k, ix) in clause.eq.indices.iter().enumerate() {
                match ix {
                    IrExpr::Var(name) if *name == clause.bounds[k].var => quant_vars.push(name),
                    _ => continue 'clauses,
                }
            }
            // Bounds must hold at the instantiation point.
            for (k, bound) in clause.bounds.iter().enumerate() {
                let lo = pre.norm_int(&bound.inclusive_lo())?;
                let hi = pre.norm_int(&bound.inclusive_hi())?;
                if !ctx.entails_le(&lo, &indices[k]) || !ctx.entails_le(&indices[k], &hi) {
                    continue 'clauses;
                }
                if bound.step > 1 && !ctx.divisible(&indices[k].sub(&lo), bound.step) {
                    continue 'clauses;
                }
            }
            // Instantiate the right-hand side at the read's indices.
            let mut rhs = clause.eq.rhs.clone();
            for (var, value) in quant_vars.iter().zip(indices) {
                rhs = rhs.subst_var(var, &value.to_expr());
            }
            if let Ok(value) = pre.norm_data(&rhs, ctx) {
                return Some(value);
            }
        }
        None
    }
}

fn norm_err_to_failure(err: NormErr) -> Failure {
    match err {
        NormErr::Ambiguous {
            read_index,
            store_index,
        } => Failure::Ambiguous(read_index, store_index),
        NormErr::Unsupported(msg) => Failure::Hard(msg),
    }
}

/// Heuristic: an assignment is an integer (counter) update when its value
/// expression contains no real literals, loads, or calls.
fn value_is_integer_shaped(e: &IrExpr) -> bool {
    let mut integer = true;
    e.walk(&mut |x| {
        if matches!(
            x,
            IrExpr::Real(_) | IrExpr::Load { .. } | IrExpr::Call { .. }
        ) {
            integer = false;
        }
    });
    integer
}

/// Substitutes the post-state integer environment into a boolean expression.
fn subst_int_env(e: &IrExpr, state: &SymState) -> IrExpr {
    let mut out = e.clone();
    for (name, aff) in &state.int_env {
        out = out.subst_var(name.as_str(), &aff.to_expr());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use stng_ir::lower::kernel_from_source;
    use stng_pred::fixtures;
    use stng_pred::vcgen::{analyze_loop_nest, generate_vcs};

    /// Verifies one VC through the memo-free entry point.
    fn verify_one(vc: &Vc) -> Verdict {
        SmtLite::new()
            .verify_all_governed(std::slice::from_ref(vc), &Budget::unlimited())
            .0
    }

    /// Verifies a VC set through the memo-free entry point.
    fn verify_set(vcs: &[Vc]) -> Verdict {
        SmtLite::new()
            .verify_all_governed(vcs, &Budget::unlimited())
            .0
    }

    fn running_example_vcs() -> Vec<Vc> {
        let kernel = kernel_from_source(fixtures::RUNNING_EXAMPLE, 0).unwrap();
        let nest = analyze_loop_nest(&kernel).unwrap();
        generate_vcs(
            &nest,
            &kernel.assumptions,
            &fixtures::running_example_invariants(),
            &fixtures::running_example_post(),
        )
    }

    #[test]
    fn running_example_initiation_and_descend_are_valid() {
        let vcs = running_example_vcs();
        for name in ["initiation(j)", "descend(j->i)"] {
            let vc = vcs.iter().find(|vc| vc.name == name).unwrap();
            let verdict = verify_one(vc);
            assert!(verdict.is_valid(), "{name} should be valid: {verdict:?}");
        }
    }

    #[test]
    fn running_example_preservation_is_valid() {
        let vcs = running_example_vcs();
        let vc = vcs.iter().find(|vc| vc.name == "preservation(i)").unwrap();
        let verdict = verify_one(vc);
        assert!(
            verdict.is_valid(),
            "preservation should be valid: {verdict:?}"
        );
    }

    #[test]
    fn running_example_ascend_and_exit_are_valid() {
        let vcs = running_example_vcs();
        for name in ["ascend(i->j)", "exit"] {
            let vc = vcs.iter().find(|vc| vc.name == name).unwrap();
            let verdict = verify_one(vc);
            assert!(verdict.is_valid(), "{name} should be valid: {verdict:?}");
        }
    }

    #[test]
    fn full_vc_set_verifies() {
        assert!(verify_set(&running_example_vcs()).is_valid());
    }

    #[test]
    fn wrong_postcondition_is_not_proven() {
        let kernel = kernel_from_source(fixtures::RUNNING_EXAMPLE, 0).unwrap();
        let nest = analyze_loop_nest(&kernel).unwrap();
        let mut post = fixtures::running_example_post();
        // Claim a[vi,vj] = b[vi,vj] (dropping one term).
        post.clauses[0].eq.rhs = IrExpr::Load {
            array: "b".into(),
            indices: vec![IrExpr::var("vi"), IrExpr::var("vj")],
        };
        let vcs = generate_vcs(
            &nest,
            &kernel.assumptions,
            &fixtures::running_example_invariants(),
            &post,
        );
        assert!(!verify_set(&vcs).is_valid());
    }

    #[test]
    fn wrong_invariant_is_not_proven() {
        let kernel = kernel_from_source(fixtures::RUNNING_EXAMPLE, 0).unwrap();
        let nest = analyze_loop_nest(&kernel).unwrap();
        let mut invariants = fixtures::running_example_invariants();
        // Break the inner invariant's scalar fact: claim t = b[i, j].
        invariants[1].scalar_eqs[0].1 = IrExpr::Load {
            array: "b".into(),
            indices: vec![IrExpr::var("i"), IrExpr::var("j")],
        };
        let vcs = generate_vcs(
            &nest,
            &kernel.assumptions,
            &invariants,
            &fixtures::running_example_post(),
        );
        assert!(!verify_set(&vcs).is_valid());
    }

    #[test]
    fn session_counts_every_obligation_and_memoizes_nothing() {
        let vcs = running_example_vcs();
        let prover = SmtLite::new();
        let session = ProverSession::new();
        let (cold, spent) = prover.verify_all_session(&vcs, &Budget::unlimited(), &session);
        assert!(cold.is_valid());
        assert!(spent > 0, "the proof must do real work");
        assert_eq!(session.misses(), spent as u64);
        // A second pass through the same session costs exactly as much
        // again: nothing is replayed for free.
        let (warm, spent_warm) = prover.verify_all_session(&vcs, &Budget::unlimited(), &session);
        assert_eq!(warm, cold);
        assert_eq!(spent_warm, spent);
        assert_eq!(session.misses(), 2 * spent as u64);
        assert_eq!(session.hits(), 0);
        assert_eq!(
            prover.verify_all_governed(&vcs, &Budget::unlimited()),
            (cold, spent)
        );
    }

    #[test]
    fn legacy_oracle_agrees_on_the_running_example() {
        let vcs = running_example_vcs();
        let prover = SmtLite::new();
        let (compiled, _) = prover.verify_all_governed(&vcs, &Budget::unlimited());
        let (legacy, _) = prover.verify_all_legacy(&vcs, &Budget::unlimited());
        assert_eq!(compiled, legacy);
        assert!(legacy.is_valid());
    }

    #[test]
    fn trivially_true_vc_is_valid() {
        let vc = Vc {
            name: "trivial".into(),
            hypotheses: vec![],
            body: vec![],
            conclusion: Pred::truth(),
            int_scalars: vec![],
            scope: stng_pred::vcgen::VcScope::Any,
        };
        assert!(verify_one(&vc).is_valid());
    }
}
