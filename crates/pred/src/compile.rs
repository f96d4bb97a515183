//! Compilation of verification conditions into slot-addressed bytecode.
//!
//! [`check_vc_on_state`](crate::eval::check_vc_on_state) tree-walks every
//! predicate and re-resolves every variable through a `HashMap` per
//! quantifier point — the dominant cost of the bounded screen on deep nests.
//! This module lowers a [`Vc`] **once** into flat [`Program`]s over
//! pre-resolved slots: evaluating the VC on a captured state is then a tight
//! loop over register-machine ops with zero allocation per quantifier point.
//!
//! There is one engine, [`CompiledVcSet::check_batch`], which runs a VC
//! across up to [`SLOT_BATCH_MAX_LANES`] captured states in one op-major
//! pass; [`CompiledVcSet::check`] is its one-lane call. Semantics are the
//! tree-walking evaluator's, reproduced exactly — including the
//! implication-first order (body and conclusion on every lane, hypotheses
//! only on lanes where the conclusion did not hold), evaluation (and
//! therefore error) order inside clauses, short-circuit conjunction, and
//! vacuous-on-hypothesis-error. The tree walker is the oracle only: the
//! differential property test in `stng-solve`
//! (`tests/compiled_differential.rs`) pins compiled-vs-interpreted
//! agreement down over the whole corpus, error cases included. Constructs
//! the bytecode cannot reproduce exactly fail to compile with
//! [`CompileErr`], which the bounded checker reports as an error.
//!
//! Quantified variables never touch the state: each clause's bound variables
//! are pinned to low integer registers of its per-point program, so
//! enumeration writes one register per dimension instead of inserting (and
//! restoring) `HashMap` entries.

use crate::eval::{ValueEq, VcOutcome};
use crate::lang::{Pred, QuantClause};
use crate::vcgen::Vc;
use stng_intern::guard::Budget;
use stng_ir::slots::{
    exec_stmts, lane_mask, lanes_in, BatchScratch, CompileErr, Compiler, EvalErr, Program,
    ProgramSet, Scratch, SlotBatch, SlotMap, SlotState, SlotStmt, SLOT_BATCH_MAX_LANES,
};

/// How many quantifier points the compiled enumerator evaluates between
/// budget polls. Back-edge-only polling: the per-point loop stays free of
/// clock reads and (for unlimited budgets) of atomics entirely.
const POLL_STRIDE: u32 = 256;

/// Maximum quantifier rank the compiled enumerator supports (the corpus
/// maximum is 4); deeper clauses fail to compile.
const MAX_QUANT: usize = 8;

/// One compiled quantifier bound: inclusive lower/upper bound programs plus
/// the (positive) enumeration stride.
#[derive(Debug)]
struct CompiledBound {
    lo: Program,
    hi: Program,
    step: i64,
}

/// A compiled universally quantified output equation.
#[derive(Debug)]
struct CompiledClause {
    /// Bound programs, evaluated against the state only (bounds may not
    /// reference the clause's own variables, mirroring the interpreter,
    /// which resolves every range before binding anything).
    bounds: Vec<CompiledBound>,
    /// Per-point program: integer registers `0..bounds.len()` are pinned to
    /// the quantifier values; computes the output indices into a contiguous
    /// block and the right-hand side into a data register.
    point: Program,
    /// First register of the output-index block.
    idx: u16,
    /// Output rank.
    rank: u16,
    /// Data register holding the right-hand side.
    rhs: u16,
    /// Output array slot.
    array: u32,
}

/// A compiled predicate. Conjunctions stay driver-level lists so
/// short-circuiting matches the tree walker exactly.
#[derive(Debug)]
enum CompiledPred {
    /// A quantifier-free boolean condition.
    Bool(Program),
    /// `lhs = rhs` over data values; both sides in one program.
    DataEq { prog: Program, lhs: u16, rhs: u16 },
    /// A universally quantified output equation.
    Forall(CompiledClause),
    /// The strided-loop alignment fact `var ≥ lo ∧ step | var − lo`.
    Stride { slot: u32, lo: Program, step: i64 },
    /// Conjunction, evaluated left to right with early exit.
    And(Vec<CompiledPred>),
}

/// One compiled verification condition.
#[derive(Debug)]
pub struct CompiledVc {
    /// The VC's name (for counterexample reporting).
    pub name: String,
    hypotheses: Vec<CompiledPred>,
    body: Vec<SlotStmt>,
    int_scalars: Vec<u32>,
    conclusion: CompiledPred,
}

/// A batch of compiled VCs sharing one constant pool and function table.
#[derive(Debug)]
pub struct CompiledVcSet {
    /// Compiled conditions, in input order.
    pub vcs: Vec<CompiledVc>,
    set: ProgramSet,
}

impl CompiledVcSet {
    /// Compiles every VC against the resolver. Names not yet registered
    /// (quantified variables, say) are registered as new slots; states
    /// captured against a shorter map read those slots as unbound, which is
    /// exactly the hash-map absent-key behaviour.
    ///
    /// # Errors
    ///
    /// Returns [`CompileErr`] when any VC contains a construct whose
    /// interpreter semantics the bytecode cannot reproduce exactly.
    pub fn compile(vcs: &[Vc], map: &SlotMap) -> Result<CompiledVcSet, CompileErr> {
        let mut compiler = Compiler::new(map);
        let mut out = Vec::with_capacity(vcs.len());
        for vc in vcs {
            let hypotheses = vc
                .hypotheses
                .iter()
                .map(|h| compile_pred(&mut compiler, map, h))
                .collect::<Result<_, _>>()?;
            compiler.clear_env();
            let body = compiler.compile_stmts(&vc.body)?;
            let conclusion = compile_pred(&mut compiler, map, &vc.conclusion)?;
            out.push(CompiledVc {
                name: vc.name.clone(),
                hypotheses,
                body,
                int_scalars: vc.int_scalars.iter().map(|n| map.scalar(n)).collect(),
                conclusion,
            });
        }
        Ok(CompiledVcSet {
            vcs: out,
            set: compiler.into_set(),
        })
    }

    /// A scratch space usable with every VC in the set.
    pub fn scratch<V: ValueEq>(&self) -> Scratch<V> {
        Scratch::for_set(&self.set)
    }

    /// Checks VC `k` against one pre-state — the compiled equivalent of
    /// [`check_vc_on_state`](crate::eval::check_vc_on_state), as a one-lane
    /// call of [`check_batch`](Self::check_batch).
    ///
    /// # Errors
    ///
    /// Like the interpreter: hypothesis failures are *not* errors (they make
    /// the state vacuous); body and conclusion evaluation failures on a
    /// state where every hypothesis holds propagate, and the bounded
    /// checker treats them as rejections.
    pub fn check<V: ValueEq>(
        &self,
        k: usize,
        pre: &SlotState<V>,
        sc: &mut Scratch<V>,
    ) -> Result<VcOutcome, EvalErr> {
        let mut out = Vec::with_capacity(1);
        self.check_batch(
            k,
            &[pre],
            sc,
            &mut self.batch_scratch(),
            &Budget::unlimited(),
            &mut out,
        );
        out.pop().expect("one lane in, one outcome out")
    }

    /// A batch scratch space usable with every VC in the set.
    pub fn batch_scratch<V: ValueEq>(&self) -> BatchScratch<V> {
        BatchScratch::for_set(&self.set)
    }

    /// Checks VC `k` against up to [`SLOT_BATCH_MAX_LANES`] pre-states in
    /// one pass, with predicate programs executed op-major/lane-minor over
    /// SoA-transposed columns.
    ///
    /// The VC is checked as the implication it is, conclusion first: the
    /// body runs on every lane, the conclusion is evaluated on every lane
    /// whose body succeeded, and the hypotheses are evaluated only on the
    /// lanes where the conclusion did not hold. A lane whose hypothesis is
    /// false or errors there is `Vacuous`; otherwise it keeps its body or
    /// conclusion error, or is `Violated`. On a correct candidate every
    /// lane holds and no hypothesis is evaluated at all.
    ///
    /// Each lane's outcome is the one a lane-by-lane tree walk would give,
    /// and which evaluation error fires first does not depend on the batch:
    /// mask narrowing reproduces the hypothesis short-circuit, bodies run
    /// per lane through the scalar statement executor, and quantifier
    /// clauses sweep the union box in lexicographic order so each lane
    /// visits its own points in its own order. Fuel is charged at 1 per
    /// body step and 1 per quantifier point, polled at batch granularity,
    /// so a tripped budget may surface on a different lane than a one-lane
    /// sweep would pick.
    pub fn check_batch<V: ValueEq>(
        &self,
        k: usize,
        pres: &[&SlotState<V>],
        sc: &mut Scratch<V>,
        bsc: &mut BatchScratch<V>,
        budget: &Budget,
        out: &mut Vec<Result<VcOutcome, EvalErr>>,
    ) {
        let lanes = pres.len();
        debug_assert!((1..=SLOT_BATCH_MAX_LANES).contains(&lanes));
        let vc = &self.vcs[k];
        out.clear();
        out.resize(lanes, Ok(VcOutcome::Violated));
        let mut errs: Vec<Option<EvalErr>> = vec![None; lanes];

        // Bodies are loop-free and run per lane through the scalar statement
        // executor (assignment dispatch is dynamic per state), so errors and
        // the body fuel charge are per lane.
        let mut ran = 0u64;
        let mut posts: Vec<Option<SlotState<V>>> = (0..lanes).map(|_| None).collect();
        for (lane, pre) in pres.iter().enumerate() {
            let mut post = (*pre).clone();
            for &slot in &vc.int_scalars {
                post.seed_int_slot(slot);
            }
            let mut steps = 0u64;
            if let Err(e) = exec_stmts(&vc.body, &self.set, &mut post, sc, &mut steps, 1_000_000) {
                out[lane] = Err(e);
                continue;
            }
            if budget.consume_check_fuel(steps).is_err() {
                out[lane] = Err(EvalErr::Budget);
                continue;
            }
            posts[lane] = Some(post);
            ran |= 1u64 << lane;
        }

        let mut held = 0u64;
        if ran != 0 {
            let post_refs: Vec<Option<&SlotState<V>>> = posts.iter().map(Option::as_ref).collect();
            let post = SlotBatch::transpose(&post_refs);
            held = eval_pred_batch(
                &vc.conclusion,
                &self.set,
                &post,
                &post_refs,
                sc,
                bsc,
                ran,
                budget,
                &mut errs,
            );
            for lane in lanes_in(ran) {
                if held & (1u64 << lane) != 0 {
                    out[lane] = Ok(VcOutcome::Holds);
                } else if let Some(e) = errs[lane] {
                    out[lane] = Err(e);
                }
            }
        }

        // Hypotheses, only where the conclusion did not hold: a lane whose
        // hypothesis is false *or errors* drops out as vacuous.
        let failed = lane_mask(lanes) & !held;
        if failed == 0 || vc.hypotheses.is_empty() {
            return;
        }
        errs.fill(None);
        let pre_refs: Vec<Option<&SlotState<V>>> = pres.iter().map(|s| Some(*s)).collect();
        let pre = SlotBatch::transpose(&pre_refs);
        let mut hyps_hold = failed;
        for hyp in &vc.hypotheses {
            if hyps_hold == 0 {
                break;
            }
            hyps_hold &= eval_pred_batch(
                hyp, &self.set, &pre, &pre_refs, sc, bsc, hyps_hold, budget, &mut errs,
            );
        }
        for lane in lanes_in(failed & !hyps_hold) {
            out[lane] = Ok(VcOutcome::Vacuous);
        }
    }
}

fn compile_pred(
    compiler: &mut Compiler,
    map: &SlotMap,
    pred: &Pred,
) -> Result<CompiledPred, CompileErr> {
    match pred {
        Pred::Bool(e) => {
            compiler.clear_env();
            Ok(CompiledPred::Bool(compiler.compile_bool(e)?))
        }
        Pred::DataEq { lhs, rhs } => {
            compiler.clear_env();
            let (prog, lhs, rhs) = compiler.compile_data_pair(lhs, rhs)?;
            Ok(CompiledPred::DataEq { prog, lhs, rhs })
        }
        Pred::Forall(clause) => Ok(CompiledPred::Forall(compile_clause(compiler, map, clause)?)),
        Pred::Stride { var, lo, step } => {
            compiler.clear_env();
            Ok(CompiledPred::Stride {
                slot: map.scalar(var),
                lo: compiler.compile_int(lo)?,
                step: *step,
            })
        }
        Pred::And(ps) => Ok(CompiledPred::And(
            ps.iter()
                .map(|p| compile_pred(compiler, map, p))
                .collect::<Result<_, _>>()?,
        )),
    }
}

fn compile_clause(
    compiler: &mut Compiler,
    map: &SlotMap,
    clause: &QuantClause,
) -> Result<CompiledClause, CompileErr> {
    if clause.bounds.len() > MAX_QUANT {
        return Err(CompileErr(format!(
            "clause quantifies {} variables (max {MAX_QUANT})",
            clause.bounds.len()
        )));
    }
    compiler.clear_env();
    let mut bounds = Vec::with_capacity(clause.bounds.len());
    for b in &clause.bounds {
        bounds.push(CompiledBound {
            lo: compiler.compile_int(&b.inclusive_lo())?,
            hi: compiler.compile_int(&b.inclusive_hi())?,
            step: b.step.max(1),
        });
    }
    // Per-point program with the quantified variables pinned to registers.
    let vars: Vec<String> = clause.bounds.iter().map(|b| b.var.clone()).collect();
    compiler.set_env(&vars);
    let (point, idx, rhs) = compiler.compile_indexed_value(&clause.eq.indices, &clause.eq.rhs)?;
    compiler.clear_env();
    Ok(CompiledClause {
        bounds,
        point,
        idx,
        rank: clause.eq.indices.len() as u16,
        rhs,
        array: map.array(&clause.eq.array),
    })
}

/// Enumerates one lane's clause points in lexicographic order.
fn eval_clause<V: ValueEq>(
    clause: &CompiledClause,
    set: &ProgramSet,
    st: &SlotState<V>,
    sc: &mut Scratch<V>,
    budget: &Budget,
) -> Result<bool, EvalErr> {
    let n = clause.bounds.len();
    let mut lo = [0i64; MAX_QUANT];
    let mut hi = [0i64; MAX_QUANT];
    let mut step = [1i64; MAX_QUANT];
    for (k, b) in clause.bounds.iter().enumerate() {
        lo[k] = b.lo.eval_int(set, st, sc)?;
        hi[k] = b.hi.eval_int(set, st, sc)?;
        step[k] = b.step;
    }
    // Empty ranges make the clause vacuously true.
    if (0..n).any(|k| lo[k] > hi[k]) {
        return Ok(true);
    }
    // Size the banks before writing the pinned quantifier registers, and
    // hoist the (state-immutable) output-array lookup out of the loop. The
    // unbound-array failure fires before the first point's index evaluation
    // instead of after it; both reject identically.
    sc.reserve(&clause.point);
    let arr = st
        .array_slot(clause.array)
        .ok_or(EvalErr::UnboundArray(clause.array))?;
    let mut cur = [0i64; MAX_QUANT];
    cur[..n].copy_from_slice(&lo[..n]);
    let mut since_poll: u32 = 0;
    loop {
        sc.iregs[..n].copy_from_slice(&cur[..n]);
        clause.point.run(set, st, sc)?;
        let ix = &sc.iregs[clause.idx as usize..(clause.idx + clause.rank) as usize];
        let holds = arr
            .get(ix)
            .ok_or(EvalErr::OobLoad(clause.array))?
            .value_eq(sc.dreg(clause.rhs));
        if !holds {
            return Ok(false);
        }
        // Back-edge budget poll: only every POLL_STRIDE points, so the per
        // point path adds one increment and one compare.
        since_poll += 1;
        if since_poll == POLL_STRIDE {
            since_poll = 0;
            if budget.consume_check_fuel(POLL_STRIDE as u64).is_err() {
                return Err(EvalErr::Budget);
            }
        }
        // Advance the multi-index, last variable fastest, stepping each
        // dimension by its domain stride.
        let mut dim = n;
        loop {
            if dim == 0 {
                return Ok(true);
            }
            dim -= 1;
            cur[dim] += step[dim];
            if cur[dim] <= hi[dim] {
                break;
            }
            cur[dim] = lo[dim];
        }
    }
}

/// Evaluates the predicate for every lane in `active` and returns the mask
/// of lanes where it is *true*. A lane that evaluates to false simply drops
/// out of the returned mask; a lane that errors additionally records its
/// failure in `errs[lane]` (first error per lane wins, matching the tree
/// walker's error-surfacing order). `states` holds the per-lane originals
/// for the per-lane paths (programs with lane-divergent short-circuit
/// jumps, stride-misaligned clause chunks).
#[allow(clippy::too_many_arguments)]
fn eval_pred_batch<V: ValueEq>(
    pred: &CompiledPred,
    set: &ProgramSet,
    batch: &SlotBatch<'_, V>,
    states: &[Option<&SlotState<V>>],
    sc: &mut Scratch<V>,
    bsc: &mut BatchScratch<V>,
    active: u64,
    budget: &Budget,
    errs: &mut [Option<EvalErr>],
) -> u64 {
    match pred {
        CompiledPred::Bool(p) => {
            if p.straight_line() {
                let ran = p.run_batch(set, batch, bsc, active, errs);
                let mut t = 0u64;
                for lane in lanes_in(ran) {
                    if bsc.breg(p.result, lane) {
                        t |= 1u64 << lane;
                    }
                }
                t
            } else {
                // Short-circuit jumps diverge across lanes: scalar per lane.
                let mut t = 0u64;
                for lane in lanes_in(active) {
                    match p.eval_bool(set, states[lane].expect("active lane"), sc) {
                        Ok(true) => t |= 1u64 << lane,
                        Ok(false) => {}
                        Err(e) => errs[lane] = Some(e),
                    }
                }
                t
            }
        }
        CompiledPred::DataEq { prog, lhs, rhs } => {
            let ran = prog.run_batch(set, batch, bsc, active, errs);
            let mut t = 0u64;
            for lane in lanes_in(ran) {
                if bsc.dreg(*lhs, lane).clone().value_eq(bsc.dreg(*rhs, lane)) {
                    t |= 1u64 << lane;
                }
            }
            t
        }
        CompiledPred::Forall(clause) => {
            eval_clause_batch(clause, set, batch, states, sc, bsc, active, budget, errs)
        }
        CompiledPred::Stride { slot, lo, step } => {
            // The tree walker reads the variable before evaluating `lo`, so
            // an unbound variable must win over a lower-bound error.
            let mut have = 0u64;
            for lane in lanes_in(active) {
                if batch.int(*slot, lane).is_some() {
                    have |= 1u64 << lane;
                } else {
                    errs[lane] = Some(EvalErr::UnboundInt(*slot));
                }
            }
            let ran = lo.run_batch(set, batch, bsc, have, errs);
            let mut t = 0u64;
            for lane in lanes_in(ran) {
                let v = batch.int(*slot, lane).expect("bound lane");
                let l = bsc.ireg(lo.result, lane);
                if v >= l && (v - l).rem_euclid(*step) == 0 {
                    t |= 1u64 << lane;
                }
            }
            t
        }
        CompiledPred::And(ps) => {
            // Mask narrowing *is* the per-lane short-circuit: a lane false
            // or errored in one conjunct never evaluates the next.
            let mut m = active;
            for p in ps {
                if m == 0 {
                    break;
                }
                m = eval_pred_batch(p, set, batch, states, sc, bsc, m, budget, errs);
            }
            m
        }
    }
}

/// Per-lane enumeration for clause chunks the batched enumerator cannot
/// share a lattice for.
fn clause_lanes_scalar<V: ValueEq>(
    clause: &CompiledClause,
    set: &ProgramSet,
    states: &[Option<&SlotState<V>>],
    sc: &mut Scratch<V>,
    active: u64,
    budget: &Budget,
    errs: &mut [Option<EvalErr>],
) -> u64 {
    let mut t = 0u64;
    for lane in lanes_in(active) {
        match eval_clause(clause, set, states[lane].expect("active lane"), sc, budget) {
            Ok(true) => t |= 1u64 << lane,
            Ok(false) => {}
            Err(e) => errs[lane] = Some(e),
        }
    }
    t
}

/// Batched [`eval_clause`]: one lexicographic sweep of the lanes' *union*
/// box with per-dimension lane masks selecting which lanes each point
/// belongs to. Restricting the union sweep to a lane's own box preserves
/// lexicographic order, so every lane sees exactly its own enumeration —
/// same first violation, same first error — while the point program runs
/// once per point instead of once per (lane, point).
#[allow(clippy::too_many_arguments)]
fn eval_clause_batch<V: ValueEq>(
    clause: &CompiledClause,
    set: &ProgramSet,
    batch: &SlotBatch<'_, V>,
    states: &[Option<&SlotState<V>>],
    sc: &mut Scratch<V>,
    bsc: &mut BatchScratch<V>,
    active: u64,
    budget: &Budget,
    errs: &mut [Option<EvalErr>],
) -> u64 {
    let batchable = clause.point.straight_line()
        && clause
            .bounds
            .iter()
            .all(|b| b.lo.straight_line() && b.hi.straight_line());
    if !batchable {
        return clause_lanes_scalar(clause, set, states, sc, active, budget, errs);
    }
    let n = clause.bounds.len();
    let lanes = batch.lanes();
    // Bounds per lane, evaluated in the tree walker's order (lo then hi,
    // dimension by dimension) so the first bound error per lane matches it;
    // an errored lane skips the remaining bound programs.
    let mut lo = vec![0i64; n * lanes];
    let mut hi = vec![0i64; n * lanes];
    let mut ok = active;
    for (d, b) in clause.bounds.iter().enumerate() {
        ok = b.lo.run_batch(set, batch, bsc, ok, errs);
        for lane in lanes_in(ok) {
            lo[d * lanes + lane] = bsc.ireg(b.lo.result, lane);
        }
        ok = b.hi.run_batch(set, batch, bsc, ok, errs);
        for lane in lanes_in(ok) {
            hi[d * lanes + lane] = bsc.ireg(b.hi.result, lane);
        }
    }
    // Empty ranges are vacuously true.
    let mut t = 0u64;
    let mut enumerate = 0u64;
    for lane in lanes_in(ok) {
        if (0..n).any(|d| lo[d * lanes + lane] > hi[d * lanes + lane]) {
            t |= 1u64 << lane;
        } else {
            enumerate |= 1u64 << lane;
        }
    }
    if enumerate == 0 {
        return t;
    }
    // The output array is resolved before the first point, as in
    // `eval_clause`.
    for lane in lanes_in(enumerate) {
        if batch.array(clause.array, lane).is_none() {
            errs[lane] = Some(EvalErr::UnboundArray(clause.array));
            enumerate &= !(1u64 << lane);
        }
    }
    if enumerate == 0 {
        return t;
    }
    // A shared lattice per dimension needs every lane's `lo` on the same
    // residue when the stride exceeds 1; disagreeing chunks fall back to
    // per-lane scalar enumeration (no corpus kernel hits this today).
    for (d, b) in clause.bounds.iter().enumerate() {
        if b.step > 1 {
            let mut it = lanes_in(enumerate);
            let r0 = lo[d * lanes + it.next().expect("nonempty mask")].rem_euclid(b.step);
            if it.any(|lane| lo[d * lanes + lane].rem_euclid(b.step) != r0) {
                return t | clause_lanes_scalar(clause, set, states, sc, enumerate, budget, errs);
            }
        }
    }
    // Union box and per-dimension in-range lane masks: `dim_masks[d][j]` is
    // the set of lanes whose range contains lattice point `ulo[d] + j*step`.
    let mut ulo = [0i64; MAX_QUANT];
    for d in 0..n {
        ulo[d] = lanes_in(enumerate)
            .map(|l| lo[d * lanes + l])
            .min()
            .expect("nonempty mask");
    }
    let mut dim_masks: Vec<Vec<u64>> = Vec::with_capacity(n);
    for (d, b) in clause.bounds.iter().enumerate() {
        let uhi = lanes_in(enumerate)
            .map(|l| hi[d * lanes + l])
            .max()
            .expect("nonempty mask");
        let width = ((uhi - ulo[d]).div_euclid(b.step) + 1) as usize;
        let mut col = vec![0u64; width];
        for lane in lanes_in(enumerate) {
            let j0 = ((lo[d * lanes + lane] - ulo[d]) / b.step) as usize;
            let j1 = ((hi[d * lanes + lane] - ulo[d]).div_euclid(b.step)) as usize;
            for m in col.iter_mut().take(j1 + 1).skip(j0) {
                *m |= 1u64 << lane;
            }
        }
        dim_masks.push(col);
    }
    // Lexicographic sweep, last dimension fastest. A lane leaves `alive` the
    // moment its outcome is decided (violation or error); lanes alive after
    // the sweep saw all their points hold.
    bsc.reserve(&clause.point, lanes);
    let mut cur = [0i64; MAX_QUANT];
    let mut jj = [0usize; MAX_QUANT];
    cur[..n].copy_from_slice(&ulo[..n]);
    let mut alive = enumerate;
    let mut since_poll: u64 = 0;
    'points: loop {
        let mut at = alive;
        for d in 0..n {
            at &= dim_masks[d][jj[d]];
        }
        if at != 0 {
            for (d, &c) in cur.iter().enumerate().take(n) {
                bsc.pin_ireg(d as u16, c);
            }
            let ran = clause.point.run_batch(set, batch, bsc, at, errs);
            alive &= !(at & !ran);
            // The target cell is lane-invariant whenever the index registers
            // are (always true for straight quantifier-var indices): resolve
            // the flat offset once and compare per lane.
            let shared = if ran != 0
                && batch.array_dims_uniform(clause.array)
                && (clause.idx..clause.idx + clause.rank).all(|r| bsc.ireg_uniform(r))
            {
                let lane = ran.trailing_zeros() as usize;
                let arr = batch.array(clause.array, lane).expect("checked above");
                let mut ix = [0i64; MAX_QUANT];
                for (i, r) in (clause.idx..clause.idx + clause.rank).enumerate() {
                    ix[i] = bsc.ireg(r, lane);
                }
                Some(arr.offset(&ix[..clause.rank as usize]))
            } else {
                None
            };
            for lane in lanes_in(ran) {
                let arr = batch.array(clause.array, lane).expect("checked above");
                let off = match shared {
                    Some(off) => off,
                    None => {
                        let mut ix = [0i64; MAX_QUANT];
                        for (i, r) in (clause.idx..clause.idx + clause.rank).enumerate() {
                            ix[i] = bsc.ireg(r, lane);
                        }
                        arr.offset(&ix[..clause.rank as usize])
                    }
                };
                match off {
                    Some(o) => {
                        if !arr.data[o].value_eq(bsc.dreg(clause.rhs, lane)) {
                            alive &= !(1u64 << lane);
                        }
                    }
                    None => {
                        errs[lane] = Some(EvalErr::OobLoad(clause.array));
                        alive &= !(1u64 << lane);
                    }
                }
            }
            // Back-edge budget poll at batch granularity: one fuel per
            // (point, lane), charged every >= POLL_STRIDE accumulated.
            since_poll += at.count_ones() as u64;
            if since_poll >= POLL_STRIDE as u64 {
                if budget.consume_check_fuel(since_poll).is_err() {
                    for lane in lanes_in(alive) {
                        errs[lane] = Some(EvalErr::Budget);
                    }
                    alive = 0;
                }
                since_poll = 0;
            }
            if alive == 0 {
                break 'points;
            }
        }
        let mut d = n;
        loop {
            if d == 0 {
                break 'points;
            }
            d -= 1;
            jj[d] += 1;
            cur[d] += clause.bounds[d].step;
            if jj[d] < dim_masks[d].len() {
                break;
            }
            jj[d] = 0;
            cur[d] = ulo[d];
        }
    }
    t | alive
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::check_vc_on_state;
    use crate::fixtures;
    use crate::vcgen::{analyze_loop_nest, generate_vcs};
    use std::sync::Arc;
    use stng_ir::interp::{run_kernel, ArrayData, State};
    use stng_ir::lower::kernel_from_source;

    fn example() -> (stng_ir::ir::Kernel, State<f64>) {
        let kernel = kernel_from_source(fixtures::RUNNING_EXAMPLE, 0).unwrap();
        let mut state: State<f64> = State::new();
        state
            .set_int("imin", 0)
            .set_int("imax", 4)
            .set_int("jmin", 0)
            .set_int("jmax", 3);
        state.allocate_arrays(&kernel, 0.0).unwrap();
        let b = ArrayData::from_fn(vec![(0, 4), (0, 3)], |ix| {
            (ix[0] * 3 + ix[1] * 7) as f64 * 0.25 + 1.0
        });
        state.set_array("b", b);
        (kernel, state)
    }

    #[test]
    fn compiled_vcs_agree_with_interpreter_on_running_example() {
        let (kernel, mut state) = example();
        let nest = analyze_loop_nest(&kernel).unwrap();
        let vcs = generate_vcs(
            &nest,
            &kernel.assumptions,
            &fixtures::running_example_invariants(),
            &fixtures::running_example_post(),
        );
        let map = Arc::new(stng_ir::slots::SlotMap::for_kernel(&kernel));
        let compiled = CompiledVcSet::compile(&vcs, &map).unwrap();
        let mut sc = compiled.scratch::<f64>();

        // Compare on the initial state and the final state of a full run.
        for _ in 0..2 {
            let slot_state = SlotState::from_state(&state, &map);
            for (k, vc) in vcs.iter().enumerate() {
                let interp = check_vc_on_state(vc, &state);
                let fast = compiled.check(k, &slot_state, &mut sc);
                match (interp, fast) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b, "outcome mismatch on {}", vc.name),
                    (Err(_), Err(_)) => {}
                    (a, b) => panic!("divergence on {}: interp {a:?} vs compiled {b:?}", vc.name),
                }
            }
            run_kernel(&kernel, &mut state).unwrap();
        }
    }

    #[test]
    fn real_binding_shadowing_a_quantifier_matches_interpreter() {
        // The interpreter binds quantifier values into the *integer* cells
        // and data-position reads consult the real cell first, so a stale
        // real binding spelled like the quantified variable shadows the
        // loop value. The compiled engine must reproduce that (Op::DScalarOrReg).
        let (kernel, mut state) = example();
        run_kernel(&kernel, &mut state).unwrap();
        state.set_real("vi", 3.25);
        let mut post = fixtures::running_example_post();
        // `vi` in a data position of the rhs: a[vi, vj] = b[vi, vj] * vi.
        post.clauses[0].eq.rhs = stng_ir::ir::IrExpr::mul(
            stng_ir::ir::IrExpr::Load {
                array: "b".into(),
                indices: vec![
                    stng_ir::ir::IrExpr::var("vi"),
                    stng_ir::ir::IrExpr::var("vj"),
                ],
            },
            stng_ir::ir::IrExpr::var("vi"),
        );
        let vc = Vc {
            name: "shadow".into(),
            hypotheses: vec![],
            body: vec![],
            conclusion: Pred::Forall(post.clauses[0].clone()),
            int_scalars: vec![],
            scope: crate::vcgen::VcScope::Any,
        };
        let map = Arc::new(stng_ir::slots::SlotMap::for_kernel(&kernel));
        let compiled = CompiledVcSet::compile(std::slice::from_ref(&vc), &map).unwrap();
        let mut sc = compiled.scratch::<f64>();
        let slot_state = SlotState::from_state(&state, &map);
        let interp = check_vc_on_state(&vc, &state).unwrap();
        let fast = compiled.check(0, &slot_state, &mut sc).unwrap();
        assert_eq!(interp, fast);
        // And the shadow must actually bite: unbinding the real makes the
        // outcome differ from the shadowed evaluation in both engines alike.
        state.reals.remove("vi");
        let slot_state = SlotState::from_state(
            &state,
            &Arc::new(stng_ir::slots::SlotMap::for_kernel(&kernel)),
        );
        let compiled2 =
            CompiledVcSet::compile(std::slice::from_ref(&vc), slot_state.map()).unwrap();
        let mut sc2 = compiled2.scratch::<f64>();
        let interp2 = check_vc_on_state(&vc, &state).unwrap();
        let fast2 = compiled2.check(0, &slot_state, &mut sc2).unwrap();
        assert_eq!(interp2, fast2);
    }

    #[test]
    fn batched_check_agrees_with_scalar_lane_for_lane() {
        // Correct, violated, and erroring postconditions, each checked on a
        // batch mixing the initial and final states: every lane's outcome
        // must equal the tree interpreter's, and its exact error must equal
        // the one-lane call's. The same lanes are checked twice: deep-copied
        // (every lane owns its arrays) and shared (lanes cloned from one
        // `SlotState`, with `b` one payload for all lanes as in a capture),
        // which drives the lane-uniform load path; both batches must report
        // identical per-lane outcomes and errors.
        let (kernel, mut state) = example();
        let nest = analyze_loop_nest(&kernel).unwrap();
        let initial = state.clone();
        run_kernel(&kernel, &mut state).unwrap();
        let mut wrong = fixtures::running_example_post();
        wrong.clauses[0].eq.rhs = stng_ir::ir::IrExpr::Load {
            array: "b".into(),
            indices: vec![
                stng_ir::ir::IrExpr::var("vi"),
                stng_ir::ir::IrExpr::var("vj"),
            ],
        };
        let mut erroring = fixtures::running_example_post();
        erroring.clauses[0].eq.rhs = stng_ir::ir::IrExpr::Load {
            array: "b".into(),
            indices: vec![
                stng_ir::ir::IrExpr::add(
                    stng_ir::ir::IrExpr::var("vi"),
                    stng_ir::ir::IrExpr::Int(900),
                ),
                stng_ir::ir::IrExpr::var("vj"),
            ],
        };
        let invariants = fixtures::running_example_invariants();
        for post in [fixtures::running_example_post(), wrong, erroring] {
            let vcs = generate_vcs(&nest, &kernel.assumptions, &invariants, &post);
            let map = Arc::new(stng_ir::slots::SlotMap::for_kernel(&kernel));
            let compiled = CompiledVcSet::compile(&vcs, &map).unwrap();
            let mut sc = compiled.scratch::<f64>();
            let mut bsc = compiled.batch_scratch::<f64>();
            let oracle = [&initial, &state, &initial, &state];
            let deep: Vec<SlotState<f64>> = oracle
                .iter()
                .map(|s| SlotState::from_state(s, &map))
                .collect();
            let b = map.array("b");
            let first = SlotState::from_state(&initial, &map);
            let mut last = SlotState::from_state(&state, &map);
            last.arrays[b as usize] = first.arrays[b as usize].clone();
            let shared = vec![first.clone(), last.clone(), first, last];
            let shared_refs: Vec<Option<&SlotState<f64>>> = shared.iter().map(Some).collect();
            assert!(
                SlotBatch::transpose(&shared_refs)
                    .shared_payload(b, lane_mask(shared.len()))
                    .is_some(),
                "every shared lane must bind one payload for b"
            );
            let mut results = Vec::new();
            for lanes in [&deep, &shared] {
                let refs: Vec<&SlotState<f64>> = lanes.iter().collect();
                let mut per_vc = Vec::new();
                for (k, vc) in vcs.iter().enumerate() {
                    let mut out = Vec::new();
                    compiled.check_batch(
                        k,
                        &refs,
                        &mut sc,
                        &mut bsc,
                        &Budget::unlimited(),
                        &mut out,
                    );
                    assert_eq!(out.len(), refs.len());
                    for (lane, got) in out.iter().enumerate() {
                        let interp = check_vc_on_state(vc, oracle[lane]);
                        let one_lane = compiled.check(k, refs[lane], &mut sc);
                        match (interp, got) {
                            (Ok(a), Ok(b)) => assert_eq!(a, *b, "lane {lane} on {}", vc.name),
                            (Err(_), Err(b)) => {
                                assert_eq!(one_lane, Err(*b), "lane {lane} on {}", vc.name)
                            }
                            (a, b) => {
                                panic!("divergence lane {lane} on {}: {a:?} vs {b:?}", vc.name)
                            }
                        }
                    }
                    per_vc.push(out);
                }
                results.push(per_vc);
            }
            assert_eq!(results[0], results[1], "deep-copied vs shared lanes");
        }
    }

    /// The implication-first truth table, row by row, in the tree walker,
    /// the one-lane `check` and one 64-lane `check_batch`. Lane `l` binds
    /// `i = l`, and `k = l` only for `l < 32`, so both hypothesis flavours
    /// hold on lanes 0..32 and fail on lanes 32..64: `i < 32` is false
    /// there, and the stride fact over `k` errs (unbound).
    #[test]
    fn implication_truth_table_in_every_engine() {
        use stng_ir::ir::{CmpOp, IrExpr, IrStmt};
        let (kernel, base) = example();
        let map = Arc::new(stng_ir::slots::SlotMap::for_kernel(&kernel));
        let lanes: Vec<State<f64>> = (0..SLOT_BATCH_MAX_LANES as i64)
            .map(|l| {
                let mut s = base.clone();
                s.set_int("i", l);
                if l < 32 {
                    s.set_int("k", l);
                }
                s
            })
            .collect();
        let slot_lanes: Vec<SlotState<f64>> = lanes
            .iter()
            .map(|s| SlotState::from_state(s, &map))
            .collect();
        let cmp = |op, a: IrExpr, b: IrExpr| Pred::Bool(IrExpr::cmp(op, a, b));
        let holds = cmp(CmpOp::Eq, IrExpr::Int(0), IrExpr::Int(0));
        let fails = cmp(CmpOp::Eq, IrExpr::Int(0), IrExpr::Int(1));
        let errs = cmp(CmpOp::Eq, IrExpr::var("never_bound"), IrExpr::Int(0));
        let oob_store = IrStmt::Store {
            array: "a".into(),
            indices: vec![IrExpr::Int(900), IrExpr::Int(0)],
            value: IrExpr::Real(0.0),
        };
        let i_nonneg = cmp(CmpOp::Ge, IrExpr::var("i"), IrExpr::Int(0));
        let hyp_false = cmp(CmpOp::Lt, IrExpr::var("i"), IrExpr::Int(32));
        let hyp_errs = Pred::Stride {
            var: "k".into(),
            lo: IrExpr::Int(0),
            step: 1,
        };
        // (name, body, conclusion, outcome where the hypotheses hold).
        // Where they fail, a holding conclusion still `Holds` and every
        // other row is `Vacuous`.
        #[derive(Debug, PartialEq)]
        enum Want {
            Holds,
            Violated,
            BodyErr,
            ConclErr,
        }
        let rows = [
            ("holds", vec![], holds, Want::Holds),
            ("violated", vec![], fails, Want::Violated),
            ("conclusion-error", vec![], errs.clone(), Want::ConclErr),
            ("body-error-first", vec![oob_store], errs, Want::BodyErr),
        ];
        let mut vcs = Vec::new();
        for (name, body, conclusion, _) in &rows {
            for (flavour, hyp) in [("false", &hyp_false), ("errs", &hyp_errs)] {
                vcs.push(Vc {
                    name: format!("{name}/hyp-{flavour}"),
                    hypotheses: vec![i_nonneg.clone(), hyp.clone()],
                    body: body.clone(),
                    conclusion: conclusion.clone(),
                    int_scalars: vec![],
                    scope: crate::vcgen::VcScope::Any,
                });
            }
        }
        let compiled = CompiledVcSet::compile(&vcs, &map).unwrap();
        let mut sc = compiled.scratch::<f64>();
        let mut bsc = compiled.batch_scratch::<f64>();
        let refs: Vec<&SlotState<f64>> = slot_lanes.iter().collect();
        let a = map.array("a");
        let never_bound = map.scalar("never_bound");
        for (k, vc) in vcs.iter().enumerate() {
            let want = &rows[k / 2].3;
            let mut batch = Vec::new();
            compiled.check_batch(
                k,
                &refs,
                &mut sc,
                &mut bsc,
                &Budget::unlimited(),
                &mut batch,
            );
            assert_eq!(batch.len(), SLOT_BATCH_MAX_LANES);
            for (lane, state) in lanes.iter().enumerate() {
                let hyps_hold = lane < 32;
                let expect: Result<VcOutcome, EvalErr> = match want {
                    Want::Holds => Ok(VcOutcome::Holds),
                    _ if !hyps_hold => Ok(VcOutcome::Vacuous),
                    Want::Violated => Ok(VcOutcome::Violated),
                    Want::BodyErr => Err(EvalErr::OobStore(a)),
                    Want::ConclErr => Err(EvalErr::UnboundInt(never_bound)),
                };
                let at = format!("{} lane {lane}", vc.name);
                assert_eq!(batch[lane], expect, "64-lane batch, {at}");
                assert_eq!(
                    compiled.check(k, refs[lane], &mut sc),
                    expect,
                    "one lane, {at}"
                );
                match (check_vc_on_state(vc, state), expect) {
                    (Ok(got), Ok(expect)) => assert_eq!(got, expect, "tree walker, {at}"),
                    (Err(e), Err(EvalErr::OobStore(_))) => {
                        assert!(e.to_string().contains("store index"), "{at}: {e}")
                    }
                    (Err(e), Err(_)) => assert!(e.to_string().contains("never_bound"), "{at}: {e}"),
                    (got, expect) => panic!("tree walker, {at}: {got:?} vs {expect:?}"),
                }
            }
        }
    }

    #[test]
    fn violated_and_error_cases_agree() {
        let (kernel, mut state) = example();
        run_kernel(&kernel, &mut state).unwrap();
        let nest = analyze_loop_nest(&kernel).unwrap();
        // Wrong postcondition: claims a = b, so the exit VC is violated on
        // the final state; and an out-of-range read makes evaluation error.
        let mut wrong = fixtures::running_example_post();
        wrong.clauses[0].eq.rhs = stng_ir::ir::IrExpr::Load {
            array: "b".into(),
            indices: vec![
                stng_ir::ir::IrExpr::var("vi"),
                stng_ir::ir::IrExpr::var("vj"),
            ],
        };
        let mut erroring = fixtures::running_example_post();
        erroring.clauses[0].eq.rhs = stng_ir::ir::IrExpr::Load {
            array: "b".into(),
            indices: vec![
                stng_ir::ir::IrExpr::add(
                    stng_ir::ir::IrExpr::var("vi"),
                    stng_ir::ir::IrExpr::Int(900),
                ),
                stng_ir::ir::IrExpr::var("vj"),
            ],
        };
        let invariants = fixtures::running_example_invariants();
        for post in [wrong, erroring] {
            let vcs = generate_vcs(&nest, &kernel.assumptions, &invariants, &post);
            let map = Arc::new(stng_ir::slots::SlotMap::for_kernel(&kernel));
            let compiled = CompiledVcSet::compile(&vcs, &map).unwrap();
            let mut sc = compiled.scratch::<f64>();
            let slot_state = SlotState::from_state(&state, &map);
            for (k, vc) in vcs.iter().enumerate() {
                let interp = check_vc_on_state(vc, &state);
                let fast = compiled.check(k, &slot_state, &mut sc);
                match (interp, fast) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b, "outcome mismatch on {}", vc.name),
                    (Err(_), Err(_)) => {}
                    (a, b) => panic!("divergence on {}: interp {a:?} vs compiled {b:?}", vc.name),
                }
            }
        }
    }
}
