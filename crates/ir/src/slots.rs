//! Slot-addressed machine states and a compiled expression bytecode.
//!
//! The bounded checker's inner loop evaluates the same small expressions on
//! millions of quantifier points. With the `HashMap<String, _>`-keyed
//! [`State`](crate::interp::State), every variable reference hashes a string
//! and every quantifier binding clones one. This module removes both costs:
//!
//! * [`SlotMap`] — a name → dense-slot resolver. Scalars share one slot
//!   space (a slot has both an integer and a real cell, mirroring the
//!   interpreter's dynamic int-vs-data scalar dispatch); arrays have their
//!   own space. The map only grows, so states built against an older, shorter
//!   map stay valid: an out-of-range slot simply reads as unbound.
//! * [`SlotState`] — flat `Vec`-backed state addressed by slots. Arrays are
//!   `Arc`-shared, so cloning a state (one clone per captured snapshot, one
//!   per VC body execution) is a few flat memcpys plus reference bumps;
//!   arrays are copied only when a store actually mutates them.
//! * [`Compiler`] / [`Program`] — a register-machine bytecode for
//!   [`IrExpr`] and straight-line [`IrStmt`] lists. A compiled program is a
//!   flat op vector over pre-resolved slots; evaluating it allocates
//!   nothing. Compilation is *conservative*: any construct whose evaluation
//!   the bytecode cannot reproduce exactly (conditionals, unknown integer
//!   intrinsics, boolean sub-terms in arithmetic positions) fails to compile
//!   with [`CompileErr`], and callers fall back to the tree-walking
//!   interpreter, which remains the semantic oracle.
//!
//! The String-keyed `State` API is unchanged; [`SlotState::from_state`] and
//! [`SlotState::to_state`] convert between the two representations (the
//! differential tests lean on `to_state` to compare against the oracle).

use crate::error::Error;
use crate::interp::{ArrayData, State};
use crate::ir::{BinOp, CmpOp, IrExpr, IrStmt};
use crate::value::DataValue;
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

// ------------------------------------------------------------------ SlotMap

#[derive(Debug, Default)]
struct MapInner {
    scalars: HashMap<String, u32>,
    scalar_names: Vec<String>,
    arrays: HashMap<String, u32>,
    array_names: Vec<String>,
}

/// A thread-safe, grow-only resolver from names to dense slot indices.
///
/// One map is shared by everything participating in a checking session: the
/// captured states, the compiled kernel body, and every compiled VC.
/// Registering a name after states were captured is sound — those states
/// treat the new (out-of-range) slot as unbound, exactly as the hash-map
/// state treats an absent key.
#[derive(Debug, Default)]
pub struct SlotMap {
    inner: RwLock<MapInner>,
}

impl SlotMap {
    /// An empty map.
    pub fn new() -> SlotMap {
        SlotMap::default()
    }

    /// A map pre-registering every parameter, local, and loop counter of a
    /// kernel.
    pub fn for_kernel(kernel: &crate::ir::Kernel) -> SlotMap {
        let map = SlotMap::new();
        for p in kernel.params.iter().chain(&kernel.locals) {
            match &p.kind {
                crate::ir::ParamKind::Array { .. } => {
                    map.array(&p.name);
                }
                _ => {
                    map.scalar(&p.name);
                }
            }
        }
        for var in kernel.loop_vars() {
            map.scalar(&var);
        }
        map
    }

    /// Resolves (registering if new) the scalar slot of `name`.
    pub fn scalar(&self, name: &str) -> u32 {
        if let Some(&s) = self
            .inner
            .read()
            .expect("slot map poisoned")
            .scalars
            .get(name)
        {
            return s;
        }
        let mut inner = self.inner.write().expect("slot map poisoned");
        if let Some(&s) = inner.scalars.get(name) {
            return s;
        }
        let slot = inner.scalar_names.len() as u32;
        inner.scalar_names.push(name.to_string());
        inner.scalars.insert(name.to_string(), slot);
        slot
    }

    /// Resolves (registering if new) the array slot of `name`.
    pub fn array(&self, name: &str) -> u32 {
        if let Some(&s) = self
            .inner
            .read()
            .expect("slot map poisoned")
            .arrays
            .get(name)
        {
            return s;
        }
        let mut inner = self.inner.write().expect("slot map poisoned");
        if let Some(&s) = inner.arrays.get(name) {
            return s;
        }
        let slot = inner.array_names.len() as u32;
        inner.array_names.push(name.to_string());
        inner.arrays.insert(name.to_string(), slot);
        slot
    }

    /// The scalar slot of `name`, if registered.
    pub fn lookup_scalar(&self, name: &str) -> Option<u32> {
        self.inner
            .read()
            .expect("slot map poisoned")
            .scalars
            .get(name)
            .copied()
    }

    /// The array slot of `name`, if registered.
    pub fn lookup_array(&self, name: &str) -> Option<u32> {
        self.inner
            .read()
            .expect("slot map poisoned")
            .arrays
            .get(name)
            .copied()
    }

    /// The name registered at a scalar slot.
    pub fn scalar_name(&self, slot: u32) -> String {
        self.inner.read().expect("slot map poisoned").scalar_names[slot as usize].clone()
    }

    /// The name registered at an array slot.
    pub fn array_name(&self, slot: u32) -> String {
        self.inner.read().expect("slot map poisoned").array_names[slot as usize].clone()
    }

    /// Number of registered scalar names.
    pub fn scalar_count(&self) -> usize {
        self.inner
            .read()
            .expect("slot map poisoned")
            .scalar_names
            .len()
    }

    /// Number of registered array names.
    pub fn array_count(&self) -> usize {
        self.inner
            .read()
            .expect("slot map poisoned")
            .array_names
            .len()
    }
}

// ---------------------------------------------------------------- SlotState

/// A machine state stored in flat slot-indexed vectors.
///
/// Scalar slot `s` has an integer cell (`ints[s]`) and a real cell
/// (`reals[s]`); a bound integer cell makes the scalar "integer-kinded" for
/// the interpreter's dynamic assignment dispatch, mirroring
/// `state.ints.contains_key(name)` on the hash-map state. Arrays are
/// `Arc`-shared and copied on first mutation.
#[derive(Debug, Clone)]
pub struct SlotState<V> {
    map: Arc<SlotMap>,
    /// Integer cells, indexed by scalar slot.
    pub ints: Vec<Option<i64>>,
    /// Real (data-domain) cells, indexed by scalar slot.
    pub reals: Vec<Option<V>>,
    /// Array cells, indexed by array slot.
    pub arrays: Vec<Option<Arc<ArrayData<V>>>>,
}

impl<V: DataValue> SlotState<V> {
    /// An empty state bound to a resolver.
    pub fn new(map: Arc<SlotMap>) -> SlotState<V> {
        SlotState {
            map,
            ints: Vec::new(),
            reals: Vec::new(),
            arrays: Vec::new(),
        }
    }

    /// The resolver this state is addressed by.
    pub fn map(&self) -> &Arc<SlotMap> {
        &self.map
    }

    fn grow_scalar(&mut self, slot: u32) {
        let need = slot as usize + 1;
        if self.ints.len() < need {
            self.ints.resize(need, None);
        }
        if self.reals.len() < need {
            self.reals.resize(need, None);
        }
    }

    /// Binds an integer scalar by name.
    pub fn set_int(&mut self, name: &str, value: i64) {
        let slot = self.map.scalar(name);
        self.set_int_slot(slot, value);
    }

    /// Binds an integer scalar by slot.
    pub fn set_int_slot(&mut self, slot: u32, value: i64) {
        self.grow_scalar(slot);
        self.ints[slot as usize] = Some(value);
    }

    /// Binds the integer cell to 0 when unbound (VC int-scalar seeding).
    pub fn seed_int_slot(&mut self, slot: u32) {
        self.grow_scalar(slot);
        let cell = &mut self.ints[slot as usize];
        if cell.is_none() {
            *cell = Some(0);
        }
    }

    /// Binds a real scalar by name.
    pub fn set_real(&mut self, name: &str, value: V) {
        let slot = self.map.scalar(name);
        self.set_real_slot(slot, value);
    }

    /// Binds a real scalar by slot.
    pub fn set_real_slot(&mut self, slot: u32, value: V) {
        self.grow_scalar(slot);
        self.reals[slot as usize] = Some(value);
    }

    /// Binds an array by name.
    pub fn set_array(&mut self, name: &str, array: ArrayData<V>) {
        let slot = self.map.array(name);
        let need = slot as usize + 1;
        if self.arrays.len() < need {
            self.arrays.resize(need, None);
        }
        self.arrays[slot as usize] = Some(Arc::new(array));
    }

    /// Reads an integer scalar by name.
    pub fn int(&self, name: &str) -> Option<i64> {
        self.map
            .lookup_scalar(name)
            .and_then(|slot| self.int_slot(slot))
    }

    /// Reads an integer cell by slot.
    pub fn int_slot(&self, slot: u32) -> Option<i64> {
        self.ints.get(slot as usize).copied().flatten()
    }

    /// Reads a real cell by slot.
    pub fn real_slot(&self, slot: u32) -> Option<&V> {
        self.reals.get(slot as usize).and_then(Option::as_ref)
    }

    /// Reads an array by name.
    pub fn array(&self, name: &str) -> Option<&ArrayData<V>> {
        self.map
            .lookup_array(name)
            .and_then(|slot| self.array_slot(slot))
    }

    /// Reads an array by slot.
    pub fn array_slot(&self, slot: u32) -> Option<&ArrayData<V>> {
        self.arrays
            .get(slot as usize)
            .and_then(Option::as_ref)
            .map(Arc::as_ref)
    }

    /// Mutable access to an array by slot (copy-on-write when shared).
    pub fn array_slot_mut(&mut self, slot: u32) -> Option<&mut ArrayData<V>> {
        self.arrays
            .get_mut(slot as usize)
            .and_then(Option::as_mut)
            .map(Arc::make_mut)
    }

    /// Builds a slot state from a hash-map state, registering every bound
    /// name in the resolver.
    pub fn from_state(state: &State<V>, map: &Arc<SlotMap>) -> SlotState<V> {
        let mut out = SlotState::new(Arc::clone(map));
        for (name, v) in &state.ints {
            out.set_int(name, *v);
        }
        for (name, v) in &state.reals {
            out.set_real(name, v.clone());
        }
        for (name, arr) in &state.arrays {
            out.set_array(name, arr.clone());
        }
        out
    }

    /// Converts back into a hash-map state (bound cells only).
    pub fn to_state(&self) -> State<V> {
        let mut out = State::new();
        for (slot, cell) in self.ints.iter().enumerate() {
            if let Some(v) = cell {
                out.set_int(self.map.scalar_name(slot as u32), *v);
            }
        }
        for (slot, cell) in self.reals.iter().enumerate() {
            if let Some(v) = cell {
                out.set_real(self.map.scalar_name(slot as u32), v.clone());
            }
        }
        for (slot, cell) in self.arrays.iter().enumerate() {
            if let Some(arr) = cell {
                out.set_array(self.map.array_name(slot as u32), arr.as_ref().clone());
            }
        }
        out
    }
}

// ----------------------------------------------------------------- Runtime

/// A runtime evaluation failure, in slot terms. Rendered into a
/// human-readable [`Error`] via [`EvalErr::render`]; the variants mirror the
/// tree-walking interpreter's failure modes one-to-one so compiled and
/// interpreted evaluation reject identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalErr {
    /// An integer read of an unbound integer cell.
    UnboundInt(u32),
    /// A data read of a scalar with neither cell bound.
    UnboundScalar(u32),
    /// A reference to an unbound array.
    UnboundArray(u32),
    /// An out-of-bounds array read.
    OobLoad(u32),
    /// An out-of-bounds array write.
    OobStore(u32),
    /// An array value used as an index is not integral.
    NotIndex(u32),
    /// A loop with zero step.
    ZeroStep,
    /// The statement budget was exhausted.
    Budget,
}

impl EvalErr {
    /// Renders the failure with names resolved through `map`.
    pub fn render(&self, map: &SlotMap) -> Error {
        match self {
            EvalErr::UnboundInt(s) => Error::interp(format!(
                "unbound integer variable '{}'",
                map.scalar_name(*s)
            )),
            EvalErr::UnboundScalar(s) => {
                Error::interp(format!("unbound variable '{}'", map.scalar_name(*s)))
            }
            EvalErr::UnboundArray(a) => {
                Error::interp(format!("unbound array '{}'", map.array_name(*a)))
            }
            EvalErr::OobLoad(a) => {
                Error::interp(format!("index out of bounds for '{}'", map.array_name(*a)))
            }
            EvalErr::OobStore(a) => Error::interp(format!(
                "store index out of bounds for '{}'",
                map.array_name(*a)
            )),
            EvalErr::NotIndex(_) => {
                Error::interp("data value is not usable as an index".to_string())
            }
            EvalErr::ZeroStep => Error::interp("loop with zero step".to_string()),
            EvalErr::Budget => Error::interp("execution step budget exhausted".to_string()),
        }
    }
}

/// A construct the bytecode cannot evaluate with interpreter-exact
/// semantics; callers fall back to the tree-walking interpreter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileErr(pub String);

impl std::fmt::Display for CompileErr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "not compilable: {}", self.0)
    }
}

/// Integer intrinsics of the IR's integer expression language.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntFn {
    /// `min(a, b)`
    Min,
    /// `max(a, b)`
    Max,
    /// `abs(a)`
    Abs,
    /// `mod(a, b)` (Euclidean; zero divisor yields zero)
    Mod,
}

/// One bytecode operation. Register banks: `i` (integers), `d` (data-domain
/// values), `b` (booleans). All operands are pre-resolved register or slot
/// indices; executing an op never allocates.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// `i[dst] = v`
    IConst { dst: u16, v: i64 },
    /// `i[dst] = ints[slot]` (error when unbound)
    ISlot { dst: u16, slot: u32 },
    /// `i[dst] = i[src]`
    ICopy { dst: u16, src: u16 },
    /// `i[dst] = i[src] + imm` (fused `var ± constant`, the dominant index
    /// shape of stencils)
    IAddImm { dst: u16, src: u16, imm: i64 },
    /// `i[dst] = i[a] op i[b]` (division is total Euclidean)
    IBin { op: BinOp, dst: u16, a: u16, b: u16 },
    /// `i[dst] = f(i[a], i[b])` (`b` ignored for unary `abs`)
    IFn { f: IntFn, dst: u16, a: u16, b: u16 },
    /// `i[dst] = as_index(arrays[arr][i[idx .. idx+n]])`
    ILoad {
        dst: u16,
        arr: u32,
        idx: u16,
        n: u16,
    },
    /// `d[dst] = pool[k]` (pre-converted constant)
    DConst { dst: u16, k: u16 },
    /// `d[dst] = reals[slot]` when bound, else `from_const(i[src] as f64)`.
    /// The data-position read of an environment-pinned (quantified)
    /// variable: the interpreter binds quantifier values into the *integer*
    /// cells and `eval_data_expr` consults the real cell first, so a real
    /// binding that shadows the quantifier name must win here too.
    DScalarOrReg { dst: u16, slot: u32, src: u16 },
    /// `d[dst] = reals[slot]`, falling back to `from_const(ints[slot])`
    DScalar { dst: u16, slot: u32 },
    /// `d[dst] = d[src]`
    DCopy { dst: u16, src: u16 },
    /// `d[dst] = d[a] op d[b]` (domain arithmetic)
    DBin { op: BinOp, dst: u16, a: u16, b: u16 },
    /// `d[dst] = apply(funcs[f], d[argv .. argv+argc])`
    DCall {
        f: u16,
        dst: u16,
        argv: u16,
        argc: u16,
    },
    /// `d[dst] = arrays[arr][i[idx .. idx+n]]`
    DLoad {
        dst: u16,
        arr: u32,
        idx: u16,
        n: u16,
    },
    /// `b[dst] = i[a] op i[b]`
    BCmp { op: CmpOp, dst: u16, a: u16, b: u16 },
    /// `b[dst] = !b[a]`
    BNot { dst: u16, a: u16 },
    /// `b[dst] = b[src]`
    BCopy { dst: u16, src: u16 },
    /// Short-circuit `&&`: when `!b[cond]`, set `b[dst] = false` and skip
    /// the next `skip` ops (the right operand's code).
    BJumpFalse { cond: u16, dst: u16, skip: u16 },
    /// Short-circuit `||`: when `b[cond]`, set `b[dst] = true` and skip.
    BJumpTrue { cond: u16, dst: u16, skip: u16 },
}

/// Shared tables of a batch of compiled programs: the data-constant pool
/// (as `f64`, converted into the evaluation domain once per [`Scratch`])
/// and the uninterpreted-function name table.
#[derive(Debug, Clone, Default)]
pub struct ProgramSet {
    /// Data constants referenced by [`Op::DConst`].
    pub pool: Vec<f64>,
    /// Function names referenced by [`Op::DCall`].
    pub funcs: Vec<String>,
}

/// A compiled expression: a flat op list and the register holding the
/// result, plus the register-bank sizes the scratch space must provide.
#[derive(Debug, Clone)]
pub struct Program {
    ops: Vec<Op>,
    /// Result register (in the bank implied by how the program was built).
    pub result: u16,
    iregs: u16,
    dregs: u16,
    bregs: u16,
}

/// Reusable register banks for program execution. One scratch serves any
/// number of programs from the same [`ProgramSet`]; banks grow on demand and
/// are never cleared, so pinned registers (quantifier counters written by
/// the caller) survive across runs.
#[derive(Debug)]
pub struct Scratch<V> {
    /// Integer registers. The low registers of a program compiled with a
    /// binding environment are pinned: the caller writes them directly.
    pub iregs: Vec<i64>,
    dregs: Vec<V>,
    bregs: Vec<bool>,
    pool: Vec<V>,
}

impl<V: DataValue> Scratch<V> {
    /// A scratch with the set's constant pool converted into the domain.
    pub fn for_set(set: &ProgramSet) -> Scratch<V> {
        Scratch {
            iregs: Vec::new(),
            dregs: Vec::new(),
            bregs: Vec::new(),
            pool: set.pool.iter().map(|&c| V::from_const(c)).collect(),
        }
    }

    /// Reads a data register (set by a previous [`Program::run`]).
    pub fn dreg(&self, r: u16) -> &V {
        &self.dregs[r as usize]
    }

    /// Grows the banks to fit `prog` without running it — used to size the
    /// pinned quantifier registers before writing them directly.
    pub fn reserve(&mut self, prog: &Program) {
        self.ensure(prog);
    }

    fn ensure(&mut self, prog: &Program) {
        if self.iregs.len() < prog.iregs as usize {
            self.iregs.resize(prog.iregs as usize, 0);
        }
        if self.dregs.len() < prog.dregs as usize {
            self.dregs.resize(prog.dregs as usize, V::from_const(0.0));
        }
        if self.bregs.len() < prog.bregs as usize {
            self.bregs.resize(prog.bregs as usize, false);
        }
    }
}

impl Program {
    /// Runs the program; results stay in the scratch registers.
    pub fn run<V: DataValue>(
        &self,
        set: &ProgramSet,
        st: &SlotState<V>,
        sc: &mut Scratch<V>,
    ) -> Result<(), EvalErr> {
        sc.ensure(self);
        let mut pc = 0usize;
        while pc < self.ops.len() {
            let op = self.ops[pc];
            pc += 1;
            match op {
                Op::IConst { dst, v } => sc.iregs[dst as usize] = v,
                Op::ISlot { dst, slot } => {
                    sc.iregs[dst as usize] = st.int_slot(slot).ok_or(EvalErr::UnboundInt(slot))?;
                }
                Op::ICopy { dst, src } => sc.iregs[dst as usize] = sc.iregs[src as usize],
                Op::IAddImm { dst, src, imm } => {
                    sc.iregs[dst as usize] = sc.iregs[src as usize] + imm;
                }
                Op::IBin { op, dst, a, b } => {
                    let (l, r) = (sc.iregs[a as usize], sc.iregs[b as usize]);
                    sc.iregs[dst as usize] = match op {
                        BinOp::Add => l + r,
                        BinOp::Sub => l - r,
                        BinOp::Mul => l * r,
                        BinOp::Div => {
                            if r == 0 {
                                0
                            } else {
                                l.div_euclid(r)
                            }
                        }
                    };
                }
                Op::IFn { f, dst, a, b } => {
                    let (l, r) = (sc.iregs[a as usize], sc.iregs[b as usize]);
                    sc.iregs[dst as usize] = match f {
                        IntFn::Min => l.min(r),
                        IntFn::Max => l.max(r),
                        IntFn::Abs => l.abs(),
                        IntFn::Mod => {
                            if r == 0 {
                                0
                            } else {
                                l.rem_euclid(r)
                            }
                        }
                    };
                }
                Op::ILoad { dst, arr, idx, n } => {
                    let a = st.array_slot(arr).ok_or(EvalErr::UnboundArray(arr))?;
                    let ix = &sc.iregs[idx as usize..(idx + n) as usize];
                    let v = a.get(ix).ok_or(EvalErr::OobLoad(arr))?;
                    sc.iregs[dst as usize] = v.as_index().ok_or(EvalErr::NotIndex(arr))?;
                }
                Op::DConst { dst, k } => {
                    sc.dregs[dst as usize] = sc.pool[k as usize].clone();
                }
                Op::DScalarOrReg { dst, slot, src } => {
                    sc.dregs[dst as usize] = match st.real_slot(slot) {
                        Some(v) => v.clone(),
                        None => V::from_const(sc.iregs[src as usize] as f64),
                    };
                }
                Op::DScalar { dst, slot } => {
                    sc.dregs[dst as usize] = match st.real_slot(slot) {
                        Some(v) => v.clone(),
                        None => V::from_const(
                            st.int_slot(slot).ok_or(EvalErr::UnboundScalar(slot))? as f64,
                        ),
                    };
                }
                Op::DCopy { dst, src } => {
                    sc.dregs[dst as usize] = sc.dregs[src as usize].clone();
                }
                Op::DBin { op, dst, a, b } => {
                    let v = {
                        let (l, r) = (&sc.dregs[a as usize], &sc.dregs[b as usize]);
                        match op {
                            BinOp::Add => l.add(r),
                            BinOp::Sub => l.sub(r),
                            BinOp::Mul => l.mul(r),
                            BinOp::Div => l.div(r),
                        }
                    };
                    sc.dregs[dst as usize] = v;
                }
                Op::DCall { f, dst, argv, argc } => {
                    let v = V::apply(
                        &set.funcs[f as usize],
                        &sc.dregs[argv as usize..(argv + argc) as usize],
                    );
                    sc.dregs[dst as usize] = v;
                }
                Op::DLoad { dst, arr, idx, n } => {
                    let a = st.array_slot(arr).ok_or(EvalErr::UnboundArray(arr))?;
                    let ix = &sc.iregs[idx as usize..(idx + n) as usize];
                    sc.dregs[dst as usize] = a.get(ix).ok_or(EvalErr::OobLoad(arr))?.clone();
                }
                Op::BCmp { op, dst, a, b } => {
                    sc.bregs[dst as usize] = op.eval(sc.iregs[a as usize], sc.iregs[b as usize]);
                }
                Op::BNot { dst, a } => sc.bregs[dst as usize] = !sc.bregs[a as usize],
                Op::BCopy { dst, src } => sc.bregs[dst as usize] = sc.bregs[src as usize],
                Op::BJumpFalse { cond, dst, skip } => {
                    if !sc.bregs[cond as usize] {
                        sc.bregs[dst as usize] = false;
                        pc += skip as usize;
                    }
                }
                Op::BJumpTrue { cond, dst, skip } => {
                    if sc.bregs[cond as usize] {
                        sc.bregs[dst as usize] = true;
                        pc += skip as usize;
                    }
                }
            }
        }
        Ok(())
    }

    /// Runs and returns the integer result.
    pub fn eval_int<V: DataValue>(
        &self,
        set: &ProgramSet,
        st: &SlotState<V>,
        sc: &mut Scratch<V>,
    ) -> Result<i64, EvalErr> {
        self.run(set, st, sc)?;
        Ok(sc.iregs[self.result as usize])
    }

    /// Runs and returns the data result (cloned out of its register).
    pub fn eval_data<V: DataValue>(
        &self,
        set: &ProgramSet,
        st: &SlotState<V>,
        sc: &mut Scratch<V>,
    ) -> Result<V, EvalErr> {
        self.run(set, st, sc)?;
        Ok(sc.dregs[self.result as usize].clone())
    }

    /// Runs and returns the boolean result.
    pub fn eval_bool<V: DataValue>(
        &self,
        set: &ProgramSet,
        st: &SlotState<V>,
        sc: &mut Scratch<V>,
    ) -> Result<bool, EvalErr> {
        self.run(set, st, sc)?;
        Ok(sc.bregs[self.result as usize])
    }

    /// True when the op list contains no short-circuit jumps, i.e. control
    /// flow cannot diverge across lanes of a batched run.
    pub fn straight_line(&self) -> bool {
        self.ops
            .iter()
            .all(|op| !matches!(op, Op::BJumpFalse { .. } | Op::BJumpTrue { .. }))
    }

    /// Runs the program once across every lane set in `active`: op-major,
    /// lane-minor, over the SoA columns of `batch`. Per-lane semantics are
    /// exactly [`run`](Self::run) against that lane's state; a lane that
    /// fails is cleared from the returned mask with its error recorded in
    /// `errs[lane]` (which must be `None` for every active lane on entry).
    ///
    /// Lane-invariant ops compute once and fill the whole row: integer and
    /// data arithmetic over uniform registers, constants, and loads at an
    /// in-bounds lane-invariant offset from a payload every active lane
    /// shares ([`SlotBatch::shared_payload`]). Such ops cannot fail, so
    /// every op that can fail still runs per lane and errors keep their
    /// per-lane order.
    ///
    /// Only jump-free programs can be batched — check
    /// [`straight_line`](Self::straight_line) first and fall back to
    /// per-lane scalar runs otherwise.
    pub fn run_batch<V: DataValue>(
        &self,
        set: &ProgramSet,
        batch: &SlotBatch<'_, V>,
        sc: &mut BatchScratch<V>,
        mut active: u64,
        errs: &mut [Option<EvalErr>],
    ) -> u64 {
        debug_assert!(self.straight_line(), "run_batch needs a jump-free program");
        sc.ensure(self, batch.lanes());
        let lanes = batch.lanes();
        let fail = |errs: &mut [Option<EvalErr>], active: &mut u64, lane: usize, e: EvalErr| {
            errs[lane] = Some(e);
            *active &= !(1u64 << lane);
        };
        for op in &self.ops {
            if active == 0 {
                break;
            }
            match *op {
                Op::IConst { dst, v } => {
                    let d = dst as usize * lanes;
                    sc.iregs[d..d + lanes].fill(v);
                    sc.iuni[dst as usize] = true;
                }
                Op::ISlot { dst, slot } => {
                    let d = dst as usize * lanes;
                    for lane in lanes_in(active) {
                        match batch.int(slot, lane) {
                            Some(v) => sc.iregs[d + lane] = v,
                            None => fail(errs, &mut active, lane, EvalErr::UnboundInt(slot)),
                        }
                    }
                    sc.iuni[dst as usize] = false;
                }
                Op::ICopy { dst, src } => {
                    let (d, s) = (dst as usize * lanes, src as usize * lanes);
                    if sc.iuni[src as usize] {
                        let v = sc.iregs[s];
                        sc.iregs[d..d + lanes].fill(v);
                        sc.iuni[dst as usize] = true;
                    } else {
                        for lane in lanes_in(active) {
                            sc.iregs[d + lane] = sc.iregs[s + lane];
                        }
                        sc.iuni[dst as usize] = false;
                    }
                }
                Op::IAddImm { dst, src, imm } => {
                    let (d, s) = (dst as usize * lanes, src as usize * lanes);
                    if sc.iuni[src as usize] {
                        let v = sc.iregs[s] + imm;
                        sc.iregs[d..d + lanes].fill(v);
                        sc.iuni[dst as usize] = true;
                    } else {
                        for lane in lanes_in(active) {
                            sc.iregs[d + lane] = sc.iregs[s + lane] + imm;
                        }
                        sc.iuni[dst as usize] = false;
                    }
                }
                Op::IBin { op, dst, a, b } => {
                    let (d, x, y) = (dst as usize * lanes, a as usize * lanes, b as usize * lanes);
                    let ibin = |l: i64, r: i64| match op {
                        BinOp::Add => l + r,
                        BinOp::Sub => l - r,
                        BinOp::Mul => l * r,
                        BinOp::Div => {
                            if r == 0 {
                                0
                            } else {
                                l.div_euclid(r)
                            }
                        }
                    };
                    if sc.iuni[a as usize] && sc.iuni[b as usize] {
                        let v = ibin(sc.iregs[x], sc.iregs[y]);
                        sc.iregs[d..d + lanes].fill(v);
                        sc.iuni[dst as usize] = true;
                    } else {
                        for lane in lanes_in(active) {
                            sc.iregs[d + lane] = ibin(sc.iregs[x + lane], sc.iregs[y + lane]);
                        }
                        sc.iuni[dst as usize] = false;
                    }
                }
                Op::IFn { f, dst, a, b } => {
                    let (d, x, y) = (dst as usize * lanes, a as usize * lanes, b as usize * lanes);
                    let ifn = |l: i64, r: i64| match f {
                        IntFn::Min => l.min(r),
                        IntFn::Max => l.max(r),
                        IntFn::Abs => l.abs(),
                        IntFn::Mod => {
                            if r == 0 {
                                0
                            } else {
                                l.rem_euclid(r)
                            }
                        }
                    };
                    if sc.iuni[a as usize] && sc.iuni[b as usize] {
                        let v = ifn(sc.iregs[x], sc.iregs[y]);
                        sc.iregs[d..d + lanes].fill(v);
                        sc.iuni[dst as usize] = true;
                    } else {
                        for lane in lanes_in(active) {
                            sc.iregs[d + lane] = ifn(sc.iregs[x + lane], sc.iregs[y + lane]);
                        }
                        sc.iuni[dst as usize] = false;
                    }
                }
                Op::ILoad { dst, arr, idx, n } => {
                    let d = dst as usize * lanes;
                    let shared = sc.shared_offset(batch, arr, idx, n, active);
                    if let Some(v) = shared
                        .flatten()
                        .zip(batch.shared_payload(arr, active))
                        .and_then(|(o, a)| a.data[o].as_index())
                    {
                        sc.iregs[d..d + lanes].fill(v);
                        sc.iuni[dst as usize] = true;
                        continue;
                    }
                    for lane in lanes_in(active) {
                        let Some(a) = batch.array(arr, lane) else {
                            fail(errs, &mut active, lane, EvalErr::UnboundArray(arr));
                            continue;
                        };
                        let off = match shared {
                            Some(off) => off,
                            None => {
                                let mut ix = [0i64; 16];
                                for (j, cell) in ix.iter_mut().enumerate().take(n as usize) {
                                    *cell = sc.iregs[(idx as usize + j) * lanes + lane];
                                }
                                a.offset(&ix[..n as usize])
                            }
                        };
                        let Some(v) = off.map(|o| &a.data[o]) else {
                            fail(errs, &mut active, lane, EvalErr::OobLoad(arr));
                            continue;
                        };
                        match v.as_index() {
                            Some(v) => sc.iregs[d + lane] = v,
                            None => fail(errs, &mut active, lane, EvalErr::NotIndex(arr)),
                        }
                    }
                    sc.iuni[dst as usize] = false;
                }
                Op::DConst { dst, k } => {
                    let v = sc.pool[k as usize].clone();
                    sc.fill_dreg(dst, v);
                }
                Op::DScalarOrReg { dst, slot, src } => {
                    let (d, s) = (dst as usize * lanes, src as usize * lanes);
                    for lane in lanes_in(active) {
                        sc.dregs[d + lane] = match batch.real(slot, lane) {
                            Some(v) => v.clone(),
                            None => V::from_const(sc.iregs[s + lane] as f64),
                        };
                    }
                    sc.duni[dst as usize] = false;
                }
                Op::DScalar { dst, slot } => {
                    let d = dst as usize * lanes;
                    sc.duni[dst as usize] = false;
                    for lane in lanes_in(active) {
                        match batch.real(slot, lane) {
                            Some(v) => sc.dregs[d + lane] = v.clone(),
                            None => match batch.int(slot, lane) {
                                Some(v) => sc.dregs[d + lane] = V::from_const(v as f64),
                                None => {
                                    fail(errs, &mut active, lane, EvalErr::UnboundScalar(slot));
                                }
                            },
                        }
                    }
                }
                Op::DCopy { dst, src } => {
                    let (d, s) = (dst as usize * lanes, src as usize * lanes);
                    if sc.duni[src as usize] {
                        let v = sc.dregs[s].clone();
                        sc.fill_dreg(dst, v);
                    } else {
                        for lane in lanes_in(active) {
                            sc.dregs[d + lane] = sc.dregs[s + lane].clone();
                        }
                        sc.duni[dst as usize] = false;
                    }
                }
                Op::DBin { op, dst, a, b } => {
                    let (d, x, y) = (dst as usize * lanes, a as usize * lanes, b as usize * lanes);
                    let dbin = |l: &V, r: &V| match op {
                        BinOp::Add => l.add(r),
                        BinOp::Sub => l.sub(r),
                        BinOp::Mul => l.mul(r),
                        BinOp::Div => l.div(r),
                    };
                    if sc.duni[a as usize] && sc.duni[b as usize] {
                        let v = dbin(&sc.dregs[x], &sc.dregs[y]);
                        sc.fill_dreg(dst, v);
                    } else {
                        for lane in lanes_in(active) {
                            let v = dbin(&sc.dregs[x + lane], &sc.dregs[y + lane]);
                            sc.dregs[d + lane] = v;
                        }
                        sc.duni[dst as usize] = false;
                    }
                }
                Op::DCall { f, dst, argv, argc } => {
                    let d = dst as usize * lanes;
                    let args = argv as usize..(argv + argc) as usize;
                    if args.clone().all(|r| sc.duni[r]) {
                        sc.callbuf.clear();
                        for r in args {
                            sc.callbuf.push(sc.dregs[r * lanes].clone());
                        }
                        let v = V::apply(&set.funcs[f as usize], &sc.callbuf);
                        sc.fill_dreg(dst, v);
                        continue;
                    }
                    sc.duni[dst as usize] = false;
                    for lane in lanes_in(active) {
                        sc.callbuf.clear();
                        for j in 0..argc as usize {
                            sc.callbuf
                                .push(sc.dregs[(argv as usize + j) * lanes + lane].clone());
                        }
                        let v = V::apply(&set.funcs[f as usize], &sc.callbuf);
                        sc.dregs[d + lane] = v;
                    }
                }
                Op::DLoad { dst, arr, idx, n } => {
                    let d = dst as usize * lanes;
                    let shared = sc.shared_offset(batch, arr, idx, n, active);
                    if let Some((o, a)) = shared.flatten().zip(batch.shared_payload(arr, active)) {
                        let v = a.data[o].clone();
                        sc.fill_dreg(dst, v);
                        continue;
                    }
                    sc.duni[dst as usize] = false;
                    for lane in lanes_in(active) {
                        let Some(a) = batch.array(arr, lane) else {
                            fail(errs, &mut active, lane, EvalErr::UnboundArray(arr));
                            continue;
                        };
                        let off = match shared {
                            Some(off) => off,
                            None => {
                                let mut ix = [0i64; 16];
                                for (j, cell) in ix.iter_mut().enumerate().take(n as usize) {
                                    *cell = sc.iregs[(idx as usize + j) * lanes + lane];
                                }
                                a.offset(&ix[..n as usize])
                            }
                        };
                        match off {
                            Some(o) => sc.dregs[d + lane] = a.data[o].clone(),
                            None => fail(errs, &mut active, lane, EvalErr::OobLoad(arr)),
                        }
                    }
                }
                Op::BCmp { op, dst, a, b } => {
                    let (d, x, y) = (dst as usize * lanes, a as usize * lanes, b as usize * lanes);
                    for lane in lanes_in(active) {
                        sc.bregs[d + lane] = op.eval(sc.iregs[x + lane], sc.iregs[y + lane]);
                    }
                }
                Op::BNot { dst, a } => {
                    let (d, x) = (dst as usize * lanes, a as usize * lanes);
                    for lane in lanes_in(active) {
                        sc.bregs[d + lane] = !sc.bregs[x + lane];
                    }
                }
                Op::BCopy { dst, src } => {
                    let (d, s) = (dst as usize * lanes, src as usize * lanes);
                    for lane in lanes_in(active) {
                        sc.bregs[d + lane] = sc.bregs[s + lane];
                    }
                }
                Op::BJumpFalse { .. } | Op::BJumpTrue { .. } => {
                    unreachable!("run_batch on a program with short-circuit jumps")
                }
            }
        }
        active
    }
}

// ---------------------------------------------------------- Batched runtime

/// Iterates the set bit positions of a lane mask, lowest lane first.
#[derive(Debug, Clone, Copy)]
pub struct LaneIter(u64);

impl Iterator for LaneIter {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let lane = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(lane)
    }
}

/// The lanes set in `mask`, lowest first.
pub fn lanes_in(mask: u64) -> LaneIter {
    LaneIter(mask)
}

/// A full mask over the first `lanes` lanes.
pub fn lane_mask(lanes: usize) -> u64 {
    debug_assert!((1..=SLOT_BATCH_MAX_LANES).contains(&lanes));
    if lanes == 64 {
        u64::MAX
    } else {
        (1u64 << lanes) - 1
    }
}

/// Maximum number of lanes a [`SlotBatch`] holds: one `u64` mask bit each.
pub const SLOT_BATCH_MAX_LANES: usize = 64;

/// Structure-of-arrays transpose of up to [`SLOT_BATCH_MAX_LANES`] borrowed
/// [`SlotState`]s ("lanes"): slot-major, lane-minor columns, so a batched
/// program run sweeps each slot's values contiguously instead of re-entering
/// the interpreter per state. Unbound cells are tracked with per-slot lane
/// bitmasks; a lane whose vector is shorter than another's simply reads the
/// missing slots as unbound, like the hash-map absent-key behaviour.
#[derive(Debug)]
pub struct SlotBatch<'a, V> {
    lanes: usize,
    n_scalars: usize,
    n_arrays: usize,
    /// Integer cells, `[slot * lanes + lane]`; meaningful where bound.
    ints: Vec<i64>,
    /// Per scalar slot: which lanes have a bound integer cell.
    int_bound: Vec<u64>,
    /// Real cells, `[slot * lanes + lane]`.
    reals: Vec<Option<&'a V>>,
    /// Array cells, `[slot * lanes + lane]`.
    arrays: Vec<Option<&'a ArrayData<V>>>,
    /// Per array slot: `true` when every bound lane's array has identical
    /// dimension bounds, so one flat offset is valid for every lane.
    dims_uniform: Vec<bool>,
    /// Per array slot: which lanes bind an array.
    array_bound: Vec<u64>,
    /// Per array slot: `true` when every bound lane binds the *same* payload
    /// (pointer-equal `ArrayData`, as the states of one capture share every
    /// array the kernel never writes), so a load at a lane-invariant offset
    /// reads one value for every lane.
    payload_uniform: Vec<bool>,
}

impl<'a, V: DataValue> SlotBatch<'a, V> {
    /// Transposes the given states into SoA columns. `None` entries are
    /// placeholder lanes (never activate them in a run); at least one state
    /// must be present and `states.len()` must not exceed
    /// [`SLOT_BATCH_MAX_LANES`].
    pub fn transpose(states: &[Option<&'a SlotState<V>>]) -> SlotBatch<'a, V> {
        let lanes = states.len();
        assert!(
            (1..=SLOT_BATCH_MAX_LANES).contains(&lanes),
            "batch of {lanes} lanes"
        );
        let live = states.iter().flatten();
        let n_scalars = live
            .clone()
            .map(|s| s.ints.len().max(s.reals.len()))
            .max()
            .unwrap_or(0);
        let n_arrays = live.map(|s| s.arrays.len()).max().unwrap_or(0);
        let mut out = SlotBatch {
            lanes,
            n_scalars,
            n_arrays,
            ints: vec![0; n_scalars * lanes],
            int_bound: vec![0; n_scalars],
            reals: vec![None; n_scalars * lanes],
            arrays: vec![None; n_arrays * lanes],
            dims_uniform: vec![false; n_arrays],
            array_bound: vec![0; n_arrays],
            payload_uniform: vec![false; n_arrays],
        };
        for (lane, st) in states.iter().enumerate() {
            let Some(st) = st else { continue };
            for (slot, cell) in st.ints.iter().enumerate() {
                if let Some(v) = cell {
                    out.ints[slot * lanes + lane] = *v;
                    out.int_bound[slot] |= 1 << lane;
                }
            }
            for (slot, cell) in st.reals.iter().enumerate() {
                if let Some(v) = cell {
                    out.reals[slot * lanes + lane] = Some(v);
                }
            }
            for (slot, cell) in st.arrays.iter().enumerate() {
                if let Some(arr) = cell {
                    out.arrays[slot * lanes + lane] = Some(arr.as_ref());
                    out.array_bound[slot] |= 1 << lane;
                }
            }
        }
        for slot in 0..n_arrays {
            let mut bound = out.arrays[slot * lanes..(slot + 1) * lanes]
                .iter()
                .flatten();
            let Some(first) = bound.next() else { continue };
            let (mut dims, mut payload) = (true, true);
            for b in bound {
                payload &= std::ptr::eq(*first, *b);
                dims &= b.dims == first.dims;
            }
            out.dims_uniform[slot] = dims;
            out.payload_uniform[slot] = payload;
        }
        out
    }

    /// Number of lanes (including placeholder lanes).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Reads lane `lane`'s integer cell for `slot`.
    pub fn int(&self, slot: u32, lane: usize) -> Option<i64> {
        let s = slot as usize;
        if s >= self.n_scalars || self.int_bound[s] & (1u64 << lane) == 0 {
            None
        } else {
            Some(self.ints[s * self.lanes + lane])
        }
    }

    /// Reads lane `lane`'s real cell for `slot`.
    pub fn real(&self, slot: u32, lane: usize) -> Option<&'a V> {
        let s = slot as usize;
        if s >= self.n_scalars {
            None
        } else {
            self.reals[s * self.lanes + lane]
        }
    }

    /// Reads lane `lane`'s array cell for `slot`.
    pub fn array(&self, slot: u32, lane: usize) -> Option<&'a ArrayData<V>> {
        let s = slot as usize;
        if s >= self.n_arrays {
            None
        } else {
            self.arrays[s * self.lanes + lane]
        }
    }

    /// True when every lane binding array `slot` binds it with identical
    /// dimension bounds, so a flat offset computed against one lane's array
    /// is valid for every bound lane.
    pub fn array_dims_uniform(&self, slot: u32) -> bool {
        let s = slot as usize;
        s < self.n_arrays && self.dims_uniform[s]
    }

    /// The one payload every lane in `active` binds for array `slot`, when
    /// all of them bind it and every bound lane shares the same payload —
    /// a load from it at a lane-invariant offset then yields one value for
    /// every lane. `None` when `active` is empty or names a lane past the
    /// batch, when some active lane is unbound, or when two lanes bind
    /// different payloads.
    pub fn shared_payload(&self, slot: u32, active: u64) -> Option<&'a ArrayData<V>> {
        let s = slot as usize;
        // `array_bound` has no bits past the batch's lanes, so the mask test
        // also rejects out-of-range lanes.
        if active == 0
            || s >= self.n_arrays
            || !self.payload_uniform[s]
            || active & !self.array_bound[s] != 0
        {
            return None;
        }
        self.arrays[s * self.lanes + active.trailing_zeros() as usize]
    }
}

/// Reusable register banks for batched program execution: the lane-strided
/// analogue of [`Scratch`], register-major (`[reg * lanes + lane]`). Like
/// the scalar scratch, banks grow on demand and pinned registers (quantifier
/// counters broadcast by the caller) survive across runs — but the lane
/// count is re-bound by [`reserve`](Self::reserve)/each run, so pins must be
/// re-written whenever the lane count changes.
#[derive(Debug)]
pub struct BatchScratch<V> {
    iregs: Vec<i64>,
    dregs: Vec<V>,
    bregs: Vec<bool>,
    /// Per integer register: `true` when every lane holds the same value
    /// (pinned broadcasts and constant/arithmetic derivations of them, all
    /// of which fill whole rows). Lets lane-invariant arithmetic run once
    /// and lane-invariant array offsets be resolved once per batch.
    iuni: Vec<bool>,
    /// Per data register: `true` when every lane holds the same value
    /// (constants, loads at a lane-invariant offset from a payload shared by
    /// every lane, and copies/arithmetic/calls over uniform operands), so a
    /// stencil right-hand side over read-only arrays is computed once per
    /// quantifier point instead of once per lane.
    duni: Vec<bool>,
    pool: Vec<V>,
    callbuf: Vec<V>,
    lanes: usize,
}

impl<V: DataValue> BatchScratch<V> {
    /// A batch scratch with the set's constant pool converted into the
    /// domain.
    pub fn for_set(set: &ProgramSet) -> BatchScratch<V> {
        BatchScratch {
            iregs: Vec::new(),
            dregs: Vec::new(),
            bregs: Vec::new(),
            iuni: Vec::new(),
            duni: Vec::new(),
            pool: set.pool.iter().map(|&c| V::from_const(c)).collect(),
            callbuf: Vec::new(),
            lanes: 0,
        }
    }

    /// Grows the banks to fit `prog` at `lanes` lanes without running it —
    /// used to size the pinned quantifier registers before writing them.
    pub fn reserve(&mut self, prog: &Program, lanes: usize) {
        self.ensure(prog, lanes);
    }

    fn ensure(&mut self, prog: &Program, lanes: usize) {
        self.lanes = lanes;
        let ni = prog.iregs as usize * lanes;
        if self.iregs.len() < ni {
            self.iregs.resize(ni, 0);
        }
        let nd = prog.dregs as usize * lanes;
        if self.dregs.len() < nd {
            self.dregs.resize(nd, V::from_const(0.0));
        }
        let nb = prog.bregs as usize * lanes;
        if self.bregs.len() < nb {
            self.bregs.resize(nb, false);
        }
        if self.iuni.len() < prog.iregs as usize {
            self.iuni.resize(prog.iregs as usize, false);
        }
        if self.duni.len() < prog.dregs as usize {
            self.duni.resize(prog.dregs as usize, false);
        }
    }

    /// Reads lane `lane` of integer register `r`.
    pub fn ireg(&self, r: u16, lane: usize) -> i64 {
        self.iregs[r as usize * self.lanes + lane]
    }

    /// Reads lane `lane` of data register `r`.
    pub fn dreg(&self, r: u16, lane: usize) -> &V {
        &self.dregs[r as usize * self.lanes + lane]
    }

    /// Reads lane `lane` of boolean register `r`.
    pub fn breg(&self, r: u16, lane: usize) -> bool {
        self.bregs[r as usize * self.lanes + lane]
    }

    /// Writes `v` into integer register `r` of every lane — the batched
    /// analogue of pinning a quantifier counter. The whole row is filled (a
    /// vectorizable store that also makes the register lane-uniform by
    /// construction, letting batched loads resolve their offsets once).
    pub fn pin_ireg(&mut self, r: u16, v: i64) {
        let base = r as usize * self.lanes;
        self.iregs[base..base + self.lanes].fill(v);
        self.iuni[r as usize] = true;
    }

    /// True when integer register `r` holds the same value on every lane
    /// (see [`pin_ireg`](Self::pin_ireg)).
    pub fn ireg_uniform(&self, r: u16) -> bool {
        self.iuni[r as usize]
    }

    /// Writes `v` into data register `r` of every lane and marks it uniform.
    fn fill_dreg(&mut self, r: u16, v: V) {
        let base = r as usize * self.lanes;
        self.dregs[base..base + self.lanes].fill(v);
        self.duni[r as usize] = true;
    }

    /// Resolves a lane-invariant flat offset for a load of rank `n` from
    /// array `arr` at index registers `idx..idx + n`: `Some(off)` when every
    /// active lane addresses the same multi-index (all index registers
    /// lane-uniform) into arrays with identical dims, so `off` — `None` for
    /// out-of-bounds — stands for every bound lane. Returns `None` when no
    /// shared offset exists and lanes must resolve their indices one by one.
    fn shared_offset(
        &self,
        batch: &SlotBatch<'_, V>,
        arr: u32,
        idx: u16,
        n: u16,
        active: u64,
    ) -> Option<Option<usize>> {
        if !batch.array_dims_uniform(arr) || !(idx..idx + n).all(|r| self.iuni[r as usize]) {
            return None;
        }
        // Uniform dims make any bound active lane's array representative,
        // and uniform registers hold their value on every lane (lane 0).
        let a = lanes_in(active).find_map(|lane| batch.array(arr, lane))?;
        let mut ix = [0i64; 16];
        for (j, cell) in ix.iter_mut().enumerate().take(n as usize) {
            *cell = self.iregs[(idx as usize + j) * self.lanes];
        }
        Some(a.offset(&ix[..n as usize]))
    }
}

// ------------------------------------------------------------ Slot program

/// A compiled statement. Only the constructs whose interpreter semantics
/// the bytecode reproduces exactly are representable; in particular there
/// is no conditional (the lifter rejects kernels containing one, and VC
/// bodies never do).
#[derive(Debug, Clone)]
pub enum SlotStmt {
    /// Scalar assignment with the interpreter's dynamic dispatch: when the
    /// integer cell is bound the value is evaluated as an integer
    /// expression, otherwise as a data expression.
    Assign {
        /// Target scalar slot.
        slot: u32,
        /// The value compiled as an integer expression.
        int_prog: Program,
        /// The value compiled as a data expression.
        data_prog: Program,
    },
    /// Array element store.
    Store {
        /// Target array slot.
        arr: u32,
        /// Program computing the indices and the stored value.
        prog: Program,
        /// First index register.
        idx: u16,
        /// Number of indices.
        rank: u16,
        /// Data register holding the stored value.
        value: u16,
    },
    /// A counted loop (capture-path kernels only; VC bodies are loop-free).
    Loop {
        /// Counter scalar slot.
        var: u32,
        /// Counter name (kept for snapshot labeling without map lookups).
        var_name: String,
        /// Lower-bound program (integer).
        lo: Program,
        /// Clip-bound program (integer).
        hi: Program,
        /// Constant step.
        step: i64,
        /// Loop body.
        body: Vec<SlotStmt>,
    },
}

/// Executes one straight-line statement (`Assign` or `Store`).
///
/// # Errors
///
/// Mirrors the interpreter's failure modes ([`EvalErr`]).
///
/// # Panics
///
/// Panics on a [`SlotStmt::Loop`]; loop walking belongs to the caller
/// (either [`exec_stmts`] or a tracing executor).
pub fn exec_straight<V: DataValue>(
    stmt: &SlotStmt,
    set: &ProgramSet,
    st: &mut SlotState<V>,
    sc: &mut Scratch<V>,
) -> Result<(), EvalErr> {
    match stmt {
        SlotStmt::Assign {
            slot,
            int_prog,
            data_prog,
        } => {
            if st.int_slot(*slot).is_some() {
                let v = int_prog.eval_int(set, st, sc)?;
                st.set_int_slot(*slot, v);
            } else {
                let v = data_prog.eval_data(set, st, sc)?;
                st.set_real_slot(*slot, v);
            }
            Ok(())
        }
        SlotStmt::Store {
            arr,
            prog,
            idx,
            rank,
            value,
        } => {
            prog.run(set, st, sc)?;
            let target = st.array_slot_mut(*arr).ok_or(EvalErr::UnboundArray(*arr))?;
            let ix = &sc.iregs[*idx as usize..(*idx + *rank) as usize];
            let v = sc.dregs[*value as usize].clone();
            if !target.set(ix, v) {
                return Err(EvalErr::OobStore(*arr));
            }
            Ok(())
        }
        SlotStmt::Loop { .. } => panic!("exec_straight cannot execute a loop"),
    }
}

/// Executes a compiled statement list against a state, with the
/// interpreter's statement budget and Fortran loop-counter semantics.
///
/// # Errors
///
/// Mirrors [`crate::interp::run_stmts`]'s failure modes.
pub fn exec_stmts<V: DataValue>(
    stmts: &[SlotStmt],
    set: &ProgramSet,
    st: &mut SlotState<V>,
    sc: &mut Scratch<V>,
    steps: &mut u64,
    max_steps: u64,
) -> Result<(), EvalErr> {
    exec_stmts_traced(stmts, set, st, sc, steps, max_steps, &mut NoTrace)
}

/// Observation hook for [`exec_stmts_traced`]: called with the state as the
/// executor reaches each loop-iteration head (counter just set) and each
/// loop exit (counter one step past the bound). The bounded checker's state
/// capture implements this; plain execution uses the no-op default.
pub trait LoopTrace<V> {
    /// Called at the head of every loop iteration.
    fn at_loop_head(&mut self, _var_name: &str, _state: &SlotState<V>) {}
    /// Called immediately after a loop exits.
    fn at_loop_exit(&mut self, _var_name: &str, _state: &SlotState<V>) {}
}

/// The no-op trace used by [`exec_stmts`].
struct NoTrace;

impl<V> LoopTrace<V> for NoTrace {}

/// [`exec_stmts`] with a loop-observation hook, so tracing executors (state
/// capture) share this single implementation of the loop protocol instead
/// of hand-copying the zero-step check, direction test, and
/// counter-past-end semantics.
///
/// # Errors
///
/// See [`exec_stmts`].
#[allow(clippy::too_many_arguments)]
pub fn exec_stmts_traced<V: DataValue>(
    stmts: &[SlotStmt],
    set: &ProgramSet,
    st: &mut SlotState<V>,
    sc: &mut Scratch<V>,
    steps: &mut u64,
    max_steps: u64,
    trace: &mut impl LoopTrace<V>,
) -> Result<(), EvalErr> {
    for stmt in stmts {
        *steps += 1;
        if *steps > max_steps {
            return Err(EvalErr::Budget);
        }
        match stmt {
            SlotStmt::Loop {
                var,
                var_name,
                lo,
                hi,
                step,
                body,
            } => {
                let lo = lo.eval_int(set, st, sc)?;
                let hi = hi.eval_int(set, st, sc)?;
                if *step == 0 {
                    return Err(EvalErr::ZeroStep);
                }
                let mut cur = lo;
                loop {
                    // Charge per iteration as well as per statement so loops
                    // whose bodies execute nothing still hit the budget.
                    *steps += 1;
                    if *steps > max_steps {
                        return Err(EvalErr::Budget);
                    }
                    let in_range = if *step > 0 { cur <= hi } else { cur >= hi };
                    if !in_range {
                        break;
                    }
                    st.set_int_slot(*var, cur);
                    trace.at_loop_head(var_name, st);
                    exec_stmts_traced(body, set, st, sc, steps, max_steps, trace)?;
                    cur += step;
                }
                // Fortran leaves the counter one step past the bound.
                st.set_int_slot(*var, cur);
                trace.at_loop_exit(var_name, st);
            }
            other => exec_straight(other, set, st, sc)?,
        }
    }
    Ok(())
}

// ----------------------------------------------------------------- Compiler

/// Compiles [`IrExpr`]s and [`IrStmt`]s into slot-addressed [`Program`]s.
///
/// One compiler instance accumulates a shared [`ProgramSet`] (constant pool
/// and function table) across any number of programs; finish with
/// [`Compiler::into_set`]. A *binding environment* maps quantified-variable
/// names to pinned low integer registers — references to those names compile
/// to register reads instead of slot reads, which is what lets quantifier
/// enumeration run without touching (or restoring) the state.
pub struct Compiler<'m> {
    map: &'m SlotMap,
    set: ProgramSet,
    env: Vec<(String, u16)>,
    ops: Vec<Op>,
    next_i: u16,
    next_d: u16,
    next_b: u16,
}

impl<'m> Compiler<'m> {
    /// A compiler resolving names through `map`.
    pub fn new(map: &'m SlotMap) -> Compiler<'m> {
        Compiler {
            map,
            set: ProgramSet::default(),
            env: Vec::new(),
            ops: Vec::new(),
            next_i: 0,
            next_d: 0,
            next_b: 0,
        }
    }

    /// Sets the binding environment: `vars[k]` is pinned to integer
    /// register `k` in every subsequently compiled program.
    pub fn set_env(&mut self, vars: &[String]) {
        self.env = vars
            .iter()
            .enumerate()
            .map(|(k, v)| (v.clone(), k as u16))
            .collect();
    }

    /// Clears the binding environment.
    pub fn clear_env(&mut self) {
        self.env.clear();
    }

    /// Consumes the compiler, returning the shared tables.
    pub fn into_set(self) -> ProgramSet {
        self.set
    }

    fn start(&mut self) {
        self.ops = Vec::new();
        self.next_i = self.env.len() as u16;
        self.next_d = 0;
        self.next_b = 0;
    }

    fn finish(&mut self, result: u16) -> Program {
        Program {
            ops: std::mem::take(&mut self.ops),
            result,
            iregs: self.next_i,
            dregs: self.next_d,
            bregs: self.next_b,
        }
    }

    fn ireg(&mut self) -> u16 {
        let r = self.next_i;
        self.next_i += 1;
        r
    }

    fn dreg(&mut self) -> u16 {
        let r = self.next_d;
        self.next_d += 1;
        r
    }

    fn breg(&mut self) -> u16 {
        let r = self.next_b;
        self.next_b += 1;
        r
    }

    fn pool_const(&mut self, v: f64) -> u16 {
        // Constant pools stay tiny; linear dedup by bit pattern keeps NaN
        // handling exact without a float-keyed map.
        if let Some(k) = self
            .set
            .pool
            .iter()
            .position(|&c| c.to_bits() == v.to_bits())
        {
            return k as u16;
        }
        self.set.pool.push(v);
        (self.set.pool.len() - 1) as u16
    }

    fn func_id(&mut self, name: &str) -> u16 {
        if let Some(k) = self.set.funcs.iter().position(|f| f == name) {
            return k as u16;
        }
        self.set.funcs.push(name.to_string());
        (self.set.funcs.len() - 1) as u16
    }

    fn env_reg(&self, name: &str) -> Option<u16> {
        self.env.iter().find(|(n, _)| n == name).map(|(_, r)| *r)
    }

    /// Compiles an integer-valued expression into a standalone program.
    ///
    /// # Errors
    ///
    /// Fails on constructs [`crate::interp::eval_int_expr`] would reject for
    /// *every* state (boolean sub-terms, unknown intrinsics); state-dependent
    /// failures stay runtime errors.
    pub fn compile_int(&mut self, e: &IrExpr) -> Result<Program, CompileErr> {
        self.start();
        let r = self.int_expr(e)?;
        Ok(self.finish(r))
    }

    /// Compiles a data-valued expression into a standalone program.
    ///
    /// # Errors
    ///
    /// See [`Compiler::compile_int`].
    pub fn compile_data(&mut self, e: &IrExpr) -> Result<Program, CompileErr> {
        self.start();
        let r = self.data_expr(e)?;
        Ok(self.finish(r))
    }

    /// Compiles a boolean expression into a standalone program.
    ///
    /// # Errors
    ///
    /// See [`Compiler::compile_int`].
    pub fn compile_bool(&mut self, e: &IrExpr) -> Result<Program, CompileErr> {
        self.start();
        let r = self.bool_expr(e)?;
        Ok(self.finish(r))
    }

    /// Compiles two data-valued expressions into one program (left first,
    /// preserving the interpreter's evaluation — and error — order).
    /// Returns the program and both result registers.
    ///
    /// # Errors
    ///
    /// See [`Compiler::compile_int`].
    pub fn compile_data_pair(
        &mut self,
        lhs: &IrExpr,
        rhs: &IrExpr,
    ) -> Result<(Program, u16, u16), CompileErr> {
        self.start();
        let a = self.data_expr(lhs)?;
        let b = self.data_expr(rhs)?;
        Ok((self.finish(b), a, b))
    }

    /// Compiles an index vector plus a data value into one program (the
    /// shape shared by stores and quantified output equations). Returns the
    /// program, the first index register, and the value's data register.
    ///
    /// # Errors
    ///
    /// See [`Compiler::compile_int`].
    pub fn compile_indexed_value(
        &mut self,
        indices: &[IrExpr],
        value: &IrExpr,
    ) -> Result<(Program, u16, u16), CompileErr> {
        self.start();
        let idx_start = self.index_block(indices)?;
        let v = self.data_expr(value)?;
        Ok((self.finish(v), idx_start, v))
    }

    /// Compiles index expressions into a fresh contiguous register block
    /// (allocated up front so each index computes straight into its block
    /// register, in order); returns the block's first register.
    fn index_block(&mut self, indices: &[IrExpr]) -> Result<u16, CompileErr> {
        let start = self.next_i;
        for _ in indices {
            self.ireg();
        }
        for (k, ix) in indices.iter().enumerate() {
            self.int_expr_into(ix, start + k as u16)?;
        }
        Ok(start)
    }

    /// Views `var ± c` (and bare `var`/`c`) as `(source, immediate)`; the
    /// fused-form peephole behind [`Op::IAddImm`].
    fn as_reg_plus_imm(&mut self, e: &IrExpr) -> Result<Option<(u16, i64)>, CompileErr> {
        let (base, imm) = match e {
            IrExpr::Var(_) => (e, 0i64),
            IrExpr::Bin { op, lhs, rhs } => match (op, rhs.as_ref()) {
                (BinOp::Add, IrExpr::Int(c)) => (lhs.as_ref(), *c),
                (BinOp::Sub, IrExpr::Int(c)) => (lhs.as_ref(), -*c),
                _ => return Ok(None),
            },
            _ => return Ok(None),
        };
        let IrExpr::Var(name) = base else {
            return Ok(None);
        };
        let src = match self.env_reg(name) {
            Some(r) => r,
            None => {
                let slot = self.map.scalar(name);
                let t = self.ireg();
                self.ops.push(Op::ISlot { dst: t, slot });
                t
            }
        };
        Ok(Some((src, imm)))
    }

    /// Compiles an integer expression so its result lands in `dst`.
    fn int_expr_into(&mut self, e: &IrExpr, dst: u16) -> Result<(), CompileErr> {
        if let IrExpr::Int(v) = e {
            self.ops.push(Op::IConst { dst, v: *v });
            return Ok(());
        }
        if let Some((src, imm)) = self.as_reg_plus_imm(e)? {
            self.ops.push(if imm == 0 {
                Op::ICopy { dst, src }
            } else {
                Op::IAddImm { dst, src, imm }
            });
            return Ok(());
        }
        let src = self.int_expr(e)?;
        self.ops.push(Op::ICopy { dst, src });
        Ok(())
    }

    fn int_expr(&mut self, e: &IrExpr) -> Result<u16, CompileErr> {
        match e {
            IrExpr::Int(v) => {
                let dst = self.ireg();
                self.ops.push(Op::IConst { dst, v: *v });
                Ok(dst)
            }
            IrExpr::Real(v) => {
                let dst = self.ireg();
                self.ops.push(Op::IConst { dst, v: *v as i64 });
                Ok(dst)
            }
            IrExpr::Var(name) => {
                if let Some(src) = self.env_reg(name) {
                    let dst = self.ireg();
                    self.ops.push(Op::ICopy { dst, src });
                    return Ok(dst);
                }
                let slot = self.map.scalar(name);
                let dst = self.ireg();
                self.ops.push(Op::ISlot { dst, slot });
                Ok(dst)
            }
            IrExpr::Bin { op, lhs, rhs } => {
                if let Some((src, imm)) = self.as_reg_plus_imm(e)? {
                    let dst = self.ireg();
                    self.ops.push(if imm == 0 {
                        Op::ICopy { dst, src }
                    } else {
                        Op::IAddImm { dst, src, imm }
                    });
                    return Ok(dst);
                }
                let a = self.int_expr(lhs)?;
                let b = self.int_expr(rhs)?;
                let dst = self.ireg();
                self.ops.push(Op::IBin { op: *op, dst, a, b });
                Ok(dst)
            }
            IrExpr::Call { func, args } => {
                let f = match (func.as_str(), args.len()) {
                    ("min", 2) => IntFn::Min,
                    ("max", 2) => IntFn::Max,
                    ("abs", 1) => IntFn::Abs,
                    ("mod", 2) => IntFn::Mod,
                    _ => return Err(CompileErr(format!("call to '{func}' in integer position"))),
                };
                let a = self.int_expr(&args[0])?;
                let b = if args.len() > 1 {
                    self.int_expr(&args[1])?
                } else {
                    a
                };
                let dst = self.ireg();
                self.ops.push(Op::IFn { f, dst, a, b });
                Ok(dst)
            }
            IrExpr::Load { array, indices } => {
                let idx = self.index_block(indices)?;
                let arr = self.map.array(array);
                let dst = self.ireg();
                self.ops.push(Op::ILoad {
                    dst,
                    arr,
                    idx,
                    n: indices.len() as u16,
                });
                Ok(dst)
            }
            other => Err(CompileErr(format!(
                "'{other}' is not an integer expression"
            ))),
        }
    }

    fn data_expr(&mut self, e: &IrExpr) -> Result<u16, CompileErr> {
        match e {
            IrExpr::Real(v) => {
                let k = self.pool_const(*v);
                let dst = self.dreg();
                self.ops.push(Op::DConst { dst, k });
                Ok(dst)
            }
            IrExpr::Int(v) => {
                let k = self.pool_const(*v as f64);
                let dst = self.dreg();
                self.ops.push(Op::DConst { dst, k });
                Ok(dst)
            }
            IrExpr::Var(name) => {
                let dst = self.dreg();
                let slot = self.map.scalar(name);
                if let Some(src) = self.env_reg(name) {
                    self.ops.push(Op::DScalarOrReg { dst, slot, src });
                } else {
                    self.ops.push(Op::DScalar { dst, slot });
                }
                Ok(dst)
            }
            IrExpr::Load { array, indices } => {
                let idx = self.index_block(indices)?;
                let arr = self.map.array(array);
                let dst = self.dreg();
                self.ops.push(Op::DLoad {
                    dst,
                    arr,
                    idx,
                    n: indices.len() as u16,
                });
                Ok(dst)
            }
            IrExpr::Bin { op, lhs, rhs } => {
                let a = self.data_expr(lhs)?;
                let b = self.data_expr(rhs)?;
                let dst = self.dreg();
                self.ops.push(Op::DBin { op: *op, dst, a, b });
                Ok(dst)
            }
            IrExpr::Call { func, args } => {
                let regs: Vec<u16> = args
                    .iter()
                    .map(|a| self.data_expr(a))
                    .collect::<Result<_, _>>()?;
                let argv = self.next_d;
                for _ in &regs {
                    self.dreg();
                }
                for (k, src) in regs.iter().enumerate() {
                    self.ops.push(Op::DCopy {
                        dst: argv + k as u16,
                        src: *src,
                    });
                }
                let f = self.func_id(func);
                let dst = self.dreg();
                self.ops.push(Op::DCall {
                    f,
                    dst,
                    argv,
                    argc: args.len() as u16,
                });
                Ok(dst)
            }
            other => Err(CompileErr(format!("'{other}' is not a data expression"))),
        }
    }

    fn bool_expr(&mut self, e: &IrExpr) -> Result<u16, CompileErr> {
        match e {
            IrExpr::Cmp { op, lhs, rhs } => {
                let a = self.int_expr(lhs)?;
                let b = self.int_expr(rhs)?;
                let dst = self.breg();
                self.ops.push(Op::BCmp { op: *op, dst, a, b });
                Ok(dst)
            }
            IrExpr::And(a, b) => {
                let ra = self.bool_expr(a)?;
                let dst = self.breg();
                let jump_at = self.ops.len();
                self.ops.push(Op::BJumpFalse {
                    cond: ra,
                    dst,
                    skip: 0,
                });
                let rb = self.bool_expr(b)?;
                self.ops.push(Op::BCopy { dst, src: rb });
                let skip = (self.ops.len() - jump_at - 1) as u16;
                self.ops[jump_at] = Op::BJumpFalse {
                    cond: ra,
                    dst,
                    skip,
                };
                Ok(dst)
            }
            IrExpr::Or(a, b) => {
                let ra = self.bool_expr(a)?;
                let dst = self.breg();
                let jump_at = self.ops.len();
                self.ops.push(Op::BJumpTrue {
                    cond: ra,
                    dst,
                    skip: 0,
                });
                let rb = self.bool_expr(b)?;
                self.ops.push(Op::BCopy { dst, src: rb });
                let skip = (self.ops.len() - jump_at - 1) as u16;
                self.ops[jump_at] = Op::BJumpTrue {
                    cond: ra,
                    dst,
                    skip,
                };
                Ok(dst)
            }
            IrExpr::Not(inner) => {
                let a = self.bool_expr(inner)?;
                let dst = self.breg();
                self.ops.push(Op::BNot { dst, a });
                Ok(dst)
            }
            other => Err(CompileErr(format!("'{other}' is not a boolean expression"))),
        }
    }

    /// Compiles a statement list. Conditionals are rejected (their dynamic
    /// int-versus-data comparison fallback is not representable); callers
    /// fall back to the tree-walking interpreter for such kernels.
    ///
    /// # Errors
    ///
    /// See [`Compiler::compile_int`].
    pub fn compile_stmts(&mut self, stmts: &[IrStmt]) -> Result<Vec<SlotStmt>, CompileErr> {
        stmts.iter().map(|s| self.compile_stmt(s)).collect()
    }

    fn compile_stmt(&mut self, stmt: &IrStmt) -> Result<SlotStmt, CompileErr> {
        match stmt {
            IrStmt::AssignScalar { name, value } => {
                let slot = self.map.scalar(name);
                let int_prog = self.compile_int(value)?;
                let data_prog = self.compile_data(value)?;
                Ok(SlotStmt::Assign {
                    slot,
                    int_prog,
                    data_prog,
                })
            }
            IrStmt::Store {
                array,
                indices,
                value,
            } => {
                let arr = self.map.array(array);
                let (prog, idx, value) = self.compile_indexed_value(indices, value)?;
                Ok(SlotStmt::Store {
                    arr,
                    prog,
                    idx,
                    rank: indices.len() as u16,
                    value,
                })
            }
            IrStmt::Loop { domain, body } => {
                let var = self.map.scalar(&domain.var);
                let lo = self.compile_int(&domain.lo)?;
                let hi = self.compile_int(&domain.hi)?;
                let body = self.compile_stmts(body)?;
                Ok(SlotStmt::Loop {
                    var,
                    var_name: domain.var.clone(),
                    lo,
                    hi,
                    step: domain.step,
                    body,
                })
            }
            IrStmt::If { .. } => Err(CompileErr(
                "conditionals are outside the compiled subset".to_string(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{eval_data_expr, eval_int_expr, run_stmts};
    use crate::ir::IterDomain;
    use crate::value::ModInt;

    fn map_and_state() -> (Arc<SlotMap>, SlotState<f64>, State<f64>) {
        let map = Arc::new(SlotMap::new());
        let mut hs: State<f64> = State::new();
        hs.set_int("i", 3).set_int("n", 5).set_real("t", 2.5);
        hs.set_array(
            "b",
            ArrayData::from_fn(vec![(0, 5)], |ix| ix[0] as f64 * 0.5),
        );
        let ss = SlotState::from_state(&hs, &map);
        (map, ss, hs)
    }

    #[test]
    fn conversions_round_trip() {
        let (_, ss, hs) = map_and_state();
        assert_eq!(ss.to_state(), hs);
        assert_eq!(ss.int("i"), Some(3));
        assert!(ss.int("zzz").is_none());
        assert_eq!(ss.array("b").unwrap().len(), 6);
    }

    #[test]
    fn compiled_expressions_match_interpreter() {
        let (map, ss, hs) = map_and_state();
        let mut c = Compiler::new(&map);

        // Integer: (i + 2) * n / 2 and min(i, n)
        let e = IrExpr::bin(
            BinOp::Div,
            IrExpr::mul(
                IrExpr::add(IrExpr::var("i"), IrExpr::Int(2)),
                IrExpr::var("n"),
            ),
            IrExpr::Int(2),
        );
        let p = c.compile_int(&e).unwrap();
        let e2 = IrExpr::Call {
            func: "min".into(),
            args: vec![IrExpr::var("i"), IrExpr::var("n")],
        };
        let p2 = c.compile_int(&e2).unwrap();
        // Data: 0.5 * b[i] + t + exp(t)
        let e3 = IrExpr::add(
            IrExpr::add(
                IrExpr::mul(
                    IrExpr::Real(0.5),
                    IrExpr::Load {
                        array: "b".into(),
                        indices: vec![IrExpr::var("i")],
                    },
                ),
                IrExpr::var("t"),
            ),
            IrExpr::Call {
                func: "exp".into(),
                args: vec![IrExpr::var("t")],
            },
        );
        let p3 = c.compile_data(&e3).unwrap();
        // Bool with short-circuit: i <= n && b[99] > 0 would error on the
        // right side; i > n && ... must return false without evaluating it.
        let oob = IrExpr::cmp(
            CmpOp::Gt,
            IrExpr::Load {
                array: "b".into(),
                indices: vec![IrExpr::Int(99)],
            },
            IrExpr::Int(0),
        );
        let sc_false = IrExpr::And(
            Box::new(IrExpr::cmp(CmpOp::Gt, IrExpr::var("i"), IrExpr::var("n"))),
            Box::new(oob.clone()),
        );
        let p4 = c.compile_bool(&sc_false).unwrap();
        let sc_true = IrExpr::Or(
            Box::new(IrExpr::cmp(CmpOp::Le, IrExpr::var("i"), IrExpr::var("n"))),
            Box::new(oob),
        );
        let p5 = c.compile_bool(&sc_true).unwrap();

        let set = c.into_set();
        let mut sc: Scratch<f64> = Scratch::for_set(&set);
        assert_eq!(
            p.eval_int(&set, &ss, &mut sc).unwrap(),
            eval_int_expr(&e, &hs).unwrap()
        );
        assert_eq!(
            p2.eval_int(&set, &ss, &mut sc).unwrap(),
            eval_int_expr(&e2, &hs).unwrap()
        );
        assert_eq!(
            p3.eval_data(&set, &ss, &mut sc).unwrap(),
            eval_data_expr(&e3, &hs).unwrap()
        );
        assert!(!p4.eval_bool(&set, &ss, &mut sc).unwrap());
        assert!(p5.eval_bool(&set, &ss, &mut sc).unwrap());
    }

    #[test]
    fn unbound_reads_error_like_the_interpreter() {
        let (map, ss, _) = map_and_state();
        let mut c = Compiler::new(&map);
        let p = c.compile_int(&IrExpr::var("missing")).unwrap();
        let set = c.into_set();
        let mut sc: Scratch<f64> = Scratch::for_set(&set);
        let err = p.eval_int(&set, &ss, &mut sc).unwrap_err();
        assert!(err
            .render(&map)
            .to_string()
            .contains("unbound integer variable 'missing'"));
    }

    #[test]
    fn env_registers_shadow_slots() {
        let (map, ss, _) = map_and_state();
        let mut c = Compiler::new(&map);
        c.set_env(&["i".to_string()]);
        let p = c
            .compile_int(&IrExpr::add(IrExpr::var("i"), IrExpr::var("n")))
            .unwrap();
        let set = c.into_set();
        let mut sc: Scratch<f64> = Scratch::for_set(&set);
        sc.iregs.resize(1, 0);
        sc.iregs[0] = 100; // pinned quantifier value, shadowing slot i = 3
        assert_eq!(p.eval_int(&set, &ss, &mut sc).unwrap(), 105);
    }

    #[test]
    fn compiled_statements_match_interpreter() {
        // do k = 1, n { acc = acc + 1; b[k] = b[k-1] + t }
        let stmts = vec![IrStmt::Loop {
            domain: IterDomain::unit("k", IrExpr::Int(1), IrExpr::var("n")),
            body: vec![
                IrStmt::AssignScalar {
                    name: "acc".into(),
                    value: IrExpr::add(IrExpr::var("acc"), IrExpr::Int(1)),
                },
                IrStmt::Store {
                    array: "b".into(),
                    indices: vec![IrExpr::var("k")],
                    value: IrExpr::add(
                        IrExpr::Load {
                            array: "b".into(),
                            indices: vec![IrExpr::sub(IrExpr::var("k"), IrExpr::Int(1))],
                        },
                        IrExpr::var("t"),
                    ),
                },
            ],
        }];
        let map = Arc::new(SlotMap::new());
        let mut hs: State<f64> = State::new();
        hs.set_int("n", 4).set_int("acc", 0).set_real("t", 1.5);
        hs.set_array("b", ArrayData::from_fn(vec![(0, 4)], |ix| ix[0] as f64));
        let mut ss = SlotState::from_state(&hs, &map);

        let mut c = Compiler::new(&map);
        let compiled = c.compile_stmts(&stmts).unwrap();
        let set = c.into_set();
        let mut sc: Scratch<f64> = Scratch::for_set(&set);
        let mut steps = 0u64;
        exec_stmts(&compiled, &set, &mut ss, &mut sc, &mut steps, 10_000).unwrap();
        run_stmts(&stmts, &mut hs, 10_000).unwrap();
        assert_eq!(ss.to_state(), hs);
        // Fortran counter-past-end semantics preserved.
        assert_eq!(ss.int("k"), Some(5));
    }

    #[test]
    fn conditionals_are_rejected_at_compile_time() {
        let map = SlotMap::new();
        let mut c = Compiler::new(&map);
        let stmt = IrStmt::If {
            cond: IrExpr::cmp(CmpOp::Gt, IrExpr::var("i"), IrExpr::Int(0)),
            then_body: vec![],
            else_body: vec![],
        };
        assert!(c.compile_stmts(&[stmt]).is_err());
    }

    #[test]
    fn shared_payload_needs_a_nonempty_mask_of_bound_lanes() {
        let (map, ss, _) = map_and_state();
        let b = map.array("b");
        let shared = ss.clone();
        let batch = SlotBatch::transpose(&[Some(&ss), Some(&shared), None]);
        let payload = ss.array("b").unwrap() as *const ArrayData<f64>;
        let got = batch.shared_payload(b, 0b011).map(|a| a as *const _);
        assert_eq!(got, Some(payload));
        // An empty mask, an unbound lane and a lane past the batch all
        // have no shared payload.
        assert!(batch.shared_payload(b, 0).is_none());
        assert!(batch.shared_payload(b, 0b111).is_none());
        assert!(batch.shared_payload(b, 0b1011).is_none());
        assert!(batch.shared_payload(b + 1, 0b011).is_none());
    }

    #[test]
    fn map_growth_leaves_old_states_unbound_not_broken() {
        let map = Arc::new(SlotMap::new());
        let mut ss: SlotState<ModInt> = SlotState::new(Arc::clone(&map));
        ss.set_int("n", 4);
        // Register a new name after the state was built.
        let late = map.scalar("late");
        assert!(ss.int_slot(late).is_none());
        assert_eq!(ss.int("n"), Some(4));
    }
}
