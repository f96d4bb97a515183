//! JSON (de)serialization of cached lifting results.
//!
//! Expressions are encoded as tagged arrays (`["bin","+",lhs,rhs]`), which
//! keeps entries compact and the decoder a direct match on the tag. Floats
//! use Rust's shortest round-trippable `{}` form, so stencil coefficients
//! survive a disk round trip bit-for-bit; the structures reload to values
//! that compare `==` to the originals (the round-trip test in
//! `tests/cache_roundtrip.rs` pins the whole path down).

use stng_ir::ir::{BinOp, CmpOp, IrExpr};
use stng_obs::json::{nu, obj, s, Json};
use stng_pred::lang::{OutEq, Postcondition, QuantBound, QuantClause};
use stng_synth::{ControlBits, PhaseTimings};

type DecodeResult<T> = Result<T, String>;

fn field<'a>(v: &'a Json, key: &str) -> DecodeResult<&'a Json> {
    v.get(key).ok_or_else(|| format!("missing field '{key}'"))
}

fn usize_field(v: &Json, key: &str) -> DecodeResult<usize> {
    field(v, key)?
        .as_u64()
        .map(|x| x as usize)
        .ok_or_else(|| format!("field '{key}' is not an unsigned integer"))
}

// ---------------------------------------------------------------- IrExpr --

fn bin_op_str(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
    }
}

fn bin_op_from(text: &str) -> DecodeResult<BinOp> {
    Ok(match text {
        "+" => BinOp::Add,
        "-" => BinOp::Sub,
        "*" => BinOp::Mul,
        "/" => BinOp::Div,
        other => return Err(format!("unknown binary operator {other:?}")),
    })
}

fn cmp_op_str(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
        CmpOp::Eq => "==",
        CmpOp::Ne => "!=",
    }
}

fn cmp_op_from(text: &str) -> DecodeResult<CmpOp> {
    Ok(match text {
        "<" => CmpOp::Lt,
        "<=" => CmpOp::Le,
        ">" => CmpOp::Gt,
        ">=" => CmpOp::Ge,
        "==" => CmpOp::Eq,
        "!=" => CmpOp::Ne,
        other => return Err(format!("unknown comparison operator {other:?}")),
    })
}

/// Encodes an [`IrExpr`] as a tagged array.
pub fn encode_expr(e: &IrExpr) -> Json {
    match e {
        IrExpr::Int(v) => Json::Arr(vec![s("int"), Json::Num(*v as f64)]),
        IrExpr::Real(v) => Json::Arr(vec![s("real"), Json::Num(*v)]),
        IrExpr::Var(name) => Json::Arr(vec![s("var"), s(name.clone())]),
        IrExpr::Load { array, indices } => Json::Arr(vec![
            s("load"),
            s(array.clone()),
            Json::Arr(indices.iter().map(encode_expr).collect()),
        ]),
        IrExpr::Bin { op, lhs, rhs } => Json::Arr(vec![
            s("bin"),
            s(bin_op_str(*op)),
            encode_expr(lhs),
            encode_expr(rhs),
        ]),
        IrExpr::Call { func, args } => Json::Arr(vec![
            s("call"),
            s(func.clone()),
            Json::Arr(args.iter().map(encode_expr).collect()),
        ]),
        IrExpr::Cmp { op, lhs, rhs } => Json::Arr(vec![
            s("cmp"),
            s(cmp_op_str(*op)),
            encode_expr(lhs),
            encode_expr(rhs),
        ]),
        IrExpr::And(a, b) => Json::Arr(vec![s("and"), encode_expr(a), encode_expr(b)]),
        IrExpr::Or(a, b) => Json::Arr(vec![s("or"), encode_expr(a), encode_expr(b)]),
        IrExpr::Not(e) => Json::Arr(vec![s("not"), encode_expr(e)]),
    }
}

/// Decodes an [`IrExpr`] from its tagged-array encoding.
pub fn decode_expr(v: &Json) -> DecodeResult<IrExpr> {
    let parts = v.as_arr().ok_or("expression must be an array")?;
    let tag = parts
        .first()
        .and_then(Json::as_str)
        .ok_or("expression missing tag")?;
    let arity = |n: usize| -> DecodeResult<()> {
        if parts.len() == n + 1 {
            Ok(())
        } else {
            Err(format!("tag {tag:?} expects {n} operands"))
        }
    };
    let expr_at = |k: usize| decode_expr(&parts[k]);
    let str_at = |k: usize| -> DecodeResult<&str> {
        parts[k]
            .as_str()
            .ok_or_else(|| format!("tag {tag:?} operand {k} must be a string"))
    };
    let list_at = |k: usize| -> DecodeResult<Vec<IrExpr>> {
        parts[k]
            .as_arr()
            .ok_or_else(|| format!("tag {tag:?} operand {k} must be an array"))?
            .iter()
            .map(decode_expr)
            .collect()
    };
    Ok(match tag {
        "int" => {
            arity(1)?;
            IrExpr::Int(
                parts[1]
                    .as_i64()
                    .ok_or("int literal out of range or fractional")?,
            )
        }
        "real" => {
            arity(1)?;
            IrExpr::Real(parts[1].as_f64().ok_or("real literal must be a number")?)
        }
        "var" => {
            arity(1)?;
            IrExpr::Var(str_at(1)?.to_string())
        }
        "load" => {
            arity(2)?;
            IrExpr::Load {
                array: str_at(1)?.to_string(),
                indices: list_at(2)?,
            }
        }
        "bin" => {
            arity(3)?;
            IrExpr::Bin {
                op: bin_op_from(str_at(1)?)?,
                lhs: Box::new(expr_at(2)?),
                rhs: Box::new(expr_at(3)?),
            }
        }
        "call" => {
            arity(2)?;
            IrExpr::Call {
                func: str_at(1)?.to_string(),
                args: list_at(2)?,
            }
        }
        "cmp" => {
            arity(3)?;
            IrExpr::Cmp {
                op: cmp_op_from(str_at(1)?)?,
                lhs: Box::new(expr_at(2)?),
                rhs: Box::new(expr_at(3)?),
            }
        }
        "and" => {
            arity(2)?;
            IrExpr::And(Box::new(expr_at(1)?), Box::new(expr_at(2)?))
        }
        "or" => {
            arity(2)?;
            IrExpr::Or(Box::new(expr_at(1)?), Box::new(expr_at(2)?))
        }
        "not" => {
            arity(1)?;
            IrExpr::Not(Box::new(expr_at(1)?))
        }
        other => return Err(format!("unknown expression tag {other:?}")),
    })
}

// --------------------------------------------------------- Postcondition --

fn encode_bound(b: &QuantBound) -> Json {
    obj(vec![
        ("var", s(b.var.clone())),
        ("lo", encode_expr(&b.lo)),
        ("lo_strict", Json::Bool(b.lo_strict)),
        ("hi", encode_expr(&b.hi)),
        ("hi_strict", Json::Bool(b.hi_strict)),
        ("step", Json::Num(b.step as f64)),
    ])
}

fn decode_bound(v: &Json) -> DecodeResult<QuantBound> {
    Ok(QuantBound {
        var: field(v, "var")?.as_str().ok_or("bound var")?.to_string(),
        lo: decode_expr(field(v, "lo")?)?,
        lo_strict: field(v, "lo_strict")?.as_bool().ok_or("bound lo_strict")?,
        hi: decode_expr(field(v, "hi")?)?,
        hi_strict: field(v, "hi_strict")?.as_bool().ok_or("bound hi_strict")?,
        step: field(v, "step")?.as_i64().ok_or("bound step")?,
    })
}

fn encode_clause(c: &QuantClause) -> Json {
    obj(vec![
        (
            "bounds",
            Json::Arr(c.bounds.iter().map(encode_bound).collect()),
        ),
        ("array", s(c.eq.array.clone())),
        (
            "indices",
            Json::Arr(c.eq.indices.iter().map(encode_expr).collect()),
        ),
        ("rhs", encode_expr(&c.eq.rhs)),
    ])
}

fn decode_clause(v: &Json) -> DecodeResult<QuantClause> {
    Ok(QuantClause {
        bounds: field(v, "bounds")?
            .as_arr()
            .ok_or("clause bounds")?
            .iter()
            .map(decode_bound)
            .collect::<DecodeResult<_>>()?,
        eq: OutEq {
            array: field(v, "array")?
                .as_str()
                .ok_or("clause array")?
                .to_string(),
            indices: field(v, "indices")?
                .as_arr()
                .ok_or("clause indices")?
                .iter()
                .map(decode_expr)
                .collect::<DecodeResult<_>>()?,
            rhs: decode_expr(field(v, "rhs")?)?,
        },
    })
}

/// Encodes a [`Postcondition`].
pub fn encode_post(p: &Postcondition) -> Json {
    Json::Arr(p.clauses.iter().map(encode_clause).collect())
}

/// Decodes a [`Postcondition`].
pub fn decode_post(v: &Json) -> DecodeResult<Postcondition> {
    Ok(Postcondition {
        clauses: v
            .as_arr()
            .ok_or("postcondition must be an array of clauses")?
            .iter()
            .map(decode_clause)
            .collect::<DecodeResult<_>>()?,
    })
}

// ------------------------------------------------------------ CachedLift --

/// The persisted payload of one lifting-cache entry, in **canonical** symbol
/// names (see `stng_ir::canon`): everything needed to rebuild a
/// `KernelReport` for any alpha-variant of the fingerprinted kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedLift {
    /// Canonical text of the kernel; stored so a (vanishingly unlikely)
    /// fingerprint collision is detected instead of served.
    pub canon_text: String,
    /// Whether the kernel lifted.
    pub translated: bool,
    /// The synthesized postcondition, canonical names (`translated` only).
    pub post: Option<Postcondition>,
    /// Untranslated reason. Identifiers quoted as `'name'` are stored in
    /// canonical form and rewritten into the requesting kernel's names on a
    /// hit; unquoted prose is kept verbatim.
    pub reason: Option<String>,
    /// Whether the summary carries a full soundness proof.
    pub soundly_verified: bool,
    /// CEGIS iterations of the original lift.
    pub cegis_iterations: usize,
    /// Wall-clock synthesis time of the original lift, in nanoseconds.
    pub synthesis_time_ns: u64,
    /// Control bits of the synthesis encoding.
    pub control_bits: ControlBits,
    /// Postcondition AST-node count.
    pub postcond_nodes: usize,
    /// Prover attempts on the accepted candidate.
    pub prover_attempts: usize,
    /// Peak CEGIS candidate-set size.
    pub peak_candidates: usize,
    /// Per-phase checking times and capture counter of the original lift.
    pub phase: PhaseTimings,
}

fn encode_control_bits(b: &ControlBits) -> Json {
    obj(vec![
        ("index", nu(b.index_bits)),
        ("const", nu(b.const_bits)),
        ("bound", nu(b.bound_bits)),
        ("invariant", nu(b.invariant_bits)),
        ("conditional", nu(b.conditional_bits)),
    ])
}

fn decode_control_bits(v: &Json) -> DecodeResult<ControlBits> {
    Ok(ControlBits {
        index_bits: usize_field(v, "index")?,
        const_bits: usize_field(v, "const")?,
        bound_bits: usize_field(v, "bound")?,
        invariant_bits: usize_field(v, "invariant")?,
        conditional_bits: usize_field(v, "conditional")?,
    })
}

fn encode_phase(p: &PhaseTimings) -> Json {
    obj(vec![
        ("capture_ns", Json::Num(p.capture_ns as f64)),
        ("bounded_ns", Json::Num(p.bounded_ns as f64)),
        ("prove_ns", Json::Num(p.prove_ns as f64)),
        ("captures", nu(p.captures)),
        ("oblig_hits", Json::Num(p.oblig_hits as f64)),
        ("oblig_misses", Json::Num(p.oblig_misses as f64)),
        ("core_hits", Json::Num(p.core_hits as f64)),
        ("screened", Json::Num(p.screened as f64)),
        ("survivors", Json::Num(p.survivors as f64)),
        ("batch_scans", Json::Num(p.batch_scans as f64)),
    ])
}

fn decode_phase(v: &Json) -> DecodeResult<PhaseTimings> {
    Ok(PhaseTimings {
        capture_ns: field(v, "capture_ns")?.as_u64().ok_or("capture_ns")?,
        bounded_ns: field(v, "bounded_ns")?.as_u64().ok_or("bounded_ns")?,
        prove_ns: field(v, "prove_ns")?.as_u64().ok_or("prove_ns")?,
        captures: usize_field(v, "captures")?,
        oblig_hits: field(v, "oblig_hits")?.as_u64().ok_or("oblig_hits")?,
        oblig_misses: field(v, "oblig_misses")?.as_u64().ok_or("oblig_misses")?,
        core_hits: field(v, "core_hits")?.as_u64().ok_or("core_hits")?,
        screened: field(v, "screened")?.as_u64().ok_or("screened")?,
        survivors: field(v, "survivors")?.as_u64().ok_or("survivors")?,
        batch_scans: field(v, "batch_scans")?.as_u64().ok_or("batch_scans")?,
    })
}

/// Current on-disk schema version; bump on any encoding change so stale
/// files read as misses instead of decode errors. Schema 3 added the
/// checksum-line framing around the document (see `cache::decode_checked`);
/// schema 4 added the prover memo/core counters to the phase block;
/// schema 5 added the adaptive bounded-screen counters
/// (screened/survivors/batch_scans).
pub const SCHEMA: u64 = 5;

/// Encodes a cache entry into its on-disk JSON document.
pub fn encode_entry(e: &CachedLift) -> Json {
    let mut fields = vec![
        ("schema", Json::Num(SCHEMA as f64)),
        ("canon_text", s(e.canon_text.clone())),
        ("translated", Json::Bool(e.translated)),
    ];
    if let Some(post) = &e.post {
        fields.push(("post", encode_post(post)));
    }
    if let Some(reason) = &e.reason {
        fields.push(("reason", s(reason.clone())));
    }
    fields.extend([
        ("soundly_verified", Json::Bool(e.soundly_verified)),
        ("cegis_iterations", nu(e.cegis_iterations)),
        ("synthesis_time_ns", Json::Num(e.synthesis_time_ns as f64)),
        ("control_bits", encode_control_bits(&e.control_bits)),
        ("postcond_nodes", nu(e.postcond_nodes)),
        ("prover_attempts", nu(e.prover_attempts)),
        ("peak_candidates", nu(e.peak_candidates)),
        ("phase", encode_phase(&e.phase)),
    ]);
    obj(fields)
}

/// Decodes a cache entry from its on-disk JSON document.
pub fn decode_entry(v: &Json) -> DecodeResult<CachedLift> {
    let schema = field(v, "schema")?.as_u64().ok_or("schema")?;
    if schema != SCHEMA {
        return Err(format!("unsupported cache schema {schema}"));
    }
    Ok(CachedLift {
        canon_text: field(v, "canon_text")?
            .as_str()
            .ok_or("canon_text")?
            .to_string(),
        translated: field(v, "translated")?.as_bool().ok_or("translated")?,
        post: v.get("post").map(decode_post).transpose()?,
        reason: v
            .get("reason")
            .map(|r| r.as_str().map(str::to_string).ok_or("reason"))
            .transpose()?,
        soundly_verified: field(v, "soundly_verified")?
            .as_bool()
            .ok_or("soundly_verified")?,
        cegis_iterations: usize_field(v, "cegis_iterations")?,
        synthesis_time_ns: field(v, "synthesis_time_ns")?
            .as_u64()
            .ok_or("synthesis_time_ns")?,
        control_bits: decode_control_bits(field(v, "control_bits")?)?,
        postcond_nodes: usize_field(v, "postcond_nodes")?,
        prover_attempts: usize_field(v, "prover_attempts")?,
        peak_candidates: usize_field(v, "peak_candidates")?,
        phase: decode_phase(field(v, "phase")?)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_post() -> Postcondition {
        let rhs = IrExpr::add(
            IrExpr::mul(
                IrExpr::Real(0.25),
                IrExpr::Load {
                    array: "p1".into(),
                    indices: vec![IrExpr::sub(IrExpr::var("q0"), IrExpr::Int(1))],
                },
            ),
            IrExpr::Call {
                func: "exp".into(),
                args: vec![IrExpr::var("p3")],
            },
        );
        Postcondition {
            clauses: vec![QuantClause {
                bounds: vec![QuantBound::strided(
                    "q0",
                    IrExpr::Int(1),
                    IrExpr::sub(IrExpr::var("p0"), IrExpr::Int(1)),
                    2,
                )],
                eq: OutEq {
                    array: "p2".into(),
                    indices: vec![IrExpr::var("q0")],
                    rhs,
                },
            }],
        }
    }

    #[test]
    fn expressions_round_trip() {
        let e = IrExpr::And(
            Box::new(IrExpr::cmp(CmpOp::Le, IrExpr::var("i"), IrExpr::Int(7))),
            Box::new(IrExpr::Not(Box::new(IrExpr::Or(
                Box::new(IrExpr::cmp(
                    CmpOp::Ne,
                    IrExpr::Real(-0.0416),
                    IrExpr::var("x"),
                )),
                Box::new(IrExpr::bin(BinOp::Div, IrExpr::var("a"), IrExpr::Int(-3))),
            )))),
        );
        let back = decode_expr(&Json::parse(&encode_expr(&e).to_string()).unwrap()).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn entries_round_trip_through_text() {
        let entry = CachedLift {
            canon_text: "params: p0:int\nlocals: l0:int\nbody:(loop …)\n".to_string(),
            translated: true,
            post: Some(sample_post()),
            reason: None,
            soundly_verified: true,
            cegis_iterations: 3,
            synthesis_time_ns: 123_456_789,
            control_bits: ControlBits {
                index_bits: 10,
                const_bits: 4,
                bound_bits: 3,
                invariant_bits: 2,
                conditional_bits: 0,
            },
            postcond_nodes: 42,
            prover_attempts: 17,
            peak_candidates: 9,
            phase: PhaseTimings {
                capture_ns: 1_000_000,
                bounded_ns: 2_000_000,
                prove_ns: 3_000_000,
                captures: 6,
                oblig_hits: 120,
                oblig_misses: 40,
                core_hits: 7,
                screened: 11,
                survivors: 2,
                batch_scans: 33,
            },
        };
        let text = encode_entry(&entry).to_string();
        let back = decode_entry(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, entry);

        let failed = CachedLift {
            translated: false,
            post: None,
            reason: Some("loop over 'k' is decrementing (step -1)".to_string()),
            ..entry
        };
        let text = encode_entry(&failed).to_string();
        assert_eq!(decode_entry(&Json::parse(&text).unwrap()).unwrap(), failed);
    }

    #[test]
    fn schema_mismatch_is_an_error() {
        let mut doc = encode_entry(&CachedLift {
            canon_text: String::new(),
            translated: false,
            post: None,
            reason: Some("r".into()),
            soundly_verified: false,
            cegis_iterations: 0,
            synthesis_time_ns: 0,
            control_bits: ControlBits::default(),
            postcond_nodes: 0,
            prover_attempts: 0,
            peak_candidates: 0,
            phase: PhaseTimings::default(),
        });
        if let Json::Obj(fields) = &mut doc {
            fields[0].1 = Json::Num(99.0);
        }
        assert!(decode_entry(&doc).is_err());
    }
}
