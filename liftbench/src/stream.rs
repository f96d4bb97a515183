//! The seeded request stream of the `stream_*` workloads: every corpus kernel
//! repeated as renamed and reformatted copies, a few of them with a permuted
//! parameter list.
//!
//! Copies are produced from the corpus text through `stng_ir::lexer`, so the
//! generator never has to understand the grammar: it renames the procedure,
//! its parameters and its declared locals, re-lays the tokens out with seeded
//! whitespace, and (for permuted copies) reorders the header's parameter
//! list. Today's fingerprint erases names and layout but not parameter
//! order, so renamed copies must hit the cache and permuted ones must miss;
//! [`check_fingerprints`] fails the run if either stops being true.

use crate::util::Rng;
use std::collections::{HashMap, HashSet};
use stng_corpus::CorpusKernel;
use stng_ir::lexer::{tokenize, Token};

/// Copies of each corpus kernel in the stream (35 × 58 = 2030 sources).
pub const COPIES_PER_KERNEL: usize = 58;
/// Copies of each kernel whose parameter list is permuted (≈10% of the
/// stream). Every kernel gets the same counts, so the number of cache misses
/// per pass does not depend on the seed.
pub const PERMUTED_PER_KERNEL: usize = 6;

/// One generated source.
#[derive(Debug, Clone)]
pub struct StreamSource {
    /// Index of the corpus kernel this copy was made from.
    pub base: usize,
    /// The copy's source text.
    pub text: String,
    /// Original identifier → the copy's identifier.
    pub names: HashMap<String, String>,
    /// Whether the header's parameter list was permuted.
    pub permuted: bool,
}

/// Generates the stream's sources for `seed`. Source
/// `base * COPIES_PER_KERNEL + copy` is copy `copy` of corpus kernel `base`;
/// each pass draws its own seeded arrival order.
pub fn generate(corpus: &[CorpusKernel], seed: u64) -> Result<Vec<StreamSource>, String> {
    let mut rng = Rng::derive(seed, 1);
    let mut out = Vec::with_capacity(corpus.len() * COPIES_PER_KERNEL);
    for (base, kernel) in corpus.iter().enumerate() {
        let program = stng_ir::parser::parse_program(&kernel.source)
            .map_err(|e| format!("{}: {e}", kernel.name))?;
        let [procedure] = program.procedures.as_slice() else {
            return Err(format!("{}: expected one procedure", kernel.name));
        };
        let mut declared: Vec<String> = vec![procedure.name.clone()];
        for name in procedure
            .params
            .iter()
            .chain(procedure.decls.iter().map(|d| &d.name))
        {
            if !declared.contains(name) {
                declared.push(name.clone());
            }
        }
        let permutation = permutation(procedure.params.len(), &mut rng);
        for copy in 0..COPIES_PER_KERNEL {
            // Copy 0 is the plain first sighting; copies 1..=6 carry the
            // permutation (see `workload::pass_order` for arrival rounds).
            let permuted = (1..=PERMUTED_PER_KERNEL).contains(&copy) && permutation.is_some();
            let names = fresh_names(&declared, &mut rng);
            let order = if permuted {
                permutation.as_deref()
            } else {
                None
            };
            let text = render(&kernel.source, &names, order, &mut rng)
                .map_err(|e| format!("{}: {e}", kernel.name))?;
            out.push(StreamSource {
                base,
                text,
                names,
                permuted,
            });
        }
    }
    Ok(out)
}

/// A seeded non-identity permutation of `n` parameters (`None` when `n < 2`).
fn permutation(n: usize, rng: &mut Rng) -> Option<Vec<usize>> {
    if n < 2 {
        return None;
    }
    let mut order: Vec<usize> = (0..n).collect();
    while order.iter().enumerate().all(|(k, &p)| k == p) {
        rng.shuffle(&mut order);
    }
    Some(order)
}

/// Maps every declared name to a fresh one: a random six-character stem
/// ending in a digit (so it never spells a keyword, an intrinsic or a
/// lower-bound suffix), plus the original's lower-bound suffix, if any.
///
/// Two properties of today's pipeline depend on names, and the renaming
/// keeps both, so that a renamed copy is the same kernel to the lifter:
/// - lowering lists a kernel's locals by name, so the fingerprint changes
///   if a rename reorders them: stems are assigned in the originals'
///   alphabetical order (equal-length stems keep that order whatever
///   suffix follows);
/// - `choose_small_bounds` gives `*min`, `*lo` and `*_l` parameters
///   lower-bound values, and CloverLeaf kernels stop lifting without them.
fn fresh_names(declared: &[String], rng: &mut Rng) -> HashMap<String, String> {
    const LETTERS: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    let mut sorted = declared.to_vec();
    sorted.sort();
    loop {
        let mut stems = HashSet::new();
        while stems.len() < sorted.len() {
            let mut stem = String::with_capacity(6);
            for _ in 0..5 {
                stem.push(LETTERS[rng.below(26)] as char);
            }
            stem.push(char::from(b'0' + rng.below(10) as u8));
            stems.insert(stem);
        }
        let mut stems: Vec<String> = stems.into_iter().collect();
        stems.sort();
        let names: HashMap<String, String> = sorted
            .iter()
            .zip(stems)
            .map(|(original, stem)| {
                let suffix = ["min", "lo", "_l"]
                    .into_iter()
                    .find(|s| original.ends_with(s))
                    .unwrap_or("");
                (original.clone(), stem + suffix)
            })
            .collect();
        if names.values().all(|fresh| !declared.contains(fresh)) {
            return names;
        }
    }
}

/// Re-lays out `source` token by token: identifiers renamed through
/// `names`, seeded indentation, one to three spaces between tokens, and the
/// occasional blank line. `order` permutes the header's parameter list.
fn render(
    source: &str,
    names: &HashMap<String, String>,
    order: Option<&[usize]>,
    rng: &mut Rng,
) -> Result<String, String> {
    let mut tokens: Vec<Token> = tokenize(source)
        .map_err(|e| e.to_string())?
        .into_iter()
        .map(|t| t.token)
        .collect();
    if let Some(order) = order {
        permute_header(&mut tokens, order)?;
    }
    let mut out = String::with_capacity(source.len() * 2);
    let mut line_start = true;
    for token in &tokens {
        let text = match token {
            Token::Eof => break,
            Token::Newline => {
                out.push('\n');
                if rng.below(8) == 0 {
                    out.push('\n');
                }
                line_start = true;
                continue;
            }
            Token::Annotation(_) => return Err("annotations are not supported".to_string()),
            Token::Ident(name) => names.get(name).unwrap_or(name).clone(),
            // `Display` drops the fraction of integral reals (`6.0` → `6`),
            // which would re-lex as an integer; `Debug` keeps it.
            Token::Real(value) => format!("{value:?}"),
            other => other.to_string(),
        };
        let gap = if line_start {
            rng.below(9)
        } else {
            1 + rng.below(3)
        };
        out.extend(std::iter::repeat_n(' ', gap));
        out.push_str(&text);
        line_start = false;
    }
    Ok(out)
}

/// Reorders the parameter list of the `procedure name(p0, p1, …)` header.
fn permute_header(tokens: &mut Vec<Token>, order: &[usize]) -> Result<(), String> {
    let open = tokens
        .iter()
        .position(|t| *t == Token::LParen)
        .ok_or("procedure header has no parameter list")?;
    let close = open
        + tokens[open..]
            .iter()
            .position(|t| *t == Token::RParen)
            .ok_or("unterminated parameter list")?;
    let params: Vec<Token> = tokens[open + 1..close]
        .iter()
        .filter(|t| **t != Token::Comma)
        .cloned()
        .collect();
    if params.len() != order.len() {
        return Err("parameter count mismatch".to_string());
    }
    let mut list = Vec::with_capacity(params.len() * 2);
    for (k, &p) in order.iter().enumerate() {
        if k > 0 {
            list.push(Token::Comma);
        }
        list.push(params[p].clone());
    }
    tokens.splice(open + 1..close, list);
    Ok(())
}

/// Fingerprints of every candidate fragment that lowers, in source order.
fn fingerprints(source: &str) -> Result<Vec<u128>, String> {
    let program = stng_ir::parser::parse_program(source).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    for procedure in &program.procedures {
        for fragment in &stng_ir::identify::classify_loops(procedure).candidates {
            if let Ok(kernel) = stng_ir::lower::lower_fragment(procedure, fragment) {
                out.push(stng_ir::canon::canonicalize(&kernel).fingerprint);
            }
        }
    }
    Ok(out)
}

/// The generator's self-check: a renamed copy must fingerprint like its
/// original, and a permuted copy of a kernel that lowers must not (the
/// permutation is what makes it a cache miss today).
pub fn check_fingerprints(corpus: &[CorpusKernel], stream: &[StreamSource]) -> Result<(), String> {
    let originals = corpus
        .iter()
        .map(|k| fingerprints(&k.source))
        .collect::<Result<Vec<_>, _>>()?;
    for (k, source) in stream.iter().enumerate() {
        let original = &originals[source.base];
        let copy = fingerprints(&source.text)?;
        let name = &corpus[source.base].name;
        if source.permuted {
            if !original.is_empty() && copy == *original {
                return Err(format!(
                    "stream source {k} (permuted {name}) fingerprints like its original"
                ));
            }
        } else if copy != *original {
            return Err(format!(
                "stream source {k} (renamed {name}) fingerprints differently from its original"
            ));
        }
    }
    Ok(())
}
