//! The rule engine: MG001–MG009 over the item tree.
//!
//! | Code  | Protects                                                    |
//! |-------|-------------------------------------------------------------|
//! | MG000 | suppression hygiene (`// mgrid-lint: allow(...)` needs a reason) |
//! | MG001 | virtual time: no `Instant::now`/`SystemTime::now` in sim crates |
//! | MG002 | stable iteration: no default-`RandomState` `HashMap`/`HashSet`  |
//! | MG003 | seed-threaded RNGs: no `thread_rng`/`rand::random`/`OsRng`      |
//! | MG004 | auditable unsafety: every `unsafe` has a `// SAFETY:` comment   |
//! | MG005 | single-threaded determinism: no `thread::spawn`/`Mutex`         |
//! | MG006 | single-threaded sim crates: no `std::sync::atomic` at all       |
//! | MG007 | unordered iteration: hash containers never drive output order   |
//! | MG008 | virtual-time float hazards: no float math/NaN compares on time  |
//! | MG009 | unbounded growth: loop pushes into fields need a drain          |
//!
//! Phase 1 ([`crate::itemtree`]) builds the per-file structure; this
//! module is phase 2. Identifier checks resolve through the file's `use`
//! table first, so `use std::collections::HashMap as Map; Map::new()` is
//! just as visible as the spelled-out form, and MG007 consults a
//! [`CrateContext`] built from *every* file of the crate, so a map
//! declared in one module is recognized when iterated in another.
//!
//! Code inside `#[cfg(test)]` items is exempt from every rule: tests may
//! time themselves and allocate scratch maps freely. A finding on line
//! `N` can be suppressed by `// mgrid-lint: allow(MGxxx) reason` on line
//! `N` or `N-1`; the reason is mandatory (MG000 otherwise).

use std::collections::{BTreeMap, BTreeSet};

use crate::config::Config;
use crate::itemtree::{self, ItemTree};
use crate::lexer::{lex, Lexed, Tok, Token};
use crate::report::Finding;

/// Every rule code the engine can emit (config validation uses this).
pub const KNOWN_CODES: &[&str] = &[
    "MG000", "MG001", "MG002", "MG003", "MG004", "MG005", "MG006", "MG007", "MG008", "MG009",
];

/// How far above an `unsafe` its `// SAFETY:` comment (MG004) may
/// start, in lines of contiguous comment/attribute.
const JUSTIFICATION_SEARCH_LINES: u32 = 30;

/// Iteration methods whose order reflects the hasher (MG007).
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
];

/// Chain terminals whose result cannot depend on iteration order.
const ORDER_FREE: &[&str] = &[
    "any",
    "all",
    "count",
    "sum",
    "product",
    "min",
    "max",
    "fold_first",
];

/// Sort-family methods that restore a canonical order after collecting.
const SORT_FAMILY: &[&str] = &[
    "sort",
    "sort_unstable",
    "sort_by",
    "sort_by_key",
    "sort_unstable_by",
    "sort_unstable_by_key",
];

/// The `std::sync::atomic` types (MG006).
const ATOMIC_TYPES: &[&str] = &[
    "AtomicBool",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicPtr",
];

/// The five atomic memory orderings; `Ordering::` followed by anything
/// else is `std::cmp::Ordering` (MG006).
const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Methods that shrink a container (MG009 drain evidence).
const DRAIN_METHODS: &[&str] = &[
    "pop",
    "pop_front",
    "pop_back",
    "drain",
    "clear",
    "truncate",
    "split_off",
    "swap_remove",
    "remove",
    "take",
];

/// One file's phase-1 analysis, ready for the rules.
pub struct FileAnalysis {
    /// Workspace-relative path (echoed into findings).
    pub path: String,
    /// Owning crate (selects which rules apply).
    pub crate_name: String,
    /// The file's source text.
    pub src: String,
    /// Token/comment streams.
    pub lexed: Lexed,
    /// The item tree.
    pub tree: ItemTree,
}

/// Run phase 1 on one file.
pub fn analyze(path: &str, crate_name: &str, src: &str) -> FileAnalysis {
    let lexed = lex(src);
    let tree = itemtree::build(&lexed.tokens);
    FileAnalysis {
        path: path.to_string(),
        crate_name: crate_name.to_string(),
        src: src.to_string(),
        lexed,
        tree,
    }
}

/// Cross-file facts about one crate, consulted by MG007.
#[derive(Debug, Default)]
pub struct CrateContext {
    /// Names declared (anywhere in the crate) with a hash-container type.
    pub hash_names: BTreeSet<String>,
}

impl CrateContext {
    /// Union the phase-1 facts of every file in the crate.
    pub fn build<'a>(files: impl IntoIterator<Item = &'a FileAnalysis>) -> Self {
        let mut ctx = CrateContext::default();
        for fa in files {
            for d in &fa.tree.decls {
                if d.is_hash() {
                    ctx.hash_names.insert(d.name.clone());
                }
            }
        }
        ctx
    }
}

/// Lint every file of one crate with shared [`CrateContext`].
pub fn lint_crate(files: &[&FileAnalysis], config: &Config) -> Vec<Finding> {
    let ctx = CrateContext::build(files.iter().copied());
    let mut findings = Vec::new();
    for fa in files {
        findings.extend(lint_file(fa, &ctx, config));
    }
    findings.sort_by(|a, b| (&a.path, a.line, a.code).cmp(&(&b.path, b.line, b.code)));
    findings
}

/// Analyze one file's source as a crate of its own (fixture tests and
/// single-file callers; workspace scans use [`lint_crate`]).
pub fn lint_source(path: &str, crate_name: &str, src: &str, config: &Config) -> Vec<Finding> {
    let fa = analyze(path, crate_name, src);
    lint_crate(&[&fa], config)
}

#[derive(Default, Clone)]
struct LineFlags {
    has_code: bool,
    first_is_hash: bool,
    has_comment: bool,
    safety: bool,
}

struct Suppression {
    /// Lines the comment occupies (a multi-line block comment covers all
    /// of them); the suppression applies to these lines and the next one.
    first_line: u32,
    last_line: u32,
    codes: Vec<String>,
    has_reason: bool,
}

fn lint_file(fa: &FileAnalysis, ctx: &CrateContext, config: &Config) -> Vec<Finding> {
    let path = fa.path.as_str();
    let nlines = fa.src.lines().count() as u32 + 1;
    let mut flags = vec![LineFlags::default(); nlines as usize + 2];

    for t in &fa.lexed.tokens {
        let f = &mut flags[t.line as usize];
        if !f.has_code {
            f.first_is_hash = t.tok == Tok::Punct('#');
        }
        f.has_code = true;
    }
    let mut suppressions: Vec<Suppression> = Vec::new();
    let mut findings: Vec<Finding> = Vec::new();
    for c in &fa.lexed.comments {
        for l in c.line..c.line + c.lines_spanned {
            if let Some(f) = flags.get_mut(l as usize) {
                f.has_comment = true;
                if c.text.contains("SAFETY:") {
                    f.safety = true;
                }
            }
        }
        let text = c.text.trim();
        if let Some(rest) = text.strip_prefix("mgrid-lint:") {
            match parse_suppression(rest) {
                Some((codes, has_reason)) => suppressions.push(Suppression {
                    first_line: c.line,
                    last_line: c.line + c.lines_spanned - 1,
                    codes,
                    has_reason,
                }),
                None => findings.push(Finding {
                    code: "MG000",
                    path: path.to_string(),
                    line: c.line,
                    message: "malformed suppression; expected \
                              `mgrid-lint: allow(MGxxx[, MGyyy]) reason`"
                        .into(),
                }),
            }
        }
    }

    let enabled = |code: &str| config.code_enabled(&fa.crate_name, code);
    let toks = &fa.lexed.tokens;
    let tree = &fa.tree;

    // Import findings come from the resolved use table, so aliased and
    // grouped imports are flagged exactly like spelled-out ones.
    for entry in tree.uses.entries.values() {
        if entry.cfg_test {
            continue;
        }
        let base = entry.path.rsplit("::").next().unwrap_or("");
        let line = entry.line;
        match base {
            "Instant" | "SystemTime" if enabled("MG001") => {
                push(&mut findings, "MG001", path, line, format!(
                    "import of wall-clock type `{base}` in a sim crate — simulation code must use virtual time (`mgrid_desim::now`)"
                ));
            }
            "HashMap" | "HashSet" if enabled("MG002") && from_std_collections(&entry.path) => {
                push(&mut findings, "MG002", path, line, format!(
                    "default-`RandomState` `{base}` — iteration order varies per process; use `mgrid_desim::Fx{base}` or `BTree{}`",
                    &base[4..]
                ));
            }
            "thread_rng" | "OsRng" if enabled("MG003") => {
                push(&mut findings, "MG003", path, line, format!(
                    "ambient randomness `{base}` — RNGs must be seed-threaded (`mgrid_desim::SimRng`)"
                ));
            }
            "random" if enabled("MG003") && entry.path.starts_with("rand") => {
                push(&mut findings, "MG003", path, line,
                    "ambient randomness `rand::random` — RNGs must be seed-threaded (`mgrid_desim::SimRng`)".into(),
                );
            }
            "Mutex" | "RwLock" | "Condvar" if enabled("MG005") => {
                push(&mut findings, "MG005", path, line, format!(
                    "import of OS synchronization `{base}` in a sim crate — use `mgrid_desim::sync` primitives"
                ));
            }
            _ => {}
        }
    }

    let in_loop = loop_body_tokens(toks);
    let drained = drained_names(toks);
    // MG007 name resolution: a file-local declaration wins over the
    // crate-wide hash set, so the `Vec` named `procs` in this file is
    // not mistaken for the `FxHashMap` named `procs` in another.
    let mut local_decl_hash: BTreeMap<&str, bool> = BTreeMap::new();
    for d in &tree.decls {
        *local_decl_hash.entry(d.name.as_str()).or_insert(false) |= d.is_hash();
    }
    let treat_as_hash = |name: &str| -> bool {
        match local_decl_hash.get(name) {
            Some(is_hash) => *is_hash,
            None => ctx.hash_names.contains(name),
        }
    };
    let n = toks.len();
    let mut mg006_line = 0u32;
    for i in 0..n {
        if tree.in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        let Tok::Ident(id) = &toks[i].tok else {
            continue;
        };
        let line = toks[i].line;
        // Resolve through the use table: an aliased import is checked
        // under the name it actually refers to.
        let base = tree.uses.base_name(id);
        // MG006 reads `use` declarations too: `atomic::` catches every
        // import form (plain, grouped, glob) and every qualified path.
        if enabled("MG006") && line != mg006_line && names_an_atomic(toks, i, base) {
            mg006_line = line;
            push(&mut findings, "MG006", path, line, format!(
                "`{base}` from `std::sync::atomic` in a sim crate — a simulation runs on one thread and shares nothing across threads; use `Cell`/`RefCell`"
            ));
        }
        if tree.in_use.get(i).copied().unwrap_or(false) {
            continue;
        }
        match base {
            "Instant" | "SystemTime" if enabled("MG001") && path_call(toks, i, "now") => {
                push(&mut findings, "MG001", path, line, format!(
                    "wall-clock read `{base}::now` — simulation code must use virtual time (`mgrid_desim::now`)"
                ));
            }
            "HashMap" | "HashSet" if enabled("MG002") => {
                let needed = if base == "HashMap" { 3 } else { 2 };
                let violation = match explicit_generic_args(toks, i + 1) {
                    Some(args) => args < needed,
                    None => true, // `HashMap::new()`, bare mention
                };
                if violation {
                    push(&mut findings, "MG002", path, line, format!(
                        "default-`RandomState` `{base}` — iteration order varies per process; use `mgrid_desim::Fx{base}` or `BTree{}`",
                        &base[4..]
                    ));
                }
            }
            "thread_rng" | "OsRng" | "from_entropy" if enabled("MG003") => {
                push(&mut findings, "MG003", path, line, format!(
                    "ambient randomness `{base}` — RNGs must be seed-threaded (`mgrid_desim::SimRng`)"
                ));
            }
            "rand" if enabled("MG003") && path_call(toks, i, "random") => {
                push(&mut findings, "MG003", path, line,
                    "ambient randomness `rand::random` — RNGs must be seed-threaded (`mgrid_desim::SimRng`)".into(),
                );
            }
            "random"
                if enabled("MG003")
                    && tree.uses.resolve(id).is_some_and(|p| p.starts_with("rand")) =>
            {
                push(&mut findings, "MG003", path, line,
                    "ambient randomness `rand::random` — RNGs must be seed-threaded (`mgrid_desim::SimRng`)".into(),
                );
            }
            "unsafe" if enabled("MG004") && !has_safety_comment(&flags, line) => {
                push(
                    &mut findings,
                    "MG004",
                    path,
                    line,
                    "`unsafe` without a preceding `// SAFETY:` justification".into(),
                );
            }
            "thread" if enabled("MG005") && path_call(toks, i, "spawn") => {
                push(&mut findings, "MG005", path, line,
                    "`thread::spawn` in the deterministic executor path — use `mgrid_desim::spawn`/`spawn_daemon`".into(),
                );
            }
            "Mutex" | "RwLock" | "Condvar" if enabled("MG005") => {
                push(&mut findings, "MG005", path, line, format!(
                    "OS synchronization `{base}` in the deterministic executor path — use `mgrid_desim::sync` primitives"
                ));
            }
            "for" if enabled("MG007") => {
                if let Some(name) = for_over_hash_container(toks, i, &treat_as_hash) {
                    push(&mut findings, "MG007", path, line, format!(
                        "iteration over hash container `{name}` — order varies per hasher; collect-and-sort or use a BTreeMap"
                    ));
                }
            }
            _ => {}
        }
        // Method-position checks share the `.name(` shape.
        let is_method = i > 0
            && matches!(toks[i - 1].tok, Tok::Punct('.'))
            && matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('(')));
        if is_method && enabled("MG007") && ITER_METHODS.contains(&id.as_str()) {
            if let Some(name) = itemtree::receiver_base(toks, i - 1) {
                if treat_as_hash(&name) && !order_exonerated(toks, i) {
                    push(&mut findings, "MG007", path, line, format!(
                        "iteration over hash container `{name}` — order varies per hasher; collect-and-sort, use a BTreeMap, or finish with an order-insensitive fold"
                    ));
                }
            }
        }
        if enabled("MG008") {
            mg008(&mut findings, path, toks, i, is_method);
        }
        if is_method
            && enabled("MG009")
            && (id == "push" || id == "push_back")
            && in_loop.get(i).copied().unwrap_or(false)
        {
            if let Some(b) = itemtree::receiver_base_idx(toks, i - 1) {
                let name = match &toks[b].tok {
                    Tok::Ident(s) => s.clone(),
                    _ => continue,
                };
                // Locals are bounded by their function; the hazard is
                // growth of *persistent* state, i.e. field receivers.
                let is_field = b > 0 && matches!(toks[b - 1].tok, Tok::Punct('.'));
                if is_field && !drained.contains(&name) {
                    push(&mut findings, "MG009", path, line, format!(
                        "`{id}` into `{name}` inside a loop with no drain/cap in this file — unbounded growth hazard; drain it or annotate why it is bounded"
                    ));
                }
            }
        }
    }

    // Apply suppressions, then report reason-less ones that matched.
    let mut used_without_reason: Vec<u32> = Vec::new();
    findings.retain(|f| {
        if f.code == "MG000" {
            return true;
        }
        for s in &suppressions {
            let covers = f.line >= s.first_line && f.line <= s.last_line + 1;
            if covers && s.codes.iter().any(|c| c == f.code) {
                if !s.has_reason {
                    used_without_reason.push(s.first_line);
                }
                return false;
            }
        }
        true
    });
    for line in used_without_reason {
        push(
            &mut findings,
            "MG000",
            path,
            line,
            "suppression without a reason — write `mgrid-lint: allow(MGxxx) <why this is sound>`"
                .into(),
        );
    }
    findings.sort_by(|a, b| (a.line, a.code).cmp(&(b.line, b.code)));
    findings
}

/// MG002 only polices the std containers; an alias resolving to
/// `FxHashMap`, or a plain local type that merely *ends* in `HashMap`,
/// is fine. Unresolved bare mentions (empty path) are assumed std.
fn from_std_collections(path: &str) -> bool {
    !path.contains("Fx")
}

/// MG006: does the identifier at `i` (use-resolved to `base`) name
/// something from `std::sync::atomic` — the module path itself, one of
/// its types, or one of its memory orderings?
fn names_an_atomic(toks: &[Token], i: usize, base: &str) -> bool {
    match base {
        // `atomic::…` anywhere, or a bare `use std::sync::atomic;`.
        "atomic" => {
            matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::PathSep))
                || (i >= 2
                    && matches!(toks[i - 1].tok, Tok::PathSep)
                    && matches!(&toks[i - 2].tok, Tok::Ident(s) if s == "sync"))
        }
        "Ordering" => ATOMIC_ORDERINGS.iter().any(|o| path_call(toks, i, o)),
        _ => ATOMIC_TYPES.contains(&base),
    }
}

/// MG008 checks at token `i`: float construction/scaling of sim time and
/// NaN-capable comparisons.
fn mg008(findings: &mut Vec<Finding>, path: &str, toks: &[Token], i: usize, is_method: bool) {
    let Tok::Ident(id) = &toks[i].tok else { return };
    let line = toks[i].line;
    let called = matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('(')));
    let defined = i > 0 && matches!(&toks[i - 1].tok, Tok::Ident(k) if k == "fn");
    match id.as_str() {
        "from_secs_f64" if called && !defined => {
            push(findings, "MG008", path, line,
                "float construction of virtual time (`from_secs_f64`) — floats drift; derive sim time from integer ticks".into(),
            );
        }
        "mul_f64" | "div_f64" if is_method => {
            push(findings, "MG008", path, line, format!(
                "float scaling of sim time (`{id}`) — confine float math to the vetted conversion sites in `desim::time`"
            ));
        }
        "as_secs_f64" if is_method && statement_has_comparison(toks, i) => {
            push(findings, "MG008", path, line,
                "float comparison of sim time (`as_secs_f64` feeding a comparison) — compare integer ticks instead".into(),
            );
        }
        "partial_cmp" if is_method => {
            push(findings, "MG008", path, line,
                "NaN-capable comparison `partial_cmp` in sim code — a NaN makes ordering non-total; use `total_cmp` or integer keys".into(),
            );
        }
        _ => {}
    }
}

/// Does the statement containing token `i` hold a top-level comparison
/// operator? Scans both directions to the nearest statement boundary.
fn statement_has_comparison(toks: &[Token], i: usize) -> bool {
    let lo = {
        let mut j = i;
        let mut steps = 0;
        while j > 0 && steps < 80 {
            match toks[j - 1].tok {
                Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}') => break,
                _ => {}
            }
            j -= 1;
            steps += 1;
        }
        j
    };
    let hi = {
        let mut j = i;
        let mut steps = 0;
        let mut parens = 0i32;
        while j < toks.len() && steps < 80 {
            match toks[j].tok {
                Tok::Punct('(') => parens += 1,
                Tok::Punct(')') => parens -= 1,
                Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}') if parens <= 0 => break,
                _ => {}
            }
            j += 1;
            steps += 1;
        }
        j
    };
    for k in lo..hi {
        if comparison_at(toks, k) {
            return true;
        }
    }
    false
}

/// Is the punct at `k` a comparison operator (not generics, shifts,
/// turbofish, or a match arm's `=>`)?
fn comparison_at(toks: &[Token], k: usize) -> bool {
    let p = match toks[k].tok {
        Tok::Punct(c @ ('<' | '>' | '=' | '!')) => c,
        _ => return false,
    };
    let prev = k.checked_sub(1).map(|j| &toks[j].tok);
    let next = toks.get(k + 1).map(|t| &t.tok);
    let prev_p = |c: char| matches!(prev, Some(Tok::Punct(x)) if *x == c);
    let next_p = |c: char| matches!(next, Some(Tok::Punct(x)) if *x == c);
    match p {
        '<' | '>' => {
            // `::<` turbofish, `<<`/`>>` shifts, `->`/`=>` are tokenized
            // elsewhere; require value-like neighbors to rule out generics.
            if matches!(prev, Some(Tok::PathSep)) || prev_p(p) || next_p(p) || prev_p('=') {
                return false;
            }
            let value_left = matches!(
                prev,
                Some(Tok::Ident(_) | Tok::Literal | Tok::Punct(')') | Tok::Punct(']'))
            );
            let value_right = matches!(
                next,
                Some(
                    Tok::Ident(_)
                        | Tok::Literal
                        | Tok::Punct('(')
                        | Tok::Punct('=')
                        | Tok::Punct('-')
                )
            );
            value_left && value_right
        }
        '=' => next_p('=') && !prev_p('=') && !prev_p('!') && !prev_p('<') && !prev_p('>'),
        '!' => next_p('='),
        _ => false,
    }
}

/// After an MG007 iteration call at token `i` (the method ident), is the
/// result demonstrably order-insensitive? True when the chain ends in an
/// order-free terminal, contains a sort in the same statement, or
/// collects into something sorted within the next few lines.
fn order_exonerated(toks: &[Token], i: usize) -> bool {
    let mut j = i + 1;
    let mut parens = 0i32;
    let mut steps = 0;
    let mut collected = false;
    while j < toks.len() && steps < 160 {
        match &toks[j].tok {
            Tok::Punct('(') => parens += 1,
            Tok::Punct(')') => parens -= 1,
            Tok::Punct(';') | Tok::Punct('{') if parens <= 0 => break,
            Tok::Ident(m) if parens <= 0 => {
                if ORDER_FREE.contains(&m.as_str()) || SORT_FAMILY.contains(&m.as_str()) {
                    return true;
                }
                if m == "collect" {
                    collected = true;
                }
            }
            // A sort anywhere in the statement (e.g. inside a block
            // expression) still canonicalizes the order.
            Tok::Ident(m) if SORT_FAMILY.contains(&m.as_str()) => {
                return true;
            }
            _ => {}
        }
        j += 1;
        steps += 1;
    }
    if collected {
        // `let v: Vec<_> = m.iter().collect(); v.sort();` — allow the
        // sort to follow within a few statements.
        for t in toks.iter().skip(j).take(60) {
            if let Tok::Ident(m) = &t.tok {
                if SORT_FAMILY.contains(&m.as_str()) {
                    return true;
                }
            }
        }
    }
    false
}

/// `for PAT in [&][mut] chain {` where the chain is plain field access
/// ending in a crate-known hash container (no method call — those are
/// caught at the `.iter()`-style site). Returns the container name.
fn for_over_hash_container(
    toks: &[Token],
    i: usize,
    is_hash: &dyn Fn(&str) -> bool,
) -> Option<String> {
    // Find `in` (skipping the pattern; bounded to keep this cheap).
    let mut j = i + 1;
    let mut depth = 0i32;
    let mut steps = 0;
    loop {
        match toks.get(j).map(|t| &t.tok) {
            Some(Tok::Punct('(') | Tok::Punct('[')) => depth += 1,
            Some(Tok::Punct(')') | Tok::Punct(']')) => depth -= 1,
            Some(Tok::Ident(s)) if s == "in" && depth == 0 => break,
            None => return None,
            _ => {}
        }
        j += 1;
        steps += 1;
        if steps > 48 {
            return None;
        }
    }
    // Expression: only `&`/`mut`/idents/`.`/`::` up to the body `{`.
    let mut last_ident: Option<&str> = None;
    let mut k = j + 1;
    loop {
        match toks.get(k).map(|t| &t.tok) {
            Some(Tok::Punct('{')) => break,
            Some(Tok::Punct('&') | Tok::Punct('.')) | Some(Tok::PathSep) => {}
            Some(Tok::Ident(s)) if s == "mut" || s == "self" || s == "crate" => {}
            Some(Tok::Ident(s)) => last_ident = Some(s.as_str()),
            _ => return None, // calls, literals, ranges: not this form
        }
        k += 1;
        if k > j + 24 {
            return None;
        }
    }
    last_ident.filter(|s| is_hash(s)).map(|s| s.to_string())
}

/// Token-index bitmap: inside the body of a `for`/`while`/`loop`.
fn loop_body_tokens(toks: &[Token]) -> Vec<bool> {
    let mut in_loop = vec![false; toks.len()];
    for i in 0..toks.len() {
        let is_loop_kw =
            matches!(&toks[i].tok, Tok::Ident(s) if s == "for" || s == "while" || s == "loop");
        if !is_loop_kw {
            continue;
        }
        // Body = first `{` at paren depth 0 after the keyword.
        let mut parens = 0i32;
        let mut j = i + 1;
        while j < toks.len() {
            match toks[j].tok {
                Tok::Punct('(') | Tok::Punct('[') => parens += 1,
                Tok::Punct(')') | Tok::Punct(']') => parens -= 1,
                Tok::Punct('{') if parens == 0 => break,
                Tok::Punct(';') if parens == 0 => {
                    j = toks.len(); // `for` in a macro or malformed: bail
                }
                _ => {}
            }
            j += 1;
        }
        if j >= toks.len() {
            continue;
        }
        // Mark the balanced body.
        let mut depth = 0i32;
        let start = j;
        while j < toks.len() {
            match toks[j].tok {
                Tok::Punct('{') => depth += 1,
                Tok::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        for f in &mut in_loop[start..j.min(toks.len())] {
            *f = true;
        }
    }
    in_loop
}

/// File-wide drain evidence for MG009: receiver names of shrinking
/// method calls, argument names of `take`/`replace` free calls, and —
/// via for-binding aliases — the containers those bindings iterate
/// (`for (d, buf) in bufs.iter_mut()` lets a drain of `buf` exonerate
/// `bufs`).
fn drained_names(toks: &[Token]) -> BTreeSet<String> {
    let aliases = for_aliases(toks);
    let mut out = BTreeSet::new();
    let add = |name: &str, out: &mut BTreeSet<String>| {
        out.insert(name.to_string());
        if let Some(target) = aliases.get(name) {
            out.insert(target.clone());
        }
    };
    for i in 0..toks.len() {
        let Tok::Ident(m) = &toks[i].tok else {
            continue;
        };
        let called = matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('(')));
        if !called {
            continue;
        }
        let is_method = i > 0 && matches!(toks[i - 1].tok, Tok::Punct('.'));
        if is_method && DRAIN_METHODS.contains(&m.as_str()) {
            if let Some(b) = itemtree::receiver_base(toks, i - 1) {
                add(&b, &mut out);
            }
        }
        if !is_method && (m == "take" || m == "replace") {
            // `mem::take(&mut st.bufs)` and friends: every named
            // argument counts as drained.
            let mut j = i + 2;
            let mut depth = 1i32;
            while j < toks.len() && depth > 0 {
                match &toks[j].tok {
                    Tok::Punct('(') => depth += 1,
                    Tok::Punct(')') => depth -= 1,
                    Tok::Ident(a) if a != "mut" && a != "self" => add(a, &mut out),
                    _ => {}
                }
                j += 1;
            }
        }
    }
    out
}

/// Pattern-binding → iterated-container map from `for` loops.
fn for_aliases(toks: &[Token]) -> BTreeMap<String, String> {
    let mut map = BTreeMap::new();
    for i in 0..toks.len() {
        if !matches!(&toks[i].tok, Tok::Ident(s) if s == "for") {
            continue;
        }
        // Collect pattern idents up to `in`.
        let mut pats = Vec::new();
        let mut j = i + 1;
        let mut steps = 0;
        let found_in = loop {
            match toks.get(j).map(|t| &t.tok) {
                Some(Tok::Ident(s)) if s == "in" => break true,
                Some(Tok::Ident(s)) if s != "mut" && s != "ref" => pats.push(s.clone()),
                Some(Tok::Punct('{') | Tok::Punct(';')) | None => break false,
                _ => {}
            }
            j += 1;
            steps += 1;
            if steps > 32 {
                break false;
            }
        };
        if !found_in {
            continue;
        }
        // The iterated container: the last ident of the plain field
        // chain after `in`, dropping a trailing method name
        // (`st.bufs.iter_mut()` → `bufs`, `bufs` → `bufs`).
        let mut chain: Vec<&str> = Vec::new();
        let mut k = j + 1;
        let mut called = false;
        loop {
            match toks.get(k).map(|t| &t.tok) {
                Some(Tok::Ident(s)) if s != "mut" && s != "self" && s != "crate" => {
                    chain.push(s.as_str())
                }
                Some(Tok::Punct('(')) => {
                    called = true;
                    break;
                }
                Some(Tok::Punct('{')) | None => break,
                Some(Tok::Punct('&') | Tok::Punct('.') | Tok::Ident(_)) | Some(Tok::PathSep) => {}
                _ => {
                    chain.clear();
                    break;
                }
            }
            k += 1;
            if k > j + 24 {
                chain.clear();
                break;
            }
        }
        if called {
            chain.pop(); // the method name, not the container
        }
        if let Some(c) = chain.last().map(|s| s.to_string()) {
            for p in pats {
                map.insert(p, c.clone());
            }
        }
    }
    map
}

fn push(findings: &mut Vec<Finding>, code: &'static str, path: &str, line: u32, message: String) {
    findings.push(Finding {
        code,
        path: path.to_string(),
        line,
        message,
    });
}

/// `allow(MG001, MG002) reason...` → (codes, has_reason).
fn parse_suppression(rest: &str) -> Option<(Vec<String>, bool)> {
    let rest = rest.trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let close = rest.find(')')?;
    let codes: Vec<String> = rest[..close]
        .split(',')
        .map(|c| c.trim().to_string())
        .filter(|c| !c.is_empty())
        .collect();
    if codes.is_empty() || codes.iter().any(|c| !KNOWN_CODES.contains(&c.as_str())) {
        return None;
    }
    let reason = rest[close + 1..].trim();
    Some((codes, !reason.is_empty()))
}

/// Is `toks[i]` followed by `::ident`? (`Instant::now`, `thread::spawn`.)
fn path_call(toks: &[Token], i: usize, ident: &str) -> bool {
    matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::PathSep))
        && matches!(toks.get(i + 2).map(|t| &t.tok), Some(Tok::Ident(s)) if s == ident)
}

/// If the tokens at `j` open a generic-argument list (`<...>` directly or
/// via turbofish `::<...>`), count its top-level arguments; `None` when no
/// generics follow. An explicit third `HashMap` argument names a hasher.
fn explicit_generic_args(toks: &[Token], mut j: usize) -> Option<usize> {
    if matches!(toks.get(j).map(|t| &t.tok), Some(Tok::PathSep))
        && matches!(toks.get(j + 1).map(|t| &t.tok), Some(Tok::Punct('<')))
    {
        j += 1;
    }
    if !matches!(toks.get(j).map(|t| &t.tok), Some(Tok::Punct('<'))) {
        return None;
    }
    let mut depth = 1i32;
    // Tuple keys (`HashMap<(u32, u16), V>`) and array types carry commas
    // of their own: only count separators outside any nesting.
    let mut nest = 0i32;
    let mut commas = 0usize;
    let mut any = false;
    for t in toks.iter().skip(j + 1).take(256) {
        match t.tok {
            Tok::Punct('<') => depth += 1,
            Tok::Punct('>') => {
                depth -= 1;
                if depth == 0 {
                    return if any { Some(commas + 1) } else { Some(0) };
                }
            }
            Tok::Punct('(') | Tok::Punct('[') => nest += 1,
            Tok::Punct(')') | Tok::Punct(']') => nest -= 1,
            Tok::Punct(',') if depth == 1 && nest == 0 => commas += 1,
            // A statement boundary means this `<` was a comparison.
            Tok::Punct(';') | Tok::Punct('{') => return None,
            _ => any = true,
        }
    }
    None
}

/// Walk upward from the line above `line` through comments and
/// attributes looking for a `SAFETY:` comment (same-line comments count
/// too).
fn has_safety_comment(flags: &[LineFlags], line: u32) -> bool {
    if flags.get(line as usize).is_some_and(|f| f.safety) {
        return true;
    }
    let stop = line.saturating_sub(JUSTIFICATION_SEARCH_LINES);
    let mut l = line.saturating_sub(1);
    while l > stop {
        let Some(f) = flags.get(l as usize) else {
            return false;
        };
        if f.safety {
            return true;
        }
        let continue_up = (f.has_code && f.first_is_hash) || (!f.has_code && f.has_comment);
        if !continue_up {
            return false;
        }
        l -= 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        lint_source("f.rs", "desim", src, &Config::default())
    }

    fn codes(src: &str) -> Vec<(&'static str, u32)> {
        run(src).into_iter().map(|f| (f.code, f.line)).collect()
    }

    #[test]
    fn file_local_vec_shadows_crate_wide_hash_name() {
        // `procs` is an FxHashMap in a.rs but a plain Vec in b.rs; only
        // the hash-map iteration may be flagged.
        let a = analyze(
            "a.rs",
            "desim",
            "struct K { procs: FxHashMap<u64, u32> }\n\
             fn g(k: &K) { for p in k.procs.values() { drop(p); } }\n",
        );
        let b = analyze(
            "b.rs",
            "desim",
            "fn f() {\n    let procs: Vec<u32> = Vec::new();\n    for p in procs.iter() { drop(p); }\n}\n",
        );
        let f = lint_crate(&[&a, &b], &Config::default());
        let got: Vec<(&str, &str, u32)> = f
            .iter()
            .map(|f| (f.code, f.path.as_str(), f.line))
            .collect();
        assert_eq!(got, vec![("MG007", "a.rs", 2)], "{f:?}");
    }

    #[test]
    fn wall_clock_flagged_with_line() {
        let src = "fn f() {\n    let t = std::time::Instant::now();\n}\n";
        assert_eq!(codes(src), vec![("MG001", 2)]);
    }

    #[test]
    fn wall_clock_import_flagged() {
        assert_eq!(codes("use std::time::Instant;\n"), vec![("MG001", 1)]);
    }

    #[test]
    fn aliased_wall_clock_flagged_at_import_and_use() {
        let src = "use std::time::Instant as Clock;\nfn f() { let t = Clock::now(); }\n";
        assert_eq!(codes(src), vec![("MG001", 1), ("MG001", 2)]);
    }

    #[test]
    fn virtual_now_is_fine() {
        assert!(codes("fn f() { let t = mgrid_desim::now(); }").is_empty());
    }

    #[test]
    fn default_hashmap_flagged_explicit_hasher_ok() {
        assert_eq!(codes("type M = HashMap<u32, u32>;"), vec![("MG002", 1)]);
        assert!(codes("type M = std::collections::HashMap<u32, u32, FxBuildHasher>;").is_empty());
        assert_eq!(codes("let m = HashMap::new();"), vec![("MG002", 1)]);
        assert!(codes("let m = HashMap::<u32, u32, FxBuildHasher>::default();").is_empty());
        assert_eq!(codes("let s: HashSet<u8> = HashSet::default();").len(), 2);
        assert!(codes("type S = HashSet<u8, FxBuildHasher>;").is_empty());
    }

    #[test]
    fn aliased_hashmap_flagged_at_import_and_use() {
        // The MG002 alias blindspot: before the use-resolution table the
        // `Map::new()` line passed unseen.
        let src = "use std::collections::HashMap as Map;\nfn f() { let m = Map::new(); }\n";
        assert_eq!(codes(src), vec![("MG002", 1), ("MG002", 2)]);
    }

    #[test]
    fn alias_to_fx_container_is_fine() {
        // The reverse direction: an alias *to* the deterministic hasher
        // must not be mistaken for std's.
        let src =
            "use mgrid_desim::FxHashMap as HashMap;\nfn f() { let m = HashMap::default(); }\n";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn nested_generics_counted_at_top_level() {
        assert_eq!(
            codes("type M = HashMap<K, Vec<(u8, u8)>>;"),
            vec![("MG002", 1)]
        );
        assert!(codes("type M = HashMap<K, Vec<(u8, u8)>, S>;").is_empty());
        // Commas inside tuple keys are not argument separators.
        assert_eq!(
            codes("type M = HashMap<(usize, u64), Data>;"),
            vec![("MG002", 1)]
        );
        assert!(codes("type M = HashMap<(usize, u64), Data, S>;").is_empty());
    }

    #[test]
    fn ambient_randomness_flagged() {
        assert_eq!(codes("let x = rand::thread_rng();"), vec![("MG003", 1)]);
        assert_eq!(codes("let x: u8 = rand::random();"), vec![("MG003", 1)]);
        assert_eq!(
            codes("let r = SmallRng::from_entropy();"),
            vec![("MG003", 1)]
        );
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        assert_eq!(codes("fn f() { unsafe { work() } }"), vec![("MG004", 1)]);
        assert!(
            codes("// SAFETY: single-threaded by construction\nunsafe impl Send for X {}")
                .is_empty()
        );
        // Multi-line SAFETY comment: the marker may sit above continuation
        // lines.
        assert!(codes(
            "// SAFETY: the pointer is valid because\n// the arena outlives all handles\nunsafe fn g() {}"
        )
        .is_empty());
        // Attributes between the comment and the item are fine.
        assert!(codes("// SAFETY: no aliasing\n#[inline]\nunsafe fn g() {}").is_empty());
    }

    #[test]
    fn paired_unsafe_impls_need_their_own_safety() {
        let src =
            "// SAFETY: single-threaded\nunsafe impl Send for X {}\nunsafe impl Sync for X {}\n";
        assert_eq!(codes(src), vec![("MG004", 3)]);
    }

    #[test]
    fn blank_line_breaks_safety_association() {
        assert_eq!(
            codes("// SAFETY: stale\n\nunsafe fn g() {}"),
            vec![("MG004", 3)]
        );
    }

    #[test]
    fn os_threads_and_locks_flagged() {
        assert_eq!(codes("std::thread::spawn(|| {});"), vec![("MG005", 1)]);
        assert_eq!(codes("let m = Mutex::new(0);"), vec![("MG005", 1)]);
        assert_eq!(codes("use std::sync::Mutex;"), vec![("MG005", 1)]);
        // Our own primitives and thread-id reads are fine.
        assert!(codes("let n = Notify::new();").is_empty());
        assert!(codes("let id = std::thread::current().id();").is_empty());
    }

    #[test]
    fn cfg_test_items_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::time::Instant;\n    fn t() { let m = HashMap::new(); }\n}\n";
        assert!(codes(src).is_empty());
        // ...but following items are not.
        let src2 = "#[cfg(test)]\nmod tests { }\nfn f() { let t = Instant::now(); }\n";
        assert_eq!(codes(src2), vec![("MG001", 3)]);
    }

    #[test]
    fn cfg_all_test_also_exempt() {
        let src = "#[cfg(all(test, feature = \"x\"))]\nfn t() { let m = HashMap::new(); }\n";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn suppression_with_reason_works() {
        let src =
            "// mgrid-lint: allow(MG002) FFI boundary needs std hasher\nlet m = HashMap::new();\n";
        assert!(codes(src).is_empty());
        // Same-line suppression.
        let src2 = "let m = HashMap::new(); // mgrid-lint: allow(MG002) interop\n";
        assert!(codes(src2).is_empty());
    }

    #[test]
    fn suppression_without_reason_is_mg000() {
        let src = "// mgrid-lint: allow(MG002)\nlet m = HashMap::new();\n";
        assert_eq!(codes(src), vec![("MG000", 1)]);
    }

    #[test]
    fn suppression_only_masks_listed_codes() {
        let src = "// mgrid-lint: allow(MG002) maps fine here\nlet t = Instant::now();\n";
        assert_eq!(codes(src), vec![("MG001", 2)]);
    }

    #[test]
    fn malformed_suppression_is_mg000() {
        assert_eq!(codes("// mgrid-lint: allow(MG9)\n"), vec![("MG000", 1)]);
        assert_eq!(codes("// mgrid-lint: allow MG001\n"), vec![("MG000", 1)]);
    }

    #[test]
    fn non_sim_crate_only_gets_unsafe_rules() {
        let src = "use std::time::Instant;\nfn f() { unsafe { x() } }\n";
        let f = lint_source("b.rs", "bench", src, &Config::default());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].code, "MG004");
    }

    #[test]
    fn strings_and_comments_never_flag() {
        assert!(codes("// Instant::now() and HashMap::new() discussed here\n").is_empty());
        assert!(codes("let s = \"Instant::now\";").is_empty());
    }

    // ----- MG006 -------------------------------------------------------

    #[test]
    fn every_atomic_ordering_is_flagged_paired_or_not() {
        // Relaxed, an unpaired Acquire, a statically invalid
        // load-with-Release — and the pairs and SeqCst the old pairing
        // audit let through.
        let src = "fn f(c: &C) { c.n.fetch_add(1, Ordering::Relaxed); }\n\
                   fn r(s: &S) -> u64 { s.min_time.load(Ordering::Acquire) }\n\
                   fn i(s: &S) -> u64 { s.min_time.load(Ordering::Release) }\n\
                   fn w(s: &S) { s.min_time.store(1, Ordering::Release); }\n\
                   fn t(s: &S) { s.buf.swap(p, Ordering::AcqRel); }\n\
                   fn q(a: &A) { a.flag.store(true, Ordering::SeqCst); }\n";
        let want: Vec<_> = (1..=6).map(|l| ("MG006", l)).collect();
        assert_eq!(codes(src), want);
    }

    #[test]
    fn ordering_comment_no_longer_discharges_an_atomic() {
        let src = "fn f(c: &C) {\n    // ORDERING: pure statistics counter.\n    c.n.fetch_add(1, Ordering::Relaxed);\n}\n";
        assert_eq!(codes(src), vec![("MG006", 3)]);
        let src = "fn f(c: &C) {\n    // mgrid-lint: allow(MG006) statistics shared with a host-side sampler thread\n    c.n.fetch_add(1, Ordering::Relaxed);\n}\n";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn atomic_imports_and_types_flagged_once_per_line() {
        assert_eq!(
            codes("use std::sync::atomic::{AtomicU64, Ordering};\n"),
            vec![("MG006", 1)]
        );
        assert_eq!(
            codes("use std::sync::{atomic::AtomicBool, Arc};\n"),
            vec![("MG006", 1)]
        );
        assert_eq!(codes("use std::sync::atomic::*;\n"), vec![("MG006", 1)]);
        assert_eq!(codes("use std::sync::atomic;\n"), vec![("MG006", 1)]);
        assert_eq!(
            codes("static N: AtomicU64 = AtomicU64::new(0);\n"),
            vec![("MG006", 1)]
        );
        // An alias hides nothing.
        let src = "use std::sync::atomic::AtomicUsize as Count;\nstruct S { n: Count }\n";
        assert_eq!(codes(src), vec![("MG006", 1), ("MG006", 2)]);
    }

    #[test]
    fn cmp_ordering_is_not_an_atomic_ordering() {
        let src =
            "use std::cmp::Ordering;\nfn f(a: u8, b: u8) -> bool { a.cmp(&b) == Ordering::Less }\n";
        assert!(codes(src).is_empty());
    }

    // ----- MG007 -------------------------------------------------------

    #[test]
    fn hash_iteration_flagged_by_declared_name() {
        let src = "struct S { procs: FxHashMap<u64, u32> }\n\
                   fn f(s: &S) { for p in s.procs.values() { emit(p); } }\n";
        assert_eq!(codes(src), vec![("MG007", 2)]);
    }

    #[test]
    fn order_free_terminals_are_fine() {
        let src = "struct S { procs: FxHashMap<u64, u32> }\n\
                   fn f(s: &S) -> bool { s.procs.values().any(|p| *p > 0) }\n";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn collect_and_sort_is_fine() {
        let src = "struct S { procs: FxHashMap<u64, u32> }\n\
                   fn f(s: &S) {\n    let mut v: Vec<_> = s.procs.iter().collect();\n    v.sort_by_key(|(k, _)| **k);\n}\n";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn bare_for_over_hash_container_flagged() {
        let src = "struct S { seen: FxHashSet<u64> }\n\
                   fn f(s: &S) { for x in &s.seen { emit(x); } }\n";
        assert_eq!(codes(src), vec![("MG007", 2)]);
    }

    #[test]
    fn vec_iteration_is_fine() {
        let src =
            "struct S { order: Vec<u64> }\nfn f(s: &S) { for x in s.order.iter() { emit(x); } }\n";
        assert!(codes(src).is_empty());
    }

    // ----- MG008 -------------------------------------------------------

    #[test]
    fn float_time_construction_flagged() {
        assert_eq!(
            codes("fn f() { let t = SimTime::from_secs_f64(0.5); }"),
            vec![("MG008", 1)]
        );
        // The definition site itself is not a use.
        assert!(codes("impl SimTime { fn from_secs_f64(s: f64) -> Self { todo!() } }").is_empty());
    }

    #[test]
    fn float_scaling_and_nan_compares_flagged() {
        assert_eq!(
            codes("fn f(t: SimTime) { t.mul_f64(1.5); }"),
            vec![("MG008", 1)]
        );
        assert_eq!(
            codes("fn f(a: f64, b: f64) { a.partial_cmp(&b); }"),
            vec![("MG008", 1)]
        );
    }

    #[test]
    fn float_time_comparison_flagged_but_plain_read_ok() {
        assert_eq!(
            codes("fn f(t: SimTime) -> bool { t.as_secs_f64() < 0.5 }"),
            vec![("MG008", 1)]
        );
        assert!(codes("fn f(t: SimTime) -> f64 { t.as_secs_f64() }").is_empty());
    }

    // ----- MG009 -------------------------------------------------------

    #[test]
    fn loop_push_into_undrained_field_flagged() {
        let src = "fn f(st: &mut S) {\n    loop {\n        st.pending.push(1);\n    }\n}\n";
        assert_eq!(codes(src), vec![("MG009", 3)]);
    }

    #[test]
    fn drained_field_is_fine() {
        let src = "fn f(st: &mut S) {\n    loop {\n        st.pending.push(1);\n        while let Some(x) = st.pending.pop() { use_it(x); }\n    }\n}\n";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn local_accumulator_push_is_fine() {
        let src = "fn f() -> Vec<u32> {\n    let mut out = Vec::new();\n    for i in 0..4 { out.push(i); }\n    out\n}\n";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn for_binding_alias_drain_exonerates() {
        let src = "fn f(st: &mut S) {\n    loop {\n        st.bufs.push(1);\n        for buf in st.bufs.iter_mut() { handle(std::mem::take(buf)); }\n    }\n}\n";
        assert!(codes(src).is_empty());
    }
}
