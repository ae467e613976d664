//! Phase-1 analysis: a lightweight per-file item tree.
//!
//! The original analyzer (PR 3) matched rules directly against the flat
//! token stream, which made it blind to anything requiring context: a
//! `use std::collections::HashMap as Map;` alias, the extent of a
//! `#[cfg(test)]` item, or which struct fields hold hash containers.
//! This module is the structural pass that runs once per file before any
//! rule does:
//!
//! * **Items** — brace-matched modules, functions, impls, structs,
//!   enums and traits, each with its token span, nesting depth, and
//!   whether a `#[cfg(test)]` attribute (its own or an ancestor's)
//!   exempts it from the determinism rules.
//! * **Use table** — every `use` declaration resolved into a
//!   `local name → full path` map, including grouped imports
//!   (`use a::{b, c as d}`) and glob prefixes. Rules look identifiers
//!   up here first, so aliased imports are no longer invisible.
//! * **Hash declarations** — names (struct fields, `let` bindings, fn
//!   parameters) declared with a hash-container type, feeding the MG007
//!   unordered-iteration rule with cross-file knowledge of what `procs`
//!   in `inner.procs.values()` actually is.
//!
//! The tree is deliberately *lightweight*: it never resolves types or
//! builds expressions, it only brace-matches and records spans — exact
//! enough for the rules, cheap enough to run on every file of the
//! workspace on every invocation.

use std::collections::BTreeMap;

use crate::lexer::{Tok, Token};

/// What kind of source item a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `mod name { ... }` (or `mod name;`).
    Mod,
    /// `fn name(...) { ... }`.
    Fn,
    /// `impl Type { ... }` / `impl Trait for Type { ... }`.
    Impl,
    /// `struct Name ...`.
    Struct,
    /// `enum Name { ... }`.
    Enum,
    /// `trait Name { ... }`.
    Trait,
    /// Anything else at item position (statics, consts, macros, ...).
    Other,
}

/// One brace-matched item.
#[derive(Debug, Clone)]
pub struct Item {
    /// The item's kind.
    pub kind: ItemKind,
    /// Declared name (`""` for impls and unnamed items).
    pub name: String,
    /// 1-based line of the item's first token.
    pub line: u32,
    /// Token-index span `[start, end)` including attributes and body.
    pub tokens: (usize, usize),
    /// Nesting depth (0 = file level).
    pub depth: usize,
    /// True when the item or an ancestor carries `#[cfg(test)]`.
    pub cfg_test: bool,
}

/// One resolved `use` entry.
#[derive(Debug, Clone)]
pub struct UseEntry {
    /// Full imported path, e.g. `std::collections::HashMap`.
    pub path: String,
    /// 1-based line of the final path segment.
    pub line: u32,
    /// True when the declaring `use` sits inside `#[cfg(test)]` code.
    pub cfg_test: bool,
}

/// The file's import resolution table: local name → full path.
#[derive(Debug, Default)]
pub struct UseTable {
    /// Resolved entries keyed by the local (possibly aliased) name.
    pub entries: BTreeMap<String, UseEntry>,
    /// Glob import prefixes (`use foo::*` records `foo`).
    pub globs: Vec<String>,
}

impl UseTable {
    /// The name `ident` actually refers to: the final segment of the
    /// imported path when `ident` was introduced by a `use`, otherwise
    /// `ident` itself. `use std::collections::HashMap as Map` makes
    /// `base_name("Map")` return `"HashMap"`.
    pub fn base_name<'a>(&'a self, ident: &'a str) -> &'a str {
        match self.entries.get(ident) {
            Some(e) => e.path.rsplit("::").next().unwrap_or(ident),
            None => ident,
        }
    }

    /// The full path `ident` resolves to, when imported.
    pub fn resolve(&self, ident: &str) -> Option<&str> {
        self.entries.get(ident).map(|e| e.path.as_str())
    }
}

/// A name declared with a recognized container type — struct field,
/// `let` binding or parameter. Hash-container declarations feed MG007's
/// crate-wide name set; sequential/ordered ones (`Vec`, `BTreeMap`, ...)
/// let a file-local binding shadow a hash name from another file.
#[derive(Debug, Clone)]
pub struct Decl {
    /// The declared name.
    pub name: String,
    /// The container type's base name after alias resolution.
    pub container: String,
    /// 1-based source line of the declaration.
    pub line: u32,
}

impl Decl {
    /// True when the declared container iterates in hasher order.
    pub fn is_hash(&self) -> bool {
        HASH_CONTAINERS.contains(&self.container.as_str())
    }
}

/// The per-file structural analysis.
#[derive(Debug, Default)]
pub struct ItemTree {
    /// All items in source order (parents before children).
    pub items: Vec<Item>,
    /// The import table.
    pub uses: UseTable,
    /// Token-index ranges `[start, end)` of `use` declarations.
    pub use_ranges: Vec<(usize, usize)>,
    /// Names declared with recognized container types.
    pub decls: Vec<Decl>,
    /// Per token index: inside a `#[cfg(test)]` item.
    pub in_test: Vec<bool>,
    /// Per token index: inside a `use` declaration.
    pub in_use: Vec<bool>,
}

/// Hash-container type names (pre-alias-resolution targets).
pub const HASH_CONTAINERS: &[&str] = &["HashMap", "HashSet", "FxHashMap", "FxHashSet"];

/// All container types worth recording as declarations: the hash
/// containers plus the order-stable ones whose file-local bindings
/// shadow a crate-wide hash name (a `Vec<_>` named `procs` in `host.rs`
/// is not the `FxHashMap` named `procs` in `kernel.rs`).
const DECL_CONTAINERS: &[&str] = &[
    "HashMap",
    "HashSet",
    "FxHashMap",
    "FxHashSet",
    "Vec",
    "VecDeque",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "RefCell",
    "Box",
    "Rc",
    "Arc",
];

/// Build the item tree for one file's token stream.
pub fn build(toks: &[Token]) -> ItemTree {
    let mut tree = ItemTree {
        in_test: vec![false; toks.len()],
        in_use: vec![false; toks.len()],
        ..ItemTree::default()
    };
    parse_items(toks, 0, toks.len(), 0, false, &mut tree);
    collect_decls(toks, &mut tree);
    tree
}

fn ident(toks: &[Token], i: usize) -> Option<&str> {
    match toks.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn punct(toks: &[Token], i: usize, c: char) -> bool {
    matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
}

/// Parse items in `[i, end)` at `depth`; `in_test` marks an enclosing
/// `#[cfg(test)]`.
fn parse_items(
    toks: &[Token],
    mut i: usize,
    end: usize,
    depth: usize,
    in_test: bool,
    tree: &mut ItemTree,
) {
    while i < end {
        let start = i;
        // Attributes: accumulate, noting cfg(test).
        let mut cfg_test = in_test;
        while punct(toks, i, '#') && punct(toks, i + 1, '[') {
            let (next, is_test) = scan_attribute(toks, i + 1);
            cfg_test = cfg_test || is_test;
            i = next.min(end);
        }
        if i >= end {
            break;
        }
        // Modifiers before the defining keyword.
        let mut j = i;
        loop {
            match ident(toks, j) {
                Some("pub") => {
                    j += 1;
                    if punct(toks, j, '(') {
                        j = skip_balanced(toks, j, end, '(', ')');
                    }
                }
                Some("unsafe" | "async" | "const" | "extern" | "default") => {
                    // `extern "C"` carries a literal after the keyword.
                    j += 1;
                    if matches!(toks.get(j).map(|t| &t.tok), Some(Tok::Literal)) {
                        j += 1;
                    }
                }
                _ => break,
            }
            if j >= end {
                break;
            }
        }
        let line = toks[start].line;
        let (kind, name, item_end) = match ident(toks, j) {
            Some("mod") => {
                let name = ident(toks, j + 1).unwrap_or("").to_string();
                // `mod name;` or `mod name { items }`.
                if punct(toks, j + 2, '{') {
                    let body_end = skip_balanced(toks, j + 2, end, '{', '}');
                    // Recurse into the body (between the braces).
                    let idx = tree.items.len();
                    tree.items.push(Item {
                        kind: ItemKind::Mod,
                        name: name.clone(),
                        line,
                        tokens: (start, body_end),
                        depth,
                        cfg_test,
                    });
                    parse_items(
                        toks,
                        j + 3,
                        body_end.saturating_sub(1),
                        depth + 1,
                        cfg_test,
                        tree,
                    );
                    mark(tree, start, body_end, cfg_test);
                    let _ = idx;
                    i = body_end;
                    continue;
                }
                (ItemKind::Mod, name, skip_item_from(toks, j, end))
            }
            Some("fn") => {
                let name = ident(toks, j + 1).unwrap_or("").to_string();
                let fn_end = skip_fn(toks, j, end);
                // Recurse into the body so scoped `use` declarations are
                // resolved too; statements parse as harmless `Other`
                // items (their spans are only used for cfg(test)
                // marking, which they inherit anyway).
                if let Some(open) = find_body_open(toks, j, fn_end) {
                    parse_items(
                        toks,
                        open + 1,
                        fn_end.saturating_sub(1),
                        depth + 1,
                        cfg_test,
                        tree,
                    );
                }
                (ItemKind::Fn, name, fn_end)
            }
            Some("impl") => {
                // Recurse into the impl body so methods become items.
                let body_open = find_body_open(toks, j, end);
                match body_open {
                    Some(open) => {
                        let body_end = skip_balanced(toks, open, end, '{', '}');
                        tree.items.push(Item {
                            kind: ItemKind::Impl,
                            name: impl_name(toks, j, open),
                            line,
                            tokens: (start, body_end),
                            depth,
                            cfg_test,
                        });
                        parse_items(
                            toks,
                            open + 1,
                            body_end.saturating_sub(1),
                            depth + 1,
                            cfg_test,
                            tree,
                        );
                        mark(tree, start, body_end, cfg_test);
                        i = body_end;
                        continue;
                    }
                    None => (ItemKind::Impl, String::new(), skip_item_from(toks, j, end)),
                }
            }
            Some("struct") => {
                let name = ident(toks, j + 1).unwrap_or("").to_string();
                (ItemKind::Struct, name, skip_item_from(toks, j, end))
            }
            Some("enum") => {
                let name = ident(toks, j + 1).unwrap_or("").to_string();
                (ItemKind::Enum, name, skip_item_from(toks, j, end))
            }
            Some("trait") => {
                let name = ident(toks, j + 1).unwrap_or("").to_string();
                (ItemKind::Trait, name, skip_item_from(toks, j, end))
            }
            Some("use") => {
                let stmt_end = skip_item_from(toks, j, end);
                parse_use(toks, j + 1, stmt_end, cfg_test, tree);
                tree.use_ranges.push((j, stmt_end));
                for f in &mut tree.in_use[j.min(toks.len())..stmt_end.min(toks.len())] {
                    *f = true;
                }
                (ItemKind::Other, String::new(), stmt_end)
            }
            _ => (ItemKind::Other, String::new(), skip_item_from(toks, j, end)),
        };
        let item_end = item_end.min(end).max(i + 1);
        tree.items.push(Item {
            kind,
            name,
            line,
            tokens: (start, item_end),
            depth,
            cfg_test,
        });
        mark(tree, start, item_end, cfg_test);
        i = item_end;
    }
}

/// Flag `[start, end)` as test code when `cfg_test`.
fn mark(tree: &mut ItemTree, start: usize, end: usize, cfg_test: bool) {
    if !cfg_test {
        return;
    }
    let n = tree.in_test.len();
    for f in &mut tree.in_test[start.min(n)..end.min(n)] {
        *f = true;
    }
}

/// Scan an attribute from its `[` token; returns (index one past `]`,
/// attribute-is-`cfg(...test...)`). `#[cfg(not(test))]` guards
/// production code and is never treated as a test marker.
pub fn scan_attribute(toks: &[Token], open: usize) -> (usize, bool) {
    let mut depth = 0i32;
    let (mut has_cfg, mut has_test, mut has_not) = (false, false, false);
    let mut i = open;
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Punct('[') => depth += 1,
            Tok::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return (i + 1, has_cfg && has_test && !has_not);
                }
            }
            Tok::Ident(s) if s == "cfg" => has_cfg = true,
            Tok::Ident(s) if s == "test" => has_test = true,
            Tok::Ident(s) if s == "not" => has_not = true,
            _ => {}
        }
        i += 1;
    }
    (i, false)
}

/// Skip one balanced `open ... close` group starting at the `open`
/// token; returns the index one past the matching close.
fn skip_balanced(toks: &[Token], start: usize, end: usize, open: char, close: char) -> usize {
    let mut depth = 0i32;
    let mut i = start;
    while i < end {
        match &toks[i].tok {
            Tok::Punct(c) if *c == open => depth += 1,
            Tok::Punct(c) if *c == close => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// Skip one item starting at `i`: up to and including its closing `}` or
/// a `;`/`,` at brace depth zero.
fn skip_item_from(toks: &[Token], mut i: usize, end: usize) -> usize {
    let mut depth = 0i32;
    while i < end {
        match toks[i].tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                if depth == 0 {
                    return i; // enclosing block's close — not ours
                }
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            Tok::Punct(';') | Tok::Punct(',') if depth == 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    i
}

/// Skip a `fn` item: to its body's matching `}` (or `;` for a bodyless
/// trait method). The body `{` is the first brace at paren depth zero.
fn skip_fn(toks: &[Token], mut i: usize, end: usize) -> usize {
    let mut parens = 0i32;
    while i < end {
        match toks[i].tok {
            Tok::Punct('(') | Tok::Punct('[') => parens += 1,
            Tok::Punct(')') | Tok::Punct(']') => parens -= 1,
            Tok::Punct('{') if parens == 0 => return skip_balanced(toks, i, end, '{', '}'),
            Tok::Punct(';') if parens == 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    i
}

/// First `{` at paren depth zero after `i` (an impl's body opener).
fn find_body_open(toks: &[Token], mut i: usize, end: usize) -> Option<usize> {
    let mut parens = 0i32;
    while i < end {
        match toks[i].tok {
            Tok::Punct('(') | Tok::Punct('[') => parens += 1,
            Tok::Punct(')') | Tok::Punct(']') => parens -= 1,
            Tok::Punct('{') if parens == 0 => return Some(i),
            Tok::Punct(';') if parens == 0 => return None,
            _ => {}
        }
        i += 1;
    }
    None
}

/// Best-effort impl name: the last identifier before the body brace
/// that is not a generic parameter mention (`impl<T> Foo<T>` → `Foo`).
fn impl_name(toks: &[Token], start: usize, open: usize) -> String {
    let mut angle = 0i32;
    let mut name = String::new();
    for t in &toks[start..open] {
        match &t.tok {
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') => angle -= 1,
            Tok::Ident(s) if angle == 0 && s != "impl" && s != "for" && s != "where" => {
                name = s.clone();
            }
            _ => {}
        }
    }
    name
}

/// Parse one `use` declaration body (`[i, end)` excludes the `use`
/// keyword, includes the trailing `;`) into the table.
fn parse_use(toks: &[Token], i: usize, end: usize, cfg_test: bool, tree: &mut ItemTree) {
    parse_use_tree(toks, i, end, "", cfg_test, tree);
}

/// Recursive worker: parse a use tree with `prefix` already joined.
/// Returns the index one past the parsed subtree.
fn parse_use_tree(
    toks: &[Token],
    mut i: usize,
    end: usize,
    prefix: &str,
    cfg_test: bool,
    tree: &mut ItemTree,
) -> usize {
    let mut segs: Vec<String> = Vec::new();
    let mut last_line = toks.get(i).map_or(0, |t| t.line);
    while i < end {
        match &toks[i].tok {
            Tok::Ident(s) if s == "as" => {
                // Alias: the next ident is the local name.
                if let Some(alias) = ident(toks, i + 1) {
                    let path = join_path(prefix, &segs);
                    tree.uses.entries.insert(
                        alias.to_string(),
                        UseEntry {
                            path,
                            line: toks[i + 1].line,
                            cfg_test,
                        },
                    );
                }
                return skip_to_sep(toks, i + 2, end);
            }
            Tok::Ident(s) => {
                last_line = toks[i].line;
                segs.push(s.clone());
                i += 1;
            }
            Tok::PathSep => {
                i += 1;
                if punct(toks, i, '{') {
                    // Group: recurse for each comma-separated subtree.
                    let group_end = skip_balanced(toks, i, end, '{', '}');
                    let base = join_path(prefix, &segs);
                    let mut k = i + 1;
                    while k < group_end - 1 {
                        k = parse_use_tree(toks, k, group_end - 1, &base, cfg_test, tree);
                        if punct(toks, k, ',') {
                            k += 1;
                        }
                    }
                    return group_end;
                }
                if punct(toks, i, '*') {
                    tree.uses.globs.push(join_path(prefix, &segs));
                    return skip_to_sep(toks, i + 1, end);
                }
            }
            Tok::Punct(',') | Tok::Punct('}') | Tok::Punct(';') => break,
            _ => i += 1,
        }
    }
    // Plain import: local name = last segment (`self` names the parent).
    if let Some(last) = segs.last().cloned() {
        let (name, path) = if last == "self" {
            let parent: Vec<String> = segs[..segs.len() - 1].to_vec();
            let name = parent
                .last()
                .cloned()
                .unwrap_or_else(|| prefix.rsplit("::").next().unwrap_or("").to_string());
            (name, join_path(prefix, &parent))
        } else {
            (last, join_path(prefix, &segs))
        };
        if !name.is_empty() {
            tree.uses.entries.insert(
                name,
                UseEntry {
                    path,
                    line: last_line,
                    cfg_test,
                },
            );
        }
    }
    i
}

fn join_path(prefix: &str, segs: &[String]) -> String {
    let tail = segs.join("::");
    if prefix.is_empty() {
        tail
    } else if tail.is_empty() {
        prefix.to_string()
    } else {
        format!("{prefix}::{tail}")
    }
}

fn skip_to_sep(toks: &[Token], mut i: usize, end: usize) -> usize {
    while i < end {
        match toks[i].tok {
            Tok::Punct(',') | Tok::Punct('}') | Tok::Punct(';') => return i,
            _ => i += 1,
        }
    }
    i
}

/// Receiver base name of a method call at token `dot` (the `.` before
/// the method ident): walks back through index brackets, call parens of
/// pass-through methods (`borrow()`, `as_ref()`, ...), and field chains
/// to the last meaningful identifier.
pub fn receiver_base(toks: &[Token], dot: usize) -> Option<String> {
    receiver_base_idx(toks, dot).and_then(|i| match &toks[i].tok {
        Tok::Ident(s) => Some(s.clone()),
        _ => None,
    })
}

/// Like [`receiver_base`] but returns the token index of the base
/// identifier (callers inspect what precedes it, e.g. a field-access
/// dot).
pub fn receiver_base_idx(toks: &[Token], dot: usize) -> Option<usize> {
    let mut i = dot; // points at '.'
    loop {
        if i == 0 {
            return None;
        }
        let prev = i - 1;
        match &toks[prev].tok {
            Tok::Punct(']') => {
                // Walk back over the index expression.
                i = match_back(toks, prev, '[', ']')?;
            }
            Tok::Punct(')') => {
                // A call: walk back over args, then over `.method` if the
                // call was a method, else give up (free call).
                let open = match_back(toks, prev, '(', ')')?;
                if open == 0 {
                    return None;
                }
                match &toks[open - 1].tok {
                    Tok::Ident(_) if open >= 2 && matches!(toks[open - 2].tok, Tok::Punct('.')) => {
                        i = open - 2;
                    }
                    _ => return None,
                }
            }
            Tok::Ident(_) => {
                // Field or binding; if preceded by another `.`, keep the
                // *last* (nearest) field name — it is the discriminating
                // one (`exchange.mins[..].store` → `mins`).
                return Some(prev);
            }
            _ => return None,
        }
    }
}

/// Index of the `open` matching the `close` at `at`, scanning backwards.
fn match_back(toks: &[Token], at: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0i32;
    let mut i = at;
    loop {
        match &toks[i].tok {
            Tok::Punct(c) if *c == close => depth += 1,
            Tok::Punct(c) if *c == open => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
        if i == 0 {
            return None;
        }
        i -= 1;
    }
}

/// Collect names declared with recognized container types: `name:
/// [&]Path<...>`
/// annotations (fields, lets, params) and `let name = Path::new()` /
/// `Path::default()` initializations, resolving aliases through the use
/// table.
fn collect_decls(toks: &[Token], tree: &mut ItemTree) {
    for i in 0..toks.len() {
        if tree.in_use.get(i).copied().unwrap_or(false) {
            continue;
        }
        let Some(t) = ident(toks, i) else { continue };
        let base = tree.uses.base_name(t);
        if !DECL_CONTAINERS.contains(&base) {
            continue;
        }
        let container = base.to_string();
        // Type-annotation form: walk back over path prefix and `&`/`mut`
        // to a `:` preceded by the declared name.
        let mut j = i;
        while j >= 2 && matches!(toks[j - 1].tok, Tok::PathSep) {
            match toks[j - 2].tok {
                Tok::Ident(_) => j -= 2,
                _ => break,
            }
        }
        while j >= 1
            && (matches!(toks[j - 1].tok, Tok::Punct('&') | Tok::Lifetime)
                || matches!(&toks[j - 1].tok, Tok::Ident(s) if s == "mut" || s == "dyn"))
        {
            j -= 1;
        }
        if j >= 2 && matches!(toks[j - 1].tok, Tok::Punct(':')) {
            if let Some(name) = ident(toks, j - 2) {
                tree.decls.push(Decl {
                    name: name.to_string(),
                    container,
                    line: toks[i].line,
                });
                continue;
            }
        }
        // Initializer form: `let [mut] name = [path::]Container::...`.
        if let Some(eq) = find_back_eq(toks, i) {
            if eq >= 1 {
                if let Some(name) = ident(toks, eq - 1) {
                    let is_let = (eq >= 2
                        && matches!(&toks[eq - 2].tok, Tok::Ident(s) if s == "let" || s == "mut"))
                        || (eq >= 3 && matches!(&toks[eq - 3].tok, Tok::Ident(s) if s == "let"));
                    if is_let {
                        tree.decls.push(Decl {
                            name: name.to_string(),
                            container,
                            line: toks[i].line,
                        });
                    }
                }
            }
        }
    }
}

/// Walk back from a container mention over its path prefix to a direct
/// preceding `=` (initializer form), if any.
fn find_back_eq(toks: &[Token], i: usize) -> Option<usize> {
    let mut j = i;
    while j >= 2 && matches!(toks[j - 1].tok, Tok::PathSep) {
        match toks[j - 2].tok {
            Tok::Ident(_) => j -= 2,
            _ => return None,
        }
    }
    if j >= 1 && matches!(toks[j - 1].tok, Tok::Punct('=')) {
        Some(j - 1)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn tree_of(src: &str) -> ItemTree {
        build(&lex(src).tokens)
    }

    #[test]
    fn aliased_and_grouped_uses_resolve() {
        let t = tree_of(
            "use std::collections::HashMap as Map;\n\
             use std::collections::{HashSet, BTreeMap as Sorted};\n\
             use foo::bar::*;\n",
        );
        assert_eq!(t.uses.resolve("Map"), Some("std::collections::HashMap"));
        assert_eq!(t.uses.base_name("Map"), "HashMap");
        assert_eq!(t.uses.resolve("HashSet"), Some("std::collections::HashSet"));
        assert_eq!(t.uses.base_name("Sorted"), "BTreeMap");
        assert_eq!(t.uses.globs, vec!["foo::bar".to_string()]);
        assert_eq!(t.uses.base_name("Unknown"), "Unknown");
    }

    #[test]
    fn self_in_groups_names_the_parent() {
        let t = tree_of("use std::collections::{self, HashMap};\n");
        assert_eq!(t.uses.resolve("collections"), Some("std::collections"));
        assert_eq!(t.uses.resolve("HashMap"), Some("std::collections::HashMap"));
    }

    #[test]
    fn items_are_brace_matched_with_depth() {
        let t =
            tree_of("mod a {\n    fn f() { let x = 1; }\n    struct S { v: u32 }\n}\nfn g() {}\n");
        let kinds: Vec<(ItemKind, &str, usize)> = t
            .items
            .iter()
            .map(|i| (i.kind, i.name.as_str(), i.depth))
            .collect();
        assert!(kinds.contains(&(ItemKind::Mod, "a", 0)));
        assert!(kinds.contains(&(ItemKind::Fn, "f", 1)));
        assert!(kinds.contains(&(ItemKind::Struct, "S", 1)));
        assert!(kinds.contains(&(ItemKind::Fn, "g", 0)));
    }

    #[test]
    fn impl_bodies_contain_method_items() {
        let t = tree_of("impl<T> Foo<T> {\n    fn m(&self) {}\n}\n");
        assert!(t
            .items
            .iter()
            .any(|i| i.kind == ItemKind::Impl && i.name == "Foo"));
        assert!(t
            .items
            .iter()
            .any(|i| i.kind == ItemKind::Fn && i.name == "m" && i.depth == 1));
    }

    #[test]
    fn cfg_test_marks_the_whole_subtree() {
        let src =
            "#[cfg(test)]\nmod tests {\n    fn t() { x.load(Ordering::Relaxed); }\n}\nfn f() {}\n";
        let t = tree_of(src);
        let tests = t.items.iter().find(|i| i.name == "tests").unwrap();
        assert!(tests.cfg_test);
        let f = t.items.iter().find(|i| i.name == "f").unwrap();
        assert!(!f.cfg_test);
    }

    #[test]
    fn hash_decls_cover_fields_lets_and_aliases() {
        let t = tree_of(
            "use mgrid_desim::FxHashMap;\nuse std::collections::HashSet as Set;\n\
             struct S { procs: FxHashMap<u64, u32> }\n\
             fn f(m: &FxHashMap<u32, u32>) {\n    let mut seen: Set<u8> = Set::new();\n    let q = FxHashMap::default();\n}\n",
        );
        let names: Vec<&str> = t
            .decls
            .iter()
            .filter(|d| d.is_hash())
            .map(|d| d.name.as_str())
            .collect();
        assert!(names.contains(&"procs"));
        assert!(names.contains(&"m"));
        assert!(names.contains(&"seen"));
        assert!(names.contains(&"q"));
    }

    #[test]
    fn sequential_decls_recorded_but_not_hash() {
        let t = tree_of(
            "struct S { procs: RefCell<Vec<u32>> }\nfn f() { let lanes: Vec<u8> = Vec::new(); }\n",
        );
        let seq: Vec<(&str, &str)> = t
            .decls
            .iter()
            .filter(|d| !d.is_hash())
            .map(|d| (d.name.as_str(), d.container.as_str()))
            .collect();
        assert!(seq.contains(&("procs", "RefCell")), "{seq:?}");
        assert!(seq.contains(&("lanes", "Vec")), "{seq:?}");
    }

    #[test]
    fn receiver_base_walks_chains_and_indices() {
        let toks = lex("exchange.mins[parity][*s].store(x, Ordering::Release);").tokens;
        let dot = toks
            .iter()
            .position(|t| matches!(&t.tok, Tok::Ident(s) if s == "store"))
            .unwrap()
            - 1;
        assert_eq!(receiver_base(&toks, dot).as_deref(), Some("mins"));
        let toks = lex("self.subs.borrow().iter()").tokens;
        let dot = toks
            .iter()
            .position(|t| matches!(&t.tok, Tok::Ident(s) if s == "iter"))
            .unwrap()
            - 1;
        assert_eq!(receiver_base(&toks, dot).as_deref(), Some("subs"));
    }
}
