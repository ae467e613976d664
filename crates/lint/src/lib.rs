//! # mgrid-lint — determinism & safety static analysis for MicroGrid-rs
//!
//! The MicroGrid is only a *scientific* tool if the same seed yields the
//! same trace (paper §2.3: scaled `gettimeofday`, deterministic CPU
//! quanta). PR 2 made that a runtime contract (same-seed identical-trace
//! tests); this crate makes it a compile gate: a zero-dependency source
//! analyzer that rejects the constructs which break replayability before
//! any test runs.
//!
//! The rules (catalog in `docs/LINTS.md`):
//!
//! * **MG001** — no wall-clock reads in sim crates (virtual time only)
//! * **MG002** — no default-`RandomState` hash containers (stable
//!   iteration order)
//! * **MG003** — no ambient randomness (RNGs are seed-threaded)
//! * **MG004** — every `unsafe` carries a `// SAFETY:` justification
//! * **MG005** — no OS threads/locks in the deterministic executor path
//! * **MG006** — no `std::sync::atomic` in sim crates (a simulation is
//!   single-threaded)
//! * **MG007** — hash-container iteration never drives scheduling,
//!   traces, or serialized output
//! * **MG008** — no float construction/scaling or NaN-capable
//!   comparisons of virtual time
//! * **MG009** — loop pushes into persistent state need a drain
//!
//! ## Two-phase analysis
//!
//! Since the v2 analyzer, scanning is two-phase. **Phase 1**
//! ([`itemtree`]) lexes each file ([`lexer`]) and builds a lightweight
//! item tree: brace-matched items with `#[cfg(test)]` spans, a
//! `use`-resolution table (aliased imports are visible) and
//! hash-container declarations. **Phase 2** ([`rules`]) groups the
//! files by crate, unions each crate's phase-1 facts into a
//! [`rules::CrateContext`], and runs the rules — so a map declared in
//! `types.rs` is recognized when iterated in `kernel.rs`.
//!
//! There is still no full parser: the workspace builds against vendored
//! dependency stubs only, so `syn` is unavailable — and the rules need
//! identifier/punctuation fidelity (comments, strings, lifetimes), not
//! type checking.
//!
//! Run it as `cargo run -p mgrid-lint` (or `just lint`); configuration
//! lives in `mgrid-lint.toml` at the workspace root; a [`baseline`] file
//! lets new rules land deny-by-default over accepted legacy findings.

#![warn(missing_docs)]

pub mod baseline;
pub mod config;
pub mod itemtree;
pub mod lexer;
pub mod report;
pub mod rules;

pub use baseline::Baseline;
pub use config::{Config, ConfigError};
pub use report::{render, Finding, Format};
pub use rules::{analyze, lint_source, FileAnalysis};

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Result of scanning a whole workspace.
#[derive(Debug, Default)]
pub struct ScanResult {
    /// All findings, ordered by path then line.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files analyzed.
    pub files_scanned: usize,
}

/// Scan every workspace `.rs` file under `root` (excluding the config's
/// `exclude` prefixes): phase 1 per file, then phase 2 per crate with
/// cross-file context.
pub fn lint_workspace(root: &Path, config: &Config) -> std::io::Result<ScanResult> {
    let mut files = Vec::new();
    collect_rs_files(root, root, config, &mut files)?;
    files.sort(); // deterministic report order, independent of readdir
    let mut analyses = Vec::new();
    for rel in files {
        let src = std::fs::read_to_string(root.join(&rel))?;
        let crate_name = crate_of(&rel);
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        analyses.push(rules::analyze(&rel_str, crate_name, &src));
    }
    // Group by crate, preserving path order inside each group.
    let mut by_crate: BTreeMap<&str, Vec<&FileAnalysis>> = BTreeMap::new();
    for fa in &analyses {
        by_crate.entry(fa.crate_name.as_str()).or_default().push(fa);
    }
    let mut findings = Vec::new();
    for group in by_crate.values() {
        findings.extend(rules::lint_crate(group, config));
    }
    findings.sort_by(|a, b| (&a.path, a.line, a.code).cmp(&(&b.path, b.line, b.code)));
    Ok(ScanResult {
        findings,
        files_scanned: analyses.len(),
    })
}

/// Which crate a workspace-relative path belongs to: `crates/<name>/...`
/// maps to `<name>`; root `src/`, `tests/`, `examples/` map to
/// `"workspace"` (the umbrella crate).
pub fn crate_of(rel: &Path) -> &str {
    let mut parts = rel.components();
    match parts.next().and_then(|c| c.as_os_str().to_str()) {
        Some("crates") => parts
            .next()
            .and_then(|c| c.as_os_str().to_str())
            .unwrap_or("workspace"),
        _ => "workspace",
    }
}

fn collect_rs_files(
    root: &Path,
    dir: &Path,
    config: &Config,
    out: &mut Vec<PathBuf>,
) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let rel = path.strip_prefix(root).unwrap_or(&path);
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if config
            .exclude
            .iter()
            .any(|e| rel_str == *e || rel_str.starts_with(&format!("{e}/")))
            || rel_str.starts_with('.')
        {
            continue;
        }
        let ty = entry.file_type()?;
        if ty.is_dir() {
            collect_rs_files(root, &path, config, out)?;
        } else if rel_str.ends_with(".rs") {
            out.push(rel.to_path_buf());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_of_maps_paths() {
        assert_eq!(crate_of(Path::new("crates/desim/src/lib.rs")), "desim");
        assert_eq!(crate_of(Path::new("src/lib.rs")), "workspace");
        assert_eq!(crate_of(Path::new("tests/properties.rs")), "workspace");
    }
}
