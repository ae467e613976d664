//! `linkcheck` — relative-link checker for the repo's markdown docs.
//!
//! ```text
//! linkcheck [--root DIR] [FILE...]
//! ```
//!
//! With no `FILE` arguments the default set is `README.md`,
//! `EXPERIMENTS.md`, `DESIGN.md`, `ROADMAP.md`, and every `.md` under
//! `docs/`. For each inline markdown link or image the checker:
//!
//! * ignores absolute URLs (`http:`, `https:`, `mailto:`) — external
//!   availability is not this tool's business;
//! * verifies a pure-fragment link (`#section`) against the file's own
//!   headings, GitHub-slugged;
//! * verifies a relative target (optionally with a fragment) resolves to
//!   an existing file or directory under the repository root.
//!
//! Links inside fenced code blocks and inline code spans are skipped.
//! Exits 0 when every link resolves, 1 on broken links, 2 on usage or
//! I/O errors — the docs CI lane gates on it directly.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(0) => ExitCode::SUCCESS,
        Ok(broken) => {
            eprintln!("linkcheck: {broken} broken link(s)");
            ExitCode::FAILURE
        }
        Err(msg) => {
            eprintln!("linkcheck: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<usize, String> {
    let mut root = PathBuf::from(".");
    let mut files: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = PathBuf::from(args.next().ok_or("--root needs a value")?),
            "--help" | "-h" => {
                println!("usage: linkcheck [--root DIR] [FILE...]");
                return Ok(0);
            }
            other if other.starts_with('-') => return Err(format!("unknown flag {other:?}")),
            other => files.push(PathBuf::from(other)),
        }
    }
    if files.is_empty() {
        files = default_files(&root)?;
    }

    let mut broken = 0usize;
    let mut checked = 0usize;
    for rel in &files {
        let path = root.join(rel);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let anchors = heading_slugs(&text);
        for link in extract_links(&text) {
            checked += 1;
            if let Some(problem) = check_link(&root, rel, &link.target, &anchors) {
                eprintln!("{}:{}: {problem}", rel.display(), link.line);
                broken += 1;
            }
        }
    }
    println!(
        "linkcheck: {checked} links in {} files, {broken} broken",
        files.len()
    );
    Ok(broken)
}

/// README plus the tracked top-level docs plus everything under `docs/`.
fn default_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files: Vec<PathBuf> = ["README.md", "EXPERIMENTS.md", "DESIGN.md", "ROADMAP.md"]
        .iter()
        .map(PathBuf::from)
        .filter(|f| root.join(f).exists())
        .collect();
    let docs = root.join("docs");
    if docs.is_dir() {
        let mut entries: Vec<_> = std::fs::read_dir(&docs)
            .map_err(|e| format!("reading {}: {e}", docs.display()))?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "md"))
            .collect();
        entries.sort();
        for p in entries {
            files.push(p.strip_prefix(root).unwrap_or(&p).to_path_buf());
        }
    }
    Ok(files)
}

struct Link {
    line: usize,
    target: String,
}

/// Inline links and images: `[text](target)`, outside code fences and
/// inline code spans. Good enough for this repo's hand-written docs; no
/// reference-style links are used here.
fn extract_links(text: &str) -> Vec<Link> {
    let mut out = Vec::new();
    let mut in_fence = false;
    for (idx, line) in text.lines().enumerate() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("```") || trimmed.starts_with("~~~") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let masked = mask_code_spans(line);
        let bytes = masked.as_bytes();
        let mut i = 0;
        while let Some(open) = masked[i..].find("](") {
            let start = i + open + 2;
            // Find the matching `)`, tolerating one nesting level for
            // targets like `foo(bar).md` (unused here, cheap to allow).
            let mut depth = 1i32;
            let mut end = None;
            for (j, &b) in bytes[start..].iter().enumerate() {
                match b {
                    b'(' => depth += 1,
                    b')' => {
                        depth -= 1;
                        if depth == 0 {
                            end = Some(start + j);
                            break;
                        }
                    }
                    _ => {}
                }
            }
            let Some(end) = end else { break };
            let target = masked[start..end].trim();
            // Strip an optional title: `(path "title")`.
            let target = target.split_whitespace().next().unwrap_or("");
            if !target.is_empty() {
                out.push(Link {
                    line: idx + 1,
                    target: target.to_string(),
                });
            }
            i = end + 1;
        }
    }
    out
}

/// Replace backtick code-span contents with spaces so `](` inside them
/// never reads as a link.
fn mask_code_spans(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut in_span = false;
    for c in line.chars() {
        if c == '`' {
            in_span = !in_span;
            out.push(c);
        } else if in_span {
            out.push(' ');
        } else {
            out.push(c);
        }
    }
    out
}

/// GitHub-style slugs for every ATX heading in the document.
fn heading_slugs(text: &str) -> Vec<String> {
    let mut in_fence = false;
    let mut slugs = Vec::new();
    for line in text.lines() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("```") || trimmed.starts_with("~~~") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence || !trimmed.starts_with('#') {
            continue;
        }
        let title = trimmed.trim_start_matches('#').trim();
        let mut slug = String::new();
        for c in title.chars() {
            if c.is_alphanumeric() {
                slug.extend(c.to_lowercase());
            } else if c == ' ' || c == '-' {
                slug.push('-');
            }
            // Other punctuation (backticks, colons, slashes) drops out.
        }
        slugs.push(slug);
    }
    slugs
}

/// `None` when the link resolves; otherwise a description of the break.
fn check_link(root: &Path, file: &Path, target: &str, anchors: &[String]) -> Option<String> {
    let lower = target.to_ascii_lowercase();
    if lower.starts_with("http://") || lower.starts_with("https://") || lower.starts_with("mailto:")
    {
        return None;
    }
    if let Some(fragment) = target.strip_prefix('#') {
        if anchors.iter().any(|a| a == fragment) {
            return None;
        }
        return Some(format!("broken anchor `#{fragment}` (no such heading)"));
    }
    let path_part = target.split('#').next().unwrap_or(target);
    let base = file.parent().unwrap_or(Path::new(""));
    let resolved = root.join(base).join(path_part);
    if resolved.exists() {
        return None;
    }
    Some(format!(
        "broken link `{target}` (no file at {})",
        resolved.display()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_links_outside_code() {
        let text =
            "see [a](docs/A.md) and ![img](x.png)\n```\n[no](skip.md)\n```\n`[no](span.md)`\n";
        let links: Vec<_> = extract_links(text).into_iter().map(|l| l.target).collect();
        assert_eq!(links, vec!["docs/A.md", "x.png"]);
    }

    #[test]
    fn slugs_match_github_style() {
        let slugs = heading_slugs("# Big Title\n## `perf` & thresholds\n");
        assert_eq!(slugs, vec!["big-title", "perf--thresholds"]);
    }

    #[test]
    fn external_and_fragment_links_resolve() {
        let anchors = vec!["intro".to_string()];
        let root = Path::new(".");
        let f = Path::new("README.md");
        assert!(check_link(root, f, "https://example.org", &anchors).is_none());
        assert!(check_link(root, f, "#intro", &anchors).is_none());
        assert!(check_link(root, f, "#missing", &anchors).is_some());
        assert!(check_link(root, f, "no/such/file.md", &anchors).is_some());
    }
}
