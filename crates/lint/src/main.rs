//! The `mgrid-lint` command-line interface.
//!
//! ```text
//! mgrid-lint [--root DIR] [--format human|json] [--config FILE]
//!            [--baseline FILE | --no-baseline] [--write-baseline]
//! ```
//!
//! Exits 0 when the tree is clean, 1 on findings, 2 on usage or I/O
//! errors — so CI can gate on it directly. A baseline (from `--baseline`
//! or the config's `baseline` key) suppresses accepted legacy findings;
//! `--write-baseline` regenerates the file from the current scan.

use std::path::PathBuf;
use std::process::ExitCode;

use mgrid_lint::{lint_workspace, render, Baseline, Config, Format};

fn main() -> ExitCode {
    match run() {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(msg) => {
            eprintln!("mgrid-lint: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<bool, String> {
    let mut format = Format::Human;
    let mut root: Option<PathBuf> = None;
    let mut config_path: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut no_baseline = false;
    let mut write_baseline = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => {
                let v = args.next().ok_or("--format needs a value")?;
                format = match v.as_str() {
                    "human" => Format::Human,
                    "json" => Format::Json,
                    other => return Err(format!("unknown format {other:?} (human|json)")),
                };
            }
            "--root" => root = Some(PathBuf::from(args.next().ok_or("--root needs a value")?)),
            "--config" => {
                config_path = Some(PathBuf::from(args.next().ok_or("--config needs a value")?))
            }
            "--baseline" => {
                baseline_path = Some(PathBuf::from(
                    args.next().ok_or("--baseline needs a value")?,
                ))
            }
            "--no-baseline" => no_baseline = true,
            "--write-baseline" => write_baseline = true,
            "--help" | "-h" => {
                println!(
                    "mgrid-lint: determinism & safety static analysis for MicroGrid-rs\n\n\
                     USAGE: mgrid-lint [--root DIR] [--format human|json] [--config FILE]\n\
                     \u{20}                 [--baseline FILE | --no-baseline] [--write-baseline]\n\n\
                     --baseline FILE   suppress findings accepted in FILE (default: the\n\
                     \u{20}                 config's `baseline` key, if set)\n\
                     --no-baseline     ignore any configured baseline\n\
                     --write-baseline  regenerate the baseline from this scan and exit 0\n\n\
                     Exit status: 0 clean, 1 findings, 2 error.\n\
                     Rule catalog: docs/LINTS.md; config: mgrid-lint.toml."
                );
                return Ok(true);
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    if no_baseline && baseline_path.is_some() {
        return Err("--no-baseline conflicts with --baseline".into());
    }

    let root = match root {
        Some(r) => r,
        None => find_workspace_root()?,
    };
    let config = match config_path {
        Some(p) => {
            let text =
                std::fs::read_to_string(&p).map_err(|e| format!("reading {}: {e}", p.display()))?;
            Config::parse(&text).map_err(|e| e.to_string())?
        }
        None => Config::load(&root).map_err(|e| e.to_string())?,
    };

    let scan = lint_workspace(&root, &config).map_err(|e| format!("scanning workspace: {e}"))?;
    let mut findings = scan.findings;
    let files_scanned = scan.files_scanned;

    // Resolve the baseline: CLI flag beats config key; --no-baseline
    // beats both. Paths are workspace-relative unless absolute.
    let baseline_file = if no_baseline {
        None
    } else {
        baseline_path.or_else(|| config.baseline.as_ref().map(PathBuf::from))
    };
    let baseline_file = baseline_file.map(|p| if p.is_absolute() { p } else { root.join(p) });

    if write_baseline {
        let p = baseline_file
            .ok_or("--write-baseline needs --baseline or a `baseline` key in the config")?;
        std::fs::write(&p, Baseline::render(&findings))
            .map_err(|e| format!("writing {}: {e}", p.display()))?;
        eprintln!(
            "mgrid-lint: wrote baseline {} accepting {} finding(s)",
            p.display(),
            findings.iter().filter(|f| f.code != "MG000").count()
        );
        return Ok(true);
    }

    let mut suppressed = 0usize;
    if let Some(p) = &baseline_file {
        match std::fs::read_to_string(p) {
            Ok(text) => {
                let b = Baseline::parse(&text).map_err(|e| format!("{}: {e}", p.display()))?;
                let outcome = b.apply(&mut findings);
                suppressed = outcome.suppressed;
                for (code, path, n) in outcome.stale {
                    eprintln!(
                        "mgrid-lint: stale baseline entry: {code} {path} ({n} unused) — shrink the baseline"
                    );
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(format!("reading {}: {e}", p.display())),
        }
    }

    print!("{}", render(&findings, files_scanned, suppressed, format));
    Ok(findings.is_empty())
}

/// Walk upward from the current directory to the first directory holding
/// `mgrid-lint.toml` or a workspace `Cargo.toml`.
fn find_workspace_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| e.to_string())?;
    loop {
        if dir.join("mgrid-lint.toml").is_file() {
            return Ok(dir);
        }
        if let Ok(manifest) = std::fs::read_to_string(dir.join("Cargo.toml")) {
            if manifest.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("no mgrid-lint.toml or workspace Cargo.toml above cwd".into());
        }
    }
}
