//! Blessed per-scenario values for `--seed 0`, and the checks that decide
//! whether an operation (one scenario) failed.

use std::collections::BTreeMap;
use std::path::PathBuf;

use serde::{Deserialize, Serialize};

use crate::scenario::Outcome;

/// A scenario may take this many times its blessed wall time before it
/// counts as failed.
pub const TIMEOUT_FACTOR: f64 = 10.0;

/// What `benchmark bless` recorded for one scenario.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Blessed {
    /// Rank 0's virtual seconds at 9 decimals (text, so it compares
    /// exactly).
    pub virtual_s: String,
    pub verified: bool,
    /// Host seconds (set-up + run) on the blessing machine; only the
    /// [`TIMEOUT_FACTOR`] check reads it.
    pub wall_s: f64,
    /// Every exact counter of [`Outcome::counts`].
    pub counts: BTreeMap<String, u64>,
}

/// `benchmark/expected/seed0.json`: scenario id -> blessed values.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Expected {
    pub scenarios: BTreeMap<String, Blessed>,
}

/// The repository root, which the benchmark's files and the tracked
/// results it reads are found relative to: the current directory when
/// started by `run.sh`, its parent under `cargo test`. (Not
/// `CARGO_MANIFEST_DIR`: an absolute path in the binary would make its
/// layout depend on where the checkout lives.)
pub fn repo_root() -> PathBuf {
    if std::path::Path::new("BENCHMARK.json").exists() {
        PathBuf::from(".")
    } else {
        PathBuf::from("..")
    }
}

pub fn expected_path() -> PathBuf {
    repo_root().join("benchmark/expected/seed0.json")
}

impl Expected {
    pub fn load() -> Result<Expected, String> {
        let path = expected_path();
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn bless(&mut self, out: &Outcome) {
        self.scenarios.insert(
            out.id.clone(),
            Blessed {
                virtual_s: out.virtual_s_text(),
                verified: out.verified,
                wall_s: out.setup_s() + out.wall_s(),
                counts: out
                    .counts
                    .iter()
                    .map(|(k, v)| (k.to_string(), *v))
                    .collect(),
            },
        );
    }
}

/// Why `out` counts as a failed operation; empty when it passed.
///
/// `blessed` is the scenario's entry in the expected-values file, if it
/// has one. The simulated statistics are compared only when `exact` (the
/// run used seed 0); the timeout applies at every seed.
pub fn failures(out: &Outcome, blessed: Option<&Blessed>, exact: bool) -> Vec<String> {
    let mut why = Vec::new();
    if let Some(e) = &out.error {
        why.push(e.clone());
        return why;
    }
    if !out.verified {
        why.push("verified == false".to_string());
    }
    let Some(b) = blessed else {
        if exact {
            why.push("no blessed values (run `benchmark bless`)".to_string());
        }
        return why;
    };
    let wall = out.setup_s() + out.wall_s();
    if wall > TIMEOUT_FACTOR * b.wall_s {
        why.push(format!(
            "took {wall:.3} s, over {TIMEOUT_FACTOR}x the blessed {:.3} s",
            b.wall_s
        ));
    }
    if exact {
        if out.virtual_s_text() != b.virtual_s {
            why.push(format!(
                "virtual seconds {} != blessed {}",
                out.virtual_s_text(),
                b.virtual_s
            ));
        }
        for (name, want) in &b.counts {
            let got = out.counts.get(name.as_str()).copied();
            if got != Some(*want) {
                why.push(format!("{name} = {got:?}, blessed {want}"));
            }
        }
    }
    why
}

/// The `(Alpha_Cluster)` rows of the tracked `results/fig10.json`:
/// `<bench>` -> `[physical, microgrid]` seconds at 9 decimals. `None`
/// when the file is not there to read.
pub fn fig10_alpha_rows() -> Result<Option<BTreeMap<String, [String; 2]>>, String> {
    #[derive(Deserialize)]
    struct Row {
        label: String,
        physical_seconds: f64,
        microgrid_seconds: f64,
    }
    #[derive(Deserialize)]
    struct Figure {
        rows: Vec<Row>,
    }
    let path = repo_root().join("results/fig10.json");
    let Ok(text) = std::fs::read_to_string(&path) else {
        return Ok(None);
    };
    let fig: Figure =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(Some(
        fig.rows
            .into_iter()
            .filter_map(|r| {
                let bench = r.label.strip_suffix(" (Alpha_Cluster)")?.to_string();
                Some((
                    bench,
                    [
                        format!("{:.9}", r.physical_seconds),
                        format!("{:.9}", r.microgrid_seconds),
                    ],
                ))
            })
            .collect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> Outcome {
        let mut out = Outcome {
            id: "X".into(),
            verified: true,
            virtual_s: 1.25,
            ..Outcome::default()
        };
        out.phases.insert("run", 0.5);
        out.counts.insert("desim.polls", 10);
        out
    }

    #[test]
    fn a_blessed_outcome_passes_its_own_blessing() {
        let out = outcome();
        let mut exp = Expected::default();
        exp.bless(&out);
        assert!(failures(&out, exp.scenarios.get("X"), true).is_empty());
    }

    #[test]
    fn a_wrong_expected_value_is_a_failed_operation_not_a_panic() {
        let out = outcome();
        let mut exp = Expected::default();
        exp.bless(&out);
        let b = exp.scenarios.get_mut("X").unwrap();
        b.virtual_s = "1.250000001".into();
        b.counts.insert("desim.polls".into(), 11);
        b.counts.insert("no.such.counter".into(), 1);
        let why = failures(&out, Some(b), true);
        assert_eq!(why.len(), 3, "{why:?}");
        // Other seeds run other inputs: only `verified` and the timeout apply.
        assert!(failures(&out, Some(b), false).is_empty());
    }

    #[test]
    fn unverified_slow_and_unblessed_runs_fail() {
        let mut out = outcome();
        out.verified = false;
        assert_eq!(failures(&out, None, false).len(), 1);
        assert_eq!(failures(&out, None, true).len(), 2);
        let mut exp = Expected::default();
        exp.bless(&outcome());
        out.verified = true;
        out.phases.insert("run", 5.1);
        let why = failures(&out, exp.scenarios.get("X"), false);
        assert!(why[0].contains("over 10x"), "{why:?}");
    }
}
