//! Experiment reporting: paper-style comparison rows and JSON dumps.

use std::io::Write;

use serde::{Deserialize, Serialize};

/// Write to stdout for the CLIs ([`out!`](crate::out), [`outln!`](crate::outln)).
///
/// A closed pipe (`mgrid run … | head -1`) ends the process quietly with
/// status 0 instead of the `println!` panic; any other write error still
/// panics as `println!` would.
pub fn emit(text: std::fmt::Arguments<'_>) {
    if let Err(e) = std::io::stdout().write_fmt(text) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}

/// `print!` through [`report::emit`](crate::report::emit).
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => { $crate::report::emit(format_args!($($arg)*)) };
}

/// `println!` through [`report::emit`](crate::report::emit).
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => { $crate::report::emit(format_args!("{}\n", format_args!($($arg)*))) };
}

/// One physical-vs-MicroGrid comparison row (the unit of Figs 10, 11, 16).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ComparisonRow {
    /// Workload label, e.g. `"MG (class A)"`.
    pub label: String,
    /// Baseline ("physical grid") virtual seconds.
    pub physical_seconds: f64,
    /// MicroGrid virtual seconds.
    pub microgrid_seconds: f64,
}

impl ComparisonRow {
    /// Relative error of the MicroGrid run against the baseline, percent.
    pub fn error_percent(&self) -> f64 {
        if self.physical_seconds == 0.0 {
            return 0.0;
        }
        (self.microgrid_seconds - self.physical_seconds) / self.physical_seconds * 100.0
    }
}

/// A labeled series (the unit of Figs 12, 14, 15).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Series {
    /// Series label, e.g. `"MG"`.
    pub label: String,
    /// `(x label, value)` points.
    pub points: Vec<(String, f64)>,
}

/// A full experiment report: exactly what `results/<id>.json` tracks.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Report {
    /// Experiment id, e.g. `"fig10"`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// Comparison rows, if applicable.
    pub rows: Vec<ComparisonRow>,
    /// Series, if applicable.
    pub series: Vec<Series>,
    /// Free-form notes (calibration caveats, measured skews, ...).
    pub notes: Vec<String>,
}

impl Report {
    /// Start a report.
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> Self {
        Report {
            id: id.into(),
            title: title.into(),
            ..Report::default()
        }
    }

    /// Render as an aligned text table (what `repro` prints).
    pub fn to_table(&self) -> String {
        let mut out = format!("== {} — {} ==\n", self.id, self.title);
        if !self.rows.is_empty() {
            out.push_str(&format!(
                "{:<28} {:>12} {:>12} {:>8}\n",
                "workload", "physical(s)", "microgrid(s)", "err%"
            ));
            for r in &self.rows {
                out.push_str(&format!(
                    "{:<28} {:>12.3} {:>12.3} {:>+8.2}\n",
                    r.label,
                    r.physical_seconds,
                    r.microgrid_seconds,
                    r.error_percent()
                ));
            }
        }
        for s in &self.series {
            out.push_str(&format!("-- {} --\n", s.label));
            for (x, v) in &s.points {
                out.push_str(&format!("{x:<28} {v:>12.4}\n"));
            }
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        out
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_percent_signed() {
        let r = ComparisonRow {
            label: "x".into(),
            physical_seconds: 100.0,
            microgrid_seconds: 104.0,
        };
        assert!((r.error_percent() - 4.0).abs() < 1e-12);
        let r2 = ComparisonRow {
            label: "y".into(),
            physical_seconds: 100.0,
            microgrid_seconds: 97.0,
        };
        assert!((r2.error_percent() + 3.0).abs() < 1e-12);
    }

    #[test]
    fn table_contains_rows_and_series() {
        let mut rep = Report::new("fig10", "NPB class A");
        rep.rows.push(ComparisonRow {
            label: "EP".into(),
            physical_seconds: 105.0,
            microgrid_seconds: 108.0,
        });
        rep.series.push(Series {
            label: "MG".into(),
            points: vec![("1x".into(), 1.0), ("2x".into(), 0.55)],
        });
        let t = rep.to_table();
        assert!(t.contains("EP"));
        assert!(t.contains("fig10"));
        assert!(t.contains("MG"));
        assert!(t.contains("2x"));
    }

    #[test]
    fn json_roundtrip() {
        let mut rep = Report::new("fig5", "memory");
        rep.notes.push("test".into());
        let back: Report = serde_json::from_str(&rep.to_json()).unwrap();
        assert_eq!(back.id, "fig5");
        assert_eq!(back.notes, vec!["test"]);
    }
}
