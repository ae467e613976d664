//! The paper's fidelity claims as predicates of a regenerated (or
//! tracked) [`Report`], keyed by its id. `repro --check` pins the bytes
//! of `results/*.json`; these say why the bytes are right, so a re-bless
//! that loses fidelity fails with the claim it broke (`repro --bless`
//! refuses to write such a report). A bound is what EXPERIMENTS.md
//! documents for the tracked bytes, never one fitted to a fresh run.
//!
//! A claim's name is also the name of the test in `tests/claims.rs` that
//! holds the tracked file to it.

use microgrid::Report;

/// The claims `report` breaks, each as `"<claim name>: <what broke>"`.
/// Empty when they all hold, and for an id no claim is made about
/// (fig9, fig12, `scale`). Shrunken `MGRID_FAST` reports are out of
/// scope: the bounds are those of the full-scale runs.
pub fn broken(report: &Report) -> Vec<String> {
    let mut claims = Claims {
        report,
        name: "",
        broken: Vec::new(),
    };
    match report.id.as_str() {
        "fig5" => claims.fig5(),
        "fig6" => claims.fig6(),
        "fig7" => claims.fig7(),
        "fig8" => claims.fig8(),
        "fig10" => claims.fig10(),
        "fig11" => claims.fig11(),
        "fig14" => claims.fig14(),
        "fig15" => claims.fig15(),
        "fig16" => claims.fig16(),
        "fig17" => claims.fig17(),
        _ => {}
    }
    claims.broken
}

/// An x label such as `"40%"` or `"128KB"` as its number (NaN if it is
/// not one, which fails every bound).
fn x_value(label: &str, unit: &str) -> f64 {
    label
        .strip_suffix(unit)
        .and_then(|n| n.parse().ok())
        .unwrap_or(f64::NAN)
}

/// How far apart `values` lie, in percent of the smallest; NaN if one is
/// missing (`min` and `max` alone would skip it).
fn spread_percent(values: &[f64]) -> f64 {
    if values.iter().any(|v| !v.is_finite()) {
        return f64::NAN;
    }
    let lowest = values.iter().copied().fold(f64::INFINITY, f64::min);
    let highest = values.iter().copied().fold(0.0, f64::max);
    (highest / lowest - 1.0) * 100.0
}

struct Claims<'a> {
    report: &'a Report,
    name: &'static str,
    broken: Vec<String>,
}

impl<'a> Claims<'a> {
    /// The claim under test breaks unless `holds`. Every bound is written
    /// so that a NaN (a missing point) does not hold.
    fn require(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.broken.push(format!("{}: {}", self.name, what()));
        }
    }

    /// The points of series `label`, which must number `want`; none (and
    /// a broken claim) otherwise.
    fn series(&mut self, label: &str, want: usize) -> &'a [(String, f64)] {
        let found = self.report.series.iter().find(|s| s.label == label);
        let points = found.map_or(&[][..], |s| &s.points[..]);
        self.require(points.len() == want, || {
            format!("series {label:?} has {} points, not {want}", points.len())
        });
        if points.len() == want {
            points
        } else {
            &[]
        }
    }

    /// The value of series `label` at `x`; NaN when there is none.
    fn at(&self, label: &str, x: &str) -> f64 {
        let series = self.report.series.iter().find(|s| s.label == label);
        series
            .and_then(|s| s.points.iter().find(|(px, _)| px == x))
            .map_or(f64::NAN, |(_, v)| *v)
    }

    /// The signed error, in percent, of comparison row `label`; NaN when
    /// there is none.
    fn row_error(&self, label: &str) -> f64 {
        let row = self.report.rows.iter().find(|r| r.label == label);
        row.map_or(f64::NAN, |r| r.error_percent())
    }

    /// Fig 5: a process can allocate its virtual host's memory limit less
    /// the 1 KB of per-process overhead, at every limit from 1 KB to 1 MB.
    fn fig5(&mut self) {
        self.name = "fig5_max_allocatable_is_the_cap_less_one_kb";
        for (limit, allocatable) in self.series("max allocatable (KB) vs specified limit", 11) {
            let cap_kb = x_value(limit, "KB");
            self.require(*allocatable == cap_kb - 1.0, || {
                format!("limit {limit}: {allocatable} KB allocatable")
            });
        }
    }

    /// Fig 6: alone, a virtual host is delivered its specified CPU
    /// fraction within one point at every step; against a CPU hog it is
    /// delivered the same up to 40 % and then saturates at the fair
    /// share, 45-52 %, for every specified fraction of 60 % and above.
    fn fig6(&mut self) {
        self.name = "fig6_cpu_fraction_is_linear_alone_and_saturates_under_a_cpu_hog";
        for (specified, delivered) in self.series("No Competition", 10) {
            let want = x_value(specified, "%");
            self.require((delivered - want).abs() <= 1.0, || {
                format!("alone at {specified}: delivered {delivered:.2} %")
            });
        }
        for (specified, delivered) in self.series("CPU Competition", 10) {
            let want = x_value(specified, "%");
            let holds = if want >= 60.0 {
                (45.0..=52.0).contains(delivered)
            } else {
                // 50 % sits on the knee and is not asserted.
                want == 50.0 || (delivered - want).abs() <= 1.0
            };
            self.require(holds, || {
                format!("CPU hog at {specified}: delivered {delivered:.2} % (fair share 45-52 %)")
            });
        }
    }

    /// Fig 7: the mean granted quantum is the nominal one within 1.5 %
    /// under every competitor, and each competitor widens the
    /// distribution beyond the uncontended one. (Which of IO and CPU
    /// widens it more is EXPERIMENTS.md deviation 1 and not asserted.)
    fn fig7(&mut self) {
        self.name = "fig7_quanta_keep_their_mean_and_competition_widens_them";
        let alone = self.at("No Competition", "dev");
        for scenario in ["No Competition", "IO Competition", "CPU Competition"] {
            let (mean, dev) = (self.at(scenario, "mean"), self.at(scenario, "dev"));
            self.require((mean - 1.0).abs() <= 0.015, || {
                format!("{scenario}: mean {mean:.4}, claim within 1.5 % of 1")
            });
            self.require(scenario == "No Competition" || dev > alone, || {
                format!("{scenario}: deviation {dev:.4}, uncontended {alone:.4}")
            });
        }
    }

    /// Fig 8: latency is overhead-flat from 4 to 64 B (within 10 %), the
    /// Ethernet pair saturates at 80-86 Mb/s of its 100 Mb/s line at
    /// 256 KB, and the MicroGrid tracks the physical pair within 4 % at
    /// every size and within 1.5 % from 16 KB up.
    fn fig8(&mut self) {
        self.name = "fig8_latency_is_flat_then_linear_and_mgrid_tracks_ethernet";
        let (ethernet, mgrid) = ("latency us — Ethernet", "latency us — Mgrid");
        for side in [ethernet, mgrid] {
            let spread = spread_percent(&["4B", "16B", "64B"].map(|x| self.at(side, x)));
            self.require(spread <= 10.0, || {
                format!("{side}: 4-64 B latencies spread {spread:.2} %, claim <= 10 %")
            });
        }
        let plateau = self.at("bandwidth MB/s — Ethernet", "262144B") * 8.0;
        self.require((80.0..=86.0).contains(&plateau), || {
            format!("Ethernet bandwidth at 256 KB is {plateau:.1} Mb/s, claim 80-86")
        });
        for (size, physical) in self.series(ethernet, 9) {
            let off = (self.at(mgrid, size) / physical - 1.0).abs() * 100.0;
            let bound = if x_value(size, "B") >= 16384.0 {
                1.5
            } else {
                4.0
            };
            self.require(off <= bound, || {
                format!("Mgrid is {off:.2} % off Ethernet at {size}, claim <= {bound} %")
            });
        }
    }

    /// Fig 10: MicroGrid totals match the physical runs within 2 % for
    /// IS/LU/MG and within 4 % for EP/BT, on both clusters.
    fn fig10(&mut self) {
        self.name = "fig10_npb_totals_are_within_the_papers_error_bands";
        for cluster in ["Alpha_Cluster", "HPVM"] {
            for (bench, bound) in [
                ("IS", 2.0),
                ("LU", 2.0),
                ("MG", 2.0),
                ("EP", 4.0),
                ("BT", 4.0),
            ] {
                let label = format!("{bench} ({cluster})");
                let err = self.row_error(&label).abs();
                self.require(err < bound, || {
                    format!("{label}: error {err:.3} %, claim < {bound} %")
                });
            }
        }
    }

    /// Fig 11: EP, which never synchronizes, is within 1.5 % of physical
    /// at every quantum; BT, LU and MG model worse at 30 ms than at
    /// 2.5 ms, and the two finest-grained codes, LU and MG, worse with
    /// every step of the quantum.
    fn fig11(&mut self) {
        self.name = "fig11_longer_quanta_model_synchronizing_codes_worse";
        const SLICES: [&str; 4] = ["slice=2.5ms", "slice=5ms", "slice=10ms", "slice=30ms"];
        for bench in ["EP", "BT", "LU", "MG"] {
            let label = format!("{bench} (class S)");
            let physical = self.at(&label, "physical");
            let errs = SLICES.map(|x| (self.at(&label, x) / physical - 1.0).abs() * 100.0);
            let holds = match bench {
                "EP" => errs.iter().all(|e| *e <= 1.5),
                "BT" => errs[3] > errs[0],
                _ => errs.windows(2).all(|w| w[1] > w[0]),
            };
            self.require(holds, || {
                format!("{bench}: errors {errs:.2?} % at 2.5/5/10/30 ms")
            });
        }
    }

    /// Fig 14: over the 62x range of WAN bottleneck bandwidth (622 Mb/s
    /// to 10 Mb/s) no code's run time moves by more than 10 %, and EP's
    /// by no more than 0.1 %: latency, not bandwidth, is what the WAN
    /// costs.
    fn fig14(&mut self) {
        self.name = "fig14_run_time_is_mildly_sensitive_to_wan_bandwidth";
        for code in ["EP", "BT", "LU", "MG"] {
            let times = ["622Mb/s", "155Mb/s", "10Mb/s"].map(|x| self.at(code, x));
            let moved = spread_percent(&times);
            let bound = if code == "EP" { 0.1 } else { 10.0 };
            self.require(moved <= bound, || {
                format!("{code}: {moved:.3} % between 622 and 10 Mb/s, claim <= {bound} %")
            });
        }
    }

    /// Fig 15: virtual run time normalised to the 1x rate stays within
    /// the paper's 0.85-1.05 band at 2x, 4x and 8x; our own reproduction
    /// drifts by no more than 1 %.
    fn fig15(&mut self) {
        self.name = "fig15_virtual_time_is_invariant_under_the_emulation_rate";
        for code in ["EP", "BT", "LU", "MG"] {
            for rate in ["2x system", "4x system", "8x system"] {
                let norm = self.at(code, rate);
                self.require((norm - 1.0).abs() <= 0.01, || {
                    format!("{code} at {rate}: normalised virtual time {norm:.4}, claim within 1 %")
                });
            }
        }
    }

    /// Fig 16: WaveToy 250^3 matches within the paper's 7 %; 50^3, whose
    /// 8 ms steps are of the order of the quantum, no worse than the
    /// +10.2 % EXPERIMENTS.md documents.
    fn fig16(&mut self) {
        self.name = "fig16_wavetoy_matches_within_the_documented_bands";
        for (label, bound) in [("WaveToy 250^3", 7.0), ("WaveToy 50^3", 11.0)] {
            let err = self.row_error(label).abs();
            self.require(err <= bound, || {
                format!("{label}: error {err:.2} %, claim <= {bound} %")
            });
        }
    }

    /// Fig 17: the Autopilot counter trace inside a 4 %-CPU MicroGrid
    /// follows the physical one within 10 % RMS for every code, and MG,
    /// the finest-grained, is the worst, as in the paper.
    fn fig17(&mut self) {
        self.name = "fig17_autopilot_skews_stay_under_ten_percent_with_mg_worst";
        let skews = ["EP", "BT", "MG"]
            .map(|code| (code, self.at(&format!("{code} skew%"), "rms_skew_percent")));
        let mg = skews[2].1;
        for (code, skew) in skews {
            self.require(skew <= 10.0 && skew <= mg, || {
                format!("{code}: RMS skew {skew:.2} % (MG {mg:.2} %), claim <= 10 %, MG the worst")
            });
        }
    }
}
