//! `pqbench compare A.json B.json`: hold two result files against each
//! other, metric by metric and workload by workload, under the bounds that
//! `BENCHMARK.json` fixes. `A` is the base of every ratio.

use crate::json::Json;
use crate::stats::{median, spread};
use std::fmt::Write as _;

/// Counts that must repeat exactly between two runs at one seed.
pub const EXACT_AT_EQUAL_SEED: [&str; 2] = ["load_over_bound", "wire_bytes_per_query"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Worse than the base by more than the bound (or an exact count moved).
    Worse,
    /// The runs scatter more than the bound allows and overlap: the data
    /// cannot tell "unchanged" from "regressed".
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `new` against `base` (each the values of one metric over the runs
/// of one file). `higher_is_better` gives the direction, `bound` the share
/// of the base median the metric may worsen by.
pub fn verdict(
    base: &[f64],
    new: &[f64],
    higher_is_better: bool,
    bound: f64,
    exact: bool,
) -> Verdict {
    let (Some(base_mid), Some(new_mid)) = (median(base), median(new)) else {
        return Verdict::Unresolved;
    };
    if exact {
        return if base == new {
            Verdict::Ok
        } else {
            Verdict::Worse
        };
    }
    // Positive = worse, as a share of the base.
    let worsening = if higher_is_better {
        base_mid - new_mid
    } else {
        new_mid - base_mid
    } / base_mid.abs();
    let scatter = spread(base).unwrap_or(0.0).max(spread(new).unwrap_or(0.0));
    if scatter <= bound {
        return if worsening > bound {
            Verdict::Worse
        } else {
            Verdict::Ok
        };
    }
    // Too noisy for the bound: only a clean separation of the two sets of
    // runs decides.
    let better = |a: f64, b: f64| if higher_is_better { a > b } else { a < b };
    let all_new_better = new.iter().all(|&n| base.iter().all(|&b| better(n, b)));
    let all_new_worse = new.iter().all(|&n| base.iter().all(|&b| better(b, n)));
    if all_new_better {
        Verdict::Ok
    } else if all_new_worse && worsening > bound {
        Verdict::Worse
    } else {
        Verdict::Unresolved
    }
}

fn runs_of(metric: &Json) -> Vec<f64> {
    match metric.get("runs").and_then(Json::as_array) {
        Some(runs) if !runs.is_empty() => runs.iter().filter_map(Json::as_f64).collect(),
        _ => metric
            .get("value")
            .and_then(Json::as_f64)
            .into_iter()
            .collect(),
    }
}

/// Compare two result files. Returns the report and whether any pairing
/// came out `worse`.
pub fn compare(a: &Json, b: &Json, manifest: &Json) -> Result<(String, bool), String> {
    let same_seed = a.get("seed").and_then(Json::as_f64) == b.get("seed").and_then(Json::as_f64);
    let bounds: Vec<(&str, bool, f64)> = manifest
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?,
                m.get("better")?.as_str()? == "higher",
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect();
    let workloads_a = a
        .get("workloads")
        .and_then(Json::as_object)
        .ok_or("A has no workloads")?;
    let workloads_b = b.get("workloads").ok_or("B has no workloads")?;

    let mut report = String::new();
    let mut any_worse = false;
    let _ = writeln!(
        report,
        "{:<16} {:<40} {:>14} {:>14}  {:<18} verdict",
        "workload", "metric", "A (base)", "B", "B/A"
    );
    for (workload, result_a) in workloads_a {
        let Some(result_b) = workloads_b.get(workload) else {
            continue;
        };
        for side in [("A", result_a), ("B", result_b)] {
            if side.1.get("correct") != Some(&Json::Bool(true)) {
                let _ = writeln!(report, "{workload:<16} {} was not a correct run", side.0);
                any_worse = true;
            }
        }
        let metrics_a = result_a
            .get("metrics")
            .and_then(Json::as_object)
            .unwrap_or(&[]);
        for (name, metric_a) in metrics_a {
            let Some(metric_b) = result_b.get("metrics").and_then(|m| m.get(name)) else {
                continue;
            };
            let (runs_a, runs_b) = (runs_of(metric_a), runs_of(metric_b));
            let (Some(mid_a), Some(mid_b)) = (median(&runs_a), median(&runs_b)) else {
                continue;
            };
            let unit = metric_a.get("unit").and_then(Json::as_str).unwrap_or("");
            let ratio = if mid_a != 0.0 {
                format!("{:.4} of A", mid_b / mid_a)
            } else {
                "n/a (A is 0)".to_string()
            };
            let label = match bounds.iter().find(|(bounded, _, _)| bounded == name) {
                // Per-layer metrics carry no bound: shown, never judged.
                None => "-",
                Some(&(_, higher, bound)) => {
                    let exact = same_seed && EXACT_AT_EQUAL_SEED.contains(&name.as_str());
                    let verdict = verdict(&runs_a, &runs_b, higher, bound, exact);
                    any_worse |= verdict == Verdict::Worse;
                    verdict.label()
                }
            };
            let _ = writeln!(
                report,
                "{workload:<16} {:<40} {:>14.6} {:>14.6}  {ratio:<18} {label}",
                format!("{name} [{unit}]"),
                mid_a,
                mid_b
            );
        }
    }
    Ok((report, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_direction_and_scatter() {
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        // Lower is better, bound 15 %.
        assert_eq!(
            verdict(&steady, &[10.5, 10.6, 10.4, 10.5, 10.5], false, 0.15, false),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&steady, &[12.0, 12.1, 11.9, 12.0, 12.2], false, 0.15, false),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&steady, &[5.0, 5.1, 4.9, 5.0, 5.0], false, 0.15, false),
            Verdict::Ok
        );
        // Higher is better: the same drop is a regression.
        assert_eq!(
            verdict(&steady, &[8.0, 8.1, 7.9, 8.0, 8.0], true, 0.15, false),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&steady, &[12.0, 12.1, 11.9, 12.0, 12.2], true, 0.15, false),
            Verdict::Ok
        );

        // Scatter wider than the bound and overlapping runs: unresolved.
        let noisy = [10.0, 14.0, 8.0, 12.0, 9.0];
        assert_eq!(
            verdict(&noisy, &[11.0, 15.0, 9.0, 13.0, 10.0], false, 0.15, false),
            Verdict::Unresolved
        );
        // … unless every new run beats (or loses to) every base run.
        assert_eq!(
            verdict(&noisy, &[5.0, 7.0, 4.0, 6.0, 5.5], false, 0.15, false),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&noisy, &[20.0, 28.0, 16.0, 24.0, 18.0], false, 0.15, false),
            Verdict::Worse
        );

        // Exact counts: identical or worse, whatever the size of the move.
        assert_eq!(verdict(&[1.25], &[1.25], false, 0.1, true), Verdict::Ok);
        assert_eq!(
            verdict(&[1.25], &[1.2500001], false, 0.1, true),
            Verdict::Worse
        );
        // Single runs carry no scatter: the bound alone decides.
        assert_eq!(verdict(&[10.0], &[11.0], false, 0.15, false), Verdict::Ok);
        assert_eq!(
            verdict(&[10.0], &[12.0], false, 0.15, false),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&[], &[1.0], false, 0.15, false),
            Verdict::Unresolved
        );
    }

    fn result(seed: f64, p50: &[f64], load: f64, trace_only: f64) -> Json {
        let metric = |runs: &[f64], unit: &str| {
            Json::obj(vec![
                ("value", Json::Num(median(runs).unwrap())),
                ("unit", Json::str(unit)),
                (
                    "runs",
                    Json::Arr(runs.iter().map(|&r| Json::Num(r)).collect()),
                ),
            ])
        };
        Json::obj(vec![
            ("seed", Json::Num(seed)),
            (
                "workloads",
                Json::obj(vec![(
                    "tri_sim",
                    Json::obj(vec![
                        ("correct", Json::Bool(true)),
                        (
                            "metrics",
                            Json::obj(vec![
                                ("query_p50_ms", metric(p50, "ms")),
                                ("load_over_bound", metric(&[load], "ratio")),
                                ("pq-query.bind_us", metric(&[trace_only], "us")),
                            ]),
                        ),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn compare_reports_ratio_with_base_and_flags_regressions() {
        let manifest = Json::parse(
            r#"{"end_to_end":[{"name":"query_p50_ms","unit":"ms","better":"lower","bound":0.15},
                               {"name":"load_over_bound","unit":"ratio","better":"lower","bound":0.1}]}"#,
        )
        .unwrap();
        let base = result(1.0, &[16.0, 16.1, 15.9], 1.25, 40.0);
        let (report, worse) = compare(
            &base,
            &result(1.0, &[16.4, 16.5, 16.3], 1.25, 80.0),
            &manifest,
        )
        .unwrap();
        assert!(!worse, "{report}");
        assert!(report.contains("1.0250 of A"), "{report}");
        assert!(
            report.contains("pq-query.bind_us [us]"),
            "per-layer metrics are listed: {report}"
        );
        assert!(
            report
                .lines()
                .any(|l| l.contains("bind_us") && l.trim_end().ends_with('-')),
            "{report}"
        );

        let (report, worse) = compare(
            &base,
            &result(1.0, &[20.0, 20.1, 19.9], 1.25, 40.0),
            &manifest,
        )
        .unwrap();
        assert!(worse && report.contains("worse"), "{report}");

        // Same seed: a load count that moved at all is flagged …
        let (_, worse) = compare(
            &base,
            &result(1.0, &[16.0, 16.1, 15.9], 1.26, 40.0),
            &manifest,
        )
        .unwrap();
        assert!(worse);
        // … at another seed it is data, judged by its bound.
        let (_, worse) = compare(
            &base,
            &result(2.0, &[16.0, 16.1, 15.9], 1.26, 40.0),
            &manifest,
        )
        .unwrap();
        assert!(!worse);
    }
}
