//! `compare A.json B.json`: the ledger diff.
//!
//! Per workload and end-to-end metric: each side's median and quartiles,
//! the bound, the ratio with its base, and a verdict. A row whose
//! run-to-run spread is wider than the bound is *unresolved*: it says
//! nothing, which is not the same as "unchanged".

use crate::ledger::read_nums;
use crate::spec::{self, Better, WORKLOADS};
use crate::stats::{quartiles, sig, sorted, spread};
use agentgrid_telemetry::json::Value;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "WORSE",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "UNRESOLVED",
        }
    }
}

/// One side of a row: quartiles of its samples.
#[derive(Clone, Copy, Debug)]
pub struct Side {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Side {
    pub fn of(samples: &[f64]) -> Side {
        let s = sorted(samples.to_vec());
        let (q1, median, q3) = quartiles(&s);
        Side {
            q1,
            median,
            q3,
            n: s.len(),
        }
    }

    fn spread(&self) -> f64 {
        spread((self.q1, self.median, self.q3))
    }
}

/// Judge `b` against the base `a`.
pub fn verdict(a: &Side, b: &Side, better: Better, bound: f64) -> Verdict {
    if a.spread().max(b.spread()) > bound {
        return Verdict::Unresolved;
    }
    // Positive when `b` is worse, as a share of the base.
    let worse_by = match better {
        Better::Lower => (b.median - a.median) / a.median,
        Better::Higher => (a.median - b.median) / a.median,
    };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn samples(metric: &Value) -> Vec<f64> {
    metric.get("samples").map(read_nums).unwrap_or_default()
}

/// Print the diff; `Ok(true)` when no row is worse or unresolved and the
/// simulated statistics and exact counts are identical.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut clean = true;
    println!("A = {path_a}\nB = {path_b}\n");
    println!(
        "{:<11} {:<15} {:>31} {:>31} {:>6}  {:<22} verdict",
        "workload", "metric", "A median [q1, q3] n", "B median [q1, q3] n", "bound", "B/A (base A)"
    );
    for workload in WORKLOADS {
        let side = |v: &Value| v.get("workloads").and_then(|w| w.get(workload)).cloned();
        let (Some(wa), Some(wb)) = (side(&a), side(&b)) else {
            println!("{workload:<11} missing from one side");
            clean = false;
            continue;
        };
        for metric in spec::END_TO_END {
            let of = |w: &Value| {
                w.get("end_to_end")
                    .and_then(|e| e.get(metric.name))
                    .map(samples)
            };
            let (Some(sa), Some(sb)) = (of(&wa), of(&wb)) else {
                continue;
            };
            if sa.is_empty() || sb.is_empty() {
                continue;
            }
            let (sa, sb) = (Side::of(&sa), Side::of(&sb));
            let v = verdict(&sa, &sb, metric.better, metric.bound);
            clean &= matches!(v, Verdict::Better | Verdict::WithinBound);
            let cell =
                |s: &Side| format!("{} [{}, {}] {}", sig(s.median), sig(s.q1), sig(s.q3), s.n);
            println!(
                "{workload:<11} {:<15} {:>31} {:>31} {:>5.0}%  {:<22} {}",
                metric.name,
                cell(&sa),
                cell(&sb),
                metric.bound * 100.0,
                format!(
                    "{:.3}x of {} {}",
                    sb.median / sa.median,
                    sig(sa.median),
                    metric.unit
                ),
                v.label()
            );
        }
        let share = |w: &Value| {
            w.get(spec::FAILED_SHARE)
                .and_then(Value::as_f64)
                .unwrap_or(1.0)
        };
        let rose = share(&wb) > share(&wa);
        clean &= !rose;
        println!(
            "{workload:<11} {:<15} {:>31} {:>31} {:>6}  {:<22} {}",
            spec::FAILED_SHARE,
            share(&wa),
            share(&wb),
            "0",
            "must not rise",
            if rose { "WORSE" } else { "within bound" }
        );

        // The live session is paced by the wall clock: its simulated
        // statistics differ from run to run by construction.
        let prints = |w: &Value| w.get("sim_fingerprint").cloned();
        let same_stats = workload == "serve_live" || prints(&wa) == prints(&wb);
        let mut moved = Vec::new();
        for layer in spec::PER_LAYER.iter().filter(|m| m.unit == "count") {
            let of = |w: &Value| {
                w.get("per_layer")
                    .and_then(|p| p.get(layer.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Value::as_f64)
            };
            if of(&wa) != of(&wb) {
                moved.push(format!("{} {:?} -> {:?}", layer.name, of(&wa), of(&wb)));
            }
        }
        clean &= same_stats && moved.is_empty();
        println!(
            "{workload:<11} sim_fingerprint {}; exact counts {}",
            match (workload, same_stats) {
                ("serve_live", _) => "not comparable (wall-clock paced)",
                (_, true) => "identical",
                (_, false) => "DIFFERS",
            },
            if moved.is_empty() {
                "identical".to_string()
            } else {
                format!("DIFFER: {}", moved.join(", "))
            }
        );
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(median: f64, half_iqr: f64) -> Side {
        Side {
            q1: median - half_iqr,
            median,
            q3: median + half_iqr,
            n: 10,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let base = side(1.0, 0.005);
        assert_eq!(
            verdict(&base, &side(1.03, 0.005), Better::Lower, 0.05),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(&base, &side(1.06, 0.005), Better::Lower, 0.05),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&base, &side(0.90, 0.005), Better::Lower, 0.05),
            Verdict::Better
        );
        assert_eq!(
            verdict(&base, &side(0.90, 0.005), Better::Higher, 0.05),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&base, &side(1.10, 0.005), Better::Higher, 0.05),
            Verdict::Better
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let noisy = side(1.0, 0.04); // IQR 8% of the median
        assert_eq!(
            verdict(&noisy, &side(1.0, 0.001), Better::Lower, 0.05),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&side(1.0, 0.001), &noisy, Better::Lower, 0.05),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &noisy, Better::Lower, 0.10),
            Verdict::WithinBound
        );
        // A failed request makes a percentile infinite: never "within bound".
        let broken = Side::of(&[1.0, f64::INFINITY, f64::INFINITY]);
        assert_eq!(
            verdict(&side(1.0, 0.001), &broken, Better::Lower, 0.25),
            Verdict::Unresolved
        );
    }

    #[test]
    fn a_single_sample_has_no_spread() {
        let one = Side::of(&[4.2]);
        assert_eq!((one.q1, one.median, one.q3, one.n), (4.2, 4.2, 4.2, 1));
        assert_eq!(
            verdict(&one, &Side::of(&[4.3]), Better::Lower, 0.05),
            Verdict::WithinBound
        );
    }
}
