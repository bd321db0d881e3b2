//! `compare`: two `out/` directories side by side, judged against the
//! bounds `BENCHMARK.json` fixes.

use crate::json::Json;
use std::path::Path;

/// How a metric moved, judged against its bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Worse than the base by more than the bound.
    Worse,
    /// Within the bound either way.
    Same,
    /// Better than the base by more than the bound.
    Better,
}

impl Verdict {
    /// The word printed in the table.
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Worse => "worse",
            Verdict::Same => "same",
            Verdict::Better => "better",
        }
    }
}

/// Judge `new` against `base` for a metric whose `better` direction is
/// `"higher"` or `"lower"`; `bound` is the share of `base` a value may
/// move before it counts.
pub fn judge(base: f64, new: f64, better: &str, bound: f64) -> Verdict {
    let worsening = if better == "higher" {
        base - new
    } else {
        new - base
    };
    let slack = bound * base.abs();
    if worsening > slack {
        Verdict::Worse
    } else if -worsening > slack {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn metric_value(doc: &Json, name: &str) -> Option<f64> {
    doc.get("end_to_end")?.get(name)?.get("value")?.as_f64()
}

/// Print, per workload and end-to-end metric, both values, their ratio
/// (new over base) and the verdict. Returns how many were `worse`, or why
/// the inputs could not be read.
pub fn compare(bench: &Path, base_dir: &Path, new_dir: &Path) -> Result<usize, String> {
    let bench = load(bench)?;
    let mut worse = 0;
    println!(
        "{:<20} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "base", "new", "new/base", "bound"
    );
    for workload in bench.get("workloads").map_or(&[][..], Json::items) {
        let Some(name) = workload.get("name").and_then(Json::as_str) else {
            continue;
        };
        let file = format!("{name}.json");
        let (base, new) = match (load(&base_dir.join(&file)), load(&new_dir.join(&file))) {
            (Ok(base), Ok(new)) => (base, new),
            (Err(e), _) | (_, Err(e)) => {
                println!("{name:<20} skipped: {e}");
                continue;
            }
        };
        for side in [&base, &new] {
            if side.get("quick") == Some(&Json::Bool(true)) {
                return Err(format!("{name}: a --quick result is never comparable"));
            }
        }
        let fingerprint = |doc: &Json| {
            doc.get("fingerprint")
                .and_then(Json::as_str)
                .map(String::from)
        };
        for metric in bench.get("end_to_end").map_or(&[][..], Json::items) {
            let field = |key: &str| metric.get(key).and_then(Json::as_str).unwrap_or("");
            let (metric_name, better) = (field("name"), field("better"));
            let bound = metric.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let (Some(b), Some(n)) = (
                metric_value(&base, metric_name),
                metric_value(&new, metric_name),
            ) else {
                println!("{name:<20} {metric_name:<16} missing on one side");
                continue;
            };
            let verdict = judge(b, n, better, bound);
            worse += (verdict == Verdict::Worse) as usize;
            println!(
                "{name:<20} {metric_name:<16} {b:>14.6} {n:>14.6} {:>9.4} {bound:>7.3}  {}",
                if b == 0.0 { 0.0 } else { n / b },
                verdict.word()
            );
        }
        let same = fingerprint(&base) == fingerprint(&new);
        println!(
            "{name:<20} {:<16} {:>14} {:>14} {:>9} {:>7}  {}",
            "fingerprint",
            fingerprint(&base).unwrap_or_default(),
            fingerprint(&new).unwrap_or_default(),
            "-",
            "-",
            if same {
                "identical: every simulated statistic repeats"
            } else {
                "differs: the simulated run changed"
            }
        );
    }
    Ok(worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_respect_direction_and_bound() {
        assert_eq!(judge(100.0, 91.0, "higher", 0.08), Verdict::Worse);
        assert_eq!(judge(100.0, 93.0, "higher", 0.08), Verdict::Same);
        assert_eq!(judge(100.0, 109.0, "higher", 0.08), Verdict::Better);
        assert_eq!(judge(100.0, 109.0, "lower", 0.08), Verdict::Worse);
        assert_eq!(judge(100.0, 91.0, "lower", 0.08), Verdict::Better);
        assert_eq!(judge(100.0, 100.0, "lower", 0.0), Verdict::Same);
    }
}
