//! `ledger compare <dirA> <dirB>`: run records of two commits (or two
//! seed sets of one commit) side by side, one verdict per workload and
//! metric.
//!
//! A metric is `worse` when B's median is worse than A's by more than
//! the metric's bound, and `better` when B beats A in at least nine
//! tenths of the seed-paired runs and the medians differ by more than
//! A's own interquartile spread. When either side's spread exceeds the
//! bound the metric is `unresolved`, unless every run of B beats every
//! run of A. Per-layer metrics have no bound and get no verdict.

use crate::json::{metric_values, Json};
use crate::stats::quartiles;
use std::collections::BTreeMap;
use std::path::Path;

/// One run record read back from `--out`.
struct Run {
    workload: String,
    seed: u64,
    metrics: BTreeMap<String, (f64, String)>,
}

fn load(dir: &Path) -> Result<Vec<Run>, String> {
    let mut runs = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths
        .iter()
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
    {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))?;
        let Some(workload) = doc.get("workload").and_then(Json::as_str) else {
            continue;
        };
        runs.push(Run {
            workload: workload.to_string(),
            seed: doc.get("seed").and_then(Json::as_f64).unwrap_or(0.0) as u64,
            metrics: metric_values(&doc),
        });
    }
    if runs.is_empty() {
        return Err(format!(
            "{}: no run records (*.json from --out)",
            dir.display()
        ));
    }
    Ok(runs)
}

/// The verdict on one metric. `a` and `b` hold `(seed, value)` runs.
pub fn verdict(a: &[(u64, f64)], b: &[(u64, f64)], lower_better: bool, bound: f64) -> &'static str {
    let va: Vec<f64> = a.iter().map(|r| r.1).collect();
    let vb: Vec<f64> = b.iter().map(|r| r.1).collect();
    let (qa1, ma, qa3) = quartiles(&va);
    let (qb1, mb, qb3) = quartiles(&vb);
    let better = |x: f64, y: f64| if lower_better { x < y } else { x > y };
    let worse_by = if lower_better { mb - ma } else { ma - mb } / ma.abs();
    let spread_a = (qa3 - qa1) / ma.abs();
    let spread_b = (qb3 - qb1) / mb.abs();
    let b_best_a = if lower_better {
        vb.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            < va.iter().cloned().fold(f64::INFINITY, f64::min)
    } else {
        vb.iter().cloned().fold(f64::INFINITY, f64::min)
            > va.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
    };
    if spread_a.max(spread_b) > bound {
        return if b_best_a { "better" } else { "unresolved" };
    }
    if worse_by > bound {
        return "worse";
    }
    // Pair runs by seed; without common seeds, by position.
    let mut pairs: Vec<(f64, f64)> = a
        .iter()
        .filter_map(|&(s, x)| b.iter().find(|r| r.0 == s).map(|r| (x, r.1)))
        .collect();
    if pairs.is_empty() {
        pairs = va.iter().copied().zip(vb.iter().copied()).collect();
    }
    // A gain needs at least ten pairs, nine tenths of them won.
    let wins = pairs.iter().filter(|&&(x, y)| better(y, x)).count();
    if -worse_by > spread_a && pairs.len() >= 10 && wins * 10 >= pairs.len() * 9 {
        "better"
    } else {
        "within"
    }
}

pub fn main(args: &[String]) -> i32 {
    let mut dirs = Vec::new();
    let mut bench = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--bench" => match it.next() {
                Some(p) => bench = p.clone(),
                None => return usage(),
            },
            _ => dirs.push(a.clone()),
        }
    }
    let [dir_a, dir_b] = dirs.as_slice() else {
        return usage();
    };
    let bounds: BTreeMap<String, (bool, f64)> = match std::fs::read_to_string(&bench)
        .map_err(|e| e.to_string())
        .and_then(|t| Json::parse(&t))
    {
        Ok(doc) => doc
            .get("end_to_end")
            .map(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|m| {
                let name = m.get("name")?.as_str()?.to_string();
                let lower = m.get("better")?.as_str()? == "lower";
                Some((name, (lower, m.get("bound")?.as_f64()?)))
            })
            .collect(),
        Err(e) => {
            eprintln!("compare: {bench}: {e}");
            return 2;
        }
    };
    let (a, b) = match (load(Path::new(dir_a)), load(Path::new(dir_b))) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return 2;
        }
    };
    type Runs = Vec<(u64, f64)>;
    let mut table: BTreeMap<(String, String), (Runs, Runs, String)> = BTreeMap::new();
    for (side, runs) in [(0, &a), (1, &b)] {
        for r in runs {
            for (name, (v, unit)) in &r.metrics {
                let e = table
                    .entry((r.workload.clone(), name.clone()))
                    .or_insert_with(|| (Vec::new(), Vec::new(), unit.clone()));
                if side == 0 { &mut e.0 } else { &mut e.1 }.push((r.seed, *v));
            }
        }
    }
    println!(
        "{:<8} {:<24} {:>30} {:>30} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "delta", "bound"
    );
    let mut worse = 0;
    for ((workload, name), (ra, rb, unit)) in &table {
        if ra.is_empty() || rb.is_empty() {
            continue;
        }
        let side = |r: &Runs| {
            let v: Vec<f64> = r.iter().map(|x| x.1).collect();
            let (q1, m, q3) = quartiles(&v);
            let [q1, m_, q3] = [q1, m, q3].map(num);
            (m, format!("{m_} [{q1}, {q3}] {unit}"))
        };
        let ((ma, ta), (mb, tb)) = (side(ra), side(rb));
        let delta = (mb - ma) / ma.abs() * 100.0;
        let (bound, v) = match bounds.get(name) {
            Some(&(lower, bound)) => (
                format!("{:.0}%", bound * 100.0),
                verdict(ra, rb, lower, bound),
            ),
            None => ("-".to_string(), "-"),
        };
        worse += usize::from(v == "worse");
        println!("{workload:<8} {name:<24} {ta:>30} {tb:>30} {delta:>+7.2}% {bound:>6}  {v}");
    }
    i32::from(worse > 0)
}

/// Four significant-ish digits, in scientific notation for tiny values.
fn num(x: f64) -> String {
    if x != 0.0 && x.abs() < 0.01 {
        format!("{x:.3e}")
    } else {
        format!("{x:.4}")
    }
}

fn usage() -> i32 {
    eprintln!("usage: ledger compare <dirA> <dirB> [--bench BENCHMARK.json]");
    2
}

#[cfg(test)]
mod tests {
    use super::verdict;

    fn runs(v: &[f64]) -> Vec<(u64, f64)> {
        v.iter().enumerate().map(|(i, &x)| (i as u64, x)).collect()
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = runs(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        let a10 = runs(&[
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 100.8, 99.2, 100.4, 99.6,
        ]);
        let faster10: Vec<f64> = a10.iter().map(|r| r.1 * 0.95).collect();
        // 5 % faster in all ten pairs, beyond A's spread: better.
        assert_eq!(verdict(&a10, &runs(&faster10), true, 0.1), "better");
        // The same gain over five pairs is too few runs to claim.
        assert_eq!(
            verdict(&a, &runs(&[95.0, 96.0, 94.0, 95.5, 94.5]), true, 0.1),
            "within"
        );
        // Same distribution: within.
        assert_eq!(
            verdict(&a, &runs(&[100.2, 99.8, 100.1, 99.9, 100.0]), true, 0.1),
            "within"
        );
        // 20 % slower with tight spreads: worse.
        assert_eq!(
            verdict(&a, &runs(&[120.0, 121.0, 119.0, 120.5, 119.5]), true, 0.1),
            "worse"
        );
        // For a higher-is-better metric the same runs are worse.
        assert_eq!(
            verdict(&a, &runs(&[95.0, 96.0, 94.0, 95.5, 94.5]), false, 0.02),
            "worse"
        );
        // A spread wider than the bound leaves the verdict open...
        let noisy = runs(&[60.0, 140.0, 100.0, 80.0, 120.0]);
        assert_eq!(verdict(&a, &noisy, true, 0.1), "unresolved");
        // ...unless every run of B beats every run of A.
        let fast_noisy = runs(&[10.0, 50.0, 30.0, 20.0, 40.0]);
        assert_eq!(verdict(&a, &fast_noisy, true, 0.1), "better");
    }
}
