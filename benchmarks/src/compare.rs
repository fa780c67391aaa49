//! `perf compare A B`: two sets of saved runs, side by side, against
//! each end-to-end metric's bound.

use crate::json::{self, Value};
use crate::spec::{Better, END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;

/// workload -> metric -> one value per saved run.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Read a file of saved runs (`--out FILE`: one JSON object per line).
fn load(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{path}:{}: {what}", n + 1);
        let doc = json::parse(line).map_err(|e| bad(&e))?;
        let workload = doc
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("no `workload`"))?;
        let metrics = doc
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or_else(|| bad("no `metrics`"))?;
        let by_metric = runs.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            let v = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| bad("metric without `value`"))?;
            by_metric.entry(name.clone()).or_default().push(v);
        }
    }
    Ok(runs)
}

fn describe(values: &[f64]) -> String {
    let m = median(values).unwrap_or(f64::NAN);
    match quartiles(values) {
        Some((q1, q3)) => format!("{m:>12.4} [{q1:.4}, {q3:.4}]"),
        None => format!("{m:>12.4} [one run]"),
    }
}

/// Print the comparison; `Ok(false)` when some metric's median in `b`
/// is worse than in `a` by more than its bound.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!("A = {a_path}, B = {b_path}: median [first quartile, third quartile]; `worse` is B against A as a share of A");
    let mut all_within = true;
    for w in WORKLOADS {
        let (Some(ra), Some(rb)) = (a.get(w.name), b.get(w.name)) else {
            continue;
        };
        for m in END_TO_END {
            let (Some(va), Some(vb)) = (ra.get(m.name), rb.get(m.name)) else {
                continue;
            };
            let (ma, mb) = (
                median(va).unwrap_or(f64::NAN),
                median(vb).unwrap_or(f64::NAN),
            );
            let worse = match m.better {
                Better::Lower => (mb - ma) / ma,
                Better::Higher => (ma - mb) / ma,
            };
            let bound = m.bound.expect("end-to-end metrics have bounds");
            let verdict = if worse <= bound { "within" } else { "outside" };
            all_within &= worse <= bound;
            println!(
                "{:<18} {:<24} A {} ({} runs)  B {} ({} runs)  worse {:+.2} %  bound {:.0} %  {verdict}",
                w.name,
                m.name,
                describe(va),
                va.len(),
                describe(vb),
                vb.len(),
                worse * 100.0,
                bound * 100.0,
            );
        }
    }
    Ok(all_within)
}
