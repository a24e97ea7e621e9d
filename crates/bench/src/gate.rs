//! The perf-regression gate behind `bench_check`. It compares an
//! untraced perfbench result document with the committed baseline
//! `BENCH_<pr>-<workload>.json` of the same workload and seed that has
//! the highest PR number:
//!
//! * `correct` must be true, `ok_frac` 1, and `mpki` identical to the
//!   baseline's (it is simulated, so deterministic per seed);
//! * every other end-to-end metric fails when it is worse than the
//!   baseline by more than its `BENCHMARK.json` bound, in its `better`
//!   direction. When `nproc`, `cpu`, `rustc` or `seconds` differ, those
//!   comparisons are notes instead; `commit` is never compared;
//! * a missing baseline, a traced document, a workload or seed mismatch
//!   and an unreadable file are errors, never a pass.

use std::path::{Path, PathBuf};

use bfbp_sim::json::{parse_json, JsonValue};

/// Fingerprint fields that must match for bounds to gate.
const FINGERPRINT: [&str; 4] = ["nproc", "cpu", "rustc", "seconds"];

/// How one compared quantity came out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Within its rule.
    Ok,
    /// Reported, not gated: the fingerprints differ.
    Note,
    /// Breaks its rule.
    Fail,
}

/// One compared quantity: its status and a `subject: detail` line.
pub type Finding = (Status, String);

/// Gates the result document at `result` against its baseline in
/// `root` under `root/BENCHMARK.json`; returns the baseline's path and
/// the findings.
///
/// # Errors
///
/// An unreadable file, no baseline for the result's workload and seed,
/// and the mismatches [`compare`] rejects.
pub fn check(root: &Path, result: &Path) -> Result<(PathBuf, Vec<Finding>), String> {
    let doc = load(result)?;
    let workload = doc.get("workload").and_then(JsonValue::as_str);
    let seed = doc.get("seed").and_then(JsonValue::as_u64);
    let (Some(workload), Some(seed)) = (workload, seed) else {
        return Err("no \"workload\" or \"seed\"".to_owned());
    };
    let (path, baseline) = find_baseline(root, workload, seed)?;
    let benchmark = load(&root.join("BENCHMARK.json"))?;
    Ok((path, compare(&doc, &baseline, &benchmark)?))
}

/// The `BENCH_<pr>-<workload>.json` in `dir` with the highest PR number
/// (compared as a number) among those whose document has `seed`.
///
/// # Errors
///
/// No such baseline, or a candidate that cannot be read.
pub fn find_baseline(
    dir: &Path,
    workload: &str,
    seed: u64,
) -> Result<(PathBuf, JsonValue), String> {
    let suffix = format!("-{workload}.json");
    let mut candidates = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let pr = name
            .strip_prefix("BENCH_")
            .and_then(|n| n.strip_suffix(&suffix));
        if let Some(pr) = pr.and_then(|pr| pr.parse::<u64>().ok()) {
            candidates.push((pr, path));
        }
    }
    candidates.sort();
    for (_, path) in candidates.into_iter().rev() {
        let doc = load(&path)?;
        if doc.get("seed").and_then(JsonValue::as_u64) == Some(seed) {
            return Ok((path, doc));
        }
    }
    Err(format!("no BENCH_<pr>{suffix} with seed {seed}"))
}

/// Compares a result document with its baseline under the end-to-end
/// metrics of the parsed `BENCHMARK.json`.
///
/// # Errors
///
/// Either document traced, a workload or seed mismatch, or a
/// `BENCHMARK.json` without end-to-end metrics, directions or bounds.
pub fn compare(
    result: &JsonValue,
    baseline: &JsonValue,
    benchmark: &JsonValue,
) -> Result<Vec<Finding>, String> {
    for doc in [result, baseline] {
        if doc.get("trace").and_then(JsonValue::as_u64) != Some(0) {
            return Err("only untraced (--trace 0) runs are compared".to_owned());
        }
    }
    for key in ["workload", "seed"] {
        let (new, old) = (show(result.get(key)), show(baseline.get(key)));
        if result.get(key).is_none() || new != old {
            return Err(format!("{key} {new} against a baseline of {old}"));
        }
    }
    let metrics = benchmark.get("end_to_end").and_then(JsonValue::as_arr);
    let metrics = metrics.ok_or("BENCHMARK.json lists no end_to_end metrics")?;

    let mut findings = Vec::new();
    let mut differing = Vec::new();
    for key in FINGERPRINT {
        let field =
            |doc: &JsonValue| show(doc.get("host").and_then(|h| h.get(key)).or(doc.get(key)));
        if field(result) != field(baseline) {
            differing.push(format!("{key} {} vs {}", field(result), field(baseline)));
        }
    }
    let gated = differing.is_empty();
    if !gated {
        let line = format!("fingerprint: {}: bounds do not gate", differing.join(", "));
        findings.push((Status::Note, line));
    }
    let correct = result.get("correct").and_then(JsonValue::as_bool) == Some(true);
    let status = if correct { Status::Ok } else { Status::Fail };
    findings.push((status, format!("correct: {}", show(result.get("correct")))));

    for metric in metrics {
        let name = metric.get("name").and_then(JsonValue::as_str).unwrap_or("");
        let value = |doc: &JsonValue| doc.get("metrics")?.get(name)?.get("value")?.as_f64();
        let (status, detail) = match (name, value(result), value(baseline)) {
            (_, None, _) => (Status::Fail, "missing from the result".to_owned()),
            (_, _, None) => (Status::Fail, "missing from the baseline".to_owned()),
            ("mpki", Some(new), Some(old)) if new == old => {
                (Status::Ok, format!("{new} identical"))
            }
            ("mpki", Some(new), Some(old)) => {
                (Status::Fail, format!("{new} vs {old}: must be identical"))
            }
            ("ok_frac", Some(new), _) if new >= 1.0 => (Status::Ok, format!("{new}")),
            ("ok_frac", Some(new), _) => (Status::Fail, format!("{new}: must be 1")),
            (_, Some(new), Some(old)) => {
                let higher = match metric.get("better").and_then(JsonValue::as_str) {
                    Some("higher") => true,
                    Some("lower") => false,
                    _ => return Err(format!("{name}: no \"better\" direction")),
                };
                let bound = metric.get("bound").and_then(JsonValue::as_f64);
                let bound = bound.ok_or_else(|| format!("{name}: no bound"))?;
                let change = new / old - 1.0;
                let worse = if higher { -change } else { change };
                let status = match (gated, worse > bound) {
                    (false, _) => Status::Note,
                    (true, true) => Status::Fail,
                    (true, false) => Status::Ok,
                };
                let (limit, pct) = (if higher { "fall" } else { "rise" }, change * 100.0);
                let (new, old) = (rounded(new), rounded(old));
                (
                    status,
                    format!(
                        "{new} vs {old} ({pct:+.1}%; may {limit} {:.0}%)",
                        bound * 100.0
                    ),
                )
            }
        };
        findings.push((status, format!("{name}: {detail}")));
    }
    Ok(findings)
}

/// A metric value for reading: whole numbers from 1000 up.
fn rounded(x: f64) -> String {
    if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else {
        format!("{x:.4}")
    }
}

fn show(value: Option<&JsonValue>) -> String {
    match value {
        Some(JsonValue::Str(s)) => s.clone(),
        Some(JsonValue::Int(n)) => n.to_string(),
        Some(JsonValue::Num(n)) => n.to_string(),
        Some(JsonValue::Bool(b)) => b.to_string(),
        _ => "missing".to_owned(),
    }
}

fn load(path: &Path) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}
