//! Postmortem and trace forensics: render `bfbp-postmortem/1` dumps as
//! human-readable reports and export `bfbp-events/1` journals to Chrome
//! Trace Format for `chrome://tracing` / Perfetto.
//!
//! ```sh
//! forensics --postmortem DUMP.json [DUMP.json...]
//! forensics --chrome-trace EVENTS.jsonl [--out TRACE.json]
//! forensics --chrome-trace --events EVENTS.jsonl   # same journal flag as sweep
//! ```
//!
//! Flags are parsed through `bfbp_bench::cli::Harness`, so the events
//! journal can be named with the same `--events` / `--events-out` flag
//! every other binary uses (the positional path still works); shared
//! flags this tool cannot honor are rejected.
//!
//! `--postmortem` prints each dump's identity (job, series, trace, how
//! it died) and the flight-recorder window oldest-first, flagging
//! mispredictions and summarising each decision's provenance
//! (component, provider table, counter/margin, alternate). The exit
//! code is non-zero when any dump fails to parse, so the smoke check in
//! the verify workflow can assert dump validity by running this binary.
//!
//! `--chrome-trace` parses the events journal (tolerating a torn final
//! line, exactly like the engine's own readers) and writes the Chrome
//! Trace JSON to `--out`, or stdout when no output path is given.

use std::path::PathBuf;
use std::process::ExitCode;

use bfbp_bench::cli::Harness;
use bfbp_sim::forensics::{chrome_trace, read_events};
use bfbp_sim::json::{parse_json, JsonValue};

fn main() -> ExitCode {
    let mut harness = Harness::from_env(1.0);
    let mut postmortems: Vec<PathBuf> = Vec::new();
    let mut journal: Option<PathBuf> = None;
    let mut out: Option<PathBuf> = None;
    let mut mode: Option<&str> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match harness.parse_flag(&["--events"], &arg, &mut args) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(e) => return usage(&e),
        }
        match arg.as_str() {
            "--postmortem" => mode = Some("postmortem"),
            "--chrome-trace" => mode = Some("chrome-trace"),
            "--out" => match args.next() {
                Some(path) => out = Some(path.into()),
                None => return usage("--out needs a path"),
            },
            flag if flag.starts_with("--") => {
                return usage(&format!("unknown flag {flag:?}"));
            }
            path => match mode {
                Some("postmortem") => postmortems.push(path.into()),
                Some("chrome-trace") if journal.is_none() => journal = Some(path.into()),
                Some("chrome-trace") => {
                    return usage("--chrome-trace takes exactly one journal path")
                }
                _ => return usage(&format!("unexpected argument {path:?} before a mode flag")),
            },
        }
    }
    // `--events PATH` names the journal exactly as it does in `sweep`;
    // the positional spelling wins when both are given.
    if journal.is_none() {
        journal = harness.sweep.events;
    }

    match mode {
        Some("postmortem") if !postmortems.is_empty() => {
            let mut failures = 0;
            for path in &postmortems {
                if let Err(e) = render_postmortem(path) {
                    eprintln!("error: {}: {e}", path.display());
                    failures += 1;
                }
            }
            if failures > 0 {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Some("postmortem") => usage("--postmortem needs at least one dump path"),
        Some("chrome-trace") => {
            let Some(journal) = journal else {
                return usage("--chrome-trace needs an events journal path");
            };
            let events = match read_events(&journal) {
                Ok(events) => events,
                Err(e) => {
                    eprintln!("error: {}: {e}", journal.display());
                    return ExitCode::FAILURE;
                }
            };
            let doc = chrome_trace(&events);
            match &out {
                Some(path) => match std::fs::write(path, &doc) {
                    Ok(()) => {
                        eprintln!(
                            "{} events -> {} (load in chrome://tracing or Perfetto)",
                            events.len(),
                            path.display()
                        );
                        ExitCode::SUCCESS
                    }
                    Err(e) => {
                        eprintln!("error: cannot write {}: {e}", path.display());
                        ExitCode::FAILURE
                    }
                },
                None => {
                    print!("{doc}");
                    ExitCode::SUCCESS
                }
            }
        }
        _ => usage("pick a mode: --postmortem or --chrome-trace"),
    }
}

/// Parses and prints one postmortem dump; any structural surprise is an
/// error so this binary doubles as a dump validator.
fn render_postmortem(path: &PathBuf) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let doc = parse_json(&text).map_err(|e| e.to_string())?;
    let schema = doc
        .get("schema")
        .and_then(JsonValue::as_str)
        .ok_or("missing \"schema\"")?;
    if schema != bfbp_sim::obs::POSTMORTEM_SCHEMA {
        return Err(format!("unexpected schema {schema:?}"));
    }
    let str_of = |key: &str| doc.get(key).and_then(JsonValue::as_str).unwrap_or("?");
    let num_of = |key: &str| doc.get(key).and_then(JsonValue::as_u64);
    let entries = doc
        .get("entries")
        .and_then(JsonValue::as_arr)
        .ok_or("missing \"entries\" array")?;

    println!("{}", "=".repeat(78));
    println!("postmortem: {}", path.display());
    println!(
        "  job {} ({} / {}) {} — {}",
        num_of("job").unwrap_or(0),
        str_of("series"),
        str_of("trace"),
        str_of("status"),
        str_of("detail"),
    );
    println!(
        "  flight recorder: {} of {} decisions retained (capacity {})",
        entries.len(),
        num_of("recorded").unwrap_or(0),
        num_of("capacity").unwrap_or(0),
    );
    if entries.is_empty() {
        println!("  (ring empty: the job died before its first decision)");
        return Ok(());
    }
    println!(
        "  {:>12}  {:<14} {:<6} {:>5} {:>5}  provenance",
        "record", "pc", "kind", "pred", "taken"
    );
    for entry in entries {
        let index = entry
            .get("i")
            .and_then(JsonValue::as_u64)
            .ok_or("entry missing \"i\"")?;
        let pc = entry.get("pc").and_then(JsonValue::as_str).unwrap_or("?");
        let kind = entry.get("kind").and_then(JsonValue::as_str).unwrap_or("?");
        let fmt_dir = |key: &str| match entry.get(key).and_then(JsonValue::as_bool) {
            Some(true) => "T",
            Some(false) => "N",
            None => "?",
        };
        let miss = entry
            .get("mispredicted")
            .and_then(JsonValue::as_bool)
            .unwrap_or(false);
        println!(
            "  {:>12}  {:<14} {:<6} {:>5} {:>5}  {}{}",
            index,
            pc,
            kind,
            fmt_dir("predicted"),
            fmt_dir("taken"),
            provenance_summary(entry.get("provenance")),
            if miss { "  << MISPREDICT" } else { "" },
        );
    }
    Ok(())
}

/// One-line provenance summary: `tage T7 ctr=3 alt=N hist=118`,
/// `perceptron margin=-12 hist=28`, `bst`, or `-` when absent.
fn provenance_summary(provenance: Option<&JsonValue>) -> String {
    let Some(p) = provenance.filter(|p| !matches!(p, JsonValue::Null)) else {
        return "-".to_owned();
    };
    let mut out = p
        .get("component")
        .and_then(JsonValue::as_str)
        .unwrap_or("?")
        .to_owned();
    if let Some(table) = p.get("table").and_then(JsonValue::as_u64) {
        out.push_str(&format!(" T{table}"));
    }
    if let Some(ctr) = p.get("counter").and_then(JsonValue::as_f64) {
        out.push_str(&format!(" ctr={ctr}"));
    }
    if let Some(margin) = p.get("margin").and_then(JsonValue::as_f64) {
        out.push_str(&format!(" margin={margin}"));
    }
    if let Some(alt) = p.get("alternate").and_then(JsonValue::as_bool) {
        out.push_str(if alt { " alt=T" } else { " alt=N" });
    }
    if let Some(h) = p.get("history_len").and_then(JsonValue::as_u64) {
        out.push_str(&format!(" hist={h}"));
    }
    out
}

fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}");
    eprintln!(
        "usage: forensics --postmortem DUMP.json [DUMP.json...]\n\
        \x20      forensics --chrome-trace EVENTS.jsonl [--out TRACE.json]"
    );
    ExitCode::from(2)
}
