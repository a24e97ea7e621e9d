//! The `bench_check` gate over perfbench result documents: hard rules,
//! bounds that turn into notes when the fingerprint differs, errors for
//! documents that cannot be compared, and the choice of baseline.

use std::fs;
use std::path::{Path, PathBuf};

use bfbp::sim::json::{parse_json, JsonValue};
use bfbp_bench::gate::{check, compare, find_baseline, Finding, Status};

/// An untraced result document as perfbench writes it.
const DOC: &str = r#"{
  "host": {"nproc": "2", "cpu": "Test CPU", "rustc": "rustc 1.0", "commit": "aaaa"},
  "workload": "paper-sweep", "seed": 1, "seconds": 40.0, "trace": 0, "correct": true,
  "metrics": {
    "setup_s": {"value": 0.67, "unit": "s"},
    "records_per_s": {"value": 4000000.0, "unit": "records/s"},
    "decisions_per_s": {"value": 4000000.0, "unit": "decisions/s"},
    "rtt_p50_us": {"value": 7122146.2, "unit": "us"},
    "rtt_p99_us": {"value": 8772404.1, "unit": "us"},
    "mpki": {"value": 2.207589441845765, "unit": "MPKI"},
    "peak_rss_mb": {"value": 214.18, "unit": "MB"},
    "ok_frac": {"value": 1.0, "unit": "ratio"}
  }
}"#;

/// [`DOC`] with each `(from, to)` text replaced once.
fn doc(edits: &[(&str, &str)]) -> String {
    edits.iter().fold(DOC.to_owned(), |text, (from, to)| {
        assert!(text.contains(from), "{from:?} not in the document");
        text.replacen(from, to, 1)
    })
}

fn parse(text: &str) -> JsonValue {
    parse_json(text).expect("document parses")
}

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn benchmark() -> JsonValue {
    parse(&fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json"))
}

/// A result with `edits` compared with the unedited [`DOC`].
fn gate(edits: &[(&str, &str)]) -> Result<Vec<Finding>, String> {
    compare(&parse(&doc(edits)), &parse(DOC), &benchmark())
}

fn status(findings: &[Finding], subject: &str) -> Option<Status> {
    let prefix = format!("{subject}: ");
    findings
        .iter()
        .find(|(_, line)| line.starts_with(&prefix))
        .map(|f| f.0)
}

fn passed(findings: &[Finding]) -> bool {
    findings.iter().all(|f| f.0 != Status::Fail)
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bfbp-gate-{}-{name}", std::process::id()));
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

const SLOW: (&str, &str) = (
    "4000000.0, \"unit\": \"records/s\"",
    "2800000.0, \"unit\": \"records/s\"",
);

#[test]
fn identical_documents_pass() {
    let findings = gate(&[]).expect("comparable");
    assert!(findings.iter().all(|f| f.0 == Status::Ok), "{findings:?}");
    // `correct` and the eight end-to-end metrics of BENCHMARK.json.
    assert_eq!(findings.len(), 9);
}

#[test]
fn hard_rules_fail_whatever_the_fingerprint() {
    let cases = [
        ("correct", ("\"correct\": true", "\"correct\": false")),
        ("ok_frac", ("\"value\": 1.0", "\"value\": 0.99")),
        ("mpki", ("2.207589441845765", "2.207589441845766")),
        ("rtt_p99_us", ("\"rtt_p99_us\"", "\"rtt_p99\"")),
    ];
    for (subject, edit) in cases {
        for window in [("40.0", "40.0"), ("40.0", "2.0")] {
            let findings = gate(&[edit, window]).expect("comparable");
            assert_eq!(status(&findings, subject), Some(Status::Fail), "{subject}");
            assert!(!passed(&findings), "{subject}");
        }
    }
}

#[test]
fn a_bound_gates_on_an_equal_host_and_is_a_note_otherwise() {
    // records_per_s 30% lower than the baseline; its bound is 24%.
    for unchanged in [("aaaa", "aaaa"), ("aaaa", "bbbb")] {
        let findings = gate(&[SLOW, unchanged]).expect("comparable");
        assert_eq!(status(&findings, "records_per_s"), Some(Status::Fail));
        assert_eq!(status(&findings, "fingerprint"), None);
    }
    for differing in [("Test CPU", "Other CPU"), ("40.0", "2.0")] {
        let findings = gate(&[SLOW, differing]).expect("comparable");
        assert_eq!(status(&findings, "records_per_s"), Some(Status::Note));
        assert_eq!(status(&findings, "fingerprint"), Some(Status::Note));
        assert!(passed(&findings), "{findings:?}");
    }
    let within = (
        "4000000.0, \"unit\": \"records/s\"",
        "3200000.0, \"unit\": \"records/s\"",
    );
    assert!(passed(&gate(&[within]).expect("comparable")));
}

#[test]
fn incomparable_documents_are_errors() {
    for edit in [
        ("\"trace\": 0", "\"trace\": 1"),
        ("\"paper-sweep\"", "\"file-baselines\""),
        ("\"seed\": 1", "\"seed\": 2"),
    ] {
        assert!(gate(&[edit]).is_err(), "{edit:?}");
    }
}

#[test]
fn the_baseline_is_the_highest_pr_number_with_the_seed() {
    let dir = scratch("pick");
    let x = |seed: &str| doc(&[("\"paper-sweep\"", "\"x\""), ("\"seed\": 1", seed)]);
    fs::write(dir.join("BENCH_9-x.json"), x("\"seed\": 1")).unwrap();
    fs::write(dir.join("BENCH_17-x.json"), x("\"seed\": 1")).unwrap();
    fs::write(dir.join("BENCH_20-x.json"), x("\"seed\": 3")).unwrap();
    fs::write(dir.join("BENCH_30-y.json"), x("\"seed\": 1")).unwrap();

    let pick =
        |seed| find_baseline(&dir, "x", seed).map(|(path, _)| path.file_name().unwrap().to_owned());
    assert_eq!(pick(1).unwrap(), "BENCH_17-x.json");
    assert_eq!(pick(3).unwrap(), "BENCH_20-x.json");
    assert!(pick(2).is_err(), "no seed-2 baseline");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn check_reads_the_files_and_errs_on_a_missing_or_unreadable_one() {
    let dir = scratch("check");
    fs::copy(root().join("BENCHMARK.json"), dir.join("BENCHMARK.json")).unwrap();
    fs::write(dir.join("BENCH_16-paper-sweep.json"), DOC).unwrap();
    let result = dir.join("result.json");
    let gate_file = |text: &str| {
        fs::write(&result, text).unwrap();
        check(&dir, &result).map(|(_, findings)| passed(&findings))
    };
    assert_eq!(gate_file(DOC), Ok(true));
    assert_eq!(gate_file(&doc(&[SLOW])), Ok(false));
    assert!(gate_file(&doc(&[("\"seed\": 1", "\"seed\": 5")])).is_err());
    assert!(gate_file("{\"workload\": ").is_err());
    assert!(check(&dir, &dir.join("missing.json")).is_err());
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn committed_seed_1_baselines_are_correct_untraced_and_complete() {
    for workload in ["paper-sweep", "file-baselines"] {
        let (path, baseline) = find_baseline(root(), workload, 1).expect("a seed-1 baseline");
        let findings = compare(&baseline, &baseline, &benchmark()).expect("untraced");
        assert!(
            findings.iter().all(|f| f.0 == Status::Ok),
            "{path:?}: {findings:?}"
        );
    }
}
