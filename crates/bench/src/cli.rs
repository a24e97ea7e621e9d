//! Settings from the command line and the environment, for the
//! experiment binaries.
//!
//! This is the one module of the workspace that reads the process
//! environment. Each binary's `main` builds one [`Harness`] from the
//! three deployment variables ([`Harness::from_env`]), parses the shared
//! flags straight into it ([`Harness::parse_flag`]) and passes it down:
//! the experiments, the sweep engine, the suite runner and the tuner
//! take their settings as arguments and read no variable. Every sweep
//! setting is a flag.
//!
//! README's "Settings" table lists the variables and the flags. Unset
//! or malformed variables leave the defaults.
//!
//! Each binary names the shared flags it honors, and
//! [`Harness::parse_flag`] rejects any other shared flag as soon as it
//! reads it, so no binary silently ignores one. After the last argument
//! [`Harness::finish_flags`] points the journal at a resumed file and
//! rejects half a flag pair.

use std::path::{Path, PathBuf};
use std::time::Duration;

use bfbp_sim::engine::SweepOptions;
use bfbp_sim::obs::EventJournal;
use bfbp_sim::runner::SuiteRunner;
use bfbp_trace::cache::TraceCache;
use bfbp_trace::synth::suite;

/// Every shared flag, by its canonical spelling (`--events` also reads
/// as `--events-out`, and `--trace-cache` as `--no-trace-cache`).
/// `sweep` honors them all; each list below is a suffix of this one.
pub const SWEEP_FLAGS: &[&str] = &[
    "--journal",
    "--resume",
    "--metrics",
    "--threads",
    "--retries",
    "--backoff",
    "--timeout",
    "--checkpoint-every",
    "--checkpoint-dir",
    "--events",
    "--flight-recorder",
    "--postmortem-dir",
    "--progress",
    "--trace-cache",
];

/// The shared flags of `run_all`, `calibrate` and the figure binaries:
/// all but `--journal` and `--resume`, since one journal cannot serve a
/// campaign's many sweeps.
pub const CAMPAIGN_FLAGS: &[&str] = SWEEP_FLAGS.split_at(2).1;

/// The shared flags of `tune`: the campaign's but `--metrics`, since the
/// tuner writes no metrics document.
pub const TUNE_FLAGS: &[&str] = SWEEP_FLAGS.split_at(3).1;

/// Help for every shared flag, for embedding in a binary's `usage:`
/// message. A binary that takes fewer adds a line naming its list.
pub const FLAG_HELP: &str = "shared flags:
  --threads N          worker threads (0 = all cores)
  --retries N          re-attempts per failed job
  --backoff MS         delay between retry attempts
  --timeout MS         per-job wall-clock budget (0 = none)
  --journal PATH       journal every job that finishes ok
  --resume PATH        restore from a journal, re-running every job it
                       does not hold; the resumed run's journal (this
                       file unless --journal names another) starts with
                       every restored job
  --checkpoint-every N snapshot each in-flight job's full state every N
                       trace records (requires --checkpoint-dir)
  --checkpoint-dir DIR directory for mid-job bfbp-ckpt/1 snapshots; a
                       re-run pointed here resumes interrupted jobs
                       mid-trace
  --metrics            collect per-job introspection metrics and H2P
  --events PATH        append the bfbp-events/1 span/event journal
                       (also spelled --events-out)
  --flight-recorder N  keep the last N decisions per in-flight job for
                       postmortem dumps (requires --postmortem-dir)
  --postmortem-dir DIR directory for bfbp-postmortem/1 dumps written
                       when a job fails, times out, or is killed
  --progress           draw a live job-completion line on stderr
  --trace-cache | --no-trace-cache
                       force the content-addressed trace cache on/off";

/// Everything an experiment binary takes from its environment and its
/// shared flags: built once in `main` and passed down by reference.
#[derive(Debug, PartialEq)]
pub struct Harness {
    /// Trace-length scale factor (1.0 = the suite's default lengths).
    pub scale: f64,
    /// Options of every sweep the binary runs.
    pub sweep: SweepOptions,
    /// Where suite traces are served from.
    pub cache: TraceCache,
    /// Directory results documents are written to.
    pub results_dir: PathBuf,
}

impl Harness {
    /// Reads the variables of README's "Settings" table from the
    /// process environment; `default_scale` applies when
    /// `BFBP_TRACE_SCALE` is unset or malformed.
    pub fn from_env(default_scale: f64) -> Self {
        Self::from_lookup(default_scale, |name| std::env::var(name).ok())
    }

    /// [`Harness::from_env`] with the variables read through `lookup`,
    /// so tests can pin the environment instead of mutating the real
    /// (process-global) one.
    pub fn from_lookup(default_scale: f64, lookup: impl Fn(&str) -> Option<String>) -> Self {
        let cache = match lookup("BFBP_TRACE_CACHE").as_deref() {
            None | Some("" | "1" | "on") => TraceCache::default_location(),
            Some("0" | "off") => TraceCache::disabled(),
            Some(dir) => TraceCache::at(dir),
        };
        Self {
            scale: lookup("BFBP_TRACE_SCALE")
                .and_then(|v| v.parse::<f64>().ok())
                .filter(|v| *v > 0.0)
                .unwrap_or(default_scale),
            sweep: SweepOptions::new(),
            cache,
            results_dir: lookup("BFBP_RESULTS_DIR")
                .map_or_else(|| PathBuf::from("target").join("results"), PathBuf::from),
        }
    }

    /// Parses `arg`, and its value from `args`, into the harness when it
    /// is a shared flag. Returns `Ok(false)` for any other argument,
    /// which the binary handles itself, and `Err` with a user-facing
    /// message for a shared flag `supported` does not list or a missing
    /// or malformed value.
    pub fn parse_flag(
        &mut self,
        supported: &[&str],
        arg: &str,
        args: &mut dyn Iterator<Item = String>,
    ) -> Result<bool, String> {
        fn value(
            args: &mut dyn Iterator<Item = String>,
            flag: &str,
            what: &str,
        ) -> Result<String, String> {
            args.next()
                .filter(|v| !v.is_empty())
                .ok_or_else(|| format!("{flag} needs {what}"))
        }
        fn number<T: std::str::FromStr>(
            args: &mut dyn Iterator<Item = String>,
            flag: &str,
            what: &str,
        ) -> Result<T, String> {
            value(args, flag, what)?
                .parse()
                .map_err(|_| format!("{flag} needs {what}"))
        }

        let flag = match arg {
            "--events-out" => "--events",
            "--no-trace-cache" => "--trace-cache",
            _ => arg,
        };
        if !SWEEP_FLAGS.contains(&flag) {
            return Ok(false);
        }
        if !supported.contains(&flag) {
            return Err(format!("{arg} is not supported by this binary"));
        }
        let options = &mut self.sweep;
        match flag {
            "--threads" => options.threads = number(args, arg, "a thread count")?,
            "--retries" => {
                options.retry.max_attempts = number::<u32>(args, arg, "a count")?.saturating_add(1);
            }
            "--backoff" => {
                options.retry.backoff = Duration::from_millis(number(args, arg, "milliseconds")?);
            }
            "--timeout" => {
                // 0 means no timeout.
                let ms: u64 = number(args, arg, "milliseconds")?;
                options.timeout = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--journal" => options.journal = Some(value(args, arg, "a path")?.into()),
            "--resume" => options.resume_from = Some(value(args, arg, "a journal path")?.into()),
            "--checkpoint-every" => {
                options.checkpoint_every = number(args, arg, "a record count")?;
            }
            "--checkpoint-dir" => {
                options.checkpoint_dir = Some(value(args, arg, "a directory")?.into());
            }
            "--metrics" => options.metrics = true,
            "--events" => options.events = Some(value(args, arg, "a path")?.into()),
            "--flight-recorder" => {
                options.flight_recorder = number(args, arg, "a decision count")?;
            }
            "--postmortem-dir" => {
                options.postmortem_dir = Some(value(args, arg, "a directory")?.into());
            }
            "--progress" => options.progress = true,
            "--trace-cache" if arg == "--trace-cache" => {
                self.cache = TraceCache::default_location();
            }
            "--trace-cache" => self.cache = TraceCache::disabled(),
            _ => unreachable!("{flag} is a shared flag without an arm"),
        }
        Ok(true)
    }

    /// Completes the shared flags after the last argument. `--resume P`
    /// journals to P unless `--journal` named another file, before or
    /// after it. Half a flag pair is an error: a snapshot cadence
    /// without the directory the snapshots go to, or a flight recorder
    /// without the directory its dumps go to, would run and write
    /// nothing.
    pub fn finish_flags(&mut self) -> Result<(), String> {
        let options = &mut self.sweep;
        if options.journal.is_none() {
            options.journal.clone_from(&options.resume_from);
        }
        if options.checkpoint_every > 0 && options.checkpoint_dir.is_none() {
            Err("--checkpoint-every needs --checkpoint-dir".to_owned())
        } else if options.flight_recorder > 0 && options.postmortem_dir.is_none() {
            Err("--flight-recorder needs --postmortem-dir".to_owned())
        } else {
            Ok(())
        }
    }

    /// The 40-trace suite at [`Harness::scale`], served from
    /// [`Harness::cache`]. Each fetch is journaled as a `trace_cache`
    /// event to the sweep's events journal, when one is named.
    pub fn suite_runner(&self) -> SuiteRunner {
        let events = self
            .sweep
            .events
            .as_ref()
            .and_then(|path| EventJournal::open(path).ok());
        SuiteRunner::from_specs_cached(suite::suite(), self.scale, &self.cache, events.as_ref())
    }
}

/// The [`Harness`] of `run_all`, `calibrate` or a figure binary, from
/// the environment and a command line of the shared flags `supported`
/// lists ([`CAMPAIGN_FLAGS`] for a binary that sweeps) and the binary's
/// own `switches`, each of which is set to whether it was given. Any
/// other argument prints a usage error and exits 2.
pub fn campaign(
    default_scale: f64,
    supported: &[&str],
    switches: &mut [(&str, &mut bool)],
) -> Harness {
    let mut args = std::env::args();
    let bin = args.next().unwrap_or_default();
    let mut harness = Harness::from_env(default_scale);
    if let Err(e) = parse_campaign(&mut harness, supported, switches, &mut args) {
        let bin = Path::new(&bin).file_name().unwrap_or_default();
        let own: String = switches.iter().map(|(s, _)| format!(" [{s}]")).collect();
        eprintln!("error: {e}");
        eprintln!(
            "usage: {}{own} [shared flags]\n{FLAG_HELP}\nthis binary takes: {}",
            bin.to_string_lossy(),
            supported.join(" ")
        );
        std::process::exit(2);
    }
    harness
}

fn parse_campaign(
    harness: &mut Harness,
    supported: &[&str],
    switches: &mut [(&str, &mut bool)],
    args: &mut dyn Iterator<Item = String>,
) -> Result<(), String> {
    while let Some(arg) = args.next() {
        if harness.parse_flag(supported, &arg, args)? {
            continue;
        }
        match switches.iter_mut().find(|(s, _)| *s == arg) {
            Some((_, given)) => **given = true,
            None => return Err(format!("unknown argument {arg:?}")),
        }
    }
    harness.finish_flags()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unset() -> Harness {
        Harness::from_lookup(0.5, |_| None)
    }

    /// Parses the space-separated `line` into `harness`; returns the
    /// arguments left to the binary.
    fn parse_into(
        harness: &mut Harness,
        supported: &[&str],
        line: &str,
    ) -> Result<Vec<String>, String> {
        let mut rest = Vec::new();
        let mut args = line.split(' ').filter(|a| !a.is_empty()).map(str::to_owned);
        while let Some(arg) = args.next() {
            if !harness.parse_flag(supported, &arg, &mut args)? {
                rest.push(arg);
            }
        }
        Ok(rest)
    }

    /// `line` parsed and finished as `sweep` would, into a harness with
    /// no variable set.
    fn parse(line: &str) -> Result<Harness, String> {
        let mut harness = unset();
        let rest = parse_into(&mut harness, SWEEP_FLAGS, line)?;
        assert!(rest.is_empty(), "{rest:?}");
        harness.finish_flags()?;
        Ok(harness)
    }

    #[test]
    fn parses_shared_flags_and_passes_through_the_rest() {
        let mut harness = unset();
        harness.sweep.interval_insts = 7;
        let line = "--threads 4 --retries 2 --backoff 10 --timeout 5000 --journal j.jsonl \
                    --metrics --events e.jsonl --progress --run night bf-tage";
        let rest = parse_into(&mut harness, SWEEP_FLAGS, line).unwrap();
        let options = &harness.sweep;
        assert_eq!(options.threads, 4);
        assert_eq!(options.retry.max_attempts, 3);
        assert_eq!(options.retry.backoff, Duration::from_millis(10));
        assert_eq!(options.timeout, Some(Duration::from_millis(5000)));
        assert_eq!(options.journal.as_deref(), Some(Path::new("j.jsonl")));
        assert!(options.metrics);
        assert_eq!(options.events.as_deref(), Some(Path::new("e.jsonl")));
        assert!(options.progress);
        assert_eq!(options.interval_insts, 7, "no flag sets it");
        assert_eq!(options.checkpoint_dir, None);
        assert_eq!(rest, ["--run", "night", "bf-tage"]);
    }

    #[test]
    fn missing_or_malformed_values_are_user_facing_errors() {
        let cases = [
            ("--threads", "--threads needs a thread count"),
            ("--timeout soon", "--timeout needs milliseconds"),
            ("--journal", "--journal needs a path"),
            (
                "--checkpoint-every soon",
                "--checkpoint-every needs a record count",
            ),
            ("--checkpoint-dir", "--checkpoint-dir needs a directory"),
            (
                "--flight-recorder many",
                "--flight-recorder needs a decision count",
            ),
            ("--postmortem-dir", "--postmortem-dir needs a directory"),
        ];
        for (line, error) in cases {
            assert_eq!(parse(line).unwrap_err(), error);
        }
    }

    #[test]
    fn resume_journals_to_the_resumed_journal_unless_journal_names_another() {
        // (flags, the journal written); every row resumes from r.
        let rows = [
            ("--resume r", "r"),
            ("--resume r --journal j", "j"),
            ("--journal j --resume r", "j"),
            ("--resume q --resume r", "r"),
            ("--resume q --journal q --resume r", "q"),
            ("--journal q --resume q --resume r", "q"),
        ];
        for (line, journal) in rows {
            let options = parse(line).unwrap().sweep;
            assert_eq!(
                options.resume_from.as_deref(),
                Some(Path::new("r")),
                "{line}"
            );
            assert_eq!(
                options.journal.as_deref(),
                Some(Path::new(journal)),
                "{line}"
            );
        }
    }

    #[test]
    fn unsupported_shared_flags_are_rejected_as_they_are_read() {
        let only = |supported: &[&str], line| parse_into(&mut unset(), supported, line);
        let line = "--events e.jsonl --threads 2";
        assert!(only(&["--events", "--threads"], line).is_ok());
        // Rejected before its value is read, so both lines fail alike.
        for line in [line, "--threads"] {
            assert_eq!(
                only(&["--events"], line).unwrap_err(),
                "--threads is not supported by this binary"
            );
        }
        // Both spellings of the cache and events flags are one flag to
        // the supported list, and the error names the one given.
        for (line, listed, given) in [
            ("--trace-cache", "--trace-cache", "--trace-cache"),
            ("--no-trace-cache", "--trace-cache", "--no-trace-cache"),
            ("--events-out e", "--events", "--events-out"),
        ] {
            assert!(only(&[listed], line).is_ok(), "{line}");
            let error = format!("{given} is not supported by this binary");
            assert_eq!(only(&["--metrics"], line).unwrap_err(), error);
        }
    }

    #[test]
    fn half_a_flag_pair_is_an_error() {
        let every = "--checkpoint-every needs --checkpoint-dir";
        let recorder = "--flight-recorder needs --postmortem-dir";
        let rows = [
            ("--checkpoint-every 5", Err(every)),
            ("--checkpoint-every 5 --checkpoint-dir d", Ok(())),
            ("--checkpoint-dir d", Ok(())),
            ("--checkpoint-every 0", Ok(())),
            ("--flight-recorder 8", Err(recorder)),
            ("--postmortem-dir p --flight-recorder 8", Ok(())),
            ("--postmortem-dir p", Ok(())),
        ];
        for (line, expected) in rows {
            let checked = parse(line).map(|_| ());
            assert_eq!(checked, expected.map_err(str::to_owned), "{line}");
        }
    }

    #[test]
    fn campaigns_take_their_flags_and_switches_and_nothing_else() {
        let run = |supported: &[&str], line: &str| {
            let (mut harness, mut budget32) = (unset(), false);
            let mut args = line.split(' ').map(str::to_owned);
            parse_campaign(
                &mut harness,
                supported,
                &mut [("--budget32", &mut budget32)],
                &mut args,
            )
            .map(|()| (harness, budget32))
        };
        let campaign = |line: &str| run(CAMPAIGN_FLAGS, line);
        let (harness, budget32) = campaign("--threads 2 --progress").unwrap();
        assert_eq!(
            (harness.sweep.threads, harness.sweep.progress, budget32),
            (2, true, false)
        );
        assert!(campaign("--budget32").unwrap().1);
        for (line, error) in [
            ("--bogus", "unknown argument \"--bogus\""),
            ("--retries x", "--retries needs a count"),
            ("--resume r", "--resume is not supported by this binary"),
            (
                "--flight-recorder 8",
                "--flight-recorder needs --postmortem-dir",
            ),
        ] {
            assert_eq!(campaign(line).unwrap_err(), error);
        }
        assert!(!TUNE_FLAGS.contains(&"--metrics") && CAMPAIGN_FLAGS.contains(&"--metrics"));
        // A figure binary that runs no sweep takes only what it honors.
        let fetches_only = ["--trace-cache"];
        assert!(run(&fetches_only, "--no-trace-cache --budget32").is_ok());
        assert_eq!(
            run(&fetches_only, "--threads 8").unwrap_err(),
            "--threads is not supported by this binary"
        );
    }

    /// The setting named `name`, rendered (`-` for none).
    fn setting(h: &Harness, name: &str) -> String {
        let path = |p: Option<&Path>| p.map_or("-".into(), |p| p.display().to_string());
        let options = &h.sweep;
        match name {
            "scale" => h.scale.to_string(),
            "results_dir" => path(Some(&h.results_dir)),
            "cache" => path(h.cache.dir()),
            "attempts" => options.retry.max_attempts.to_string(),
            "backoff" => options.retry.backoff.as_millis().to_string(),
            "timeout" => options
                .timeout
                .map_or("-".into(), |t| t.as_millis().to_string()),
            "metrics" => options.metrics.to_string(),
            "events" => path(options.events.as_deref()),
            "checkpoint_every" => options.checkpoint_every.to_string(),
            "checkpoint_dir" => path(options.checkpoint_dir.as_deref()),
            "flight_recorder" => options.flight_recorder.to_string(),
            "postmortem_dir" => path(options.postmortem_dir.as_deref()),
            other => panic!("no setting {other}"),
        }
    }

    /// A harness with only `BFBP_<var>` set, to `value`.
    fn only(var: &str, value: &str) -> Harness {
        Harness::from_lookup(0.5, |name| {
            (name.strip_prefix("BFBP_") == Some(var)).then(|| value.to_owned())
        })
    }

    #[test]
    fn every_variable_and_flag_takes_effect() {
        let asked = std::cell::RefCell::new(Vec::new());
        let unset = Harness::from_lookup(0.5, |name| {
            asked.borrow_mut().push(name.to_owned());
            None
        });
        asked.borrow_mut().sort();
        let variables = ["BFBP_RESULTS_DIR", "BFBP_TRACE_CACHE", "BFBP_TRACE_SCALE"];
        assert_eq!(*asked.borrow(), variables);
        assert_eq!(unset.scale, 0.5);
        assert_eq!(unset.sweep, SweepOptions::new());
        assert_eq!(unset.cache, TraceCache::default_location());
        assert_eq!(unset.results_dir, Path::new("target/results"));

        // (BFBP_<var>=value or nothing, flags, setting, its value)
        let default_cache = setting(&unset, "cache");
        let cached = default_cache.as_str();
        let rows = [
            ("TRACE_SCALE=0.25", "", "scale", "0.25"),
            ("RESULTS_DIR=out", "", "results_dir", "out"),
            ("TRACE_CACHE=c", "", "cache", "c"),
            ("TRACE_CACHE=c", "--no-trace-cache", "cache", "-"),
            ("TRACE_CACHE=0", "", "cache", "-"),
            ("TRACE_CACHE=0", "--trace-cache", "cache", cached),
            ("TRACE_CACHE=off", "--trace-cache", "cache", cached),
            ("", "--retries 2", "attempts", "3"),
            ("", "--retries 2 --retries 0", "attempts", "1"),
            ("", "--backoff 25", "backoff", "25"),
            ("", "--timeout 250", "timeout", "250"),
            ("", "--timeout 250 --timeout 0", "timeout", "-"),
            ("", "--metrics", "metrics", "true"),
            ("", "--events-out f", "events", "f"),
            ("", "--events f", "events", "f"),
            ("", "--checkpoint-every 9", "checkpoint_every", "9"),
            ("", "--checkpoint-dir d", "checkpoint_dir", "d"),
            ("", "--flight-recorder 8", "flight_recorder", "8"),
            ("", "--postmortem-dir q", "postmortem_dir", "q"),
        ];
        for (variable, flags, name, expected) in rows {
            let (var, value) = variable.split_once('=').unwrap_or_default();
            let mut harness = only(var, value);
            assert!(parse_into(&mut harness, SWEEP_FLAGS, flags)
                .unwrap()
                .is_empty());
            assert_eq!(setting(&harness, name), expected, "BFBP_{variable} {flags}");
        }

        // Malformed numbers, empty paths and the cache's "on" spellings
        // leave the defaults.
        let ignored = [
            ("TRACE_SCALE", "0"),
            ("TRACE_SCALE", "-1"),
            ("TRACE_SCALE", "zoom"),
            ("TRACE_CACHE", ""),
            ("TRACE_CACHE", "1"),
            ("TRACE_CACHE", "on"),
        ];
        for (var, value) in ignored {
            assert_eq!(only(var, value), unset, "BFBP_{var}={value:?}");
        }
    }

    #[test]
    fn suite_runner_journals_every_fetch_to_the_flagged_events_file() {
        let events =
            std::env::temp_dir().join(format!("bfbp-cli-events-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&events);
        let mut harness = Harness::from_lookup(0.001, |_| None);
        let mut path = std::iter::once(events.display().to_string());
        assert_eq!(
            harness.parse_flag(SWEEP_FLAGS, "--events-out", &mut path),
            Ok(true)
        );
        assert_eq!(
            parse_into(&mut harness, SWEEP_FLAGS, "--no-trace-cache"),
            Ok(vec![])
        );
        let runner = harness.suite_runner();
        assert_eq!(runner.traces().len(), 40);
        let journal = std::fs::read_to_string(&events).unwrap();
        let fetches = journal
            .lines()
            .filter(|line| line.contains("\"ev\": \"trace_cache\""))
            .count();
        assert_eq!(fetches, 40);
        let _ = std::fs::remove_file(&events);
    }
}
