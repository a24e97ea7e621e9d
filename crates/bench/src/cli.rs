//! Settings from the command line and the environment, for the
//! experiment binaries.
//!
//! This is the one module of the workspace that reads the process
//! environment. Each binary's `main` builds one [`Harness`] from the
//! documented variables ([`Harness::from_env`]), lays the shared flags
//! over it ([`Harness::with_flags`]) and passes it down: the
//! experiments, the sweep engine, the suite runner and the tuner take
//! their settings as arguments and read no variable. A flag wins over
//! its variable.
//!
//! README's "Settings" table lists the variables and their flags.
//! Unset or malformed variables leave the defaults.
//!
//! [`CommonArgs`] parses the flags the binaries share, so they cannot
//! drift apart: each binary calls [`CommonArgs::try_consume`] first in
//! its flag loop and handles only its own flags when that returns
//! `Ok(false)`. Binaries that honor only some of the common flags call
//! [`CommonArgs::ensure_only`], so the rest fail loudly instead of
//! being silently ignored.

use std::path::PathBuf;
use std::time::Duration;

use bfbp_sim::engine::{RetryPolicy, SweepOptions};
use bfbp_sim::obs::EventJournal;
use bfbp_sim::runner::SuiteRunner;
use bfbp_trace::cache::TraceCache;
use bfbp_trace::synth::suite;

/// Usage text for the flags [`CommonArgs::try_consume`] understands,
/// for embedding in a binary's `usage:` message.
pub const COMMON_USAGE: &str = "\
common flags:
  --threads N          worker threads (0 = all cores)
  --retries N          re-attempts per failed job
  --backoff MS         delay between retry attempts
  --timeout MS         per-job wall-clock budget (0 = none)
  --journal PATH       checkpoint completed jobs to a journal
  --resume PATH        restore from a journal, re-running only missing
                       or failed jobs (keeps appending to it unless
                       --journal names another file)
  --checkpoint-every N snapshot each in-flight job's full state every N
                       trace records (requires --checkpoint-dir)
  --checkpoint-dir DIR directory for mid-job bfbp-ckpt/1 snapshots; a
                       re-run pointed here resumes interrupted jobs
                       mid-trace
  --metrics            collect per-job introspection metrics and H2P
  --metrics-out PATH   ... and write the bfbp-metrics/1 document here
  --events PATH        append the bfbp-events/1 span/event journal
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
        let num = |name: &str| lookup(name).and_then(|v| v.parse::<u64>().ok());
        let path = |name: &str| lookup(name).filter(|p| !p.is_empty()).map(PathBuf::from);
        let sweep = SweepOptions {
            retry: RetryPolicy::retries(
                num("BFBP_SWEEP_RETRIES").unwrap_or(0) as u32,
                Duration::from_millis(num("BFBP_SWEEP_BACKOFF_MS").unwrap_or(0)),
            ),
            timeout: num("BFBP_SWEEP_TIMEOUT_MS")
                .filter(|ms| *ms > 0)
                .map(Duration::from_millis),
            metrics: lookup("BFBP_SWEEP_METRICS").is_some_and(|v| !v.is_empty() && v != "0"),
            events: path("BFBP_SWEEP_EVENTS"),
            checkpoint_every: num("BFBP_SWEEP_CKPT_EVERY").unwrap_or(0),
            checkpoint_dir: path("BFBP_SWEEP_CKPT_DIR"),
            flight_recorder: num("BFBP_SWEEP_FLIGHT").unwrap_or(0) as usize,
            postmortem_dir: path("BFBP_SWEEP_FLIGHT_DIR"),
            ..SweepOptions::new()
        };
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
            sweep,
            cache,
            results_dir: lookup("BFBP_RESULTS_DIR")
                .map_or_else(|| PathBuf::from("target").join("results"), PathBuf::from),
        }
    }

    /// Overlays every given flag of `common` (fields left `None` keep
    /// what the variables set). `--trace-cache` selects the default
    /// cache location and `--no-trace-cache` disables the cache.
    pub fn with_flags(mut self, common: &CommonArgs) -> Self {
        common.apply_to(&mut self.sweep);
        if let Some(on) = common.trace_cache {
            self.cache = if on {
                TraceCache::default_location()
            } else {
                TraceCache::disabled()
            };
        }
        self
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

/// The engine-tuning flags shared by the experiment binaries. Every
/// field is optional so a binary can distinguish "flag given" from
/// "leave the variable or the built-in default alone".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommonArgs {
    /// `--threads N`.
    pub threads: Option<usize>,
    /// `--retries N` (re-attempts after the first try).
    pub retries: Option<u32>,
    /// `--backoff MS`.
    pub backoff_ms: Option<u64>,
    /// `--timeout MS`.
    pub timeout_ms: Option<u64>,
    /// `--journal PATH`.
    pub journal: Option<PathBuf>,
    /// `--resume PATH`.
    pub resume: Option<PathBuf>,
    /// `--checkpoint-every N` (mid-job snapshot cadence in records).
    pub checkpoint_every: Option<u64>,
    /// `--checkpoint-dir DIR`.
    pub checkpoint_dir: Option<PathBuf>,
    /// `--metrics` or `--metrics-out`.
    pub metrics: bool,
    /// `--metrics-out PATH` (where the binary writes the collected
    /// `bfbp-metrics/1` document; implies [`CommonArgs::metrics`]).
    pub metrics_out: Option<PathBuf>,
    /// `--events PATH` (also accepted as `--events-out`).
    pub events: Option<PathBuf>,
    /// `--flight-recorder N` (ring capacity in decisions).
    pub flight_recorder: Option<usize>,
    /// `--postmortem-dir DIR`.
    pub postmortem_dir: Option<PathBuf>,
    /// `--progress`.
    pub progress: bool,
    /// `--trace-cache` (`Some(true)`) or `--no-trace-cache`
    /// (`Some(false)`).
    pub trace_cache: Option<bool>,
}

impl CommonArgs {
    /// Consumes `arg` (and its value from `args`) when it is a common
    /// flag. Returns `Ok(true)` when consumed, `Ok(false)` when the
    /// binary should handle the argument itself, and `Err` with a
    /// user-facing message when a common flag's value is missing or
    /// malformed.
    pub fn try_consume(
        &mut self,
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

        match arg {
            "--threads" => self.threads = Some(number(args, arg, "a thread count")?),
            "--retries" => self.retries = Some(number(args, arg, "a count")?),
            "--backoff" => self.backoff_ms = Some(number(args, arg, "milliseconds")?),
            "--timeout" => self.timeout_ms = Some(number(args, arg, "milliseconds")?),
            "--journal" => self.journal = Some(value(args, arg, "a path")?.into()),
            "--resume" => self.resume = Some(value(args, arg, "a journal path")?.into()),
            "--checkpoint-every" => {
                self.checkpoint_every = Some(number(args, arg, "a record count")?);
            }
            "--checkpoint-dir" => {
                self.checkpoint_dir = Some(value(args, arg, "a directory")?.into());
            }
            "--metrics" => self.metrics = true,
            "--metrics-out" => {
                self.metrics = true;
                self.metrics_out = Some(value(args, arg, "a path")?.into());
            }
            "--events" | "--events-out" => self.events = Some(value(args, arg, "a path")?.into()),
            "--flight-recorder" => {
                self.flight_recorder = Some(number(args, arg, "a decision count")?);
            }
            "--postmortem-dir" => {
                self.postmortem_dir = Some(value(args, arg, "a directory")?.into());
            }
            "--progress" => self.progress = true,
            "--trace-cache" => self.trace_cache = Some(true),
            "--no-trace-cache" => self.trace_cache = Some(false),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Overlays every given engine flag on `options`; fields left
    /// `None` keep whatever `options` already holds. `--resume` also
    /// checkpoints to the resumed journal unless `--journal` names
    /// another file.
    fn apply_to(&self, options: &mut SweepOptions) {
        if let Some(n) = self.threads {
            options.threads = n;
        }
        if let Some(retries) = self.retries {
            options.retry.max_attempts = retries.saturating_add(1);
        }
        if let Some(ms) = self.backoff_ms {
            options.retry.backoff = Duration::from_millis(ms);
        }
        if let Some(ms) = self.timeout_ms {
            // 0 means no timeout, as in `BFBP_SWEEP_TIMEOUT_MS`.
            options.timeout = (ms > 0).then(|| Duration::from_millis(ms));
        }
        if let Some(path) = &self.resume {
            options.resume_from = Some(path.clone());
            options.journal = Some(path.clone());
        }
        if let Some(path) = &self.journal {
            options.journal = Some(path.clone());
        }
        if let Some(every) = self.checkpoint_every {
            options.checkpoint_every = every;
        }
        if let Some(dir) = &self.checkpoint_dir {
            options.checkpoint_dir = Some(dir.clone());
        }
        if self.metrics {
            options.metrics = true;
        }
        if let Some(path) = &self.events {
            options.events = Some(path.clone());
        }
        if let Some(capacity) = self.flight_recorder {
            options.flight_recorder = capacity;
        }
        if let Some(dir) = &self.postmortem_dir {
            options.postmortem_dir = Some(dir.clone());
        }
        if self.progress {
            options.progress = true;
        }
    }

    /// Rejects any given flag that `supported` does not list, for
    /// binaries that reuse the common parser but honor only some of its
    /// flags. `"--trace-cache"` in `supported` admits both spellings.
    pub fn ensure_only(&self, supported: &[&str]) -> Result<(), String> {
        let given = [
            (self.threads.is_some(), "--threads"),
            (self.retries.is_some(), "--retries"),
            (self.backoff_ms.is_some(), "--backoff"),
            (self.timeout_ms.is_some(), "--timeout"),
            (self.journal.is_some(), "--journal"),
            (self.resume.is_some(), "--resume"),
            (self.checkpoint_every.is_some(), "--checkpoint-every"),
            (self.checkpoint_dir.is_some(), "--checkpoint-dir"),
            (self.metrics, "--metrics"),
            (self.metrics_out.is_some(), "--metrics-out"),
            (self.events.is_some(), "--events"),
            (self.flight_recorder.is_some(), "--flight-recorder"),
            (self.postmortem_dir.is_some(), "--postmortem-dir"),
            (self.progress, "--progress"),
            (self.trace_cache.is_some(), "--trace-cache"),
        ];
        for (was_given, flag) in given {
            if was_given && !supported.contains(&flag) {
                let flag = match self.trace_cache {
                    Some(false) if flag == "--trace-cache" => "--no-trace-cache",
                    _ => flag,
                };
                return Err(format!("{flag} is not supported by this binary"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn consume_all(line: &[&str]) -> Result<(CommonArgs, Vec<String>), String> {
        let mut common = CommonArgs::default();
        let mut rest = Vec::new();
        let mut args = line.iter().map(|s| (*s).to_owned());
        while let Some(arg) = args.next() {
            if !common.try_consume(&arg, &mut args)? {
                rest.push(arg);
            }
        }
        Ok((common, rest))
    }

    #[test]
    fn consumes_common_flags_and_passes_through_the_rest() {
        let (common, rest) = consume_all(&[
            "--threads",
            "4",
            "--retries",
            "2",
            "--backoff",
            "10",
            "--timeout",
            "5000",
            "--journal",
            "j.jsonl",
            "--metrics-out",
            "m.json",
            "--events",
            "e.jsonl",
            "--progress",
            "--run",
            "night",
            "bf-tage",
        ])
        .unwrap();
        assert_eq!(common.threads, Some(4));
        assert_eq!(common.retries, Some(2));
        assert_eq!(common.backoff_ms, Some(10));
        assert_eq!(common.timeout_ms, Some(5000));
        assert_eq!(
            common.journal.as_deref(),
            Some(std::path::Path::new("j.jsonl"))
        );
        assert!(common.metrics);
        assert_eq!(
            common.metrics_out.as_deref(),
            Some(std::path::Path::new("m.json"))
        );
        assert_eq!(
            common.events.as_deref(),
            Some(std::path::Path::new("e.jsonl"))
        );
        assert!(common.progress);
        assert_eq!(rest, ["--run", "night", "bf-tage"]);
    }

    #[test]
    fn missing_or_malformed_values_are_user_facing_errors() {
        let cases: [(&[&str], &str); 7] = [
            (&["--threads"], "--threads needs a thread count"),
            (&["--timeout", "soon"], "--timeout needs milliseconds"),
            (&["--journal"], "--journal needs a path"),
            (
                &["--checkpoint-every", "soon"],
                "--checkpoint-every needs a record count",
            ),
            (&["--checkpoint-dir"], "--checkpoint-dir needs a directory"),
            (
                &["--flight-recorder", "many"],
                "--flight-recorder needs a decision count",
            ),
            (&["--postmortem-dir"], "--postmortem-dir needs a directory"),
        ];
        for (line, error) in cases {
            assert_eq!(consume_all(line).unwrap_err(), error);
        }
    }

    #[test]
    fn apply_to_overlays_only_given_flags() {
        let mut options = SweepOptions::default().with_threads(7);
        let (common, _) = consume_all(&["--retries", "3", "--backoff", "25"]).unwrap();
        common.apply_to(&mut options);
        assert_eq!(options.threads, 7, "untouched field must keep its value");
        assert_eq!(options.retry.max_attempts, 4);
        assert_eq!(options.retry.backoff, Duration::from_millis(25));
        assert_eq!(options.timeout, None);
        assert!(!options.metrics);
    }

    #[test]
    fn resume_checkpoints_to_the_resumed_journal_by_default() {
        let mut options = SweepOptions::default();
        let (common, _) = consume_all(&["--resume", "r.jsonl"]).unwrap();
        common.apply_to(&mut options);
        assert_eq!(
            options.resume_from.as_deref(),
            Some(std::path::Path::new("r.jsonl"))
        );
        assert_eq!(
            options.journal.as_deref(),
            Some(std::path::Path::new("r.jsonl"))
        );

        let mut options = SweepOptions::default();
        let (common, _) = consume_all(&["--resume", "r.jsonl", "--journal", "j.jsonl"]).unwrap();
        common.apply_to(&mut options);
        assert_eq!(
            options.journal.as_deref(),
            Some(std::path::Path::new("j.jsonl"))
        );
    }

    #[test]
    fn ensure_only_rejects_unsupported_flags() {
        let (common, _) = consume_all(&["--events", "e.jsonl", "--threads", "2"]).unwrap();
        assert!(common.ensure_only(&["--events", "--threads"]).is_ok());
        assert_eq!(
            common.ensure_only(&["--events"]).unwrap_err(),
            "--threads is not supported by this binary"
        );
        // Both cache spellings are one flag to `ensure_only`, and the
        // error names the one given.
        for (flag, on) in [("--trace-cache", true), ("--no-trace-cache", false)] {
            let (common, rest) = consume_all(&[flag]).unwrap();
            assert!(rest.is_empty());
            assert_eq!(common.trace_cache, Some(on));
            assert!(common.ensure_only(&["--trace-cache"]).is_ok());
            assert_eq!(
                common.ensure_only(&["--events"]).unwrap_err(),
                format!("{flag} is not supported by this binary")
            );
        }
    }

    /// The setting the documented variable `BFBP_<var>` controls,
    /// rendered (`-` for none).
    fn setting(h: &Harness, var: &str) -> String {
        let path = |p: Option<&std::path::Path>| p.map_or("-".into(), |p| p.display().to_string());
        match var {
            "TRACE_SCALE" => h.scale.to_string(),
            "RESULTS_DIR" => path(Some(&h.results_dir)),
            "TRACE_CACHE" => path(h.cache.dir()),
            "SWEEP_RETRIES" => h.sweep.retry.max_attempts.to_string(),
            "SWEEP_BACKOFF_MS" => h.sweep.retry.backoff.as_millis().to_string(),
            "SWEEP_TIMEOUT_MS" => h
                .sweep
                .timeout
                .map_or("-".into(), |t| t.as_millis().to_string()),
            "SWEEP_METRICS" => h.sweep.metrics.to_string(),
            "SWEEP_EVENTS" => path(h.sweep.events.as_deref()),
            "SWEEP_CKPT_EVERY" => h.sweep.checkpoint_every.to_string(),
            "SWEEP_CKPT_DIR" => path(h.sweep.checkpoint_dir.as_deref()),
            "SWEEP_FLIGHT" => h.sweep.flight_recorder.to_string(),
            "SWEEP_FLIGHT_DIR" => path(h.sweep.postmortem_dir.as_deref()),
            other => panic!("undocumented variable BFBP_{other}"),
        }
    }

    /// A harness with only `BFBP_<var>` set, to `value`.
    fn only(var: &str, value: &str) -> Harness {
        Harness::from_lookup(0.5, |name| {
            (name.strip_prefix("BFBP_") == Some(var)).then(|| value.to_owned())
        })
    }

    #[test]
    fn every_variable_takes_effect_and_its_flag_wins() {
        let unset = Harness::from_lookup(0.5, |_| None);
        assert_eq!(unset.scale, 0.5);
        assert_eq!(unset.sweep, SweepOptions::new());
        assert_eq!(unset.cache, TraceCache::default_location());
        assert_eq!(unset.results_dir, std::path::Path::new("target/results"));

        // (BFBP_<var>, its value, flags over it, the setting from the
        // variable, the setting after the flags)
        let default_cache = setting(&unset, "TRACE_CACHE");
        let cached = default_cache.as_str();
        let rows = [
            ("TRACE_SCALE", "0.25", "", "0.25", "0.25"),
            ("RESULTS_DIR", "out", "", "out", "out"),
            ("TRACE_CACHE", "c", "--no-trace-cache", "c", "-"),
            ("TRACE_CACHE", "0", "--trace-cache", "-", cached),
            ("TRACE_CACHE", "off", "--trace-cache", "-", cached),
            ("SWEEP_RETRIES", "2", "--retries 0", "3", "1"),
            ("SWEEP_BACKOFF_MS", "10", "--backoff 25", "10", "25"),
            ("SWEEP_TIMEOUT_MS", "50", "--timeout 250", "50", "250"),
            ("SWEEP_TIMEOUT_MS", "50", "--timeout 0", "50", "-"),
            ("SWEEP_METRICS", "0", "--metrics", "false", "true"),
            ("SWEEP_METRICS", "yes", "", "true", "true"),
            ("SWEEP_EVENTS", "e", "--events-out f", "e", "f"),
            ("SWEEP_CKPT_EVERY", "5", "--checkpoint-every 9", "5", "9"),
            ("SWEEP_CKPT_DIR", "c", "--checkpoint-dir d", "c", "d"),
            ("SWEEP_FLIGHT", "64", "--flight-recorder 8", "64", "8"),
            ("SWEEP_FLIGHT_DIR", "p", "--postmortem-dir q", "p", "q"),
        ];
        for (var, value, flags, from_var, from_flags) in rows {
            let harness = only(var, value);
            assert_eq!(setting(&harness, var), from_var, "BFBP_{var}={value}");
            let line: Vec<&str> = flags.split_whitespace().collect();
            let (common, rest) = consume_all(&line).unwrap();
            assert!(rest.is_empty());
            let harness = harness.with_flags(&common);
            assert_eq!(
                setting(&harness, var),
                from_flags,
                "BFBP_{var} under {flags}"
            );
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
            ("SWEEP_RETRIES", "many"),
            ("SWEEP_BACKOFF_MS", "-1"),
            ("SWEEP_TIMEOUT_MS", "0"),
            ("SWEEP_TIMEOUT_MS", "soon"),
            ("SWEEP_METRICS", ""),
            ("SWEEP_EVENTS", ""),
            ("SWEEP_CKPT_EVERY", "often"),
            ("SWEEP_CKPT_DIR", ""),
            ("SWEEP_FLIGHT", "1.5"),
            ("SWEEP_FLIGHT_DIR", ""),
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
        let (common, _) =
            consume_all(&["--events-out", events.to_str().unwrap(), "--no-trace-cache"]).unwrap();
        let runner = Harness::from_lookup(0.001, |_| None)
            .with_flags(&common)
            .suite_runner();
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
