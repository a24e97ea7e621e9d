//! Shared command-line parsing for the experiment binaries.
//!
//! `sweep`, `run_all`, `diagnose`, `forensics`, `serve`, and `loadgen`
//! accept an overlapping set of engine-tuning flags (threads, retries,
//! timeouts, journals, observability outputs, trace-cache control).
//! [`CommonArgs`] parses them once so the binaries cannot drift apart:
//! each binary calls [`CommonArgs::try_consume`] first in its flag loop
//! and handles only its own flags when that returns `Ok(false)`. The
//! collected values are then consumed one of three ways: built straight
//! into an in-process [`SweepOptions`] ([`SweepOptions::from_cli`] via
//! the [`FromCli`] extension, the `sweep` workflow), exported as the
//! `BFBP_SWEEP_*` environment variables the per-experiment sweeps read
//! ([`CommonArgs::export_env`], the `run_all` workflow), or read field
//! by field (the serve binaries). Binaries that honor only a few of the
//! common flags call [`CommonArgs::ensure_only`] so the rest fail
//! loudly instead of being silently ignored.

use std::path::PathBuf;
use std::time::Duration;

use bfbp_sim::engine::SweepOptions;

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

/// Handles `--trace-cache` / `--no-trace-cache` by exporting the
/// machine-wide `BFBP_TRACE_CACHE` knob every trace consumer reads;
/// returns whether `arg` was one of the two.
pub fn trace_cache_flag(arg: &str) -> bool {
    match arg {
        "--trace-cache" => std::env::set_var("BFBP_TRACE_CACHE", "1"),
        "--no-trace-cache" => std::env::set_var("BFBP_TRACE_CACHE", "0"),
        _ => return false,
    }
    true
}

/// The engine-tuning flags shared by the experiment binaries. Every
/// field is optional so a binary can distinguish "flag given" from
/// "leave the [`SweepOptions::from_env`] / built-in default alone".
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
            other => return Ok(trace_cache_flag(other)),
        }
        Ok(true)
    }

    /// Overlays every given flag on `options` (fields left `None` keep
    /// whatever `options` already holds, e.g. from
    /// [`SweepOptions::from_env`]). `--resume` also checkpoints to the
    /// resumed journal unless `--journal` names another file.
    pub fn apply_to(&self, options: &mut SweepOptions) {
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

    /// Rejects any given flag that `supported` does not list, with the
    /// same user-facing message [`CommonArgs::export_env`] uses — for
    /// binaries that reuse the common parser but honor only a few of
    /// its flags (`diagnose`, `forensics`, `serve`, `loadgen`).
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
        ];
        for (was_given, flag) in given {
            if was_given && !supported.contains(&flag) {
                return Err(format!("{flag} is not supported by this binary"));
            }
        }
        Ok(())
    }

    /// Exports the given flags as the `BFBP_SWEEP_*` environment
    /// variables that configure every sweep a child experiment runs
    /// (`run_all` hardens its whole campaign this way).
    ///
    /// # Errors
    ///
    /// Flags with no environment equivalent (`--threads`, `--journal`,
    /// `--resume`, `--metrics-out`, `--progress`) are rejected rather
    /// than silently dropped.
    pub fn export_env(&self) -> Result<(), String> {
        let unsupported = [
            (self.threads.is_some(), "--threads"),
            (self.journal.is_some(), "--journal"),
            (self.resume.is_some(), "--resume"),
            (self.metrics_out.is_some(), "--metrics-out"),
            (self.progress, "--progress"),
        ];
        for (given, flag) in unsupported {
            if given {
                return Err(format!("{flag} is not supported by this binary"));
            }
        }
        if let Some(retries) = self.retries {
            std::env::set_var("BFBP_SWEEP_RETRIES", retries.to_string());
        }
        if let Some(ms) = self.backoff_ms {
            std::env::set_var("BFBP_SWEEP_BACKOFF_MS", ms.to_string());
        }
        if let Some(ms) = self.timeout_ms {
            std::env::set_var("BFBP_SWEEP_TIMEOUT_MS", ms.to_string());
        }
        if self.metrics {
            std::env::set_var("BFBP_SWEEP_METRICS", "1");
        }
        if let Some(path) = &self.events {
            std::env::set_var("BFBP_SWEEP_EVENTS", path.as_os_str());
        }
        if let Some(every) = self.checkpoint_every {
            std::env::set_var("BFBP_SWEEP_CKPT_EVERY", every.to_string());
        }
        if let Some(dir) = &self.checkpoint_dir {
            std::env::set_var("BFBP_SWEEP_CKPT_DIR", dir.as_os_str());
        }
        if let Some(capacity) = self.flight_recorder {
            std::env::set_var("BFBP_SWEEP_FLIGHT", capacity.to_string());
        }
        if let Some(dir) = &self.postmortem_dir {
            std::env::set_var("BFBP_SWEEP_FLIGHT_DIR", dir.as_os_str());
        }
        Ok(())
    }
}

/// Extension constructor so `SweepOptions::from_cli(&common)` replaces
/// the `SweepOptions::from_env()` + `common.apply_to(&mut options)`
/// pair every binary used to spell by hand: environment defaults
/// first, parsed flags overlaid.
///
/// (An extension trait because inherent impls must live in the
/// defining crate — `SweepOptions` is `bfbp_sim`'s, `CommonArgs` is
/// ours.)
pub trait FromCli {
    /// Environment defaults overlaid with the parsed common flags.
    fn from_cli(common: &CommonArgs) -> Self;
}

impl FromCli for SweepOptions {
    fn from_cli(common: &CommonArgs) -> Self {
        let mut options = SweepOptions::from_env();
        common.apply_to(&mut options);
        options
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
        assert_eq!(
            consume_all(&["--threads"]).unwrap_err(),
            "--threads needs a thread count"
        );
        assert_eq!(
            consume_all(&["--timeout", "soon"]).unwrap_err(),
            "--timeout needs milliseconds"
        );
        assert_eq!(
            consume_all(&["--journal"]).unwrap_err(),
            "--journal needs a path"
        );
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
    fn timeout_zero_means_no_timeout() {
        let (common, _) = consume_all(&["--timeout", "250"]).unwrap();
        let mut options = SweepOptions::default();
        common.apply_to(&mut options);
        assert_eq!(options.timeout, Some(Duration::from_millis(250)));
        // `--timeout 0` clears a timeout the environment set, rather
        // than giving every job a zero budget.
        let (common, _) = consume_all(&["--timeout", "0"]).unwrap();
        common.apply_to(&mut options);
        assert_eq!(options.timeout, None);
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
    fn checkpoint_flags_apply_to_options() {
        let mut options = SweepOptions::default();
        let (common, rest) =
            consume_all(&["--checkpoint-every", "50000", "--checkpoint-dir", "ckpts"]).unwrap();
        assert!(rest.is_empty());
        common.apply_to(&mut options);
        assert_eq!(options.checkpoint_every, 50_000);
        assert_eq!(
            options.checkpoint_dir.as_deref(),
            Some(std::path::Path::new("ckpts"))
        );
        assert_eq!(
            consume_all(&["--checkpoint-every", "soon"]).unwrap_err(),
            "--checkpoint-every needs a record count"
        );
        assert_eq!(
            consume_all(&["--checkpoint-dir"]).unwrap_err(),
            "--checkpoint-dir needs a directory"
        );
    }

    #[test]
    fn flight_recorder_flags_apply_to_options() {
        let mut options = SweepOptions::default();
        let (common, rest) =
            consume_all(&["--flight-recorder", "256", "--postmortem-dir", "pm"]).unwrap();
        assert!(rest.is_empty());
        common.apply_to(&mut options);
        assert_eq!(options.flight_recorder, 256);
        assert_eq!(
            options.postmortem_dir.as_deref(),
            Some(std::path::Path::new("pm"))
        );
        assert_eq!(
            consume_all(&["--flight-recorder", "many"]).unwrap_err(),
            "--flight-recorder needs a decision count"
        );
        assert_eq!(
            consume_all(&["--postmortem-dir"]).unwrap_err(),
            "--postmortem-dir needs a directory"
        );
    }

    #[test]
    fn from_cli_overlays_flags_on_env_defaults() {
        let (common, _) = consume_all(&["--retries", "3", "--backoff", "25"]).unwrap();
        let options = SweepOptions::from_cli(&common);
        assert_eq!(options.retry.max_attempts, 4);
        assert_eq!(options.retry.backoff, Duration::from_millis(25));
    }

    #[test]
    fn ensure_only_rejects_unsupported_flags() {
        let (common, _) = consume_all(&["--events", "e.jsonl", "--threads", "2"]).unwrap();
        assert!(common.ensure_only(&["--events", "--threads"]).is_ok());
        assert_eq!(
            common.ensure_only(&["--events"]).unwrap_err(),
            "--threads is not supported by this binary"
        );
    }

    #[test]
    fn export_env_rejects_flags_without_env_equivalents() {
        let (common, _) = consume_all(&["--progress"]).unwrap();
        assert_eq!(
            common.export_env().unwrap_err(),
            "--progress is not supported by this binary"
        );
    }
}
