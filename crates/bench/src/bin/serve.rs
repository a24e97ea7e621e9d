//! `bfbp-serve`: the online prediction service. Binds a TCP address,
//! restores any persisted sessions from the checkpoint directory, and
//! serves the `bfbp-wire/1` protocol until a client sends `SHUTDOWN`
//! (graceful: every live session is persisted) or the process is
//! killed (crash recovery: a restart pointed at the same
//! `--checkpoint-dir` resumes sessions from their last cadence
//! checkpoint, exactly like the sweep engine's kill-resume story).
//!
//! ```sh
//! serve [--addr HOST:PORT] [--max-conns N]
//!       [--checkpoint-every N] [--checkpoint-dir DIR] [--events PATH]
//! ```
//!
//! Defaults: `--addr 127.0.0.1:0` (ephemeral port), `--max-conns 8`.
//! The bound address is announced on stdout as `listening on ADDR` —
//! parse that line to find an ephemeral port (the verify workflow and
//! `tests/serve.rs` both do). Accepts beyond `--max-conns` are
//! load-shed with a `RETRY` error frame rather than queued.
//!
//! Flags are parsed through `bfbp_bench::cli::Harness`, so
//! `--checkpoint-every` / `--checkpoint-dir` / `--events` spell and
//! behave exactly as they do in `sweep`; shared flags the server cannot
//! honor are rejected, not silently ignored. `--checkpoint-dir` alone
//! persists sessions on `CHECKPOINT` frames and at shutdown;
//! `--checkpoint-every` needs it.

use std::process::ExitCode;

use bfbp_bench::cli::Harness;
use bfbp_sim::service::{ServeOptions, Server};

fn main() -> ExitCode {
    let mut harness = Harness::from_env(1.0);
    let mut addr = "127.0.0.1:0".to_owned();
    let mut options = ServeOptions::default();

    let shared = ["--checkpoint-every", "--checkpoint-dir", "--events"];
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match harness.parse_flag(&shared, &arg, &mut args) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(e) => return usage(&e),
        }
        match arg.as_str() {
            "--addr" => match args.next() {
                Some(a) => addr = a,
                None => return usage("--addr needs HOST:PORT"),
            },
            "--max-conns" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => options.max_connections = n,
                _ => return usage("--max-conns needs a positive count"),
            },
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }
    if let Err(e) = harness.finish_flags() {
        return usage(&e);
    }
    options.checkpoint_every = harness.sweep.checkpoint_every;
    options.checkpoint_dir = harness.sweep.checkpoint_dir;
    options.events = harness.sweep.events;

    let server = match Server::bind(&addr, bfbp::default_registry(), options) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The machine-parseable announcement: `listening on 127.0.0.1:NNNN`.
    println!("listening on {}", server.local_addr());
    if server.restored_sessions() > 0 {
        println!("restored {} session(s)", server.restored_sessions());
    }
    match server.serve() {
        Ok(persisted) => {
            println!("shutdown: persisted {persisted} session(s)");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: serve loop: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}");
    eprintln!(
        "usage: serve [--addr HOST:PORT] [--max-conns N]\n\
        \x20            [--checkpoint-every N] [--checkpoint-dir DIR] [--events PATH]"
    );
    ExitCode::from(2)
}
