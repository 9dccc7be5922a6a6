//! `tta-campaign` — client CLI for the campaign service.
//!
//! Subcommands:
//!
//! * `submit` — submit a sweep and stream its deterministic NDJSON
//!   (`accepted`/`trial`/`summary` lines) to stdout or `--ndjson PATH`;
//!   the non-deterministic `stats` line goes to stderr. The streamed
//!   bytes are identical for a given spec at any worker count, across
//!   daemon kills and resumes — that is the service's core invariant.
//! * `status` / `ping` / `drain` / `shutdown` — daemon control.
//!   `status` reports drain state and per-job chunk/lease/quarantine
//!   detail; `drain` asks the daemon to finish leased chunks,
//!   checkpoint, and exit (same as SIGTERM).
//!
//! `submit` goes through the resilient client path: a dropped
//! connection is retried with exponential backoff and the stream
//! resumes idempotently — already-seen deterministic lines are skipped,
//! so the assembled output is byte-identical to an uninterrupted run.
//! The daemon's sweeps are timed by `exp_hotpaths` (`campaignd/*`
//! rows in `BENCH_hotpaths.json`).

use std::io::Write;
use std::path::PathBuf;
use tta_campaignd::client::{Client, ReconnectPolicy};
use tta_campaignd::spec::{
    parse_scenario, unknown_authority, unknown_topology, JobSpec, ScenarioSource,
};
use tta_guardian::CouplerAuthority;
use tta_protocol::RestartPolicy;
use tta_sim::Topology;

const USAGE: &str = "tta_campaign <submit|status|ping|drain|shutdown> [options]

  submit --scenario TOKEN | --scenario-file PATH
         [--socket PATH] [--nodes N] [--topology bus|star]
         [--authority passive|time_windows|small_shifting|full_shifting]
         [--policy never|immediate|bounded_retry:MAX,BACKOFF|watchdog:SLOTS]
         [--trials N] [--slots N] [--seed N] [--fault-duration N]
         [--workers N] [--ndjson PATH]
  status|ping|drain|shutdown [--socket PATH]";

fn die(why: &str) -> ! {
    eprintln!("error: {why}");
    eprintln!("usage: {USAGE}");
    std::process::exit(2);
}

fn parse_policy(token: &str) -> RestartPolicy {
    if token == "never" {
        return RestartPolicy::Never;
    }
    if token == "immediate" {
        return RestartPolicy::Immediate;
    }
    if let Some(rest) = token.strip_prefix("bounded_retry:") {
        if let Some((max, backoff)) = rest.split_once(',') {
            if let (Ok(max_restarts), Ok(backoff_slots)) = (max.parse(), backoff.parse()) {
                return RestartPolicy::BoundedRetry {
                    max_restarts,
                    backoff_slots,
                };
            }
        }
        die("bounded_retry needs MAX,BACKOFF");
    }
    if let Some(rest) = token.strip_prefix("watchdog:") {
        if let Ok(silence_slots) = rest.parse() {
            return RestartPolicy::Watchdog { silence_slots };
        }
        die("watchdog needs SLOTS");
    }
    die(&format!("unknown policy {token}"));
}

fn parse_u64(value: &str) -> Option<u64> {
    value.strip_prefix("0x").map_or_else(
        || value.parse().ok(),
        |hex| u64::from_str_radix(hex, 16).ok(),
    )
}

fn default_socket() -> PathBuf {
    PathBuf::from(".campaignd/daemon.sock")
}

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else {
        die("missing subcommand");
    };
    let rest: Vec<String> = args.collect();
    match command.as_str() {
        "submit" => submit(&rest),
        "status" => status(&rest),
        "ping" => {
            if Client::new(&control_socket(&rest)).ping() {
                println!("ok");
            } else {
                eprintln!("no daemon");
                std::process::exit(1);
            }
        }
        "drain" => {
            if let Err(e) = Client::new(&control_socket(&rest)).drain() {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        "shutdown" => {
            if let Err(e) = Client::new(&control_socket(&rest)).shutdown() {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        other => die(&format!("unknown subcommand {other}")),
    }
}

/// Parses the `--socket PATH` option the control subcommands share.
fn control_socket(rest: &[String]) -> PathBuf {
    let mut socket = default_socket();
    let mut iter = rest.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--socket" => match iter.next() {
                Some(path) => socket = PathBuf::from(path),
                None => die("--socket needs a path"),
            },
            other => die(&format!("unknown argument {other}")),
        }
    }
    socket
}

fn status(rest: &[String]) {
    match Client::new(&control_socket(rest)).status() {
        Ok(info) => {
            println!(
                "cache_entries {}\njobs_running {}\njobs_done {}\ndraining {}",
                info.cache_entries, info.jobs_running, info.jobs_done, info.draining
            );
            for job in &info.jobs {
                println!(
                    "job {}: chunks {}/{} done, {} leased, {} quarantined, {} workers",
                    job.job,
                    job.chunks_done,
                    job.chunks_total,
                    job.chunks_leased,
                    job.quarantined,
                    job.workers_active
                );
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// A deferred edit applied to the [`JobSpec`] once it exists (flags may
/// precede `--scenario`, which is what constructs the spec).
type SpecPatch = Box<dyn FnOnce(&mut JobSpec)>;

fn submit(rest: &[String]) {
    let mut socket = default_socket();
    let mut scenario: Option<ScenarioSource> = None;
    let mut spec_patch: Vec<SpecPatch> = Vec::new();
    let mut workers: Option<usize> = None;
    let mut ndjson: Option<PathBuf> = None;

    let mut iter = rest.iter();
    while let Some(arg) = iter.next() {
        let mut value = |what: &str| match iter.next() {
            Some(v) => v.clone(),
            None => die(&format!("{arg} needs {what}")),
        };
        match arg.as_str() {
            "--socket" => socket = PathBuf::from(value("a path")),
            "--scenario" => match parse_scenario(&value("a scenario token")) {
                Ok(s) => scenario = Some(ScenarioSource::Builtin(s)),
                Err(e) => die(&e.0),
            },
            "--scenario-file" => {
                scenario = Some(ScenarioSource::File(PathBuf::from(value("a path"))));
            }
            "--nodes" => match value("an integer").parse() {
                Ok(n) => spec_patch.push(Box::new(move |s| s.nodes = n)),
                Err(_) => die("--nodes needs an integer"),
            },
            "--topology" => {
                let token = value("bus|star");
                match Topology::from_token(&token) {
                    Some(t) => spec_patch.push(Box::new(move |s| s.topology = t)),
                    None => die(&unknown_topology(&token).0),
                }
            }
            "--authority" => {
                let token = value("an authority token");
                match CouplerAuthority::from_token(&token) {
                    Some(a) => spec_patch.push(Box::new(move |s| s.authority = a)),
                    None => die(&unknown_authority(&token).0),
                }
            }
            "--policy" => {
                let p = parse_policy(&value("a policy token"));
                spec_patch.push(Box::new(move |s| s.policy = p));
            }
            "--trials" => match value("an integer").parse() {
                Ok(n) => spec_patch.push(Box::new(move |s| s.trials = n)),
                Err(_) => die("--trials needs an integer"),
            },
            "--slots" => match value("an integer").parse() {
                Ok(n) => spec_patch.push(Box::new(move |s| s.slots = n)),
                Err(_) => die("--slots needs an integer"),
            },
            "--seed" => match parse_u64(&value("an integer")) {
                Some(n) => spec_patch.push(Box::new(move |s| s.seed = n)),
                None => die("--seed needs an integer (decimal or 0x hex)"),
            },
            "--fault-duration" => match value("an integer").parse() {
                Ok(n) => spec_patch.push(Box::new(move |s| s.fault_duration = Some(n))),
                Err(_) => die("--fault-duration needs an integer"),
            },
            "--workers" => match value("an integer").parse() {
                Ok(n) if n > 0 => workers = Some(n),
                _ => die("--workers needs a positive integer"),
            },
            "--ndjson" => ndjson = Some(PathBuf::from(value("a path"))),
            other => die(&format!("unknown argument {other}")),
        }
    }

    let Some(scenario) = scenario else {
        die("submit needs --scenario or --scenario-file");
    };
    let mut spec = JobSpec::new(scenario);
    for patch in spec_patch {
        patch(&mut spec);
    }

    let client = Client::new(&socket);
    let mut sink: Box<dyn Write> = match &ndjson {
        Some(path) => Box::new(std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("error: cannot create {}: {e}", path.display());
            std::process::exit(1);
        })),
        None => Box::new(std::io::stdout()),
    };
    let mut sink_failed = false;
    let result =
        client.submit_resilient(&spec, workers, &ReconnectPolicy::default(), &mut |line| {
            if !sink_failed && writeln!(sink, "{line}").is_err() {
                sink_failed = true;
            }
        });
    drop(sink);
    match result {
        Ok(result) => {
            if sink_failed {
                eprintln!("error: could not write the NDJSON stream");
                std::process::exit(1);
            }
            if let Some(path) = &ndjson {
                eprintln!("wrote {}", path.display());
            }
            eprintln!(
                "job {}: {} trials ({} computed, {} cache hits, {} resumed, {} quarantined)",
                result.job,
                result.trials.len(),
                result.stats.computed,
                result.stats.cache_hits,
                result.stats.resumed_trials,
                result.quarantined.len()
            );
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
