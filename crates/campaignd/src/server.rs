//! The daemon: a Unix-socket accept loop dispatching one request per
//! connection.
//!
//! Threading model: one OS thread per connection (jobs are minutes of
//! CPU-bound simulation behind a local socket — connection scaling is
//! not the bottleneck, worker scaling is). A `submit` handler runs the
//! sharded [`crate::runner`] inside its own thread scope; the control
//! ops answer inline. All connections share one daemon-wide
//! result [`Cache`] and one journal directory, with a per-job lock so
//! two concurrent submissions of the *same* job cannot interleave
//! appends in one journal file.
//!
//! Shutdown is cooperative: the `shutdown` op (or
//! [`ServerHandle::shutdown`]) raises a stop flag; in-flight jobs are
//! cancelled at their next chunk boundary, which — by the resumability
//! invariant — loses no journaled work. The `drain` op is the graceful
//! variant (what the binary maps SIGTERM to): new submissions are
//! refused with a *retryable* error, running jobs finish their leased
//! chunks and checkpoint, and the accept loop exits once the last job
//! has stopped. The accept loop polls with a short timeout rather than
//! blocking forever, so drain completion is observed without needing a
//! wake-up connection.

use crate::cache::Cache;
use crate::chaos::ChaosPlan;
use crate::hash::to_hex;
use crate::journal::Journal;
use crate::protocol::{
    accepted_line, error_line, ok_line, parse_request, retryable_error_line, stats_line,
    status_line, summary_line, trial_line, JobStatus, Request,
};
use crate::runner::{
    run, CrashPlan, JobProgress, RunConfig, RunHandles, Supervision, TrialVerdict,
};
use crate::spec::ResolvedJob;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How often the accept loop polls for connections and drain/stop
/// progress.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Socket path to listen on.
    pub socket: PathBuf,
    /// State directory (journals under `jobs/`, cache under `cache/`).
    pub state_dir: PathBuf,
    /// Default worker count for jobs that don't override it.
    pub workers: usize,
    /// Base directory against which relative scenario paths resolve.
    pub base_dir: PathBuf,
    /// Debug crash hook (`--crash-after-chunks`).
    pub crash: CrashPlan,
    /// Trial supervision parameters (`--trial-deadline-ms`, retry
    /// budget).
    pub supervision: Supervision,
    /// Failure injection (`--chaos`); default injects nothing.
    pub chaos: ChaosPlan,
}

impl ServerConfig {
    /// A config rooted at `state_dir`, listening on
    /// `<state_dir>/daemon.sock`, with one worker per available core.
    #[must_use]
    pub fn at(state_dir: &Path) -> ServerConfig {
        ServerConfig {
            socket: state_dir.join("daemon.sock"),
            state_dir: state_dir.to_path_buf(),
            workers: tta_base::default_threads(),
            base_dir: std::env::current_dir().unwrap_or_else(|_| PathBuf::from(".")),
            crash: CrashPlan::default(),
            supervision: Supervision::default(),
            chaos: ChaosPlan::default(),
        }
    }
}

#[derive(Debug)]
struct ServerState {
    config: ServerConfig,
    cache: Cache,
    /// Stop/drain flags. Relaxed ordering throughout: each is a latch
    /// that only ever goes false→true, polled at loop boundaries — a
    /// handler observing it one iteration late is indistinguishable
    /// from the signal arriving one iteration later.
    stop: AtomicBool,
    /// See [`ServerState::stop`] for the Relaxed-latch rationale.
    drain: AtomicBool,
    /// Monotone counters bumped by handler threads, read only for
    /// status/stats lines — Relaxed: no other data is published under
    /// them, and a slightly stale count is fine for reporting.
    appends: AtomicU64,
    /// See [`ServerState::appends`] — Relaxed monotone counter.
    jobs_done: AtomicU64,
    /// Live progress of running jobs, keyed by job hash. Doubles as the
    /// duplicate-submission guard.
    running: Mutex<HashMap<u64, Arc<JobProgress>>>,
    /// Trial lines streamed by this process (all jobs), for the chaos
    /// `drop=N` trigger. Relaxed monotone counter: the chaos trigger
    /// only needs "roughly the Nth line", not a total order.
    trial_lines: AtomicU64,
    /// Whether the chaos connection drop has already fired (once per
    /// process). Relaxed + `compare_exchange`-free: double-firing is
    /// harmless (the second drop hits an already-dropped stream).
    drop_fired: AtomicBool,
}

/// A running daemon (in-process or the `tta_campaignd` binary's core).
#[derive(Debug)]
pub struct Server {
    state: Arc<ServerState>,
    listener: UnixListener,
}

/// Handle to a daemon spawned in-process with [`Server::spawn`]:
/// the `--daemon`-without-a-socket convenience used by the bench bins
/// and tests.
#[derive(Debug)]
pub struct ServerHandle {
    socket: PathBuf,
    state: Arc<ServerState>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The socket the daemon listens on.
    #[must_use]
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// Stops the daemon and waits for it to wind down.
    pub fn shutdown(mut self) {
        self.state.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.thread.is_some() {
            self.state.stop.store(true, Ordering::Relaxed);
            if let Some(thread) = self.thread.take() {
                let _ = thread.join();
            }
        }
    }
}

impl Server {
    /// Binds the socket and opens the state directory (creating both as
    /// needed). A stale socket file from a dead daemon is detected by a
    /// probe connection and replaced; a *live* daemon on the socket is
    /// an error.
    ///
    /// # Errors
    ///
    /// Propagates bind/cache I/O errors; refuses a socket another
    /// daemon is actively serving.
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        std::fs::create_dir_all(&config.state_dir)?;
        if let Some(parent) = config.socket.parent() {
            std::fs::create_dir_all(parent)?;
        }
        if config.socket.exists() {
            match UnixStream::connect(&config.socket) {
                Ok(_) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::AddrInUse,
                        format!("a daemon already listens on {}", config.socket.display()),
                    ));
                }
                Err(_) => std::fs::remove_file(&config.socket)?,
            }
        }
        let cache = Cache::open(&config.state_dir.join("cache"))?;
        let listener = UnixListener::bind(&config.socket)?;
        Ok(Server {
            state: Arc::new(ServerState {
                config,
                cache,
                stop: AtomicBool::new(false),
                drain: AtomicBool::new(false),
                appends: AtomicU64::new(0),
                jobs_done: AtomicU64::new(0),
                running: Mutex::new(HashMap::new()),
                trial_lines: AtomicU64::new(0),
                drop_fired: AtomicBool::new(false),
            }),
            listener,
        })
    }

    /// Raises this daemon's drain flag (as the SIGTERM handler in the
    /// binary does): running jobs stop at their next chunk boundary
    /// with their journals checkpointed, new jobs are refused, and
    /// [`Server::serve`] returns once the last job has stopped.
    pub fn begin_drain(&self) {
        begin_drain(&self.state);
    }

    /// Runs the accept loop on the calling thread until a `shutdown`
    /// request stops it — or a `drain` request (or SIGTERM in the
    /// binary) has been observed *and* every running job has wound
    /// down. Joins every connection handler before returning.
    ///
    /// # Errors
    ///
    /// Propagates accept errors other than interruption.
    pub fn serve(self) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            if self.state.stop.load(Ordering::Relaxed) {
                break;
            }
            if self.state.drain.load(Ordering::Relaxed) {
                let jobs_running = !self.state.running.lock().expect("running set").is_empty();
                let handlers_live = handlers.iter().any(|h| !h.is_finished());
                if !jobs_running && !handlers_live {
                    break;
                }
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    // The accepted stream inherits the listener's
                    // nonblocking mode on some platforms; handlers want
                    // plain blocking I/O.
                    let _ = stream.set_nonblocking(false);
                    let state = Arc::clone(&self.state);
                    handlers.push(std::thread::spawn(move || handle(&state, stream)));
                    handlers.retain(|h| !h.is_finished());
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        for handler in handlers {
            let _ = handler.join();
        }
        let _ = std::fs::remove_file(&self.state.config.socket);
        Ok(())
    }

    /// Binds and serves on a background thread, returning a handle.
    /// This is how `--daemon` without an explicit socket works: the
    /// bench bins spin up a private in-process daemon, route the
    /// experiment through it, and tear it down.
    ///
    /// # Errors
    ///
    /// Propagates [`Server::bind`] errors.
    pub fn spawn(config: ServerConfig) -> std::io::Result<ServerHandle> {
        let server = Server::bind(config)?;
        let socket = server.state.config.socket.clone();
        let state = Arc::clone(&server.state);
        let thread = std::thread::spawn(move || {
            let _ = server.serve();
        });
        Ok(ServerHandle {
            socket,
            state,
            thread: Some(thread),
        })
    }
}

fn begin_drain(state: &ServerState) {
    state.drain.store(true, Ordering::Relaxed);
}

fn handle(state: &ServerState, stream: UnixStream) {
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    });
    let mut writer = stream;
    let mut line = String::new();
    if reader.read_line(&mut line).is_err() || line.trim().is_empty() {
        return;
    }
    let request = match parse_request(line.trim_end()) {
        Ok(request) => request,
        Err(e) => {
            let _ = writeln!(writer, "{}", error_line(&e.0));
            return;
        }
    };
    match request {
        Request::Ping => {
            let _ = writeln!(writer, "{}", ok_line());
        }
        Request::Status => {
            let (running, jobs) = {
                let running = state.running.lock().expect("running set");
                // Snapshot in job-hash order: the map's own iteration
                // order varies per process, and a status line that
                // lists jobs differently on every call is noise to
                // diff-based tooling.
                let mut hashes: Vec<u64> = running.keys().copied().collect();
                hashes.sort_unstable();
                let jobs: Vec<JobStatus> = hashes
                    .iter()
                    .map(|hash| JobStatus::snapshot(&to_hex(*hash), &running[hash]))
                    .collect();
                (running.len(), jobs)
            };
            let _ = writeln!(
                writer,
                "{}",
                status_line(
                    state.cache.len(),
                    running,
                    state.jobs_done.load(Ordering::Relaxed),
                    state.drain.load(Ordering::Relaxed),
                    &jobs,
                )
            );
        }
        Request::Drain => {
            begin_drain(state);
            let _ = writeln!(writer, "{}", ok_line());
        }
        Request::Shutdown => {
            state.stop.store(true, Ordering::Relaxed);
            let _ = writeln!(writer, "{}", ok_line());
        }
        Request::Submit { spec, workers } => {
            submit(state, &mut writer, spec, workers);
        }
    }
}

fn submit(
    state: &ServerState,
    writer: &mut UnixStream,
    spec: crate::spec::JobSpec,
    workers: Option<usize>,
) {
    if state.drain.load(Ordering::Relaxed) {
        let _ = writeln!(
            writer,
            "{}",
            retryable_error_line("daemon is draining; resubmit to a fresh daemon")
        );
        return;
    }
    let job = match ResolvedJob::resolve(spec, &state.config.base_dir) {
        Ok(job) => job,
        Err(e) => {
            let _ = writeln!(writer, "{}", error_line(&e.0));
            return;
        }
    };
    let progress = Arc::new(JobProgress::default());
    {
        let mut running = state.running.lock().expect("running set");
        if running.contains_key(&job.job_hash) {
            // Transient by nature — the other submission will finish
            // (or die), after which a resubmit resumes from its
            // journal.
            let _ = writeln!(
                writer,
                "{}",
                retryable_error_line(&format!(
                    "job {} is already running; resubmit to resume",
                    job.job_id()
                ))
            );
            return;
        }
        running.insert(job.job_hash, Arc::clone(&progress));
    }
    let result = stream_job(state, writer, &job, workers, &progress);
    state
        .running
        .lock()
        .expect("running set")
        .remove(&job.job_hash);
    match result {
        Ok(()) => {
            state.jobs_done.fetch_add(1, Ordering::Relaxed);
        }
        Err(e) => {
            let _ = writeln!(writer, "{}", error_line(&e.to_string()));
        }
    }
}

fn stream_job(
    state: &ServerState,
    writer: &mut UnixStream,
    job: &ResolvedJob,
    workers: Option<usize>,
    progress: &Arc<JobProgress>,
) -> std::io::Result<()> {
    let journal_path = state
        .config
        .state_dir
        .join("jobs")
        .join(format!("{}.journal", job.job_id()));
    let mut journal = Journal::open(&journal_path, job.job_hash)?;
    let trials = job.exec.effective_trials();
    writeln!(writer, "{}", accepted_line(&job.job_id(), trials))?;

    let config = RunConfig {
        workers: workers.unwrap_or(state.config.workers),
        supervision: state.config.supervision,
        chaos: state.config.chaos,
        crash: state.config.crash,
    };
    // A client hangup (or daemon shutdown/drain) cancels at the next
    // chunk boundary; journaled chunks survive for the resume.
    // Relaxed: a pure latch — workers may see it an iteration late,
    // which only delays the (already asynchronous) cancellation.
    let cancel = AtomicBool::new(false);
    let mut emit_failed = false;
    let outcome = {
        let mut emit = |verdict: &TrialVerdict| {
            if emit_failed {
                return;
            }
            if state.stop.load(Ordering::Relaxed) || state.drain.load(Ordering::Relaxed) {
                cancel.store(true, Ordering::Relaxed);
            }
            if writeln!(writer, "{}", trial_line(verdict)).is_err() {
                emit_failed = true;
                cancel.store(true, Ordering::Relaxed);
                return;
            }
            let streamed = state.trial_lines.fetch_add(1, Ordering::Relaxed) + 1;
            if let Some(limit) = state.config.chaos.drop_after {
                if streamed >= limit && !state.drop_fired.swap(true, Ordering::Relaxed) {
                    // Chaos: sever the connection mid-stream, once per
                    // process. The next emit fails and cancels the run
                    // at its chunk boundary — exactly a flaky client.
                    let _ = writer.shutdown(std::net::Shutdown::Both);
                }
            }
        };
        run(
            job,
            &mut journal,
            &state.cache,
            &config,
            RunHandles {
                appends_so_far: &state.appends,
                cancel: &cancel,
                progress: Some(progress),
            },
            &mut emit,
        )?
    };
    if outcome.complete && !emit_failed {
        let quarantined = outcome
            .verdicts
            .iter()
            .filter(|v| matches!(v, TrialVerdict::Quarantined(_)))
            .count() as u64;
        writeln!(
            writer,
            "{}",
            summary_line(&job.job_id(), &outcome.aggregate, quarantined)
        )?;
        writeln!(writer, "{}", stats_line(&outcome.stats))?;
    }
    Ok(())
}
