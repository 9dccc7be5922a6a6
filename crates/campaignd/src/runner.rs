//! The sharded trial runner: leases chunks, sandboxes trials, consults
//! the cache, journals checkpoints, and emits results in trial-index
//! order.
//!
//! Workers never write to disk: a finished chunk travels to the emitter
//! with the cache entries it computed, and the emitter is the run's one
//! writer. It takes everything queued as one batch, makes it
//! durable with one cache append and one journal append (one
//! `sync_data` each), and only then streams those chunks, so a batch's
//! size follows the disk's speed and no chunk is ever streamed before
//! its checkpoint is on disk.
//!
//! Work distribution is a *leased* variant of the chunk-claim pattern:
//! trials are partitioned into fixed [`CHUNK_SIZE`] chunks, a lease
//! table hands pending chunks to whichever worker is free, and every
//! lease carries a generation so a completion from a superseded lease
//! is discarded instead of double-published. A supervisor thread walks
//! the workers' progress slots on a fixed tick; a worker that has sat
//! on one trial past the deadline has its lease expired — the chunk
//! goes back to the front of the pending queue for a healthy worker
//! (spawning a bounded number of replacement workers when the pool has
//! been eaten by wedged threads), and the trial that caused it is
//! charged one timeout attempt.
//!
//! Each trial runs inside `catch_unwind` with a bounded retry budget
//! ([`RetryPolicy`], mirroring `tta-protocol`'s `RestartPolicy`
//! shapes): a panicking attempt is retried after exponential backoff; a
//! trial that burns the whole budget — by panicking every attempt or by
//! being charged [`RetryPolicy::max_attempts`] timeouts — is recorded
//! as a [`TrialVerdict::Quarantined`] entry in the journal and the
//! NDJSON stream. Quarantine is a deterministic *outcome*, not a crash:
//! the sweep completes, the daemon survives, and a resumed run replays
//! the quarantined verdict from the journal without re-running the
//! poisoned trial.
//!
//! Because trial `index` is the same simulation everywhere, *which*
//! worker runs a chunk — or how many times a chunk was reclaimed and
//! re-run — never shows in the output, only in the (out-of-band) stats.
//! Resumption slots in at the same seam as before: chunks recovered
//! from the journal are pre-seeded into the emitter's reorder buffer
//! and never handed to workers.

use crate::cache::Cache;
use crate::chaos::ChaosPlan;
use crate::journal::{ChunkRecord, Journal, CHUNK_SIZE};
use crate::spec::ResolvedJob;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};
use tta_sim::{TrialAggregate, TrialResult};

/// Upper bound on idle/teardown sleeps (worker claim-wait, supervisor
/// slice, emitter poll) so a long supervision tick slows *scanning*,
/// never run teardown.
const IDLE_POLL: Duration = Duration::from_millis(5);

/// Why a trial was quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineReason {
    /// Every sandboxed attempt panicked.
    Panic,
    /// The trial was charged the full timeout budget by the supervisor.
    Timeout,
}

impl QuarantineReason {
    /// The stable wire token (`"panic"` / `"timeout"`).
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            QuarantineReason::Panic => "panic",
            QuarantineReason::Timeout => "timeout",
        }
    }

    /// Parses a wire token back.
    #[must_use]
    pub fn parse(token: &str) -> Option<QuarantineReason> {
        match token {
            "panic" => Some(QuarantineReason::Panic),
            "timeout" => Some(QuarantineReason::Timeout),
            _ => None,
        }
    }
}

/// A trial the retry budget gave up on: a deterministic terminal
/// verdict, journaled and streamed like any other result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantinedTrial {
    /// The trial's index in the sweep.
    pub index: u32,
    /// The trial's derived seed (identifies the poisoned simulation).
    pub seed: u64,
    /// Why the budget was exhausted.
    pub reason: QuarantineReason,
}

/// The terminal verdict of one trial.
#[derive(Debug, Clone, PartialEq)]
pub enum TrialVerdict {
    /// The trial ran to completion.
    Completed(TrialResult),
    /// The trial exhausted its retry budget and was quarantined.
    Quarantined(QuarantinedTrial),
}

impl TrialVerdict {
    /// The trial index this verdict covers.
    #[must_use]
    pub fn index(&self) -> u32 {
        match self {
            TrialVerdict::Completed(t) => t.index,
            TrialVerdict::Quarantined(q) => q.index,
        }
    }

    /// The completed result, if any.
    #[must_use]
    pub fn completed(&self) -> Option<&TrialResult> {
        match self {
            TrialVerdict::Completed(t) => Some(t),
            TrialVerdict::Quarantined(_) => None,
        }
    }
}

/// Bounded retry budget for sandboxed trials — the service-level mirror
/// of `tta-protocol`'s `RestartPolicy::BoundedRetry`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts (initial + retries) before a trial is quarantined; also
    /// the timeout budget a trial may be charged by the supervisor.
    pub max_attempts: u32,
    /// Base backoff between panicking attempts (doubles per retry).
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            backoff: Duration::from_millis(25),
        }
    }
}

/// Supervision parameters: the retry budget, the per-trial wall-clock
/// deadline, and the supervisor's scan period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Supervision {
    /// Retry budget for panicking / timed-out trials.
    pub retry: RetryPolicy,
    /// Wall-clock deadline for one trial attempt; a worker exceeding it
    /// has its chunk lease expired and the trial charged one timeout.
    pub trial_deadline: Duration,
    /// Supervisor scan period.
    pub tick: Duration,
}

impl Default for Supervision {
    fn default() -> Supervision {
        Supervision {
            retry: RetryPolicy::default(),
            trial_deadline: Duration::from_secs(30),
            tick: Duration::from_millis(25),
        }
    }
}

/// Non-deterministic bookkeeping of one run. Reported on a separate
/// stream line precisely because it is *not* stable across worker
/// counts or interruptions — never mix it into the deterministic
/// output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Trials answered from the result cache.
    pub cache_hits: u64,
    /// Trials actually simulated.
    pub computed: u64,
    /// Chunks recovered from the journal instead of being re-run.
    pub resumed_chunks: u64,
    /// Trials inside those recovered chunks.
    pub resumed_trials: u64,
    /// Trials quarantined this run (journal-recovered ones excluded).
    pub quarantined: u64,
    /// Panicking attempts that were retried.
    pub panics_retried: u64,
    /// Chunk leases expired and reclaimed by the supervisor.
    pub leases_reclaimed: u64,
}

/// The result of one (possibly partial) run.
#[derive(Debug)]
pub struct RunOutcome {
    /// Every emitted verdict, in trial-index order.
    pub verdicts: Vec<TrialVerdict>,
    /// The fold of the *completed* trials, in the same order every run
    /// folds in.
    pub aggregate: TrialAggregate,
    /// Whether all trials were emitted (false only when cancelled or a
    /// worker hit an I/O error mid-sweep).
    pub complete: bool,
    /// Non-deterministic bookkeeping.
    pub stats: RunStats,
}

impl RunOutcome {
    /// The completed trials, in index order.
    #[must_use]
    pub fn completed(&self) -> Vec<TrialResult> {
        self.verdicts
            .iter()
            .filter_map(|v| v.completed().copied())
            .collect()
    }
}

/// Everything configuring one run besides the job itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunConfig {
    /// Worker pool size (clamped to at least 1).
    pub workers: usize,
    /// Supervision parameters (`..Default::default()` for the stock
    /// budget).
    pub supervision: Supervision,
    /// Failure injection (default: none); `kill=N` is the
    /// kill-and-resume hook.
    pub chaos: ChaosPlan,
}

impl RunConfig {
    /// A config with `workers` workers and stock supervision.
    #[must_use]
    pub fn with_workers(workers: usize) -> RunConfig {
        RunConfig {
            workers,
            ..RunConfig::default()
        }
    }
}

/// Control and observation handles a host wires into one run: the
/// process-wide journaled-chunk counter (the `kill=N` hook's clock), the
/// cancellation flag, and optional live progress for the `status` op.
#[derive(Debug, Clone, Copy)]
pub struct RunHandles<'a> {
    /// Chunks journaled across the whole process, fed to the `kill=N`
    /// hook. Relaxed: a monotone counter whose exact interleaving with
    /// other writers is immaterial — the hook only wants "about
    /// the Nth chunk".
    pub appends_so_far: &'a AtomicU64,
    /// Set to stop workers at the next chunk (lease) boundary.
    /// Relaxed latch: false→true once; observing it a chunk late just
    /// moves the (already chunk-granular) stop boundary.
    pub cancel: &'a AtomicBool,
    /// Live progress counters, kept current when present.
    pub progress: Option<&'a JobProgress>,
}

/// Live progress counters of one running job, shared with the daemon's
/// `status` op. All counters are monotone except `chunks_leased` and
/// `workers_active`, which track the current state.
///
/// Every field uses Relaxed ordering: these are advisory gauges read by
/// the `status` op for display only — no decision and no other data
/// hangs off them, so a momentarily stale or torn-across-fields view is
/// acceptable by design.
#[derive(Debug, Default)]
pub struct JobProgress {
    /// Chunks this run must produce (journal-recovered ones excluded).
    /// Relaxed gauge (see struct docs).
    pub chunks_total: AtomicU64,
    /// Chunks the emitter has made durable (journaled and cached) in
    /// its batch commits. Relaxed gauge (see struct docs).
    pub chunks_done: AtomicU64,
    /// Chunks currently out on a lease. Relaxed gauge (see struct docs).
    pub chunks_leased: AtomicU64,
    /// Trials quarantined so far. Relaxed gauge (see struct docs).
    pub quarantined: AtomicU64,
    /// Workers currently in the claim/execute loop. Relaxed gauge (see
    /// struct docs).
    pub workers_active: AtomicU64,
}

// ---------------------------------------------------------------------
// Lease table.
// ---------------------------------------------------------------------

/// One chunk lease: who may commit the chunk, and since when.
#[derive(Debug, Clone, Copy)]
struct Lease {
    generation: u64,
}

#[derive(Debug, Default)]
struct LeaseTable {
    pending: VecDeque<u32>,
    active: HashMap<u32, Lease>,
    done: usize,
    total: usize,
    next_generation: u64,
}

impl LeaseTable {
    fn new(pending: Vec<u32>) -> LeaseTable {
        LeaseTable {
            total: pending.len(),
            pending: pending.into(),
            ..LeaseTable::default()
        }
    }

    fn claim(&mut self) -> Option<(u32, u64)> {
        let chunk = self.pending.pop_front()?;
        let generation = self.next_generation;
        self.next_generation += 1;
        self.active.insert(chunk, Lease { generation });
        Some((chunk, generation))
    }

    /// Commits a completed chunk if `generation` still holds the lease.
    fn commit(&mut self, chunk: u32, generation: u64) -> bool {
        match self.active.get(&chunk) {
            Some(lease) if lease.generation == generation => {
                self.active.remove(&chunk);
                self.done += 1;
                true
            }
            _ => false,
        }
    }

    /// Expires a lease, returning the chunk to the head of the queue.
    /// Returns false when `generation` no longer holds the lease.
    fn expire(&mut self, chunk: u32, generation: u64) -> bool {
        match self.active.get(&chunk) {
            Some(lease) if lease.generation == generation => {
                self.active.remove(&chunk);
                self.pending.push_front(chunk);
                true
            }
            _ => false,
        }
    }

    fn finished(&self) -> bool {
        self.done == self.total
    }
}

/// What a worker is doing right now, visible to the supervisor.
#[derive(Debug, Clone, Copy)]
struct TrialInFlight {
    chunk: u32,
    generation: u64,
    index: u32,
    started: Instant,
}

/// A chunk a worker finished under a lease it still held, on its way to
/// the emitter: the journal record plus the cache entries it computed.
struct FinishedChunk {
    record: ChunkRecord,
    fresh: Vec<(u64, TrialResult)>,
}

/// Shared state of one run, borrowed by workers and the supervisor.
struct RunCtx<'a> {
    job: &'a ResolvedJob,
    cache: &'a Cache,
    config: &'a RunConfig,
    total_trials: u32,
    leases: Mutex<LeaseTable>,
    /// Per-worker-slot progress, scanned by the supervisor.
    in_flight: Vec<Mutex<Option<TrialInFlight>>>,
    /// Supervisor-charged timeout counts per trial index.
    timeouts: Mutex<HashMap<u32, u32>>,
    /// The emitter's failed commit; workers stop once it is set.
    io_error: Mutex<Option<std::io::Error>>,
    /// Relaxed latch, see [`RunHandles::cancel`].
    cancel: &'a AtomicBool,
    progress: Option<&'a JobProgress>,
    /// Per-run stats counters (`cache_hits` through
    /// `leases_reclaimed`): Relaxed monotone counters, read only after
    /// the worker scope joins — the join is the synchronization point,
    /// the ordering on the increments carries no data.
    cache_hits: AtomicU64,
    /// Relaxed monotone stats counter, see [`RunCtx::cache_hits`].
    computed: AtomicU64,
    /// Relaxed monotone stats counter, see [`RunCtx::cache_hits`].
    panics_retried: AtomicU64,
    /// Relaxed monotone stats counter, see [`RunCtx::cache_hits`].
    leases_reclaimed: AtomicU64,
    /// Remaining worker-replacement budget. Relaxed `fetch_sub` ticket
    /// counter: each decrement claims one replacement; exact order
    /// among claimants is irrelevant, only that the budget is not
    /// exceeded (the fetch_sub return value decides that atomically).
    replacements_left: AtomicUsize,
    /// Next progress-slot index to hand to a spawned worker. Relaxed
    /// `fetch_add` ticket counter: uniqueness is all that matters.
    next_slot: AtomicUsize,
    /// Workers currently inside `worker_loop`; the emitter stops
    /// waiting once this hits zero (the sender side lives in this
    /// struct, so channel disconnection can never signal that).
    /// AcqRel/Acquire: the Release half of each decrement publishes the
    /// worker's final sends before the emitter's Acquire load can
    /// observe `live == 0` and stop draining (see `run`'s emitter loop).
    workers_live: AtomicUsize,
    tx: mpsc::Sender<FinishedChunk>,
}

impl RunCtx<'_> {
    fn bail(&self) -> bool {
        self.cancel.load(Ordering::Relaxed) || self.io_error.lock().expect("error slot").is_some()
    }

    fn timeout_count(&self, index: u32) -> u32 {
        self.timeouts
            .lock()
            .expect("timeout table")
            .get(&index)
            .copied()
            .unwrap_or(0)
    }
}

/// Swallows the panic output of *injected* chaos panics so a chaos run
/// doesn't spam stderr with backtraces; every other panic keeps the
/// default reporting. Installed once per process, first run.
fn install_quiet_chaos_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|m| m.contains("chaos: injected"))
                || info
                    .payload()
                    .downcast_ref::<String>()
                    .is_some_and(|m| m.contains("chaos: injected"));
            if !injected {
                default(info);
            }
        }));
    });
}

/// Runs (or resumes) a resolved job.
///
/// `emit` observes every chunk's verdicts, one call per chunk in
/// chunk-index order — journal-recovered, cache-hit, freshly simulated
/// and quarantined alike — as soon as the chunk is durable and all
/// earlier chunks are emitted. Setting `cancel` stops workers at the
/// next chunk (lease) boundary; the emitter still commits every chunk
/// they finished, so a later run resumes where this one stopped.
/// `progress`, when given, is kept current for the daemon's `status`
/// op.
///
/// # Errors
///
/// Propagates journal/cache I/O errors of a batch commit; the run
/// stops emitting at the failed batch. Batches committed before it
/// are journaled and will be resumed, not lost.
///
/// # Panics
///
/// Never panics on a panicking *trial* — those are sandboxed, retried
/// and quarantined. Panics only on poisoned internal locks.
pub fn run(
    job: &ResolvedJob,
    journal: &mut Journal,
    cache: &Cache,
    config: &RunConfig,
    handles: RunHandles<'_>,
    emit: &mut dyn FnMut(&[TrialVerdict]),
) -> std::io::Result<RunOutcome> {
    let RunHandles {
        appends_so_far,
        cancel,
        progress,
    } = handles;
    install_quiet_chaos_panics();
    let total = job.exec.effective_trials();
    let total_chunks = total.div_ceil(CHUNK_SIZE);
    let workers = config.workers.max(1);

    let mut ready: BTreeMap<u32, Vec<TrialVerdict>> = journal.take_recovered();
    // A journal may hold chunks beyond this spec's horizon only if the
    // job hash collided; drop anything out of range defensively.
    ready.retain(|chunk, _| *chunk < total_chunks);
    let mut stats = RunStats {
        resumed_chunks: ready.len() as u64,
        resumed_trials: ready.values().map(|t| t.len() as u64).sum(),
        ..RunStats::default()
    };

    let pending: Vec<u32> = (0..total_chunks)
        .filter(|chunk| !ready.contains_key(chunk))
        .collect();
    let initial_workers = workers.min(pending.len().max(1));
    // Replacement budget: enough to survive every worker wedging once
    // per retry attempt, bounded so a pathological job cannot spawn
    // threads forever.
    let replacement_budget =
        (initial_workers * config.supervision.retry.max_attempts.max(1) as usize).min(16);

    if let Some(progress) = progress {
        progress
            .chunks_total
            .store(pending.len() as u64, Ordering::Relaxed);
        progress.chunks_done.store(0, Ordering::Relaxed);
        progress.chunks_leased.store(0, Ordering::Relaxed);
        progress.quarantined.store(0, Ordering::Relaxed);
    }

    let (tx, rx) = mpsc::channel::<FinishedChunk>();
    let ctx = RunCtx {
        job,
        cache,
        config,
        total_trials: total,
        leases: Mutex::new(LeaseTable::new(pending)),
        in_flight: (0..initial_workers + replacement_budget)
            .map(|_| Mutex::new(None))
            .collect(),
        timeouts: Mutex::new(HashMap::new()),
        io_error: Mutex::new(None),
        cancel,
        progress,
        cache_hits: AtomicU64::new(0),
        computed: AtomicU64::new(0),
        panics_retried: AtomicU64::new(0),
        leases_reclaimed: AtomicU64::new(0),
        replacements_left: AtomicUsize::new(replacement_budget),
        next_slot: AtomicUsize::new(0),
        workers_live: AtomicUsize::new(0),
        tx,
    };

    std::thread::scope(|scope| {
        for _ in 0..initial_workers {
            let slot = ctx.next_slot.fetch_add(1, Ordering::Relaxed);
            let ctx = &ctx;
            // Registered before the spawn so the emitter can never
            // observe zero live workers while any are still starting.
            ctx.workers_live.fetch_add(1, Ordering::AcqRel);
            scope.spawn(move || worker_loop(ctx, slot));
        }
        // The supervisor: scans progress slots, expires stale leases,
        // spawns replacements for wedged workers.
        {
            let ctx = &ctx;
            scope.spawn(move || supervisor_loop(ctx, scope));
        }

        // The emitter: commit each batch of finished chunks, then stream
        // every chunk that is next in index order, until the run
        // completes or the pool empties out (cancel / kill hook /
        // I/O error).
        let mut emitted: Vec<TrialVerdict> = Vec::with_capacity(total as usize);
        let mut next: u32 = 0;
        let mut pool_gone = false;
        loop {
            while let Some(verdicts) = ready.remove(&next) {
                emit(&verdicts);
                emitted.extend(verdicts);
                next += 1;
            }
            if next == total_chunks || pool_gone {
                break;
            }
            let mut batch = Vec::new();
            match rx.recv_timeout(config.supervision.tick.min(IDLE_POLL)) {
                Ok(finished) => batch.push(finished),
                // Every worker has exited, so whatever they sent is
                // already queued: commit it, stream what is in order,
                // and stop.
                Err(mpsc::RecvTimeoutError::Timeout)
                    if ctx.workers_live.load(Ordering::Acquire) == 0 =>
                {
                    pool_gone = true;
                }
                Err(mpsc::RecvTimeoutError::Timeout) => continue,
                Err(mpsc::RecvTimeoutError::Disconnected) => pool_gone = true,
            }
            // The batch: whatever queued while the previous one synced.
            batch.extend(rx.try_iter());
            if let Err(e) =
                commit_batch(&ctx, journal, appends_so_far, batch, &mut ready, &mut stats)
            {
                ctx.io_error.lock().expect("error slot").get_or_insert(e);
                break;
            }
        }
        stats.cache_hits = ctx.cache_hits.load(Ordering::Relaxed);
        stats.computed = ctx.computed.load(Ordering::Relaxed);
        stats.panics_retried = ctx.panics_retried.load(Ordering::Relaxed);
        stats.leases_reclaimed = ctx.leases_reclaimed.load(Ordering::Relaxed);
        // Unblock any worker still waiting on lease churn.
        cancel.store(
            cancel.load(Ordering::Relaxed) || next == total_chunks,
            Ordering::Relaxed,
        );
        let error = ctx.io_error.lock().expect("error slot").take();
        if let Some(e) = error {
            return Err(e);
        }
        let aggregate = TrialAggregate::fold(
            &emitted
                .iter()
                .filter_map(|v| v.completed().copied())
                .collect::<Vec<_>>(),
        );
        Ok(RunOutcome {
            complete: emitted.len() == total as usize,
            verdicts: emitted,
            aggregate,
            stats,
        })
    })
}

fn worker_loop(ctx: &RunCtx<'_>, slot: usize) {
    // The spawner incremented `workers_live` for us.
    if let Some(progress) = ctx.progress {
        progress.workers_active.fetch_add(1, Ordering::Relaxed);
    }
    loop {
        if ctx.bail() {
            break;
        }
        let claimed = {
            let mut leases = ctx.leases.lock().expect("lease table");
            if leases.finished() {
                break;
            }
            leases.claim()
        };
        let Some((chunk, generation)) = claimed else {
            // Nothing pending, but leased chunks may yet be reclaimed
            // by the supervisor — wait for churn instead of exiting.
            // Capped below the tick so run teardown never waits out a
            // long scan interval.
            if ctx.leases.lock().expect("lease table").finished() {
                break;
            }
            std::thread::sleep(ctx.config.supervision.tick.min(IDLE_POLL));
            continue;
        };
        if let Some(progress) = ctx.progress {
            progress.chunks_leased.fetch_add(1, Ordering::Relaxed);
        }
        let (trials, fresh) = execute_chunk(ctx, chunk, generation, slot);
        let committed = ctx
            .leases
            .lock()
            .expect("lease table")
            .commit(chunk, generation);
        if let Some(progress) = ctx.progress {
            progress.chunks_leased.fetch_sub(1, Ordering::Relaxed);
        }
        if !committed {
            // The supervisor reclaimed this lease while we were wedged;
            // another worker owns (or owned) the chunk now. Discard —
            // results are deterministic, so the other copy is
            // equivalent.
            continue;
        }
        // The emitter journals and caches the chunk before it streams.
        let _ = ctx.tx.send(FinishedChunk {
            record: ChunkRecord { chunk, trials },
            fresh,
        });
    }
    if let Some(progress) = ctx.progress {
        progress.workers_active.fetch_sub(1, Ordering::Relaxed);
    }
    ctx.workers_live.fetch_sub(1, Ordering::AcqRel);
}

/// Makes one batch of finished chunks durable — every fresh cache entry
/// with one `insert_batch`, every record with one `append_batch`, one
/// `sync_data` each — then counts each chunk (the `kill=N` hook among the
/// counters) and files it in the reorder buffer. Only the emitter
/// calls this, so it is the run's one writer to disk.
fn commit_batch(
    ctx: &RunCtx<'_>,
    journal: &mut Journal,
    // Relaxed monotone counter, see [`RunHandles::appends_so_far`].
    appends_so_far: &AtomicU64,
    batch: Vec<FinishedChunk>,
    ready: &mut BTreeMap<u32, Vec<TrialVerdict>>,
    stats: &mut RunStats,
) -> std::io::Result<()> {
    let mut records = Vec::with_capacity(batch.len());
    let mut fresh = Vec::new();
    for finished in batch {
        records.push(finished.record);
        fresh.extend(finished.fresh);
    }
    ctx.cache.insert_batch(&fresh)?;
    journal.append_batch(&records)?;
    let kill_at = ctx.config.chaos.kill_after_chunks;
    for record in records {
        let done = appends_so_far.fetch_add(1, Ordering::Relaxed) + 1;
        if kill_at.is_some_and(|n| done >= n) {
            // The whole point: die *after* the checkpoint hit disk,
            // with no unwind, like a power cut.
            std::process::abort();
        }
        let quarantined = record
            .trials
            .iter()
            .filter(|v| matches!(v, TrialVerdict::Quarantined(_)))
            .count() as u64;
        stats.quarantined += quarantined;
        if let Some(progress) = ctx.progress {
            progress.chunks_done.fetch_add(1, Ordering::Relaxed);
            progress
                .quarantined
                .fetch_add(quarantined, Ordering::Relaxed);
        }
        ready.insert(record.chunk, record.trials);
    }
    Ok(())
}

/// Runs every trial of one chunk under the sandbox, returning the
/// verdicts plus the freshly computed cache entries.
fn execute_chunk(
    ctx: &RunCtx<'_>,
    chunk: u32,
    generation: u64,
    slot: usize,
) -> (Vec<TrialVerdict>, Vec<(u64, TrialResult)>) {
    let start = chunk * CHUNK_SIZE;
    let end = (start + CHUNK_SIZE).min(ctx.total_trials);
    let mut verdicts = Vec::with_capacity((end - start) as usize);
    let mut fresh = Vec::new();
    for index in start..end {
        let trial_seed = ctx.job.exec.trial_seed(index);
        let key = ctx.job.trial_key(trial_seed);
        if let Some(hit) = ctx.cache.lookup(key, index) {
            ctx.cache_hits.fetch_add(1, Ordering::Relaxed);
            verdicts.push(TrialVerdict::Completed(hit));
            continue;
        }
        let verdict = run_sandboxed(ctx, chunk, generation, slot, index, trial_seed);
        if let TrialVerdict::Completed(trial) = &verdict {
            fresh.push((key, *trial));
        }
        verdicts.push(verdict);
        // A reclaimed lease means our remaining work is someone else's;
        // finishing the chunk would only waste CPU. Keep going anyway
        // if we're nearly done — the commit check is the arbiter — but
        // bail mid-chunk on cancellation.
        if ctx.cancel.load(Ordering::Relaxed) && verdicts.len() < (end - start) as usize {
            // Incomplete chunks are never committed; drop the partial
            // work and let a resume recompute it.
            let mut leases = ctx.leases.lock().expect("lease table");
            leases.expire(chunk, generation);
            return (verdicts, fresh);
        }
    }
    (verdicts, fresh)
}

/// One trial under `catch_unwind` + deadline supervision + retry
/// budget.
fn run_sandboxed(
    ctx: &RunCtx<'_>,
    chunk: u32,
    generation: u64,
    slot: usize,
    index: u32,
    trial_seed: u64,
) -> TrialVerdict {
    let budget = ctx.config.supervision.retry.max_attempts.max(1);
    let mut panic_attempts = 0u32;
    loop {
        // Timeout charges accrue via the supervisor (possibly against
        // an earlier lease of this chunk); a trial over budget is
        // quarantined without running again.
        let timeout_attempts = ctx.timeout_count(index);
        if timeout_attempts >= budget {
            return TrialVerdict::Quarantined(QuarantinedTrial {
                index,
                seed: trial_seed,
                reason: QuarantineReason::Timeout,
            });
        }
        *ctx.in_flight[slot].lock().expect("progress slot") = Some(TrialInFlight {
            chunk,
            generation,
            index,
            // detlint: allow(DL02) reason=supervision deadline stamp; read only by the supervisor scan, never by trial execution or output
            started: Instant::now(),
        });
        let chaos = &ctx.config.chaos;
        let deadline = ctx.config.supervision.trial_deadline;
        let attempt = panic_attempts;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if chaos.injects_panic(index, trial_seed, attempt) {
                panic!("chaos: injected worker panic (trial {index})");
            }
            if chaos.injects_stall(index, timeout_attempts) {
                // Stall past the deadline so the supervisor reclaims
                // the lease; bounded, so wedged threads drain.
                std::thread::sleep(
                    deadline
                        .saturating_mul(2)
                        .min(deadline + Duration::from_secs(10)),
                );
            }
            ctx.job.exec.run_trial(index)
        }));
        *ctx.in_flight[slot].lock().expect("progress slot") = None;
        match outcome {
            Ok(trial) => {
                ctx.computed.fetch_add(1, Ordering::Relaxed);
                return TrialVerdict::Completed(trial);
            }
            Err(_) => {
                panic_attempts += 1;
                if panic_attempts >= budget {
                    return TrialVerdict::Quarantined(QuarantinedTrial {
                        index,
                        seed: trial_seed,
                        reason: QuarantineReason::Panic,
                    });
                }
                ctx.panics_retried.fetch_add(1, Ordering::Relaxed);
                // Exponential backoff between attempts.
                let backoff = ctx
                    .config
                    .supervision
                    .retry
                    .backoff
                    .saturating_mul(1 << (panic_attempts - 1).min(8));
                std::thread::sleep(backoff);
            }
        }
    }
}

/// Scans the workers' progress slots on a fixed tick; a trial past its
/// deadline is charged one timeout and its chunk lease expired, and a
/// replacement worker is spawned (bounded) since the wedged one cannot
/// claim further work until it returns.
fn supervisor_loop<'scope, 'env>(
    ctx: &'scope RunCtx<'env>,
    scope: &'scope std::thread::Scope<'scope, 'env>,
) where
    'env: 'scope,
{
    // detlint: allow(DL02) reason=supervisor scan cadence; timing decides only when to look for stale leases, reclaim itself is generation-checked
    let mut last_scan = Instant::now();
    loop {
        if ctx.bail() || ctx.leases.lock().expect("lease table").finished() {
            break;
        }
        // Sleep in short slices so a finished run tears down promptly
        // even under a long scan tick; the scan itself keeps its
        // configured cadence.
        std::thread::sleep(ctx.config.supervision.tick.min(IDLE_POLL));
        if last_scan.elapsed() < ctx.config.supervision.tick {
            continue;
        }
        // detlint: allow(DL02) reason=supervisor scan cadence, out-of-band
        last_scan = Instant::now();
        for slot in &ctx.in_flight {
            let stale = {
                let mut guard = slot.lock().expect("progress slot");
                match &*guard {
                    Some(t) if t.started.elapsed() > ctx.config.supervision.trial_deadline => {
                        guard.take()
                    }
                    _ => None,
                }
            };
            let Some(t) = stale else { continue };
            let expired = ctx
                .leases
                .lock()
                .expect("lease table")
                .expire(t.chunk, t.generation);
            if !expired {
                continue; // Already superseded; nothing to charge.
            }
            ctx.leases_reclaimed.fetch_add(1, Ordering::Relaxed);
            if let Some(progress) = ctx.progress {
                progress.chunks_leased.fetch_sub(1, Ordering::Relaxed);
            }
            *ctx.timeouts
                .lock()
                .expect("timeout table")
                .entry(t.index)
                .or_insert(0) += 1;
            // The wedged worker occupies a pool slot until its stalled
            // trial returns; restore capacity so recovery time stays
            // bounded by the deadline, not by the stall.
            if ctx
                .replacements_left
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_ok()
            {
                let slot = ctx.next_slot.fetch_add(1, Ordering::Relaxed);
                if slot < ctx.in_flight.len() {
                    ctx.workers_live.fetch_add(1, Ordering::AcqRel);
                    scope.spawn(move || worker_loop(ctx, slot));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{JobSpec, ResolvedJob, ScenarioSource};
    use std::path::{Path, PathBuf};
    use tta_sim::Scenario;

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("campaignd-runner-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn job() -> ResolvedJob {
        let spec = JobSpec {
            trials: 20, // 2 full chunks + 1 short chunk
            slots: 200,
            ..JobSpec::new(ScenarioSource::Builtin(Scenario::SosSender))
        };
        ResolvedJob::resolve(spec, Path::new(".")).unwrap()
    }

    fn run_with(dir: &Path, config: &RunConfig) -> (RunOutcome, Vec<u32>) {
        let job = job();
        let mut journal =
            Journal::open(&dir.join(format!("{}.journal", job.job_id())), job.job_hash).unwrap();
        let cache = Cache::open(&dir.join("cache")).unwrap();
        let mut seen = Vec::new();
        let outcome = run(
            &job,
            &mut journal,
            &cache,
            config,
            RunHandles {
                appends_so_far: &AtomicU64::new(0),
                cancel: &AtomicBool::new(false),
                progress: None,
            },
            &mut |chunk| seen.extend(chunk.iter().map(TrialVerdict::index)),
        )
        .unwrap();
        (outcome, seen)
    }

    fn run_fresh(dir: &Path, workers: usize) -> (RunOutcome, Vec<u32>) {
        run_with(dir, &RunConfig::with_workers(workers))
    }

    #[test]
    fn output_is_identical_across_worker_counts() {
        let base = run_fresh(&temp_dir("w1"), 1);
        for workers in [2, 4, 8] {
            let other = run_fresh(&temp_dir(&format!("w{workers}")), workers);
            assert_eq!(other.0.verdicts, base.0.verdicts, "workers={workers}");
            assert_eq!(other.0.aggregate, base.0.aggregate);
            assert_eq!(other.1, (0..20).collect::<Vec<u32>>());
        }
        assert!(base.0.complete);
        assert_eq!(base.0.stats.computed, 20);
        assert_eq!(base.0.stats.cache_hits, 0);
        assert_eq!(base.0.stats.quarantined, 0);
    }

    #[test]
    fn resumed_runs_reuse_journaled_chunks_and_match() {
        let dir = temp_dir("resume");
        let job = job();
        let journal_path = dir.join("job.journal");
        let (fresh, _) = run_fresh(&temp_dir("resume-ref"), 4);

        // The interrupted state, built exactly: a journal holding chunk
        // 0 of a finished reference run and nothing else.
        let chunk0 = ChunkRecord {
            chunk: 0,
            trials: fresh.verdicts[..CHUNK_SIZE as usize].to_vec(),
        };
        Journal::open(&journal_path, job.job_hash)
            .unwrap()
            .append(&chunk0)
            .unwrap();

        // A run cancelled before it starts replays the journaled chunk
        // and computes nothing: it is incomplete, deterministically.
        {
            let mut journal = Journal::open(&journal_path, job.job_hash).unwrap();
            let outcome = run(
                &job,
                &mut journal,
                &Cache::open(&dir.join("cache")).unwrap(),
                &RunConfig::with_workers(1),
                RunHandles {
                    appends_so_far: &AtomicU64::new(0),
                    cancel: &AtomicBool::new(true),
                    progress: None,
                },
                &mut |_| {},
            )
            .unwrap();
            assert!(!outcome.complete);
            assert_eq!(outcome.stats.computed, 0);
            assert_eq!(outcome.verdicts, chunk0.trials);
        }

        // Resume with a *fresh cache* so resumed chunks provably come
        // from the journal, not recomputation or cache hits.
        let empty_cache = Cache::open(&dir.join("cache2")).unwrap();
        let mut journal = Journal::open(&journal_path, job.job_hash).unwrap();
        let mut order = Vec::new();
        let resumed = run(
            &job,
            &mut journal,
            &empty_cache,
            &RunConfig::with_workers(4),
            RunHandles {
                appends_so_far: &AtomicU64::new(0),
                cancel: &AtomicBool::new(false),
                progress: None,
            },
            &mut |chunk| order.extend(chunk.iter().map(TrialVerdict::index)),
        )
        .unwrap();
        assert!(resumed.complete);
        assert!(resumed.stats.resumed_chunks >= 1);
        assert_eq!(resumed.stats.computed, 20 - u64::from(CHUNK_SIZE));
        assert_eq!(order, (0..20).collect::<Vec<u32>>());
        assert_eq!(resumed.verdicts, fresh.verdicts);
        assert_eq!(resumed.aggregate, fresh.aggregate);
    }

    /// The durability rule: no chunk reaches the stream before its
    /// journal record and its fresh cache entries are on disk. `emit`
    /// reopens both files and finds every chunk it is handed — on an
    /// empty cache (every entry fresh) and on a filled one (every trial
    /// a hit), at 1 and 4 workers.
    #[test]
    fn every_emitted_chunk_is_already_journaled_and_cached() {
        let job = job();
        for workers in [1, 4] {
            let dir = temp_dir(&format!("commit-order-w{workers}"));
            let cache_dir = dir.join("cache");
            let cache = Cache::open(&cache_dir).unwrap();
            for (pass, expected_hits) in [("empty", 0), ("filled", 20)] {
                let path = dir.join(format!("{pass}.journal"));
                let mut journal = Journal::open(&path, job.job_hash).unwrap();
                let mut checked = 0;
                let outcome = run(
                    &job,
                    &mut journal,
                    &cache,
                    &RunConfig::with_workers(workers),
                    RunHandles {
                        appends_so_far: &AtomicU64::new(0),
                        cancel: &AtomicBool::new(false),
                        progress: None,
                    },
                    &mut |chunk| {
                        let index = chunk[0].index() / CHUNK_SIZE;
                        let on_disk = Journal::open(&path, job.job_hash).unwrap();
                        assert_eq!(
                            on_disk.recovered().get(&index).map(Vec::as_slice),
                            Some(chunk),
                            "{pass} cache, {workers} workers: chunk {index} streamed unjournaled"
                        );
                        let cached = Cache::open(&cache_dir).unwrap();
                        for verdict in chunk {
                            let trial = verdict.completed().unwrap();
                            let key = job.trial_key(job.exec.trial_seed(trial.index));
                            assert_eq!(
                                cached.lookup(key, trial.index).as_ref(),
                                Some(trial),
                                "{pass} cache, {workers} workers: trial {} streamed uncached",
                                trial.index
                            );
                        }
                        checked += chunk.len();
                    },
                )
                .unwrap();
                assert!(outcome.complete);
                assert_eq!(checked, 20);
                assert_eq!(outcome.stats.cache_hits, expected_hits);
            }
        }
    }

    /// The detlint DL02 audit routes every wall-clock read in this
    /// module out of the deterministic stream (supervision deadlines
    /// and scan cadence only). This is the behavioral pin for that
    /// claim: cranking the supervisor's timing from one extreme to the
    /// other — a frantic 1ms scan tick versus a glacial 5s one, under
    /// contention at several worker counts — must leave the verdict
    /// stream and aggregate byte-identical to the stock configuration.
    /// The deadline stays generous so no lease legitimately expires;
    /// *that* path is exercised by `chaos.rs`, where degradation is the
    /// point.
    #[test]
    fn supervision_timing_never_leaks_into_the_stream() {
        let (reference, order) = run_fresh(&temp_dir("sup-ref"), 4);
        assert!(reference.complete);
        assert_eq!(order, (0..20).collect::<Vec<u32>>());

        for (name, tick_ms, workers) in [
            ("frantic-w2", 1u64, 2usize),
            ("frantic-w8", 1, 8),
            ("glacial-w4", 5_000, 4),
        ] {
            let mut config = RunConfig::with_workers(workers);
            config.supervision.tick = Duration::from_millis(tick_ms);
            config.supervision.trial_deadline = Duration::from_secs(600);
            let (outcome, order) = run_with(&temp_dir(&format!("sup-{name}")), &config);
            assert!(outcome.complete, "{name}");
            assert_eq!(outcome.verdicts, reference.verdicts, "{name}");
            assert_eq!(outcome.aggregate, reference.aggregate, "{name}");
            assert_eq!(order, (0..20).collect::<Vec<u32>>(), "{name}");
            assert_eq!(
                outcome.stats.quarantined, 0,
                "{name}: a generous deadline must never quarantine"
            );
        }
    }

    #[test]
    fn second_run_hits_cache_with_identical_results() {
        let dir = temp_dir("cache-hit");
        let job = job();
        let cache = Cache::open(&dir.join("cache")).unwrap();

        let mut journal = Journal::open(&dir.join("a.journal"), job.job_hash).unwrap();
        let first = run(
            &job,
            &mut journal,
            &cache,
            &RunConfig::with_workers(4),
            RunHandles {
                appends_so_far: &AtomicU64::new(0),
                cancel: &AtomicBool::new(false),
                progress: None,
            },
            &mut |_| {},
        )
        .unwrap();
        assert_eq!(first.stats.cache_hits, 0);

        // Same scenario, fresh journal: every trial answered from cache.
        let mut journal = Journal::open(&dir.join("b.journal"), job.job_hash).unwrap();
        let second = run(
            &job,
            &mut journal,
            &cache,
            &RunConfig::with_workers(4),
            RunHandles {
                appends_so_far: &AtomicU64::new(0),
                cancel: &AtomicBool::new(false),
                progress: None,
            },
            &mut |_| {},
        )
        .unwrap();
        assert_eq!(second.stats.cache_hits, 20);
        assert_eq!(second.stats.computed, 0);
        assert_eq!(second.verdicts, first.verdicts);
        assert_eq!(second.aggregate, first.aggregate);
    }

    #[test]
    fn inapplicable_jobs_complete_with_zero_trials() {
        let dir = temp_dir("empty");
        let spec = JobSpec {
            topology: tta_sim::Topology::Bus,
            ..JobSpec::new(ScenarioSource::Builtin(Scenario::CouplerReplay))
        };
        let job = ResolvedJob::resolve(spec, Path::new(".")).unwrap();
        let mut journal = Journal::open(&dir.join("j.journal"), job.job_hash).unwrap();
        let cache = Cache::open(&dir.join("cache")).unwrap();
        let outcome = run(
            &job,
            &mut journal,
            &cache,
            &RunConfig::with_workers(4),
            RunHandles {
                appends_so_far: &AtomicU64::new(0),
                cancel: &AtomicBool::new(false),
                progress: None,
            },
            &mut |_| {},
        )
        .unwrap();
        assert!(outcome.complete);
        assert!(outcome.verdicts.is_empty());
        assert_eq!(outcome.aggregate.trials, 0);
    }

    #[test]
    fn injected_panics_are_retried_and_masked() {
        let reference = run_fresh(&temp_dir("chaos-ref"), 2);
        let mut config = RunConfig::with_workers(2);
        config.chaos = ChaosPlan::parse("panic=0.5,seed=11").unwrap();
        let chaotic = run_with(&temp_dir("chaos-panic"), &config);
        assert_eq!(chaotic.0.verdicts, reference.0.verdicts);
        assert_eq!(chaotic.0.aggregate, reference.0.aggregate);
        assert_eq!(chaotic.0.stats.quarantined, 0);
        assert!(
            chaotic.0.stats.panics_retried > 0,
            "p=0.5 over 20 trials should have injected at least one panic"
        );
    }

    #[test]
    fn a_poisoned_trial_is_quarantined_not_fatal() {
        let mut config = RunConfig::with_workers(2);
        config.chaos = ChaosPlan::parse("poison=5").unwrap();
        config.supervision.retry.backoff = Duration::from_millis(1);
        let (outcome, seen) = run_with(&temp_dir("poison"), &config);
        assert!(outcome.complete);
        assert_eq!(seen, (0..20).collect::<Vec<u32>>());
        assert_eq!(outcome.stats.quarantined, 1);
        let quarantined: Vec<_> = outcome
            .verdicts
            .iter()
            .filter_map(|v| match v {
                TrialVerdict::Quarantined(q) => Some(*q),
                TrialVerdict::Completed(_) => None,
            })
            .collect();
        assert_eq!(quarantined.len(), 1);
        assert_eq!(quarantined[0].index, 5);
        assert_eq!(quarantined[0].reason, QuarantineReason::Panic);
        // The fold covers the 19 completed trials only.
        assert_eq!(outcome.aggregate.trials, 19);

        // Identical at another worker count: quarantine is
        // deterministic.
        let mut config4 = config;
        config4.workers = 4;
        let again = run_with(&temp_dir("poison4"), &config4);
        assert_eq!(again.0.verdicts, outcome.verdicts);
    }

    #[test]
    fn a_quarantined_trial_resumes_from_the_journal_without_rerunning() {
        let dir = temp_dir("poison-resume");
        let mut config = RunConfig::with_workers(2);
        config.chaos = ChaosPlan::parse("poison=5").unwrap();
        config.supervision.retry.backoff = Duration::from_millis(1);
        let (first, _) = run_with(&dir, &config);
        assert_eq!(first.stats.quarantined, 1);

        // Resume on the same journal *without* chaos: nothing re-runs,
        // the quarantined verdict replays from the journal.
        let job = job();
        let mut journal =
            Journal::open(&dir.join(format!("{}.journal", job.job_id())), job.job_hash).unwrap();
        let cache = Cache::open(&dir.join("cache-fresh")).unwrap();
        let resumed = run(
            &job,
            &mut journal,
            &cache,
            &RunConfig::with_workers(2),
            RunHandles {
                appends_so_far: &AtomicU64::new(0),
                cancel: &AtomicBool::new(false),
                progress: None,
            },
            &mut |_| {},
        )
        .unwrap();
        assert_eq!(
            resumed.stats.computed, 0,
            "all chunks came from the journal"
        );
        assert_eq!(resumed.verdicts, first.verdicts);
    }

    #[test]
    fn a_stalled_trial_is_reclaimed_by_a_healthy_worker() {
        let reference = run_fresh(&temp_dir("stall-ref"), 2);
        let mut config = RunConfig::with_workers(2);
        config.chaos = ChaosPlan::parse("timeout=12").unwrap();
        config.supervision.trial_deadline = Duration::from_millis(150);
        config.supervision.tick = Duration::from_millis(10);
        let chaotic = run_with(&temp_dir("stall"), &config);
        assert_eq!(chaotic.0.verdicts, reference.0.verdicts);
        assert_eq!(chaotic.0.stats.quarantined, 0);
        assert!(
            chaotic.0.stats.leases_reclaimed >= 1,
            "the stalled chunk's lease must have been reclaimed"
        );
    }

    #[test]
    fn a_hung_trial_is_quarantined_with_a_timeout_verdict() {
        let mut config = RunConfig::with_workers(2);
        config.chaos = ChaosPlan::parse("hang=3").unwrap();
        config.supervision.trial_deadline = Duration::from_millis(120);
        config.supervision.tick = Duration::from_millis(10);
        let (outcome, seen) = run_with(&temp_dir("hang"), &config);
        assert!(outcome.complete);
        assert_eq!(seen, (0..20).collect::<Vec<u32>>());
        let quarantined: Vec<_> = outcome
            .verdicts
            .iter()
            .filter_map(|v| match v {
                TrialVerdict::Quarantined(q) => Some(*q),
                TrialVerdict::Completed(_) => None,
            })
            .collect();
        assert_eq!(quarantined.len(), 1);
        assert_eq!(quarantined[0].index, 3);
        assert_eq!(quarantined[0].reason, QuarantineReason::Timeout);
    }
}
