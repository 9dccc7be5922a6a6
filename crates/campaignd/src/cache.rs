//! The content-addressed per-trial result cache.
//!
//! Keyed on `fnv(scenario_hash ‖ policy ‖ trial_seed)` (see
//! [`crate::spec::ResolvedJob::trial_key`]): everything that determines
//! a trial's outcome and nothing that doesn't. Overlapping sweeps — a
//! re-run, a longer seed range over the same scenario, a policy grid
//! revisiting a policy — hit cache for every trial they share; editing
//! a referenced scenario file changes the scenario hash and naturally
//! misses.
//!
//! Storage is one append-only NDJSON log, `<state_dir>/cache/entries.ndjson`,
//! held open for the daemon's lifetime: every completed trial's one
//! durable record. The runner's emitter appends each batch's fresh
//! entries with one write and one `sync_data`, before publishing them in
//! memory or streaming their chunks, so a lookup only sees what is on disk.
//! Lines use the journal's sealed format ([`crate::journal`]): each ends
//! in a `check` field, the FNV-1a of the line's bytes before that field
//! closed with `}`, verified on those bytes as read rather than on a
//! re-rendering. So a torn tail from a crash costs at most the entries
//! of one interrupted batch, never the log. The whole cache is loaded
//! into memory at daemon start, streaming the log line by line with one
//! parse per line; lookups are lock-light reads.
//!
//! Cache hits feed the *deterministic* result stream, so a cached entry
//! must be byte-equivalent to recomputation. That holds by
//! construction: the entry stores the full trial record (whose floats
//! render shortest-roundtrip, hence losslessly), and the runner only
//! rewrites the trial index, which is not part of the key's identity.

use crate::hash::{from_hex, to_hex};
use crate::journal::{seal, unseal};
use crate::json::Json;
use crate::spec::{trial_from_json, trial_to_fields};
use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Write};
use std::path::Path;
use std::sync::{Mutex, RwLock};
use tta_sim::TrialResult;

/// The log's file name inside the cache directory.
const LOG: &str = "entries.ndjson";

/// An open result cache rooted at `<dir>`.
#[derive(Debug)]
pub struct Cache {
    map: RwLock<HashMap<u64, TrialResult>>,
    /// The log, open for appending; holding it serializes inserts
    /// (lookups don't take it).
    log: Mutex<File>,
}

impl Cache {
    /// Opens (or creates) the cache directory and loads its log.
    ///
    /// A log line that fails to decode or checksum is *skipped* — every
    /// later valid entry still loads, so a torn append (or a flipped
    /// byte) costs exactly the damaged entries, never the rest of the
    /// log. A log found damaged is compacted back to its valid lines via
    /// temp-file + rename, so the rewrite is atomic: a crash
    /// mid-compaction leaves either the old log or the new one, both
    /// self-checking.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn open(dir: &Path) -> std::io::Result<Cache> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(LOG);
        let mut map = HashMap::new();
        let damaged = scan(&path, |_, key, trial| {
            map.entry(key).or_insert(trial);
            Ok(())
        })?;
        if damaged {
            compact(&path)?;
        }
        let log = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Cache {
            map: RwLock::new(map),
            log: Mutex::new(log),
        })
    }

    /// Entries currently loaded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.read().expect("cache map lock").len()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up a trial by cache key, re-badged with the looking-up
    /// job's trial `index`.
    #[must_use]
    pub fn lookup(&self, key: u64, index: u32) -> Option<TrialResult> {
        let map = self.map.read().expect("cache map lock");
        map.get(&key).map(|t| TrialResult { index, ..*t })
    }

    /// Inserts a batch of freshly computed trials: one append and one
    /// `sync_data` for all entries not cached yet, then publication in
    /// memory. Keys already present are skipped (first write wins — by
    /// construction any two writers would write equivalent results).
    /// The filter runs under the append lock, so two concurrent batches
    /// sharing keys append each key once.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn insert_batch(&self, entries: &[(u64, TrialResult)]) -> std::io::Result<()> {
        let mut log = self.log.lock().expect("cache log lock");
        let mut fresh: Vec<&(u64, TrialResult)> = Vec::with_capacity(entries.len());
        {
            let map = self.map.read().expect("cache map lock");
            let mut seen = HashSet::with_capacity(entries.len());
            for entry in entries {
                if !map.contains_key(&entry.0) && seen.insert(entry.0) {
                    fresh.push(entry);
                }
            }
        }
        if fresh.is_empty() {
            return Ok(());
        }
        let mut buf = String::new();
        for (key, trial) in &fresh {
            buf.push_str(&seal(&render_entry(*key, trial)));
            buf.push('\n');
        }
        log.write_all(buf.as_bytes())?;
        log.sync_data()?;
        let mut map = self.map.write().expect("cache map lock");
        for (key, trial) in fresh {
            map.insert(*key, *trial);
        }
        Ok(())
    }
}

/// Streams the log at `path` line by line, handing every intact line
/// and its decoded entry to `valid`; returns whether any line was
/// damaged. A newline-less tail is torn; a line that is not UTF-8 or
/// fails its checksum is damaged. Either is skipped and the scan goes
/// on. A missing log is an empty one.
fn scan(
    path: &Path,
    mut valid: impl FnMut(&[u8], u64, TrialResult) -> std::io::Result<()>,
) -> std::io::Result<bool> {
    let file = match File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(false),
        Err(e) => return Err(e),
    };
    let mut reader = BufReader::new(file);
    let mut line = Vec::new();
    let mut damaged = false;
    loop {
        line.clear();
        if reader.read_until(b'\n', &mut line)? == 0 {
            return Ok(damaged);
        }
        let entry = line
            .strip_suffix(b"\n")
            .and_then(|l| std::str::from_utf8(l).ok())
            .and_then(unseal)
            .and_then(|e| parse_entry(&e));
        match entry {
            Some((key, trial)) => valid(&line, key, trial)?,
            None => damaged = true,
        }
    }
}

/// Atomically rewrites a damaged log with its surviving valid lines:
/// write a sibling temp file, sync it, rename over the original.
fn compact(path: &Path) -> std::io::Result<()> {
    let tmp = path.with_extension("ndjson.tmp");
    {
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        let mut out = BufWriter::new(file);
        scan(path, |line, _, _| out.write_all(line))?;
        out.into_inner()
            .map_err(std::io::IntoInnerError::into_error)?
            .sync_data()?;
    }
    std::fs::rename(&tmp, path)
}

fn render_entry(key: u64, trial: &TrialResult) -> Json {
    let mut fields = vec![("key".to_string(), Json::str(to_hex(key)))];
    fields.extend(trial_to_fields(trial));
    Json::Obj(fields)
}

fn parse_entry(body: &Json) -> Option<(u64, TrialResult)> {
    let key = from_hex(body.get("key")?.as_str()?)?;
    let trial = trial_from_json(body).ok()?;
    Some((key, trial))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::{Arc, Barrier};
    use tta_sim::{Outcome, RecoveryOutcome};

    fn trial(index: u32) -> TrialResult {
        TrialResult {
            index,
            seed: u64::from(index).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            outcome: Outcome::HealthyNodeFrozen,
            recovery: RecoveryOutcome::DegradedStable,
            unavailability: 1.0 / f64::from(index + 3),
            time_to_reintegration: Some(u64::from(index) + 11),
        }
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("campaignd-cache-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn entries(cache: &Cache) -> HashMap<u64, TrialResult> {
        cache.map.read().unwrap().clone()
    }

    /// A log line exactly as an earlier daemon build wrote it. Logs on
    /// disk hold these bytes, so they must keep loading.
    const PINNED_KEY: u64 = 0x5fbc_1c0b_a24c_fdbc;
    const PINNED_ENTRY: &str = concat!(
        r#"{"key":"5fbc1c0ba24cfdbc","index":0,"seed":4293187639553623416,"#,
        r#""outcome":"healthy_node_frozen","recovery":"recovered","unavailability":0.1525,"#,
        r#""ttr":11,"check":"9323ccc36aa788cb"}"#
    );

    fn pinned_trial() -> TrialResult {
        TrialResult {
            index: 0,
            seed: 4_293_187_639_553_623_416,
            outcome: Outcome::HealthyNodeFrozen,
            recovery: RecoveryOutcome::Recovered,
            unavailability: 0.1525,
            time_to_reintegration: Some(11),
        }
    }

    #[test]
    fn pinned_log_line_still_loads() {
        let dir = temp_dir("pinned");
        let text = format!("{PINNED_ENTRY}\n");
        std::fs::write(dir.join(LOG), &text).unwrap();
        let cache = Cache::open(&dir).unwrap();
        assert_eq!(entries(&cache), [(PINNED_KEY, pinned_trial())].into());
        drop(cache);
        let log = std::fs::read_to_string(dir.join(LOG)).unwrap();
        assert_eq!(log, text, "an intact log is not compacted");
    }

    #[test]
    fn seal_reproduces_the_pinned_log_line() {
        assert_eq!(
            seal(&render_entry(PINNED_KEY, &pinned_trial())),
            PINNED_ENTRY
        );
        for damaged in crate::journal::tests::near_misses(PINNED_ENTRY) {
            assert!(unseal(&damaged).is_none(), "{damaged}");
        }
    }

    #[test]
    fn cache_persists_across_reopen_and_rebadges_indices() {
        let dir = temp_dir("reopen");
        let cache = Cache::open(&dir).unwrap();
        assert!(cache.is_empty());
        let entries = vec![
            (0x0100_0000_0000_0007, trial(0)),
            (0xfe00_0000_0000_0003, trial(1)),
        ];
        cache.insert_batch(&entries).unwrap();
        drop(cache);

        let cache = Cache::open(&dir).unwrap();
        assert_eq!(cache.len(), 2);
        let hit = cache.lookup(0xfe00_0000_0000_0003, 42).unwrap();
        assert_eq!(hit.index, 42);
        assert_eq!(hit.seed, trial(1).seed);
        assert_eq!(hit.unavailability, trial(1).unavailability);
        assert!(cache.lookup(0xdead, 0).is_none());
    }

    #[test]
    fn duplicate_keys_are_written_once() {
        let dir = temp_dir("dedup");
        let cache = Cache::open(&dir).unwrap();
        cache.insert_batch(&[(5, trial(0))]).unwrap();
        cache
            .insert_batch(&[(5, trial(0)), (6, trial(1)), (6, trial(1))])
            .unwrap();
        drop(cache);

        let text = std::fs::read_to_string(dir.join(LOG)).unwrap();
        assert_eq!(text.lines().count(), 2, "keys 5 and 6 are logged once each");
        let cache = Cache::open(&dir).unwrap();
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn concurrent_overlapping_batches_append_each_key_once() {
        let dir = temp_dir("concurrent");
        let cache = Arc::new(Cache::open(&dir).unwrap());
        // Two writers (two jobs sharing trials) race over overlapping
        // batches: keys 8k..8k+8 against 8k+4..8k+12, round after round.
        let rounds = 32u64;
        let barrier = Arc::new(Barrier::new(2));
        let writers: Vec<_> = [0u64, 4]
            .into_iter()
            .map(|offset| {
                let (cache, barrier) = (Arc::clone(&cache), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    for round in 0..rounds {
                        let batch: Vec<_> = (0..8)
                            .map(|i| {
                                let key = round * 8 + offset + i;
                                (key, trial(key as u32))
                            })
                            .collect();
                        barrier.wait();
                        cache.insert_batch(&batch).unwrap();
                    }
                })
            })
            .collect();
        for writer in writers {
            writer.join().unwrap();
        }
        drop(cache);

        let text = std::fs::read_to_string(dir.join(LOG)).unwrap();
        let mut lines_per_key: HashMap<u64, usize> = HashMap::new();
        for line in text.lines() {
            let (key, _) = parse_entry(&unseal(line).expect("intact line")).unwrap();
            *lines_per_key.entry(key).or_default() += 1;
        }
        assert_eq!(lines_per_key.len() as u64, rounds * 8 + 4);
        assert!(
            lines_per_key.values().all(|&n| n == 1),
            "every key on exactly one log line"
        );
    }

    #[test]
    fn torn_log_tail_is_dropped() {
        let dir = temp_dir("torn");
        let cache = Cache::open(&dir).unwrap();
        cache.insert_batch(&[(1, trial(0)), (2, trial(1))]).unwrap();
        drop(cache);

        let log = dir.join(LOG);
        let mut bytes = std::fs::read(&log).unwrap();
        bytes.extend_from_slice(b"{\"key\":\"00");
        std::fs::write(&log, &bytes).unwrap();

        let cache = Cache::open(&dir).unwrap();
        assert_eq!(cache.len(), 2);
        // Reopen compacted the torn tail away; a fresh insert then
        // reload sees all three entries.
        cache.insert_batch(&[(3, trial(2))]).unwrap();
        drop(cache);
        let cache = Cache::open(&dir).unwrap();
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn mid_log_corruption_keeps_later_entries_and_compacts() {
        let dir = temp_dir("midlog");
        let cache = Cache::open(&dir).unwrap();
        cache
            .insert_batch(&[(0x10, trial(0)), (0x11, trial(1)), (0x12, trial(2))])
            .unwrap();
        drop(cache);

        // Corrupt the *middle* line: flip payload bytes so the checksum
        // fails, leaving the line well-formed JSON.
        let log = dir.join(LOG);
        let text = std::fs::read_to_string(&log).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let tampered = lines[1].replace("\"seed\"", "\"sead\"");
        assert_ne!(tampered, lines[1]);
        std::fs::write(&log, format!("{}\n{}\n{}\n", lines[0], tampered, lines[2])).unwrap();

        // The entries before AND after the damaged line survive.
        let cache = Cache::open(&dir).unwrap();
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(0x10, 0).is_some());
        assert!(cache.lookup(0x11, 0).is_none(), "damaged entry is gone");
        assert!(cache.lookup(0x12, 0).is_some());
        drop(cache);

        // The log was compacted back to exactly its valid lines, and
        // keeps working for appends + reloads.
        let text = std::fs::read_to_string(&log).unwrap();
        assert_eq!(text.lines().count(), 2);
        let cache = Cache::open(&dir).unwrap();
        cache.insert_batch(&[(0x13, trial(3))]).unwrap();
        drop(cache);
        let cache = Cache::open(&dir).unwrap();
        assert_eq!(cache.len(), 3);
    }

    /// Opens a cache over `damaged` log bytes and checks the recovery
    /// contract: no panic, no error, only entries as inserted; the
    /// compacted log reopens to the same map and accepts an append.
    fn check_recovery(dir: &Path, damaged: &[u8], inserted: &HashMap<u64, TrialResult>) {
        std::fs::write(dir.join(LOG), damaged).unwrap();
        let loaded = entries(&Cache::open(dir).expect("damage is not an error"));
        for (key, trial) in &loaded {
            assert_eq!(inserted.get(key), Some(trial), "key {key:#x} altered");
        }
        let cache = Cache::open(dir).unwrap();
        assert_eq!(entries(&cache), loaded, "compaction changed the map");
        cache.insert_batch(&[(0xfeed, trial(9))]).unwrap();
        drop(cache);
        let mut expected = loaded;
        expected.insert(0xfeed, trial(9));
        assert_eq!(entries(&Cache::open(dir).unwrap()), expected);
    }

    #[test]
    fn damage_at_every_byte_offset_is_contained() {
        let dir = temp_dir("every-offset");
        let inserted: HashMap<u64, TrialResult> =
            [(0x0100_0000_0000_0007, trial(0)), (0x22, trial(1))].into();
        let mut batch: Vec<_> = inserted.iter().map(|(k, t)| (*k, *t)).collect();
        batch.sort_by_key(|(k, _)| *k);
        Cache::open(&dir).unwrap().insert_batch(&batch).unwrap();
        let log = std::fs::read(dir.join(LOG)).unwrap();

        for cut in 0..log.len() {
            check_recovery(&dir, &log[..cut], &inserted);
        }
        // Flip the low bit (still ASCII: the checksum must catch it) and
        // the high bit (no longer UTF-8) of every byte.
        for at in 0..log.len() {
            for mask in [0x01, 0x80] {
                let mut damaged = log.clone();
                damaged[at] ^= mask;
                check_recovery(&dir, &damaged, &inserted);
            }
        }
    }
}
