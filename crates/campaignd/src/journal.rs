//! The append-only job journal: crash-safe records of the verdicts a
//! job quarantined.
//!
//! At most one journal file per job, named by the job hash. A completed
//! trial's one durable record is its result-cache entry
//! ([`crate::cache`]); the journal keeps what the cache cannot, the
//! trials this job's retry budget gave up on, since those depend on the
//! run's chaos and supervision, not on the trial key. So a clean sweep
//! leaves no journal at all: the file, its directory and its header
//! line are created by the first batch that quarantines a trial. The
//! runner's emitter appends one record per chunk that quarantined a
//! trial, holding only those verdicts, as one batch with one
//! `sync_data`, and streams none of those chunks before that sync
//! returns. Each line carries its own FNV checksum, so a journal
//! torn mid-write by a crash degrades cleanly: on reopen, the valid
//! prefix is kept, the torn tail is truncated away, and at most the
//! quarantines of the one interrupted batch — none of them streamed —
//! are redone. Nothing in the file is ever rewritten.
//!
//! Format (NDJSON; records in completion order, not index order):
//!
//! ```text
//! {"journal":"tta-campaignd","job":"<16-hex>","chunk_size":8,"check":"<16-hex>"}
//! {"chunk":0,"trials":[{"index":5,"seed":...,"quarantined":"panic"}],"check":"<16-hex>"}
//! ```
//!
//! Journals from before the cache log held every completed trial carry
//! whole chunks; every verdict a journal holds is replayed, by index.
//!
//! A sealed line (every journal line, and every line of the result
//! cache's log) ends in its `check` field. The check is the FNV-1a hash
//! of the line's bytes before that field, closed with `}`: the body's
//! canonical rendering, since `seal` hashes exactly what it writes.
//! `unseal` verifies it on those bytes as read, then parses the line
//! once; nothing is re-rendered. A line whose check is not its last
//! field, or whose bytes before it are not the ones hashed (a space
//! inserted, a digit flipped), is damaged.

use crate::hash::{fnv1a64, to_hex};
use crate::json::Json;
use crate::runner::TrialVerdict;
use crate::spec::{verdict_from_json, verdict_to_fields};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, ErrorKind, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use tta_base::hash::fnv1a64_extend;

/// Trials per journaled chunk. Fixed (not tunable per job) so that a
/// sweep resumed under a different worker count still partitions
/// identically and every journaled chunk stays valid.
pub const CHUNK_SIZE: u32 = 8;

/// One journal record: verdicts of trials in one chunk, in trial-index
/// order — the ones the chunk quarantined (a journal from an earlier
/// build may hold all `CHUNK_SIZE` of them). Resumption replays each
/// instead of re-running the poisoned simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkRecord {
    /// Chunk index; covers trials `chunk * CHUNK_SIZE ..`.
    pub chunk: u32,
    /// The journaled verdicts, in index order.
    pub trials: Vec<TrialVerdict>,
}

impl ChunkRecord {
    fn to_line(&self) -> String {
        let body = Json::Obj(vec![
            ("chunk".to_string(), Json::UInt(u64::from(self.chunk))),
            (
                "trials".to_string(),
                Json::Arr(
                    self.trials
                        .iter()
                        .map(|v| Json::Obj(verdict_to_fields(v)))
                        .collect(),
                ),
            ),
        ]);
        seal(&body)
    }

    fn from_value(value: &Json) -> Option<ChunkRecord> {
        let chunk = u32::try_from(value.get("chunk")?.as_u64()?).ok()?;
        let trials = value
            .get("trials")?
            .as_arr()?
            .iter()
            .map(|t| verdict_from_json(t).ok())
            .collect::<Option<Vec<_>>>()?;
        Some(ChunkRecord { chunk, trials })
    }
}

/// What a sealed line holds between the body and the check's 16 hex
/// digits.
const CHECK_FIELD: &str = ",\"check\":\"";

/// Renders `body` (a non-empty object) once and inserts its `check`
/// field, the FNV-1a of that rendering, before the closing brace.
/// Shared with the result cache, whose log uses the same self-checking
/// line format.
pub(crate) fn seal(body: &Json) -> String {
    let mut line = body.render();
    let check = to_hex(fnv1a64(line.as_bytes()));
    let close = line.pop();
    assert!(
        close == Some('}') && line.len() > 1,
        "sealed lines are non-empty objects"
    );
    line.push_str(CHECK_FIELD);
    line.push_str(&check);
    line.push_str("\"}");
    line
}

/// Verifies a sealed line's trailing `check` field against the line's
/// own bytes before it, closed with `}`, then parses the line once;
/// returns the body without the check.
pub(crate) fn unseal(line: &str) -> Option<Json> {
    let rest = line.strip_suffix("\"}")?;
    let (head, claimed) = rest.split_at_checked(rest.len().checked_sub(16)?)?;
    let head = head.strip_suffix(CHECK_FIELD)?;
    if to_hex(fnv1a64_extend(fnv1a64(head.as_bytes()), b"}")) != claimed {
        return None;
    }
    let Ok(Json::Obj(mut fields)) = Json::parse(line) else {
        return None;
    };
    // The line parsed and ends in `,"check":"<hex>"}`, so its last
    // field is the check.
    fields.pop();
    Some(Json::Obj(fields))
}

/// The first line of a job's journal: which job and chunk size its
/// records belong to.
pub(crate) fn header_line(job_hash: u64) -> String {
    seal(&Json::Obj(vec![
        ("journal".to_string(), Json::str("tta-campaignd")),
        ("job".to_string(), Json::str(to_hex(job_hash))),
        ("chunk_size".to_string(), Json::UInt(u64::from(CHUNK_SIZE))),
    ]))
}

/// A job's journal, positioned to append.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    job_hash: u64,
    /// The file, open at its end after a valid header; `None` until the
    /// first append creates it.
    file: Option<File>,
    /// Verdicts recovered from the valid prefix at open time, by trial
    /// index.
    recovered: HashMap<u32, TrialVerdict>,
}

impl Journal {
    /// Opens the journal for `job_hash` at `path`, creating nothing: a
    /// missing file is an empty journal, created by its first append.
    ///
    /// An existing file is scanned line by line; scanning stops at the
    /// first line that is not UTF-8 or fails to parse or checksum (a
    /// torn or damaged tail), and the file is truncated back to the
    /// valid prefix. A file without a valid header, or whose header
    /// names a different job or chunk size, is deleted: it belongs to a
    /// different sweep definition.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors. A *corrupt* journal is not an
    /// error — corruption means less resumable work, never a failed
    /// open.
    pub fn open(path: &Path, job_hash: u64) -> std::io::Result<Journal> {
        let mut journal = Journal {
            path: path.to_path_buf(),
            job_hash,
            file: None,
            recovered: HashMap::new(),
        };
        let mut file = match OpenOptions::new().read(true).write(true).open(path) {
            Ok(file) => file,
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(journal),
            Err(e) => return Err(e),
        };

        let mut valid_len: u64 = 0;
        {
            let mut reader = BufReader::new(&mut file);
            let mut line = Vec::new();
            let mut header_seen = false;
            loop {
                line.clear();
                let n = reader.read_until(b'\n', &mut line)?;
                // EOF, a torn (newline-less) tail, or a damaged line.
                let Some(body) = line
                    .strip_suffix(b"\n")
                    .and_then(|l| std::str::from_utf8(l).ok())
                    .and_then(unseal)
                else {
                    break;
                };
                if !header_seen {
                    let job_ok =
                        body.get("job").and_then(Json::as_str) == Some(to_hex(job_hash).as_str());
                    let size_ok = body.get("chunk_size").and_then(Json::as_u64)
                        == Some(u64::from(CHUNK_SIZE));
                    if !job_ok || !size_ok {
                        break; // Different sweep: keep nothing.
                    }
                    header_seen = true;
                } else {
                    let Some(record) = ChunkRecord::from_value(&body) else {
                        break;
                    };
                    journal
                        .recovered
                        .extend(record.trials.into_iter().map(|v| (v.index(), v)));
                }
                valid_len += n as u64;
            }
        }

        if valid_len == 0 {
            drop(file);
            std::fs::remove_file(path)?;
        } else {
            file.set_len(valid_len)?;
            file.seek(SeekFrom::Start(valid_len))?;
            journal.file = Some(file);
        }
        Ok(journal)
    }

    /// Verdicts recovered at open time, by trial index.
    #[cfg(test)]
    pub(crate) fn recovered(&self) -> &HashMap<u32, TrialVerdict> {
        &self.recovered
    }

    /// Takes the recovered verdicts out of the journal, by trial index.
    pub fn take_recovered(&mut self) -> HashMap<u32, TrialVerdict> {
        std::mem::take(&mut self.recovered)
    }

    /// Appends one record and syncs it to disk before returning — once
    /// `append` returns, a crash cannot lose it. The one-record case of
    /// [`Journal::append_batch`].
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn append(&mut self, record: &ChunkRecord) -> std::io::Result<()> {
        self.append_batch(std::slice::from_ref(record))
    }

    /// Appends records, one line (and one write) each, then syncs once
    /// — once `append_batch` returns, a crash cannot lose any of them.
    /// The first non-empty batch first creates the file (and its
    /// directory) and writes its header; the one sync covers both. An
    /// empty batch creates, writes and syncs nothing.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn append_batch(&mut self, records: &[ChunkRecord]) -> std::io::Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        let file = match &mut self.file {
            Some(file) => file,
            None => {
                if let Some(parent) = self.path.parent() {
                    std::fs::create_dir_all(parent)?;
                }
                let mut file = File::create(&self.path)?;
                write_line(&mut file, header_line(self.job_hash))?;
                self.file.insert(file)
            }
        };
        for record in records {
            write_line(file, record.to_line())?;
        }
        file.sync_data()
    }
}

fn write_line(file: &mut File, mut line: String) -> std::io::Result<()> {
    line.push('\n');
    file.write_all(line.as_bytes())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::runner::{QuarantineReason, QuarantinedTrial};
    use std::path::Path;
    use tta_sim::{Outcome, RecoveryOutcome, TrialResult};

    /// A journal's header and last record exactly as an earlier daemon
    /// build wrote them (a 10-trial job whose trial 9 was quarantined).
    /// Journals on disk hold these bytes, so they must keep loading.
    const PINNED_JOB: u64 = 0x21dd_1412_012b_29f7;
    const PINNED_HEADER: &str = concat!(
        r#"{"journal":"tta-campaignd","job":"21dd1412012b29f7","chunk_size":8,"#,
        r#""check":"93ba4e75ed10c8ca"}"#
    );
    const PINNED_RECORD: &str = concat!(
        r#"{"chunk":1,"trials":[{"index":8,"seed":14992441089076511020,"#,
        r#""outcome":"contained","recovery":"contained","unavailability":0.045,"#,
        r#""ttr":null},{"index":9,"seed":15434866093310896585,"quarantined":"panic"}],"#,
        r#""check":"462fbb00eeba8d5a"}"#
    );

    /// What a journal holding `written` recovers: every verdict, by
    /// trial index.
    fn by_index(written: &[ChunkRecord]) -> HashMap<u32, TrialVerdict> {
        written
            .iter()
            .flat_map(|record| record.trials.iter().map(|v| (v.index(), v.clone())))
            .collect()
    }

    fn pinned_record() -> ChunkRecord {
        ChunkRecord {
            chunk: 1,
            trials: vec![
                TrialVerdict::Completed(TrialResult {
                    index: 8,
                    seed: 14_992_441_089_076_511_020,
                    outcome: Outcome::Contained,
                    recovery: RecoveryOutcome::Contained,
                    unavailability: 0.045,
                    time_to_reintegration: None,
                }),
                TrialVerdict::Quarantined(QuarantinedTrial {
                    index: 9,
                    seed: 15_434_866_093_310_896_585,
                    reason: QuarantineReason::Panic,
                }),
            ],
        }
    }

    /// Three damaged copies of a sealed line: its check field moved
    /// before the first field, a space after the first colon, and its
    /// last hex digit changed.
    pub(crate) fn near_misses(line: &str) -> [String; 3] {
        // `,"check":"<16 hex>"}` closes every sealed line.
        let (body, check) = line.split_at(line.len() - CHECK_FIELD.len() - 18);
        let check = &check[1..check.len() - 1];
        let last = if line.ends_with("0\"}") { "1" } else { "0" };
        [
            format!("{{{check},{}}}", &body[1..]),
            line.replacen(':', ": ", 1),
            format!("{}{last}\"}}", &line[..line.len() - 3]),
        ]
    }

    #[test]
    fn pinned_journal_lines_still_load() {
        let path = temp_path("pinned");
        let text = format!("{PINNED_HEADER}\n{PINNED_RECORD}\n");
        std::fs::write(&path, &text).unwrap();
        let journal = Journal::open(&path, PINNED_JOB).unwrap();
        assert_eq!(journal.recovered(), &by_index(&[pinned_record()]));
        drop(journal);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            text,
            "nothing truncated"
        );
    }

    #[test]
    fn a_header_only_journal_from_an_earlier_build_still_opens() {
        // Earlier builds wrote the header at open, so every job left
        // one; it recovers nothing and takes records after it.
        let path = temp_path("header-only");
        std::fs::write(&path, format!("{PINNED_HEADER}\n")).unwrap();
        let mut journal = Journal::open(&path, PINNED_JOB).unwrap();
        assert!(journal.recovered().is_empty());
        journal.append(&pinned_record()).unwrap();
        drop(journal);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            format!("{PINNED_HEADER}\n{PINNED_RECORD}\n")
        );
    }

    #[test]
    fn only_the_first_record_creates_the_journal() {
        let dir =
            std::env::temp_dir().join(format!("campaignd-journal-lazy-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("jobs").join("job.journal");
        let mut journal = Journal::open(&path, PINNED_JOB).unwrap();
        assert!(journal.recovered().is_empty());
        journal.append_batch(&[]).unwrap();
        assert!(!dir.exists(), "opening and an empty batch create nothing");
        journal.append(&pinned_record()).unwrap();
        drop(journal);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            format!("{PINNED_HEADER}\n{PINNED_RECORD}\n"),
            "the first record brings the header"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seal_reproduces_pinned_journal_lines() {
        assert_eq!(header_line(PINNED_JOB), PINNED_HEADER);
        assert_eq!(pinned_record().to_line(), PINNED_RECORD);
    }

    #[test]
    fn unseal_rejects_near_misses_of_pinned_lines() {
        for line in [PINNED_HEADER, PINNED_RECORD] {
            assert!(unseal(line).is_some(), "{line}");
            for damaged in near_misses(line) {
                assert_ne!(damaged, line);
                assert!(unseal(&damaged).is_none(), "{damaged}");
            }
        }
    }

    fn trial(index: u32) -> TrialVerdict {
        TrialVerdict::Completed(TrialResult {
            index,
            seed: u64::from(index) * 977,
            outcome: Outcome::Contained,
            recovery: RecoveryOutcome::Recovered,
            unavailability: f64::from(index) / 7.0,
            time_to_reintegration: if index.is_multiple_of(2) {
                Some(u64::from(index))
            } else {
                None
            },
        })
    }

    fn record(chunk: u32) -> ChunkRecord {
        let start = chunk * CHUNK_SIZE;
        ChunkRecord {
            chunk,
            trials: (start..start + CHUNK_SIZE).map(trial).collect(),
        }
    }

    #[test]
    fn quarantined_verdicts_round_trip() {
        let path = temp_path("quarantine");
        let _ = std::fs::remove_file(&path);
        let mut trials: Vec<TrialVerdict> = (0..CHUNK_SIZE).map(trial).collect();
        trials[3] = TrialVerdict::Quarantined(QuarantinedTrial {
            index: 3,
            seed: 3 * 977,
            reason: QuarantineReason::Panic,
        });
        trials[5] = TrialVerdict::Quarantined(QuarantinedTrial {
            index: 5,
            seed: 5 * 977,
            reason: QuarantineReason::Timeout,
        });
        let record = ChunkRecord { chunk: 0, trials };
        {
            let mut journal = Journal::open(&path, 0xBEEF).unwrap();
            journal.append(&record).unwrap();
        }
        let journal = Journal::open(&path, 0xBEEF).unwrap();
        assert_eq!(journal.recovered(), &by_index(&[record]));
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("campaignd-journal-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("job.journal")
    }

    #[test]
    fn journal_round_trips_chunks() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let mut journal = Journal::open(&path, 0xABCD).unwrap();
            assert!(journal.recovered().is_empty());
            journal.append(&record(2)).unwrap();
            journal.append(&record(0)).unwrap();
        }
        let journal = Journal::open(&path, 0xABCD).unwrap();
        assert_eq!(journal.recovered(), &by_index(&[record(0), record(2)]));
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        {
            let mut journal = Journal::open(&path, 7).unwrap();
            journal.append(&record(0)).unwrap();
            journal.append(&record(1)).unwrap();
        }
        // Simulate a crash mid-append: a truncated final line.
        let mut bytes = std::fs::read(&path).unwrap();
        let keep = bytes.len();
        bytes.extend_from_slice(b"{\"chunk\":2,\"trials\":[{\"ind");
        std::fs::write(&path, &bytes).unwrap();

        let mut journal = Journal::open(&path, 7).unwrap();
        assert_eq!(journal.recovered(), &by_index(&[record(0), record(1)]));
        assert_eq!(std::fs::metadata(&path).unwrap().len(), keep as u64);
        // The truncated journal accepts new appends cleanly.
        journal.append(&record(2)).unwrap();
        drop(journal);
        let journal = Journal::open(&path, 7).unwrap();
        assert_eq!(
            journal.recovered(),
            &by_index(&[record(0), record(1), record(2)])
        );
    }

    #[test]
    fn corrupted_line_stops_recovery_at_the_valid_prefix() {
        let path = temp_path("corrupt");
        let _ = std::fs::remove_file(&path);
        {
            let mut journal = Journal::open(&path, 9).unwrap();
            journal.append(&record(0)).unwrap();
            journal.append(&record(1)).unwrap();
            journal.append(&record(2)).unwrap();
        }
        // Flip a byte inside the *second* chunk line's payload.
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let mut bad = lines.clone();
        let tampered = lines[2].replace("\"chunk\":1", "\"chunk\":5");
        bad[2] = &tampered;
        std::fs::write(&path, format!("{}\n", bad.join("\n"))).unwrap();

        let journal = Journal::open(&path, 9).unwrap();
        // Only the chunk before the tampered line survives.
        assert_eq!(journal.recovered(), &by_index(&[record(0)]));
    }

    #[test]
    fn header_mismatch_discards_the_file() {
        let path = temp_path("mismatch");
        let _ = std::fs::remove_file(&path);
        {
            let mut journal = Journal::open(&path, 1).unwrap();
            journal.append(&record(0)).unwrap();
        }
        // Same path, different job hash (e.g. the scenario file was
        // edited): nothing may be resumed.
        let journal = Journal::open(&path, 2).unwrap();
        assert!(journal.recovered().is_empty());
        assert!(!path.exists(), "the other job's file is discarded");
    }

    /// Opens a journal over `damaged` bytes and checks the recovery
    /// contract: no panic, no error; every recovered verdict is one that
    /// was written, unaltered, so a wrong trial is never replayed;
    /// every record whose line ends within the first `intact` bytes is
    /// recovered; and the journal accepts one more append.
    fn check_recovery(
        path: &Path,
        damaged: &[u8],
        intact: usize,
        written: &[(ChunkRecord, usize)],
    ) {
        std::fs::write(path, damaged).unwrap();
        let mut journal = Journal::open(path, 0x5EED).expect("damage is not an error");
        let recovered = journal.recovered().clone();
        let all = by_index(&written.iter().map(|(r, _)| r.clone()).collect::<Vec<_>>());
        for (index, verdict) in &recovered {
            assert_eq!(all.get(index), Some(verdict), "trial {index} altered");
        }
        for (record, end) in written {
            if *end <= intact {
                assert!(
                    record
                        .trials
                        .iter()
                        .all(|v| recovered.contains_key(&v.index())),
                    "chunk {} lies before the damage at {intact} but was lost",
                    record.chunk
                );
            }
        }
        let extra = record(7);
        journal.append(&extra).unwrap();
        drop(journal);
        let mut expected = recovered;
        expected.extend(by_index(&[extra]));
        assert_eq!(Journal::open(path, 0x5EED).unwrap().recovered(), &expected);
    }

    #[test]
    fn damage_at_every_byte_offset_is_contained() {
        let path = temp_path("every-offset");
        let _ = std::fs::remove_file(&path);
        Journal::open(&path, 0x5EED)
            .unwrap()
            .append_batch(&[record(0), record(1)])
            .unwrap();
        let log = std::fs::read(&path).unwrap();
        // Where each record's line ends: after the header's newline,
        // the next two.
        let ends: Vec<usize> = log
            .iter()
            .enumerate()
            .filter(|(_, b)| **b == b'\n')
            .map(|(at, _)| at + 1)
            .collect();
        assert_eq!(ends.len(), 3, "a header and two records");
        let written = [(record(0), ends[1]), (record(1), ends[2])];

        for cut in 0..log.len() {
            check_recovery(&path, &log[..cut], cut, &written);
        }
        // Flip the low bit (still ASCII: the checksum must catch it) and
        // the high bit (no longer UTF-8) of every byte.
        for at in 0..log.len() {
            for mask in [0x01, 0x80] {
                let mut damaged = log.clone();
                damaged[at] ^= mask;
                check_recovery(&path, &damaged, at, &written);
            }
        }
    }
}
