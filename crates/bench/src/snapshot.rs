//! The one BENCH snapshot shape and its one writer.
//!
//! A snapshot is `{snapshot, host_cpus, note, runs}`, and `runs` is a
//! flat list of rows `{workload, threads, comparable, seconds_per_iter,
//! iters_per_second}`, each followed by its named counts (`states`,
//! `bytes_per_state`, `edges`, `graph_bytes_per_state`,
//! `sccs_examined`, `trials`). A workload named `group/case` is one
//! case of a family. Ratios are not stored: a reader divides by the
//! `threads: 1` row of the same workload. `comparable` is `false` when
//! the row used more threads than the host has CPUs.

use crate::{fmt_secs, seconds_per_iter, write_snapshot};
use tta_base::json::{json_obj, json_rounded, Json};

/// What a BENCH snapshot says about rows run with more threads than
/// the host has CPUs.
const SNAPSHOT_NOTE: &str = "entries with comparable=false used more threads than host CPUs \
     and only time-slice one core; judge scaling on comparable entries";

/// One snapshot row: a workload at a thread count, its time per call
/// and its named counts.
#[derive(Debug)]
pub struct Row {
    workload: String,
    threads: usize,
    seconds_per_iter: f64,
    counts: Vec<(&'static str, Json)>,
}

impl Row {
    /// Adds an integer count (`states`, `edges`, `trials`, ...).
    pub fn count(&mut self, name: &'static str, value: u64) -> &mut Row {
        self.counts.push((name, Json::UInt(value)));
        self
    }

    /// Adds a footprint in bytes per state, rounded to 0.1 B.
    pub fn per_state(&mut self, name: &'static str, bytes: f64) -> &mut Row {
        self.counts.push((name, json_rounded(bytes, 1)));
        self
    }

    fn to_json(&self, host_cpus: usize) -> Json {
        let mut fields = vec![
            ("workload".to_string(), Json::str(self.workload.as_str())),
            ("threads".to_string(), Json::UInt(self.threads as u64)),
            (
                "comparable".to_string(),
                Json::Bool(self.threads <= host_cpus),
            ),
            (
                "seconds_per_iter".to_string(),
                json_rounded(self.seconds_per_iter, 12),
            ),
            (
                "iters_per_second".to_string(),
                json_rounded(1.0 / self.seconds_per_iter, 1),
            ),
        ];
        fields.extend(
            self.counts
                .iter()
                .map(|(name, value)| ((*name).to_string(), value.clone())),
        );
        Json::Obj(fields)
    }
}

/// The rows of one snapshot, each printed as it is recorded.
#[derive(Debug)]
pub struct Runs {
    snapshot: &'static str,
    host_cpus: usize,
    rows: Vec<Row>,
}

impl Runs {
    /// An empty snapshot named `snapshot`, for this host's CPUs
    /// ([`tta_base::default_threads`]).
    #[must_use]
    pub fn new(snapshot: &'static str) -> Runs {
        Runs {
            snapshot,
            host_cpus: tta_base::default_threads(),
            rows: Vec::new(),
        }
    }

    /// The host CPUs the rows' `comparable` flags are judged against.
    #[must_use]
    pub fn host_cpus(&self) -> usize {
        self.host_cpus
    }

    /// Times one call of `f` with [`seconds_per_iter`] and records it.
    pub fn time<R>(&mut self, workload: &str, threads: usize, f: impl FnMut() -> R) -> &mut Row {
        let secs = seconds_per_iter(f);
        self.record(workload, threads, secs)
    }

    /// Records a row whose call took `seconds_per_iter`.
    pub fn record(&mut self, workload: &str, threads: usize, seconds_per_iter: f64) -> &mut Row {
        println!(
            "{workload:<46} {threads} thread(s)  {:>9}",
            fmt_secs(seconds_per_iter)
        );
        self.rows.push(Row {
            workload: workload.to_string(),
            threads,
            seconds_per_iter,
            counts: Vec::new(),
        });
        self.rows.last_mut().expect("just pushed")
    }

    /// The snapshot document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        json_obj([
            ("snapshot", Json::str(self.snapshot)),
            ("host_cpus", Json::UInt(self.host_cpus as u64)),
            ("note", Json::str(SNAPSHOT_NOTE)),
            (
                "runs",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|row| row.to_json(self.host_cpus))
                        .collect(),
                ),
            ),
        ])
    }

    /// Writes the snapshot to `path`, exiting with an error line if it
    /// cannot.
    pub fn write(&self, path: &str) {
        write_snapshot(path, &self.to_json());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(value: &Json) -> Vec<&str> {
        match value {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }

    /// A row's workload, thread count and named counts, in order.
    type Expected<'a> = (&'a str, u64, &'a [(&'a str, Json)]);

    const ROW_KEYS: [&str; 5] = [
        "workload",
        "threads",
        "comparable",
        "seconds_per_iter",
        "iters_per_second",
    ];

    /// Rows shaped like each producer's: a hot path with no counts, the
    /// explorer (states, and bytes per state at one thread), the
    /// daemon (trials) and the liveness build and check.
    #[test]
    fn every_producers_rows_parse_back_in_key_order() {
        let mut runs = Runs::new("hot_paths");
        runs.record("json/parse_cache_line", 1, 2.5e-7);
        runs.record("explore/small_shifting", 1, 0.08)
            .count("states", 40_055)
            .per_state("bytes_per_state", 62.17);
        runs.record("explore/small_shifting", 2, 0.05)
            .count("states", 40_055);
        runs.record("campaignd/cold_1024", 4, 0.04)
            .count("trials", 1024);
        runs.record("liveness_build/full_shifting", 1, 5.0)
            .count("states", 3_608_225)
            .count("edges", 19_000_000)
            .per_state("graph_bytes_per_state", 162.14);
        runs.record("liveness_check/full_shifting", 8, 0.4)
            .count("sccs_examined", 8_435_684);

        let parsed = Json::parse(&runs.to_json().render_pretty()).expect("valid JSON");
        assert_eq!(keys(&parsed), ["snapshot", "host_cpus", "note", "runs"]);
        assert_eq!(
            parsed.get("snapshot").and_then(Json::as_str),
            Some("hot_paths")
        );
        let host_cpus = parsed
            .get("host_cpus")
            .and_then(Json::as_u64)
            .expect("host_cpus");
        assert_eq!(host_cpus, runs.host_cpus() as u64);
        let rows = parsed.get("runs").and_then(Json::as_arr).expect("runs");
        let expected: [Expected; 6] = [
            ("json/parse_cache_line", 1, &[]),
            (
                "explore/small_shifting",
                1,
                &[
                    ("states", Json::UInt(40_055)),
                    ("bytes_per_state", Json::Float(62.2)),
                ],
            ),
            (
                "explore/small_shifting",
                2,
                &[("states", Json::UInt(40_055))],
            ),
            ("campaignd/cold_1024", 4, &[("trials", Json::UInt(1024))]),
            (
                "liveness_build/full_shifting",
                1,
                &[
                    ("states", Json::UInt(3_608_225)),
                    ("edges", Json::UInt(19_000_000)),
                    ("graph_bytes_per_state", Json::Float(162.1)),
                ],
            ),
            (
                "liveness_check/full_shifting",
                8,
                &[("sccs_examined", Json::UInt(8_435_684))],
            ),
        ];
        assert_eq!(rows.len(), expected.len());
        for (row, (workload, threads, counts)) in rows.iter().zip(expected) {
            let row_keys = keys(row);
            assert_eq!(row_keys[..5], ROW_KEYS, "{workload}");
            let count_keys: Vec<&str> = counts.iter().map(|(k, _)| *k).collect();
            assert_eq!(row_keys[5..], count_keys, "{workload}");
            assert_eq!(row.get("workload").and_then(Json::as_str), Some(workload));
            assert_eq!(row.get("threads"), Some(&Json::UInt(threads)));
            assert_eq!(
                row.get("comparable"),
                Some(&Json::Bool(threads <= host_cpus)),
                "{workload} at {threads} threads"
            );
            for (name, value) in counts {
                assert_eq!(row.get(name), Some(value), "{workload}: {name}");
            }
        }
        assert_eq!(rows[1].get("seconds_per_iter"), Some(&Json::Float(0.08)));
        assert_eq!(rows[1].get("iters_per_second"), Some(&Json::Float(12.5)));
        assert_eq!(rows[4].get("iters_per_second"), Some(&Json::Float(0.2)));
    }
}
