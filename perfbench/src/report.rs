//! The metric catalogue and the result line.
//!
//! An untraced run reports exactly [`END_TO_END`]; a traced run
//! exactly [`PER_LAYER`]. A per-layer metric of a layer the workload
//! does not run on reads 0. `BENCHMARK.json` at the repository root
//! lists the same names and units (a test keeps them in step).

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("write_p50_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("core.op_self_us_p50", "us"),
    ("core.aborts_per_op", "1/op"),
    ("core.deadlock_victims", "count"),
    ("core.retries_per_op", "1/op"),
    ("locks.waits_per_op", "1/op"),
    ("locks.wait_us_per_op", "us/op"),
    ("locks.hot_shard_share", "share"),
    ("store.commit_us_p50", "us"),
    ("store.commit_us_p99", "us"),
    ("store.commits_per_op", "1/op"),
    ("store.commit_busy_share", "share"),
    ("store.fsyncs_per_commit", "1/commit"),
    ("store.dir_fsyncs_per_commit", "1/commit"),
    ("store.user_bytes_per_commit", "B/commit"),
    ("store.queue_depth_mean", "batches"),
    ("store.ckpt_backlog_max", "batches"),
    ("store.recovery_s", "s"),
    ("store.replayed_batches", "count"),
    ("store.installed_objects", "count"),
    ("versions.count_max", "count"),
    ("versions.gc_backlog_max", "count"),
    ("structures.serializing_read.p50_us", "us"),
    ("structures.serializing_read.p99_us", "us"),
    ("structures.serializing_write.p50_us", "us"),
    ("structures.serializing_write.p99_us", "us"),
    ("structures.serializing_structure.p50_us", "us"),
    ("structures.serializing_structure.p99_us", "us"),
    ("structures.glued_read.p50_us", "us"),
    ("structures.glued_read.p99_us", "us"),
    ("structures.glued_write.p50_us", "us"),
    ("structures.glued_write.p99_us", "us"),
    ("structures.glued_structure.p50_us", "us"),
    ("structures.glued_structure.p99_us", "us"),
    ("structures.independent_read.p50_us", "us"),
    ("structures.independent_read.p99_us", "us"),
    ("structures.independent_write.p50_us", "us"),
    ("structures.independent_write.p99_us", "us"),
    ("structures.independent_structure.p50_us", "us"),
    ("structures.independent_structure.p99_us", "us"),
    ("structures.snapshot_read.p50_us", "us"),
    ("structures.snapshot_read.p99_us", "us"),
    ("structures.snapshot_write.p50_us", "us"),
    ("structures.snapshot_write.p99_us", "us"),
    ("obs.events_per_op", "1/op"),
    ("node.coord_cpu_ms_per_txn", "ms/txn"),
    ("node.worker_cpu_ms_per_txn", "ms/txn"),
    ("node.worker_wchar_bytes_per_txn", "B/txn"),
    ("node.worker_prepare_us_p50", "us"),
    ("tpc.vote_collection_us_p50", "us"),
    ("tpc.resolution_us_p50", "us"),
    ("tpc.msgs_per_txn", "1/txn"),
    ("tpc.history_growth", "ratio"),
    ("bench.trace_overhead", "ratio"),
    ("bench.read_p50_us", "us"),
    ("bench.read_p99_us", "us"),
    ("bench.write_p99_us", "us"),
    ("bench.error_rate", "share"),
];

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    /// An empty set.
    #[must_use]
    pub fn new() -> Self {
        Values::default()
    }

    /// Sets one value.
    pub fn put(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_owned(), value);
    }
}

/// What one run found.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Correctness failures; empty when the run is correct.
    pub problems: Vec<String>,
    /// Measured values.
    pub values: Values,
    /// Detail lines for the human-readable report.
    pub notes: Vec<String>,
}

/// The result line: one JSON object with the catalogue's metrics, in
/// catalogue order. Fails on a value outside the catalogue, a missing
/// end-to-end value or a non-finite value.
///
/// # Errors
///
/// A description of the first inconsistency.
pub fn result_line(outcome: &Outcome, traced: bool) -> Result<String, String> {
    let catalogue: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    if let Some(extra) = outcome
        .values
        .0
        .keys()
        .find(|k| !catalogue.iter().any(|(n, _)| n == k))
    {
        return Err(format!("metric {extra} is not in the catalogue"));
    }
    let mut metrics = Vec::with_capacity(catalogue.len());
    for &(name, unit) in catalogue {
        let value = match outcome.values.0.get(name) {
            Some(&v) => v,
            None if traced => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        metrics.push(format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#));
    }
    Ok(format!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        outcome.problems.is_empty(),
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(values: Values) -> Outcome {
        Outcome {
            attempted: 3,
            failed: 0,
            problems: Vec::new(),
            values,
            notes: Vec::new(),
        }
    }

    #[test]
    fn end_to_end_line_has_every_metric() {
        let mut v = Values::new();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            v.put(name, 0.5 + i as f64);
        }
        let line = result_line(&outcome(v), false).unwrap();
        assert!(line.starts_with(r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"#));
        assert!(line.contains(r#""setup_s":{"value":0.5,"unit":"s"}"#));
        assert!(line.contains(r#""peak_rss_mb":{"value":4.5,"unit":"MiB"}"#));
    }

    #[test]
    fn inconsistencies_are_refused() {
        assert!(result_line(&outcome(Values::new()), false).is_err());
        let mut v = Values::new();
        v.put("no.such", 1.0);
        assert!(result_line(&outcome(v), true).is_err());
        let mut v = Values::new();
        v.put("tpc.history_growth", f64::NAN);
        assert!(result_line(&outcome(v), true).is_err());
        let line = result_line(&outcome(Values::new()), true).unwrap();
        assert_eq!(line.matches(r#""value":0,"#).count(), PER_LAYER.len());
    }

    /// `BENCHMARK.json` names the same metrics with the same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!(r#"{{"name": "{name}", "unit": "{unit}""#);
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches(r#""unit": "#).count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }
}
