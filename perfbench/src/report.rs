//! What a workload run produces, and the metric catalogue the output
//! contract is written against. The names and units here are the ones
//! `BENCHMARK.json` lists; a test keeps the two in step.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run, on every workload.
/// What an "op" is differs per workload; `perfbench/predictions.json`
/// states it.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run. A layer the workload
/// does not exercise reports 0.
pub const LAYERS: &[(&str, &str)] = &[
    ("columnar.open_ms", "ms"),
    ("columnar.store_bytes", "bytes"),
    ("scan.scan1_ms", "ms"),
    ("vertical.scan2_ms", "ms"),
    ("vertical.derive_ms", "ms"),
    ("vertical.and_ops", "count"),
    ("vertical.bitmap_bytes", "bytes"),
    ("hitset.scan2_ms", "ms"),
    ("hitset.derive_ms", "ms"),
    ("hitset.tree_nodes", "count"),
    ("mine.vertical_ms_p50", "ms"),
    ("mine.hitset_ms_p50", "ms"),
    ("mine.unattributed_ms", "ms"),
    ("sweep.wall_ms_p50", "ms"),
    ("sweep.speedup", "x"),
    ("sweep.busy_frac", "frac"),
    ("appender.open_ms", "ms"),
    ("appender.publish_ms", "ms"),
    ("appender.write_amp", "x"),
    ("incremental.rederive_us", "us"),
    ("incremental.carried_frac", "frac"),
    ("serve.queue_wait_us_p50", "us"),
    ("serve.service_us_p50", "us"),
    ("serve.cache_lookup_us_p50", "us"),
    ("serve.cache_answer_frac", "frac"),
    ("serve.evictions", "count"),
    ("serve.wire_accept_us", "us"),
    ("protocol.encode_us", "us"),
    ("protocol.decode_us", "us"),
    ("protocol.response_bytes", "bytes"),
    ("protocol.fresh_conn_rtt_us", "us"),
    ("protocol.keepalive_rtt_us", "us"),
    ("client.attempts_per_query", "count"),
    ("client.reader_ms_p50", "ms"),
    ("client.reader_ms_tail", "ms"),
    ("observe.trace_overhead_frac", "frac"),
];

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    E2E.iter()
        .chain(LAYERS)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// One workload run's results.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured window (including checks of
    /// their answers).
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// Catalogued metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Figures outside the catalogue: the workload-specific names the
    /// metric predictions cite (`mine_vertical_ms_p50`, `fresh_ms_p50`, …),
    /// sample counts and tail percentiles. Printed and recorded, never
    /// part of the contract line.
    pub info: Vec<(String, f64, String)>,
    /// Human-readable report lines (workload record, reconciliations).
    pub lines: Vec<String>,
}

impl Outcome {
    /// Sets a catalogued metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(unit_of(name).is_some(), "{name} is not catalogued");
        self.values.insert(name, value);
    }

    /// Records an informational figure.
    pub fn info(&mut self, name: &str, value: f64, unit: &str) {
        self.info.push((name.to_owned(), value, unit.to_owned()));
    }

    /// Adds a report line.
    pub fn line(&mut self, text: String) {
        self.lines.push(text);
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_observe::Json;

    /// The metric names, units and directions in `BENCHMARK.json` are the
    /// ones this program prints.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let spec = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap().to_owned(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_owned(),
                    )
                })
                .collect()
        };
        let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(E2E));
        assert_eq!(listed("per_layer"), ours(LAYERS));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    /// `predictions.json` names only metrics this program prints, and its
    /// data specs are the ones the workloads generate.
    #[test]
    fn predictions_cite_real_metrics_and_specs() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/predictions.json"))
                .expect("predictions.json beside the manifest");
        let p = Json::parse(&text).expect("predictions.json parses");
        for pred in p.get("predictions").and_then(Json::as_arr).unwrap() {
            for m in pred.get("metrics").and_then(Json::as_arr).unwrap() {
                let m = m.as_str().unwrap();
                assert!(unit_of(m).is_some(), "unknown metric {m}");
            }
            if let Some(m) = pred.get("moves").and_then(Json::as_str) {
                assert!(unit_of(m).is_some(), "unknown metric {m}");
            }
            let w = pred.get("workload").and_then(Json::as_str).unwrap();
            assert!(crate::WORKLOADS.contains(&w), "unknown workload {w}");
        }
        let specs = [
            crate::batch::table1_spec(0),
            crate::served::hot_spec(0),
            crate::batch::table1_spec(0),
        ];
        let workloads = p.get("workloads").and_then(Json::as_arr).unwrap();
        assert_eq!(workloads.len(), crate::WORKLOADS.len());
        for ((w, name), spec) in workloads.iter().zip(crate::WORKLOADS).zip(specs) {
            assert_eq!(w.get("name").and_then(Json::as_str), Some(name));
            let d = w.get("data").unwrap();
            let n = |k: &str| d.get(k).and_then(Json::as_u64).unwrap() as usize;
            assert_eq!(
                (n("length"), n("period"), n("max_pat_length"), n("f1")),
                (spec.length, spec.period, spec.max_pat_length, spec.f1_count),
                "{name}"
            );
        }
    }
}
