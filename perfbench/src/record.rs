//! The versioned results schema, the trajectory file every run appends
//! to, and the compare mode that reads two sets of runs back.
//!
//! One record is one JSON line:
//!
//! ```text
//! {"schema":"perfbench.result/1","commit":"…","tree":"…","workload":"serve-hot",
//!  "seed":3,"trace":false,"seconds":20,"unix_time":…,"correct":true,
//!  "attempted":812,"failed":0,"metrics":{"op_ms_p50":{"value":5.3,"unit":"ms"},…},
//!  "info":{"query_ms_p50":{"value":5.3,"unit":"ms"},…}}
//! ```
//!
//! `metrics` holds the contract metrics of the run (end-to-end when
//! untraced, per-layer when traced); `info` the figures outside it.
//! A reader rejects any other `schema` value instead of guessing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

use ppm_observe::Json;

use crate::stats::{median, quartiles};

/// The schema tag written into and required of every record.
pub const SCHEMA: &str = "perfbench.result/1";

/// A metric value with its unit.
pub type Figures = BTreeMap<String, (f64, String)>;

/// One run's record.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// `PERFBENCH_COMMIT` from the environment, or `unknown`.
    pub commit: String,
    /// Content hash of the sources the run built from.
    pub tree: String,
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub seconds: u64,
    pub unix_time: u64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Figures,
    pub info: Figures,
}

/// `{"name": {"value": v, "unit": u}, …}`, the shape of both a record's
/// figures and the contract line's `metrics`.
pub fn figures_json(f: &Figures) -> Json {
    Json::Obj(
        f.iter()
            .map(|(k, (v, u))| {
                (
                    k.clone(),
                    Json::Obj(vec![
                        ("value".to_owned(), Json::Num(*v)),
                        ("unit".to_owned(), Json::Str(u.clone())),
                    ]),
                )
            })
            .collect(),
    )
}

fn figures_from(j: Option<&Json>) -> Result<Figures, String> {
    let Some(Json::Obj(members)) = j else {
        return Err("missing figures object".into());
    };
    members
        .iter()
        .map(|(k, v)| {
            let value = v
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{k}: missing value"))?;
            let unit = v.get("unit").and_then(Json::as_str).unwrap_or("");
            Ok((k.clone(), (value, unit.to_owned())))
        })
        .collect()
}

impl Record {
    /// Renders the record as one JSON line.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".to_owned(), Json::Str(SCHEMA.to_owned())),
            ("commit".to_owned(), Json::Str(self.commit.clone())),
            ("tree".to_owned(), Json::Str(self.tree.clone())),
            ("workload".to_owned(), Json::Str(self.workload.clone())),
            ("seed".to_owned(), Json::from_u64(self.seed)),
            ("trace".to_owned(), Json::Bool(self.trace)),
            ("seconds".to_owned(), Json::from_u64(self.seconds)),
            ("unix_time".to_owned(), Json::from_u64(self.unix_time)),
            ("correct".to_owned(), Json::Bool(self.correct)),
            ("attempted".to_owned(), Json::from_u64(self.attempted)),
            ("failed".to_owned(), Json::from_u64(self.failed)),
            ("metrics".to_owned(), figures_json(&self.metrics)),
            ("info".to_owned(), figures_json(&self.info)),
        ])
    }

    /// Parses one trajectory line.
    pub fn parse(line: &str) -> Result<Record, String> {
        let j = Json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
        match j.get("schema").and_then(Json::as_str) {
            Some(SCHEMA) => {}
            other => return Err(format!("unsupported schema {other:?} (want {SCHEMA})")),
        }
        let s = |k: &str| {
            j.get(k)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("missing {k}"))
        };
        let n = |k: &str| {
            j.get(k)
                .and_then(Json::as_u64)
                .ok_or(format!("missing {k}"))
        };
        let b = |k: &str| match j.get(k) {
            Some(Json::Bool(v)) => Ok(*v),
            _ => Err(format!("missing {k}")),
        };
        Ok(Record {
            commit: s("commit")?,
            tree: s("tree")?,
            workload: s("workload")?,
            seed: n("seed")?,
            trace: b("trace")?,
            seconds: n("seconds")?,
            unix_time: n("unix_time")?,
            correct: b("correct")?,
            attempted: n("attempted")?,
            failed: n("failed")?,
            metrics: figures_from(j.get("metrics"))?,
            info: figures_from(j.get("info"))?,
        })
    }
}

/// Appends `record` to the trajectory file at `path`, creating it (and
/// its directory) on first use.
pub fn append(path: &Path, record: &Record) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{}", record.to_json().render())?;
    f.sync_all()
}

/// Reads every record of a trajectory file.
pub fn read(path: &Path) -> Result<Vec<Record>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| Record::parse(l).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1)))
        .collect()
}

/// How a metric may move: its direction and, for end-to-end metrics,
/// the bound from `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: Option<f64>,
}

/// Reads the metric specs of `BENCHMARK.json`.
pub fn metric_specs(benchmark_json: &str) -> Result<Vec<MetricSpec>, String> {
    let j = Json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut specs = Vec::new();
    for key in ["end_to_end", "per_layer"] {
        for m in j.get(key).and_then(Json::as_arr).unwrap_or(&[]) {
            specs.push(MetricSpec {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without a name")?
                    .to_owned(),
                higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
                bound: m.get("bound").and_then(Json::as_f64),
            });
        }
    }
    Ok(specs)
}

/// The verdict on one metric of one workload between two sets of runs.
/// `base` and `new` are the per-run values.
pub fn verdict(spec: &MetricSpec, base: &[f64], new: &[f64]) -> &'static str {
    let (bm, nm) = (median(base), median(new));
    let Some(bound) = spec.bound else {
        return "no bound";
    };
    if bm == 0.0 {
        return "unresolved";
    }
    // Positive `worse` means the new runs are worse by that share.
    let sign = if spec.higher_is_better { -1.0 } else { 1.0 };
    let worse = sign * (nm - bm) / bm.abs();
    let spread = |xs: &[f64]| {
        let (q1, q3) = quartiles(xs);
        let m = median(xs);
        if m == 0.0 {
            0.0
        } else {
            (q3 - q1) / m.abs()
        }
    };
    let better_each = |a: f64, b: f64| sign * (a - b) < 0.0;
    let all_better = new.iter().all(|&n| base.iter().all(|&b| better_each(n, b)));
    let all_worse = new.iter().all(|&n| base.iter().all(|&b| better_each(b, n)));
    if spread(base) > bound || spread(new) > bound {
        return if all_better {
            "better"
        } else if all_worse {
            "worse"
        } else {
            "unresolved"
        };
    }
    if worse > bound {
        "worse"
    } else if -worse > bound {
        "better"
    } else {
        "within bound"
    }
}

/// Renders the compare table: per workload and metric, each side's
/// median and quartiles and the verdict.
pub fn compare(base: &[Record], new: &[Record], specs: &[MetricSpec]) -> String {
    let mut out = String::new();
    let mut workloads: Vec<&str> = base.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let _ = writeln!(
        out,
        "{:<14} {:<28} {:>30} {:>30}  verdict",
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]"
    );
    for w in workloads {
        for spec in specs {
            let values = |rs: &[Record]| -> Vec<f64> {
                rs.iter()
                    .filter(|r| r.workload == w)
                    .filter_map(|r| r.metrics.get(&spec.name).map(|(v, _)| *v))
                    .collect()
            };
            let (b, n) = (values(base), values(new));
            if b.is_empty() || n.is_empty() {
                continue;
            }
            let cell = |xs: &[f64]| {
                let (q1, q3) = quartiles(xs);
                format!("{:.4} [{:.4}, {:.4}]", median(xs), q1, q3)
            };
            let _ = writeln!(
                out,
                "{:<14} {:<28} {:>30} {:>30}  {} (n={}/{})",
                w,
                spec.name,
                cell(&b),
                cell(&n),
                verdict(spec, &b, &n),
                b.len(),
                n.len()
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Record {
        let mut metrics = Figures::new();
        metrics.insert("op_ms_p50".into(), (5.25, "ms".into()));
        let mut info = Figures::new();
        info.insert("query_ms_p50".into(), (5.25, "ms".into()));
        Record {
            commit: "unknown".into(),
            tree: "00ff".into(),
            workload: "serve-hot".into(),
            seed: 3,
            trace: false,
            seconds: 20,
            unix_time: 1,
            correct: true,
            attempted: 10,
            failed: 0,
            metrics,
            info,
        }
    }

    #[test]
    fn records_round_trip_and_other_schemas_are_refused() {
        let r = sample();
        let line = r.to_json().render();
        assert_eq!(Record::parse(&line).unwrap(), r);
        let other = line.replace(SCHEMA, "perfbench.result/0");
        assert!(Record::parse(&other)
            .unwrap_err()
            .contains("unsupported schema"));
    }

    #[test]
    fn verdicts_respect_direction_bound_and_spread() {
        let lower = MetricSpec {
            name: "op_ms_p50".into(),
            higher_is_better: false,
            bound: Some(0.1),
        };
        let base = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(verdict(&lower, &base, &[10.2, 10.3, 10.1]), "within bound");
        assert_eq!(verdict(&lower, &base, &[12.0, 12.1, 11.9]), "worse");
        assert_eq!(verdict(&lower, &base, &[8.0, 8.1, 7.9]), "better");
        let higher = MetricSpec {
            higher_is_better: true,
            ..lower.clone()
        };
        assert_eq!(verdict(&higher, &base, &[12.0, 12.1, 11.9]), "better");
        // Spread wider than the bound: unresolved unless every run of one
        // side beats every run of the other.
        let noisy = [5.0, 10.0, 15.0, 20.0];
        assert_eq!(verdict(&lower, &noisy, &[11.0, 12.0]), "unresolved");
        assert_eq!(verdict(&lower, &noisy, &[1.0, 2.0]), "better");
    }
}
