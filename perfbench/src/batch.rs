//! `batch-wide`: repeated `ppm mine`/`ppm sweep` equivalents over the
//! Table-1 synthetic store, in this process.
//!
//! Each round runs open + vertical mine and open + hit-set mine (each
//! exactly what `ppm mine --input X.ppmc` does), then a vertical sweep of
//! periods 28–32 with 2 workers over one resident view. The op is the two
//! mines; the sweep is reported as a layer, because its two workers on the
//! two shared cores swing with whatever else the machine runs.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use ppm_core::multi::{mine_periods_scheduled, MultiPeriodResult, PeriodRange, SweepEngine};
use ppm_core::{FrequentPattern, MineConfig, MiningResult};
use ppm_datagen::SyntheticSpec;
use ppm_observe::{Collector, Event};
use ppm_timeseries::columnar::{write_columnar, ColumnarReader};

use crate::daemon::{peak_rss_mb, reset_own_peak_rss};
use crate::report::Outcome;
use crate::stats::{mean, median, tail, unattributed_ns};
use crate::{ms, Run, SETUP_REPS};

/// The Table-1 data every store-backed workload shares: 1.6M instants,
/// period 30, MAX-PAT-LENGTH 12, |F1| 24 (25.6 MB as `.ppmc`).
pub fn table1_spec(seed: u64) -> SyntheticSpec {
    let mut spec = SyntheticSpec::table1(1_600_000, 30, 12, 24);
    spec.seed = seed;
    spec
}

const PERIOD: usize = 30;
const MIN_CONF: f64 = 0.35;
const SWEEP: (usize, usize) = (28, 32);
const SWEEP_WORKERS: usize = 2;

/// Writes the workload's store; returns the seconds it took.
pub fn write_store(spec: &SyntheticSpec, path: &Path) -> Result<f64, String> {
    let t0 = Instant::now();
    let g = spec.generate();
    write_columnar(path, &g.series, &g.catalog).map_err(|e| format!("write store: {e}"))?;
    Ok(t0.elapsed().as_secs_f64())
}

/// The part of a mining result that must repeat exactly.
#[derive(Debug, PartialEq)]
struct Answer {
    segments: usize,
    min_count: u64,
    frequent: Vec<FrequentPattern>,
}

impl From<&MiningResult> for Answer {
    fn from(r: &MiningResult) -> Answer {
        Answer {
            segments: r.segment_count,
            min_count: r.min_count,
            frequent: r.frequent.clone(),
        }
    }
}

fn sweep_answers(r: &MultiPeriodResult) -> Result<Vec<Answer>, String> {
    if !r.failures.is_empty() {
        return Err(format!("{} sweep periods failed", r.failures.len()));
    }
    Ok(r.results.iter().map(Answer::from).collect())
}

/// Layer times of one traced mine, from the program's own phase spans.
#[derive(Debug, Default, Clone, Copy)]
struct Phases {
    scan1_ns: u64,
    scan2_ns: u64,
    derive_ns: u64,
    and_ops: u64,
    bitmap_bytes: u64,
}

fn phases(events: &[Event], engine: &str) -> Phases {
    let mut p = Phases::default();
    for e in events {
        match e {
            Event::SpanEnd {
                name, elapsed_us, ..
            } => {
                let ns = elapsed_us * 1_000;
                match name.strip_prefix(engine) {
                    Some(".scan1") => p.scan1_ns += ns,
                    Some(".scan2") => p.scan2_ns += ns,
                    Some(".derive") => p.derive_ns += ns,
                    _ => {}
                }
            }
            Event::Gauge { name, value, .. } => match *name {
                "vertical.and_ops" => p.and_ops = p.and_ops.max(*value),
                "vertical.bitmap_bytes" => p.bitmap_bytes = p.bitmap_bytes.max(*value),
                _ => {}
            },
            _ => {}
        }
    }
    p
}

/// One timed `ppm mine`-equivalent: open the store, mine one period.
struct MineOp {
    wall_ns: u64,
    open_ns: u64,
    result: Result<MiningResult, String>,
    phases: Phases,
}

fn mine_op(path: &Path, cfg: &MineConfig, hitset: bool, traced: bool) -> MineOp {
    let collector = Arc::new(Collector::new());
    let guard = traced.then(|| ppm_observe::install(collector.clone()));
    let t0 = Instant::now();
    let (open_ns, result) = match ColumnarReader::open(path) {
        Ok(reader) => {
            let open_ns = t0.elapsed().as_nanos() as u64;
            let mined = if hitset {
                ppm_core::hitset::mine_view(reader.view(), PERIOD, cfg)
            } else {
                ppm_core::vertical::mine_vertical_view(reader.view(), PERIOD, cfg)
            };
            (open_ns, mined.map_err(|e| e.to_string()))
        }
        Err(e) => (0, Err(format!("open: {e}"))),
    };
    let wall_ns = t0.elapsed().as_nanos() as u64;
    drop(guard);
    let phases = phases(
        &collector.events(),
        if hitset { "hitset" } else { "vertical" },
    );
    MineOp {
        wall_ns,
        open_ns,
        result,
        phases,
    }
}

/// Per-engine sums over traced mines, for the reconciliation.
#[derive(Debug, Default)]
struct Traced {
    n: u64,
    wall_ns: u64,
    open_ns: u64,
    scan1_ns: u64,
    scan2_ns: u64,
    derive_ns: u64,
    unattributed_ns: u64,
    and_ops: u64,
    bitmap_bytes: u64,
    tree_nodes: u64,
}

impl Traced {
    fn add(&mut self, op: &MineOp) {
        let p = op.phases;
        self.n += 1;
        self.wall_ns += op.wall_ns;
        self.open_ns += op.open_ns;
        self.scan1_ns += p.scan1_ns;
        self.scan2_ns += p.scan2_ns;
        self.derive_ns += p.derive_ns;
        self.unattributed_ns += unattributed_ns(
            op.wall_ns,
            &[op.open_ns, p.scan1_ns, p.scan2_ns, p.derive_ns],
        );
        self.and_ops = self.and_ops.max(p.and_ops);
        self.bitmap_bytes = self.bitmap_bytes.max(p.bitmap_bytes);
        if let Ok(r) = &op.result {
            self.tree_nodes = self.tree_nodes.max(r.stats.tree_nodes as u64);
        }
    }

    /// Mean of a summed nanosecond field, in ms.
    fn mean_ms(&self, total_ns: u64) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            total_ns as f64 / self.n as f64 / 1e6
        }
    }

    fn reconciliation(&self, engine: &str) -> String {
        format!(
            "  {engine:<8} wall {:>9.3} ms = open {:.3} + scan1 {:.3} + scan2 {:.3} + derive {:.3} + unattributed {:.3}  (means of {} traced mines)",
            self.mean_ms(self.wall_ns),
            self.mean_ms(self.open_ns),
            self.mean_ms(self.scan1_ns),
            self.mean_ms(self.scan2_ns),
            self.mean_ms(self.derive_ns),
            self.mean_ms(self.unattributed_ns),
            self.n
        )
    }
}

/// Runs `batch-wide`.
pub fn run(run: &Run, out: &mut Outcome) -> Result<(), String> {
    let spec = table1_spec(run.data_seed);
    let path = run.dir.join("batch.ppmc");
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        setups.push(write_store(&spec, &path)?);
    }
    let cfg = MineConfig::new(MIN_CONF).map_err(|e| e.to_string())?;
    reset_own_peak_rss();
    let resident = ColumnarReader::open(&path).map_err(|e| format!("open: {e}"))?;
    let range = PeriodRange::new(SWEEP.0, SWEEP.1).map_err(|e| e.to_string())?;
    let sweep = || {
        mine_periods_scheduled(
            resident.view(),
            range,
            &cfg,
            SweepEngine::Vertical,
            SWEEP_WORKERS,
        )
        .map_err(|e| e.to_string())
    };

    out.line(format!(
        "batch-wide: Table-1 series, {} instants, period {}, max-pat {}, |F1| {}, data seed {:#x}; store {} bytes",
        spec.length,
        spec.period,
        spec.max_pat_length,
        spec.f1_count,
        spec.seed,
        resident.file_bytes()
    ));
    out.line(format!(
        "  load: 1 in-process caller, closed loop; op = open+vertical mine then open+hitset mine (period {PERIOD}, min_conf {MIN_CONF}); each round also sweeps {}-{} with {SWEEP_WORKERS} workers",
        SWEEP.0, SWEEP.1
    ));

    // Warm-up round: fills the page cache and fixes the reference answers
    // every later round must repeat.
    let v_ref = mine_op(&path, &cfg, false, false).result?;
    let h_ref = mine_op(&path, &cfg, true, false).result?;
    let w_ref = sweep_answers(&sweep()?)?;
    let v_ref = Answer::from(&v_ref);
    if Answer::from(&h_ref) != v_ref {
        out.fail("hit-set and vertical answers differ on the reference round".into());
    }

    let (mut ops, mut v_ms, mut h_ms, mut w_ms) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut traced_ops, mut untraced_ops) = (Vec::new(), Vec::new());
    let (mut tv, mut th) = (Traced::default(), Traced::default());
    let mut busy_fracs = Vec::new();
    let started = Instant::now();
    let mut i = 0u64;
    while started.elapsed().as_secs_f64() < run.seconds as f64 {
        // A traced run alternates traced and untraced rounds, so the gap
        // between them is the tracing overhead.
        let traced = run.trace && i.is_multiple_of(2);
        i += 1;
        let v = mine_op(&path, &cfg, false, traced);
        let h = mine_op(&path, &cfg, true, traced);
        let collector = Arc::new(Collector::new());
        let guard = traced.then(|| ppm_observe::install(collector.clone()));
        let t0 = Instant::now();
        let w = sweep();
        let w_ns = t0.elapsed().as_nanos() as u64;
        drop(guard);

        let op_ms = ms(v.wall_ns + h.wall_ns);
        ops.push(op_ms);
        v_ms.push(ms(v.wall_ns));
        h_ms.push(ms(h.wall_ns));
        w_ms.push(ms(w_ns));
        if traced {
            traced_ops.push(op_ms);
            tv.add(&v);
            th.add(&h);
            let gauges = collector.gauge_maxima();
            let busy = gauges.get("sweep.worker_busy_us").copied().unwrap_or(0) as f64;
            let workers = gauges.get("sweep.workers").copied().unwrap_or(1).max(1) as f64;
            busy_fracs.push(busy / (workers * w_ns as f64 / 1e3));
        } else {
            untraced_ops.push(op_ms);
        }

        // Checks, off the clock.
        out.attempted += 3;
        match &v.result {
            Ok(r) if Answer::from(r) == v_ref => {}
            Ok(_) => out.fail(format!(
                "round {i}: vertical answer differs from the reference"
            )),
            Err(e) => out.fail(format!("round {i}: vertical mine failed: {e}")),
        }
        match &h.result {
            Ok(r) if Answer::from(r) == v_ref => {}
            Ok(_) => out.fail(format!(
                "round {i}: hit-set answer differs from the reference"
            )),
            Err(e) => out.fail(format!("round {i}: hit-set mine failed: {e}")),
        }
        match w.and_then(|r| sweep_answers(&r)) {
            Ok(a) if a == w_ref => {}
            Ok(_) => out.fail(format!(
                "round {i}: sweep answers differ from the reference"
            )),
            Err(e) => out.fail(format!("round {i}: sweep failed: {e}")),
        }
    }
    let op_samples = if untraced_ops.is_empty() {
        &ops
    } else {
        &untraced_ops
    };
    let t = tail(op_samples);
    out.set("setup_s", median(&setups));
    out.set("op_ms_p50", median(op_samples));
    out.set("ops_per_s", 1e3 / mean(op_samples));
    out.set(
        "peak_rss_mb",
        peak_rss_mb("/proc/self/status").ok_or("cannot read own VmHWM")?,
    );
    out.info("op_ms_tail", t.value, "ms");
    out.info("op_tail_pct", t.pct, "%");
    out.info("op_samples", t.n as f64, "count");
    out.info("mine_vertical_ms_p50", median(&v_ms), "ms");
    out.info("mine_hitset_ms_p50", median(&h_ms), "ms");
    out.info("sweep_ms_p50", median(&w_ms), "ms");
    out.set("mine.vertical_ms_p50", median(&v_ms));
    out.set("mine.hitset_ms_p50", median(&h_ms));
    out.set("sweep.wall_ms_p50", median(&w_ms));
    out.set("columnar.store_bytes", resident.file_bytes() as f64);

    if run.trace {
        // Layers with a public entry point, timed directly, off the clock.
        let scan1: Vec<f64> = (0..3)
            .map(|_| {
                let t0 = Instant::now();
                let s = ppm_core::scan_frequent_letters_view(resident.view(), PERIOD, &cfg);
                std::hint::black_box(s.map(|s| s.segment_count).ok());
                ms(t0.elapsed().as_nanos() as u64)
            })
            .collect();
        let mut sequential_ms = 0.0;
        for p in SWEEP.0..=SWEEP.1 {
            let t0 = Instant::now();
            let r = ppm_core::vertical::mine_vertical_view(resident.view(), p, &cfg);
            sequential_ms += ms(t0.elapsed().as_nanos() as u64);
            std::hint::black_box(r.map(|r| r.len()).ok());
        }
        let both = Traced {
            n: tv.n + th.n,
            wall_ns: tv.wall_ns + th.wall_ns,
            open_ns: tv.open_ns + th.open_ns,
            unattributed_ns: tv.unattributed_ns + th.unattributed_ns,
            ..Traced::default()
        };
        out.set("columnar.open_ms", both.mean_ms(both.open_ns));
        out.set("scan.scan1_ms", median(&scan1));
        out.set("vertical.scan2_ms", tv.mean_ms(tv.scan2_ns));
        out.set("vertical.derive_ms", tv.mean_ms(tv.derive_ns));
        out.set("vertical.and_ops", tv.and_ops as f64);
        out.set("vertical.bitmap_bytes", tv.bitmap_bytes as f64);
        out.set("hitset.scan2_ms", th.mean_ms(th.scan2_ns));
        out.set("hitset.derive_ms", th.mean_ms(th.derive_ns));
        out.set("hitset.tree_nodes", th.tree_nodes as f64);
        out.set("mine.unattributed_ms", both.mean_ms(both.unattributed_ns));
        out.set("sweep.speedup", sequential_ms / median(&w_ms));
        out.set("sweep.busy_frac", median(&busy_fracs));
        out.set(
            "observe.trace_overhead_frac",
            median(&traced_ops) / median(&untraced_ops) - 1.0,
        );
        out.line("reconciliation (op wall = layer spans + unattributed):".into());
        out.line(tv.reconciliation("vertical"));
        out.line(th.reconciliation("hitset"));
        out.line(format!(
            "  sweep    wall p50 {:.3} ms vs {sequential_ms:.3} ms of sequential per-period mines",
            median(&w_ms)
        ));
    }
    Ok(())
}
