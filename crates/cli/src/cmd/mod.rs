//! Command implementations.

pub mod append;
pub mod chaos;
pub mod convert;
pub mod evolve;
pub mod generate;
pub mod info;
pub mod mine;
pub mod perfect;
pub mod query;
pub mod rules;
pub mod serve;
pub mod sweep;
pub mod verify;

use std::path::Path;

use ppm_core::{Engine, MineConfig};
use ppm_timeseries::columnar::{self, ColumnarReader};
use ppm_timeseries::storage;
use ppm_timeseries::{FeatureCatalog, FeatureSeries};

use crate::args::Parsed;
use crate::error::CliError;

/// The shared resource-guard flags read by [`apply_guards`] (and passed
/// through by `serve` and `query`).
pub(crate) const GUARD_FLAGS: &str = "deadline-ms max-tree-nodes";

/// Applies the shared resource-guard flags — `--deadline-ms` and
/// `--max-tree-nodes` — to a mining config. Guarded miners abort with a
/// typed error carrying partial statistics when either limit is hit.
pub fn apply_guards(args: &Parsed, mut config: MineConfig) -> Result<MineConfig, CliError> {
    // `switch()` (not `get()`) so a value-less `--deadline-ms` is a usage
    // error instead of silently disabling the guard the user asked for.
    if args.switch("deadline-ms") {
        let ms: u64 = args.required_parsed("deadline-ms")?;
        config = config.with_deadline(std::time::Duration::from_millis(ms));
    }
    if args.switch("max-tree-nodes") {
        let nodes: usize = args.required_parsed("max-tree-nodes")?;
        config = config.with_max_tree_nodes(nodes);
    }
    Ok(config)
}

/// Parses `--engine` (default: the hit-set engine). An unknown or missing
/// name is a usage error that lists every engine.
pub fn parse_engine(args: &Parsed) -> Result<Engine, CliError> {
    match args.get("engine") {
        None if args.switch("engine") => Err(CliError::Usage(format!(
            "--engine needs a value ({})",
            Engine::names()
        ))),
        None => Ok(Engine::default()),
        Some(name) => Engine::parse(name).ok_or_else(|| {
            CliError::Usage(format!("unknown --engine {name:?} ({})", Engine::names()))
        }),
    }
}

/// Series file formats, chosen by extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Line-oriented text (`.txt`).
    Text,
    /// Columnar bitmap store (`.ppmc`) — the on-disk layout *is* the
    /// encoded-series layout, so miners borrow the loaded words directly
    /// or stream them from disk.
    Columnar,
}

impl Format {
    /// Parses an explicit format name (the `convert --to` values).
    pub fn parse(name: &str) -> Result<Format, CliError> {
        match name {
            "text" => Ok(Format::Text),
            "columnar" => Ok(Format::Columnar),
            other => Err(CliError::Usage(format!(
                "unknown format `{other}` (expected text or columnar)"
            ))),
        }
    }
}

/// Detects the format of `path` from its extension; any other extension
/// is a usage error.
pub fn format_of(path: &str) -> Result<Format, CliError> {
    match Path::new(path).extension().and_then(|e| e.to_str()) {
        Some(ext) if ext.eq_ignore_ascii_case("txt") => Ok(Format::Text),
        Some(ext) if ext.eq_ignore_ascii_case("ppmc") => Ok(Format::Columnar),
        _ => Err(CliError::Usage(format!(
            "{path}: unknown series format; series files are .txt (text) \
             or .ppmc (columnar store)"
        ))),
    }
}

/// Loads a series (and catalog) from `path` in whatever format the
/// extension indicates. A columnar store is materialized.
pub fn load_series(path: &str) -> Result<(FeatureSeries, FeatureCatalog), CliError> {
    match format_of(path)? {
        Format::Text => {
            let text = std::fs::read_to_string(path)?;
            let mut catalog = FeatureCatalog::new();
            let series = storage::parse_series(&text, &mut catalog)?;
            Ok((series, catalog))
        }
        Format::Columnar => {
            let reader = ColumnarReader::open(path)?;
            let series = reader.to_series();
            let catalog = reader.catalog().clone();
            Ok((series, catalog))
        }
    }
}

/// Saves a series to `path` in the format its extension indicates.
pub fn save_series(
    path: &str,
    series: &FeatureSeries,
    catalog: &FeatureCatalog,
) -> Result<(), CliError> {
    save_series_as(path, format_of(path)?, series, catalog)
}

/// Saves a series to `path` in an explicitly chosen format, regardless of
/// the path's extension (the `convert --to` escape hatch).
pub fn save_series_as(
    path: &str,
    format: Format,
    series: &FeatureSeries,
    catalog: &FeatureCatalog,
) -> Result<(), CliError> {
    match format {
        Format::Text => {
            std::fs::write(path, storage::render_series(series, catalog))?;
            Ok(())
        }
        Format::Columnar => {
            // `convert` and `generate` report success only once the store
            // is durable, so a crash cannot lose a store they announced.
            columnar::write_columnar(path, series, catalog)?;
            std::fs::File::open(path)?.sync_all()?;
            Ok(())
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Helpers shared by command tests.

    use super::*;
    use ppm_timeseries::SeriesBuilder;

    /// A unique temp path with the given extension.
    pub fn temp_path(tag: &str, ext: &str) -> std::path::PathBuf {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "ppm-cli-test-{}-{tag}-{n}.{ext}",
            std::process::id()
        ))
    }

    /// Writes a simple periodic series (period 3: alpha at 0 always, beta
    /// at 1 in 2/3 of segments) to a temp file; returns the path.
    pub fn sample_series_file(ext: &str) -> std::path::PathBuf {
        let mut catalog = FeatureCatalog::new();
        let a = catalog.intern("alpha");
        let b = catalog.intern("beta");
        let mut builder = SeriesBuilder::new();
        for j in 0..30 {
            builder.push_instant([a]);
            builder.push_instant(if j % 3 != 0 { vec![b] } else { vec![] });
            builder.push_instant([]);
        }
        let series = builder.finish();
        let path = temp_path("sample", ext);
        save_series(path.to_str().unwrap(), &series, &catalog).unwrap();
        path
    }

    /// Runs the CLI end to end, capturing stdout.
    pub fn run_cli(line: &str) -> Result<String, CliError> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        let mut out = Vec::new();
        crate::run(&argv, &mut out)?;
        Ok(String::from_utf8(out).expect("utf8 output"))
    }

    /// Asserts that `line` is a usage error (exit 2) naming `flag`, raised
    /// before the command prints anything.
    pub fn assert_rejects_flag(line: &str, flag: &str) {
        let argv: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        let mut out = Vec::new();
        let err = crate::run(&argv, &mut out).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{line}: {err}");
        assert!(err.to_string().contains(flag), "{line}: {err}");
        assert!(out.is_empty(), "{line}");
    }

    /// The per-period table of a `sweep` report: its header line and the
    /// indented rows under it.
    pub fn sweep_table(report: &str) -> String {
        report
            .lines()
            .skip_while(|l| !l.contains("patterns"))
            .take_while(|l| l.starts_with(' '))
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn all_formats_round_trip_through_helpers() {
        for ext in ["txt", "ppmc"] {
            let path = sample_series_file(ext);
            let (series, catalog) = load_series(path.to_str().unwrap()).unwrap();
            assert_eq!(series.len(), 90, "{ext}");
            assert!(catalog.get("alpha").is_some(), "{ext}");
            std::fs::remove_file(path).ok();
        }
    }

    /// `mine`, `sweep` and the daemon's `mine` op reject an unknown engine
    /// with one and the same list of engines; the daemon's goes on with
    /// `|incremental`, its live-index request.
    #[test]
    fn every_engine_error_names_the_same_list() {
        use ppm_serve::{Bind, BoundAddr, ServeConfig, Server, StoreRegistry};

        let txt = sample_series_file("txt");
        let ppmc = sample_series_file("ppmc");
        let registry = StoreRegistry::open(&[&ppmc]).unwrap();
        let server =
            Server::bind(registry, ServeConfig::new(Bind::Tcp("127.0.0.1:0".into()))).unwrap();
        let BoundAddr::Tcp(addr) = *server.local_addr() else {
            unreachable!("bound tcp")
        };
        let stop = server.stop_handle();
        let daemon = std::thread::spawn(move || server.run().unwrap());
        let store = ppmc.file_stem().unwrap().to_str().unwrap();

        let errors = [
            format!("mine --input {} --period 3 --min-conf 0.6", txt.display()),
            format!(
                "sweep --input {} --from 2 --to 4 --min-conf 0.6",
                txt.display()
            ),
            format!(
                "query --port {} --store {store} --period 3 --min-conf 0.6 --retries 0",
                addr.port()
            ),
        ]
        .map(|line| run_cli(&format!("{line} --engine parallel")).unwrap_err());
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        daemon.join().unwrap();
        for err in &errors {
            assert_eq!(err.exit_code(), 2, "{err}");
            assert!(
                err.to_string().contains(&format!("({}", Engine::names())),
                "{err}"
            );
        }
        std::fs::remove_file(txt).ok();
        std::fs::remove_file(ppmc).ok();
    }

    #[test]
    fn format_detection() {
        assert_eq!(format_of("a.txt").unwrap(), Format::Text);
        assert_eq!(format_of("a.TXT").unwrap(), Format::Text);
        assert_eq!(format_of("a.ppmc").unwrap(), Format::Columnar);
        // Any other extension is a usage error that names both formats.
        for path in ["a.bin", "noext", "a.csv"] {
            let err = format_of(path).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{path}");
            let msg = err.to_string();
            assert!(msg.contains(".txt") && msg.contains(".ppmc"), "{msg}");
        }
    }

    #[test]
    fn explicit_format_names_parse() {
        assert_eq!(Format::parse("text").unwrap(), Format::Text);
        assert_eq!(Format::parse("columnar").unwrap(), Format::Columnar);
        for name in ["binary", "stream", "parquet"] {
            assert_eq!(Format::parse(name).unwrap_err().exit_code(), 2, "{name}");
        }
    }
}
