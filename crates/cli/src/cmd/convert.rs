//! `ppm convert` — transcode between the text format and the columnar
//! `.ppmc` store, or rewrite an older `.ppmc` store as version 3.

use std::io::Write;

use crate::args::Parsed;
use crate::error::CliError;

/// The flags `ppm convert` accepts; any other is a usage error.
pub(crate) const FLAGS: &[&str] = &["input out to"];

/// Runs the command.
pub fn run(args: &Parsed, out: &mut dyn Write) -> Result<(), CliError> {
    let input = args.required("input")?;
    let output = args.required("out")?;
    // `--to text|columnar` overrides extension sniffing, so a columnar
    // store can live at any path (`convert --to columnar`).
    let format = match args.get("to") {
        Some(name) => super::Format::parse(name)?,
        None => super::format_of(output)?,
    };
    let (series, catalog) = super::load_series(input)?;
    super::save_series_as(output, format, &series, &catalog)?;
    writeln!(
        out,
        "converted {input} -> {output} ({} instants, {} features)",
        series.len(),
        catalog.len()
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::cmd::testutil::{assert_rejects_flag, run_cli, sample_series_file, temp_path};

    #[test]
    fn columnar_to_text_and_back() {
        let store = sample_series_file("ppmc");
        let txt = temp_path("conv", "txt");
        let store2 = temp_path("conv2", "ppmc");
        run_cli(&format!(
            "convert --input {} --out {}",
            store.display(),
            txt.display()
        ))
        .unwrap();
        run_cli(&format!(
            "convert --input {} --out {}",
            txt.display(),
            store2.display()
        ))
        .unwrap();
        let (a, _) = crate::cmd::load_series(store.to_str().unwrap()).unwrap();
        let (b, _) = crate::cmd::load_series(store2.to_str().unwrap()).unwrap();
        assert_eq!(a.len(), b.len());
        // Same feature multiset per instant (ids may be renumbered).
        assert_eq!(a.total_features(), b.total_features());
        for p in [store, txt, store2] {
            std::fs::remove_file(p).ok();
        }
    }

    /// The partial-recovery flag and the block-binary and record-stream
    /// formats are gone: each is a usage error (exit 2), and so is an
    /// input or output path whose extension names neither `.txt` nor
    /// `.ppmc`.
    #[test]
    fn removed_flags_and_formats_are_usage_errors() {
        let txt = sample_series_file("txt");
        let out = temp_path("conv-removed", "ppmc");
        assert_rejects_flag(
            &format!(
                "convert --input {} --out {} --salvage",
                txt.display(),
                out.display()
            ),
            "--salvage",
        );
        for to in ["binary", "stream"] {
            let err = run_cli(&format!(
                "convert --input {} --out {} --to {to}",
                txt.display(),
                out.display()
            ))
            .unwrap_err();
            assert_eq!(err.exit_code(), 2, "--to {to}: {err}");
        }
        let unknown = temp_path("conv-removed", "bin");
        std::fs::copy(&txt, &unknown).unwrap();
        for (input, output) in [(&unknown, &out), (&txt, &unknown)] {
            let err = run_cli(&format!(
                "convert --input {} --out {}",
                input.display(),
                output.display()
            ))
            .unwrap_err();
            assert_eq!(err.exit_code(), 2, "{err}");
            assert!(err.to_string().contains(".ppmc"), "{err}");
        }
        assert!(!out.exists(), "no output is written");
        for p in [txt, unknown] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn to_columnar_and_back_preserves_the_series() {
        let txt = sample_series_file("txt");
        // `--to columnar` wins over the misleading `.dat` extension.
        let col = temp_path("conv-col", "dat");
        let back = temp_path("conv-col-back", "txt");
        run_cli(&format!(
            "convert --input {} --out {} --to columnar",
            txt.display(),
            col.display()
        ))
        .unwrap();
        let reader = ppm_timeseries::columnar::ColumnarReader::open(&col).unwrap();
        assert_eq!(reader.len(), 90);
        // An input is never sniffed: `.dat` names no format, so reading the
        // store back needs the real extension.
        let err = run_cli(&format!(
            "convert --input {} --out {}",
            col.display(),
            back.display()
        ))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        let col2 = temp_path("conv-col2", "ppmc");
        std::fs::copy(&col, &col2).unwrap();
        run_cli(&format!(
            "convert --input {} --out {}",
            col2.display(),
            back.display()
        ))
        .unwrap();
        let (a, _) = crate::cmd::load_series(txt.to_str().unwrap()).unwrap();
        let (b, _) = crate::cmd::load_series(back.to_str().unwrap()).unwrap();
        assert_eq!(a.len(), b.len());
        assert_eq!(a.total_features(), b.total_features());
        for p in [txt, col, col2, back] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn rejects_unknown_to_format() {
        let txt = sample_series_file("txt");
        let out = temp_path("conv-badfmt", "txt");
        let err = run_cli(&format!(
            "convert --input {} --out {} --to parquet",
            txt.display(),
            out.display()
        ))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        std::fs::remove_file(txt).ok();
    }

    #[test]
    fn text_output_is_readable() {
        let store = sample_series_file("ppmc");
        let txt = temp_path("conv-read", "txt");
        run_cli(&format!(
            "convert --input {} --out {}",
            store.display(),
            txt.display()
        ))
        .unwrap();
        let content = std::fs::read_to_string(&txt).unwrap();
        assert!(content.contains("alpha"));
        assert!(content.contains('-'));
        for p in [store, txt] {
            std::fs::remove_file(p).ok();
        }
    }

    /// A version-1 store (written before the word-hash checksum) mines
    /// exactly like its re-conversion (now version 3).
    #[test]
    fn v1_columnar_store_mines_like_its_v3_twin() {
        old_columnar_store_mines_like_its_v3_twin(1);
    }

    /// A version-2 store (written before the commit slots) mines exactly
    /// like its version-3 re-conversion.
    #[test]
    fn v2_columnar_store_mines_like_its_v3_twin() {
        old_columnar_store_mines_like_its_v3_twin(2);
    }

    /// Converts the committed version-`version` fixture and diffs every
    /// engine's patterns on the fixture against its converted twin.
    fn old_columnar_store_mines_like_its_v3_twin(version: u32) {
        let fixture = format!(
            "{}/../timeseries/testdata/synthetic-p12-v{version}.ppmc",
            env!("CARGO_MANIFEST_DIR")
        );
        let old = temp_path(&format!("conv-v{version}"), "ppmc");
        let v3 = temp_path(&format!("conv-v{version}-twin"), "ppmc");
        std::fs::copy(fixture, &old).unwrap();
        run_cli(&format!(
            "convert --input {} --out {}",
            old.display(),
            v3.display()
        ))
        .unwrap();
        let open =
            |path: &std::path::Path| ppm_timeseries::columnar::ColumnarReader::open(path).unwrap();
        assert_eq!((open(&old).version(), open(&v3).version()), (version, 3));
        let mine = |path: &std::path::Path, engine: &str| {
            let out = run_cli(&format!(
                "mine --input {} --period 12 --min-conf 0.6 --engine {engine} --limit 100000",
                path.display()
            ))
            .unwrap();
            out.lines()
                .filter(|l| l.starts_with("  "))
                .collect::<Vec<_>>()
                .join("\n")
        };
        for engine in ["hitset", "apriori", "vertical"] {
            let lines = mine(&old, engine);
            assert!(lines.lines().count() > 20, "{engine}: {lines}");
            assert_eq!(lines, mine(&v3, engine), "{engine}");
        }
        std::fs::remove_file(old).ok();
        std::fs::remove_file(v3).ok();
    }
}
