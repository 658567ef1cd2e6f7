//! `ppm convert` — transcode between the text and binary series formats.
//!
//! `--salvage` recovers what it can from a damaged `.ppmstream` file (one
//! truncated by a crashed writer, say) instead of refusing to read it: the
//! valid record prefix is extracted and written to the output path.

use std::io::Write;

use ppm_timeseries::storage::salvage_series;

use crate::args::Parsed;
use crate::error::CliError;

/// The flags `ppm convert` accepts; any other is a usage error.
pub(crate) const FLAGS: &[&str] = &["input out salvage to"];

/// Runs the command.
pub fn run(args: &Parsed, out: &mut dyn Write) -> Result<(), CliError> {
    let input = args.required("input")?;
    let output = args.required("out")?;

    if args.switch("salvage") {
        if super::format_of(input) != super::Format::Stream {
            return Err(CliError::Usage(
                "--salvage recovers damaged .ppmstream files; other formats \
                 fail whole-file checksums and cannot be partially recovered"
                    .into(),
            ));
        }
        let (series, catalog, report) = salvage_series(input)?;
        super::save_series(output, &series, &catalog)?;
        writeln!(
            out,
            "salvaged {input} -> {output}: {} instants recovered",
            report.recovered_instants
        )?;
        if report.clean {
            writeln!(out, "file was intact; output is a faithful copy")?;
        } else {
            writeln!(out, "damage: {}", report.detail)?;
        }
        return Ok(());
    }

    let (series, catalog) = super::load_series(input)?;
    // `--to text|binary|stream|columnar` overrides extension sniffing, so
    // a columnar store can live at any path (`convert --to columnar`).
    let format = match args.get("to") {
        Some(name) => super::Format::parse(name)?,
        None => super::format_of(output),
    };
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
    use crate::cmd::testutil::{run_cli, sample_series_file, temp_path};

    #[test]
    fn binary_to_text_and_back() {
        let bin = sample_series_file("ppms");
        let txt = temp_path("conv", "txt");
        let bin2 = temp_path("conv2", "ppms");
        run_cli(&format!(
            "convert --input {} --out {}",
            bin.display(),
            txt.display()
        ))
        .unwrap();
        run_cli(&format!(
            "convert --input {} --out {}",
            txt.display(),
            bin2.display()
        ))
        .unwrap();
        let (a, _) = crate::cmd::load_series(bin.to_str().unwrap()).unwrap();
        let (b, _) = crate::cmd::load_series(bin2.to_str().unwrap()).unwrap();
        assert_eq!(a.len(), b.len());
        // Same feature multiset per instant (ids may be renumbered).
        assert_eq!(a.total_features(), b.total_features());
        for p in [bin, txt, bin2] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn salvage_recovers_truncated_stream() {
        let stream = sample_series_file("ppmstream");
        // Chop the trailer and the last few records off, as a crashed
        // writer would.
        let bytes = std::fs::read(&stream).unwrap();
        std::fs::write(&stream, &bytes[..bytes.len() - 40]).unwrap();

        // A plain convert refuses the damaged file...
        let rescue = temp_path("salvaged", "ppms");
        let err = run_cli(&format!(
            "convert --input {} --out {}",
            stream.display(),
            rescue.display()
        ))
        .unwrap_err();
        assert_eq!(err.exit_code(), 1);

        // ...while --salvage recovers the valid prefix.
        let text = run_cli(&format!(
            "convert --input {} --out {} --salvage",
            stream.display(),
            rescue.display()
        ))
        .unwrap();
        assert!(text.contains("instants recovered"), "{text}");
        assert!(text.contains("damage:"), "{text}");
        let (series, catalog) = crate::cmd::load_series(rescue.to_str().unwrap()).unwrap();
        assert!(!series.is_empty() && series.len() < 90, "a strict prefix");
        assert!(catalog.get("alpha").is_some());
        for p in [stream, rescue] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn salvage_requires_stream_input() {
        let bin = sample_series_file("ppms");
        let out = temp_path("salvage-bad", "ppms");
        let err = run_cli(&format!(
            "convert --input {} --out {} --salvage",
            bin.display(),
            out.display()
        ))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        std::fs::remove_file(bin).ok();
    }

    #[test]
    fn to_columnar_and_back_preserves_the_series() {
        let bin = sample_series_file("ppms");
        // `--to columnar` wins over the misleading `.dat` extension.
        let col = temp_path("conv-col", "dat");
        let back = temp_path("conv-col-back", "ppms");
        run_cli(&format!(
            "convert --input {} --out {} --to columnar",
            bin.display(),
            col.display()
        ))
        .unwrap();
        let reader = ppm_timeseries::columnar::ColumnarReader::open(&col).unwrap();
        assert_eq!(reader.len(), 90);
        let text = run_cli(&format!(
            "convert --input {} --out {} --to binary",
            col.display(),
            back.display()
        ))
        .unwrap_err();
        // `.dat` sniffs as block binary, not columnar — the typed error
        // (bad magic) proves sniffing stayed honest; converting back needs
        // the real extension.
        assert_eq!(text.exit_code(), 1);
        let col2 = temp_path("conv-col2", "ppmc");
        std::fs::copy(&col, &col2).unwrap();
        run_cli(&format!(
            "convert --input {} --out {}",
            col2.display(),
            back.display()
        ))
        .unwrap();
        let (a, _) = crate::cmd::load_series(bin.to_str().unwrap()).unwrap();
        let (b, _) = crate::cmd::load_series(back.to_str().unwrap()).unwrap();
        assert_eq!(a.len(), b.len());
        assert_eq!(a.total_features(), b.total_features());
        for p in [bin, col, col2, back] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn rejects_unknown_to_format() {
        let bin = sample_series_file("ppms");
        let out = temp_path("conv-badfmt", "ppms");
        let err = run_cli(&format!(
            "convert --input {} --out {} --to parquet",
            bin.display(),
            out.display()
        ))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        std::fs::remove_file(bin).ok();
    }

    #[test]
    fn text_output_is_readable() {
        let bin = sample_series_file("ppms");
        let txt = temp_path("conv-read", "txt");
        run_cli(&format!(
            "convert --input {} --out {}",
            bin.display(),
            txt.display()
        ))
        .unwrap();
        let content = std::fs::read_to_string(&txt).unwrap();
        assert!(content.contains("alpha"));
        assert!(content.contains('-'));
        for p in [bin, txt] {
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
        for engine in ["hitset", "apriori", "vertical", "incremental"] {
            let lines = mine(&old, engine);
            assert!(lines.lines().count() > 20, "{engine}: {lines}");
            assert_eq!(lines, mine(&v3, engine), "{engine}");
        }
        std::fs::remove_file(old).ok();
        std::fs::remove_file(v3).ok();
    }
}
