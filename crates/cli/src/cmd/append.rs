//! `ppm append` — grows a columnar `.ppmc` store in place.
//!
//! Rows use the same compact syntax as the text series format and
//! `ppm query --op append`: instants separated by `;`, feature names
//! within an instant separated by whitespace, `-` (or nothing) for an
//! empty instant. `--repeat N` appends the whole block N times — handy
//! for driving `mine --follow` and the continuous-ingestion smoke tests.
//!
//! The publish goes through the columnar appender's crash-safe
//! temp-file + atomic-rename discipline, so a reader (or a `ppm serve`
//! daemon re-verifying the file) only ever sees the old complete store
//! or the new complete store. Feature names must already exist in the
//! store's catalog — the catalog is fixed at store creation.

use std::io::Write;

use ppm_timeseries::columnar::{ColumnarAppender, ColumnarReader};
use ppm_timeseries::FeatureId;

use crate::args::Parsed;
use crate::error::CliError;

/// Runs `ppm append`.
pub fn run(args: &Parsed, out: &mut dyn Write) -> Result<(), CliError> {
    let input = args.required("input")?;
    if super::format_of(input) != super::Format::Columnar {
        return Err(CliError::Usage(
            "append only grows columnar .ppmc stores (write one with convert --to columnar)".into(),
        ));
    }
    let rows_text = args.required("rows")?;
    if rows_text.trim().is_empty() {
        return Err(CliError::Usage(
            "--rows names no instants (want e.g. \"a b;c;-\")".into(),
        ));
    }
    let repeat: usize = args.parsed_or("repeat", 1)?;
    if repeat == 0 {
        return Err(CliError::Usage("--repeat must be at least 1".into()));
    }

    // Resolve every feature name against the fixed catalog up front, so a
    // typo fails before anything is staged.
    let reader = ColumnarReader::open(input)?;
    let instants: Vec<Vec<FeatureId>> = rows_text
        .split(';')
        .map(|instant| {
            instant
                .split_whitespace()
                .filter(|n| *n != "-")
                .map(|n| {
                    reader.catalog().get(n).ok_or_else(|| {
                        CliError::Usage(format!(
                            "unknown feature {n:?} (the catalog is fixed at store creation)"
                        ))
                    })
                })
                .collect()
        })
        .collect::<Result<_, _>>()?;

    // The appender resumes the reader's checksum midstate: the store is
    // hashed once per append, by the open above.
    let mut appender = ColumnarAppender::open_resident(input, &reader)?;
    for _ in 0..repeat {
        for feats in &instants {
            appender.append_instant(feats)?;
        }
    }
    let fingerprint = appender.preview_fingerprint();
    let total = appender.finish()?;
    writeln!(
        out,
        "appended {} instants to {input}: {total} total, fingerprint {fingerprint:016x}",
        instants.len() * repeat,
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::cmd::testutil::{run_cli, sample_series_file};
    use ppm_timeseries::columnar::ColumnarReader;

    #[test]
    fn append_grows_the_store_and_the_result_reopens_clean() {
        let path = sample_series_file("ppmc");
        let p = path.to_str().unwrap();
        let out = run_cli(&format!(
            "append --input {p} --rows alpha;beta;- --repeat 2"
        ))
        .unwrap();
        assert!(out.contains("appended 6 instants"), "{out}");
        assert!(out.contains("96 total"), "{out}");
        let reader = ColumnarReader::open(&path).unwrap();
        assert_eq!(reader.len(), 96);
        assert!(
            out.contains(&format!("{:016x}", reader.fingerprint())),
            "printed fingerprint matches the published file: {out}"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn append_rejects_non_columnar_inputs_and_unknown_features() {
        let path = sample_series_file("ppms");
        let p = path.to_str().unwrap();
        let err = run_cli(&format!("append --input {p} --rows alpha")).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        std::fs::remove_file(path).ok();

        let path = sample_series_file("ppmc");
        let p = path.to_str().unwrap();
        let err = run_cli(&format!("append --input {p} --rows gamma")).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        assert!(err.to_string().contains("unknown feature"), "{err}");
        // Nothing was staged or published.
        assert_eq!(ColumnarReader::open(&path).unwrap().len(), 90);
        std::fs::remove_file(path).ok();
    }
}
