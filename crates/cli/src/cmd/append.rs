//! `ppm append` — grows a columnar `.ppmc` store in place.
//!
//! Rows use the same compact syntax as the text series format and
//! `ppm query --op append`: instants separated by `;`, feature names
//! within an instant separated by whitespace, `-` (or nothing) for an
//! empty instant. `--repeat N` appends the whole block N times — handy
//! for driving `mine --follow` and the continuous-ingestion smoke tests.
//!
//! The publish goes through the columnar appender, which holds the
//! store's exclusive append lock (a `ppm serve` daemon appending to the
//! same file waits for it, and it for the daemon). The store is grown in
//! place: the new rows, `fdatasync`, then a new commit slot, `fdatasync`
//! — `O(appended)` bytes — so a reader (or a daemon re-verifying the
//! file) only ever sees the old complete store or the new complete store.
//! Only version-3 stores take appends: a version-1/2 store, written by an
//! older build, is refused as a usage error (exit 2) and left untouched;
//! `ppm convert --input OLD.ppmc --out NEW.ppmc` rewrites it as version 3.
//! Feature names must already exist in the store's catalog — the catalog
//! is fixed at store creation.

use std::io::Write;

use ppm_timeseries::columnar::ColumnarAppender;
use ppm_timeseries::FeatureId;

use crate::args::Parsed;
use crate::error::CliError;

/// The flags `ppm append` accepts; any other is a usage error.
pub(crate) const FLAGS: &[&str] = &["input rows repeat"];

/// Runs `ppm append`.
pub fn run(args: &Parsed, out: &mut dyn Write) -> Result<(), CliError> {
    let input = args.required("input")?;
    if super::format_of(input)? != super::Format::Columnar {
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

    // One verifying pass: the appender takes the append lock and checks
    // the store, and names resolve against the catalog it verified. An
    // unknown name fails before anything is written, and returning drops
    // the appender, which releases the lock.
    let mut appender = ColumnarAppender::open(input)?;
    let instants: Vec<Vec<FeatureId>> = rows_text
        .split(';')
        .map(|instant| {
            instant
                .split_whitespace()
                .filter(|n| *n != "-")
                .map(|n| {
                    appender.catalog().get(n).ok_or_else(|| {
                        CliError::Usage(format!(
                            "unknown feature {n:?} (the catalog is fixed at store creation)"
                        ))
                    })
                })
                .collect()
        })
        .collect::<Result<_, _>>()?;

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
    use crate::cmd::testutil::{run_cli, sample_series_file, temp_path};
    use ppm_timeseries::columnar::ColumnarReader;
    use std::path::Path;

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
        let path = sample_series_file("txt");
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

    /// An unknown name is refused after the appender took the lock; the
    /// refusal releases it, so the next append goes straight through.
    #[test]
    fn an_unknown_name_releases_the_append_lock() {
        let path = sample_series_file("ppmc");
        let p = path.to_str().unwrap();
        let err = run_cli(&format!("append --input {p} --rows alpha;gamma")).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        let out = run_cli(&format!("append --input {p} --rows alpha")).unwrap();
        assert!(out.contains("91 total"), "{out}");
        assert_eq!(ColumnarReader::open(&path).unwrap().len(), 91);
        std::fs::remove_file(path).ok();
    }

    /// A version-1/2 store is refused as a usage error naming its version
    /// and `ppm convert`, byte-identical and unlocked afterwards (a second
    /// append gets the same refusal instead of waiting); its converted
    /// twin appends in place as version 3.
    #[test]
    fn append_refuses_v1_and_v2_stores_until_they_are_converted() {
        for version in [1, 2] {
            let fixture = format!(
                "{}/../timeseries/testdata/synthetic-p12-v{version}.ppmc",
                env!("CARGO_MANIFEST_DIR")
            );
            let old = temp_path(&format!("append-v{version}"), "ppmc");
            let twin = temp_path(&format!("append-v{version}-twin"), "ppmc");
            std::fs::copy(&fixture, &old).unwrap();
            let append = |path: &Path| {
                run_cli(&format!(
                    "append --input {} --rows pat0;-;pat1 --repeat 4",
                    path.display()
                ))
            };
            for attempt in 0..2 {
                let err = append(&old).unwrap_err();
                assert_eq!(err.exit_code(), 2, "attempt {attempt}: {err}");
                let text = err.to_string();
                assert!(text.contains(&format!("version {version}")), "{text}");
                assert!(text.contains("ppm convert"), "{text}");
            }
            assert_eq!(
                std::fs::read(&old).unwrap(),
                std::fs::read(&fixture).unwrap()
            );
            let mut staging = old.as_os_str().to_owned();
            staging.push(".tmp");
            assert!(!Path::new(&staging).exists());

            run_cli(&format!(
                "convert --input {} --out {}",
                old.display(),
                twin.display()
            ))
            .unwrap();
            let text = append(&twin).unwrap();
            assert!(text.contains("appended 12 instants"), "{text}");
            assert!(text.contains("612 total"), "{text}");
            let info = run_cli(&format!("info --input {}", twin.display())).unwrap();
            assert!(
                info.contains("format:               .ppmc version 3\n"),
                "{info}"
            );
            let grown = ColumnarReader::open(&twin).unwrap();
            assert_eq!(grown.commit().unwrap().seq, 2, "one in-place commit");
            std::fs::remove_file(old).ok();
            std::fs::remove_file(twin).ok();
        }
    }
}
