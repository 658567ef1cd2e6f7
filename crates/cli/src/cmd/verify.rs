//! `ppm verify` — audit an exported pattern file against its input series.
//!
//! Closes the loop on `mine --tsv`: the exported claims are parsed back,
//! checked for internal consistency (letter counts, L-lengths, confidence
//! arithmetic, anti-monotonicity across claims), and recounted against the
//! series by the differential oracle. A clean verify means the artifact a
//! pipeline stored still matches the data it was derived from — a damaged,
//! stale, or tampered export fails with exit code 1 and a violation list.

use std::io::Write;

use ppm_core::audit::{verify_claims, AuditMode, DEFAULT_SAMPLE};
use ppm_core::export::parse_patterns_tsv;

use crate::args::Parsed;
use crate::error::CliError;

/// The flags `ppm verify` accepts; any other is a usage error.
pub(crate) const FLAGS: &[&str] = &["input patterns period min-conf sample", crate::obs::FLAGS];

/// Runs the command. Observability flags (`--trace`, `--metrics-out`)
/// wrap the verification like they wrap a mine.
pub fn run(args: &Parsed, out: &mut dyn Write) -> Result<(), CliError> {
    let obs = crate::obs::ObsSetup::from_args(args)?;
    let guard = obs.install();
    let outcome = run_inner(args, out);
    drop(guard);
    obs.finalize(None, out)?;
    outcome
}

fn run_inner(args: &Parsed, out: &mut dyn Write) -> Result<(), CliError> {
    let input = args.required("input")?;
    let patterns = args.required("patterns")?;
    let period: usize = args.required_parsed("period")?;
    let min_conf: f64 = args.required_parsed("min-conf")?;
    // --sample [N]: recount a deterministic sample instead of every claim.
    let mode = if args.switch("sample") {
        AuditMode::Sample(args.parsed_or("sample", DEFAULT_SAMPLE)?)
    } else {
        AuditMode::Full
    };

    let (series, mut catalog) = super::load_series(input)?;
    let text = std::fs::read_to_string(patterns)?;
    let claims = parse_patterns_tsv(&text, &mut catalog)?;
    writeln!(
        out,
        "verifying {} claims from {patterns} against {input} \
         (period {period}, min_conf {min_conf})",
        claims.len()
    )?;
    let report = verify_claims(&series, period, min_conf, &claims, &catalog, mode)?;
    writeln!(out, "verify: {}", report.summary())?;
    if report.is_clean() {
        return Ok(());
    }
    for v in &report.violations {
        writeln!(out, "  {v}")?;
    }
    Err(CliError::Audit(format!(
        "{} violations (details above)",
        report.violations.len()
    )))
}

#[cfg(test)]
mod tests {
    use crate::cmd::testutil::{run_cli, sample_series_file, temp_path};

    fn export_tsv(input: &std::path::Path) -> std::path::PathBuf {
        let tsv = run_cli(&format!(
            "mine --input {} --period 3 --min-conf 0.6 --tsv",
            input.display()
        ))
        .unwrap();
        let path = temp_path("verify-claims", "tsv");
        std::fs::write(&path, tsv).unwrap();
        path
    }

    #[test]
    fn clean_export_verifies() {
        let input = sample_series_file("txt");
        let claims = export_tsv(&input);
        let text = run_cli(&format!(
            "verify --input {} --patterns {} --period 3 --min-conf 0.6",
            input.display(),
            claims.display()
        ))
        .unwrap();
        assert!(text.contains("verify: clean"), "{text}");
        std::fs::remove_file(input).ok();
        std::fs::remove_file(claims).ok();
    }

    #[test]
    fn tampered_count_fails_with_exit_1() {
        let input = sample_series_file("txt");
        let claims = export_tsv(&input);
        // Bump the first data row's count field.
        let raw = std::fs::read_to_string(&claims).unwrap();
        let mut lines: Vec<String> = raw.lines().map(str::to_owned).collect();
        let mut fields: Vec<String> = lines[1].split('\t').map(str::to_owned).collect();
        let count: u64 = fields[3].parse().unwrap();
        fields[3] = (count + 3).to_string();
        lines[1] = fields.join("\t");
        std::fs::write(&claims, lines.join("\n")).unwrap();

        let argv: Vec<String> = format!(
            "verify --input {} --patterns {} --period 3 --min-conf 0.6",
            input.display(),
            claims.display()
        )
        .split_whitespace()
        .map(str::to_owned)
        .collect();
        let mut out = Vec::new();
        let err = crate::run(&argv, &mut out).unwrap_err();
        assert_eq!(err.exit_code(), 1);
        assert!(err.to_string().contains("verification failed"), "{err}");
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("violation"), "{text}");
        std::fs::remove_file(input).ok();
        std::fs::remove_file(claims).ok();
    }

    #[test]
    fn damaged_tsv_is_a_mining_error_not_a_panic() {
        let input = sample_series_file("txt");
        let claims = temp_path("verify-broken", "tsv");
        std::fs::write(&claims, "not a header\njunk\n").unwrap();
        let err = run_cli(&format!(
            "verify --input {} --patterns {} --period 3 --min-conf 0.6",
            input.display(),
            claims.display()
        ))
        .unwrap_err();
        assert_eq!(err.exit_code(), 1);
        std::fs::remove_file(input).ok();
        std::fs::remove_file(claims).ok();
    }

    #[test]
    fn sampled_verify_is_still_clean() {
        let input = sample_series_file("txt");
        let claims = export_tsv(&input);
        let text = run_cli(&format!(
            "verify --input {} --patterns {} --period 3 --min-conf 0.6 --sample 2",
            input.display(),
            claims.display()
        ))
        .unwrap();
        assert!(text.contains("verify: clean"), "{text}");
        assert!(text.contains("sampled"), "{text}");
        std::fs::remove_file(input).ok();
        std::fs::remove_file(claims).ok();
    }

    #[test]
    fn columnar_input_verifies() {
        let input = sample_series_file("ppmc");
        let claims = export_tsv(&input);
        let text = run_cli(&format!(
            "verify --input {} --patterns {} --period 3 --min-conf 0.6",
            input.display(),
            claims.display()
        ))
        .unwrap();
        assert!(text.contains("verify: clean"), "{text}");
        std::fs::remove_file(input).ok();
        std::fs::remove_file(claims).ok();
    }

    #[test]
    fn missing_flags_are_usage_errors() {
        let err = run_cli("verify --input x.ppmc --period 3").unwrap_err();
        assert_eq!(err.exit_code(), 2);
    }
}
