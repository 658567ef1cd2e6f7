//! `ppm generate` — write a synthetic series (paper §5.1 generator).

use std::io::Write;

use ppm_datagen::SyntheticSpec;

use crate::args::Parsed;
use crate::error::CliError;

/// The flags `ppm generate` accepts; any other is a usage error.
pub(crate) const FLAGS: &[&str] = &["length period max-pat-length f1 out seed"];

/// Runs the command.
pub fn run(args: &Parsed, out: &mut dyn Write) -> Result<(), CliError> {
    let length: usize = args.required_parsed("length")?;
    let period: usize = args.required_parsed("period")?;
    let max_pat: usize = args.required_parsed("max-pat-length")?;
    let f1: usize = args.required_parsed("f1")?;
    let out_path = args.required("out")?;
    let format = super::format_of(out_path)?;

    let mut spec = SyntheticSpec::table1(length, period, max_pat, f1);
    spec.seed = args.parsed_or("seed", spec.seed)?;
    if let Err(detail) = spec.validate() {
        return Err(CliError::Usage(detail));
    }
    let data = spec.generate();
    super::save_series_as(out_path, format, &data.series, &data.catalog)?;

    let stats = data.series.stats();
    writeln!(
        out,
        "wrote {out_path}: {} instants, {} feature occurrences ({:.2}/instant)",
        stats.instants, stats.total_features, stats.mean_features_per_instant
    )?;
    writeln!(
        out,
        "planted: period={period} MAX-PAT-LENGTH={max_pat} |F1|={f1} \
         (mine with --min-conf {})",
        spec.recommended_min_conf()
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::cmd::testutil::{run_cli, temp_path};

    #[test]
    fn generates_a_minable_file() {
        let path = temp_path("gen", "ppmc");
        let p = path.to_str().unwrap();
        let text = run_cli(&format!(
            "generate --length 5000 --period 20 --max-pat-length 3 --f1 6 --out {p}"
        ))
        .unwrap();
        assert!(text.contains("wrote"));
        assert!(text.contains("|F1|=6"));
        // The file is loadable and has the right length.
        let (series, _) = crate::cmd::load_series(p).unwrap();
        assert_eq!(series.len(), 5000);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_invalid_spec() {
        let path = temp_path("gen-bad", "ppmc");
        let err = run_cli(&format!(
            "generate --length 10 --period 20 --max-pat-length 3 --f1 6 --out {}",
            path.display()
        ))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn missing_flags_are_usage_errors() {
        let err = run_cli("generate --length 5000").unwrap_err();
        assert_eq!(err.exit_code(), 2);
    }
}
