//! `ppm rules` — periodic association rules from a mined period.

use std::io::Write;

use ppm_core::rules::generate_rules;
use ppm_core::{hitset, MineConfig};

use crate::args::Parsed;
use crate::error::CliError;

/// The flags `ppm rules` accepts; any other is a usage error.
pub(crate) const FLAGS: &[&str] = &["input period min-conf min-rule-conf limit tsv"];

/// Runs the command.
pub fn run(args: &Parsed, out: &mut dyn Write) -> Result<(), CliError> {
    let input = args.required("input")?;
    let period: usize = args.required_parsed("period")?;
    let min_conf: f64 = args.required_parsed("min-conf")?;
    let min_rule_conf: f64 = args.parsed_or("min-rule-conf", 0.8)?;
    let limit: usize = args.parsed_or("limit", 20)?;

    let (series, catalog) = super::load_series(input)?;
    let config = MineConfig::new(min_conf)?;
    let result = hitset::mine(&series, period, &config)?;
    let rules = generate_rules(&result, min_rule_conf);

    if args.switch("tsv") {
        write!(
            out,
            "{}",
            ppm_core::export::rules_tsv(&rules, &result, &catalog)
        )?;
        return Ok(());
    }

    writeln!(
        out,
        "{} rules at confidence >= {min_rule_conf} (from {} frequent patterns, period {period}); showing up to {limit}:",
        rules.len(),
        result.len()
    )?;
    for rule in rules.iter().take(limit) {
        writeln!(out, "  {}", rule.display(&result, &catalog))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::cmd::testutil::{run_cli, sample_series_file};

    #[test]
    fn emits_rules() {
        let path = sample_series_file("txt");
        let text = run_cli(&format!(
            "rules --input {} --period 3 --min-conf 0.5 --min-rule-conf 0.5",
            path.display()
        ))
        .unwrap();
        assert!(text.contains("=>"), "{text}");
        assert!(text.contains("alpha") || text.contains("beta"), "{text}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn threshold_can_silence_all_rules() {
        let path = sample_series_file("txt");
        let text = run_cli(&format!(
            "rules --input {} --period 3 --min-conf 0.5 --min-rule-conf 0.999",
            path.display()
        ))
        .unwrap();
        // beta => alpha holds at 1.0, so at least that one survives; check
        // the header formatting rather than emptiness.
        assert!(text.contains("rules at confidence >= 0.999"), "{text}");
        std::fs::remove_file(path).ok();
    }
}
