//! `ppm perfect` — perfect periodicity with cycle elimination.

use std::io::Write;

use ppm_core::multi::PeriodRange;
use ppm_core::perfect::mine_perfect;
use ppm_core::Pattern;

use crate::args::Parsed;
use crate::error::CliError;

/// The flags `ppm perfect` accepts; any other is a usage error.
pub(crate) const FLAGS: &[&str] = &["input from to"];

/// Runs the command.
pub fn run(args: &Parsed, out: &mut dyn Write) -> Result<(), CliError> {
    let input = args.required("input")?;
    let from: usize = args.required_parsed("from")?;
    let to: usize = args.required_parsed("to")?;

    let (series, catalog) = super::load_series(input)?;
    let range = PeriodRange::new(from, to)?;
    let results = mine_perfect(&series, range)?;

    writeln!(
        out,
        "perfect (confidence = 1) periodicity, periods {from}..={to}:"
    )?;
    for p in &results {
        write!(
            out,
            "  period {:>4}: {:>3} perfect letters, examined {}/{} segments",
            p.period,
            p.alphabet.len(),
            p.segments_examined,
            p.segment_count
        )?;
        if p.has_pattern() && p.alphabet.len() <= 8 {
            let pattern = Pattern::from_letter_set(&p.alphabet, &p.alphabet.full_set());
            write!(out, "  [{}]", pattern.display(&catalog))?;
        }
        writeln!(out)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::cmd::testutil::{run_cli, sample_series_file};

    #[test]
    fn finds_the_perfect_letter() {
        let path = sample_series_file("txt");
        let text = run_cli(&format!(
            "perfect --input {} --from 2 --to 4",
            path.display()
        ))
        .unwrap();
        // "alpha" holds in every period-3 segment.
        assert!(text.contains("period    3:   1 perfect letters"), "{text}");
        assert!(text.contains("alpha"), "{text}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn cycle_elimination_is_visible() {
        let path = sample_series_file("txt");
        let text = run_cli(&format!(
            "perfect --input {} --from 2 --to 2",
            path.display()
        ))
        .unwrap();
        // Period 2 has no perfect letter; elimination exits early.
        assert!(text.contains("period    2:   0 perfect letters"), "{text}");
        std::fs::remove_file(path).ok();
    }
}
