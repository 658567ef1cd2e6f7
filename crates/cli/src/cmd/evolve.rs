//! `ppm evolve` — windowed mining with drift classification.

use std::io::Write;

use ppm_core::evolution::{mine_windows, Drift, WindowSpec};
use ppm_core::MineConfig;

use crate::args::Parsed;
use crate::error::CliError;

/// The flags `ppm evolve` accepts; any other is a usage error.
pub(crate) const FLAGS: &[&str] = &["input period min-conf window stride limit"];

/// Runs the command.
pub fn run(args: &Parsed, out: &mut dyn Write) -> Result<(), CliError> {
    let input = args.required("input")?;
    let period: usize = args.required_parsed("period")?;
    let min_conf: f64 = args.required_parsed("min-conf")?;
    let window: usize = args.required_parsed("window")?;
    let stride: usize = args.parsed_or("stride", window)?;
    let limit: usize = args.parsed_or("limit", 10)?;

    let (series, catalog) = super::load_series(input)?;
    let config = MineConfig::new(min_conf)?;
    let spec = WindowSpec::new(window, stride)?;
    let result = mine_windows(&series, period, &config, spec)?;
    let n = result.window_count();

    writeln!(
        out,
        "{} windows of {window} segments (stride {stride}), {} tracked patterns:",
        n,
        result.tracks.len()
    )?;
    for (label, drift) in [
        ("stable", Drift::Stable),
        ("emerging", Drift::Emerging),
        ("vanished", Drift::Vanished),
        ("intermittent", Drift::Intermittent),
    ] {
        let tracks: Vec<_> = result.with_drift(drift).collect();
        writeln!(out, "\n{label} ({}):", tracks.len())?;
        for track in tracks.into_iter().take(limit) {
            let letters: Vec<String> = track
                .letters
                .iter()
                .map(|&(o, f)| format!("{}@{o}", catalog.name_or_placeholder(f)))
                .collect();
            let confs: Vec<String> = track
                .confidences
                .iter()
                .map(|c| c.map_or("  .  ".to_owned(), |v| format!("{v:5.2}")))
                .collect();
            writeln!(out, "  [{}] {}", letters.join(" "), confs.join(" "))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::cmd::testutil::{run_cli, sample_series_file};

    #[test]
    fn classifies_tracks() {
        let path = sample_series_file("txt");
        let text = run_cli(&format!(
            "evolve --input {} --period 3 --min-conf 0.6 --window 10",
            path.display()
        ))
        .unwrap();
        assert!(text.contains("3 windows"), "{text}");
        assert!(text.contains("stable"), "{text}");
        assert!(text.contains("alpha@0"), "{text}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn window_longer_than_series_errors() {
        let path = sample_series_file("txt");
        let err = run_cli(&format!(
            "evolve --input {} --period 3 --min-conf 0.6 --window 1000",
            path.display()
        ))
        .unwrap_err();
        assert_eq!(err.exit_code(), 1);
        std::fs::remove_file(path).ok();
    }
}
