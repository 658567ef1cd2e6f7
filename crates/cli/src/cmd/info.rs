//! `ppm info` — series summary statistics, and the format version of a
//! columnar (`.ppmc`) input: for version 3 also its commit `seq`, a
//! rollback to the older commit slot, and any uncommitted tail.
//!
//! With `--period P` (and optionally `--min-conf C`, default 0.5) it also
//! runs scan 1 for that period and reports the Property 3.2 hit-set
//! buffer bound `min(m, 2^|F1| − 1)` — a pre-mining estimate of how many
//! distinct hits the max-subpattern tree can accumulate.

use std::io::Write;

use ppm_core::{hit_set_bound, scan_frequent_letters, MineConfig};
use ppm_timeseries::columnar::ColumnarReader;

use crate::args::Parsed;
use crate::error::CliError;

/// The flags `ppm info` accepts; any other is a usage error.
pub(crate) const FLAGS: &[&str] = &["input period min-conf"];

/// Runs the command.
pub fn run(args: &Parsed, out: &mut dyn Write) -> Result<(), CliError> {
    let input = args.required("input")?;
    let (series, catalog, columnar) = if super::format_of(input)? == super::Format::Columnar {
        let reader = ColumnarReader::open(input)?;
        let catalog = reader.catalog().clone();
        (reader.to_series(), catalog, Some(reader))
    } else {
        let (series, catalog) = super::load_series(input)?;
        (series, catalog, None)
    };
    let stats = series.stats();
    writeln!(out, "file:                 {input}")?;
    if let Some(reader) = &columnar {
        writeln!(
            out,
            "format:               .ppmc version {}",
            reader.version()
        )?;
        if let Some(commit) = reader.commit() {
            write!(
                out,
                "commit:               seq {} (slot {})",
                commit.seq, commit.slot
            )?;
            if commit.rolled_back {
                write!(
                    out,
                    "; slot {} fails its check: rolled back to the last intact commit",
                    1 - commit.slot
                )?;
            }
            writeln!(out)?;
        }
        if reader.uncommitted_bytes() > 0 {
            writeln!(
                out,
                "uncommitted tail:     {} bytes past the committed rows",
                reader.uncommitted_bytes()
            )?;
        }
    }
    writeln!(out, "instants:             {}", stats.instants)?;
    writeln!(out, "feature occurrences:  {}", stats.total_features)?;
    writeln!(out, "catalog size:         {}", catalog.len())?;
    writeln!(
        out,
        "mean features/slot:   {:.3}",
        stats.mean_features_per_instant
    )?;
    writeln!(
        out,
        "max features/slot:    {}",
        stats.max_features_per_instant
    )?;
    writeln!(out, "empty slots:          {}", stats.empty_instants)?;
    for period in [24usize, 168] {
        if period <= stats.instants {
            writeln!(
                out,
                "whole segments @p={period}: {}",
                series.period_count(period)
            )?;
        }
    }

    // Per-feature occurrence counts across the whole series.
    let mut occurrences = vec![0u64; catalog.len()];
    for instant in series.iter() {
        for feature in instant {
            if let Some(slot) = occurrences.get_mut(feature.index()) {
                *slot += 1;
            }
        }
    }
    if !occurrences.is_empty() {
        writeln!(out, "feature occurrence counts:")?;
        let mut rows: Vec<(&str, u64)> = catalog
            .iter()
            .map(|(id, name)| (name, occurrences[id.index()]))
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        for (name, count) in rows {
            writeln!(out, "  {name:<20} {count}")?;
        }
    }

    if args.switch("period") {
        let period: usize = args.required_parsed("period")?;
        let min_conf: f64 = args.parsed_or("min-conf", 0.5)?;
        let config = MineConfig::new(min_conf)?;
        let scan1 = scan_frequent_letters(&series, period, &config)?;
        let m = scan1.segment_count as u64;
        let f1 = scan1.alphabet.len();
        writeln!(out, "hit-set estimate @p={period}, min_conf {min_conf}:")?;
        writeln!(out, "  segments m:         {m}")?;
        writeln!(out, "  |F1| letters:       {f1}")?;
        writeln!(out, "  min_count:          {}", scan1.min_count)?;
        writeln!(
            out,
            "  hit-set bound:      {} (Property 3.2: min(m, 2^|F1| - 1))",
            hit_set_bound(m, f1 as u32)
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::cmd::testutil::{run_cli, sample_series_file};

    #[test]
    fn prints_stats() {
        let path = sample_series_file("txt");
        let text = run_cli(&format!("info --input {}", path.display())).unwrap();
        assert!(text.contains("instants:             90"));
        assert!(text.contains("catalog size:         2"));
        // Per-feature occurrences, most frequent first.
        let alpha = text.find("alpha").unwrap();
        let beta = text.find("beta").unwrap();
        assert!(alpha < beta, "{text}");
        assert!(text.contains("alpha                30"), "{text}");
        assert!(text.contains("beta                 20"), "{text}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn period_flag_reports_the_hit_set_bound() {
        let path = sample_series_file("txt");
        let text = run_cli(&format!("info --input {} --period 3", path.display())).unwrap();
        // m = 30 segments, |F1| = 2 at the default min_conf 0.5, so the
        // Property 3.2 bound is min(30, 2^2 - 1) = 3.
        assert!(text.contains("segments m:         30"), "{text}");
        assert!(text.contains("|F1| letters:       2"), "{text}");
        assert!(text.contains("hit-set bound:      3"), "{text}");

        // A stricter confidence can shrink F1 and with it the bound.
        let text = run_cli(&format!(
            "info --input {} --period 3 --min-conf 0.9",
            path.display()
        ))
        .unwrap();
        assert!(text.contains("|F1| letters:       1"), "{text}");
        assert!(text.contains("hit-set bound:      1"), "{text}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn columnar_input_reports_its_format_version() {
        let txt = sample_series_file("txt");
        let text = run_cli(&format!("info --input {}", txt.display())).unwrap();
        assert!(!text.contains("format:"), "{text}");
        let ppmc = sample_series_file("ppmc");
        let text = run_cli(&format!("info --input {}", ppmc.display())).unwrap();
        assert!(
            text.contains("format:               .ppmc version 3\n"),
            "{text}"
        );
        assert!(
            text.contains("commit:               seq 1 (slot 1)\n"),
            "{text}"
        );
        assert!(text.contains("instants:             90"), "{text}");
        let v1 = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../timeseries/testdata/synthetic-p12-v1.ppmc"
        );
        let text = run_cli(&format!("info --input {v1}")).unwrap();
        assert!(
            text.contains("format:               .ppmc version 1\n"),
            "{text}"
        );
        assert!(text.contains("instants:             600"), "{text}");
        std::fs::remove_file(txt).ok();
        std::fs::remove_file(ppmc).ok();
    }

    /// A damaged newest commit slot opens the older commit; `info` says
    /// so, and counts the rows it no longer commits as an uncommitted tail.
    #[test]
    fn info_reports_a_rolled_back_commit_and_its_uncommitted_tail() {
        let ppmc = sample_series_file("ppmc");
        let p = ppmc.display();
        run_cli(&format!("append --input {p} --rows alpha;beta;-")).unwrap();
        let text = run_cli(&format!("info --input {p}")).unwrap();
        assert!(
            text.contains("commit:               seq 2 (slot 0)\n"),
            "{text}"
        );
        assert!(!text.contains("uncommitted"), "{text}");
        // Slot 0 starts at the first 4096-byte boundary after the header.
        let mut bytes = std::fs::read(&ppmc).unwrap();
        bytes[4096] ^= 0x01;
        std::fs::write(&ppmc, &bytes).unwrap();
        let text = run_cli(&format!("info --input {p}")).unwrap();
        assert!(
            text.contains(
                "commit:               seq 1 (slot 1); slot 0 fails its check: \
                 rolled back to the last intact commit\n"
            ),
            "{text}"
        );
        assert!(
            text.contains("uncommitted tail:     24 bytes past the committed rows\n"),
            "{text}"
        );
        assert!(text.contains("instants:             90"), "{text}");
        std::fs::remove_file(ppmc).ok();
    }

    #[test]
    fn invalid_period_is_mining_error() {
        let path = sample_series_file("txt");
        let err = run_cli(&format!("info --input {} --period 0", path.display())).unwrap_err();
        assert_eq!(err.exit_code(), 1);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = run_cli("info --input /definitely/not/here.ppmc").unwrap_err();
        assert_eq!(err.exit_code(), 1);
    }
}
