//! Discovering intra-week structure in stock movements: convert a price
//! series to up/down/flat features, let multi-period shared mining find the
//! 5-day trading week, then mine it for maximal patterns and rules.
//!
//! Run with: `cargo run --example stock_weekdays`

use partial_periodic::datagen::workloads::stock;
use partial_periodic::maximal::mine_maximal;
use partial_periodic::multi::{mine_periods_shared_view, PeriodRange};
use partial_periodic::timeseries::EncodedSeries;
use partial_periodic::{rules, FeatureCatalog, MineConfig, Pattern};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let prices = stock::prices(1_500, 100.0, stock::weekly_profile(), 2024);
    let mut catalog = FeatureCatalog::new();
    let series = stock::movements(&prices, 0.004, &mut catalog);
    println!("{} trading days of movements (up/down/flat)", series.len());

    // The sweep and the maximal mine read the same packed rows.
    let encoded = EncodedSeries::encode(&series);

    // Which period is the data periodic at? Sweep 2..=9 in two scans.
    let range = PeriodRange::new(2, 9)?;
    let sweep = mine_periods_shared_view(encoded.view(), range, &MineConfig::new(0.75)?)?;
    println!(
        "\n=== Period sweep 2..=9 ({} scans total) ===",
        sweep.total_scans
    );
    for r in &sweep.results {
        println!("  period {} -> {:>3} frequent patterns", r.period, r.len());
    }
    let best = sweep.densest_period().expect("non-empty sweep");
    println!("  densest period: {best} (the trading week)");

    // Mine the discovered period for maximal patterns only.
    let config = MineConfig::new(0.75)?;
    let max = mine_maximal(encoded.view(), best, &config)?;
    println!("\n=== Maximal patterns at period {best} (min_conf 0.75) ===");
    for fp in &max.maximal {
        let pattern = Pattern::from_letter_set(&max.alphabet, &fp.letters);
        println!(
            "  {:<22} count={} conf={:.2}",
            pattern.display(&catalog).to_string(),
            fp.count,
            fp.count as f64 / max.segment_count as f64
        );
    }

    // And the periodic rules connecting Monday rises to Friday fades.
    let full = sweep.for_period(best).expect("mined");
    println!("\n=== Periodic rules (min rule confidence 0.8) ===");
    for rule in rules::generate_rules(full, 0.8).into_iter().take(8) {
        println!("  {}", rule.display(full, &catalog));
    }
    Ok(())
}
