//! Retail transactions, end to end: raw timestamped event log → ETL onto an
//! hourly grid → constraint-based mining ("only patterns involving coffee",
//! "only the morning hours") → periodic rules. Also demonstrates the
//! vertical miner on the full weekly period.
//!
//! Run with: `cargo run --example retail_events`

use partial_periodic::constraints::{mine_constrained, Constraints};
use partial_periodic::datagen::workloads::retail::{self, store_script};
use partial_periodic::timeseries::calendar::WeeklyGrid;
use partial_periodic::timeseries::EncodedSeries;
use partial_periodic::{hitset, run, Engine, FeatureCatalog, MineConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One year of store events.
    let mut catalog = FeatureCatalog::new();
    let log = retail::generate_events(364, &store_script(), 40, 0.4, 77, &mut catalog);
    println!("{} raw sales events over 364 days", log.len());

    // ETL: bin onto the hourly grid.
    let (series, report) = log.to_series(0, 1, 364 * 24)?;
    println!(
        "binned {} events into {} hourly slots ({} dropped)",
        report.binned,
        series.len(),
        report.before_origin + report.after_end
    );

    // Every query below mines the same packed rows: encode them once.
    let encoded = EncodedSeries::encode(&series);
    let rows = encoded.view();
    let week = 7 * 24;
    let config = MineConfig::new(0.7)?;

    // Constrained query 1: weekly patterns involving coffee.
    let coffee = catalog.get("coffee").expect("coffee interned");
    let q1 = mine_constrained(
        rows,
        week,
        &config,
        &Constraints::none().require(8, coffee), // Monday 08:00 slot
    )?;
    println!(
        "\n=== Weekly patterns containing coffee @ Mon 08:00 (min_conf 0.7, {} total, showing 15) ===",
        q1.len()
    );
    let grid = WeeklyGrid::hourly();
    for (pattern, count, conf) in q1.patterns().take(15) {
        let slots: Vec<String> = pattern
            .symbols()
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.is_star())
            .map(|(o, s)| {
                let names: Vec<&str> = s
                    .features()
                    .iter()
                    .map(|&f| catalog.name(f).unwrap_or("?"))
                    .collect();
                format!("{} {}", grid.label(o), names.join("+"))
            })
            .collect();
        println!("  [{}]  count={count} conf={conf:.2}", slots.join(" | "));
    }

    // Constrained query 2: morning hours only (8–11), ≤ 4 letters.
    let morning: Vec<usize> = (0..7)
        .flat_map(|d| (8..12).map(move |h| d * 24 + h))
        .collect();
    let q2 = mine_constrained(
        rows,
        week,
        &config,
        &Constraints::none().at_offsets(morning).max_letters(4),
    )?;
    println!(
        "\nMorning-slot query: {} patterns over {} admissible letters (full run would consider {})",
        q2.len(),
        q2.alphabet.len(),
        hitset::mine_view(rows, week, &config)?.alphabet.len()
    );

    // The vertical engine over the full weekly period: identical output,
    // counted by AND + popcount over the distinct hits instead of a tree.
    let sequential = hitset::mine_view(rows, week, &config)?;
    let vertical = run(Engine::Vertical, rows, week, &config)?;
    assert_eq!(sequential.frequent, vertical.frequent);
    println!(
        "\nVertical == hit set: {} patterns, {} scans each",
        vertical.len(),
        vertical.stats.series_scans
    );
    Ok(())
}
