//! Quickstart: build a tiny feature series, mine it with both algorithms,
//! and print the frequent partial periodic patterns.
//!
//! Run with: `cargo run --example quickstart`

use partial_periodic::timeseries::EncodedSeries;
use partial_periodic::{rules, run, Engine, FeatureCatalog, MineConfig, SeriesBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A "day" of three slots: morning, noon, evening. Jim drinks coffee
    // every morning, reads the paper most mornings, and his evenings are
    // noise.
    let mut catalog = FeatureCatalog::new();
    let coffee = catalog.intern("coffee");
    let paper = catalog.intern("newspaper");
    let walk = catalog.intern("walk");
    let tv = catalog.intern("tv");

    let mut builder = SeriesBuilder::new();
    for day in 0..40 {
        // Morning: coffee always, newspaper 9 days out of 10.
        if day % 10 == 3 {
            builder.push_instant([coffee]);
        } else {
            builder.push_instant([coffee, paper]);
        }
        // Noon: nothing regular.
        builder.push_instant([]);
        // Evening: alternates irregularly.
        if day % 3 == 0 {
            builder.push_instant([walk]);
        } else {
            builder.push_instant([tv]);
        }
    }
    let series = builder.finish();
    // The miners read packed rows: one bitmap per instant. Encode once and
    // mine the view with every engine (passing `&series` encodes per call).
    let encoded = EncodedSeries::encode(&series);

    let config = MineConfig::new(0.8)?;
    println!("=== Frequent partial periodic patterns (period 3, min_conf 0.8) ===");
    let result = run(Engine::HitSet, encoded.view(), 3, &config)?;
    for (pattern, count, conf) in result.patterns() {
        println!(
            "  {:<28} count={count:<3} conf={conf:.2}",
            pattern.display(&catalog).to_string()
        );
    }
    println!(
        "\n  scans of the series: {} (the hit-set method always needs 2)",
        result.stats.series_scans
    );

    // The Apriori baseline finds exactly the same patterns, with more scans.
    let apriori = run(Engine::Apriori, encoded.view(), 3, &config)?;
    assert_eq!(apriori.frequent, result.frequent);
    println!(
        "  Apriori found the same {} patterns in {} scans",
        apriori.len(),
        apriori.stats.series_scans
    );

    // Periodic association rules: "when coffee, then newspaper".
    println!("\n=== Periodic rules (min rule confidence 0.8) ===");
    for rule in rules::generate_rules(&result, 0.8) {
        println!("  {}", rule.display(&result, &catalog));
    }
    Ok(())
}
