//! End-to-end observability: the instrumented miners emit a deterministic
//! event stream through whatever sink is installed, the JSON-lines schema
//! round-trips through the bundled parser, and — the property everything
//! else depends on — mining output is bit-identical whether or not a sink
//! is watching.

use std::sync::{Arc, Mutex};

use partial_periodic::observe::{self, Collector, Event, Json, JsonLinesSink, NoopSink};
use partial_periodic::{apriori, hitset, vertical, FeatureId, FeatureSeries, MineConfig};
use partial_periodic::{MiningResult, SeriesBuilder};

fn fid(i: u32) -> FeatureId {
    FeatureId::from_raw(i)
}

/// A fixed series with three planted period-6 letters of staggered
/// reliability plus deterministic pseudo-noise; 50 whole segments at
/// period 6. The stagger makes segments project onto *different*
/// subpatterns, so the max-subpattern tree grows real subpattern nodes.
fn fixed_series() -> FeatureSeries {
    let mut b = SeriesBuilder::new();
    let mut x = 7u64;
    for t in 0..300 {
        let mut feats = Vec::new();
        if t % 6 == 0 {
            feats.push(fid(0));
        }
        if t % 6 == 2 && (t / 6) % 4 != 0 {
            feats.push(fid(1));
        }
        if t % 6 == 4 && (t / 6) % 3 != 0 {
            feats.push(fid(2));
        }
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        if (x >> 33).is_multiple_of(3) {
            feats.push(fid(3));
        }
        b.push_instant(feats);
    }
    b.finish()
}

fn mine_collected(series: &FeatureSeries, config: &MineConfig) -> (MiningResult, Arc<Collector>) {
    let collector = Arc::new(Collector::new());
    let result = {
        let _guard = observe::install(collector.clone());
        hitset::mine(series, 6, config).unwrap()
    };
    (result, collector)
}

/// The hit-set miner completes its spans in a fixed order, and the batched
/// segment counter adds up to exactly `m`. Two runs over the same data
/// produce the same span sequence — the stream is deterministic.
#[test]
fn hitset_spans_and_counters_are_deterministic() {
    let series = fixed_series();
    let config = MineConfig::new(0.5).unwrap();
    let (result, collector) = mine_collected(&series, &config);

    // The derive's level loop runs one `derive.join` per level it joins.
    let joins = joined_levels(&result);
    assert!(joins >= 2, "the fixture joins more than one level");
    let mut expect = vec!["hitset.scan1", "hitset.scan2"];
    expect.extend(std::iter::repeat_n("derive.join", joins));
    expect.extend(["hitset.derive", "hitset.mine"]);
    assert_eq!(
        collector.finished_span_names(),
        expect,
        "spans complete innermost-first, in phase order"
    );
    let m = result.segment_count as u64;
    assert_eq!(collector.counter_total("hitset.segments"), m);
    assert_eq!(
        collector.gauge_maxima().get("hitset.segments_total"),
        Some(&m)
    );
    assert_eq!(
        collector.gauge_maxima().get("tree.nodes"),
        Some(&(result.stats.tree_nodes as u64))
    );
    assert_eq!(
        collector.gauge_maxima().get("tree.distinct_hits"),
        Some(&(result.stats.distinct_hits as u64))
    );
    // The default bitmap derive reports its AND word operations under its
    // own name: a hit-set trace carries no `vertical.` span or gauge, since
    // phase attribution goes by that prefix.
    let and_ops = *collector
        .gauge_maxima()
        .get("hitset.and_ops")
        .expect("the bitmap derive emits hitset.and_ops");
    assert!(and_ops > 0);
    let vertical = collector
        .events()
        .iter()
        .map(Event::name)
        .filter(|name| name.starts_with("vertical."))
        .collect::<Vec<_>>();
    assert!(vertical.is_empty(), "{vertical:?}");

    // Sequence numbers are strictly increasing; a rerun repeats the exact
    // event names in the exact order.
    let events = collector.events();
    assert!(events.windows(2).all(|w| w[0].seq() < w[1].seq()));
    let (_, again) = mine_collected(&series, &config);
    let names = |c: &Collector| c.events().iter().map(Event::name).collect::<Vec<_>>();
    assert_eq!(names(&collector), names(&again));
}

/// How many levels a derive joined: every level up to the deepest with
/// candidates, plus that one if any of its candidates was frequent (the
/// loop then joins it too, and the join comes back empty).
fn joined_levels(result: &MiningResult) -> usize {
    let top = result.stats.max_level;
    let top_frequent = result.frequent.iter().any(|f| f.letters.len() == top);
    top - 1 + usize::from(top_frequent)
}

/// A traced vertical mine splits its derive into join and count: one
/// `derive.join` span per joined level, each nested in `vertical.derive`.
#[test]
fn vertical_derive_emits_one_join_span_per_level() {
    let series = fixed_series();
    let config = MineConfig::new(0.5).unwrap();
    let collector = Arc::new(Collector::new());
    let result = {
        let _guard = observe::install(collector.clone());
        vertical::mine_vertical(&series, 6, &config).unwrap()
    };
    let events = collector.events();
    let derive_id = events
        .iter()
        .find_map(|e| match e {
            Event::SpanStart { id, name, .. } if *name == "vertical.derive" => Some(*id),
            _ => None,
        })
        .expect("a vertical.derive span");
    let join_parents: Vec<Option<u64>> = events
        .iter()
        .filter_map(|e| match e {
            Event::SpanStart { parent, name, .. } if *name == "derive.join" => Some(*parent),
            _ => None,
        })
        .collect();
    assert_eq!(join_parents.len(), joined_levels(&result));
    assert!(
        join_parents.len() >= 2,
        "the fixture joins more than one level"
    );
    assert!(join_parents.iter().all(|&p| p == Some(derive_id)));
}

/// Apriori emits one `apriori.level` span per level and its candidate
/// counter matches the miner's own statistics.
#[test]
fn apriori_levels_match_stats() {
    let series = fixed_series();
    let config = MineConfig::new(0.5).unwrap();
    let collector = Arc::new(Collector::new());
    let result = {
        let _guard = observe::install(collector.clone());
        apriori::mine(&series, 6, &config).unwrap()
    };
    let levels = collector
        .finished_span_names()
        .iter()
        .filter(|n| **n == "apriori.level")
        .count();
    // One span per counted level; level 1 is scan 1, so max_level - 1.
    assert_eq!(levels, result.stats.max_level - 1, "{levels} level spans");
    assert_eq!(
        collector.counter_total("apriori.candidates"),
        result.stats.candidates_generated
    );
}

/// A tree-budget abort surfaces as a structured guard event.
#[test]
fn guard_abort_emits_a_structured_event() {
    let series = fixed_series();
    let config = MineConfig::new(0.5).unwrap().with_max_tree_nodes(1);
    let collector = Arc::new(Collector::new());
    let err = {
        let _guard = observe::install(collector.clone());
        hitset::mine(&series, 6, &config).unwrap_err()
    };
    assert!(err.partial_stats().is_some(), "{err}");
    let marks = collector.marks();
    assert!(
        marks
            .iter()
            .any(|(name, _)| *name == "guard.tree_budget_exceeded"),
        "{marks:?}"
    );
}

/// Every line the JSON sink writes parses with the bundled parser, carries
/// the common schema fields, and keeps sequence numbers strictly
/// increasing.
#[test]
fn json_lines_schema_round_trips() {
    #[derive(Clone, Default)]
    struct Buf(Arc<Mutex<Vec<u8>>>);
    impl std::io::Write for Buf {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(b);
            Ok(b.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let series = fixed_series();
    let buf = Buf::default();
    let sink = Arc::new(JsonLinesSink::new(Box::new(buf.clone())));
    {
        let _guard = observe::install(sink.clone());
        hitset::mine(&series, 6, &MineConfig::new(0.5).unwrap()).unwrap();
    }
    assert!(!sink.take_write_error());

    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    let mut last_seq = 0u64;
    let mut types = std::collections::BTreeSet::new();
    for line in text.lines() {
        let doc = Json::parse(line).unwrap_or_else(|e| panic!("{e} in {line}"));
        let ty = doc.get("type").and_then(Json::as_str).unwrap().to_owned();
        for key in ["seq", "us"] {
            assert!(doc.get(key).and_then(Json::as_u64).is_some(), "{line}");
        }
        assert!(doc.get("name").and_then(Json::as_str).is_some(), "{line}");
        if ty.starts_with("span") {
            assert!(doc.get("id").and_then(Json::as_u64).is_some(), "{line}");
        }
        if ty == "span_end" {
            assert!(doc.get("elapsed_us").and_then(Json::as_u64).is_some());
        }
        let seq = doc.get("seq").unwrap().as_u64().unwrap();
        assert!(seq > last_seq, "sequence must increase: {line}");
        last_seq = seq;
        types.insert(ty);
    }
    assert!(types.contains("span_start") && types.contains("span_end"));
    assert!(types.contains("gauge"));
    // Counters are aggregated by the JSON sink, not streamed per event.
    assert!(!types.contains("counter"));
    let totals = sink.counter_totals();
    assert!(totals.iter().any(|(n, _)| *n == "hitset.segments"));
}

/// A deterministic LCG stream — the repo's stand-in for a property-test
/// generator (the workspace is dependency-free; no proptest).
fn lcg_stream(seed: u64, len: usize, span: u64) -> Vec<u64> {
    let mut x = seed;
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 11) % span
        })
        .collect()
}

/// Merging histograms is associative and order-independent: any grouping
/// of per-worker histograms collapses to the same totals as recording
/// every sample into one. This is what makes the scheduler's per-worker
/// recording trustworthy.
#[test]
fn histogram_merge_is_associative() {
    use partial_periodic::observe::Histogram;

    let samples = lcg_stream(42, 3_000, 50_000_000);
    let chunks: Vec<&[u64]> = samples.chunks(samples.len() / 4).collect();
    let record_all = |vals: &[&[u64]]| {
        let mut h = Histogram::with_default_precision();
        for chunk in vals {
            for &v in *chunk {
                h.record(v);
            }
        }
        h
    };
    let one = record_all(&chunks);

    // ((a+b)+(c+d)) and (a+(b+(c+d))) and reversed order, all equal.
    let part: Vec<Histogram> = chunks
        .iter()
        .map(|c| {
            let mut h = Histogram::with_default_precision();
            for &v in *c {
                h.record(v);
            }
            h
        })
        .collect();
    let mut left = part[0].clone();
    left.merge(&part[1]);
    let mut right = part[2].clone();
    right.merge(&part[3]);
    left.merge(&right);

    let mut nested = part[3].clone();
    nested.merge(&part[2]);
    nested.merge(&part[1]);
    nested.merge(&part[0]);

    for merged in [&left, &nested] {
        assert_eq!(merged.count(), one.count());
        assert_eq!(merged.sum(), one.sum());
        assert_eq!(merged.max(), one.max());
        assert_eq!(merged.min(), one.min());
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(merged.value_at_quantile(q), one.value_at_quantile(q), "{q}");
        }
    }
}

/// Quantiles never decrease as q grows, and the extremes are exact: q→0
/// touches the recorded minimum's bucket, q=1 is the exact maximum.
#[test]
fn histogram_quantiles_are_monotone() {
    use partial_periodic::observe::Histogram;

    let mut h = Histogram::with_default_precision();
    let samples = lcg_stream(7, 5_000, 10_000_000);
    for &v in &samples {
        h.record(v);
    }
    let mut last = 0u64;
    for i in 0..=100 {
        let q = i as f64 / 100.0;
        let v = h.value_at_quantile(q);
        assert!(v >= last, "quantile dipped at q={q}: {v} < {last}");
        last = v;
    }
    assert_eq!(h.value_at_quantile(1.0), *samples.iter().max().unwrap());
}

/// Every reported quantile sits within the histogram's advertised relative
/// error of a true (sorted-array) percentile — the bucket-bound guarantee
/// that makes the serve dashboards honest.
#[test]
fn histogram_error_stays_within_advertised_precision() {
    use partial_periodic::observe::Histogram;

    for grid_bits in [2, 5, 10] {
        let mut h = Histogram::new(grid_bits);
        let mut sorted = lcg_stream(99, 4_000, 1_000_000_000);
        for &v in &sorted {
            h.record(v);
        }
        sorted.sort_unstable();
        for q in [0.01, 0.10, 0.50, 0.90, 0.99] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1] as f64;
            let approx = h.value_at_quantile(q) as f64;
            let bound = exact * h.relative_error() + 1.0;
            assert!(
                (approx - exact).abs() <= bound,
                "grid {grid_bits} q={q}: approx {approx} vs exact {exact} (bound {bound})"
            );
        }
    }
}

/// Control characters in strings — panic payloads, store names — must
/// escape to `\uXXXX` so access-log and flight-dump lines stay one line
/// of valid JSON each, and round-trip through the bundled parser.
#[test]
fn json_escaping_handles_control_characters() {
    use partial_periodic::observe::json::escape;

    // `escape` yields the full string literal, surrounding quotes included.
    assert_eq!(escape("plain"), "\"plain\"");
    assert_eq!(escape("a\"b\\c"), "\"a\\\"b\\\\c\"");
    assert_eq!(
        escape("line\nbreak\ttab\rret"),
        "\"line\\nbreak\\ttab\\rret\""
    );
    for c in (0u8..0x20).map(char::from) {
        let escaped = escape(&c.to_string());
        assert!(
            !escaped.chars().any(|e| (e as u32) < 0x20),
            "control char {:#04x} leaked through: {escaped:?}",
            c as u32
        );
        let line = format!("{{\"s\":{escaped}}}");
        let doc = Json::parse(&line).unwrap_or_else(|e| panic!("{e} in {line}"));
        assert_eq!(doc.get("s").unwrap().as_str(), Some(c.to_string().as_str()));
    }
    // Multi-byte text passes through untouched.
    let doc = Json::parse(&format!("{{\"s\":{}}}", escape("héllo ∀x"))).unwrap();
    assert_eq!(doc.get("s").unwrap().as_str(), Some("héllo ∀x"));
}

/// The load-bearing guarantee: results are bit-identical with no sink, the
/// no-op sink, and a collecting sink.
#[test]
fn mining_is_bit_identical_with_observability_on_and_off() {
    let series = fixed_series();
    let config = MineConfig::new(0.5).unwrap();
    let bare = hitset::mine(&series, 6, &config).unwrap();
    let noop = {
        let _guard = observe::install(Arc::new(NoopSink));
        hitset::mine(&series, 6, &config).unwrap()
    };
    let collected = {
        let _guard = observe::install(Arc::new(Collector::new()));
        hitset::mine(&series, 6, &config).unwrap()
    };
    for other in [&noop, &collected] {
        assert_eq!(bare.frequent, other.frequent);
        assert_eq!(bare.alphabet, other.alphabet);
        assert_eq!(bare.stats, other.stats, "stats must not change either");
    }
    assert!(!observe::is_active(), "guards must uninstall on drop");
}
