//! Experiment E6 as a Criterion benchmark: multi-period mining by looping
//! (Algorithm 3.3) vs shared two-scan mining (Algorithm 3.4), as the
//! period range widens.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ppm_core::multi::{mine_periods_looping, mine_periods_shared, PeriodRange};
use ppm_core::{Engine, MineConfig};
use ppm_datagen::SyntheticSpec;

fn bench_multi_period(c: &mut Criterion) {
    let mut group = c.benchmark_group("multi_period");
    let data = SyntheticSpec::table1(30_000, 24, 4, 8).generate();
    let config = MineConfig::new(0.6).unwrap();
    for width in [3usize, 9, 15] {
        let range = PeriodRange::new(24 - width / 2, 24 + width.div_ceil(2)).unwrap();
        group.bench_with_input(BenchmarkId::new("looping", width), &width, |b, _| {
            b.iter(|| {
                black_box(
                    mine_periods_looping(&data.series, range, &config, Engine::HitSet)
                        .unwrap(),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("shared", width), &width, |b, _| {
            b.iter(|| black_box(mine_periods_shared(&data.series, range, &config).unwrap()))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));
    targets = bench_multi_period
}
criterion_main!(benches);
