//! Table II(b), real kernels: Reslim forward pass under adaptive
//! compression ratios and tile counts, tape-free via inference sessions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use orbit2_model::{ModelConfig, ReslimModel, SessionActivation, SessionPrecision};
use orbit2_tensor::random::randn;

fn bench_compression(c: &mut Criterion) {
    let cfg = ModelConfig::tiny().with_channels(7, 3);
    let model = ReslimModel::new(cfg, 1);
    let session = model.session_with(SessionPrecision::F32, SessionActivation::F32);
    let input = randn(&[7, 32, 32], 9);
    let mut group = c.benchmark_group("table2b_compression");
    group.sample_size(10);
    for &ratio in &[1.0f32, 2.0, 4.0, 8.0] {
        group.bench_with_input(BenchmarkId::new("reslim_forward", format!("{ratio}x")), &ratio, |b, &ratio| {
            b.iter(|| model.forward(&session, &input, ratio).0.into_tensor())
        });
    }
    group.finish();
}

fn bench_tiling(c: &mut Criterion) {
    use orbit2::inference::downscale_with;
    use orbit2_climate::Normalizer;
    use orbit2_imaging::tiles::TileSpec;
    let ds = orbit2_climate::DownscalingDataset::new(
        orbit2_climate::LatLonGrid::conus(32, 64),
        orbit2_climate::VariableSet::daymet_like(),
        4,
        4,
        3,
    );
    let model = ReslimModel::new(ModelConfig::tiny().with_channels(7, 3), 2);
    let session = model.session_with(SessionPrecision::F32, SessionActivation::F32);
    let norm = Normalizer::fit(&ds, 2);
    let sample = ds.sample(0);
    let mut group = c.benchmark_group("table2b_tiling");
    group.sample_size(10);
    for &tiles in &[1usize, 4, 16] {
        let spec = if tiles == 1 { None } else { Some(TileSpec::square(tiles, 1)) };
        group.bench_with_input(BenchmarkId::new("tiled_inference", tiles), &spec, |b, spec| {
            b.iter(|| downscale_with(&model, &session, &norm, &sample.input, *spec, 1.0).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_compression, bench_tiling);
criterion_main!(benches);
