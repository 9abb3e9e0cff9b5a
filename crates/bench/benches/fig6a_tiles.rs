//! Fig. 6(a), real execution: TILES inference throughput as the thread pool
//! ("GPU count") grows. Threads stand in for GPUs exactly as in the
//! trainer; near-linear scaling is the claim under test.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use orbit2::inference::downscale_with;
use orbit2_climate::{DownscalingDataset, LatLonGrid, Normalizer, VariableSet};
use orbit2_imaging::tiles::TileSpec;
use orbit2_model::{ModelConfig, ReslimModel, SessionActivation, SessionPrecision};

fn bench_tiles_scaling(c: &mut Criterion) {
    let ds = DownscalingDataset::new(LatLonGrid::conus(64, 128), VariableSet::daymet_like(), 4, 4, 3);
    let model = ReslimModel::new(ModelConfig::tiny().with_channels(7, 3), 3);
    let session = model.session_with(SessionPrecision::F32, SessionActivation::F32);
    let norm = Normalizer::fit(&ds, 2);
    let sample = ds.sample(0);
    let spec = TileSpec::square(16, 1);
    let max = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let mut group = c.benchmark_group("fig6a_tiles_vs_threads");
    group.sample_size(10);
    let mut threads = 1usize;
    while threads <= max.min(16) {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        group.bench_with_input(BenchmarkId::new("16_tiles", threads), &threads, |b, _| {
            b.iter(|| {
                pool.install(|| {
                    downscale_with(&model, &session, &norm, &sample.input, Some(spec), 1.0).unwrap()
                })
            })
        });
        threads *= 2;
    }
    group.finish();
}

criterion_group!(benches, bench_tiles_scaling);
criterion_main!(benches);
