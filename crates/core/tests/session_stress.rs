//! Concurrency stress: one prepared `InferenceSession` shared by many
//! threads running `downscale_with` over mixed input shapes must produce
//! outputs bit-identical to a serial run. This is the safety property the
//! serving layer leans on (one session, many concurrent batches), checked
//! here without any serving machinery in the way.

use orbit2::inference::downscale_with;
use orbit2_climate::{DownscalingDataset, LatLonGrid, Normalizer, VariableSet};
use orbit2_imaging::tiles::TileSpec;
use orbit2_model::{ModelConfig, ReslimModel, SessionActivation, SessionPrecision};
use orbit2_tensor::Tensor;
use std::sync::Arc;

#[test]
fn concurrent_sessions_bitwise_match_serial() {
    let variables = VariableSet::daymet_like();
    let model = Arc::new(ReslimModel::new(ModelConfig::tiny().with_channels(7, 3), 11));
    let session = Arc::new(model.session_with(SessionPrecision::F32, SessionActivation::F32));

    // Mixed workload: three coarse-grid shapes, with and without tiling,
    // at two compression targets.
    let grids = [LatLonGrid::conus(16, 32), LatLonGrid::conus(32, 32), LatLonGrid::global(16, 64)];
    let mut jobs: Vec<(Tensor, Option<TileSpec>, f32)> = Vec::new();
    let mut norm = None;
    for (gi, grid) in grids.into_iter().enumerate() {
        let ds = DownscalingDataset::new(grid, variables.clone(), 4, 4, 7 + gi as u64);
        if norm.is_none() {
            norm = Some(Normalizer::fit(&ds, 4));
        }
        for s in 0..3 {
            let input = ds.sample(s).input;
            let spec = if s % 2 == 0 { None } else { Some(TileSpec::square(4, 1)) };
            let compression = if s == 2 { 2.0 } else { 1.0 };
            jobs.push((input, spec, compression));
        }
    }
    let norm = Arc::new(norm.unwrap());
    let jobs = Arc::new(jobs);

    // Serial reference, one job at a time on this thread.
    let reference: Vec<Vec<f32>> = jobs
        .iter()
        .map(|(input, spec, compression)| {
            downscale_with(&model, &session, &norm, input, *spec, *compression)
                .expect("valid input")
                .data()
                .to_vec()
        })
        .collect();
    let reference = Arc::new(reference);

    // 6 threads hammer the one session, each sweeping all jobs from a
    // different starting offset so distinct shapes overlap in time.
    let threads: Vec<_> = (0..6)
        .map(|t| {
            let (model, session, norm) = (model.clone(), session.clone(), norm.clone());
            let (jobs, reference) = (jobs.clone(), reference.clone());
            std::thread::spawn(move || {
                for round in 0..2 {
                    for k in 0..jobs.len() {
                        let j = (t + round + k) % jobs.len();
                        let (input, spec, compression) = &jobs[j];
                        let out =
                            downscale_with(&model, &session, &norm, input, *spec, *compression)
                                .expect("valid input");
                        assert_eq!(
                            out.data(),
                            &reference[j][..],
                            "thread {t} round {round} job {j}: concurrent != serial"
                        );
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("stress thread panicked");
    }
}
