//! End-to-end properties of the bf16 activation datapath: a session
//! streaming bf16 activations must predict close to the f32 session, for
//! whole-sample and tiled inference, on both model families. Runs in both
//! SIMD modes via `scripts/ci.sh` (the bf16 kernels are single-code-path,
//! so these tolerances hold identically under `ORBIT2_DISABLE_SIMD=1`).

use orbit2::inference::downscale_with;
use orbit2_climate::{DownscalingDataset, LatLonGrid, Normalizer, VariableSet};
use orbit2_imaging::tiles::TileSpec;
use orbit2_model::{
    BaselineVit, ModelConfig, ReslimModel, SessionActivation, SessionPrecision,
};
use orbit2_tensor::Tensor;

fn setup() -> (ReslimModel, Normalizer, DownscalingDataset) {
    let ds = DownscalingDataset::new(
        LatLonGrid::conus(16, 32),
        VariableSet::daymet_like(),
        4,
        8,
        7,
    );
    let model = ReslimModel::new(ModelConfig::tiny().with_channels(7, 3), 13);
    let norm = Normalizer::fit(&ds, 4);
    (model, norm, ds)
}

fn rel_diff(a: &Tensor, b: &Tensor) -> f32 {
    let denom = a.map(|x| x.abs()).mean().max(1e-3);
    a.sub(b).map(|x| x.abs()).mean() / denom
}

/// Per-op bf16 rounding is ~2^-9 relative per op; through a tiny untrained
/// network the accumulated drift stays well under a percent of signal.
const REL_TOL: f32 = 0.02;

#[test]
fn reslim_bf16_activations_close_to_f32_whole_and_tiled() {
    let (model, norm, ds) = setup();
    let s = ds.sample(1);
    for weights in [SessionPrecision::F32, SessionPrecision::Bf16] {
        let f32_sess = model.session_with(weights, SessionActivation::F32);
        let bf16_sess = model.session_with(weights, SessionActivation::Bf16);
        for spec in [None, Some(TileSpec { tiles_y: 2, tiles_x: 2, halo: 2 })] {
            let base = downscale_with(&model, &f32_sess, &norm, &s.input, spec, 1.0).unwrap();
            let red = downscale_with(&model, &bf16_sess, &norm, &s.input, spec, 1.0).unwrap();
            assert_eq!(base.shape(), red.shape());
            let rel = rel_diff(&base, &red);
            assert!(
                rel < REL_TOL,
                "w={weights:?} tiled={}: bf16-act deviates {rel} relative",
                spec.is_some()
            );
        }
    }
}

#[test]
fn reslim_bf16_activations_deterministic() {
    // Same session, same input -> same bytes (the narrowed datapath must be
    // as deterministic as the f32 one).
    let (model, norm, ds) = setup();
    let s = ds.sample(2);
    let sess = model.session_with(SessionPrecision::Bf16, SessionActivation::Bf16);
    let a = downscale_with(&model, &sess, &norm, &s.input, None, 1.0).unwrap();
    let b = downscale_with(&model, &sess, &norm, &s.input, None, 1.0).unwrap();
    assert_eq!(a.data(), b.data());
}

#[test]
fn baseline_bf16_activations_close_to_f32() {
    let model = BaselineVit::new(ModelConfig::tiny().with_channels(5, 3), 23);
    let input = orbit2_tensor::random::randn(&[5, 8, 16], 3);
    let f32_sess = model.session_with(SessionPrecision::F32, SessionActivation::F32);
    let bf16_sess = model.session_with(SessionPrecision::F32, SessionActivation::Bf16);
    let base = model.forward(&f32_sess, &input).into_tensor();
    let red = model.forward(&bf16_sess, &input).into_tensor();
    assert_eq!(base.shape(), red.shape());
    let rel = rel_diff(&base, &red);
    assert!(rel < REL_TOL, "baseline bf16-act deviates {rel} relative");
}
