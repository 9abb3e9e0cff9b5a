//! Global inference against shifted observations (the paper's Fig. 8):
//! train on the ERA5-like reanalysis generator, then evaluate precipitation
//! against the IMERG-like satellite observation — a product with different
//! statistics (multiplicative retrieval noise, recalibration, drizzle
//! censoring). "Perfect alignment is not expected."
//!
//! ```sh
//! cargo run --release --example global_inference
//! ```

use orbit2::inference::downscale_with;
use orbit2::trainer::{Trainer, TrainerConfig};
use orbit2_climate::imerg::{observe_precipitation, ImergLikeParams};
use orbit2_climate::{DownscalingDataset, LatLonGrid, Split, VariableSet};
use orbit2_metrics::precip::log_precip_slice;
use orbit2_metrics::regression::{r2_score, rmse};
use orbit2_metrics::ssim::{psnr, ssim};
use orbit2_model::{ModelConfig, ReslimModel, SessionActivation, SessionPrecision};

fn main() {
    let dataset = DownscalingDataset::new(
        LatLonGrid::global(32, 64),
        VariableSet::era5_like(),
        4,
        40,
        31,
    );
    let model = ReslimModel::new(ModelConfig::tiny().with_channels(23, 3), 5);
    println!("training on the global ERA5-like task ({} params)...", model.num_params());
    let cfg = TrainerConfig { steps: 60, lr: 2e-3, warmup: 6, log_every: 20, ..Default::default() };
    let mut trainer = Trainer::new(model, &dataset, cfg);
    let report = trainer.train(&dataset);
    println!("final loss {:.4}", report.final_loss.expect("no steps completed"));

    let (h, w) = (dataset.fine_grid().h, dataset.fine_grid().w);
    let plane = h * w;
    let chan = dataset.variables().output_index("prcp").unwrap();
    let mut preds = Vec::new();
    let mut obs = Vec::new();
    let test_idx = dataset.indices(Split::Test);
    // One tape-free session for the whole evaluation loop.
    let session = trainer.model.session_with(SessionPrecision::F32, SessionActivation::F32);
    for &i in &test_idx {
        let s = dataset.sample(i);
        let pred =
            downscale_with(&trainer.model, &session, &trainer.normalizer, &s.input, None, 1.0)
                .expect("valid sample");
        preds.extend_from_slice(&pred.data()[chan * plane..(chan + 1) * plane]);
        // The satellite sees the same weather through a distorted sensor.
        obs.extend(observe_precipitation(dataset.world(), s.t, ImergLikeParams::default()));
    }
    let lp = log_precip_slice(&preds);
    let lo = log_precip_slice(&obs);
    let frames = test_idx.len();
    let mut ssim_acc = 0.0;
    let mut psnr_acc = 0.0;
    for f in 0..frames {
        ssim_acc += ssim(&lp[f * plane..(f + 1) * plane], &lo[f * plane..(f + 1) * plane], h, w);
        psnr_acc += psnr(&lp[f * plane..(f + 1) * plane], &lo[f * plane..(f + 1) * plane]);
    }
    println!("\nglobal precipitation vs IMERG-like observations (paper: R2 0.90, SSIM 0.96, PSNR 41.8, RMSE 0.34):");
    println!("  R2   (log space) {:>6.3}", r2_score(&lp, &lo));
    println!("  SSIM             {:>6.3}", ssim_acc / frames as f64);
    println!("  PSNR             {:>6.1} dB", psnr_acc / frames as f64);
    println!("  RMSE (log mm/d)  {:>6.3}", rmse(&lp, &lo));
}
