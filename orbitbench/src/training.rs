//! The `train-tiles` workload: a closed-loop `Trainer` on
//! `ModelConfig::small()` at fine 64×128, TILES 2×2 with halo 2 and two DDP
//! replicas, so each step runs eight tile jobs on the rayon registry.

use orbit2::{FaultPlan, Trainer, TrainerConfig};
use orbit2_climate::{DownscalingDataset, LatLonGrid, VariableSet};
use orbit2_imaging::tiles::TileSpec;
use orbit2_model::{ModelConfig, ReslimModel};
use std::time::Instant;

/// Fine grid of the training data.
pub const GRID: (usize, usize) = (64, 128);
/// Time steps in the dataset (the trainer cycles its training split).
pub const SAMPLES: usize = 64;
/// DDP replicas per step.
pub const REPLICAS: usize = 2;
/// Steps per run.
pub const STEPS: usize = 64;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 11;
/// Step-time limit for the training goodput, ms.
pub const LIMIT_MS: f64 = 400.0;

/// Final-loss band after [`STEPS`] steps: seeds 1–10 on the reference
/// machine ended between 0.234 and 0.374; the band widens that range by
/// its own width on each side.
pub const LOSS_BAND: (f32, f32) = (0.094, 0.514);

/// TILES 2×2, halo 2.
pub fn tiles() -> TileSpec {
    TileSpec::square(4, 2)
}

/// The model configuration.
pub fn model_config() -> ModelConfig {
    ModelConfig::small().with_channels(7, 3)
}

/// The dataset for a seed.
pub fn dataset(seed: u64) -> DownscalingDataset {
    DownscalingDataset::new(
        LatLonGrid::conus(GRID.0, GRID.1),
        VariableSet::daymet_like(),
        4,
        SAMPLES,
        seed,
    )
}

/// Dataset + model + `Trainer::new`.
pub fn build(seed: u64) -> (DownscalingDataset, Trainer) {
    let ds = dataset(seed);
    let model = ReslimModel::new(model_config(), seed + 2);
    let cfg = TrainerConfig {
        steps: STEPS,
        tile_spec: Some(tiles()),
        ddp_replicas: REPLICAS,
        ..TrainerConfig::default()
    };
    let mut trainer = Trainer::new(model, &ds, cfg);
    trainer.set_fault_plan(FaultPlan::none());
    (ds, trainer)
}

/// What a training run measured.
pub struct TrainRun {
    /// Every set-up time, s.
    pub setup_s: Vec<f64>,
    /// Wall time of each step, ms.
    pub step_ms: Vec<f64>,
    /// Wall time of all steps, s.
    pub wall_s: f64,
    /// Steps that produced no loss.
    pub failed_steps: usize,
    /// Loss after the last step.
    pub final_loss: Option<f32>,
    /// The trainer, for the traced run's probes.
    pub trainer: Trainer,
    /// The dataset.
    pub ds: DownscalingDataset,
}

/// Set up `SETUP_REPEATS` times (keeping the last) and run [`STEPS`] steps,
/// one `train_for(…, 1)` call each, with `on_step` around every call.
pub fn run(seed: u64, mut on_step: impl FnMut(usize, &mut dyn FnMut())) -> TrainRun {
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let b = build(seed);
        setup_s.push(t0.elapsed().as_secs_f64());
        built = Some(b);
    }
    let (ds, mut trainer) = built.expect("at least one set-up");
    let mut step_ms = Vec::with_capacity(STEPS);
    let mut failed_steps = 0;
    let mut final_loss = None;
    let t0 = Instant::now();
    for s in 0..STEPS {
        let t = Instant::now();
        on_step(s, &mut || {
            let report = trainer.train_for(&ds, 1);
            if report.completed_steps == 1 && report.faults.is_empty() {
                final_loss = report.final_loss;
            } else {
                failed_steps += 1;
            }
        });
        step_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    TrainRun {
        setup_s,
        step_ms,
        wall_s,
        failed_steps,
        final_loss,
        trainer,
        ds,
    }
}

/// The loss check: finite and inside [`LOSS_BAND`].
pub fn loss_ok(loss: Option<f32>) -> Result<f32, String> {
    match loss {
        Some(l) if l.is_finite() && l >= LOSS_BAND.0 && l <= LOSS_BAND.1 => Ok(l),
        Some(l) => Err(format!(
            "final loss {l} outside the reference band {LOSS_BAND:?}"
        )),
        None => Err("no step produced a loss".into()),
    }
}
