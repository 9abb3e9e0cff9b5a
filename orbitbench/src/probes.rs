//! Layer probes of the traced run: each public function a layer metric
//! names, called directly at the workload's own shapes and inputs, every
//! call inside a span named after the layer.

use crate::stats::median;
use crate::trace::Tracer;
use orbit2::tiling::{split_sample, split_stack, stitch_predictions};
use orbit2::{Trainer, TrainerConfig};
use orbit2_autograd::params::{average_grad_maps, GradMap};
use orbit2_autograd::{Adam, Optimizer, Tape};
use orbit2_climate::{DownscalingDataset, Normalizer, Split};
use orbit2_imaging::tiles::{TileGeometry, TileSpec};
use orbit2_model::blocks::{cross_attention_aggregate, mlp, self_attention};
use orbit2_model::loss::{bayesian_loss, BayesianLossCfg};
use orbit2_model::{Binder, Exec, ModelProfile, ReslimModel, SessionActivation, SessionPrecision};
use orbit2_tensor::fused::{matmul_bias_act_cached, Activation, PackedWeight};
use orbit2_tensor::random::randn;
use orbit2_tensor::Tensor;
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Per-layer metric values by name.
pub type Layer = BTreeMap<&'static str, f64>;

/// Call `f` `n` times, each in a span `name`; the median call in ms.
pub fn timed<R>(
    tracer: &Tracer,
    name: &'static str,
    n: usize,
    mut f: impl FnMut(usize) -> R,
) -> f64 {
    let mut ms = Vec::with_capacity(n);
    for i in 0..n {
        let span = tracer.span(name, None, i as u64);
        let t0 = Instant::now();
        black_box(f(i));
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
        span.end();
    }
    median(&ms)
}

/// `climate.sample_ms` and `climate.normalize_us` on `times` of `ds`.
pub fn climate(
    tracer: &Tracer,
    out: &mut Layer,
    ds: &DownscalingDataset,
    norm: &Normalizer,
    times: &[usize],
) {
    let samples: Vec<_> = times.iter().map(|&t| ds.sample(t)).collect();
    out.insert(
        "climate.sample_ms",
        timed(tracer, "climate.sample", times.len(), |i| {
            ds.sample(times[i])
        }),
    );
    let normalize_ms = timed(tracer, "climate.normalize", samples.len(), |i| {
        let x = norm.normalize_input(&samples[i].input);
        let y = norm.denormalize_target(&samples[i].target);
        (x, y)
    });
    out.insert("climate.normalize_us", normalize_ms * 1e3);
}

/// `core.tiling.split_us` / `stitch_us` on a normalized sample: the
/// server's whole-sample `split_stack`, or the trainer's `split_sample`
/// with a target when `spec` tiles.
pub fn tiling(
    tracer: &Tracer,
    out: &mut Layer,
    input: &Tensor,
    target: Option<&Tensor>,
    spec: TileSpec,
    factor: usize,
    out_channels: usize,
) {
    let reps = 32;
    let split_ms = match target {
        Some(t) => timed(tracer, "core.tiling.split", reps, |_| {
            split_sample(input, Some(t), spec, factor)
        }),
        None => timed(tracer, "core.tiling.split", reps, |_| {
            split_stack(input, spec)
        }),
    };
    out.insert("core.tiling.split_us", split_ms * 1e3);
    let preds: Vec<(TileGeometry, Tensor)> = split_stack(input, spec)
        .into_iter()
        .map(|(g, _)| {
            let s = g.scaled(factor);
            (g, randn(&[out_channels, s.padded_h(), s.padded_w()], 3))
        })
        .collect();
    let (h, w) = (input.shape()[1], input.shape()[2]);
    let stitch_ms = timed(tracer, "core.tiling.stitch", reps, |_| {
        stitch_predictions(&preds, h, w, factor)
    });
    out.insert("core.tiling.stitch_us", stitch_ms * 1e3);
}

/// Session preparation per (weight × activation) cell.
pub fn session_prep(tracer: &Tracer, out: &mut Layer, model: &ReslimModel, reps: usize) {
    for (name, precision) in [
        ("model.session_prep_ms.f32xf32", SessionPrecision::F32),
        ("model.session_prep_ms.bf16xf32", SessionPrecision::Bf16),
    ] {
        let ms = timed(tracer, "model.session_prep", reps, |_| {
            model.session_with(precision, SessionActivation::F32)
        });
        out.insert(name, ms);
    }
}

/// Forward, batched forward, FLOP rate and the block pieces on the f32
/// session; `on_tape` times the block pieces on a training `Binder`
/// instead.
pub fn model(
    tracer: &Tracer,
    out: &mut Layer,
    model: &ReslimModel,
    input: &Tensor,
    batch: usize,
    on_tape: bool,
) {
    let cfg = &model.cfg;
    let session = model.session_with(SessionPrecision::F32, SessionActivation::F32);
    let reps = reps_for(cfg.embed_dim);
    let forward_ms = timed(tracer, "model.forward", reps, |_| {
        model.forward(&session, input, 1.0)
    });
    out.insert("model.forward_ms", forward_ms);
    let inputs: Vec<&Tensor> = (0..batch).map(|_| input).collect();
    let batch_ms = timed(tracer, "model.forward_batch", reps.div_ceil(2), |_| {
        orbit2_model::forward_batch(model, &session, &inputs, 1.0)
    });
    out.insert("model.forward_batch_job_ms", batch_ms / batch as f64);
    let (h, w) = (input.shape()[1], input.shape()[2]);
    let tokens = model.effective_seq_len(h, w, 1.0);
    let flops = ModelProfile::of(cfg).forward_flops(tokens as u64);
    out.insert("model.forward_gflops", flops / (forward_ms * 1e-3) / 1e9);

    let x = randn(&[tokens, cfg.embed_dim], 11);
    let vars: Vec<Tensor> = (0..cfg.in_channels)
        .map(|c| randn(&[tokens, cfg.embed_dim], 20 + c as u64))
        .collect();
    let reps = reps * 2;
    if on_tape {
        let tape = Tape::new();
        let binder = Binder::new(&tape, &model.params);
        block_pieces(tracer, out, &binder, cfg, &x, &vars, reps);
    } else {
        block_pieces(tracer, out, &session, cfg, &x, &vars, reps);
    }
}

fn block_pieces<E: Exec>(
    tracer: &Tracer,
    out: &mut Layer,
    ex: &E,
    cfg: &orbit2_model::ModelConfig,
    x: &Tensor,
    vars: &[Tensor],
    reps: usize,
) {
    let xv = ex.constant(x.clone());
    let tokens: Vec<E::Value> = vars.iter().map(|t| ex.constant(t.clone())).collect();
    out.insert(
        "model.block.attention_ms",
        timed(tracer, "model.block.attention", reps, |_| {
            ex.tensor(&self_attention(ex, cfg, "blk0", &xv))
        }),
    );
    out.insert(
        "model.block.mlp_ms",
        timed(tracer, "model.block.mlp", reps, |_| {
            ex.tensor(&mlp(ex, "blk0", &xv))
        }),
    );
    out.insert(
        "model.xattn_ms",
        timed(tracer, "model.xattn", reps, |_| {
            ex.tensor(&cross_attention_aggregate(ex, cfg, &tokens))
        }),
    );
}

/// Enough repeats for a stable median without spending seconds on the
/// 126M model.
fn reps_for(embed_dim: usize) -> usize {
    if embed_dim >= 512 {
        5
    } else {
        21
    }
}

/// The packed GEMM at the model's linear shapes: `M = jobs × tokens`,
/// `K = D`, `N ∈ {D, 4D}`, through `matmul_bias_act_cached` with a resident
/// pack at f32 and at bf16. Bytes are computed from tensor sizes.
pub fn gemm(tracer: &Tracer, out: &mut Layer, model: &ReslimModel, m: usize) {
    let d = model.cfg.embed_dim;
    let weights = [
        model.params.get("blk0.attn.wq"),
        model.params.get("blk0.mlp.w1"),
    ];
    let x = randn(&[m.max(1), d], 5);
    for (label, bf16) in [("f32", false), ("bf16", true)] {
        let (mut flops, mut bytes, mut secs) = (0.0, 0.0, 0.0);
        for w in weights {
            let w = if bf16 { w.to_bf16() } else { w.clone() };
            let precision = if bf16 {
                SessionPrecision::Bf16
            } else {
                SessionPrecision::F32
            };
            let pack = PackedWeight::pack_at(&w, precision);
            let (n, k) = (w.shape()[0], w.shape()[1]);
            let reps = (2e8 / (2.0 * (m * n * k) as f64)).clamp(3.0, 200.0) as usize;
            let ms = timed(tracer, "tensor.gemm", reps, |_| {
                matmul_bias_act_cached(&x, &w, pack.as_ref(), None, Activation::Identity)
            });
            let weight_bytes = pack
                .as_ref()
                .map_or(n * k * 4, |p| p.len() * if bf16 { 2 } else { 4 });
            flops += 2.0 * (m * n * k) as f64;
            bytes += (weight_bytes + m * k * 4 + m * n * 4) as f64;
            secs += ms * 1e-3;
        }
        let (gflops, gbps) = match label {
            "f32" => ("tensor.gemm.f32.gflops", "tensor.gemm.f32.gbps"),
            _ => ("tensor.gemm.bf16.gflops", "tensor.gemm.bf16.gbps"),
        };
        out.insert(gflops, flops / secs / 1e9);
        out.insert(gbps, bytes / secs / 1e9);
    }
}

/// Latitude weights for a padded target tile (the trainer's crop of the
/// fine-grid weight field at the tile's scaled geometry).
fn crop_weights(lat: &Tensor, geom: TileGeometry, factor: usize) -> Tensor {
    let (fh, fw) = (lat.shape()[0], lat.shape()[1]);
    let g = geom.scaled(factor);
    let (ph, pw) = (g.padded_h(), g.padded_w());
    let mut out = Vec::with_capacity(ph * pw);
    for y in 0..ph {
        let gy = (g.core_y0 as i64 + y as i64 - g.halo as i64).clamp(0, fh as i64 - 1) as usize;
        for x in 0..pw {
            let gx = (g.core_x0 as i64 + x as i64 - g.halo as i64).clamp(0, fw as i64 - 1) as usize;
            out.push(lat.data()[gy * fw + gx]);
        }
    }
    Tensor::from_vec(vec![ph, pw], out)
}

/// The training layers: `Trainer::train_for(…, 1)`, and a step replayed
/// from outside through the same public functions the trainer calls —
/// data load, split, tape forward + loss and backward per tile job on the
/// rayon registry, gradient all-reduce, Adam.
pub fn train(
    tracer: &Tracer,
    out: &mut Layer,
    model: ReslimModel,
    ds: &DownscalingDataset,
    spec: TileSpec,
    replicas: usize,
    steps: usize,
) {
    let factor = ds.factor;
    let params = model.params.clone();
    let cfg = model.cfg;
    let mut trainer = Trainer::new(
        model,
        ds,
        TrainerConfig {
            steps: steps + 1,
            tile_spec: Some(spec),
            ddp_replicas: replicas,
            ..TrainerConfig::default()
        },
    );
    trainer.set_fault_plan(orbit2::FaultPlan::none());
    trainer.train_for(ds, 1);
    let step_ms = timed(tracer, "core.trainer.step", steps, |_| {
        trainer.train_for(ds, 1)
    });
    out.insert("core.trainer.step_ms", step_ms);

    let normalizer = trainer.normalizer.clone();
    let mut model = ReslimModel { cfg, params };
    let mut opt = Adam::new(2e-3).with_weight_decay(1e-5);
    let lat = Tensor::from_vec(
        vec![ds.fine_grid().h, ds.fine_grid().w],
        ds.fine_grid().latitude_weight_field(),
    );
    let train_idx = ds.indices(Split::Train);
    let (mut fwd, mut bwd, mut reduce, mut optim, mut sample, mut walls) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    let mut idle = vec![];
    for s in 0..steps {
        let step_span = tracer.span("core.trainer.replayed_step", None, s as u64);
        let sid = step_span.id();
        let t_step = Instant::now();
        let mut jobs = Vec::new();
        for r in 0..replicas {
            let i = train_idx[(s * replicas + r) % train_idx.len()];
            let span = tracer.span("climate.sample", sid, s as u64);
            let t0 = Instant::now();
            let smp = ds.sample(i);
            sample.push(t0.elapsed().as_secs_f64() * 1e3);
            span.end();
            let norm_span = tracer.span("climate.normalize", sid, s as u64);
            let x = normalizer.normalize_input(&smp.input);
            let y = normalizer.normalize_target(&smp.target);
            norm_span.end();
            let split_span = tracer.span("core.tiling.split", sid, s as u64);
            jobs.extend(split_sample(&x, Some(&y), spec, factor));
            split_span.end();
        }
        let par_span = tracer.span("rayon.par_iter", sid, s as u64);
        let pid = par_span.id();
        let t_par = Instant::now();
        let results: Vec<(f64, f64, GradMap)> = jobs
            .par_iter()
            .map(|tile| {
                let span = tracer.span("autograd.forward", pid, s as u64);
                let t0 = Instant::now();
                let tape = Tape::new();
                let binder = Binder::new(&tape, &model.params);
                let (pred, _) = model.forward(&binder, &tile.input, 1.0);
                let weights = crop_weights(&lat, tile.geom, factor);
                let target = tile.target.as_ref().expect("training tiles carry targets");
                let loss = bayesian_loss(pred, target, &weights, BayesianLossCfg::default());
                let f_ms = t0.elapsed().as_secs_f64() * 1e3;
                span.end();
                let span = tracer.span("autograd.backward", pid, s as u64);
                let t1 = Instant::now();
                let grads = tape.backward(loss);
                let gm = binder.grad_map(&grads);
                let b_ms = t1.elapsed().as_secs_f64() * 1e3;
                span.end();
                (f_ms, b_ms, gm)
            })
            .collect();
        let par_ms = t_par.elapsed().as_secs_f64() * 1e3;
        par_span.end();
        let busy: f64 = results.iter().map(|(f, b, _)| f + b).sum();
        idle.push(1.0 - busy / (par_ms * rayon::current_num_threads() as f64));
        let maps: Vec<GradMap> = results
            .into_iter()
            .map(|(f, b, gm)| {
                fwd.push(f);
                bwd.push(b);
                gm
            })
            .collect();
        let span = tracer.span("autograd.allreduce", sid, s as u64);
        let t0 = Instant::now();
        let avg = average_grad_maps(&maps);
        reduce.push(t0.elapsed().as_secs_f64() * 1e3);
        span.end();
        let span = tracer.span("autograd.optimizer", sid, s as u64);
        let t0 = Instant::now();
        opt.step(&mut model.params, &avg);
        optim.push(t0.elapsed().as_secs_f64() * 1e3);
        span.end();
        walls.push(t_step.elapsed().as_secs_f64() * 1e3);
    }
    out.insert("autograd.forward_ms", median(&fwd));
    out.insert("autograd.backward_ms", median(&bwd));
    out.insert("autograd.allreduce_ms", median(&reduce));
    out.insert("autograd.optimizer_ms", median(&optim));
    out.insert("rayon.idle_share", median(&idle).max(0.0));
    out.insert(
        "core.trainer.data_share",
        median(&sample) * replicas as f64 / step_ms,
    );
}
