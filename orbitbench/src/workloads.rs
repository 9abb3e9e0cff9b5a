//! The three workloads, and how each run turns into metrics.

use crate::probes::{self, Layer};
use crate::serving::{self, Conn, ConnLog, DriveCtx, Input, ServeSpec, CONNECTIONS, FACTOR};
use crate::stats::{self, median};
use crate::sys;
use crate::trace::{self, Tracer};
use crate::training;
use orbit2::serving::ServeRequest;
use orbit2_climate::Normalizer;
use orbit2_imaging::tiles::TileSpec;
use orbit2_model::{ModelConfig, ReslimModel};
use orbit2_serve::tcp::response_line;
use orbit2_tensor::pool;
use orbit2_tensor::Tensor;
use serde::Value;
use std::collections::BTreeMap;
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

/// A workload.
#[derive(Debug, Clone)]
pub enum Workload {
    /// An open- and closed-loop serving workload.
    Serve(ServeSpec),
    /// The tiled training workload.
    Train,
}

/// Share of `--seconds` spent in the open-loop phase; the rest is the
/// closed-loop phase.
const OPEN_SHARE: f64 = 0.6;

/// Length of the untimed open-loop warm-up at the workload's own rate: it
/// fills the response cache and the buffer pool to their steady state.
const WARM_SECS: f64 = 3.0;

/// `serve-region`: `orbit2-serve`'s own tiny model and defaults, two
/// regions at fine 64×128, 85% region requests skewed over 256 time steps,
/// 15% raw 7×16×32 fields.
pub fn serve_region() -> ServeSpec {
    ServeSpec {
        model: ModelConfig::tiny().with_channels(7, 3),
        grid: (64, 128),
        samples: 256,
        raw_share: 0.15,
        raw_pool: 16,
        bf16_every: 0,
        time_skew: 2.0,
        rate_rps: 20.0,
        limit_ms: 250.0,
        window: 4,
    }
}

/// `serve-paper126m`: the paper's 126M configuration on raw 7×4×8 fields
/// (8 tokens), one request in four at bf16 weights.
pub fn serve_paper126m() -> ServeSpec {
    ServeSpec {
        model: ModelConfig::paper_126m().with_channels(7, 3),
        grid: (16, 32),
        samples: 32,
        raw_share: 1.0,
        raw_pool: 8,
        bf16_every: 4,
        time_skew: 1.0,
        rate_rps: 8.0,
        limit_ms: 1000.0,
        window: 4,
    }
}

/// The serving stand-in the traced `train-tiles` run probes the serve
/// layers with: the training model and data behind the same server.
fn train_serve_probe() -> ServeSpec {
    ServeSpec {
        model: training::model_config(),
        grid: training::GRID,
        samples: training::SAMPLES,
        raw_share: 0.15,
        raw_pool: 4,
        bf16_every: 0,
        time_skew: 1.0,
        rate_rps: 10.0,
        limit_ms: 1000.0,
        window: 2,
    }
}

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    match name {
        "serve-region" => Some(Workload::Serve(serve_region())),
        "serve-paper126m" => Some(Workload::Serve(serve_paper126m())),
        "train-tiles" => Some(Workload::Train),
        _ => None,
    }
}

/// What a run produced.
#[derive(Default)]
pub struct Outcome {
    /// Requests (or steps) attempted.
    pub attempted: usize,
    /// Requests (or steps) that failed or went unanswered.
    pub failed: usize,
    /// Outputs that differ from their reference.
    pub wrong: Vec<String>,
    /// Why the run is not valid data (generator behind, backlog growing).
    pub invalid: Vec<String>,
    /// Run details: counts, percentiles, generator health.
    pub details: BTreeMap<String, Value>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    fn detail(&mut self, key: &str, v: f64) {
        self.details.insert(key.to_string(), Value::Number(v));
    }
}

/// Run `workload` for `seed`.
pub fn run(workload: Workload, seed: u64, seconds: f64, tracer: &Tracer, corrupt: bool) -> Outcome {
    match workload {
        Workload::Serve(spec) => run_serve(&spec, seed, seconds, tracer, corrupt),
        Workload::Train => run_train(seed, tracer, corrupt),
    }
}

/// A serving run's state after the timed phases, for the layer probes.
struct ServeRun {
    outcome: Outcome,
    layer: Layer,
    model: ReslimModel,
    normalizer: Normalizer,
    first_input: Tensor,
    /// Region time steps the open loop asked for.
    region_times: Vec<usize>,
    jobs_per_forward: f64,
}

fn by_conn(plan: &[serving::Planned], c: usize) -> Vec<&serving::Planned> {
    plan.iter().filter(|p| p.conn == c).collect()
}

/// Set up, warm up, open loop, closed loop; the serve-layer metrics come
/// from the same run when `tracer` is on.
fn serve_phases(
    spec: &ServeSpec,
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
    corrupt: bool,
) -> ServeRun {
    let mut out = Outcome::default();
    let open_secs = seconds * OPEN_SHARE;
    let closed_secs = seconds - open_secs;
    let n_open = ((spec.rate_rps * open_secs).round() as usize).max(1);
    // The closed loop cycles through its requests, so their count sets the
    // mix's resolution, not a ceiling on completions.
    let n_closed = (spec.rate_rps * 4.0 * closed_secs) as usize + 4 * spec.window * CONNECTIONS;
    let n_warm = (spec.rate_rps * WARM_SECS).round() as usize;
    let sched = serving::schedule(spec, seed, n_open, n_closed, n_warm);
    let repeats = if tracer.enabled() {
        1
    } else {
        serving::SETUP_REPEATS
    };
    let (hosted, model, normalizer, setup_s) = serving::setup_repeated(spec, seed, repeats);
    let inputs = serving::prepare_inputs(spec, seed, &sched, &model, &normalizer);
    let server = &hosted.server;
    let ctx = DriveCtx {
        inputs: &inputs,
        server,
        tracer,
        limit_ms: spec.limit_ms,
        corrupt_next: AtomicBool::new(corrupt),
    };
    let mut conns: Vec<Conn> = (0..CONNECTIONS)
        .map(|_| Conn::connect(hosted.addr))
        .collect();
    let mut io_errors = Vec::new();

    let mut warm: Vec<ConnLog> = (0..CONNECTIONS).map(|_| ConnLog::default()).collect();
    let warm_start = Instant::now() + Duration::from_millis(2);
    io_errors.extend(serving::on_each_conn(
        &mut conns,
        &mut warm,
        |c, conn, log| serving::drive_open(&ctx, conn, &by_conn(&sched.warm, c), warm_start, log),
    ));

    let (s0, c0, p0) = (server.stats(), server.cache_stats(), pool::global_stats());
    let mut open: Vec<ConnLog> = (0..CONNECTIONS).map(|_| ConnLog::default()).collect();
    let start = Instant::now() + Duration::from_millis(2);
    io_errors.extend(serving::on_each_conn(
        &mut conns,
        &mut open,
        |c, conn, log| serving::drive_open(&ctx, conn, &by_conn(&sched.open, c), start, log),
    ));

    let mut closed: Vec<ConnLog> = (0..CONNECTIONS).map(|_| ConnLog::default()).collect();
    let closed_start = Instant::now();
    let end = closed_start + Duration::from_secs_f64(closed_secs);
    io_errors.extend(serving::on_each_conn(
        &mut conns,
        &mut closed,
        |c, conn, log| {
            serving::drive_closed(
                &ctx,
                conn,
                &by_conn(&sched.closed, c),
                spec.window,
                end,
                sched.id_stride(),
                log,
            )
        },
    ));
    let closed_len = end.duration_since(closed_start).as_secs_f64();
    // Counters cover both timed phases.
    let (s1, c1, p1) = (server.stats(), server.cache_stats(), pool::global_stats());

    for e in io_errors.into_iter().filter_map(Result::err) {
        out.invalid.push(format!("connection failed: {e}"));
    }
    let all_logs = || warm.iter().chain(&open).chain(&closed);
    out.attempted = all_logs().map(|l| l.attempted).sum();
    out.failed = all_logs().map(|l| l.failed).sum();
    out.wrong = all_logs().flat_map(|l| l.wrong.iter().cloned()).collect();

    // Open-loop latency and generator health.
    let latency: Vec<f64> = open
        .iter()
        .flat_map(|l| l.latency_ms.iter().copied())
        .collect();
    let lag: Vec<f64> = open.iter().flat_map(|l| l.lag_ms.iter().copied()).collect();
    let within: usize = open.iter().map(|l| l.within_limit).sum();
    // The open loop lasts from its start until its last reply.
    let open_len = open
        .iter()
        .filter_map(|l| l.last_reply)
        .max()
        .map_or(f64::NAN, |t| t.duration_since(start).as_secs_f64());
    let tail = stats::tail(&latency);
    let lag_tail =
        stats::tail(&lag).map_or_else(|| lag.iter().copied().fold(0.0, f64::max), |t| t.value);
    let mut backlog: Vec<(f64, usize)> = open
        .iter()
        .flat_map(|l| l.backlog.iter().copied())
        .collect();
    backlog.sort_by(|a, b| a.0.total_cmp(&b.0));
    let scheduled_ms = n_open as f64 / spec.rate_rps * 1e3;
    let (first_third, last_third, grew) = serving::backlog_grew(&backlog, scheduled_ms);
    out.detail("rate_rps", spec.rate_rps);
    out.detail("limit_ms", spec.limit_ms);
    out.detail("open_requests", n_open as f64);
    out.detail("open_seconds", open_len);
    out.detail("latency_samples", latency.len() as f64);
    let mut sorted = latency.clone();
    sorted.sort_by(f64::total_cmp);
    if !sorted.is_empty() {
        out.detail("latency_p25_ms", sorted[sorted.len() / 4]);
        out.detail("latency_p75_ms", sorted[sorted.len() * 3 / 4]);
    }
    out.detail(
        "open_cached_replies",
        open.iter().map(|l| l.cached).sum::<usize>() as f64,
    );
    out.detail(
        "open_raw_requests",
        sched
            .open
            .iter()
            .filter(|p| matches!(p.input, Input::Raw { .. }))
            .count() as f64,
    );
    if let Some(t) = tail {
        out.detail("latency_tail_ms", t.value);
        out.detail("latency_tail_percentile", t.percentile);
        out.detail("latency_tail_samples", t.samples as f64);
    }
    out.detail("generator_lag_p50_ms", median(&lag));
    out.detail("generator_lag_tail_ms", lag_tail);
    out.detail("backlog_start", backlog.first().map_or(0.0, |b| b.1 as f64));
    out.detail("backlog_end", backlog.last().map_or(0.0, |b| b.1 as f64));
    out.detail("backlog_first_third_mean", first_third);
    out.detail("backlog_last_third_mean", last_third);
    out.detail("closed_window_per_connection", spec.window as f64);
    out.detail("closed_seconds", closed_len);
    if lag_tail > 0.25 * spec.limit_ms {
        out.invalid.push(format!(
            "the generator fell behind: sends ran up to {lag_tail:.1} ms late (limit {} ms)",
            spec.limit_ms
        ));
    }
    if grew {
        out.invalid.push(format!(
            "the backlog grew over the open loop: mean {first_third:.1} in the first third, \
             {last_third:.1} in the last"
        ));
    }

    let completed: usize = closed.iter().map(|l| l.completed_in_phase).sum();
    let capacity = completed as f64 / closed_len;
    out.detail("capacity_completions", completed as f64);
    out.detail(
        "closed_cached_replies",
        closed.iter().map(|l| l.cached).sum::<usize>() as f64,
    );
    out.details.insert(
        "setup_s_each".into(),
        Value::Array(setup_s.iter().map(|&s| Value::Number(s)).collect()),
    );
    let m = &mut out.metrics;
    m.insert("latency_p50_ms", median(&latency));
    m.insert("goodput_rps", within as f64 / open_len);
    m.insert("capacity_rps", capacity);
    // Each reply is one downscaled sample.
    m.insert("train_samples_per_s", capacity);
    m.insert("setup_s", median(&setup_s));

    // Serve-layer metrics, measured on this run.
    let mut layer = Layer::new();
    let mut jobs_per_forward = 1.0;
    if tracer.enabled() {
        let replies = || open.iter().chain(&closed);
        let sent: Vec<&String> = sched
            .open
            .iter()
            .take(48)
            .map(|p| &inputs.lines[&p.id])
            .collect();
        let decode_ms = probes::timed(tracer, "serve.tcp.request_decode", sent.len(), |i| {
            serde_json::from_str::<ServeRequest>(sent[i]).expect("sent lines parse")
        });
        layer.insert("serve.tcp.request_decode_us", decode_ms * 1e3);
        let kept: Vec<_> = replies()
            .flat_map(|l| l.kept.iter().cloned())
            .map(Ok)
            .collect();
        layer.insert(
            "serve.tcp.response_encode_ms",
            probes::timed(tracer, "serve.tcp.response_encode", kept.len(), |i| {
                response_line(i as u64, &kept[i])
            }),
        );
        layer.insert(
            "serve.tcp.response_decode_ms",
            median(&tracer.durations_ms("serve.tcp.response_decode")),
        );
        let bytes: Vec<f64> = replies()
            .flat_map(|l| l.reply_bytes.iter().map(|&b| b as f64))
            .collect();
        layer.insert("serve.tcp.response_bytes", stats::mean(&bytes));
        let overhead: Vec<f64> = open
            .iter()
            .flat_map(|l| l.overhead_ms.iter().copied())
            .collect();
        layer.insert("serve.tcp.overhead_ms", median(&overhead));
        let service: Vec<f64> = open
            .iter()
            .flat_map(|l| l.service_ms.iter().copied())
            .collect();
        layer.insert("serve.server.service_ms", median(&service));
        let depth: Vec<f64> = open
            .iter()
            .flat_map(|l| l.queue_depth.iter().map(|&d| d as f64))
            .collect();
        layer.insert("serve.server.queue_depth_mean", stats::mean(&depth));
        let admitted = (s1.admitted - s0.admitted) as f64;
        let batches = (s1.batches - s0.batches) as f64;
        let jpf = if batches > 0.0 {
            admitted / batches
        } else {
            0.0
        };
        layer.insert("serve.server.jobs_per_forward", jpf);
        jobs_per_forward = jpf;
        layer.insert(
            "serve.server.batched_share",
            if admitted > 0.0 {
                (s1.batched_jobs - s0.batched_jobs) as f64 / admitted
            } else {
                0.0
            },
        );
        let lookups = (c1.hits + c1.misses - c0.hits - c0.misses) as f64;
        layer.insert(
            "serve.cache.hit_ratio",
            if lookups > 0.0 {
                (c1.hits - c0.hits) as f64 / lookups
            } else {
                0.0
            },
        );
        let reuses = (p1.reuses - p0.reuses) as f64;
        let fresh = (p1.fresh_allocs - p0.fresh_allocs) as f64;
        layer.insert(
            "tensor.pool.reuse_ratio",
            reuses / (reuses + fresh).max(1.0),
        );
        layer.insert("trace.latency_p50_ms", median(&latency));
        layer.insert("latency_tail_ms", tail.map_or(f64::NAN, |t| t.value));

        // `Server::submit` called directly on this run's requests.
        let mut submit_ms = Vec::new();
        for p in sched.open.iter().take(24) {
            let req: ServeRequest =
                serde_json::from_str(&inputs.lines[&p.id]).expect("sent lines parse");
            let span = tracer.span("serve.server.submit", None, p.id);
            let t0 = Instant::now();
            let handle = server.submit(req);
            submit_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            span.end();
            match handle.wait() {
                Ok(resp) => {
                    if !serving::matches_reference(&resp, p.id, &inputs.refs[&p.key()]) {
                        out.wrong.push(format!(
                            "submitted request {} differs from the reference",
                            p.id
                        ));
                    }
                }
                Err(e) => out
                    .invalid
                    .push(format!("submitted request {} failed: {e:?}", p.id)),
            }
        }
        layer.insert("serve.server.submit_ms", median(&submit_ms));
    }
    let first_input = match sched.open[0].input {
        Input::Region { region, time } => {
            serving::region_datasets(spec, seed)[region]
                .sample(time)
                .input
        }
        Input::Raw { field } => inputs.fields[field].clone(),
    };
    let region_times = sched
        .open
        .iter()
        .filter_map(|p| match p.input {
            Input::Region { time, .. } => Some(time),
            Input::Raw { .. } => None,
        })
        .take(12)
        .collect();
    drop(conns);
    hosted.stop();
    out.metrics.insert("peak_rss_mb", sys::peak_rss_mb());
    ServeRun {
        outcome: out,
        layer,
        model,
        normalizer,
        first_input,
        region_times,
        jobs_per_forward,
    }
}

fn run_serve(spec: &ServeSpec, seed: u64, seconds: f64, tracer: &Tracer, corrupt: bool) -> Outcome {
    let run = serve_phases(spec, seed, seconds, tracer, corrupt);
    let mut out = run.outcome;
    if !tracer.enabled() {
        return out;
    }
    let mut layer = run.layer;
    let model = run.model;
    let x = run.normalizer.normalize_input(&run.first_input);
    let whole = TileSpec {
        tiles_y: 1,
        tiles_x: 1,
        halo: 0,
    };
    let batch = run.jobs_per_forward.round().clamp(1.0, 8.0) as usize;
    let (h, w) = (x.shape()[1], x.shape()[2]);

    // Climate: the samples the open loop asked for (the raw fields'
    // source when every request is raw).
    let (climate_ds, climate_times) = if run.region_times.is_empty() {
        (
            serving::raw_dataset(spec, seed),
            (0..spec.raw_pool).collect(),
        )
    } else {
        (
            serving::region_datasets(spec, seed).swap_remove(0),
            run.region_times,
        )
    };
    probes::climate(
        tracer,
        &mut layer,
        &climate_ds,
        &run.normalizer,
        &climate_times,
    );
    probes::tiling(
        tracer,
        &mut layer,
        &x,
        None,
        whole,
        FACTOR,
        model.cfg.out_channels,
    );
    probes::session_prep(
        tracer,
        &mut layer,
        &model,
        if model.cfg.embed_dim >= 512 { 1 } else { 5 },
    );
    probes::model(tracer, &mut layer, &model, &x, batch, false);
    probes::gemm(
        tracer,
        &mut layer,
        &model,
        batch * model.effective_seq_len(h, w, 1.0),
    );
    let tokens_cfg = model.cfg;
    drop(model);

    // The tape layers at this workload's data; the 126M model's tape step
    // (weights, gradients and Adam moments ≈ 2 GB beside the serving
    // sessions) stands in as the paper's 9.5M configuration.
    let stand_in = if tokens_cfg.embed_dim >= 512 {
        ModelConfig::paper_9_5m().with_channels(7, 3)
    } else {
        tokens_cfg
    };
    probes::train(
        tracer,
        &mut layer,
        ReslimModel::new(stand_in, seed + 2),
        &climate_ds,
        whole,
        1,
        4,
    );
    finish_layers(&mut out, layer, tracer);
    out
}

fn run_train(seed: u64, tracer: &Tracer, corrupt: bool) -> Outcome {
    let mut out = Outcome::default();
    let p0 = pool::global_stats();
    let run = training::run(seed, |s, step| {
        let _span = tracer.span("core.trainer.step", None, s as u64);
        step()
    });
    let p1 = pool::global_stats();
    out.attempted = training::STEPS;
    out.failed = run.failed_steps;
    // A corrupted output for this workload is a corrupted final loss.
    let final_loss = if corrupt {
        run.final_loss.map(|l| l * 10.0)
    } else {
        run.final_loss
    };
    match training::loss_ok(final_loss) {
        Ok(loss) => out.detail("final_loss", f64::from(loss)),
        Err(e) => out.wrong.push(e),
    }
    let tail = stats::tail(&run.step_ms);
    let within = run
        .step_ms
        .iter()
        .filter(|&&ms| ms <= training::LIMIT_MS)
        .count();
    out.detail("steps", training::STEPS as f64);
    out.detail("replicas", training::REPLICAS as f64);
    out.detail("limit_ms", training::LIMIT_MS);
    out.detail("wall_s", run.wall_s);
    if let Some(t) = tail {
        out.detail("latency_tail_ms", t.value);
        out.detail("latency_tail_percentile", t.percentile);
        out.detail("latency_tail_samples", t.samples as f64);
    }
    out.details.insert(
        "setup_s_each".into(),
        Value::Array(run.setup_s.iter().map(|&s| Value::Number(s)).collect()),
    );
    let step_p50 = median(&run.step_ms);
    let m = &mut out.metrics;
    m.insert("latency_p50_ms", step_p50);
    m.insert("goodput_rps", within as f64 / run.wall_s);
    m.insert("capacity_rps", training::STEPS as f64 / run.wall_s);
    m.insert(
        "train_samples_per_s",
        (training::REPLICAS * training::STEPS) as f64 / run.wall_s,
    );
    m.insert("setup_s", median(&run.setup_s));
    m.insert("peak_rss_mb", sys::peak_rss_mb());
    if !tracer.enabled() {
        return out;
    }

    let mut layer = Layer::new();
    let reuses = (p1.reuses - p0.reuses) as f64;
    let fresh = (p1.fresh_allocs - p0.fresh_allocs) as f64;
    layer.insert(
        "tensor.pool.reuse_ratio",
        reuses / (reuses + fresh).max(1.0),
    );
    let ds = &run.ds;
    let normalizer = run.trainer.normalizer.clone();
    let smp = ds.sample(0);
    let x = normalizer.normalize_input(&smp.input);
    let y = normalizer.normalize_target(&smp.target);
    let jobs = training::REPLICAS * training::tiles().tiles_y * training::tiles().tiles_x;
    let tile =
        orbit2::tiling::split_sample(&x, Some(&y), training::tiles(), ds.factor).swap_remove(0);
    let (th, tw) = (tile.input.shape()[1], tile.input.shape()[2]);
    let times: Vec<usize> = (0..12).map(|i| i * 5 % training::SAMPLES).collect();
    probes::climate(tracer, &mut layer, ds, &normalizer, &times);
    probes::tiling(
        tracer,
        &mut layer,
        &x,
        Some(&y),
        training::tiles(),
        ds.factor,
        3,
    );
    let model = ReslimModel {
        cfg: run.trainer.model.cfg,
        params: run.trainer.model.params.clone(),
    };
    probes::session_prep(tracer, &mut layer, &model, 5);
    probes::model(tracer, &mut layer, &model, &tile.input, jobs, true);
    probes::gemm(
        tracer,
        &mut layer,
        &model,
        jobs * model.effective_seq_len(th, tw, 1.0),
    );
    probes::train(
        tracer,
        &mut layer,
        model,
        ds,
        training::tiles(),
        training::REPLICAS,
        4,
    );
    layer.insert("core.trainer.step_ms", step_p50);
    layer.insert("trace.latency_p50_ms", step_p50);
    layer.insert("latency_tail_ms", tail.map_or(f64::NAN, |t| t.value));

    // The serve layers at this workload's model and data, behind the
    // same server the serving workloads use.
    let probe = serve_phases(&train_serve_probe(), seed, 2.0, tracer, false);
    for (k, v) in probe.layer {
        if k.starts_with("serve.") {
            layer.insert(k, v);
        }
    }
    out.attempted += probe.outcome.attempted;
    out.failed += probe.outcome.failed;
    out.wrong.extend(probe.outcome.wrong);
    out.invalid.extend(probe.outcome.invalid);
    finish_layers(&mut out, layer, tracer);
    out
}

/// Per-layer self times from the spans, then the per-layer metrics replace
/// the end-to-end ones.
fn finish_layers(out: &mut Outcome, mut layer: Layer, tracer: &Tracer) {
    let spans = tracer.spans();
    let by_layer = trace::self_ms_by_layer(&spans);
    for (name, key) in [
        ("serve", "self_ms.serve"),
        ("climate", "self_ms.climate"),
        ("core", "self_ms.core"),
        ("model", "self_ms.model"),
        ("tensor", "self_ms.tensor"),
        ("autograd", "self_ms.autograd"),
        ("rayon", "self_ms.rayon"),
        ("bench", "self_ms.bench"),
    ] {
        layer.insert(key, by_layer.get(name).copied().unwrap_or(0.0));
    }
    layer.insert("trace.spans", spans.len() as f64);
    out.metrics = layer;
}
