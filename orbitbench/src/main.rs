//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path orbitbench/Cargo.toml -- \
//!     --workload serve-region --seed 1 --seconds 60 --trace 0
//! ```
//!
//! Runs one workload for one seed, checks every output, and prints as its
//! last stdout line `{"correct", "attempted", "failed", "metrics"}` with
//! every end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`). Earlier stdout lines carry the provenance stamp and the
//! run's details. See `orbitbench/README.md`.

mod probes;
mod serving;
mod stats;
mod sys;
mod trace;
mod training;
mod workloads;

use serde::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// End-to-end metrics, in `BENCHMARK.json` order, with their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("latency_p50_ms", "ms"),
    ("goodput_rps", "req/s"),
    ("capacity_rps", "req/s"),
    ("train_samples_per_s", "samples/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run, with their units.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("serve.tcp.request_decode_us", "us"),
    ("serve.tcp.response_encode_ms", "ms"),
    ("serve.tcp.response_decode_ms", "ms"),
    ("serve.tcp.response_bytes", "bytes"),
    ("serve.tcp.overhead_ms", "ms"),
    ("serve.server.submit_ms", "ms"),
    ("serve.server.service_ms", "ms"),
    ("serve.server.queue_depth_mean", "jobs"),
    ("serve.server.jobs_per_forward", "jobs"),
    ("serve.server.batched_share", "ratio"),
    ("serve.cache.hit_ratio", "ratio"),
    ("climate.sample_ms", "ms"),
    ("climate.normalize_us", "us"),
    ("core.tiling.split_us", "us"),
    ("core.tiling.stitch_us", "us"),
    ("model.session_prep_ms.f32xf32", "ms"),
    ("model.session_prep_ms.bf16xf32", "ms"),
    ("model.forward_ms", "ms"),
    ("model.forward_batch_job_ms", "ms"),
    ("model.forward_gflops", "GFLOP/s"),
    ("model.block.attention_ms", "ms"),
    ("model.block.mlp_ms", "ms"),
    ("model.xattn_ms", "ms"),
    ("tensor.gemm.f32.gflops", "GFLOP/s"),
    ("tensor.gemm.f32.gbps", "GB/s"),
    ("tensor.gemm.bf16.gflops", "GFLOP/s"),
    ("tensor.gemm.bf16.gbps", "GB/s"),
    ("tensor.pool.reuse_ratio", "ratio"),
    ("core.trainer.step_ms", "ms"),
    ("autograd.forward_ms", "ms"),
    ("autograd.backward_ms", "ms"),
    ("autograd.allreduce_ms", "ms"),
    ("autograd.optimizer_ms", "ms"),
    ("core.trainer.data_share", "ratio"),
    ("rayon.idle_share", "ratio"),
    ("self_ms.serve", "ms"),
    ("self_ms.climate", "ms"),
    ("self_ms.core", "ms"),
    ("self_ms.model", "ms"),
    ("self_ms.tensor", "ms"),
    ("self_ms.autograd", "ms"),
    ("self_ms.rayon", "ms"),
    ("self_ms.bench", "ms"),
    ("trace.latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("trace.spans", "count"),
];

/// Command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt_reply: bool,
}

const USAGE: &str = "usage: orbit2-benchmark --workload serve-region|serve-paper126m|train-tiles \
--seed N --seconds S --trace 0|1 [--inject-corrupt-reply]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut corrupt_reply = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other}")),
                })
            }
            "--inject-corrupt-reply" => corrupt_reply = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let missing = |n: &str| format!("{n} is required");
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        corrupt_reply,
    })
}

fn record(key: &str, value: Value) -> String {
    let mut m = BTreeMap::new();
    m.insert(key.to_string(), value);
    serde_json::to_string(&Value::Object(m)).expect("record serializes")
}

fn main() {
    sys::keep_freed_memory();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let root = std::env::current_dir().expect("working directory");
    let Some(workload) = workloads::by_name(&args.workload) else {
        eprintln!("unknown workload {}\n{USAGE}", args.workload);
        std::process::exit(2);
    };
    let mut stamp = match sys::provenance(&root) {
        Value::Object(m) => m,
        _ => unreachable!("provenance is an object"),
    };
    stamp.insert("workload".into(), Value::String(args.workload.clone()));
    stamp.insert("seed".into(), Value::Number(args.seed as f64));
    stamp.insert("seconds".into(), Value::Number(args.seconds));
    stamp.insert("trace".into(), Value::Bool(args.trace));
    println!("{}", record("provenance", Value::Object(stamp.clone())));

    let tracer = trace::Tracer::new(args.trace);
    let mut outcome = workloads::run(
        workload,
        args.seed,
        args.seconds,
        &tracer,
        args.corrupt_reply,
    );
    println!(
        "{}",
        record("details", Value::Object(outcome.details.clone()))
    );

    if args.trace {
        let path = PathBuf::from(".bench_out")
            .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        match tracer.write_json(&path, Value::Object(stamp)) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }

    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = BTreeMap::new();
    let mut missing = Vec::new();
    for (name, unit) in wanted {
        match outcome.metrics.get(name) {
            Some(v) if v.is_finite() => {
                let mut m = BTreeMap::new();
                m.insert("value".to_string(), Value::Number(*v));
                m.insert("unit".to_string(), Value::String(unit.to_string()));
                metrics.insert(name.to_string(), Value::Object(m));
            }
            _ => missing.push(*name),
        }
    }
    // A failed request or step is not data: the metrics would leave it out
    // (latency) or count it (capacity), so the run reports none.
    if outcome.failed > 0 {
        outcome.invalid.push(format!(
            "{} of {} requests or steps failed",
            outcome.failed, outcome.attempted
        ));
    }
    for w in &outcome.wrong {
        eprintln!("WRONG OUTPUT: {w}");
    }
    for i in &outcome.invalid {
        eprintln!("INVALID RUN: {i}");
    }
    if !missing.is_empty() {
        eprintln!("metrics not measured: {missing:?}");
    }
    if !outcome.invalid.is_empty() || !missing.is_empty() {
        // An invalid run reports no metrics.
        println!(
            "{}",
            record(
                "invalid",
                Value::Array(outcome.invalid.iter().cloned().map(Value::String).collect())
            )
        );
        std::process::exit(3);
    }
    let correct = outcome.wrong.is_empty();
    let mut result = BTreeMap::new();
    result.insert("correct".to_string(), Value::Bool(correct));
    result.insert(
        "attempted".to_string(),
        Value::Number(outcome.attempted as f64),
    );
    result.insert("failed".to_string(), Value::Number(outcome.failed as f64));
    result.insert(
        "metrics".to_string(),
        if correct {
            Value::Object(metrics)
        } else {
            Value::Object(BTreeMap::new())
        },
    );
    println!(
        "{}",
        serde_json::to_string(&Value::Object(result)).expect("result serializes")
    );
    // Exit without unwinding the hosted server's remaining threads.
    std::process::exit(if correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the metrics this program prints, with
    /// the same units, and the workloads it knows.
    #[test]
    fn benchmark_json_matches_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside orbitbench/");
        let v: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let root = v.as_object().expect("an object");
        let names = |key: &str, field: &str| -> Vec<String> {
            root[key]
                .as_array()
                .expect("a list")
                .iter()
                .map(|e| {
                    e.as_object().expect("an entry")[field]
                        .as_str()
                        .expect("a string")
                        .to_string()
                })
                .collect()
        };
        for (key, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let expect_names: Vec<String> = list.iter().map(|(n, _)| n.to_string()).collect();
            let expect_units: Vec<String> = list.iter().map(|(_, u)| u.to_string()).collect();
            assert_eq!(names(key, "name"), expect_names, "{key} names");
            assert_eq!(names(key, "unit"), expect_units, "{key} units");
        }
        for w in names("workloads", "name") {
            assert!(workloads::by_name(&w).is_some(), "unknown workload {w}");
        }
    }
}
