//! Golden outputs: absolute forward values pinned in a checked-in fixture.
//!
//! The bit-identity contracts elsewhere (tape ≡ session, batched ≡
//! per-sample) compare two code paths with each other, so a refactor that
//! moves both sides at once passes them. This test compares against
//! numbers recorded before such a refactor: Reslim and the baseline ViT
//! across every weight × activation precision cell. Reslim runs at the
//! benchmark's coarse shape (7 variables × 16 × 32), whole-sample at
//! compression 1 and 2, 2×2-tiled, and as a 3-input `forward_batch` with
//! ragged plans. The baseline runs whole and 2×2-tiled at a quarter of
//! that area: it attends over the output-resolution grid, 16× Reslim's
//! tokens, and at the full shape it alone would take minutes in a debug
//! build.
//!
//! Each case stores its element count, the f64 sum of all outputs and a
//! strided sample of output values, with separate entries for the packed
//! SIMD kernels and for their scalar oracles (`ORBIT2_DISABLE_SIMD=1`),
//! whose roundings differ. The pinned tape node count of one B=1
//! `Binder` forward guards the op sequence itself.
//!
//! Tolerance: on the recording host the values match bit for bit. The
//! build compiles for the host CPU, so whether `mul_add` contracts to a
//! fused multiply-add depends on the machine; the comparison therefore
//! allows `|got - want| <= tol * (1 + |want|)` per sampled value and
//! `tol * (1 + sum of |outputs|)` for the sum, with `tol = 1e-4` for f32
//! activations and `3e-2` for bf16 activations (a flipped bf16 rounding is
//! 2^-8 relative and compounds through the blocks). For scale: the packed
//! kernels and their scalar oracles differ by at most 3e-6 (f32) and 7e-3
//! (bf16) in these same units on the recording host. Structural drift — a
//! dropped op, a reordered embedding, a wrong sample boundary — moves
//! values by orders of magnitude more.
//!
//! Re-record (only when an output change is intended, and say so in the
//! change log) with both
//! `cargo test --release --test golden_outputs -- --ignored record_fixture`
//! and the same command under `ORBIT2_DISABLE_SIMD=1`.

use orbit2::tiling::{split_stack, stitch_predictions};
use orbit2_autograd::Tape;
use orbit2_imaging::tiles::{TileGeometry, TileSpec};
use orbit2_model::binder::Binder;
use orbit2_model::{BaselineVit, ModelConfig, ReslimModel, SessionActivation, SessionPrecision};
use orbit2_tensor::random::randn;
use orbit2_tensor::{simd, Tensor};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Sampled values per case.
const SAMPLES: usize = 48;

/// One pinned output.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Entry {
    len: usize,
    sum: f64,
    abs_sum: f64,
    stride: usize,
    values: Vec<f32>,
}

/// The fixture file.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Fixture {
    recorded_at: String,
    tape_nodes: usize,
    simd: BTreeMap<String, Entry>,
    scalar: BTreeMap<String, Entry>,
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_outputs.json")
}

fn mode() -> &'static str {
    if simd::enabled() {
        "simd"
    } else {
        "scalar"
    }
}

fn entry(t: &Tensor) -> Entry {
    let data = t.data();
    let stride = (data.len() / SAMPLES).max(1);
    Entry {
        len: data.len(),
        sum: data.iter().map(|&v| v as f64).sum(),
        abs_sum: data.iter().map(|&v| (v as f64).abs()).sum(),
        stride,
        values: data.iter().step_by(stride).take(SAMPLES).copied().collect(),
    }
}

fn cfg() -> ModelConfig {
    ModelConfig::tiny().with_channels(7, 3)
}

fn input(seed: u64) -> Tensor {
    randn(&[7, 16, 32], seed)
}

const TILES: TileSpec = TileSpec {
    tiles_y: 2,
    tiles_x: 2,
    halo: 2,
};

fn tiled(input: &Tensor, factor: usize, mut run: impl FnMut(&Tensor) -> Tensor) -> Tensor {
    let (h, w) = (input.shape()[1], input.shape()[2]);
    let preds: Vec<(TileGeometry, Tensor)> = split_stack(input, TILES)
        .into_iter()
        .map(|(g, t)| (g, run(&t)))
        .collect();
    stitch_predictions(&preds, h, w, factor)
}

const CELLS: [(SessionPrecision, SessionActivation); 6] = [
    (SessionPrecision::F32, SessionActivation::F32),
    (SessionPrecision::F32, SessionActivation::Bf16),
    (SessionPrecision::Bf16, SessionActivation::F32),
    (SessionPrecision::Bf16, SessionActivation::Bf16),
    (SessionPrecision::Int8, SessionActivation::F32),
    (SessionPrecision::Int8, SessionActivation::Bf16),
];

/// Every pinned output in the current SIMD mode, by case name.
fn compute() -> BTreeMap<String, Tensor> {
    let reslim = ReslimModel::new(cfg(), 5);
    let vit = BaselineVit::new(cfg(), 5);
    let factor = cfg().scale_factor;
    let x = input(101);
    let small = randn(&[7, 8, 16], 104);
    // The smooth middle sample compresses much harder than its noisy
    // neighbours, so the batch's compressed lengths are ragged.
    let batch = [input(102), Tensor::full(vec![7, 16, 32], 0.25), input(103)];
    let batch_refs: Vec<&Tensor> = batch.iter().collect();
    let mut out = BTreeMap::new();
    for (wp, ap) in CELLS {
        let cell = format!("{}x{}", wp.label(), ap.label());
        let s = reslim.session_with(wp, ap);
        for c in [1.0f32, 2.0] {
            let y = reslim.forward(&s, &x, c).0.into_tensor();
            out.insert(format!("reslim/{cell}/whole_c{c}"), y);
        }
        let y = tiled(&x, factor, |t| reslim.forward(&s, t, 1.0).0.into_tensor());
        out.insert(format!("reslim/{cell}/tiled2x2"), y);
        let preds = orbit2_model::forward_batch(&reslim, &s, &batch_refs, 2.0);
        for (i, (y, _)) in preds.into_iter().enumerate() {
            out.insert(format!("reslim/{cell}/batch3_c2/{i}"), y.into_tensor());
        }

        let s = vit.session_with(wp, ap);
        out.insert(
            format!("vit/{cell}/whole"),
            vit.forward(&s, &small).into_tensor(),
        );
        let y = tiled(&small, factor, |t| vit.forward(&s, t).into_tensor());
        out.insert(format!("vit/{cell}/tiled2x2"), y);
    }
    out
}

/// Tape nodes one B=1 training forward records.
fn tape_nodes() -> usize {
    let model = ReslimModel::new(cfg(), 5);
    let tape = Tape::new();
    let binder = Binder::new(&tape, &model.params);
    let _ = model.forward(&binder, &input(101), 1.0);
    tape.len()
}

fn load() -> Fixture {
    let text = std::fs::read_to_string(fixture_path()).expect("golden fixture is checked in");
    serde_json::from_str(&text).expect("golden fixture parses")
}

#[test]
fn forward_outputs_match_golden_fixture() {
    let fixture = load();
    let want = if simd::enabled() {
        &fixture.simd
    } else {
        &fixture.scalar
    };
    let got = compute();
    assert_eq!(
        got.keys().collect::<Vec<_>>(),
        want.keys().collect::<Vec<_>>(),
        "case set changed; re-record the fixture deliberately"
    );
    for (name, t) in &got {
        let (g, w) = (entry(t), &want[name]);
        let tol = if name.contains("xbf16/") { 3e-2 } else { 1e-4 };
        assert_eq!(
            (g.len, g.stride),
            (w.len, w.stride),
            "{name}: shape changed"
        );
        assert!(
            (g.sum - w.sum).abs() <= tol * (1.0 + w.abs_sum),
            "{name} ({} mode): sum {} vs golden {}",
            mode(),
            g.sum,
            w.sum
        );
        for (i, (a, b)) in g.values.iter().zip(&w.values).enumerate() {
            assert!(
                (a - b).abs() as f64 <= tol * (1.0 + b.abs() as f64),
                "{name} ({} mode): value {} (element {}) {a} vs golden {b}",
                mode(),
                i,
                i * w.stride
            );
        }
    }
}

#[test]
fn b1_tape_node_count_is_pinned() {
    assert_eq!(
        tape_nodes(),
        load().tape_nodes,
        "the B=1 forward's op sequence changed"
    );
}

/// Writes this SIMD mode's entries into the fixture, keeping the other
/// mode's. Not part of the suite; see the module docs.
#[test]
#[ignore]
fn record_fixture() {
    let mut fixture = std::fs::read_to_string(fixture_path())
        .ok()
        .and_then(|t| serde_json::from_str::<Fixture>(&t).ok())
        .unwrap_or(Fixture {
            recorded_at: String::new(),
            tape_nodes: 0,
            simd: BTreeMap::new(),
            scalar: BTreeMap::new(),
        });
    let entries: BTreeMap<String, Entry> = compute()
        .iter()
        .map(|(k, t)| (k.clone(), entry(t)))
        .collect();
    if simd::enabled() {
        fixture.simd = entries;
    } else {
        fixture.scalar = entries;
    }
    fixture.tape_nodes = tape_nodes();
    let path = fixture_path();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&fixture).unwrap() + "\n",
    )
    .unwrap();
}
