//! `forward_batch` over B samples must equal B separate `forward` calls,
//! bit for bit: stacked stages compute each row from its own row, and the
//! GEMM branch depends on the weight alone, so no row split can change a
//! value. Checked for batch sizes 1..=8, compression 1, 2 and 4 with
//! ragged plans (smooth samples compress much harder than noisy ones),
//! every weight × activation session cell, and the training tape. Run
//! under `ORBIT2_DISABLE_SIMD=1` as well.

use orbit2_autograd::Tape;
use orbit2_model::binder::Binder;
use orbit2_model::{forward_batch, ModelConfig, ReslimModel, SessionActivation, SessionPrecision};
use orbit2_tensor::random::randn;
use orbit2_tensor::Tensor;
use proptest::prelude::*;

const CELLS: [(SessionPrecision, SessionActivation); 6] = [
    (SessionPrecision::F32, SessionActivation::F32),
    (SessionPrecision::F32, SessionActivation::Bf16),
    (SessionPrecision::Bf16, SessionActivation::F32),
    (SessionPrecision::Bf16, SessionActivation::Bf16),
    (SessionPrecision::Int8, SessionActivation::F32),
    (SessionPrecision::Int8, SessionActivation::Bf16),
];

/// One sample of a batch: noisy, smooth, or noisy on the left half only, so
/// adaptive plans differ in length across the batch.
fn sample(kind: u64, seed: u64) -> Tensor {
    match kind % 3 {
        0 => randn(&[4, 8, 8], seed),
        1 => Tensor::full(vec![4, 8, 8], 0.25),
        _ => {
            let noisy = randn(&[4, 8, 8], seed);
            let half = noisy
                .data()
                .iter()
                .enumerate()
                .map(|(j, &v)| if j % 8 < 4 { v } else { 0.5 });
            Tensor::from_vec(vec![4, 8, 8], half.collect())
        }
    }
}

/// Ways to cut the 8 samples into consecutive batches; together they use
/// every batch size 1..=8.
const PARTITIONS: [&[usize]; 6] = [&[8], &[1, 7], &[2, 6], &[3, 5], &[4, 4], &[1, 2, 5]];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    // Each case runs every session cell, each cell a different partition
    // (rotated per case), so every batch size meets every cell over runs.
    #[test]
    fn forward_batch_bit_identical_to_per_sample_forward(
        comp_idx in 0usize..3,
        kinds in 0u64..6561,
        rotation in 0usize..6,
        seed in 0u64..1000,
    ) {
        let compression = [1.0f32, 2.0, 4.0][comp_idx];
        let model = ReslimModel::new(ModelConfig::tiny().with_channels(4, 3), seed);
        let inputs: Vec<Tensor> =
            (0..8).map(|i| sample(kinds / 3u64.pow(i), seed + u64::from(i))).collect();
        let refs: Vec<&Tensor> = inputs.iter().collect();
        for (j, (wp, ap)) in CELLS.into_iter().enumerate() {
            let session = model.session_with(wp, ap);
            let mut start = 0;
            for &b in PARTITIONS[(j + rotation) % PARTITIONS.len()] {
                let batch = forward_batch(&model, &session, &refs[start..start + b], compression);
                prop_assert_eq!(batch.len(), b);
                for (input, (pred, plan)) in inputs[start..].iter().zip(batch) {
                    let (want, want_plan) = model.forward(&session, input, compression);
                    prop_assert_eq!(plan.compressed_len(), want_plan.compressed_len());
                    let same = pred.into_tensor().data() == want.into_tensor().data();
                    prop_assert!(same, "{:?}x{:?} B={}: batched output differs", wp, ap, b);
                }
                start += b;
            }
        }
        // The tape records the batched pass too (slices and concats are
        // differentiable), with the same values.
        let tape = Tape::new();
        let binder = Binder::new(&tape, &model.params);
        let batch = forward_batch(&model, &binder, &refs[..3], compression);
        for (input, (pred, _)) in inputs.iter().zip(batch) {
            let (solo, _) = model.forward(&binder, input, compression);
            let same = pred.value().data() == solo.value().data();
            prop_assert!(same, "tape: batched output differs");
        }
    }
}
