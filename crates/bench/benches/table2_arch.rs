//! Table II(a), real kernels: Reslim vs the upsample-first baseline ViT on
//! identical inputs. The baseline pays `factor^2` more tokens plus the
//! quadratic attention on them; the measured ratio is the paper's speedup
//! mechanism at CPU scale.
//!
//! Forwards run tape-free through prepared inference sessions — the bench
//! measures the architectures, not the autograd bookkeeping.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use orbit2_model::{BaselineVit, ModelConfig, ReslimModel, SessionActivation, SessionPrecision};
use orbit2_tensor::random::randn;

fn bench_arch(c: &mut Criterion) {
    let cfg = ModelConfig::tiny().with_channels(7, 3);
    let reslim = ReslimModel::new(cfg, 1);
    let vit = BaselineVit::new(cfg, 1);
    let reslim_sess = reslim.session_with(SessionPrecision::F32, SessionActivation::F32);
    let vit_sess = vit.session_with(SessionPrecision::F32, SessionActivation::F32);
    let mut group = c.benchmark_group("table2a_arch");
    group.sample_size(10);
    for &(h, w) in &[(8usize, 16usize), (16, 32)] {
        let input = randn(&[7, h, w], 5);
        group.bench_with_input(BenchmarkId::new("baseline_vit", format!("{h}x{w}")), &input, |b, input| {
            b.iter(|| vit.forward(&vit_sess, input).into_tensor())
        });
        group.bench_with_input(BenchmarkId::new("reslim", format!("{h}x{w}")), &input, |b, input| {
            b.iter(|| reslim.forward(&reslim_sess, input, 1.0).0.into_tensor())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_arch);
criterion_main!(benches);
