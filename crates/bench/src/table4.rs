//! Table IV: downscaling accuracy for minimum/maximum temperature and total
//! precipitation with two model capacities — trained for real on the
//! synthetic US 4x task (the scaled-down analog of the paper's 28 -> 7 km
//! fine-tuning).

use crate::fmt::Table;
use crate::setup::{small_model, tiny_model, train_model, us_dataset};
use orbit2::eval::{evaluate_model, VariableReport};
use orbit2::trainer::Trainer;
use orbit2_climate::diagnostics::{climatology_errors, ClimatologyErrors};
use orbit2_climate::{DownscalingDataset, Split};
use orbit2_model::{SessionActivation, SessionPrecision};

/// Outcome of the two training runs.
pub struct Table4Result {
    /// Per-variable reports for the tiny (9.5M-analog) model.
    pub tiny: Vec<VariableReport>,
    /// Per-variable reports for the small (126M-analog) model.
    pub small: Vec<VariableReport>,
    /// Final training losses (tiny, small).
    pub final_losses: (f32, f32),
    /// Precipitation climatology errors (tiny, small): wet fraction,
    /// intensity and tail quantiles of the prediction vs truth.
    pub climatology: (ClimatologyErrors, ClimatologyErrors),
}

/// Train both capacities and evaluate on the test split.
pub fn run(steps: usize, samples: usize) -> Table4Result {
    let ds = us_dataset(samples, 77);
    let test_idx = ds.indices(Split::Test);
    let (tiny_tr, tiny_rep) = train_model(tiny_model(7), &ds, steps, 2e-3);
    let tiny = evaluate_model(&tiny_tr.model, &tiny_tr.normalizer, &ds, &test_idx, None, 1.0)
        .expect("valid test split");
    let (small_tr, small_rep) = train_model(small_model(7), &ds, steps, 2e-3);
    let small = evaluate_model(&small_tr.model, &small_tr.normalizer, &ds, &test_idx, None, 1.0)
        .expect("valid test split");
    let climatology = (
        precip_climatology(&tiny_tr, &ds, &test_idx),
        precip_climatology(&small_tr, &ds, &test_idx),
    );
    Table4Result {
        tiny,
        small,
        final_losses: (
            tiny_rep.final_loss.expect("tiny run completed no steps"),
            small_rep.final_loss.expect("small run completed no steps"),
        ),
        climatology,
    }
}

/// Precipitation climatology errors of a trained model over test samples.
fn precip_climatology(trainer: &Trainer, ds: &DownscalingDataset, idx: &[usize]) -> ClimatologyErrors {
    let chan = ds.variables().output_index("prcp").expect("prcp");
    let plane = ds.fine_grid().h * ds.fine_grid().w;
    let mut preds = Vec::new();
    let mut truths = Vec::new();
    let session = trainer.model.session_with(SessionPrecision::F32, SessionActivation::F32);
    for &i in idx {
        let s = ds.sample(i);
        let p = orbit2::inference::downscale_with(
            &trainer.model,
            &session,
            &trainer.normalizer,
            &s.input,
            None,
            1.0,
        )
        .expect("valid sample");
        preds.extend_from_slice(&p.data()[chan * plane..(chan + 1) * plane]);
        truths.extend_from_slice(&s.target.data()[chan * plane..(chan + 1) * plane]);
    }
    climatology_errors(&preds, &truths, 1.0)
}

/// Render the Table IV analog with the paper's reference values.
pub fn render(result: &Table4Result) -> String {
    let mut out = String::from(
        "Table IV [trained on synthetic US analog; paper values in brackets are the real-data results]\n",
    );
    for (var, paper_tiny, paper_small) in [
        ("tmin", "[R2 0.991, RMSE 3.812, SSIM 0.958, PSNR 29.0]", "[R2 0.999, RMSE 0.505, SSIM 0.987, PSNR 46.0]"),
        ("prcp", "[R2 0.975, RMSE 0.146, SSIM 0.931, PSNR 29.0]", "[R2 0.979, RMSE 0.135, SSIM 0.932, PSNR 30.2]"),
    ] {
        out.push_str(&format!("\n{var}:\n"));
        let mut t = Table::new(&[
            "Model", "R2", "RMSE", "RMSE s1>68%", "RMSE s2>95%", "RMSE s3>99.7%", "SSIM", "PSNR", "Paper",
        ]);
        for (label, reports, paper) in [
            ("tiny (9.5M analog)", &result.tiny, paper_tiny),
            ("small (126M analog)", &result.small, paper_small),
        ] {
            let r = reports
                .iter()
                .find(|r| r.name == var)
                .unwrap_or_else(|| panic!("missing report for {var}"));
            t.row(vec![
                label.into(),
                format!("{:.3}", r.report.r2),
                format!("{:.3}", r.report.rmse),
                format!("{:.3}", r.report.rmse_sigma1),
                format!("{:.3}", r.report.rmse_sigma2),
                format!("{:.3}", r.report.rmse_sigma3),
                format!("{:.3}", r.report.ssim),
                format!("{:.1}", r.report.psnr),
                paper.into(),
            ]);
        }
        out.push_str(&t.render());
    }
    // Science sanity: does the predicted precipitation *climatology* match
    // the truth (wet-day fraction, intensity, tail quantiles)?
    out.push_str("\nprcp climatology relative errors (pred vs truth):\n");
    for (label, c) in [("tiny", result.climatology.0), ("small", result.climatology.1)] {
        out.push_str(&format!(
            "  {label:<6} wet-fraction {:.3}  intensity {:.3}  p95 {:.3}  p99 {:.3}\n",
            c.wet_fraction_err, c.intensity_err, c.p95_err, c.p99_err
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_reports() {
        let r = run(6, 12);
        assert_eq!(r.tiny.len(), 3);
        assert_eq!(r.small.len(), 3);
        assert!(r.final_losses.0.is_finite());
        let s = render(&r);
        assert!(s.contains("tmin"));
        assert!(s.contains("prcp"));
        assert!(s.contains("126M analog"));
    }
}
