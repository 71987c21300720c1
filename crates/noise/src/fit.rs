//! Cross-validated fitting of the crosstalk model (§4.1).
//!
//! The paper searches for the best `(w_phy, w_top)` blend by training a
//! random forest on `d_equiv = w_phy·d_phy + w_top·d_top` and scoring MSE
//! under 5-fold cross-validation. [`fit_crosstalk_model`] implements that
//! procedure over a simplex grid `w_phy ∈ {0, 1/s, …, 1}`, `w_top = 1 −
//! w_phy` (scaling both weights by a common factor leaves tree splits
//! unchanged, so the simplex is the full effective search space).

use std::error::Error;
use std::fmt;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use youtiao_chip::distance::EquivalentWeights;

use crate::data::CrosstalkSample;
use crate::forest::{draw_bootstrap, RandomForest, RandomForestConfig};
use crate::model::CrosstalkModel;
use crate::tree::{FeatureGroups, TreeBuilder};

/// Configuration for [`fit_crosstalk_model`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitConfig {
    /// Number of grid steps for `w_phy` (the grid has `steps + 1` points).
    pub weight_steps: usize,
    /// Number of cross-validation folds (the paper uses 5).
    pub folds: usize,
    /// Forest hyper-parameters used both during CV and for the final fit.
    pub forest: RandomForestConfig,
}

impl FitConfig {
    /// The paper's setting: 5-fold CV over a 10-step weight grid.
    pub fn paper() -> Self {
        FitConfig {
            weight_steps: 10,
            folds: 5,
            forest: RandomForestConfig::default(),
        }
    }

    /// A cheaper setting for tests and doc examples.
    pub fn fast() -> Self {
        FitConfig {
            weight_steps: 4,
            folds: 3,
            forest: RandomForestConfig {
                num_trees: 8,
                ..Default::default()
            },
        }
    }
}

impl Default for FitConfig {
    fn default() -> Self {
        FitConfig::paper()
    }
}

/// Errors from [`fit_crosstalk_model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FitError {
    /// Fewer usable samples than cross-validation folds.
    NotEnoughSamples {
        /// Usable (finite) sample count.
        available: usize,
        /// Required minimum (the fold count).
        required: usize,
    },
    /// The configuration requested zero folds or zero weight steps.
    InvalidConfig,
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::NotEnoughSamples {
                available,
                required,
            } => write!(
                f,
                "need at least {required} finite samples for cross-validation, got {available}"
            ),
            FitError::InvalidConfig => {
                write!(
                    f,
                    "fit configuration needs folds >= 2 and weight_steps >= 1"
                )
            }
        }
    }
}

impl Error for FitError {}

/// Fits a [`CrosstalkModel`] to measurement samples by grid-searching the
/// equivalent-distance weights under k-fold cross-validation and
/// retraining the winning configuration on all data.
///
/// Samples with non-finite distance components (disconnected pairs) are
/// ignored.
///
/// The search runs on a shared-draw kernel (DESIGN.md §4l): samples are
/// grouped by blended distance once per grid blend, each cross-validation
/// bootstrap is drawn once and counting-sorted into every blend, and
/// trees split on group boundaries. The model is bit-identical to the
/// per-forest search [`naive::fit_crosstalk_model`] runs.
///
/// # Errors
///
/// * [`FitError::InvalidConfig`] — `folds < 2` or `weight_steps < 1`.
/// * [`FitError::NotEnoughSamples`] — fewer finite samples than folds.
pub fn fit_crosstalk_model(
    samples: &[CrosstalkSample],
    config: &FitConfig,
) -> Result<CrosstalkModel, FitError> {
    if config.folds < 2 || config.weight_steps < 1 {
        return Err(FitError::InvalidConfig);
    }
    let usable: Vec<&CrosstalkSample> = samples
        .iter()
        .filter(|s| s.d_phy.is_finite() && s.d_top.is_finite() && s.value.is_finite())
        .collect();
    if usable.len() < config.folds {
        return Err(FitError::NotEnoughSamples {
            available: usable.len(),
            required: config.folds,
        });
    }

    // Presort once per blend: each grid point's blended distances as
    // per-sample group ids plus a per-group distance table.
    let mut xs = Vec::with_capacity(usable.len());
    let blends: Vec<(EquivalentWeights, FeatureGroups)> = (0..=config.weight_steps)
        .filter_map(|i| {
            let w_phy = i as f64 / config.weight_steps as f64;
            // The both-zero corner cannot occur on the simplex.
            EquivalentWeights::new(w_phy, 1.0 - w_phy).ok()
        })
        .map(|weights| {
            xs.clear();
            xs.extend(usable.iter().map(|s| weights.combine(s.d_phy, s.d_top)));
            (weights, FeatureGroups::new(&xs))
        })
        .collect();
    drop(xs);
    let ys: Vec<f64> = usable.iter().map(|s| s.value).collect();

    let scores = cv_mse(&blends, &ys, config);
    let mut best: Option<(usize, f64)> = None;
    for (i, &score) in scores.iter().enumerate() {
        if best.is_none_or(|(_, b)| score < b) {
            best = Some((i, score));
        }
    }
    let (i, score) = best.expect("weight grid is non-empty");
    let (weights, groups) = &blends[i];
    let forest = RandomForest::fit_groups(groups, &ys, config.forest);
    Ok(CrosstalkModel::from_parts(*weights, forest, score))
}

/// k-fold cross-validated MSE of every blend in `blends`.
///
/// A fold's bootstrap draws depend only on the forest seed and its
/// training-set size, never on the blend, and fold sizes differ by at
/// most one. So each tree's draws are made once per distinct size,
/// shared by every fold of that size, and sorted into every blend.
/// Each tree's predictions are added to per-group running sums in tree
/// order, which is the per-test-point forest sum: test points with
/// equal distance get equal predictions.
fn cv_mse(
    blends: &[(EquivalentWeights, FeatureGroups)],
    ys: &[f64],
    config: &FitConfig,
) -> Vec<f64> {
    let forest = config.forest;
    assert!(forest.num_trees > 0, "forest needs at least one tree");
    let n = ys.len();
    // Each fold's training set as sample ids. With `n >= folds >= 2`
    // (checked by the caller) every fold has training and test points.
    let folds: Vec<Vec<u32>> = (0..config.folds)
        .map(|fold| {
            (0..n as u32)
                .filter(|&i| i as usize % config.folds != fold)
                .collect()
        })
        .collect();
    // One bootstrap stream per distinct training-set size.
    let mut streams: Vec<(usize, ChaCha8Rng, Vec<u32>)> = Vec::new();
    for train in &folds {
        if streams.iter().all(|(size, ..)| *size != train.len()) {
            let rng = ChaCha8Rng::seed_from_u64(forest.seed);
            streams.push((train.len(), rng, Vec::with_capacity(train.len())));
        }
    }
    // Per (fold, blend) running sums; `Iterator::sum` for floats
    // starts from -0.0.
    let mut tree_sums: Vec<Vec<f64>> = folds
        .iter()
        .flat_map(|_| {
            blends
                .iter()
                .map(|(_, groups)| vec![-0.0; groups.values.len()])
        })
        .collect();
    let mut sample = Vec::with_capacity(n);
    let mut targets = Vec::with_capacity(n);
    let mut builder = TreeBuilder::default();
    for _ in 0..forest.num_trees {
        for (size, rng, draws) in &mut streams {
            draw_bootstrap(rng, *size, draws);
        }
        for (train, fold_sums) in folds.iter().zip(tree_sums.chunks_mut(blends.len())) {
            let (.., draws) = streams
                .iter()
                .find(|(size, ..)| *size == train.len())
                .expect("a stream per training-set size");
            sample.clear();
            sample.extend(draws.iter().map(|&j| train[j as usize]));
            targets.clear();
            targets.extend(sample.iter().map(|&s| ys[s as usize]));
            for ((_, groups), sums) in blends.iter().zip(fold_sums) {
                builder.sort_sample(&sample, &targets, groups);
                builder.grow(forest.tree);
                for (sum, &x) in sums.iter_mut().zip(&groups.values) {
                    *sum += builder.predict(x);
                }
            }
        }
    }
    let mut totals = vec![0.0; blends.len()];
    for (fold, (train, fold_sums)) in folds.iter().zip(tree_sums.chunks(blends.len())).enumerate() {
        let test_len = n - train.len();
        for (((_, groups), sums), total) in blends.iter().zip(fold_sums).zip(&mut totals) {
            let mut squared = -0.0;
            for i in (fold..n).step_by(config.folds) {
                let prediction = sums[groups.ids[i] as usize] / forest.num_trees as f64;
                squared += (prediction - ys[i]) * (prediction - ys[i]);
            }
            *total += squared / test_len as f64;
        }
    }
    totals
        .into_iter()
        .map(|total| (total / folds.len() as f64).max(0.0))
        .collect()
}

/// The original per-blend, per-forest search, retained as the
/// differential reference for [`fit_crosstalk_model`]: the kernel's
/// model must compare `==` to this one's, with the same `cv_mse` bits.
#[cfg(any(test, feature = "naive"))]
pub mod naive {
    use super::*;
    use crate::forest;
    use crate::stats::mse;

    /// [`fit_crosstalk_model`](super::fit_crosstalk_model) fitting one
    /// full forest per (blend, fold).
    ///
    /// # Errors
    ///
    /// Same as [`fit_crosstalk_model`](super::fit_crosstalk_model).
    pub fn fit_crosstalk_model(
        samples: &[CrosstalkSample],
        config: &FitConfig,
    ) -> Result<CrosstalkModel, FitError> {
        if config.folds < 2 || config.weight_steps < 1 {
            return Err(FitError::InvalidConfig);
        }
        let usable: Vec<&CrosstalkSample> = samples
            .iter()
            .filter(|s| s.d_phy.is_finite() && s.d_top.is_finite() && s.value.is_finite())
            .collect();
        if usable.len() < config.folds {
            return Err(FitError::NotEnoughSamples {
                available: usable.len(),
                required: config.folds,
            });
        }

        let mut best: Option<(EquivalentWeights, f64)> = None;
        for i in 0..=config.weight_steps {
            let w_phy = i as f64 / config.weight_steps as f64;
            let w_top = 1.0 - w_phy;
            let Ok(weights) = EquivalentWeights::new(w_phy, w_top) else {
                continue; // both-zero corner cannot occur on the simplex
            };
            let score = cv_mse(&usable, weights, config);
            if best.is_none_or(|(_, b)| score < b) {
                best = Some((weights, score));
            }
        }
        let (weights, score) = best.expect("weight grid is non-empty");

        let xs: Vec<f64> = usable
            .iter()
            .map(|s| weights.combine(s.d_phy, s.d_top))
            .collect();
        let ys: Vec<f64> = usable.iter().map(|s| s.value).collect();
        let forest = forest::naive::fit(&xs, &ys, config.forest);
        Ok(CrosstalkModel::from_parts(weights, forest, score))
    }

    /// k-fold cross-validated MSE for a candidate weight blend.
    fn cv_mse(samples: &[&CrosstalkSample], weights: EquivalentWeights, config: &FitConfig) -> f64 {
        let n = samples.len();
        let mut total = 0.0;
        let mut folds_used = 0usize;
        for fold in 0..config.folds {
            let mut train_x = Vec::new();
            let mut train_y = Vec::new();
            let mut test_x = Vec::new();
            let mut test_y = Vec::new();
            for (i, s) in samples.iter().enumerate() {
                let x = weights.combine(s.d_phy, s.d_top);
                if i % config.folds == fold {
                    test_x.push(x);
                    test_y.push(s.value);
                } else {
                    train_x.push(x);
                    train_y.push(s.value);
                }
            }
            if train_x.is_empty() || test_x.is_empty() {
                continue;
            }
            let forest = forest::naive::fit(&train_x, &train_y, config.forest);
            let preds: Vec<f64> = test_x.iter().map(|&x| forest.predict(x)).collect();
            total += mse(&preds, &test_y);
            folds_used += 1;
        }
        if folds_used == 0 {
            f64::INFINITY
        } else {
            total / folds_used as f64
        }
        .max(if n == 0 { f64::INFINITY } else { 0.0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{synthesize, CrosstalkKind, SynthConfig};
    use youtiao_chip::topology;

    fn samples_6x6(seed: u64) -> Vec<CrosstalkSample> {
        let chip = topology::square_grid(6, 6);
        synthesize(&chip, CrosstalkKind::Xy, &SynthConfig::xy(), seed)
    }

    #[test]
    fn fit_recovers_decaying_relationship() {
        let model = fit_crosstalk_model(&samples_6x6(1), &FitConfig::fast()).unwrap();
        assert!(model.predict(1.0, 1.0) > model.predict(4.0, 10.0));
        assert!(model.cv_mse() >= 0.0);
    }

    #[test]
    fn fitted_weights_are_on_simplex() {
        let model = fit_crosstalk_model(&samples_6x6(2), &FitConfig::fast()).unwrap();
        let w = model.weights();
        assert!((w.w_phy() + w.w_top() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fit_prefers_informative_blend() {
        // With ground truth 0.6/0.4, the fitted w_phy should not collapse
        // to an extreme of the simplex.
        let model = fit_crosstalk_model(&samples_6x6(3), &FitConfig::paper()).unwrap();
        let w = model.weights().w_phy();
        assert!((0.0..=1.0).contains(&w));
    }

    #[test]
    fn prediction_error_is_small_in_band() {
        let chip = topology::square_grid(6, 6);
        let cfg = SynthConfig::xy();
        let samples = synthesize(&chip, CrosstalkKind::Xy, &cfg, 4);
        let model = fit_crosstalk_model(&samples, &FitConfig::fast()).unwrap();
        // Compare against the noiseless law on adjacent pairs.
        let truth = crate::data::expected_value(&cfg, 1.0, 1.0);
        let pred = model.predict(1.0, 1.0);
        assert!(
            (pred - truth).abs() / truth < 0.5,
            "pred {pred} vs truth {truth}"
        );
    }

    #[test]
    fn too_few_samples_is_error() {
        let samples = samples_6x6(1)[..2].to_vec();
        let err = fit_crosstalk_model(&samples, &FitConfig::paper()).unwrap_err();
        assert!(matches!(
            err,
            FitError::NotEnoughSamples {
                available: 2,
                required: 5
            }
        ));
    }

    #[test]
    fn invalid_config_is_error() {
        let samples = samples_6x6(1);
        let bad = FitConfig {
            folds: 1,
            ..FitConfig::fast()
        };
        assert_eq!(
            fit_crosstalk_model(&samples, &bad).unwrap_err(),
            FitError::InvalidConfig
        );
        let bad2 = FitConfig {
            weight_steps: 0,
            ..FitConfig::fast()
        };
        assert_eq!(
            fit_crosstalk_model(&samples, &bad2).unwrap_err(),
            FitError::InvalidConfig
        );
    }

    #[test]
    fn non_finite_samples_are_ignored() {
        let mut samples = samples_6x6(5);
        samples.push(CrosstalkSample {
            target: 0u32.into(),
            spectator: 1u32.into(),
            d_phy: f64::INFINITY,
            d_top: 1.0,
            value: 0.5,
        });
        let model = fit_crosstalk_model(&samples, &FitConfig::fast()).unwrap();
        assert!(model.predict(1.0, 1.0).is_finite());
    }

    #[test]
    fn error_display_is_informative() {
        let e = FitError::NotEnoughSamples {
            available: 1,
            required: 5,
        };
        assert!(e.to_string().contains("5"));
        assert!(FitError::InvalidConfig.to_string().contains("folds"));
    }
}
