//! Bootstrap-aggregated regression forests.
//!
//! Bagging many [`RegressionTree`]s smooths the step-wise predictions of a
//! single tree and is the regressor the paper uses for crosstalk fitting.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::tree::{FeatureGroups, RegressionTree, TreeBuilder, TreeConfig};

/// Hyper-parameters of a [`RandomForest`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomForestConfig {
    /// Number of bagged trees.
    pub num_trees: usize,
    /// Per-tree configuration.
    pub tree: TreeConfig,
    /// Seed for bootstrap resampling.
    pub seed: u64,
}

impl Default for RandomForestConfig {
    fn default() -> Self {
        RandomForestConfig {
            num_trees: 30,
            tree: TreeConfig::default(),
            seed: 0x464F_5245,
        }
    }
}

/// A fitted bootstrap-aggregated regression forest over one feature.
///
/// # Example
///
/// ```
/// use youtiao_noise::forest::{RandomForest, RandomForestConfig};
///
/// let xs: Vec<f64> = (0..100).map(|i| i as f64 / 10.0).collect();
/// let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
/// let forest = RandomForest::fit(&xs, &ys, RandomForestConfig::default());
/// assert!((forest.predict(5.0) - 11.0).abs() < 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForest {
    trees: Vec<RegressionTree>,
}

impl RandomForest {
    /// Fits the forest on `(x, y)` pairs with bootstrap resampling.
    ///
    /// # Panics
    ///
    /// Panics if inputs are empty, have mismatched lengths, or
    /// `config.num_trees == 0`.
    pub fn fit(xs: &[f64], ys: &[f64], config: RandomForestConfig) -> Self {
        assert_eq!(xs.len(), ys.len(), "feature/target length mismatch");
        assert!(!xs.is_empty(), "cannot fit a forest to zero samples");
        RandomForest::fit_groups(&FeatureGroups::new(xs), ys, config)
    }

    /// [`RandomForest::fit`] over features already grouped by value.
    pub(crate) fn fit_groups(
        groups: &FeatureGroups,
        ys: &[f64],
        config: RandomForestConfig,
    ) -> Self {
        assert!(config.num_trees > 0, "forest needs at least one tree");
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let mut sample = Vec::with_capacity(ys.len());
        let mut targets = Vec::with_capacity(ys.len());
        let mut builder = TreeBuilder::default();
        let trees = (0..config.num_trees)
            .map(|_| {
                draw_bootstrap(&mut rng, ys.len(), &mut sample);
                targets.clear();
                targets.extend(sample.iter().map(|&s| ys[s as usize]));
                builder.sort_sample(&sample, &targets, groups);
                builder.grow(config.tree);
                builder.to_tree()
            })
            .collect();
        RandomForest { trees }
    }

    /// Predicts the mean of all trees' predictions for feature `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.trees.iter().map(|t| t.predict(x)).sum::<f64>() / self.trees.len() as f64
    }

    /// Number of trees in the ensemble.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }
}

/// Replaces `sample` with one bootstrap draw of `n` ids from `0..n`,
/// in draw order. The stream depends only on the rng state and `n`.
pub(crate) fn draw_bootstrap(rng: &mut ChaCha8Rng, n: usize, sample: &mut Vec<u32>) {
    sample.clear();
    sample.extend((0..n).map(|_| rng.gen_range(0..n) as u32));
}

/// The original forest fit over the per-sample tree builder, retained
/// as the differential reference for [`RandomForest::fit`].
#[cfg(any(test, feature = "naive"))]
pub mod naive {
    use super::*;
    use crate::tree;

    /// [`RandomForest::fit`] with a gathered, comparison-sorted
    /// bootstrap per tree.
    ///
    /// # Panics
    ///
    /// Same as [`RandomForest::fit`].
    pub fn fit(xs: &[f64], ys: &[f64], config: RandomForestConfig) -> RandomForest {
        assert_eq!(xs.len(), ys.len(), "feature/target length mismatch");
        assert!(!xs.is_empty(), "cannot fit a forest to zero samples");
        assert!(config.num_trees > 0, "forest needs at least one tree");
        let n = xs.len();
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let mut trees = Vec::with_capacity(config.num_trees);
        let mut bx = vec![0.0; n];
        let mut by = vec![0.0; n];
        for _ in 0..config.num_trees {
            for i in 0..n {
                let j = rng.gen_range(0..n);
                bx[i] = xs[j];
                by[i] = ys[j];
            }
            trees.push(tree::naive::fit(&bx, &by, config.tree));
        }
        RandomForest { trees }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_exp_data(n: usize) -> (Vec<f64>, Vec<f64>) {
        // Deterministic pseudo-noise so the test is stable.
        let xs: Vec<f64> = (0..n).map(|i| i as f64 * 8.0 / n as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| (-x).exp() * (1.0 + 0.1 * ((i * 37 % 17) as f64 / 17.0 - 0.5)))
            .collect();
        (xs, ys)
    }

    #[test]
    fn forest_is_deterministic_for_seed() {
        let (xs, ys) = noisy_exp_data(100);
        let a = RandomForest::fit(&xs, &ys, RandomForestConfig::default());
        let b = RandomForest::fit(&xs, &ys, RandomForestConfig::default());
        assert_eq!(a.predict(3.0), b.predict(3.0));
    }

    #[test]
    fn forest_fits_decaying_curve() {
        let (xs, ys) = noisy_exp_data(200);
        let forest = RandomForest::fit(&xs, &ys, RandomForestConfig::default());
        for &x in &[0.5, 1.5, 3.0, 6.0] {
            assert!((forest.predict(x) - (-x).exp()).abs() < 0.08, "at x={x}");
        }
    }

    #[test]
    fn more_trees_smooths_prediction() {
        let (xs, ys) = noisy_exp_data(150);
        let small = RandomForest::fit(
            &xs,
            &ys,
            RandomForestConfig {
                num_trees: 1,
                ..Default::default()
            },
        );
        let large = RandomForest::fit(
            &xs,
            &ys,
            RandomForestConfig {
                num_trees: 50,
                ..Default::default()
            },
        );
        assert_eq!(small.num_trees(), 1);
        assert_eq!(large.num_trees(), 50);
        // The large forest should be at least as accurate on a grid.
        let err = |f: &RandomForest| -> f64 {
            (0..40)
                .map(|i| {
                    let x = i as f64 * 0.2;
                    (f.predict(x) - (-x).exp()).powi(2)
                })
                .sum()
        };
        assert!(err(&large) <= err(&small) * 1.5);
    }

    #[test]
    #[should_panic(expected = "at least one tree")]
    fn zero_trees_panics() {
        let _ = RandomForest::fit(
            &[1.0],
            &[1.0],
            RandomForestConfig {
                num_trees: 0,
                ..Default::default()
            },
        );
    }
}
