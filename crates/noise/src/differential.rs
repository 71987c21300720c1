//! Differential suite: the fit kernel, forest and tree builder against
//! the retained naive references. Every model must compare `==` with
//! the same `cv_mse` bits, and every tree must be bit-identical (the
//! `Debug` rendering prints each float's shortest round-trip form, so
//! equal renderings mean equal bits, signed zeros included).

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use youtiao_chip::surface::SurfaceCode;
use youtiao_chip::{topology, Chip};

use crate::data::{synthesize, CrosstalkKind, CrosstalkSample, SynthConfig};
use crate::fit::{self, fit_crosstalk_model, FitConfig};
use crate::forest::{self, RandomForest, RandomForestConfig};
use crate::tree::{self, RegressionTree, TreeConfig};

fn assert_same_fit(samples: &[CrosstalkSample], config: &FitConfig, what: &str) {
    let fast = fit_crosstalk_model(samples, config);
    let slow = fit::naive::fit_crosstalk_model(samples, config);
    assert_eq!(fast, slow, "{what}: model diverged");
    if let (Ok(fast), Ok(slow)) = (fast, slow) {
        assert_eq!(
            fast.cv_mse().to_bits(),
            slow.cv_mse().to_bits(),
            "{what}: cv_mse bits diverged"
        );
        assert_eq!(
            format!("{fast:?}"),
            format!("{slow:?}"),
            "{what}: model bits"
        );
    }
}

fn corpus() -> Vec<(&'static str, Chip)> {
    vec![
        ("square-4x4", topology::square_grid(4, 4)),
        ("square-6x6", topology::square_grid(6, 6)),
        ("square-7x8", topology::square_grid(7, 8)),
        ("hexagon-2x2", topology::hexagon_patch(2, 2)),
        ("heavy-hex-2x2", topology::heavy_hexagon(2, 2)),
        ("heavy-square-3x3", topology::heavy_square(3, 3)),
        ("surface-d5", SurfaceCode::rotated(5).into_chip()),
    ]
}

#[test]
fn kernel_matches_naive_across_corpus_seeds_and_configs() {
    for (label, chip) in corpus() {
        for seed in [1, 7, 23] {
            let samples = synthesize(&chip, CrosstalkKind::Xy, &SynthConfig::xy(), seed);
            assert_same_fit(
                &samples,
                &FitConfig::fast(),
                &format!("{label}/{seed}/fast"),
            );
            assert_same_fit(
                &samples,
                &FitConfig::paper(),
                &format!("{label}/{seed}/paper"),
            );
        }
    }
}

#[test]
fn kernel_matches_naive_on_zz_data() {
    let chip = topology::square_grid(5, 5);
    let samples = synthesize(&chip, CrosstalkKind::Zz, &SynthConfig::zz(), 3);
    assert_same_fit(&samples, &FitConfig::paper(), "zz-5x5");
}

#[test]
fn uneven_folds_match_naive() {
    // 242 = 5·48 + 2: folds 0 and 1 test 49 points, the rest 48, so
    // the training-set sizes (and bootstrap streams) differ by fold.
    let chip = topology::square_grid(4, 4);
    let mut samples = synthesize(&chip, CrosstalkKind::Xy, &SynthConfig::xy(), 5);
    let extra = synthesize(
        &topology::square_grid(2, 2),
        CrosstalkKind::Xy,
        &SynthConfig::xy(),
        5,
    );
    samples.extend_from_slice(&extra[..2]);
    assert_eq!(samples.len() % 5, 2);
    assert_same_fit(&samples, &FitConfig::paper(), "uneven/paper");
    assert_eq!(samples.len() % 3, 2);
    assert_same_fit(&samples, &FitConfig::fast(), "uneven/fast");
}

#[test]
fn non_finite_samples_match_naive() {
    let chip = topology::square_grid(4, 4);
    let mut samples = synthesize(&chip, CrosstalkKind::Xy, &SynthConfig::xy(), 9);
    let template = samples[0];
    for (i, (d_phy, d_top, value)) in [
        (f64::INFINITY, 1.0, 0.5),
        (1.0, f64::INFINITY, 0.5),
        (1.0, 1.0, f64::NAN),
        (f64::NAN, 2.0, 1e-4),
        (2.0, 3.0, f64::NEG_INFINITY),
    ]
    .into_iter()
    .enumerate()
    {
        samples.insert(
            i * 37,
            CrosstalkSample {
                d_phy,
                d_top,
                value,
                ..template
            },
        );
    }
    assert_same_fit(&samples, &FitConfig::paper(), "non-finite");
}

#[test]
fn exactly_folds_samples_match_naive() {
    let chip = topology::square_grid(3, 3);
    let samples = synthesize(&chip, CrosstalkKind::Xy, &SynthConfig::xy(), 2);
    for config in [FitConfig::paper(), FitConfig::fast()] {
        let few = &samples[..config.folds];
        assert_same_fit(few, &config, "exactly-folds");
        assert_same_fit(&few[..config.folds - 1], &config, "too-few");
    }
}

#[test]
fn constant_targets_match_naive() {
    let chip = topology::square_grid(4, 4);
    let mut samples = synthesize(&chip, CrosstalkKind::Xy, &SynthConfig::xy(), 4);
    for s in &mut samples {
        s.value = 3e-5;
    }
    assert_same_fit(&samples, &FitConfig::paper(), "constant");
    for s in &mut samples {
        s.value = -0.0;
    }
    assert_same_fit(&samples, &FitConfig::fast(), "negative-zero");
}

#[test]
fn invalid_configs_match_naive() {
    let chip = topology::square_grid(3, 3);
    let samples = synthesize(&chip, CrosstalkKind::Xy, &SynthConfig::xy(), 1);
    for config in [
        FitConfig {
            folds: 1,
            ..FitConfig::fast()
        },
        FitConfig {
            weight_steps: 0,
            ..FitConfig::fast()
        },
    ] {
        assert_same_fit(&samples, &config, "invalid");
    }
}

/// Features on a coarse lattice (many duplicates), shuffled, with
/// signed zeros; targets with occasional exact ties and zeros.
fn lattice_data(n: usize, levels: u32, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let xs = (0..n)
        .map(|_| match rng.gen_range(0..levels + 1) {
            0 => -0.0,
            1 => 0.0,
            k => f64::from(k) * 0.37,
        })
        .collect();
    let ys = (0..n)
        .map(|_| match rng.gen_range(0..10u32) {
            0 => 0.0,
            1 => -0.0,
            2 => 1.0,
            _ => rng.gen_range(-1.0..=1.0),
        })
        .collect();
    (xs, ys)
}

fn assert_same_tree(xs: &[f64], ys: &[f64], config: TreeConfig, what: &str) {
    let fast = RegressionTree::fit(xs, ys, config);
    let slow = tree::naive::fit(xs, ys, config);
    assert_eq!(
        format!("{fast:?}"),
        format!("{slow:?}"),
        "{what}: tree bits"
    );
}

#[test]
fn tree_builder_matches_naive_on_duplicate_unsorted_features() {
    let configs = [
        TreeConfig::default(),
        TreeConfig {
            max_depth: 3,
            min_samples_split: 2,
        },
        TreeConfig {
            max_depth: 20,
            min_samples_split: 1,
        },
        TreeConfig {
            max_depth: 0,
            min_samples_split: 4,
        },
    ];
    for seed in 0..12 {
        for (n, levels) in [(1, 3), (2, 1), (7, 2), (40, 5), (300, 30), (500, 400)] {
            let (xs, ys) = lattice_data(n, levels, seed);
            for config in configs {
                assert_same_tree(&xs, &ys, config, &format!("n={n}/levels={levels}/{seed}"));
            }
        }
    }
}

#[test]
fn tree_builder_matches_naive_on_edge_features() {
    let config = TreeConfig {
        max_depth: 6,
        min_samples_split: 2,
    };
    let ys = [0.5, -1.0, 2.0, 0.25, 3.0, -0.0, 1.5, 0.0];
    // NaNs (which compare unequal, even to themselves), infinities and
    // signed zeros all take part in the sort and the split scan.
    let xs = [
        f64::NAN,
        1.0,
        f64::INFINITY,
        -0.0,
        f64::NAN,
        0.0,
        f64::NEG_INFINITY,
        1.0,
    ];
    assert_same_tree(&xs, &ys, config, "edge");
    assert_same_tree(&[f64::NAN; 5], &ys[..5], config, "all-nan");
    assert_same_tree(&[-0.0; 4], &[-0.0; 4], config, "all-negative-zero");
    assert_same_tree(&[1.0; 6], &[2.0; 6], config, "constant");
}

#[test]
fn forest_matches_naive() {
    for seed in 0..4 {
        let (xs, ys) = lattice_data(400, 25, seed);
        for num_trees in [1, 5] {
            let config = RandomForestConfig {
                num_trees,
                seed,
                ..Default::default()
            };
            let fast = RandomForest::fit(&xs, &ys, config);
            let slow = forest::naive::fit(&xs, &ys, config);
            assert_eq!(
                format!("{fast:?}"),
                format!("{slow:?}"),
                "forest/{seed}/{num_trees}"
            );
        }
    }
}
