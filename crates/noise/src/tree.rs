//! CART regression trees over a single scalar feature.
//!
//! The paper regresses crosstalk against the scalar equivalent distance,
//! so the trees here are one-dimensional: each internal node splits on a
//! threshold of the feature, each leaf predicts the mean of its training
//! targets. Splits greedily minimize the summed squared error of the two
//! children (equivalently, maximize variance reduction).
//!
//! Trees are grown over samples grouped by feature value: a stable
//! counting sort orders a sample, and splits are searched only at group
//! boundaries (DESIGN.md §4l). [`naive`] keeps the per-sample builder
//! the grouped one must match bit for bit.

/// Hyper-parameters of a regression tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeConfig {
    /// Maximum tree depth (root has depth 0).
    pub max_depth: usize,
    /// Minimum number of samples required to split a node.
    pub min_samples_split: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 8,
            min_samples_split: 4,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf {
        prediction: f64,
    },
    Split {
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// A fitted one-dimensional regression tree.
///
/// # Example
///
/// ```
/// use youtiao_noise::tree::{RegressionTree, TreeConfig};
///
/// // A step function is learned exactly.
/// let xs = [0.0, 1.0, 2.0, 10.0, 11.0, 12.0];
/// let ys = [5.0, 5.0, 5.0, 1.0, 1.0, 1.0];
/// let tree = RegressionTree::fit(&xs, &ys, TreeConfig::default());
/// assert_eq!(tree.predict(1.5), 5.0);
/// assert_eq!(tree.predict(11.0), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionTree {
    root: Node,
}

impl RegressionTree {
    /// Fits a tree to `(x, y)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `xs` and `ys` have different lengths or are empty.
    pub fn fit(xs: &[f64], ys: &[f64], config: TreeConfig) -> Self {
        assert_eq!(xs.len(), ys.len(), "feature/target length mismatch");
        assert!(!xs.is_empty(), "cannot fit a tree to zero samples");
        let groups = FeatureGroups::new(xs);
        let samples: Vec<u32> = (0..groups.ids.len() as u32).collect();
        let mut builder = TreeBuilder::default();
        builder.sort_sample(&samples, ys, &groups);
        builder.grow(config);
        builder.to_tree()
    }

    /// Predicts the target value for feature `x`.
    pub fn predict(&self, x: f64) -> f64 {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { prediction } => return *prediction,
                Node::Split {
                    threshold,
                    left,
                    right,
                } => {
                    node = if x <= *threshold { left } else { right };
                }
            }
        }
    }

    /// Number of leaves in the tree.
    pub fn num_leaves(&self) -> usize {
        fn count(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 1,
                Node::Split { left, right, .. } => count(left) + count(right),
            }
        }
        count(&self.root)
    }

    /// Depth of the tree (a single leaf has depth 0).
    pub fn depth(&self) -> usize {
        fn depth(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + depth(left).max(depth(right)),
            }
        }
        depth(&self.root)
    }
}

/// The distinct values of one feature column, ascending in
/// [`f64::total_cmp`] order (so bit-distinct values are distinct
/// groups), and each sample's group id.
///
/// Sorting by group id is sorting by feature: a stable counting sort
/// of any sample sequence by id yields exactly the order a stable
/// `sort_by(total_cmp)` of its features would.
#[derive(Debug, Clone)]
pub(crate) struct FeatureGroups {
    /// Distinct feature values, ascending.
    pub(crate) values: Vec<f64>,
    /// Per-sample index into `values`.
    pub(crate) ids: Vec<u32>,
}

impl FeatureGroups {
    /// Groups `xs` by value (one sort).
    ///
    /// # Panics
    ///
    /// Panics if `xs` has more than `u32::MAX` entries.
    pub(crate) fn new(xs: &[f64]) -> Self {
        let n = u32::try_from(xs.len()).expect("sample count fits in u32");
        let mut order: Vec<u32> = (0..n).collect();
        order.sort_unstable_by(|&a, &b| xs[a as usize].total_cmp(&xs[b as usize]));
        let mut values: Vec<f64> = Vec::new();
        let mut ids = vec![0u32; xs.len()];
        for &i in &order {
            let x = xs[i as usize];
            if values.last().is_none_or(|v| v.to_bits() != x.to_bits()) {
                values.push(x);
            }
            ids[i as usize] = (values.len() - 1) as u32;
        }
        FeatureGroups { values, ids }
    }
}

/// A realizable split position in the sorted sample: between sample
/// `pos - 1` (feature `below`) and sample `pos` (feature `above`).
#[derive(Debug, Clone, Copy)]
struct Cut {
    pos: u32,
    below: f64,
    above: f64,
}

/// Running `(Σy, Σy²)` of a contiguous run of sorted targets.
#[derive(Debug, Clone, Copy, Default)]
struct Chain {
    sum: f64,
    sq: f64,
}

impl Chain {
    /// Adds `ys` in order.
    fn extend(&mut self, ys: &[f64]) {
        for &y in ys {
            self.sum += y;
            self.sq += y * y;
        }
    }
}

/// A tree node in pre-order; a split's left child is the next node.
#[derive(Debug, Clone, Copy)]
enum FlatNode {
    Leaf(f64),
    Split { threshold: f64, right: u32 },
}

/// Grows one tree over a sample that is sorted by feature group, with
/// reusable scratch buffers.
///
/// Splits can only fall between feature groups, so each node's split
/// search runs over the group boundaries ("cuts") inside it rather than
/// over its samples. The prefix sums it scores are the same sequential
/// `(Σy, Σy²)` chains a per-sample scan would add up, so every split,
/// threshold and leaf mean is bit-identical to the per-sample CART
/// builder: a left child starts where its parent starts, so it reuses
/// the parent's chain; a right child re-runs one fused pass over its
/// own samples.
#[derive(Debug, Default)]
pub(crate) struct TreeBuilder {
    /// Each drawn sample's group id, in draw order.
    sample_groups: Vec<u32>,
    /// Per-group counts, then per-group write offsets.
    offsets: Vec<u32>,
    /// The sample's targets, sorted by feature.
    sy: Vec<f64>,
    /// Realizable split positions, ascending.
    cuts: Vec<Cut>,
    /// The current node's running chain at each of its cuts.
    chain: Vec<Chain>,
    /// The grown tree.
    nodes: Vec<FlatNode>,
    /// The configuration of the tree being grown.
    config: TreeConfig,
}

impl TreeBuilder {
    /// Loads a sample (sample ids in draw order, with their targets)
    /// sorted by feature: a stable counting sort by group id, so equal
    /// features keep draw order exactly as a stable comparison sort
    /// would.
    pub(crate) fn sort_sample(&mut self, samples: &[u32], targets: &[f64], groups: &FeatureGroups) {
        self.offsets.clear();
        self.offsets.resize(groups.values.len(), 0);
        self.sample_groups.clear();
        self.sample_groups.extend(samples.iter().map(|&s| {
            let group = groups.ids[s as usize];
            self.offsets[group as usize] += 1;
            group
        }));
        self.cuts.clear();
        let mut start = 0u32;
        let mut previous: Option<f64> = None;
        for (offset, &x) in self.offsets.iter_mut().zip(&groups.values) {
            let count = std::mem::replace(offset, start);
            if count == 0 {
                continue;
            }
            // A split between equal feature values is not realizable;
            // NaN equals nothing, not even itself.
            if let Some(below) = previous.filter(|&p| p != x) {
                self.cuts.push(Cut {
                    pos: start,
                    below,
                    above: x,
                });
            }
            if x.is_nan() {
                self.cuts.extend((1..count).map(|k| Cut {
                    pos: start + k,
                    below: x,
                    above: x,
                }));
            }
            previous = Some(x);
            start += count;
        }
        self.sy.clear();
        self.sy.resize(samples.len(), 0.0);
        for (&group, &y) in self.sample_groups.iter().zip(targets) {
            let offset = &mut self.offsets[group as usize];
            self.sy[*offset as usize] = y;
            *offset += 1;
        }
    }

    /// Grows the tree over the loaded sample.
    pub(crate) fn grow(&mut self, config: TreeConfig) {
        self.nodes.clear();
        self.chain.clear();
        self.chain.resize(self.cuts.len(), Chain::default());
        let (n, k) = (self.sy.len(), self.cuts.len());
        self.config = config;
        let total = self.run_chain(0, n, 0, k);
        self.grow_node(0, n, 0, k, total, 0);
    }

    /// Sums `sy[lo..hi]` in order, recording the running chain at
    /// `cuts[k_lo..k_hi]`, and returns the total. Starts from `-0.0`,
    /// as `Iterator::sum` for floats does, so the totals match it bit
    /// for bit (the cut chains may differ from a `0.0`-started scan
    /// only in the sign of a zero sum, which squaring erases).
    fn run_chain(&mut self, lo: usize, hi: usize, k_lo: usize, k_hi: usize) -> Chain {
        let mut chain = Chain {
            sum: -0.0,
            sq: -0.0,
        };
        let mut from = lo;
        for k in k_lo..k_hi {
            let pos = self.cuts[k].pos as usize;
            chain.extend(&self.sy[from..pos]);
            self.chain[k] = chain;
            from = pos;
        }
        chain.extend(&self.sy[from..hi]);
        chain
    }

    /// Grows the node over samples `lo..hi` with cuts `k_lo..k_hi`,
    /// whose chain entries hold running sums from `lo`.
    fn grow_node(
        &mut self,
        lo: usize,
        hi: usize,
        k_lo: usize,
        k_hi: usize,
        total: Chain,
        depth: usize,
    ) {
        let n = hi - lo;
        let mean = total.sum / n as f64;
        if depth >= self.config.max_depth || n < self.config.min_samples_split {
            self.nodes.push(FlatNode::Leaf(mean));
            return;
        }
        let Some(k) = self.best_cut(lo, n, k_lo, k_hi, total) else {
            self.nodes.push(FlatNode::Leaf(mean));
            return;
        };
        let cut = self.cuts[k];
        let at = self.nodes.len();
        self.nodes.push(FlatNode::Split {
            threshold: (cut.below + cut.above) / 2.0,
            right: 0,
        });
        let pos = cut.pos as usize;
        let left_total = self.chain[k];
        self.grow_node(lo, pos, k_lo, k, left_total, depth + 1);
        let right_total = self.run_chain(pos, hi, k + 1, k_hi);
        let right_at = self.nodes.len() as u32;
        if let FlatNode::Split { right, .. } = &mut self.nodes[at] {
            *right = right_at;
        }
        self.grow_node(pos, hi, k + 1, k_hi, right_total, depth + 1);
    }

    /// The cut minimizing the children's summed squared error, or
    /// `None` when no cut improves on the parent.
    fn best_cut(
        &self,
        lo: usize,
        n: usize,
        k_lo: usize,
        k_hi: usize,
        total: Chain,
    ) -> Option<usize> {
        let parent_sse = total.sq - total.sum * total.sum / n as f64;
        let mut best: Option<(usize, f64)> = None;
        for k in k_lo..k_hi {
            let i = self.cuts[k].pos as usize - lo;
            let left = self.chain[k];
            let right_sum = total.sum - left.sum;
            let right_sq = total.sq - left.sq;
            let sse = (left.sq - left.sum * left.sum / i as f64)
                + (right_sq - right_sum * right_sum / (n - i) as f64);
            if best.map_or(sse < parent_sse - 1e-15, |(_, b)| sse < b) {
                best = Some((k, sse));
            }
        }
        best.map(|(k, _)| k)
    }

    /// The grown tree's prediction for feature `x`.
    pub(crate) fn predict(&self, x: f64) -> f64 {
        let mut at = 0;
        loop {
            match self.nodes[at] {
                FlatNode::Leaf(prediction) => return prediction,
                FlatNode::Split { threshold, right } => {
                    at = if x <= threshold {
                        at + 1
                    } else {
                        right as usize
                    };
                }
            }
        }
    }

    /// The grown tree as a [`RegressionTree`].
    pub(crate) fn to_tree(&self) -> RegressionTree {
        fn node(nodes: &[FlatNode], at: usize) -> Node {
            match nodes[at] {
                FlatNode::Leaf(prediction) => Node::Leaf { prediction },
                FlatNode::Split { threshold, right } => Node::Split {
                    threshold,
                    left: Box::new(node(nodes, at + 1)),
                    right: Box::new(node(nodes, right as usize)),
                },
            }
        }
        RegressionTree {
            root: node(&self.nodes, 0),
        }
    }
}

/// The original per-sample CART builder, retained as the differential
/// reference for [`TreeBuilder`]: every tree [`RegressionTree::fit`]
/// grows must be bit-identical to this one's.
#[cfg(any(test, feature = "naive"))]
pub mod naive {
    use super::{Node, RegressionTree, TreeConfig};

    /// [`RegressionTree::fit`] by a comparison sort and a full prefix-sum
    /// scan of every node.
    ///
    /// # Panics
    ///
    /// Panics if `xs` and `ys` have different lengths or are empty.
    pub fn fit(xs: &[f64], ys: &[f64], config: TreeConfig) -> RegressionTree {
        assert_eq!(xs.len(), ys.len(), "feature/target length mismatch");
        assert!(!xs.is_empty(), "cannot fit a tree to zero samples");
        // Sort once by feature; recursion then works on contiguous slices.
        let mut order: Vec<usize> = (0..xs.len()).collect();
        order.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
        let sx: Vec<f64> = order.iter().map(|&i| xs[i]).collect();
        let sy: Vec<f64> = order.iter().map(|&i| ys[i]).collect();
        RegressionTree {
            root: build(&sx, &sy, 0, config),
        }
    }

    /// Recursively builds a node over the sorted slice `(xs, ys)`.
    fn build(xs: &[f64], ys: &[f64], depth: usize, config: TreeConfig) -> Node {
        let mean = ys.iter().sum::<f64>() / ys.len() as f64;
        if depth >= config.max_depth || ys.len() < config.min_samples_split {
            return Node::Leaf { prediction: mean };
        }
        match best_split(xs, ys) {
            None => Node::Leaf { prediction: mean },
            Some(split_idx) => {
                let threshold = (xs[split_idx - 1] + xs[split_idx]) / 2.0;
                let left = build(&xs[..split_idx], &ys[..split_idx], depth + 1, config);
                let right = build(&xs[split_idx..], &ys[split_idx..], depth + 1, config);
                Node::Split {
                    threshold,
                    left: Box::new(left),
                    right: Box::new(right),
                }
            }
        }
    }

    /// Finds the split index minimizing the children's summed squared error.
    ///
    /// Returns `None` when no split separates distinct feature values or no
    /// split improves on the parent. Uses prefix sums for an O(n) scan.
    fn best_split(xs: &[f64], ys: &[f64]) -> Option<usize> {
        let n = ys.len();
        let total_sum: f64 = ys.iter().sum();
        let total_sq: f64 = ys.iter().map(|y| y * y).sum();
        let parent_sse = total_sq - total_sum * total_sum / n as f64;

        let mut best: Option<(usize, f64)> = None;
        let mut left_sum = 0.0;
        let mut left_sq = 0.0;
        for i in 1..n {
            left_sum += ys[i - 1];
            left_sq += ys[i - 1] * ys[i - 1];
            // A split between equal feature values is not realizable.
            if xs[i - 1] == xs[i] {
                continue;
            }
            let right_sum = total_sum - left_sum;
            let right_sq = total_sq - left_sq;
            let sse = (left_sq - left_sum * left_sum / i as f64)
                + (right_sq - right_sum * right_sum / (n - i) as f64);
            if best.map_or(sse < parent_sse - 1e-15, |(_, b)| sse < b) {
                best = Some((i, sse));
            }
        }
        best.map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_sample_is_constant() {
        let tree = RegressionTree::fit(&[1.0], &[3.5], TreeConfig::default());
        assert_eq!(tree.predict(0.0), 3.5);
        assert_eq!(tree.predict(100.0), 3.5);
        assert_eq!(tree.num_leaves(), 1);
        assert_eq!(tree.depth(), 0);
    }

    #[test]
    fn constant_targets_never_split() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys = vec![2.0; 50];
        let tree = RegressionTree::fit(&xs, &ys, TreeConfig::default());
        assert_eq!(tree.num_leaves(), 1);
        assert_eq!(tree.predict(25.0), 2.0);
    }

    #[test]
    fn learns_step_function() {
        let xs = [0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 12.0, 13.0];
        let ys = [4.0, 4.0, 4.0, 4.0, -1.0, -1.0, -1.0, -1.0];
        let tree = RegressionTree::fit(&xs, &ys, TreeConfig::default());
        assert_eq!(tree.predict(2.0), 4.0);
        assert_eq!(tree.predict(12.0), -1.0);
    }

    #[test]
    fn unsorted_input_is_handled() {
        let xs = [12.0, 0.0, 11.0, 1.0, 13.0, 2.0, 10.0, 3.0];
        let ys = [-1.0, 4.0, -1.0, 4.0, -1.0, 4.0, -1.0, 4.0];
        let tree = RegressionTree::fit(&xs, &ys, TreeConfig::default());
        assert_eq!(tree.predict(2.0), 4.0);
        assert_eq!(tree.predict(12.0), -1.0);
    }

    #[test]
    fn depth_limit_respected() {
        let xs: Vec<f64> = (0..128).map(|i| i as f64).collect();
        let ys: Vec<f64> = (0..128).map(|i| (i as f64).sin()).collect();
        let cfg = TreeConfig {
            max_depth: 3,
            min_samples_split: 2,
        };
        let tree = RegressionTree::fit(&xs, &ys, cfg);
        assert!(tree.depth() <= 3);
        assert!(tree.num_leaves() <= 8);
    }

    #[test]
    fn min_samples_split_respected() {
        let xs: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let ys: Vec<f64> = (0..8).map(|i| i as f64 * 2.0).collect();
        let cfg = TreeConfig {
            max_depth: 20,
            min_samples_split: 9,
        };
        let tree = RegressionTree::fit(&xs, &ys, cfg);
        assert_eq!(tree.num_leaves(), 1);
    }

    #[test]
    fn duplicate_features_do_not_split_between_equal_values() {
        let xs = [1.0, 1.0, 1.0, 1.0];
        let ys = [0.0, 10.0, 0.0, 10.0];
        let tree = RegressionTree::fit(&xs, &ys, TreeConfig::default());
        assert_eq!(tree.num_leaves(), 1);
        assert_eq!(tree.predict(1.0), 5.0);
    }

    #[test]
    fn approximates_monotone_function() {
        let xs: Vec<f64> = (0..200).map(|i| i as f64 / 20.0).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (-x).exp()).collect();
        let tree = RegressionTree::fit(&xs, &ys, TreeConfig::default());
        // Predictions should preserve ordering at well-separated points.
        assert!(tree.predict(0.5) > tree.predict(5.0));
        assert!(tree.predict(2.0) > tree.predict(8.0));
        // And be close in absolute terms.
        for &x in &[0.5, 2.0, 5.0, 8.0] {
            assert!((tree.predict(x) - (-x).exp()).abs() < 0.05);
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = RegressionTree::fit(&[1.0, 2.0], &[1.0], TreeConfig::default());
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn empty_input_panics() {
        let _ = RegressionTree::fit(&[], &[], TreeConfig::default());
    }
}
