//! CART regression trees — the shared building block for the random forest
//! and the gradient-boosted model.
//!
//! Trees are grown greedily with variance-reduction (MSE) splits. Binary
//! classification reuses the same machinery by encoding labels as 0.0/1.0 and
//! reading leaf means as probabilities.
//!
//! # Cost model
//!
//! A fit sorts each feature column once, stably, into `(value, row)`
//! entries. The builder keeps every node's rows as one contiguous segment
//! of a row list and of each sorted column: finding a node's best split
//! scans its column segments, and applying the split stably partitions
//! them into the children's segments, which are then already sorted. Growth
//! therefore costs one sort per feature per dataset plus
//! O(features × n) per tree level. Gradient boosting fits many trees on the
//! same rows with new targets, so
//! [`GradientBoostedTrees::fit`](crate::gbm::GradientBoostedTrees::fit)
//! sorts once per fit and shares the sort across all boosting rounds.

use crate::dataset::Dataset;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_pcg::Pcg64;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// Hyperparameters controlling tree growth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TreeConfig {
    /// Maximum tree depth (root is depth 0).
    pub max_depth: usize,
    /// Minimum number of samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum number of samples that must land in each child.
    pub min_samples_leaf: usize,
    /// If set, only this many randomly-chosen features are considered per
    /// split (random-forest style feature subsampling).
    pub max_features: Option<usize>,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig { max_depth: 8, min_samples_split: 2, min_samples_leaf: 1, max_features: None }
    }
}

/// A node in the fitted tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Node {
    Leaf {
        /// Identifier of the leaf (used by gradient boosting to adjust values).
        id: usize,
        /// Predicted value.
        value: f64,
        /// Number of training samples that reached the leaf.
        samples: usize,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// A fitted CART regression tree.
///
/// # Example
///
/// ```
/// use pond_ml::dataset::Dataset;
/// use pond_ml::tree::{DecisionTree, TreeConfig};
///
/// let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
/// let labels: Vec<f64> = (0..100).map(|i| if i < 50 { 0.0 } else { 10.0 }).collect();
/// let data = Dataset::new(vec!["x".into()], rows, labels)?;
/// let tree = DecisionTree::fit(&data, &TreeConfig::default(), 0);
/// assert!(tree.predict(&[10.0]) < 1.0);
/// assert!(tree.predict(&[90.0]) > 9.0);
/// # Ok::<(), pond_ml::MlError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTree {
    root: Node,
    n_features: usize,
    n_leaves: usize,
}

/// One entry of a sorted feature column: a row's value and the row.
#[derive(Debug, Clone, Copy)]
struct Entry {
    value: f64,
    row: u32,
}

/// Every feature column of a dataset, each stably sorted once by value.
///
/// A fit copies the sorted columns into `work` and partitions that copy in
/// place as the tree grows, so repeated fits on the same rows (one per
/// boosting round) share one sort and one buffer.
#[derive(Debug)]
pub(crate) struct SortedColumns {
    n_rows: usize,
    /// Feature-major: column `f` is `sorted[f * n_rows..(f + 1) * n_rows]`.
    sorted: Vec<Entry>,
    work: Vec<Entry>,
}

impl SortedColumns {
    /// Sorts every feature column of `data`.
    ///
    /// # Panics
    ///
    /// Panics if the dataset has more rows than a `u32` can index.
    pub(crate) fn new(data: &Dataset) -> Self {
        let n_rows = data.len();
        let rows = u32::try_from(n_rows).expect("sorted columns index rows with u32");
        let mut sorted = Vec::with_capacity(n_rows * data.n_features());
        for feature in 0..data.n_features() {
            let start = sorted.len();
            sorted
                .extend((0..rows).map(|row| Entry { value: data.row(row as usize)[feature], row }));
            // Stable, so equal values keep ascending rows: the order a stable
            // sort of any node's ascending rows produces.
            sorted[start..]
                .sort_by(|a, b| a.value.partial_cmp(&b.value).unwrap_or(Ordering::Equal));
        }
        SortedColumns { n_rows, sorted, work: Vec::new() }
    }
}

/// Moves the elements of `segment` for which `left` holds to its front,
/// keeping the relative order on both sides.
fn stable_partition<T: Copy>(segment: &mut [T], scratch: &mut Vec<T>, left: impl Fn(&T) -> bool) {
    scratch.clear();
    let mut written = 0;
    for i in 0..segment.len() {
        let item = segment[i];
        if left(&item) {
            segment[written] = item;
            written += 1;
        } else {
            scratch.push(item);
        }
    }
    segment[written..].copy_from_slice(scratch);
}

/// Grows one tree. A node is a range `lo..hi`: its rows are `order[lo..hi]`
/// in ascending order, and its sorted column `f` is
/// `columns[f * n_rows + lo..f * n_rows + hi]`.
struct Builder<'a> {
    targets: &'a [f64],
    config: &'a TreeConfig,
    rng: Pcg64,
    next_leaf_id: usize,
    n_rows: usize,
    n_features: usize,
    order: Vec<u32>,
    columns: &'a mut [Entry],
    /// Per row: whether it goes left under the split being applied.
    goes_left: Vec<bool>,
    order_scratch: Vec<u32>,
    column_scratch: Vec<Entry>,
    /// Per row: the id of the leaf it landed in.
    leaf_of_row: Vec<usize>,
}

impl Builder<'_> {
    fn leaf(&mut self, lo: usize, hi: usize) -> Node {
        let rows = &self.order[lo..hi];
        let value = if rows.is_empty() {
            0.0
        } else {
            rows.iter().map(|&r| self.targets[r as usize]).sum::<f64>() / rows.len() as f64
        };
        let id = self.next_leaf_id;
        self.next_leaf_id += 1;
        for &r in rows {
            self.leaf_of_row[r as usize] = id;
        }
        Node::Leaf { id, value, samples: rows.len() }
    }

    fn build(&mut self, lo: usize, hi: usize, depth: usize) -> Node {
        let len = hi - lo;
        if depth >= self.config.max_depth
            || len < self.config.min_samples_split
            || len < 2 * self.config.min_samples_leaf
        {
            return self.leaf(lo, hi);
        }
        let Some((feature, threshold)) = self.best_split(lo, hi) else {
            return self.leaf(lo, hi);
        };
        let base = feature * self.n_rows;
        let mut left_len = 0;
        for entry in &self.columns[base + lo..base + hi] {
            let left = entry.value <= threshold;
            self.goes_left[entry.row as usize] = left;
            left_len += usize::from(left);
        }
        if left_len < self.config.min_samples_leaf || len - left_len < self.config.min_samples_leaf
        {
            return self.leaf(lo, hi);
        }
        let goes_left = &self.goes_left;
        stable_partition(&mut self.order[lo..hi], &mut self.order_scratch, |&r| {
            goes_left[r as usize]
        });
        // Children at the depth limit are leaves, which read only the rows.
        if depth + 1 < self.config.max_depth {
            for f in 0..self.n_features {
                let base = f * self.n_rows;
                stable_partition(
                    &mut self.columns[base + lo..base + hi],
                    &mut self.column_scratch,
                    |entry| goes_left[entry.row as usize],
                );
            }
        }
        let mid = lo + left_len;
        let left_node = self.build(lo, mid, depth + 1);
        let right_node = self.build(mid, hi, depth + 1);
        Node::Split { feature, threshold, left: Box::new(left_node), right: Box::new(right_node) }
    }

    /// Finds the (feature, threshold) pair with the greatest reduction in the
    /// sum of squared errors, or `None` when no split improves on the parent.
    fn best_split(&mut self, lo: usize, hi: usize) -> Option<(usize, f64)> {
        let mut candidates: Vec<usize> = (0..self.n_features).collect();
        if let Some(k) = self.config.max_features {
            candidates.shuffle(&mut self.rng);
            candidates.truncate(k.max(1).min(self.n_features));
        }

        let rows = &self.order[lo..hi];
        let total_sum: f64 = rows.iter().map(|&r| self.targets[r as usize]).sum();
        let total_sq: f64 = rows.iter().map(|&r| self.targets[r as usize].powi(2)).sum();
        let n = rows.len() as f64;
        let parent_sse = total_sq - total_sum * total_sum / n;

        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sse)
        for &feature in &candidates {
            let base = feature * self.n_rows;
            let column = &self.columns[base + lo..base + hi];
            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            for split_at in 1..column.len() {
                let prev = column[split_at - 1];
                left_sum += self.targets[prev.row as usize];
                left_sq += self.targets[prev.row as usize].powi(2);

                let prev_val = prev.value;
                let cur_val = column[split_at].value;
                if prev_val == cur_val {
                    continue; // cannot split between identical values
                }
                let left_n = split_at as f64;
                let right_n = n - left_n;
                if (split_at < self.config.min_samples_leaf)
                    || ((column.len() - split_at) < self.config.min_samples_leaf)
                {
                    continue;
                }
                let right_sum = total_sum - left_sum;
                let right_sq = total_sq - left_sq;
                let sse = (left_sq - left_sum * left_sum / left_n)
                    + (right_sq - right_sum * right_sum / right_n);
                if best.is_none_or(|(_, _, b)| sse < b) {
                    best = Some((feature, (prev_val + cur_val) / 2.0, sse));
                }
            }
        }
        match best {
            Some((feature, threshold, sse)) if sse < parent_sse - 1e-12 => {
                Some((feature, threshold))
            }
            _ => None,
        }
    }
}

impl DecisionTree {
    /// Fits a tree on the dataset's own labels.
    pub fn fit(data: &Dataset, config: &TreeConfig, seed: u64) -> Self {
        Self::fit_with_targets(data, data.labels(), config, seed)
    }

    /// Fits a tree predicting arbitrary `targets` (one per dataset row).
    /// Sorts the dataset's columns for this one fit; see the module docs
    /// for the cost model.
    ///
    /// # Panics
    ///
    /// Panics if `targets.len()` differs from the number of rows.
    pub fn fit_with_targets(
        data: &Dataset,
        targets: &[f64],
        config: &TreeConfig,
        seed: u64,
    ) -> Self {
        Self::fit_sorted(data, &mut SortedColumns::new(data), targets, config, seed).0
    }

    /// [`DecisionTree::fit_with_targets`] on columns already sorted for
    /// `data`, the entry point gradient boosting uses to fit each round's
    /// pseudo-residuals. Also returns the id of the leaf each row landed in.
    ///
    /// # Panics
    ///
    /// Panics if `targets.len()` differs from the number of rows.
    pub(crate) fn fit_sorted(
        data: &Dataset,
        columns: &mut SortedColumns,
        targets: &[f64],
        config: &TreeConfig,
        seed: u64,
    ) -> (Self, Vec<usize>) {
        assert_eq!(targets.len(), data.len(), "one target per row is required");
        assert_eq!(columns.n_rows, data.len(), "columns were sorted for another dataset");
        let n_rows = data.len();
        columns.work.clear();
        columns.work.extend_from_slice(&columns.sorted);
        let mut builder = Builder {
            targets,
            config,
            rng: Pcg64::seed_from_u64(seed),
            next_leaf_id: 0,
            n_rows,
            n_features: data.n_features(),
            // `SortedColumns::new` checked that every row index fits a u32.
            order: (0..n_rows as u32).collect(),
            columns: &mut columns.work,
            goes_left: vec![false; n_rows],
            order_scratch: Vec::with_capacity(n_rows),
            column_scratch: Vec::with_capacity(n_rows),
            leaf_of_row: vec![0; n_rows],
        };
        let root = builder.build(0, n_rows, 0);
        let tree =
            DecisionTree { root, n_features: data.n_features(), n_leaves: builder.next_leaf_id };
        (tree, builder.leaf_of_row)
    }

    /// Predicts the value for a feature vector.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the training feature count.
    pub fn predict(&self, features: &[f64]) -> f64 {
        assert_eq!(features.len(), self.n_features, "feature count mismatch");
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { value, .. } => return *value,
                Node::Split { feature, threshold, left, right } => {
                    node = if features[*feature] <= *threshold { left } else { right };
                }
            }
        }
    }

    /// Returns the id of the leaf a feature vector falls into.
    pub fn leaf_id(&self, features: &[f64]) -> usize {
        assert_eq!(features.len(), self.n_features, "feature count mismatch");
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { id, .. } => return *id,
                Node::Split { feature, threshold, left, right } => {
                    node = if features[*feature] <= *threshold { left } else { right };
                }
            }
        }
    }

    /// Replaces each leaf value with `f(leaf_id, current_value)`.
    /// Gradient-boosted quantile regression uses this to set leaves to
    /// per-leaf residual quantiles rather than means.
    pub fn adjust_leaves<F>(&mut self, mut f: F)
    where
        F: FnMut(usize, f64) -> f64,
    {
        fn walk<F: FnMut(usize, f64) -> f64>(node: &mut Node, f: &mut F) {
            match node {
                Node::Leaf { id, value, .. } => *value = f(*id, *value),
                Node::Split { left, right, .. } => {
                    walk(left, f);
                    walk(right, f);
                }
            }
        }
        walk(&mut self.root, &mut f);
    }

    /// Every leaf's value, indexed by leaf id.
    pub(crate) fn leaf_values(&self) -> Vec<f64> {
        fn walk(node: &Node, values: &mut [f64]) {
            match node {
                Node::Leaf { id, value, .. } => values[*id] = *value,
                Node::Split { left, right, .. } => {
                    walk(left, values);
                    walk(right, values);
                }
            }
        }
        let mut values = vec![0.0; self.n_leaves];
        walk(&self.root, &mut values);
        values
    }

    /// Number of leaves in the tree.
    pub fn n_leaves(&self) -> usize {
        self.n_leaves
    }

    /// Number of features the tree was trained on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Depth of the tree (a single leaf has depth 0).
    pub fn depth(&self) -> usize {
        fn depth(node: &Node) -> usize {
            match node {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + depth(left).max(depth(right)),
            }
        }
        depth(&self.root)
    }

    /// Per-feature split counts, a crude importance measure.
    pub fn feature_split_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_features];
        fn walk(node: &Node, counts: &mut [usize]) {
            if let Node::Split { feature, left, right, .. } = node {
                counts[*feature] += 1;
                walk(left, counts);
                walk(right, counts);
            }
        }
        walk(&self.root, &mut counts);
        counts
    }
}

/// The per-node-sort builder the presorted one replaced, kept verbatim as
/// the reference the proptests compare against: every node copies its rows
/// and re-sorts them once per candidate feature.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use rand::Rng;

    struct Builder<'a> {
        rows: &'a [Vec<f64>],
        targets: &'a [f64],
        config: &'a TreeConfig,
        rng: Pcg64,
        next_leaf_id: usize,
    }

    impl<'a> Builder<'a> {
        fn leaf(&mut self, indices: &[usize]) -> Node {
            let value = if indices.is_empty() {
                0.0
            } else {
                indices.iter().map(|&i| self.targets[i]).sum::<f64>() / indices.len() as f64
            };
            let id = self.next_leaf_id;
            self.next_leaf_id += 1;
            Node::Leaf { id, value, samples: indices.len() }
        }

        fn build(&mut self, indices: &mut [usize], depth: usize) -> Node {
            if depth >= self.config.max_depth
                || indices.len() < self.config.min_samples_split
                || indices.len() < 2 * self.config.min_samples_leaf
            {
                return self.leaf(indices);
            }
            match self.best_split(indices) {
                None => self.leaf(indices),
                Some((feature, threshold)) => {
                    let (mut left, mut right): (Vec<usize>, Vec<usize>) =
                        indices.iter().partition(|&&i| self.rows[i][feature] <= threshold);
                    if left.len() < self.config.min_samples_leaf
                        || right.len() < self.config.min_samples_leaf
                    {
                        return self.leaf(indices);
                    }
                    let left_node = self.build(&mut left, depth + 1);
                    let right_node = self.build(&mut right, depth + 1);
                    Node::Split {
                        feature,
                        threshold,
                        left: Box::new(left_node),
                        right: Box::new(right_node),
                    }
                }
            }
        }

        /// Finds the (feature, threshold) pair with the greatest reduction in the
        /// sum of squared errors, or `None` when no split improves on the parent.
        fn best_split(&mut self, indices: &[usize]) -> Option<(usize, f64)> {
            let n_features = self.rows[indices[0]].len();
            let mut candidates: Vec<usize> = (0..n_features).collect();
            if let Some(k) = self.config.max_features {
                candidates.shuffle(&mut self.rng);
                candidates.truncate(k.max(1).min(n_features));
            }

            let total_sum: f64 = indices.iter().map(|&i| self.targets[i]).sum();
            let total_sq: f64 = indices.iter().map(|&i| self.targets[i].powi(2)).sum();
            let n = indices.len() as f64;
            let parent_sse = total_sq - total_sum * total_sum / n;

            let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sse)
            for &feature in &candidates {
                let mut order: Vec<usize> = indices.to_vec();
                order.sort_by(|&a, &b| {
                    self.rows[a][feature]
                        .partial_cmp(&self.rows[b][feature])
                        .unwrap_or(std::cmp::Ordering::Equal)
                });

                let mut left_sum = 0.0;
                let mut left_sq = 0.0;
                for split_at in 1..order.len() {
                    let prev = order[split_at - 1];
                    left_sum += self.targets[prev];
                    left_sq += self.targets[prev].powi(2);

                    let prev_val = self.rows[prev][feature];
                    let cur_val = self.rows[order[split_at]][feature];
                    if prev_val == cur_val {
                        continue; // cannot split between identical values
                    }
                    let left_n = split_at as f64;
                    let right_n = n - left_n;
                    if (split_at < self.config.min_samples_leaf)
                        || ((order.len() - split_at) < self.config.min_samples_leaf)
                    {
                        continue;
                    }
                    let right_sum = total_sum - left_sum;
                    let right_sq = total_sq - left_sq;
                    let sse = (left_sq - left_sum * left_sum / left_n)
                        + (right_sq - right_sum * right_sum / right_n);
                    if best.is_none_or(|(_, _, b)| sse < b) {
                        best = Some((feature, (prev_val + cur_val) / 2.0, sse));
                    }
                }
            }
            match best {
                Some((feature, threshold, sse)) if sse < parent_sse - 1e-12 => {
                    Some((feature, threshold))
                }
                _ => None,
            }
        }
    }

    /// The reference `DecisionTree::fit_with_targets`.
    pub(crate) fn fit_with_targets(
        data: &Dataset,
        targets: &[f64],
        config: &TreeConfig,
        seed: u64,
    ) -> DecisionTree {
        assert_eq!(targets.len(), data.len(), "one target per row is required");
        let mut builder = Builder {
            rows: data.rows(),
            targets,
            config,
            rng: Pcg64::seed_from_u64(seed),
            next_leaf_id: 0,
        };
        let mut indices: Vec<usize> = (0..data.len()).collect();
        let root = if indices.is_empty() {
            builder.leaf(&indices)
        } else {
            builder.build(&mut indices, 0)
        };
        DecisionTree { root, n_features: data.n_features(), n_leaves: builder.next_leaf_id }
    }

    /// A random dataset built to stress split ties. Each feature takes one
    /// of `levels` values: small integers (zero as either `0.0` or `-0.0`)
    /// or, in about half the columns, adjacent floats above 1.0, whose
    /// split midpoints round onto one of the two values. With `duplicates`
    /// the second half of the rows repeats earlier rows under fresh labels.
    pub(crate) fn tied_dataset(
        seed: u64,
        n_rows: usize,
        n_features: usize,
        levels: u32,
        duplicates: bool,
    ) -> Dataset {
        let mut rng = Pcg64::seed_from_u64(seed);
        let adjacent: Vec<bool> = (0..n_features).map(|_| rng.gen_bool(0.5)).collect();
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n_rows);
        for i in 0..n_rows {
            let row = if duplicates && i >= n_rows.div_ceil(2) {
                rows[rng.gen_range(0..i)].clone()
            } else {
                (0..n_features)
                    .map(|f| {
                        let level = rng.gen_range(0..levels);
                        if adjacent[f] {
                            f64::from_bits(1.0f64.to_bits() + u64::from(level))
                        } else if level == 0 && rng.gen_bool(0.5) {
                            -0.0
                        } else {
                            f64::from(level)
                        }
                    })
                    .collect()
            };
            rows.push(row);
        }
        let labels = (0..n_rows).map(|_| f64::from(rng.gen_range(0..5u32))).collect();
        let names = (0..n_features).map(|f| format!("f{f}")).collect();
        Dataset::new(names, rows, labels).expect("generated rows are finite and well formed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn step_dataset(n: usize) -> Dataset {
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64, 1.0]).collect();
        let labels: Vec<f64> = (0..n).map(|i| if i < n / 2 { 0.0 } else { 1.0 }).collect();
        Dataset::new(vec!["x".into(), "bias".into()], rows, labels).unwrap()
    }

    #[test]
    fn learns_a_step_function() {
        let data = step_dataset(100);
        let tree = DecisionTree::fit(&data, &TreeConfig::default(), 0);
        assert!(tree.predict(&[5.0, 1.0]) < 0.1);
        assert!(tree.predict(&[95.0, 1.0]) > 0.9);
        assert!(tree.depth() >= 1);
        assert!(tree.n_leaves() >= 2);
    }

    #[test]
    fn constant_labels_yield_a_single_leaf() {
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let labels = vec![3.5; 20];
        let data = Dataset::new(vec!["x".into()], rows, labels).unwrap();
        let tree = DecisionTree::fit(&data, &TreeConfig::default(), 0);
        assert_eq!(tree.depth(), 0);
        assert_eq!(tree.n_leaves(), 1);
        assert_eq!(tree.predict(&[100.0]), 3.5);
    }

    #[test]
    fn max_depth_zero_predicts_the_mean() {
        let data = step_dataset(10);
        let tree = DecisionTree::fit(&data, &TreeConfig { max_depth: 0, ..Default::default() }, 0);
        assert!((tree.predict(&[0.0, 1.0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn min_samples_leaf_is_respected() {
        let data = step_dataset(10);
        let tree =
            DecisionTree::fit(&data, &TreeConfig { min_samples_leaf: 6, ..Default::default() }, 0);
        // A split would require two children of >= 6 samples out of 10 — impossible.
        assert_eq!(tree.depth(), 0);
    }

    #[test]
    fn fit_with_targets_overrides_labels() {
        let data = step_dataset(40);
        let targets: Vec<f64> = (0..40).map(|i| i as f64 * 2.0).collect();
        let tree = DecisionTree::fit_with_targets(&data, &targets, &TreeConfig::default(), 0);
        let lo = tree.predict(&[2.0, 1.0]);
        let hi = tree.predict(&[38.0, 1.0]);
        assert!(hi > lo + 10.0);
    }

    #[test]
    fn leaf_ids_are_stable_and_adjustable() {
        let data = step_dataset(100);
        let mut tree = DecisionTree::fit(&data, &TreeConfig::default(), 0);
        let id_low = tree.leaf_id(&[1.0, 1.0]);
        let id_high = tree.leaf_id(&[99.0, 1.0]);
        assert_ne!(id_low, id_high);
        tree.adjust_leaves(|id, v| if id == id_low { -5.0 } else { v });
        assert_eq!(tree.predict(&[1.0, 1.0]), -5.0);
        assert!(tree.predict(&[99.0, 1.0]) > 0.9);
    }

    #[test]
    fn feature_split_counts_identify_the_informative_feature() {
        let data = step_dataset(100);
        let tree = DecisionTree::fit(&data, &TreeConfig::default(), 0);
        let counts = tree.feature_split_counts();
        assert!(counts[0] >= 1, "feature 0 is informative: {counts:?}");
        assert_eq!(counts[1], 0, "constant bias feature should never be split on");
    }

    #[test]
    fn feature_subsampling_still_produces_a_tree() {
        let data = step_dataset(60);
        let tree = DecisionTree::fit(
            &data,
            &TreeConfig { max_features: Some(1), ..Default::default() },
            3,
        );
        assert_eq!(tree.n_features(), 2);
        // The tree may occasionally pick the useless feature at the root, but
        // prediction must still work.
        let _ = tree.predict(&[10.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "feature count mismatch")]
    fn predict_rejects_wrong_arity() {
        let data = step_dataset(10);
        let tree = DecisionTree::fit(&data, &TreeConfig::default(), 0);
        let _ = tree.predict(&[1.0]);
    }

    #[test]
    fn fit_sorted_reports_the_leaf_each_row_lands_in() {
        let data = reference::tied_dataset(11, 200, 3, 6, true);
        let config = TreeConfig { max_depth: 5, min_samples_leaf: 3, ..Default::default() };
        let (tree, leaf_of_row) = DecisionTree::fit_sorted(
            &data,
            &mut SortedColumns::new(&data),
            data.labels(),
            &config,
            4,
        );
        assert!(tree.n_leaves() > 1);
        let values = tree.leaf_values();
        for (i, &leaf) in leaf_of_row.iter().enumerate() {
            assert_eq!(leaf, tree.leaf_id(data.row(i)));
            assert_eq!(values[leaf], tree.predict(data.row(i)));
        }
    }

    proptest! {
        /// The presorted builder grows exactly the tree the per-node-sort
        /// reference grows: same splits, thresholds, leaf values and ids,
        /// and the same `max_features` draws, on tie-heavy data with
        /// duplicate rows.
        #[test]
        fn presorted_builder_matches_the_reference(
            (data_seed, n_rows, n_features, levels) in (0u64..u64::MAX, 1usize..120, 1usize..6, 1u32..8),
            (duplicates, real_targets, tree_seed) in (proptest::bool::ANY, proptest::bool::ANY, 0u64..1000),
            (max_depth, min_samples_leaf, min_samples_split, max_features) in
                (1usize..=10, 1usize..=8, 0usize..12, 0usize..=5)
        ) {
            let data = reference::tied_dataset(data_seed, n_rows, n_features, levels, duplicates);
            let targets: Vec<f64> = if real_targets {
                let mut rng = Pcg64::seed_from_u64(data_seed ^ 0x5EED);
                (0..n_rows).map(|_| rand::Rng::gen_range(&mut rng, -10.0..10.0)).collect()
            } else {
                data.labels().to_vec()
            };
            let config = TreeConfig {
                max_depth,
                min_samples_split,
                min_samples_leaf,
                max_features: (max_features > 0).then(|| (max_features - 1) % n_features + 1),
            };
            let tree = DecisionTree::fit_with_targets(&data, &targets, &config, tree_seed);
            let oracle = reference::fit_with_targets(&data, &targets, &config, tree_seed);
            prop_assert_eq!(tree, oracle);
        }

        /// The tree's predictions on its own training points achieve an MSE
        /// no worse than predicting the mean (it can only refine the mean).
        #[test]
        fn never_worse_than_the_mean(labels in proptest::collection::vec(-10.0f64..10.0, 10..60)) {
            let rows: Vec<Vec<f64>> = (0..labels.len()).map(|i| vec![i as f64]).collect();
            let data = Dataset::new(vec!["x".into()], rows, labels.clone()).unwrap();
            let tree = DecisionTree::fit(&data, &TreeConfig::default(), 0);
            let mean = data.label_mean();
            let mse_tree: f64 = (0..data.len())
                .map(|i| (tree.predict(data.row(i)) - data.label(i)).powi(2))
                .sum::<f64>() / data.len() as f64;
            let mse_mean: f64 = labels.iter().map(|y| (y - mean).powi(2)).sum::<f64>() / labels.len() as f64;
            prop_assert!(mse_tree <= mse_mean + 1e-9);
        }

        /// Deeper trees never increase training error.
        #[test]
        fn deeper_is_no_worse_on_training_data(seed in 0u64..50) {
            let n = 64usize;
            let mut rng_vals: Vec<f64> = Vec::with_capacity(n);
            let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            for _ in 0..n {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                rng_vals.push(((state >> 33) as f64) / (u32::MAX as f64) * 10.0);
            }
            let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64]).collect();
            let data = Dataset::new(vec!["x".into()], rows, rng_vals).unwrap();
            let shallow = DecisionTree::fit(&data, &TreeConfig { max_depth: 2, ..Default::default() }, 0);
            let deep = DecisionTree::fit(&data, &TreeConfig { max_depth: 6, ..Default::default() }, 0);
            let mse = |t: &DecisionTree| -> f64 {
                (0..data.len()).map(|i| (t.predict(data.row(i)) - data.label(i)).powi(2)).sum::<f64>() / data.len() as f64
            };
            prop_assert!(mse(&deep) <= mse(&shallow) + 1e-9);
        }
    }
}
