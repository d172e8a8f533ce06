//! The m-ary promotion tree (paper §4.3.1).
//!
//! Leaves are the chunks of one data object carrying their Eq. 3
//! classification (1 = sampled critical). Each internal node's value is the
//! sum of its children; its *tree ratio* (TR) is `value / descendant leaf
//! count` — the density of critical chunks in the address span the node
//! covers. The arity `m` controls both the span granularity and the set of
//! distinguishable TR values (a quad-tree has more thresholds than a binary
//! tree).
//!
//! The tree is stored implicitly: level by level, each level `ceil(len/m)`
//! of the one below. Padding leaves (beyond the real chunk count) count
//! toward neither value nor leaf count.

/// An m-ary tree over the chunk classification of one data object.
#[derive(Debug, Clone, PartialEq)]
pub struct MaryTree {
    arity: usize,
    /// `levels[0]` = leaves, `levels.last()` = root level (length 1).
    /// Each node stores `(critical_sum, real_leaf_count)`.
    levels: Vec<Vec<(u32, u32)>>,
}

/// Identifies a node: level index (0 = leaves) and position within level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId {
    /// Level, 0 for leaves.
    pub level: usize,
    /// Index within the level.
    pub index: usize,
}

impl MaryTree {
    /// Builds the tree bottom-up from leaf criticality.
    ///
    /// # Panics
    ///
    /// Panics if `arity < 2` or `leaves` is empty.
    pub fn build(leaves: &[bool], arity: usize) -> Self {
        assert!(arity >= 2, "tree arity must be at least 2");
        assert!(!leaves.is_empty(), "tree needs at least one leaf");
        let mut levels: Vec<Vec<(u32, u32)>> = Vec::new();
        levels.push(leaves.iter().map(|&c| (c as u32, 1)).collect());
        while levels.last().expect("non-empty").len() > 1 {
            let below = levels.last().expect("non-empty");
            let next: Vec<(u32, u32)> = below
                .chunks(arity)
                .map(|group| {
                    group
                        .iter()
                        .fold((0, 0), |acc, &(v, l)| (acc.0 + v, acc.1 + l))
                })
                .collect();
            levels.push(next);
        }
        MaryTree { arity, levels }
    }

    /// Number of real leaves (chunks).
    pub fn leaf_count(&self) -> usize {
        self.levels[0].len()
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        NodeId {
            level: self.levels.len() - 1,
            index: 0,
        }
    }

    /// Sum of critical leaves under `node`.
    pub fn value(&self, node: NodeId) -> u32 {
        self.levels[node.level][node.index].0
    }

    /// Number of real leaves under `node`.
    pub fn leaves_under(&self, node: NodeId) -> u32 {
        self.levels[node.level][node.index].1
    }

    /// Tree ratio of `node`: critical density in `[0, 1]`.
    pub fn tree_ratio(&self, node: NodeId) -> f64 {
        let (v, l) = self.levels[node.level][node.index];
        if l == 0 {
            0.0
        } else {
            v as f64 / l as f64
        }
    }

    /// The children of `node` (empty for leaves).
    pub fn children(&self, node: NodeId) -> Vec<NodeId> {
        if node.level == 0 {
            return Vec::new();
        }
        let below = node.level - 1;
        let start = node.index * self.arity;
        let end = (start + self.arity).min(self.levels[below].len());
        (start..end)
            .map(|index| NodeId {
                level: below,
                index,
            })
            .collect()
    }

    /// Index range `[start, end)` of the real leaves under `node`.
    pub fn leaf_range(&self, node: NodeId) -> (usize, usize) {
        let span = self.arity.pow(node.level as u32);
        let start = node.index * span;
        let end = (start + span).min(self.leaf_count());
        (start, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_leaf_tree() {
        let t = MaryTree::build(&[true], 4);
        assert_eq!(t.root(), NodeId { level: 0, index: 0 });
        assert_eq!(t.tree_ratio(t.root()), 1.0);
        assert!(t.children(t.root()).is_empty());
    }

    #[test]
    fn figure3_example_tree_ratios() {
        // Paper Figure 3: eight chunks, a binary-ish example; we use m=2 and
        // leaves [1,1,1,0, 0,0,0,0] — the left half has TR 3/4.
        let leaves = [true, true, true, false, false, false, false, false];
        let t = MaryTree::build(&leaves, 2);
        let root = t.root();
        assert_eq!(root.level, 3);
        assert_eq!(t.value(root), 3);
        assert_eq!(t.leaves_under(root), 8);
        assert!((t.tree_ratio(root) - 3.0 / 8.0).abs() < 1e-12);
        let kids = t.children(root);
        assert_eq!(kids.len(), 2);
        assert!((t.tree_ratio(kids[0]) - 0.75).abs() < 1e-12);
        assert_eq!(t.tree_ratio(kids[1]), 0.0);
    }

    #[test]
    fn padding_leaves_do_not_dilute_ratios() {
        // Five leaves under a quad tree: the second internal node covers
        // only one real leaf.
        let leaves = [false, false, false, false, true];
        let t = MaryTree::build(&leaves, 4);
        let root = t.root();
        let kids = t.children(root);
        assert_eq!(kids.len(), 2);
        assert_eq!(t.leaves_under(kids[1]), 1);
        assert_eq!(t.tree_ratio(kids[1]), 1.0, "one real critical leaf = TR 1");
    }

    #[test]
    fn leaf_ranges_partition_leaves() {
        let leaves = vec![false; 23];
        let t = MaryTree::build(&leaves, 3);
        // The children of the root partition [0, 23).
        let mut covered = 0;
        for child in t.children(t.root()) {
            let (s, e) = t.leaf_range(child);
            assert_eq!(s, covered);
            covered = e;
        }
        assert_eq!(covered, 23);
    }

    #[test]
    fn root_ratio_is_global_density() {
        let leaves: Vec<bool> = (0..100).map(|i| i % 4 == 0).collect();
        let t = MaryTree::build(&leaves, 4);
        assert!((t.tree_ratio(t.root()) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn values_sum_up_the_levels() {
        let leaves: Vec<bool> = (0..64).map(|i| i < 16).collect();
        let t = MaryTree::build(&leaves, 4);
        let root = t.root();
        let child_sum: u32 = t.children(root).iter().map(|&c| t.value(c)).sum();
        assert_eq!(child_sum, t.value(root));
        assert_eq!(t.value(root), 16);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn unary_tree_rejected() {
        let _ = MaryTree::build(&[true], 1);
    }
}
