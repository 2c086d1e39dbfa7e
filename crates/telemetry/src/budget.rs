//! Label-cardinality budgeting for fleet-scale deployments.
//!
//! Per-item labels (`stub="128.3.0.0/16"`) are the right granularity for
//! a handful of agents and a cardinality bomb for ten thousand: every
//! labelled series multiplies by the item count, scrapes balloon, and the
//! registry's linear name+label lookup degrades. A [`LabelBudget`] makes
//! the trade explicit: below the budget every item keeps its own label
//! set; above it, items are folded into contiguous *groups* (per-region
//! rollup series), and only a bounded [`TopK`] of the most interesting
//! items is ever published with an item-granular label.
//!
//! The mapping is pure arithmetic ([`LabelMode::group_of`]), so any two
//! components that share a budget agree on which group an item lands in
//! without coordination.

/// How many label sets a deployment is willing to register per series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabelBudget {
    /// Maximum distinct label sets per series; above this the mode
    /// switches from per-item to grouped rollup.
    pub max_sets: usize,
    /// How many individual items may still get item-granular series
    /// (e.g. the top-K alarmed stubs) once the rollup mode is active.
    pub top_k: usize,
}

impl Default for LabelBudget {
    /// 64 label sets, 8 spotlighted items — small enough that a scrape
    /// of a 10k-agent fleet stays dashboard-sized.
    fn default() -> Self {
        LabelBudget {
            max_sets: 64,
            top_k: 8,
        }
    }
}

impl LabelBudget {
    /// A budget of `max_sets` label sets with the default top-K of 8.
    pub fn new(max_sets: usize) -> Self {
        LabelBudget {
            max_sets: max_sets.max(1),
            ..LabelBudget::default()
        }
    }

    /// The labelling mode for a population of `items`: per-item while it
    /// fits, grouped rollup (one label set per group) once it does not.
    pub fn mode(&self, items: usize) -> LabelMode {
        if items <= self.max_sets {
            LabelMode::PerItem
        } else {
            LabelMode::Grouped {
                items,
                groups: self.max_sets.max(1),
            }
        }
    }
}

/// The labelling granularity a [`LabelBudget`] resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelMode {
    /// Every item registers under its own label set.
    PerItem,
    /// Items share `groups` rollup label sets, assigned by contiguous
    /// index blocks.
    Grouped {
        /// Population size the grouping was computed for.
        items: usize,
        /// Number of rollup groups (label sets) in use.
        groups: usize,
    },
}

impl LabelMode {
    /// The group index `item` belongs to (`None` in per-item mode).
    /// Contiguous blocks: item `i` of `n` lands in `i·groups / n`, so
    /// groups differ in size by at most one and the mapping is stable
    /// under any processing order.
    pub fn group_of(&self, item: usize) -> Option<usize> {
        match *self {
            LabelMode::PerItem => None,
            LabelMode::Grouped { items, groups } => {
                debug_assert!(item < items, "item {item} outside population {items}");
                Some((item * groups) / items.max(1))
            }
        }
    }
}

/// A bounded tracker of the `k` highest-scoring items, deterministic
/// under insertion order: ties break toward the smaller index, so a
/// fleet fold produces the same spotlight set at any worker count
/// (provided items are offered in index order, which the fleet's fold
/// path guarantees).
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    /// `(score, index)` pairs, kept sorted best-first.
    entries: Vec<(f64, usize)>,
}

impl TopK {
    /// A tracker keeping the `k` best items.
    pub fn new(k: usize) -> Self {
        TopK {
            k,
            entries: Vec::with_capacity(k.min(64)),
        }
    }

    /// Offers one `(index, score)` pair; keeps it only if it ranks in the
    /// current top `k`. Higher scores win; equal scores prefer the
    /// smaller index.
    pub fn offer(&mut self, index: usize, score: f64) {
        if self.k == 0 || !score.is_finite() {
            return;
        }
        let rank = self
            .entries
            .partition_point(|&(s, i)| s > score || (s == score && i < index));
        if rank >= self.k {
            return;
        }
        self.entries.insert(rank, (score, index));
        self.entries.truncate(self.k);
    }

    /// The retained `(index, score)` pairs, best first.
    pub fn items(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.entries.iter().map(|&(score, index)| (index, score))
    }

    /// How many items are currently retained.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has ranked yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_switches_to_grouped_above_max_sets() {
        let budget = LabelBudget::new(4);
        assert_eq!(budget.mode(4), LabelMode::PerItem);
        assert_eq!(
            budget.mode(10),
            LabelMode::Grouped {
                items: 10,
                groups: 4
            }
        );
        assert_eq!(budget.mode(3), LabelMode::PerItem);
    }

    #[test]
    fn grouping_is_contiguous_and_covers_every_group() {
        let mode = LabelBudget::new(4).mode(10);
        let groups: Vec<usize> = (0..10).map(|i| mode.group_of(i).unwrap()).collect();
        assert_eq!(groups, vec![0, 0, 0, 1, 1, 2, 2, 2, 3, 3]);
        // Monotone: contiguous index blocks map to contiguous groups.
        assert!(groups.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn per_item_mode_assigns_no_group() {
        assert_eq!(LabelBudget::default().mode(8).group_of(3), None);
    }

    #[test]
    fn top_k_keeps_best_scores_with_stable_ties() {
        let mut top = TopK::new(3);
        for (i, score) in [(5, 1.0), (1, 9.0), (2, 4.0), (3, 9.0), (4, 0.5)] {
            top.offer(i, score);
        }
        let items: Vec<(usize, f64)> = top.items().collect();
        // 9.0 ties: index 1 before index 3; 4.0 fills the last slot.
        assert_eq!(items, vec![(1, 9.0), (3, 9.0), (2, 4.0)]);
        assert_eq!(top.len(), 3);
        assert!(!top.is_empty());
        // A non-ranking offer changes nothing.
        top.offer(9, 0.1);
        assert_eq!(top.items().collect::<Vec<_>>(), items);
    }

    #[test]
    fn top_k_zero_and_nan_are_ignored() {
        let mut top = TopK::new(0);
        top.offer(0, 5.0);
        assert!(top.is_empty());
        let mut top = TopK::new(2);
        top.offer(0, f64::NAN);
        assert!(top.is_empty());
    }
}
