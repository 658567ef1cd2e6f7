//! The max-subpattern tree (paper §4, Algorithm 4.1).
//!
//! The tree stores the multiset of max-subpatterns hit during the second
//! scan. The root is the candidate max-pattern `C_max`; every other node is
//! a subpattern of its parent with exactly one more letter *missing*. Nodes
//! are addressed by their sorted missing-letter list: the canonical parent
//! of a node drops all but the largest missing letter, so the structure is
//! a set-trie and insertion of a hit pattern walks (and lazily creates) the
//! path of its missing letters in ascending order — exactly the ordered
//! traversal the paper describes, including interior nodes created with
//! count 0.
//!
//! Nodes live in an arena (`Vec`) and refer to each other by index: no
//! boxes, no reference counting, no unsafe. A node holds its pattern, its
//! count and its child links, nothing else: the derive counts from the
//! nodes with count > 0 ([`MaxSubpatternTree::hits`]), laid out as a
//! bitmap index (see [`crate::hitset::derive`]).

use crate::letters::LetterSet;

/// Arena index of a tree node.
type NodeId = u32;

#[derive(Debug, Clone)]
struct Node {
    /// The pattern this node represents (a subpattern of `C_max`).
    pattern: LetterSet,
    /// Number of segments whose hit was exactly this pattern.
    count: u64,
    /// Child links `(dropped letter, node)`, sorted by letter. The child's
    /// missing list is the parent's plus that letter, and the letter is
    /// larger than every letter already missing on the path.
    children: Vec<(u32, NodeId)>,
}

/// The max-subpattern tree of Algorithm 4.1.
#[derive(Debug, Clone)]
pub struct MaxSubpatternTree {
    nodes: Vec<Node>,
    /// Every count inserted: the number of contributing segments.
    total: u64,
}

impl MaxSubpatternTree {
    /// Creates a tree rooted at the candidate max-pattern `c_max`.
    pub fn new(c_max: LetterSet) -> Self {
        MaxSubpatternTree {
            nodes: vec![Node {
                pattern: c_max,
                count: 0,
                children: Vec::new(),
            }],
            total: 0,
        }
    }

    /// The root pattern `C_max`.
    pub fn c_max(&self) -> &LetterSet {
        &self.nodes[0].pattern
    }

    /// Registers one hit of `hit` (Algorithm 4.1): walks the missing-letter
    /// path from the root, creating absent nodes with count 0, then
    /// increments the final node's count.
    ///
    /// # Panics
    /// Panics (debug) if `hit` is not a subpattern of `C_max` or has fewer
    /// than 2 letters — the mining layer only stores multi-letter hits;
    /// 1-letter counts come from scan 1.
    pub fn insert(&mut self, hit: &LetterSet) {
        self.insert_with_count(hit, 1);
    }

    /// Registers `count` hits of `hit` at once. Used by shared mining and
    /// by tests that reconstruct published trees node by node (`count` may
    /// be 0 to force creation of an interior node).
    pub fn insert_with_count(&mut self, hit: &LetterSet, count: u64) {
        debug_assert!(
            hit.is_subset(self.c_max()),
            "hit must be a subpattern of C_max"
        );
        debug_assert!(
            hit.len() >= 2,
            "hits with < 2 letters are not stored in the tree"
        );
        let missing = self.c_max().difference(hit);
        let mut cur: NodeId = 0;
        for letter in missing.iter() {
            let letter = letter as u32;
            cur = match self.nodes[cur as usize]
                .children
                .binary_search_by_key(&letter, |&(l, _)| l)
            {
                Ok(pos) => self.nodes[cur as usize].children[pos].1,
                Err(pos) => {
                    let mut pattern = self.nodes[cur as usize].pattern.clone();
                    pattern.remove(letter as usize);
                    let id = self.nodes.len() as NodeId;
                    self.nodes.push(Node {
                        pattern,
                        count: 0,
                        children: Vec::new(),
                    });
                    self.nodes[cur as usize].children.insert(pos, (letter, id));
                    id
                }
            };
        }
        self.nodes[cur as usize].count += count;
        self.total += count;
    }

    /// Total nodes, including 0-count interior nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The distinct hit patterns and their counts: every node with
    /// count > 0, in arena order.
    pub fn hits(&self) -> impl Iterator<Item = (&LetterSet, u64)> {
        self.nodes
            .iter()
            .filter(|n| n.count > 0)
            .map(|n| (&n.pattern, n.count))
    }

    /// Number of distinct hit patterns (nodes with count > 0).
    pub fn distinct_hits(&self) -> usize {
        self.hits().count()
    }

    /// Total hits registered (the number of contributing segments).
    pub fn total_hits(&self) -> u64 {
        self.total
    }

    /// The stored count of exactly the pattern `set`, if a node for it
    /// exists (0-count interior nodes report `Some(0)`).
    pub fn count_at(&self, set: &LetterSet) -> Option<u64> {
        let missing = self.c_max().difference(set);
        if !set.is_subset(self.c_max()) {
            return None;
        }
        let mut cur: NodeId = 0;
        for letter in missing.iter() {
            let letter = letter as u32;
            match self.nodes[cur as usize]
                .children
                .binary_search_by_key(&letter, |&(l, _)| l)
            {
                Ok(pos) => cur = self.nodes[cur as usize].children[pos].1,
                Err(_) => return None,
            }
        }
        Some(self.nodes[cur as usize].count)
    }

    /// The frequency count of a candidate pattern `p`: the sum of the
    /// counts of all stored hits that are superpatterns of `p`
    /// (linear-scan strategy — one bitset subset test per distinct hit).
    pub fn count_superpatterns_linear(&self, p: &LetterSet) -> u64 {
        self.hits()
            .filter(|(hit, _)| p.is_subset(hit))
            .map(|(_, count)| count)
            .sum()
    }

    /// The frequency count of a candidate pattern `p`, computed by walking
    /// the trie (the paper's reachable-ancestor traversal, generalized to
    /// arbitrary candidates): a branch reached by dropping a letter of `p`
    /// can contain no superpattern of `p` and is pruned wholesale.
    pub fn count_superpatterns_walk(&self, p: &LetterSet) -> u64 {
        let mut total = 0u64;
        let mut stack: Vec<NodeId> = vec![0];
        while let Some(id) = stack.pop() {
            let node = &self.nodes[id as usize];
            // Invariant: every node on the stack misses no letter of `p`,
            // i.e. its pattern is a superpattern of `p`.
            total += node.count;
            for &(letter, child) in &node.children {
                if !p.contains(letter as usize) {
                    stack.push(child);
                }
            }
        }
        total
    }

    /// The *reachable ancestors* of the node for `set` (paper §4, Example
    /// 4.2): every existing node whose pattern is a proper superpattern,
    /// i.e. whose missing list is a proper subset of `set`'s. Returns
    /// `(pattern, count)` pairs; the node itself is excluded.
    pub fn reachable_ancestors(&self, set: &LetterSet) -> Vec<(&LetterSet, u64)> {
        let mut out = Vec::new();
        let mut stack: Vec<NodeId> = vec![0];
        while let Some(id) = stack.pop() {
            let node = &self.nodes[id as usize];
            if node.pattern != *set {
                out.push((&node.pattern, node.count));
            }
            for &(letter, child) in &node.children {
                if !set.contains(letter as usize) {
                    stack.push(child);
                }
            }
        }
        out
    }

    /// The intersection of all counted hits that are superpatterns of `p`,
    /// or `None` when no stored hit contains `p`. This is the *closure* of
    /// `p` restricted to the multi-letter hits: the largest pattern matched
    /// by exactly the segments that match `p` (used by closed-pattern
    /// mining). Prunes like [`Self::count_superpatterns_walk`].
    pub fn intersect_superpatterns(&self, p: &LetterSet) -> Option<LetterSet> {
        let mut acc: Option<LetterSet> = None;
        let mut stack: Vec<NodeId> = vec![0];
        while let Some(id) = stack.pop() {
            let node = &self.nodes[id as usize];
            if node.count > 0 {
                match &mut acc {
                    None => acc = Some(node.pattern.clone()),
                    Some(acc) => acc.intersect_with(&node.pattern),
                }
            }
            for &(letter, child) in &node.children {
                if !p.contains(letter as usize) {
                    stack.push(child);
                }
            }
        }
        acc
    }

    /// Renders the tree as an indented outline (one node per line, counts
    /// included), for diagnostics and the didactic examples. Patterns are
    /// shown as letter-index sets.
    pub fn dump(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        // Depth-first over canonical links, children in letter order.
        let mut stack: Vec<(NodeId, usize)> = vec![(0, 0)];
        while let Some((id, depth)) = stack.pop() {
            let node = &self.nodes[id as usize];
            let _ = writeln!(
                out,
                "{:indent$}{:?} count={}",
                "",
                node.pattern,
                node.count,
                indent = depth * 2
            );
            for &(_, child) in node.children.iter().rev() {
                stack.push((child, depth + 1));
            }
        }
        out
    }

    /// Maximum depth of the tree (root = 0); equals the largest number of
    /// letters missing from any stored hit.
    pub fn depth(&self) -> usize {
        // A node's depth is the number of letters missing from its pattern.
        let c_max = self.c_max().len();
        self.nodes
            .iter()
            .map(|n| c_max - n.pattern.len())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(universe: usize, idx: &[usize]) -> LetterSet {
        LetterSet::from_indices(universe, idx.iter().copied())
    }

    #[test]
    fn insert_counts_repeats() {
        let mut t = MaxSubpatternTree::new(LetterSet::full(4));
        let h = set(4, &[0, 1]);
        t.insert(&h);
        t.insert(&h);
        assert_eq!(t.count_at(&h), Some(2));
        assert_eq!(t.total_hits(), 2);
        assert_eq!(t.distinct_hits(), 1);
    }

    #[test]
    fn insert_creates_zero_count_ancestors() {
        // C_max = {0,1,2,3}; inserting {1,3} (missing {0,2}) must create
        // the interior node for missing {0} with count 0.
        let mut t = MaxSubpatternTree::new(LetterSet::full(4));
        t.insert(&set(4, &[1, 3]));
        assert_eq!(t.node_count(), 3); // root + missing{0} + missing{0,2}
        assert_eq!(t.count_at(&set(4, &[1, 2, 3])), Some(0));
        assert_eq!(t.count_at(&set(4, &[1, 3])), Some(1));
        // The other one-missing node was never needed.
        assert_eq!(t.count_at(&set(4, &[0, 1, 3])), None);
    }

    #[test]
    fn insert_root_hit() {
        let mut t = MaxSubpatternTree::new(LetterSet::full(3));
        t.insert(&LetterSet::full(3));
        assert_eq!(t.count_at(&LetterSet::full(3)), Some(1));
        assert_eq!(t.node_count(), 1);
    }

    #[test]
    fn paths_are_shared() {
        let mut t = MaxSubpatternTree::new(LetterSet::full(4));
        t.insert(&set(4, &[2, 3])); // missing {0,1}
        t.insert(&set(4, &[1, 2, 3])); // missing {0} — already exists
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.count_at(&set(4, &[1, 2, 3])), Some(1));
        assert_eq!(t.count_at(&set(4, &[2, 3])), Some(1));
    }

    #[test]
    fn superpattern_counting_linear_equals_walk() {
        let mut t = MaxSubpatternTree::new(LetterSet::full(5));
        let hits = [
            vec![0, 1, 2, 3, 4],
            vec![0, 1, 2],
            vec![1, 2],
            vec![0, 4],
            vec![2, 3, 4],
            vec![1, 2],
        ];
        for h in &hits {
            t.insert(&set(5, h));
        }
        for candidate in [
            vec![1, 2],
            vec![0],
            vec![4],
            vec![2, 3],
            vec![0, 1, 2, 3, 4],
            vec![],
        ] {
            let c = set(5, &candidate);
            assert_eq!(
                t.count_superpatterns_linear(&c),
                t.count_superpatterns_walk(&c),
                "candidate {candidate:?}"
            );
        }
        // Spot-check an exact value: {1,2} ⊆ hits 0,1,2,5 -> count 4.
        assert_eq!(t.count_superpatterns_linear(&set(5, &[1, 2])), 4);
        // The empty pattern is a subpattern of everything.
        assert_eq!(t.count_superpatterns_walk(&set(5, &[])), hits.len() as u64);
    }

    #[test]
    fn reachable_ancestors_match_figure_1_example_4_2() {
        // C_max = a{b1,b2}*d* -> letters a=0, b1=1, b2=2, d=3.
        // Reconstruct Figure 1's tree shape, then ask for the reachable
        // ancestors of ***d* (missing {a, b1, b2}) as in Example 4.2:
        // linked: root, ~a, ~a~b1; not linked: ~a~b2, ~b1~b2?… the paper
        // names the 3 linked ones and 4 not-linked; all 7 existing proper
        // superpatterns must be returned if present in the tree.
        let mut t = MaxSubpatternTree::new(LetterSet::full(4));
        // Create every node of Figure 1 (counts irrelevant here).
        for missing in [
            vec![0],
            vec![1],
            vec![2],
            vec![3],
            vec![0, 1],
            vec![0, 2],
            vec![0, 3],
            vec![1, 2],
            vec![1, 3],
            vec![2, 3],
        ] {
            let mut hit = LetterSet::full(4);
            for &l in &missing {
                hit.remove(l);
            }
            t.insert(&hit);
        }
        let target = set(4, &[3]); // ***d*, missing {0,1,2}
        let ancestors = t.reachable_ancestors(&target);
        // Proper superpatterns of {3} present in the tree: root {0,1,2,3},
        // {1,2,3}, {0,2,3}, {0,1,3}, {2,3}, {1,3}, {0,3} — 7 nodes.
        assert_eq!(ancestors.len(), 7);
        for (pat, _) in &ancestors {
            assert!(target.is_subset(pat));
            assert_ne!(**pat, target);
        }
    }

    #[test]
    fn figure_1_counts_reproduce_example_4_3_frequencies() {
        // Letters: a=0, b1=1, b2=2, d=3. Figure 1 node counts:
        //   root a{b1,b2}*d*            : 10
        //   *{b1,b2}*d*  (~a)           : 50
        //   a{b1,b2}***  (~d)           : 40
        //   ab2*d*       (~b1)          : 32
        //   ab1*d*       (~b2)          : 0
        //   *b1*d*                      : 8
        //   *b2*d*                      : 0
        //   *{b1,b2}***                 : 19
        //   a**d*                       : 5
        //   ab2***                      : 2
        //   ab1***                      : 18
        let mut t = MaxSubpatternTree::new(LetterSet::full(4));
        let mut put = |letters: &[usize], count: u64| {
            t.insert_with_count(&set(4, letters), count);
        };
        put(&[0, 1, 2, 3], 10);
        put(&[1, 2, 3], 50);
        put(&[0, 1, 2], 40);
        put(&[0, 2, 3], 32);
        put(&[0, 1, 3], 0);
        put(&[1, 3], 8);
        put(&[2, 3], 0);
        put(&[1, 2], 19);
        put(&[0, 3], 5);
        put(&[0, 2], 2);
        put(&[0, 1], 18);

        // Example 4.3's level-2 frequencies.
        let expect = [
            (vec![1usize, 3], 68u64), // *b1*d* = 8 + 0 + 50 + 10
            (vec![2, 3], 92),         // *b2*d* = 0 + 32 + 50 + 10
            (vec![1, 2], 119),        // *{b1,b2}*** = 19 + 40 + 50 + 10
            (vec![0, 3], 47),         // a**d* = 5 + 0 + 32 + 10
            (vec![0, 2], 84),         // ab2*** = 2 + 32 + 40 + 10
            (vec![0, 1], 68),         // ab1*** = 18 + 0 + 40 + 10
        ];
        for &(ref letters, freq) in &expect {
            let p = set(4, letters);
            assert_eq!(t.count_superpatterns_walk(&p), freq, "pattern {letters:?}");
            assert_eq!(
                t.count_superpatterns_linear(&p),
                freq,
                "pattern {letters:?}"
            );
        }
        // Level-1 (one letter missing) frequencies from the example:
        // *{b1,b2}*d* = 50 + 10 = 60 and a{b1,b2}*** = 40 + 10 = 50.
        assert_eq!(t.count_superpatterns_walk(&set(4, &[1, 2, 3])), 60);
        assert_eq!(t.count_superpatterns_walk(&set(4, &[0, 1, 2])), 50);
        // ab2*d* = 32 + 10 = 42 and ab1*d* = 0 + 10 = 10: below the
        // example's threshold of 45, hence infrequent there.
        assert_eq!(t.count_superpatterns_walk(&set(4, &[0, 2, 3])), 42);
        assert_eq!(t.count_superpatterns_walk(&set(4, &[0, 1, 3])), 10);
        // The root itself: only its own 10 hits.
        assert_eq!(t.count_superpatterns_walk(&LetterSet::full(4)), 10);
        assert_eq!(t.total_hits(), 184);
        assert_eq!(t.distinct_hits(), 9);
    }

    #[test]
    fn depth_tracks_missing_letters() {
        let mut t = MaxSubpatternTree::new(LetterSet::full(5));
        assert_eq!(t.depth(), 0);
        t.insert(&set(5, &[0, 1, 2, 3])); // 1 missing
        assert_eq!(t.depth(), 1);
        t.insert(&set(5, &[3, 4])); // 3 missing
        assert_eq!(t.depth(), 3);
    }

    #[test]
    fn dump_lists_every_node() {
        let mut t = MaxSubpatternTree::new(LetterSet::full(3));
        t.insert(&set(3, &[0, 1]));
        t.insert(&set(3, &[1, 2]));
        let text = t.dump();
        assert_eq!(text.lines().count(), t.node_count());
        assert!(text.contains("count=1"));
    }

    #[test]
    fn count_at_rejects_foreign_patterns() {
        let t = MaxSubpatternTree::new(set(4, &[0, 1, 2]));
        assert_eq!(t.count_at(&set(4, &[3])), None);
    }

    #[test]
    fn zero_count_inserts_keep_totals_consistent() {
        let mut t = MaxSubpatternTree::new(LetterSet::full(5));
        t.insert_with_count(&set(5, &[1, 3]), 0);
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.total_hits(), 0);
        assert_eq!(t.distinct_hits(), 0);
        t.insert_with_count(&set(5, &[1, 3, 4]), 3);
        t.insert_with_count(&set(5, &[0, 1]), 0);
        assert_eq!(t.total_hits(), 3);
        assert_eq!(t.distinct_hits(), 1);
        assert_eq!(t.count_superpatterns_linear(&set(5, &[1, 3])), 3);
        assert_eq!(t.count_superpatterns_linear(&set(5, &[0, 1])), 0);
    }

    #[test]
    fn totals_hold_after_every_insert() {
        // A guarded build may stop after any insert (the tree budget is
        // checked per insert), so each prefix's totals must be right.
        let mut t = MaxSubpatternTree::new(LetterSet::full(8));
        let mut inserted = 0;
        for i in 0..40u32 {
            let bits = i.wrapping_mul(0x9E37_79B9) >> 24;
            let hit = LetterSet::from_indices(8, (0..8).filter(|l| bits >> l & 1 == 1));
            if hit.len() >= 2 {
                t.insert(&hit);
                inserted += 1;
                assert_eq!(t.total_hits(), inserted);
                assert_eq!(t.total_hits(), t.hits().map(|(_, c)| c).sum::<u64>());
                assert!(t.distinct_hits() <= t.node_count());
            }
        }
    }
}
