//! Level-wise candidate generation: the classic prefix join with full
//! subset pruning, over sorted [`LetterSet`] levels.
//!
//! A level is held as letter sets of one size `k`, in *level order* — the
//! lexicographic order of their ascending letter lists (`LetterSet`'s
//! `Ord`), which for sets of one size is: the lowest letter where two
//! sets differ belongs to the earlier one. Sets that agree once their highest letter is cleared
//! (a *prefix group*) are then contiguous, and each pair `a < b` of a
//! group joins into `a ∪ {max b}`. The prune probes the `k − 1` subsets
//! that drop a prefix letter — the other two are `a` and `b` — by
//! flipping one bit of the candidate's words and looking the words up in
//! a [`WordSlots`] table over the level. No set is rebuilt from indices
//! and no probe allocates; a universe of at most 64 letters is one word
//! per set, and larger ones run the same loop over more words.

use crate::letters::{LetterSet, WordSlots};

/// Generates the `(k+1)`-letter candidates from the frequent `k`-letter
/// sets of `level`.
///
/// `level` must be in level order (see the module docs; miners keep it,
/// since the join emits candidates in that order and filtering preserves
/// it). Two sets sharing their `k−1` lowest letters join into a
/// candidate; the candidate survives only if *all* of its `k`-subsets are
/// in the level (Property 3.1). Candidates come out in level order.
pub fn join_candidates(level: &[LetterSet]) -> Vec<LetterSet> {
    let Some(first) = level.first() else {
        return Vec::new();
    };
    let k = first.len();
    debug_assert!(level.iter().all(|s| s.len() == k));
    debug_assert!(
        level.windows(2).all(|w| w[0] < w[1]),
        "level must be sorted"
    );
    let mut index = WordSlots::new(level.len());
    for (i, set) in level.iter().enumerate() {
        if let Err(slot) = index.find(set.words(), |j| level[j].words()) {
            index.fill(slot, i);
        }
    }
    let in_level = |words: &[u64]| index.find(words, |j| level[j].words()).is_ok();

    let mut out = Vec::new();
    // The candidate under test, rewritten in place for every pair.
    let mut cand = first.clone();
    let mut start = 0;
    while start < level.len() {
        let top = level[start].last().expect("sets of a level are non-empty");
        let group = 1 + level[start + 1..]
            .iter()
            .take_while(|b| shares_prefix(level[start].words(), b.words(), top))
            .count();
        let group = &level[start..start + group];
        for (i, a) in group.iter().enumerate() {
            for b in &group[i + 1..] {
                let b_top = b.last().expect("sets of a level are non-empty");
                let words = cand.words_mut();
                words.copy_from_slice(a.words());
                words[b_top / 64] |= 1 << (b_top % 64);
                let pruned = a.iter().take(k - 1).any(|l| {
                    let bit = 1 << (l % 64);
                    words[l / 64] ^= bit;
                    let missing = !in_level(words);
                    words[l / 64] ^= bit;
                    missing
                });
                if !pruned {
                    out.push(cand.clone());
                }
            }
        }
        start += group.len();
    }
    out
}

/// Whether `b`, later than `a` in level order, shares `a`'s prefix: no
/// letter below `a`'s highest letter `top` differs between the two.
fn shares_prefix(a: &[u64], b: &[u64], top: usize) -> bool {
    let (w, bit) = (top / 64, top % 64);
    a[..w] == b[..w] && (a[w] ^ b[w]) & ((1 << bit) - 1) == 0
}

/// Calls `visit` with every `k`-combination of `items`, in lexicographic
/// order. Used by the adaptive candidate counter to enumerate the
/// `k`-subsets of a segment's projected letter set.
pub fn for_each_combination<T: Copy>(items: &[T], k: usize, mut visit: impl FnMut(&[T])) {
    if k == 0 || k > items.len() {
        return;
    }
    let mut idx: Vec<usize> = (0..k).collect();
    let mut buf: Vec<T> = idx.iter().map(|&i| items[i]).collect();
    let n = items.len();
    loop {
        visit(&buf);
        // Advance the combination (standard odometer).
        let mut pos = k;
        loop {
            if pos == 0 {
                return;
            }
            pos -= 1;
            if idx[pos] != pos + n - k {
                break;
            }
            if pos == 0 {
                return;
            }
        }
        idx[pos] += 1;
        for p in pos + 1..k {
            idx[p] = idx[p - 1] + 1;
        }
        for p in pos..k {
            buf[p] = items[idx[p]];
        }
    }
}

/// Number of `k`-combinations of `n` items, saturating at `u64::MAX`.
pub(crate) fn binomial(n: usize, k: usize) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc * (n - i) as u128 / (i + 1) as u128;
        if acc > u64::MAX as u128 {
            return u64::MAX;
        }
    }
    acc as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::collections::BTreeSet;

    /// A level over a universe of `n` letters, from ascending letter lists.
    fn level(n: usize, lists: &[&[usize]]) -> Vec<LetterSet> {
        lists
            .iter()
            .map(|l| LetterSet::from_indices(n, l.iter().copied()))
            .collect()
    }

    fn lists(sets: &[LetterSet]) -> Vec<Vec<usize>> {
        sets.iter().map(|s| s.iter().collect()).collect()
    }

    #[test]
    fn join_level1_produces_all_pairs() {
        let l1 = level(3, &[&[0], &[1], &[2]]);
        let got = join_candidates(&l1);
        assert_eq!(lists(&got), vec![vec![0, 1], vec![0, 2], vec![1, 2]]);
    }

    #[test]
    fn join_prunes_missing_subsets() {
        // {0,1}, {0,2}, {1,2} all frequent -> {0,1,2} survives.
        let l2 = level(3, &[&[0, 1], &[0, 2], &[1, 2]]);
        assert_eq!(lists(&join_candidates(&l2)), vec![vec![0, 1, 2]]);
        // Without {1,2} the candidate must be pruned.
        let l2 = level(3, &[&[0, 1], &[0, 2]]);
        assert!(join_candidates(&l2).is_empty());
    }

    #[test]
    fn join_respects_prefix_grouping() {
        // {0,1} and {2,3} share no prefix: no candidate.
        let l2 = level(4, &[&[0, 1], &[2, 3]]);
        assert!(join_candidates(&l2).is_empty());
    }

    #[test]
    fn join_empty_input() {
        assert!(join_candidates(&[]).is_empty());
        // One set joins with nothing, inline or on the heap.
        for n in [1, 64, 130] {
            assert!(join_candidates(&level(n, &[&[n - 1]])).is_empty());
        }
    }

    #[test]
    fn join_output_is_sorted_and_unique() {
        let l1: Vec<LetterSet> = (0..6).map(|i| LetterSet::from_indices(6, [i])).collect();
        let pairs = join_candidates(&l1);
        assert!(pairs.windows(2).all(|w| w[0] < w[1]));
        let triples = join_candidates(&pairs);
        assert!(triples.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(triples.len(), binomial(6, 3) as usize);
    }

    #[test]
    fn join_groups_across_the_word_boundary() {
        // Prefix groups whose highest letters sit at bits 63 and 64, and
        // a group {0, ·} whose members straddle the first heap word.
        let l2 = level(
            130,
            &[
                &[0, 63],
                &[0, 64],
                &[0, 129],
                &[62, 63],
                &[62, 64],
                &[63, 64],
                &[63, 129],
                &[64, 129],
            ],
        );
        assert_eq!(
            lists(&join_candidates(&l2)),
            vec![
                vec![0, 63, 64],
                vec![0, 63, 129],
                vec![0, 64, 129],
                vec![62, 63, 64],
                vec![63, 64, 129],
            ]
        );
    }

    /// SplitMix64: a seeded, dependency-free stream.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// A letter below `n`, a third of the time one at a word edge.
        fn letter(&mut self, n: usize) -> usize {
            let edges = [62, 63, 64, 65, 127, 128, n - 1];
            match self.below(3) {
                0 => edges[self.below(edges.len())].min(n - 1),
                _ => self.below(n),
            }
        }

        /// `k` distinct letters below `n`, ascending.
        fn set(&mut self, n: usize, k: usize) -> Vec<usize> {
            let mut s = BTreeSet::new();
            while s.len() < k {
                s.insert(self.letter(n));
            }
            s.into_iter().collect()
        }
    }

    /// A random `k`-level over `n` letters: every `k`-subset of a few
    /// dense blocks (so joins survive the prune), some loose sets (so
    /// they don't), then a fifth of it dropped.
    fn random_level(rng: &mut SplitMix, n: usize, k: usize) -> BTreeSet<Vec<usize>> {
        let mut sets = BTreeSet::new();
        for _ in 0..3 {
            let block = rng.set(n, (k + 2).min(n));
            for_each_combination(&block, k, |c| {
                sets.insert(c.to_vec());
            });
        }
        for _ in 0..12 {
            sets.insert(rng.set(n, k));
        }
        sets.retain(|_| rng.below(5) != 0);
        sets
    }

    /// The definition the join implements: within each prefix group,
    /// every `(k+1)`-subset of the group's letters whose `k`-subsets are
    /// all in the level.
    fn oracle(level: &BTreeSet<Vec<usize>>, k: usize) -> BTreeSet<Vec<usize>> {
        let mut out = BTreeSet::new();
        let all: Vec<&Vec<usize>> = level.iter().collect();
        for group in all.chunk_by(|a, b| a[..k - 1] == b[..k - 1]) {
            let union: Vec<usize> = group
                .iter()
                .flat_map(|s| s.iter().copied())
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect();
            for_each_combination(&union, k + 1, |c| {
                let closed = (0..=k).all(|drop| {
                    let sub: Vec<usize> = c
                        .iter()
                        .enumerate()
                        .filter(|&(p, _)| p != drop)
                        .map(|(_, &l)| l)
                        .collect();
                    level.contains(&sub)
                });
                if closed {
                    out.insert(c.to_vec());
                }
            });
        }
        out
    }

    #[test]
    fn join_equals_the_subset_closure_oracle() {
        let mut rng = SplitMix(0x5EED_0022);
        for n in [1usize, 24, 63, 64, 65, 130] {
            for k in 1..=n.min(4) {
                for _ in 0..25 {
                    let want = random_level(&mut rng, n, k);
                    let sets: Vec<Vec<usize>> = want.iter().cloned().collect();
                    let refs: Vec<&[usize]> = sets.iter().map(Vec::as_slice).collect();
                    let got = join_candidates(&level(n, &refs));
                    assert!(
                        got.windows(2).all(|w| w[0] < w[1]),
                        "n={n} k={k}: output not strictly ascending"
                    );
                    let expect: Vec<Vec<usize>> = oracle(&want, k).into_iter().collect();
                    assert_eq!(lists(&got), expect, "n={n} k={k} level={sets:?}");
                }
            }
        }
    }

    #[test]
    fn combinations_enumerate_lexicographically() {
        let mut seen = Vec::new();
        for_each_combination(&[1, 2, 3, 4], 2, |c| seen.push(c.to_vec()));
        assert_eq!(
            seen,
            vec![
                vec![1, 2],
                vec![1, 3],
                vec![1, 4],
                vec![2, 3],
                vec![2, 4],
                vec![3, 4]
            ]
        );
    }

    #[test]
    fn combinations_edge_cases() {
        let mut count = 0;
        for_each_combination(&[1, 2, 3], 0, |_| count += 1);
        assert_eq!(count, 0);
        for_each_combination(&[1, 2, 3], 4, |_| count += 1);
        assert_eq!(count, 0);
        for_each_combination(&[7], 1, |c| {
            assert_eq!(c, &[7]);
            count += 1;
        });
        assert_eq!(count, 1);
        let mut full = Vec::new();
        for_each_combination(&[1, 2, 3], 3, |c| full.push(c.to_vec()));
        assert_eq!(full, vec![vec![1, 2, 3]]);
    }

    #[test]
    fn combinations_count_matches_binomial() {
        for n in 0..8usize {
            let items: Vec<usize> = (0..n).collect();
            for k in 1..=n {
                let mut count = 0u64;
                for_each_combination(&items, k, |_| count += 1);
                assert_eq!(count, binomial(n, k), "C({n},{k})");
            }
        }
    }

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(10, 0), 1);
        assert_eq!(binomial(3, 5), 0);
        assert_eq!(binomial(64, 32), 1_832_624_140_942_590_534);
        assert_eq!(binomial(200, 100), u64::MAX); // saturates
    }
}
