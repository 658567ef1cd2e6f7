//! The single-period Apriori miner (Algorithm 3.1) and its candidate
//! generation machinery.
//!
//! Property 3.1 ("Apriori on periodicity"): every subpattern of a frequent
//! pattern of period `p` is itself frequent at period `p`. Algorithm 3.1
//! exploits it level-wise, exactly like association-rule Apriori \[AS94\]:
//! frequent `k`-letter patterns filter the `(k+1)`-letter candidates, and
//! each level is counted with one full scan over the series. The paper's
//! §3.1.2 observation — that partial-periodicity candidate sets shrink
//! *slowly* with `k`, making all these scans expensive — is what the
//! max-subpattern hit-set method (our [`crate::hitset`]) fixes.
//!
//! [`join_candidates`] is the one candidate generator of every engine:
//! levels are [`LetterSet`](crate::LetterSet)s in lexicographic order,
//! joined and pruned on their words. Its subset probes go to an
//! open-addressed table whose home slot is the *top* bits of a
//! multiplied key. That choice matters: a multiply-only hash indexed by
//! its low bits — what a `HashSet` with a multiplicative hasher does —
//! leaves one-word letter sets as sparse as the sets themselves and
//! crowds a level into a few buckets (the joins ran 2–3× slower that
//! way when measured). Algorithm 3.1's counter probes the same kind of
//! table with each enumerated subset of a segment's projection, as a
//! mask.

mod candidate;
mod single_period;

pub use candidate::{for_each_combination, join_candidates};
pub(crate) use single_period::mine_input;
pub use single_period::{mine, mine_view};
