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

mod candidate;
mod single_period;

pub use candidate::{for_each_combination, join_candidates};
pub(crate) use single_period::mine_input;
pub use single_period::{mine, mine_view};
