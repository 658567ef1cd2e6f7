//! The max-subpattern hit-set method (paper §3.1.2 and §4).
//!
//! The key observation: once `F1` (hence `C_max`) is known, the *maximal*
//! subpattern of `C_max` hit by each period segment — the segment's
//! intersection with `C_max` — determines the count of **every** candidate
//! pattern: `count(P) = Σ count(H)` over distinct hits `H ⊇ P`. So a single
//! second scan that tallies hit multiplicities in a [`MaxSubpatternTree`]
//! replaces the per-level scans of Apriori, for a total of exactly two
//! scans regardless of pattern length (Algorithm 3.2).
//!
//! * [`tree`] — the max-subpattern tree (Algorithm 4.1): a set-trie over
//!   missing-letter lists, with 0-count interior nodes.
//! * [`derive`](mod@derive) — Algorithm 4.2: level-wise derivation of all frequent
//!   patterns from the tree's hits — by default laid out as the vertical
//!   engine's weighted bitmaps and counted by its kernel, or by the
//!   paper's tree walk.
//! * [`mine`] — Algorithm 3.2 end to end.

pub mod derive;
pub mod tree;

mod single_period;

pub use single_period::{mine, mine_view, mine_with_strategy};
pub use tree::MaxSubpatternTree;

pub(crate) use single_period::{count_any, finish, grow_tree, scan_and_build_tree};
