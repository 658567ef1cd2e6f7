//! Resource guards shared by the guarded miners.
//!
//! A [`ResourceGuard`] snapshots the optional limits of a
//! [`MineConfig`](crate::MineConfig) — wall-clock deadline and
//! max-subpattern-tree node budget — at the start of a mining run and
//! answers two questions cheaply in hot loops: *has the deadline passed?*
//! and *is the tree over budget?* On violation the miner materialises a
//! typed error carrying the partially accumulated
//! [`MiningStats`](crate::MiningStats), so operators see how far the run
//! got before it was cut off.
//!
//! Deadline checks call [`Instant::elapsed`]; the segment passes of
//! `crate::rows` amortise them to once per [`DEADLINE_CHECK_INTERVAL`]
//! segments so the guard costs nothing on the fast path. Tree checks are
//! a length comparison and run after every insert.

use std::time::{Duration, Instant};

use crate::error::Error;
use crate::scan::MineConfig;
use crate::stats::MiningStats;

/// Check the deadline once every this many period segments. Bounds the
/// guard's syscall overhead while keeping the overrun past the deadline to
/// at most one batch of segments.
pub(crate) const DEADLINE_CHECK_INTERVAL: usize = 1024;

/// Which guard stopped a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Abort {
    /// The wall-clock deadline passed.
    Deadline,
    /// An insert grew the max-subpattern tree past its node budget.
    TreeBudget,
}

/// Snapshot of a run's resource limits plus its start time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ResourceGuard {
    started: Instant,
    max_duration: Option<Duration>,
    max_tree_nodes: Option<usize>,
}

impl ResourceGuard {
    /// Starts the clock for a run limited by `config`'s guards.
    pub(crate) fn new(config: &MineConfig) -> Self {
        ResourceGuard {
            started: Instant::now(),
            max_duration: config.max_duration(),
            max_tree_nodes: config.max_tree_nodes(),
        }
    }

    /// A guard with no limits: never trips. Used by the unguarded internal
    /// passes (the tree builds of the extension miners, scan 1 alone, the
    /// resumable miner).
    pub(crate) fn unlimited() -> Self {
        ResourceGuard {
            started: Instant::now(),
            max_duration: None,
            max_tree_nodes: None,
        }
    }

    /// Whether the wall-clock deadline has passed. Always `false` when no
    /// deadline is configured.
    pub(crate) fn deadline_exceeded(&self) -> bool {
        self.max_duration
            .is_some_and(|d| self.started.elapsed() >= d)
    }

    /// Whether a tree of `nodes` nodes exceeds the budget. Always `false`
    /// when no budget is configured.
    pub(crate) fn tree_over_budget(&self, nodes: usize) -> bool {
        self.max_tree_nodes.is_some_and(|budget| nodes > budget)
    }

    /// The typed error for `abort`, snapshotting `stats` (a tree-budget
    /// abort reads the partial tree's size from `stats.tree_nodes`).
    pub(crate) fn error(&self, abort: Abort, stats: &MiningStats) -> Error {
        match abort {
            Abort::Deadline => self.deadline_error(stats),
            Abort::TreeBudget => self.tree_error(stats.tree_nodes, stats),
        }
    }

    /// The typed deadline error with the elapsed time and partial stats.
    /// Reported as a `guard.deadline_exceeded` observability mark, since
    /// this constructor only runs on an actual trip.
    pub(crate) fn deadline_error(&self, stats: &MiningStats) -> Error {
        let elapsed = self.started.elapsed();
        ppm_observe::mark("guard.deadline_exceeded", || {
            format!(
                "elapsed {:?} over limit {:?}",
                elapsed,
                self.max_duration.unwrap_or(Duration::ZERO)
            )
        });
        Error::DeadlineExceeded {
            elapsed,
            stats: Box::new(stats.clone()),
        }
    }

    /// The typed budget error for a tree of `nodes` nodes. Reported as a
    /// `guard.tree_budget_exceeded` observability mark.
    pub(crate) fn tree_error(&self, nodes: usize, stats: &MiningStats) -> Error {
        let budget = self.max_tree_nodes.unwrap_or(0);
        ppm_observe::mark("guard.tree_budget_exceeded", || {
            format!("{nodes} tree nodes over budget {budget}")
        });
        Error::TreeBudgetExceeded {
            nodes,
            budget,
            stats: Box::new(stats.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let g = ResourceGuard::unlimited();
        assert!(!g.deadline_exceeded());
        assert!(!g.tree_over_budget(usize::MAX));
    }

    #[test]
    fn zero_deadline_trips_immediately() {
        let config = MineConfig::default().with_deadline(Duration::ZERO);
        let g = ResourceGuard::new(&config);
        assert!(g.deadline_exceeded());
        let err = g.error(Abort::Deadline, &MiningStats::default());
        assert!(matches!(err, Error::DeadlineExceeded { .. }));
    }

    #[test]
    fn budget_boundary_is_inclusive() {
        let config = MineConfig::default().with_max_tree_nodes(5);
        let g = ResourceGuard::new(&config);
        assert!(!g.tree_over_budget(5), "exactly at budget is allowed");
        assert!(g.tree_over_budget(6));
        let err = g.tree_error(6, &MiningStats::default());
        assert!(matches!(
            err,
            Error::TreeBudgetExceeded {
                nodes: 6,
                budget: 5,
                ..
            }
        ));
    }
}
