//! The phases of the per-transaction latency breakdown.
//!
//! Figures 4c and 5c of the paper break transaction latency into phases
//! (`execute`, `2PC`, `timestamp`, `commit`, `backoff`, `return`,
//! `wait_batch`, `sequence`). The flight recorder's fold
//! (`primo_trace::PhaseFold`) charges every microsecond of a committed
//! transaction's traced latency to one of them.

/// Latency-breakdown phases, matching Fig 4c/5c legends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Executing transaction logic (reads, computation, buffering writes),
    /// including the wait for the batched remote reads.
    Execute,
    /// Two-phase-commit rounds (prepare + commit messages).
    TwoPc,
    /// Reserving the logical commit timestamp (TicToc / Sundial / Primo).
    Timestamp,
    /// Locking, validating, logging and installing the write-set, and
    /// releasing locks.
    Commit,
    /// Exponential back-off between aborted attempts.
    Backoff,
    /// Waiting for the group commit (watermark / epoch) to return results.
    Return,
    /// Aria only: waiting for the rest of the batch at its barriers.
    WaitBatch,
    /// Aria only: waiting in the sequencing layer for the batch to close.
    Sequence,
}

impl Phase {
    pub const ALL: [Phase; 8] = [
        Phase::Execute,
        Phase::TwoPc,
        Phase::Timestamp,
        Phase::Commit,
        Phase::Backoff,
        Phase::Return,
        Phase::WaitBatch,
        Phase::Sequence,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Phase::Execute => "execute",
            Phase::TwoPc => "2PC",
            Phase::Timestamp => "timestamp",
            Phase::Commit => "commit",
            Phase::Backoff => "backoff",
            Phase::Return => "return",
            Phase::WaitBatch => "wait_batch",
            Phase::Sequence => "sequence",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_phases_have_distinct_indices_and_labels() {
        let mut seen = std::collections::HashSet::new();
        for (i, p) in Phase::ALL.into_iter().enumerate() {
            assert_eq!(p as usize, i);
            assert!(seen.insert(p.label()));
        }
        assert_eq!(seen.len(), 8);
    }
}
