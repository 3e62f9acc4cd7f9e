//! Transaction abort reasons and error plumbing.

use std::fmt;

/// Why a transaction attempt aborted.
///
/// The distinction between *conflict-induced* and *crash-induced* aborts is the
/// backbone of the paper (§1): Primo removes conflict-induced aborts from the
/// commit phase (WCF) and handles crash-induced aborts in batches (WM).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortReason {
    /// A lock request was denied under the NO_WAIT policy.
    LockConflict,
    /// A lock request was denied under the WAIT_DIE policy because the
    /// requester was younger than the holder.
    WaitDie,
    /// OCC / TicToc validation failed.
    Validation,
    /// The coordinator detected that a record it read in local mode changed
    /// while switching to distributed mode (§4.2.2 example).
    ModeSwitch,
    /// The application explicitly rolled back (`Rollback` in a stored
    /// procedure or an interactive transaction).
    UserAbort,
    /// The transaction read or updated a key that does not exist (and was
    /// not created with `insert`). Retrying cannot succeed.
    NotFound,
    /// A participant or the group-commit layer aborted the transaction because
    /// of a (simulated) partition crash.
    CrashAbort,
    /// A remote partition could not be reached (crashed) during execution.
    RemoteUnavailable,
    /// The transaction was aborted because the epoch it belonged to was
    /// aborted wholesale (COCO-style group commit).
    EpochAbort,
    /// Aria-style deterministic conflict (write-after-write / read-after-write
    /// reservation clash within a batch).
    DeterministicConflict,
    /// The coordinating worker died between the prepare round and the commit
    /// decision. Under Paxos Commit the atomic-commit layer terminated the
    /// in-doubt transaction with a global abort (its non-blocking
    /// resolution). Under classic 2PC the attempt is orphaned: it reports
    /// this too, but nobody decides it, and its locks stay held — 2PC's
    /// blocking. Either way a retry must take a fresh transaction id.
    CoordinatorCrash,
}

impl AbortReason {
    /// True for aborts that the worker loop should retry with back-off.
    pub fn is_retryable(self) -> bool {
        !matches!(self, AbortReason::UserAbort | AbortReason::NotFound)
    }

    /// True if this abort was caused by a concurrency conflict (as opposed to
    /// a crash or an explicit rollback).
    pub fn is_conflict(self) -> bool {
        matches!(
            self,
            AbortReason::LockConflict
                | AbortReason::WaitDie
                | AbortReason::Validation
                | AbortReason::ModeSwitch
                | AbortReason::DeterministicConflict
        )
    }

    /// True if this abort was caused by a (simulated) crash.
    pub fn is_crash(self) -> bool {
        matches!(
            self,
            AbortReason::CrashAbort
                | AbortReason::RemoteUnavailable
                | AbortReason::EpochAbort
                | AbortReason::CoordinatorCrash
        )
    }
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Error type returned by transaction execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnError {
    Aborted(AbortReason),
}

impl TxnError {
    pub fn reason(&self) -> AbortReason {
        match self {
            TxnError::Aborted(r) => *r,
        }
    }
}

impl fmt::Display for TxnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnError::Aborted(r) => write!(f, "transaction aborted: {r}"),
        }
    }
}

impl std::error::Error for TxnError {}

impl From<AbortReason> for TxnError {
    fn from(r: AbortReason) -> Self {
        TxnError::Aborted(r)
    }
}

/// Convenience alias used throughout the protocol crates.
pub type TxnResult<T> = Result<T, TxnError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn user_abort_is_not_retryable() {
        assert!(!AbortReason::UserAbort.is_retryable());
        assert!(!AbortReason::NotFound.is_retryable());
        assert!(AbortReason::LockConflict.is_retryable());
        assert!(AbortReason::CrashAbort.is_retryable());
    }

    #[test]
    fn classification_is_disjoint() {
        for r in [
            AbortReason::LockConflict,
            AbortReason::WaitDie,
            AbortReason::Validation,
            AbortReason::ModeSwitch,
            AbortReason::UserAbort,
            AbortReason::NotFound,
            AbortReason::CrashAbort,
            AbortReason::RemoteUnavailable,
            AbortReason::EpochAbort,
            AbortReason::DeterministicConflict,
            AbortReason::CoordinatorCrash,
        ] {
            assert!(!(r.is_conflict() && r.is_crash()), "{r} classified twice");
        }
    }

    #[test]
    fn error_carries_reason() {
        let e: TxnError = AbortReason::Validation.into();
        assert_eq!(e.reason(), AbortReason::Validation);
        assert!(e.to_string().contains("Validation"));
    }
}
