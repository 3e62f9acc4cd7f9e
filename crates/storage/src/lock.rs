//! Record-granularity lock manager.
//!
//! Supports shared/exclusive modes, lock upgrades, and the two
//! deadlock-handling policies used in the paper: NO_WAIT (abort on any
//! conflict) and WAIT_DIE (an older transaction may wait for a younger
//! holder; a younger requester dies immediately). Primo's WCF uses
//! exclusive-only locking with WAIT_DIE (§4.2.2).

use parking_lot::{Condvar, Mutex};
use primo_common::TxnId;
use std::time::Duration;

/// Requested/held lock mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    Shared,
    Exclusive,
}

/// Deadlock-handling policy for lock acquisition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockPolicy {
    /// Abort the requester on any conflict.
    NoWait,
    /// Older requester waits, younger requester aborts ("dies").
    WaitDie,
}

/// Outcome of a lock request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockRequestResult {
    Granted,
    /// The requester must abort (conflict under NO_WAIT, or it was younger
    /// under WAIT_DIE, or waiting timed out).
    Abort,
}

/// Upper bound on how long a WAIT_DIE waiter blocks before giving up. WAIT_DIE
/// guarantees no deadlock, so this only fires if a holder crashed without
/// releasing; treating it as an abort keeps the experiment progressing.
const WAIT_TIMEOUT: Duration = Duration::from_millis(100);

#[derive(Debug)]
struct LockState {
    /// The first transaction holding the lock, inline, while `held`: the
    /// only one under exclusive mode, so locking a record allocates nothing.
    /// (An `Option` would widen every record's lock by 8 bytes; the flag
    /// packs beside `exclusive` and `waiters`.)
    first: TxnId,
    held: bool,
    /// Further shared holders: the first `more_len` slots of `more`. The
    /// buffer is allocated when a second sharer arrives and kept, like a
    /// `Vec`'s capacity, for the record's life; a boxed slice with a `u16`
    /// length keeps every record's lock 8 bytes smaller than a `Vec` would.
    more: Box<[TxnId]>,
    more_len: u16,
    exclusive: bool,
    /// Number of threads currently blocked waiting on this lock.
    waiters: u32,
}

/// A free slot of [`LockState::more`].
const VACANT: TxnId = TxnId { seq: 0, coord: 0 };

impl Default for LockState {
    fn default() -> Self {
        LockState {
            first: VACANT,
            held: false,
            more: Box::default(),
            more_len: 0,
            exclusive: false,
            waiters: 0,
        }
    }
}

impl LockState {
    fn held(&self) -> bool {
        self.held
    }

    fn first(&self) -> Option<TxnId> {
        self.held.then_some(self.first)
    }

    fn more(&self) -> &[TxnId] {
        &self.more[..usize::from(self.more_len)]
    }

    fn holders(&self) -> impl Iterator<Item = &TxnId> {
        let first = self.held.then_some(&self.first);
        first.into_iter().chain(self.more())
    }

    fn held_by(&self, txn: TxnId) -> bool {
        self.holders().any(|h| *h == txn)
    }

    fn sole_holder(&self, txn: TxnId) -> bool {
        self.first() == Some(txn) && self.more_len == 0
    }

    /// True if `txn` is older (higher priority) than every current holder.
    fn older_than_all_holders(&self, txn: TxnId) -> bool {
        self.holders().all(|h| txn < *h)
    }

    fn add_holder(&mut self, txn: TxnId) {
        if !self.held {
            (self.first, self.held) = (txn, true);
            return;
        }
        let len = usize::from(self.more_len);
        if len == self.more.len() {
            // Full: double the buffer (two slots at first).
            let mut grown = vec![VACANT; (2 * len).max(2)].into_boxed_slice();
            grown[..len].copy_from_slice(&self.more);
            self.more = grown;
        }
        self.more[len] = txn;
        self.more_len = u16::try_from(len + 1).expect("fewer than 65 536 sharers");
    }

    /// Drop `txn` from the holders; whether it held the lock.
    fn remove_holder(&mut self, txn: TxnId) -> bool {
        let last = usize::from(self.more_len).checked_sub(1);
        if self.first() == Some(txn) {
            match last {
                Some(last) => (self.first, self.more_len) = (self.more[last], last as u16),
                None => self.held = false,
            }
            return true;
        }
        match self.more().iter().position(|h| *h == txn) {
            Some(i) => {
                let last = last.expect("a found sharer");
                self.more.swap(i, last);
                self.more_len = last as u16;
                true
            }
            None => false,
        }
    }
}

/// A per-record lock with shared/exclusive modes and policy-driven conflict
/// resolution.
#[derive(Debug, Default)]
pub struct RecordLock {
    state: Mutex<LockState>,
    cond: Condvar,
}

impl RecordLock {
    pub fn new() -> Self {
        Self::default()
    }

    /// Acquire the lock in `mode` for `txn`, resolving conflicts with
    /// `policy`. Re-entrant: if `txn` already holds a compatible (or stronger)
    /// lock the request is granted immediately; a shared holder requesting
    /// exclusive is treated as an upgrade.
    pub fn acquire(&self, txn: TxnId, mode: LockMode, policy: LockPolicy) -> LockRequestResult {
        let mut st = self.state.lock();
        loop {
            // Re-entrant / upgrade handling.
            if st.held_by(txn) {
                match mode {
                    LockMode::Shared => return LockRequestResult::Granted,
                    LockMode::Exclusive => {
                        if st.exclusive {
                            return LockRequestResult::Granted;
                        }
                        if st.sole_holder(txn) {
                            st.exclusive = true;
                            return LockRequestResult::Granted;
                        }
                        // Upgrade blocked by other shared holders.
                    }
                }
            } else if !st.held() {
                st.add_holder(txn);
                st.exclusive = mode == LockMode::Exclusive;
                return LockRequestResult::Granted;
            } else if mode == LockMode::Shared && !st.exclusive {
                st.add_holder(txn);
                return LockRequestResult::Granted;
            }

            // Conflict.
            match policy {
                LockPolicy::NoWait => return LockRequestResult::Abort,
                LockPolicy::WaitDie => {
                    if !st.older_than_all_holders(txn) {
                        return LockRequestResult::Abort;
                    }
                    st.waiters += 1;
                    let timed_out = self.cond.wait_for(&mut st, WAIT_TIMEOUT).timed_out();
                    st.waiters -= 1;
                    if timed_out {
                        return LockRequestResult::Abort;
                    }
                    // Loop and re-check.
                }
            }
        }
    }

    /// Release any lock held by `txn`. Releasing a lock that is not held is a
    /// no-op (protocol abort paths may release conservatively).
    pub fn release(&self, txn: TxnId) {
        let mut st = self.state.lock();
        let released = st.remove_holder(txn);
        if !st.held() {
            st.exclusive = false;
        }
        let has_waiters = st.waiters > 0;
        drop(st);
        if released && has_waiters {
            self.cond.notify_all();
        }
    }

    /// True if the lock is currently held in exclusive mode by a transaction
    /// other than `txn`. Used by TicToc validation: extending the `rts` of a
    /// record that someone else has write-locked must abort.
    pub fn exclusively_locked_by_other(&self, txn: TxnId) -> bool {
        let st = self.state.lock();
        st.exclusive && !st.held_by(txn)
    }

    /// True if `txn` currently holds this lock (in any mode).
    pub fn held_by(&self, txn: TxnId) -> bool {
        self.state.lock().held_by(txn)
    }

    /// A current holder of the lock — the only one under exclusive mode, an
    /// arbitrary one under shared. Conflict diagnostics only (the answer can
    /// be stale by the time the caller looks at it): the flight recorder
    /// stamps lock-wait events with the transaction that was in the way.
    pub fn holder(&self) -> Option<TxnId> {
        self.state.lock().first()
    }

    /// True if anyone holds the lock.
    pub fn is_locked(&self) -> bool {
        self.state.lock().held()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use primo_common::PartitionId;
    use std::sync::Arc;

    fn t(seq: u64) -> TxnId {
        TxnId::new(PartitionId(0), seq)
    }

    #[test]
    fn exclusive_excludes() {
        let l = RecordLock::new();
        assert_eq!(
            l.acquire(t(1), LockMode::Exclusive, LockPolicy::NoWait),
            LockRequestResult::Granted
        );
        assert_eq!(
            l.acquire(t(2), LockMode::Exclusive, LockPolicy::NoWait),
            LockRequestResult::Abort
        );
        assert_eq!(
            l.acquire(t(2), LockMode::Shared, LockPolicy::NoWait),
            LockRequestResult::Abort
        );
        l.release(t(1));
        assert_eq!(
            l.acquire(t(2), LockMode::Exclusive, LockPolicy::NoWait),
            LockRequestResult::Granted
        );
    }

    #[test]
    fn shared_locks_coexist() {
        let l = RecordLock::new();
        assert_eq!(
            l.acquire(t(1), LockMode::Shared, LockPolicy::NoWait),
            LockRequestResult::Granted
        );
        assert_eq!(
            l.acquire(t(2), LockMode::Shared, LockPolicy::NoWait),
            LockRequestResult::Granted
        );
        // Exclusive blocked while two sharers exist.
        assert_eq!(
            l.acquire(t(3), LockMode::Exclusive, LockPolicy::NoWait),
            LockRequestResult::Abort
        );
    }

    #[test]
    fn reentrant_and_upgrade() {
        let l = RecordLock::new();
        assert_eq!(
            l.acquire(t(1), LockMode::Shared, LockPolicy::NoWait),
            LockRequestResult::Granted
        );
        // Re-entrant shared.
        assert_eq!(
            l.acquire(t(1), LockMode::Shared, LockPolicy::NoWait),
            LockRequestResult::Granted
        );
        // Upgrade succeeds as the sole holder.
        assert_eq!(
            l.acquire(t(1), LockMode::Exclusive, LockPolicy::NoWait),
            LockRequestResult::Granted
        );
        assert!(l.exclusively_locked_by_other(t(2)));
        assert!(!l.exclusively_locked_by_other(t(1)));
    }

    #[test]
    fn upgrade_blocked_by_other_sharer() {
        let l = RecordLock::new();
        l.acquire(t(1), LockMode::Shared, LockPolicy::NoWait);
        l.acquire(t(2), LockMode::Shared, LockPolicy::NoWait);
        assert_eq!(
            l.acquire(t(1), LockMode::Exclusive, LockPolicy::NoWait),
            LockRequestResult::Abort
        );
    }

    #[test]
    fn wait_die_younger_dies_older_waits() {
        let l = Arc::new(RecordLock::new());
        assert_eq!(
            l.acquire(t(5), LockMode::Exclusive, LockPolicy::WaitDie),
            LockRequestResult::Granted
        );
        // Younger (larger seq) dies immediately.
        assert_eq!(
            l.acquire(t(9), LockMode::Exclusive, LockPolicy::WaitDie),
            LockRequestResult::Abort
        );
        // Older (smaller seq) waits until release.
        let l2 = Arc::clone(&l);
        let waiter =
            std::thread::spawn(move || l2.acquire(t(1), LockMode::Exclusive, LockPolicy::WaitDie));
        std::thread::sleep(Duration::from_millis(10));
        l.release(t(5));
        assert_eq!(waiter.join().unwrap(), LockRequestResult::Granted);
    }

    #[test]
    fn wait_die_times_out_eventually() {
        let l = RecordLock::new();
        l.acquire(t(5), LockMode::Exclusive, LockPolicy::WaitDie);
        // Older waiter, but the holder never releases: the request must not
        // hang forever.
        let start = std::time::Instant::now();
        assert_eq!(
            l.acquire(t(1), LockMode::Exclusive, LockPolicy::WaitDie),
            LockRequestResult::Abort
        );
        assert!(start.elapsed() >= Duration::from_millis(90));
    }

    #[test]
    fn sharers_leave_in_any_order() {
        let l = RecordLock::new();
        for seq in 1..=3 {
            l.acquire(t(seq), LockMode::Shared, LockPolicy::NoWait);
        }
        // The inline holder leaves first; the others still hold the lock.
        l.release(t(1));
        assert!(!l.held_by(t(1)) && l.held_by(t(2)) && l.held_by(t(3)));
        l.release(t(3));
        assert_eq!(l.holder(), Some(t(2)));
        // The last sharer upgrades, and then excludes everyone.
        assert_eq!(
            l.acquire(t(2), LockMode::Exclusive, LockPolicy::NoWait),
            LockRequestResult::Granted
        );
        assert!(l.exclusively_locked_by_other(t(1)));
        l.release(t(2));
        assert!(!l.is_locked() && !l.exclusively_locked_by_other(t(1)));
    }

    #[test]
    fn sharers_keep_their_buffer() {
        let l = RecordLock::new();
        let buffer = |l: &RecordLock| {
            let st = l.state.lock();
            (st.more.as_ptr(), st.more.len())
        };
        l.acquire(t(1), LockMode::Shared, LockPolicy::NoWait);
        assert_eq!(buffer(&l).1, 0, "one holder allocates nothing");
        l.acquire(t(2), LockMode::Shared, LockPolicy::NoWait);
        let kept = buffer(&l);
        assert_eq!(kept.1, 2);
        // A second sharer comes and goes without allocating again.
        for seq in 3..10 {
            l.release(t(seq - 1));
            l.acquire(t(seq), LockMode::Shared, LockPolicy::NoWait);
            assert_eq!(buffer(&l), kept);
            assert!(l.held_by(t(1)) && l.held_by(t(seq)) && !l.held_by(t(seq - 1)));
        }
        // Five sharers double it once; all leave, in any order.
        for seq in 10..13 {
            l.acquire(t(seq), LockMode::Shared, LockPolicy::NoWait);
        }
        assert_eq!(buffer(&l).1, 4);
        for seq in [11, 1, 12, 9, 10] {
            assert!(l.held_by(t(seq)));
            l.release(t(seq));
            assert!(!l.held_by(t(seq)));
        }
        assert!(!l.is_locked());
    }

    #[test]
    fn release_of_non_holder_is_noop() {
        let l = RecordLock::new();
        l.acquire(t(1), LockMode::Exclusive, LockPolicy::NoWait);
        l.release(t(2));
        assert!(l.held_by(t(1)));
        assert!(l.is_locked());
    }
}
