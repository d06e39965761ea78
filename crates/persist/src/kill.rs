//! Deterministic kill-point injection for crash-recovery tests.
//!
//! With the `testing` feature, a test arms one [`KillPoint`] with a
//! countdown; when the durable apply path reaches that point for the
//! n-th time, [`fire`] returns a *simulated-crash* I/O error. The caller
//! propagates it and the test then drops the half-dead state and runs
//! recovery — exactly what a `kill -9` at that instant would leave on
//! disk (the [`KillPoint::MidWalAppend`] point additionally truncates
//! the record being written, modeling a torn tail).
//!
//! Without the feature every hook compiles to an inlined `Ok(())` — the
//! production binary carries no branch.

use std::io;

/// Where the durable apply path can be made to crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillPoint {
    /// Before anything is written to the WAL.
    BeforeWalAppend = 1,
    /// Mid-record: only a prefix of the WAL record reaches the file — a
    /// torn tail.
    MidWalAppend = 2,
    /// After the record is written but before `fsync`.
    BeforeWalSync = 3,
    /// After `fsync`, before the batch is applied to the index.
    BeforeApply = 4,
    /// Before the snapshot temp file is written.
    BeforeSnapshotWrite = 5,
    /// After the temp file is written and fsynced, before the rename.
    BeforeSnapshotRename = 6,
    /// After the rename, before the WAL is pruned.
    AfterSnapshotRename = 7,
}

/// Every kill point, in path order — what the recovery proptest sweeps.
pub const ALL_KILL_POINTS: [KillPoint; 7] = [
    KillPoint::BeforeWalAppend,
    KillPoint::MidWalAppend,
    KillPoint::BeforeWalSync,
    KillPoint::BeforeApply,
    KillPoint::BeforeSnapshotWrite,
    KillPoint::BeforeSnapshotRename,
    KillPoint::AfterSnapshotRename,
];

/// Marker in simulated-crash errors; [`is_simulated_crash`] matches it.
pub const SIMULATED_CRASH: &str = "simulated crash (tir-persist kill point)";

/// True if `e` is a kill-point crash rather than a real I/O failure.
pub fn is_simulated_crash(e: &io::Error) -> bool {
    e.to_string().contains(SIMULATED_CRASH)
}

#[cfg(feature = "testing")]
mod armed {
    use super::KillPoint;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Armed point (0 = disarmed) and remaining visits before firing,
    /// packed into two atomics. SeqCst throughout: this is test-only
    /// control state, clarity beats cycles.
    pub static POINT: AtomicU64 = AtomicU64::new(0);
    pub static COUNTDOWN: AtomicU64 = AtomicU64::new(0);

    /// Arms `point` to fire on its `after + 1`-th visit.
    pub fn arm(point: KillPoint, after: u64) {
        COUNTDOWN.store(after, Ordering::SeqCst);
        POINT.store(point as u64, Ordering::SeqCst);
    }

    /// Disarms everything.
    pub fn disarm() {
        POINT.store(0, Ordering::SeqCst);
    }

    /// True (exactly once) when `point` should crash now.
    pub fn triggered(point: KillPoint) -> bool {
        if POINT.load(Ordering::SeqCst) != point as u64 {
            return false;
        }
        // `after` visits pass; the next one fires and disarms.
        let prev = COUNTDOWN.fetch_sub(1, Ordering::SeqCst);
        if prev == 0 {
            POINT.store(0, Ordering::SeqCst);
            COUNTDOWN.store(0, Ordering::SeqCst);
            return true;
        }
        false
    }
}

/// Arms `point` to fire on its `after + 1`-th visit (`testing` only).
#[cfg(feature = "testing")]
pub fn arm(point: KillPoint, after: u64) {
    armed::arm(point, after);
}

/// Disarms all kill points (`testing` only).
#[cfg(feature = "testing")]
pub fn disarm() {
    armed::disarm();
}

/// Crash check: returns the simulated-crash error when the armed point
/// triggers, `Ok(())` otherwise.
#[cfg(feature = "testing")]
pub fn fire(point: KillPoint) -> io::Result<()> {
    if armed::triggered(point) {
        return Err(io::Error::other(SIMULATED_CRASH));
    }
    Ok(())
}

/// Production build: kill points compile away.
#[cfg(not(feature = "testing"))]
#[inline(always)]
pub fn fire(_point: KillPoint) -> io::Result<()> {
    Ok(())
}

/// Serializes the unit tests that arm or pass kill points: the registry
/// is process-global, so a point armed by one test would fire in
/// another running beside it.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(all(test, feature = "testing"))]
mod tests {
    use super::*;

    #[test]
    fn fires_once_after_countdown() {
        let _guard = test_guard();
        disarm();
        arm(KillPoint::BeforeApply, 2);
        assert!(fire(KillPoint::BeforeWalSync).is_ok(), "other points pass");
        assert!(fire(KillPoint::BeforeApply).is_ok());
        assert!(fire(KillPoint::BeforeApply).is_ok());
        let e = fire(KillPoint::BeforeApply).expect_err("third visit crashes");
        assert!(is_simulated_crash(&e));
        assert!(
            fire(KillPoint::BeforeApply).is_ok(),
            "disarmed after firing"
        );
        disarm();
    }
}
