//! The control plane: system status, recovery epochs, interrupts.
//!
//! Clusters carry out-of-band control (small MPI control messages and
//! barriers) alongside the data plane. This reproduction models that
//! control network with one shared [`ControlPlane`] handle: the commit unit
//! is the only writer of the status word; every thread polls it at its
//! blocking points so that a thread stuck waiting for data can notice a
//! rollback or termination and unwind (§4.3 requires all threads to enter
//! recovery mode together).

use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use dsmtx_fabric::Barrier;

use crate::ids::MtxId;

/// A seen-epoch value that no published epoch equals: a role holding it
/// reads the status word on its next [`ControlPlane::poll`]. Roles start
/// from it rather than from the epoch at their thread's start, so a
/// status published before a role first polls (a misspeculation on the
/// very first iteration) still reaches it; they return to it after each
/// recovery rendezvous.
pub(crate) const EPOCH_UNSEEN: u64 = u64::MAX;

/// Global execution phase, as published by the commit unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Normal speculative execution.
    Running,
    /// Rolling back: all MTXs at or after `boundary` are squashed; the
    /// commit unit will re-execute `boundary` sequentially.
    Recovering {
        /// The first squashed MTX.
        boundary: MtxId,
    },
    /// Shutting down: every MTX at or before `last` commits (already has),
    /// everything later is squashed and the loop is done.
    Terminating {
        /// The last committed MTX, or `None` when the loop ran zero
        /// iterations.
        last: Option<MtxId>,
    },
}

/// Why a blocked or running operation was interrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interrupt {
    /// Misspeculation recovery is starting; unwind to the recovery
    /// rendezvous.
    Recovery {
        /// The first squashed MTX.
        boundary: MtxId,
    },
    /// The parallel section is over; unwind to shutdown.
    Terminate,
    /// A communication peer vanished — only possible on internal error or
    /// panic of another thread.
    ChannelDown,
    /// A fabric transfer exhausted its retry budget (or a receive missed
    /// its deadline). The thread must request a timeout-driven recovery
    /// round and rendezvous at the barriers.
    FabricTimeout,
}

impl std::fmt::Display for Interrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Interrupt::Recovery { boundary } => write!(f, "recovery from {boundary}"),
            Interrupt::Terminate => write!(f, "terminated"),
            Interrupt::ChannelDown => write!(f, "channel down"),
            Interrupt::FabricTimeout => write!(f, "fabric timeout"),
        }
    }
}

impl std::error::Error for Interrupt {}

#[derive(Debug)]
struct Shared {
    /// Bumped on every status change; threads poll this cheaply and only
    /// take the lock when it moved.
    epoch: AtomicU64,
    status: Mutex<Status>,
    /// Rendezvous for the recovery protocol; spans workers + every
    /// try-commit shard + commit.
    barrier: Barrier,
    /// Count of completed recoveries (observable for reports/tests).
    recoveries: AtomicU64,
    /// Set by any thread whose fabric transfer timed out; consumed by the
    /// commit unit, which answers with a recovery round at its next
    /// commit boundary.
    fabric_fault: AtomicBool,
    /// Total fabric-timeout requests ever raised.
    fabric_faults: AtomicU64,
    /// Channels found disconnected while the system was running.
    channel_downs: AtomicU64,
}

/// Shared control state; cloning yields another handle to the same plane.
#[derive(Debug, Clone)]
pub struct ControlPlane {
    shared: Arc<Shared>,
}

impl ControlPlane {
    /// Creates a control plane whose recovery barrier spans `parties`
    /// threads (all workers + all try-commit shards + commit).
    pub fn new(parties: usize) -> Self {
        ControlPlane {
            shared: Arc::new(Shared {
                epoch: AtomicU64::new(0),
                status: Mutex::new(Status::Running),
                barrier: Barrier::new(parties),
                recoveries: AtomicU64::new(0),
                fabric_fault: AtomicBool::new(false),
                fabric_faults: AtomicU64::new(0),
                channel_downs: AtomicU64::new(0),
            }),
        }
    }

    /// Current status epoch; changes whenever the status changes.
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::Acquire)
    }

    /// Reads the current status.
    pub fn status(&self) -> Status {
        *self.shared.status.lock()
    }

    /// Commit-unit only: publishes a new status.
    pub fn publish(&self, status: Status) {
        *self.shared.status.lock() = status;
        self.shared.epoch.fetch_add(1, Ordering::AcqRel);
    }

    /// Commit-unit only: records one completed recovery.
    pub fn record_recovery(&self) {
        self.shared.recoveries.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of completed recoveries.
    pub fn recoveries(&self) -> u64 {
        self.shared.recoveries.load(Ordering::Relaxed)
    }

    /// The recovery-protocol barrier.
    pub fn barrier(&self) -> &Barrier {
        &self.shared.barrier
    }

    /// Any thread: requests a timeout-driven recovery round. The commit
    /// unit consumes the request with [`ControlPlane::take_fabric_fault`]
    /// and recovers at its next commit boundary — never later, because a
    /// later boundary would silently lose uncommitted intermediate MTXs.
    pub fn raise_fabric_fault(&self) {
        self.shared.fabric_faults.fetch_add(1, Ordering::Relaxed);
        self.shared.fabric_fault.store(true, Ordering::Release);
    }

    /// Commit-unit only: consumes a pending fault request, if any.
    pub fn take_fabric_fault(&self) -> bool {
        self.shared.fabric_fault.swap(false, Ordering::AcqRel)
    }

    /// Commit-unit only: discards a stale fault request. Called inside the
    /// recovery protocol (after barrier B1, when every raiser is already
    /// rendezvousing and no new request can race in) so that a fault that
    /// landed *during* recovery entry does not trigger a redundant
    /// second round — this is what makes re-entry idempotent.
    pub fn clear_fabric_fault(&self) {
        self.shared.fabric_fault.store(false, Ordering::Release);
    }

    /// Total fabric-timeout requests ever raised.
    pub fn fabric_faults(&self) -> u64 {
        self.shared.fabric_faults.load(Ordering::Relaxed)
    }

    /// Any thread: reports a peer found disconnected while running. This
    /// is unrecoverable (the peer thread is gone), so it converts into a
    /// typed shutdown: `Terminating` is published exactly once, and only
    /// if the system was still `Running` (an in-progress recovery or
    /// termination takes precedence).
    pub fn report_channel_down(&self) {
        self.shared.channel_downs.fetch_add(1, Ordering::Relaxed);
        let mut status = self.shared.status.lock();
        if *status == Status::Running {
            *status = Status::Terminating { last: None };
            drop(status);
            self.shared.epoch.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// Channels found disconnected while the system was running.
    pub fn channel_downs(&self) -> u64 {
        self.shared.channel_downs.load(Ordering::Relaxed)
    }

    /// Converts a non-`Running` status into the interrupt a blocked thread
    /// should unwind with, or `None` while running.
    pub fn interrupt(&self) -> Option<Interrupt> {
        match self.status() {
            Status::Running => None,
            Status::Recovering { boundary } => Some(Interrupt::Recovery { boundary }),
            Status::Terminating { .. } => Some(Interrupt::Terminate),
        }
    }

    /// Polls for an interrupt only when the epoch moved since `seen_epoch`,
    /// updating `seen_epoch`. This keeps the hot path to one atomic load.
    #[inline]
    pub fn poll(&self, seen_epoch: &mut u64) -> Option<Interrupt> {
        let now = self.epoch();
        if now == *seen_epoch {
            return None;
        }
        *seen_epoch = now;
        self.interrupt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_running() {
        let cp = ControlPlane::new(1);
        assert_eq!(cp.status(), Status::Running);
        assert_eq!(cp.interrupt(), None);
        assert_eq!(cp.recoveries(), 0);
    }

    #[test]
    fn publish_changes_epoch_and_status() {
        let cp = ControlPlane::new(1);
        let e0 = cp.epoch();
        cp.publish(Status::Recovering { boundary: MtxId(5) });
        assert!(cp.epoch() > e0);
        assert_eq!(cp.status(), Status::Recovering { boundary: MtxId(5) });
        assert_eq!(
            cp.interrupt(),
            Some(Interrupt::Recovery { boundary: MtxId(5) })
        );
    }

    #[test]
    fn a_role_that_starts_after_a_publish_still_sees_it() {
        let cp = ControlPlane::new(1);
        cp.publish(Status::Recovering { boundary: MtxId(0) });
        let mut seen = EPOCH_UNSEEN;
        assert_eq!(
            cp.poll(&mut seen),
            Some(Interrupt::Recovery { boundary: MtxId(0) })
        );
        assert_eq!(seen, cp.epoch());
        // While running, the first poll reads the status and finds nothing.
        let running = ControlPlane::new(1);
        let mut seen = EPOCH_UNSEEN;
        assert_eq!(running.poll(&mut seen), None);
        assert_eq!(seen, running.epoch());
    }

    #[test]
    fn poll_fires_once_per_epoch() {
        let cp = ControlPlane::new(1);
        let mut seen = cp.epoch();
        assert_eq!(cp.poll(&mut seen), None);
        cp.publish(Status::Terminating {
            last: Some(MtxId(3)),
        });
        assert_eq!(cp.poll(&mut seen), Some(Interrupt::Terminate));
        // Epoch consumed: no repeat until the next change.
        assert_eq!(cp.poll(&mut seen), None);
    }

    #[test]
    fn returning_to_running_clears_interrupt() {
        let cp = ControlPlane::new(1);
        cp.publish(Status::Recovering { boundary: MtxId(0) });
        cp.publish(Status::Running);
        assert_eq!(cp.interrupt(), None);
    }

    #[test]
    fn fabric_fault_raise_take_clear() {
        let cp = ControlPlane::new(1);
        assert!(!cp.take_fabric_fault());
        cp.raise_fabric_fault();
        cp.raise_fabric_fault();
        assert_eq!(cp.fabric_faults(), 2, "every raise is counted");
        assert!(cp.take_fabric_fault(), "flag is set");
        assert!(!cp.take_fabric_fault(), "take consumes the flag");
        cp.raise_fabric_fault();
        cp.clear_fabric_fault();
        assert!(!cp.take_fabric_fault(), "clear discards a stale request");
        assert_eq!(cp.fabric_faults(), 3);
    }

    #[test]
    fn channel_down_terminates_once_while_running() {
        let cp = ControlPlane::new(1);
        let e0 = cp.epoch();
        cp.report_channel_down();
        assert_eq!(cp.status(), Status::Terminating { last: None });
        assert_eq!(cp.channel_downs(), 1);
        let e1 = cp.epoch();
        assert!(e1 > e0, "publish bumps the epoch");
        // A second report counts but does not republish.
        cp.report_channel_down();
        assert_eq!(cp.channel_downs(), 2);
        assert_eq!(cp.epoch(), e1);
    }

    #[test]
    fn channel_down_defers_to_in_progress_recovery() {
        let cp = ControlPlane::new(1);
        cp.publish(Status::Recovering { boundary: MtxId(4) });
        cp.report_channel_down();
        assert_eq!(
            cp.status(),
            Status::Recovering { boundary: MtxId(4) },
            "recovery in progress is not clobbered"
        );
        assert_eq!(cp.channel_downs(), 1);
    }

    #[test]
    fn clones_share_state() {
        let cp = ControlPlane::new(2);
        let cp2 = cp.clone();
        cp.publish(Status::Terminating { last: None });
        assert_eq!(cp2.status(), Status::Terminating { last: None });
        cp2.record_recovery();
        assert_eq!(cp.recoveries(), 1);
    }
}
