//! Cooperative polling helpers.
//!
//! Every blocking point in the runtime is a poll loop: make progress if a
//! message is available, otherwise check the control plane for interrupts
//! and back off. This keeps all threads interruptible for the recovery
//! protocol (a thread stuck in a blocking receive could never reach the
//! recovery barriers) and plays fairly on machines with few cores.

use crate::control::{ControlPlane, Interrupt};

/// Most messages a unit takes from one input queue in one pass of its
/// loop. Workers batch their plane records and may run ahead without
/// waiting, so a queue can refill as fast as a unit drains it; the cap
/// makes every pass end, so the unit still polls the control plane,
/// replays, and commits, and a producer that outruns it fills its
/// transport and waits.
pub(crate) const DRAIN_BUDGET: usize = 1024;

/// True when this process has exactly one CPU to run on.
///
/// Spinning only makes sense when the producer we are waiting for can run
/// *concurrently* on another core; on a single-core host a spin round
/// burns the very quantum the producer needs, so the backoff skips
/// straight to yielding.
fn single_core() -> bool {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static CORES: AtomicUsize = AtomicUsize::new(0);
    let mut n = CORES.load(Ordering::Relaxed);
    if n == 0 {
        n = std::thread::available_parallelism().map_or(1, |c| c.get());
        CORES.store(n, Ordering::Relaxed);
    }
    n == 1
}

/// Exponential-ish backoff: spin briefly, then yield, then sleep.
#[derive(Debug, Default)]
pub struct Backoff {
    rounds: u32,
}

impl Backoff {
    /// A fresh backoff.
    pub fn new() -> Self {
        Self::default()
    }

    /// Waits an amount appropriate to how long we have been waiting.
    pub fn wait(&mut self) {
        self.rounds = self.rounds.saturating_add(1);
        if self.rounds < 16 && !single_core() {
            std::hint::spin_loop();
        } else if self.rounds < 256 {
            std::thread::yield_now();
        } else {
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
    }

    /// Resets after progress was made.
    pub fn reset(&mut self) {
        self.rounds = 0;
    }
}

/// Polls `step` until it yields a value, backing off between attempts and
/// aborting with an [`Interrupt`] when the control plane changes state.
///
/// `seen_epoch` is the caller's cached control epoch (see
/// [`ControlPlane::poll`]).
///
/// # Errors
///
/// Returns the interrupt published on the control plane.
pub fn wait_for<T>(
    ctrl: &ControlPlane,
    seen_epoch: &mut u64,
    step: impl FnMut() -> Result<Option<T>, Interrupt>,
) -> Result<T, Interrupt> {
    wait_for_deadline(ctrl, seen_epoch, None, step)
}

/// Like [`wait_for`], but gives up with [`Interrupt::FabricTimeout`] once
/// `timeout` elapses with no progress (when `Some`). This is the
/// receive-side half of the fault model: a peer silenced by injected
/// faults (or a real hang) must not pin this thread forever — the timeout
/// converts the silence into a recovery request.
///
/// The deadline clock starts at the first unproductive attempt, so a
/// ready value never pays for an `Instant::now`.
///
/// # Errors
///
/// Returns the interrupt published on the control plane, or
/// [`Interrupt::FabricTimeout`] on deadline expiry.
pub fn wait_for_deadline<T>(
    ctrl: &ControlPlane,
    seen_epoch: &mut u64,
    timeout: Option<std::time::Duration>,
    mut step: impl FnMut() -> Result<Option<T>, Interrupt>,
) -> Result<T, Interrupt> {
    let mut backoff = Backoff::new();
    let mut deadline: Option<std::time::Instant> = None;
    loop {
        if let Some(v) = step()? {
            return Ok(v);
        }
        if let Some(intr) = ctrl.poll(seen_epoch) {
            return Err(intr);
        }
        if let Some(limit) = timeout {
            let now = std::time::Instant::now();
            match deadline {
                None => deadline = Some(now + limit),
                Some(d) if now >= d => return Err(Interrupt::FabricTimeout),
                Some(_) => {}
            }
        }
        backoff.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::Status;
    use crate::ids::MtxId;

    #[test]
    fn wait_for_returns_value_when_ready() {
        let ctrl = ControlPlane::new(1);
        let mut seen = ctrl.epoch();
        let mut tries = 0;
        let v = wait_for(&ctrl, &mut seen, || {
            tries += 1;
            Ok(if tries >= 3 { Some(42) } else { None })
        })
        .unwrap();
        assert_eq!(v, 42);
        assert_eq!(tries, 3);
    }

    #[test]
    fn wait_for_aborts_on_interrupt() {
        let ctrl = ControlPlane::new(1);
        let mut seen = ctrl.epoch();
        ctrl.publish(Status::Recovering { boundary: MtxId(2) });
        let r: Result<(), _> = wait_for(&ctrl, &mut seen, || Ok(None));
        assert_eq!(r.unwrap_err(), Interrupt::Recovery { boundary: MtxId(2) });
    }

    #[test]
    fn wait_for_propagates_step_errors() {
        let ctrl = ControlPlane::new(1);
        let mut seen = ctrl.epoch();
        let r: Result<(), _> = wait_for(&ctrl, &mut seen, || Err(Interrupt::ChannelDown));
        assert_eq!(r.unwrap_err(), Interrupt::ChannelDown);
    }

    #[test]
    fn wait_for_deadline_times_out_on_silence() {
        let ctrl = ControlPlane::new(1);
        let mut seen = ctrl.epoch();
        let started = std::time::Instant::now();
        let r: Result<(), _> = wait_for_deadline(
            &ctrl,
            &mut seen,
            Some(std::time::Duration::from_millis(10)),
            || Ok(None),
        );
        assert_eq!(r.unwrap_err(), Interrupt::FabricTimeout);
        assert!(started.elapsed() >= std::time::Duration::from_millis(10));
    }

    #[test]
    fn wait_for_deadline_prefers_data_and_interrupts() {
        let ctrl = ControlPlane::new(1);
        let mut seen = ctrl.epoch();
        let v = wait_for_deadline(
            &ctrl,
            &mut seen,
            Some(std::time::Duration::from_secs(10)),
            || Ok(Some(7)),
        )
        .unwrap();
        assert_eq!(v, 7);
        ctrl.publish(Status::Terminating { last: None });
        let r: Result<(), _> = wait_for_deadline(
            &ctrl,
            &mut seen,
            Some(std::time::Duration::from_secs(10)),
            || Ok(None),
        );
        assert_eq!(r.unwrap_err(), Interrupt::Terminate);
    }

    #[test]
    fn backoff_rounds_accumulate() {
        let mut b = Backoff::new();
        for _ in 0..20 {
            b.wait();
        }
        b.reset();
        // After reset the next waits are cheap spins again (no panic, no
        // sleep): just exercise the path.
        b.wait();
    }
}
