//! A deadline on every timed run. When one expires the run counts as
//! failed; the watchdog prints the workload, run index, seed and elapsed
//! time, writes out the spans collected so far, and ends the process
//! with a nonzero code, so a hung runtime can never stall the benchmark.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Exit code of a run the watchdog ended.
const EXIT_DEADLINE: i32 = 3;

/// Runs attempted and failed so far, for the watchdog's report.
pub static ATTEMPTED: AtomicU64 = AtomicU64::new(0);
pub static FAILED: AtomicU64 = AtomicU64::new(0);

struct Armed {
    what: String,
    run: u64,
    started: Instant,
    deadline: Duration,
}

#[derive(Default)]
struct State {
    armed: Option<Armed>,
    stop: bool,
}

/// The watchdog thread and its shared deadline slot.
pub struct Watchdog {
    shared: Arc<(Mutex<State>, Condvar)>,
    thread: Option<JoinHandle<()>>,
}

/// Disarms the deadline when dropped.
pub struct Guard<'a> {
    dog: &'a Watchdog,
}

impl Watchdog {
    /// Starts the watchdog for one benchmark invocation; `stem` names the
    /// span file written on expiry.
    pub fn start(workload: String, seed: u64, stem: String) -> Self {
        let shared = Arc::new((Mutex::new(State::default()), Condvar::new()));
        let theirs = Arc::clone(&shared);
        let thread = std::thread::spawn(move || {
            let (lock, cond) = &*theirs;
            let mut st = lock.lock().expect("watchdog state poisoned");
            loop {
                if st.stop {
                    return;
                }
                let wait = match &st.armed {
                    None => Duration::from_secs(3600),
                    Some(a) => {
                        let elapsed = a.started.elapsed();
                        if elapsed >= a.deadline {
                            expire(&workload, seed, &stem, a, elapsed);
                        }
                        a.deadline - elapsed
                    }
                };
                st = cond
                    .wait_timeout(st, wait)
                    .expect("watchdog state poisoned")
                    .0;
            }
        });
        Watchdog {
            shared,
            thread: Some(thread),
        }
    }

    /// Arms a deadline for the run `what` (index `run`); it is disarmed
    /// when the guard drops.
    pub fn arm(&self, what: &str, run: u64, deadline: Duration) -> Guard<'_> {
        let (lock, cond) = &*self.shared;
        lock.lock().expect("watchdog state poisoned").armed = Some(Armed {
            what: what.to_owned(),
            run,
            started: Instant::now(),
            deadline,
        });
        cond.notify_one();
        Guard { dog: self }
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Ok(mut st) = self.dog.shared.0.lock() {
            st.armed = None;
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        let (lock, cond) = &*self.shared;
        if let Ok(mut st) = lock.lock() {
            st.stop = true;
        }
        cond.notify_one();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn expire(workload: &str, seed: u64, stem: &str, a: &Armed, elapsed: Duration) -> ! {
    // The hung run is not tallied yet: count it as attempted and failed.
    let attempted = ATTEMPTED.load(Ordering::Relaxed) + 1;
    let failed = FAILED.load(Ordering::Relaxed) + 1;
    eprintln!(
        "watchdog: deadline of {:.1} s expired: workload {workload}, run {} ({}), seed {seed}, \
         elapsed {:.3} s; attempted {attempted}, failed {failed} (failed_frac {:.4})",
        a.deadline.as_secs_f64(),
        a.run,
        a.what,
        elapsed.as_secs_f64(),
        failed as f64 / attempted as f64,
    );
    crate::spans::header(format!(
        "watchdog_expired workload={workload} run={} what={} seed={seed} elapsed_s={:.3}",
        a.run,
        a.what,
        elapsed.as_secs_f64()
    ));
    match crate::spans::write_out(stem) {
        Ok(path) => eprintln!("watchdog: spans written to {}", path.display()),
        Err(e) => eprintln!("watchdog: could not write spans: {e}"),
    }
    std::process::exit(EXIT_DEADLINE);
}
