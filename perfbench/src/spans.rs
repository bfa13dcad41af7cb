//! The benchmark's own spans: one per call into a runtime layer (set-up,
//! sequential reference, `MtxSystem::new`, loop run, verification, each
//! microtiming). Spans live in memory and are written out as JSON lines
//! when the process ends, normally or by the watchdog.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call.
struct Span {
    id: u64,
    /// Enclosing span, 0 at top level.
    parent: u64,
    /// The loop run (or set-up round) the span belongs to; spans of one
    /// run share it.
    run: u64,
    name: String,
    start_ns: u64,
    end_ns: u64,
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    /// Header lines (run parameters) written before the spans.
    header: Vec<String>,
}

static RECORDER: Mutex<Option<Recorder>> = Mutex::new(None);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static CURRENT_RUN: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn with_recorder<T>(f: impl FnOnce(&mut Recorder) -> T) -> T {
    let mut guard = RECORDER.lock().expect("span recorder poisoned");
    let rec = guard.get_or_insert_with(|| Recorder {
        origin: Instant::now(),
        spans: Vec::new(),
        header: Vec::new(),
    });
    f(rec)
}

/// Starts the clock all span timestamps are relative to.
pub fn init() {
    with_recorder(|_| ());
}

/// Adds a `key=value` line to the header of the span file.
pub fn header(line: String) {
    with_recorder(|r| r.header.push(line));
}

/// Tags the spans that follow with a new run id and returns it.
pub fn next_run() -> u64 {
    CURRENT_RUN.fetch_add(1, Ordering::Relaxed) + 1
}

/// Runs `f` inside a span called `name`.
pub fn span<T>(name: &str, f: impl FnOnce() -> T) -> T {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    let run = CURRENT_RUN.load(Ordering::Relaxed);
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    STACK.with(|s| s.borrow_mut().pop());
    with_recorder(|r| {
        let origin = r.origin;
        let ns = |t: Instant| t.saturating_duration_since(origin).as_nanos() as u64;
        r.spans.push(Span {
            id,
            parent,
            run,
            name: name.to_owned(),
            start_ns: ns(start),
            end_ns: ns(end),
        });
    });
    out
}

/// Directory the span files go to, relative to the working directory
/// (the repository checkout).
const OUT_DIR: &str = ".bench_out";

/// Writes the header and every span recorded so far to
/// `.bench_out/<stem>.spans.jsonl`, returning the path.
pub fn write_out(stem: &str) -> std::io::Result<PathBuf> {
    let text = with_recorder(|r| {
        let mut text = String::new();
        for line in &r.header {
            let _ = writeln!(text, "# {line}");
        }
        for s in &r.spans {
            let _ = writeln!(
                text,
                "{{\"id\":{},\"parent\":{},\"run\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.run, s.name, s.start_ns, s.end_ns
            );
        }
        text
    });
    std::fs::create_dir_all(OUT_DIR)?;
    let path = PathBuf::from(OUT_DIR).join(format!("{stem}.spans.jsonl"));
    std::fs::write(&path, text)?;
    Ok(path)
}
