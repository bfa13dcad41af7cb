//! The DSMTX benchmark: end-to-end and per-layer metrics of the real
//! runtime on three workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table2_e2e --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` the timed, untraced runs give the end-to-end metrics.
//! With `--trace 1` a shorter untraced pass is followed by reported and
//! traced runs, the recovery probe, a second scale for the fixed/per-MTX
//! fit, and the layer microtimings; the per-layer metrics come from
//! those. Every run's
//! output is checked against the sequential run. The last line of
//! standard output is one JSON object with the result; `NOTE.md` beside
//! this crate explains the workloads and metrics.

mod layers;
mod loops;
mod spans;
mod stats;
mod table2;
mod watchdog;
mod workload;

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use dsmtx::RunReport;
use dsmtx_obs::Histogram;

use crate::layers::Micro;
use crate::loops::{Shape, SynthLoop};
use crate::spans::span;
use crate::stats::{geomean, median, quantile, ratio};
use crate::table2::Table2;
use crate::watchdog::{Watchdog, ATTEMPTED, FAILED};
use crate::workload::{Reported, Workload};

/// The workloads. `BENCHMARK.json` lists the first two; `NOTE.md` says
/// why `misspec_recovery` is left out.
const WORKLOADS: [&str; 3] = ["table2_e2e", "scatter_validate", "misspec_recovery"];
/// Set-ups per invocation; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Deadline of one timed run; a healthy run takes milliseconds.
const RUN_DEADLINE: Duration = Duration::from_secs(20);
/// Rounds of reported, traced and second-scale runs in the traced pass.
const LAYER_ROUNDS: usize = 5;

/// Iterations of every loop of a workload (the first scale; the traced
/// pass adds 4×).
fn iterations(workload: &str) -> u64 {
    if workload == "table2_e2e" {
        512
    } else {
        1024
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => {
                trace = Some(match num()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Sets up `workload` at `n` iterations per loop: input generation, the
/// sequential reference and `MtxSystem::new`.
fn setup(workload: &str, n: u64, seed: u64) -> Result<Box<dyn Workload>, String> {
    span("setup", || -> Result<Box<dyn Workload>, String> {
        Ok(match workload {
            "table2_e2e" => Box::new(Table2::setup(n, seed)?),
            "scatter_validate" => Box::new(SynthLoop::setup(Shape::Scatter, n, seed)?),
            _ => Box::new(SynthLoop::setup(Shape::Misspec, n, seed)?),
        })
    })
}

/// One metric line of the result.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Samples behind a percentile or median, when it is one.
    samples: Option<usize>,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        samples: None,
    }
}

impl Metric {
    fn samples(mut self, n: usize) -> Self {
        self.samples = Some(n);
        self
    }
}

/// Walls of the timed rounds, in seconds, per loop.
struct Timed {
    seq: Vec<Vec<f64>>,
    par: Vec<Vec<f64>>,
    rounds: usize,
}

/// The median of each loop's samples.
fn medians(v: &[Vec<f64>]) -> Vec<f64> {
    v.iter().map(|s| median(s)).collect()
}

/// Runs one checked, deadline-guarded run; counts it, and its failure
/// if any, which it prints.
fn guarded<T>(
    dog: &Watchdog,
    args: &Args,
    what: &str,
    f: impl FnOnce() -> Result<T, String>,
) -> Option<T> {
    let run = spans::next_run();
    let res = {
        let _armed = dog.arm(what, run, RUN_DEADLINE);
        f()
    };
    ATTEMPTED.fetch_add(1, Ordering::Relaxed);
    match res {
        Ok(v) => Some(v),
        Err(e) => {
            FAILED.fetch_add(1, Ordering::Relaxed);
            eprintln!(
                "FAILED: workload {} run {run} ({what}) seed {}: {e}",
                args.workload, args.seed
            );
            None
        }
    }
}

/// A sequential then a DSMTX run of every loop, round after round, until
/// `seconds` have passed (at least one round).
fn timed_rounds(w: &dyn Workload, dog: &Watchdog, args: &Args, seconds: f64) -> Timed {
    let parts = w.parts().len();
    let mut t = Timed {
        seq: vec![Vec::new(); parts],
        par: vec![Vec::new(); parts],
        rounds: 0,
    };
    let start = Instant::now();
    while t.rounds == 0 || start.elapsed().as_secs_f64() < seconds {
        for p in 0..parts {
            let name = &w.parts()[p].name;
            if let Some(d) = guarded(dog, args, &format!("sequential {name}"), || w.seq(p)) {
                t.seq[p].push(d.as_secs_f64());
            }
            if let Some(d) = guarded(dog, args, &format!("dsmtx {name}"), || w.par(p)) {
                t.par[p].push(d.as_secs_f64());
            }
        }
        t.rounds += 1;
    }
    t
}

fn end_to_end(w: &dyn Workload, t: &Timed, setup_s: &[f64]) -> Vec<Metric> {
    let n = w.iterations() as f64;
    let par_runs: usize = t.par.iter().map(Vec::len).sum();
    let par_total: f64 = t.par.iter().flatten().sum();
    let (med_seq, med_par) = (medians(&t.seq), medians(&t.par));
    let speedups: Vec<f64> = med_seq
        .iter()
        .zip(&med_par)
        .map(|(s, p)| ratio(*s, *p))
        .collect();
    let p90: f64 = t.par.iter().map(|v| quantile(v, 0.9)).sum();
    for (p, part) in w.parts().iter().enumerate() {
        println!(
            "loop {}: sequential p50 {:.3} ms, dsmtx p50 {:.3} ms, speedup {:.4} (runs {})",
            part.name,
            med_seq[p] * 1e3,
            med_par[p] * 1e3,
            speedups[p],
            t.par[p].len()
        );
    }
    let per_loop = t.par.iter().map(Vec::len).min().unwrap_or(0);
    vec![
        metric("mtx_per_s", ratio(n * par_runs as f64, par_total), "1/s").samples(par_runs),
        metric("speedup_vs_seq", geomean(&speedups), "x").samples(per_loop),
        metric("run_ms_p50", med_par.iter().sum::<f64>() * 1e3, "ms").samples(per_loop),
        metric("run_ms_p90", p90 * 1e3, "ms").samples(per_loop),
        metric("setup_s", median(setup_s), "s").samples(setup_s.len()),
    ]
}

/// Sums of the runtime's reports over a set of runs.
#[derive(Default)]
struct Ledger {
    iterations: u64,
    runs: u64,
    items: u64,
    bytes: u64,
    packets: u64,
    recv_stalls: u64,
    coa_pages: u64,
    hits: u64,
    misses: u64,
    records_pre: u64,
    filtered: u64,
    block_records: u64,
    blocks: u64,
    val_bytes: u64,
    conflicts: u64,
    recoveries: u64,
    busy: Vec<f64>,
    recv_stall_us: Histogram,
    dwell_us: Histogram,
    verdict_us: Histogram,
    replay_lag_us: Histogram,
}

impl Ledger {
    fn add(&mut self, r: &RunReport, iterations: u64) {
        let v = &r.valplane;
        self.iterations += iterations;
        self.runs += 1;
        self.items += r.stats.items();
        self.bytes += r.stats.bytes();
        self.packets += r.stats.packets();
        self.recv_stalls += r.stats.recv_stall_us().count();
        self.coa_pages += r.coa_pages_served;
        self.hits += v.cache_hits;
        self.misses += v.cache_misses + v.cache_stale;
        self.records_pre += v.records_pre;
        self.filtered += v.records_filtered;
        self.block_records += v.block_records;
        self.blocks += v.blocks;
        self.val_bytes += v.bytes_post;
        self.conflicts += r.validation_conflicts;
        self.recoveries += r.recoveries;
        self.recv_stall_us.merge(r.stats.recv_stall_us());
        self.dwell_us.merge(r.stats.queue_dwell_us());
        let mut busiest = 0.0f64;
        for s in &r.shard_stats {
            self.verdict_us.merge(&s.verdict_latency);
            self.replay_lag_us.merge(&s.replay_lag);
            busiest = busiest.max(s.busy_ppm as f64 / 1e6);
        }
        self.busy.push(busiest);
    }

    fn per_mtx(&self, count: u64) -> f64 {
        ratio(count as f64, self.iterations as f64)
    }
}

/// The per-MTX tax terms: (name, µs per MTX), each a microtimed unit
/// cost times a per-MTX count from the reports.
fn tax_terms(m: &Micro, l: &Ledger) -> Vec<(&'static str, f64)> {
    vec![
        ("wakeup", l.per_mtx(l.recv_stalls) * m.wakeup_us_p50),
        ("stream", l.per_mtx(l.items) * m.stream_ns_per_item / 1e3),
        (
            "filter",
            l.per_mtx(l.filtered + l.block_records) * m.filter_ns_per_record / 1e3,
        ),
        (
            "pack_unpack",
            l.per_mtx(l.block_records) * (m.pack_ns_per_record + m.unpack_ns_per_record) / 1e3,
        ),
        // Try-commit replays every packed record into its speculative
        // image.
        ("replay", l.per_mtx(l.block_records) * m.spec_rw_ns / 1e3),
        (
            "coa",
            (l.per_mtx(l.misses) * m.coa_miss_ns + l.per_mtx(l.hits) * m.coa_hit_ns) / 1e3,
        ),
        // Each surviving store sits in one validation block and in the
        // commit block, each load in one validation block, so half the
        // packed records bound the committed words from above.
        (
            "commit",
            l.per_mtx(l.block_records) / 2.0 * m.commit_ns_per_word / 1e3,
        ),
        // Three barrier generations per recovery round (§4.3).
        ("barrier", l.per_mtx(3 * l.recoveries) * m.barrier_us),
    ]
}

/// The fixed cost per loop run and the per-MTX tax, net of the
/// sequential work, from medians at `n` and `4n` iterations.
fn two_scale_fit(
    parts: usize,
    n: u64,
    small: (&[f64], &[f64]),
    large: (&[f64], &[f64]),
) -> (f64, f64) {
    let excess =
        |seq: &[f64], par: &[f64]| -> f64 { par.iter().zip(seq).map(|(p, s)| p - s).sum::<f64>() };
    let (e1, e4) = (excess(small.0, small.1), excess(large.0, large.1));
    let mtxs = (parts as u64 * n) as f64;
    let tax_s = (e4 - e1) / (3.0 * mtxs);
    let fixed_s = (e1 - tax_s * mtxs) / parts as f64;
    (fixed_s * 1e3, tax_s * 1e6)
}

/// The §4.3 recovery layer, measured on the `misspec_recovery` loop
/// whatever the workload: the listed workloads never misspeculate, and a
/// recovery-bound workload is too sensitive to the host's wake-up
/// latency to hold an end-to-end bound (see `NOTE.md`).
struct Recovery {
    /// Recoveries of one run (exact).
    recoveries: u64,
    /// committed ÷ (committed + recovered iterations).
    success_ratio: f64,
    /// (median wall − median wall without misspeculation) ÷ recoveries.
    round_ms: f64,
    /// Runs behind each median.
    runs: usize,
}

fn recovery_probe(dog: &Watchdog, args: &Args) -> Result<Recovery, String> {
    let probe = span("setup", || {
        SynthLoop::setup(Shape::Misspec, iterations("misspec_recovery"), args.seed)
    })?;
    let (mut with, mut without) = (Vec::new(), Vec::new());
    let (mut committed, mut recovered, mut recoveries) = (0, 0, 0);
    for _ in 0..LAYER_ROUNDS {
        if let Some(r) = guarded(dog, args, "recovery probe", || probe.run(false, true)) {
            with.push(r.wall.as_secs_f64());
            committed += r.report.committed;
            recovered += r.report.recovered_iterations;
            recoveries = r.report.recoveries;
        }
        let what = "recovery probe, misspeculation off";
        if let Some(r) = guarded(dog, args, what, || probe.run(false, false)) {
            without.push(r.wall.as_secs_f64());
        }
    }
    Ok(Recovery {
        recoveries,
        success_ratio: ratio(committed as f64, (committed + recovered) as f64),
        round_ms: ratio((median(&with) - median(&without)) * 1e3, recoveries as f64),
        runs: with.len().min(without.len()),
    })
}

/// The traced pass: everything the per-layer metrics need.
fn per_layer(w: &dyn Workload, dog: &Watchdog, args: &Args) -> Result<Vec<Metric>, String> {
    let parts = w.parts().len();
    let n = w.iterations();
    let timed = timed_rounds(w, dog, args, args.seconds as f64 / 2.0);

    // Reported runs, untraced and traced interleaved.
    let mut plain = Ledger::default();
    let mut trace_dropped = 0;
    let mut plain_wall = vec![Vec::new(); parts];
    let mut traced_wall = vec![Vec::new(); parts];
    let mut spans_all = Vec::new();
    for _ in 0..LAYER_ROUNDS {
        for p in 0..parts {
            let name = &w.parts()[p].name;
            let run = |trace: bool| -> Option<Reported> {
                guarded(dog, args, &format!("reported trace={trace} {name}"), || {
                    w.reported(p, trace)
                })
            };
            if let Some(r) = run(false) {
                plain_wall[p].push(r.wall.as_secs_f64());
                plain.add(&r.report, n);
            }
            if let Some(r) = run(true) {
                traced_wall[p].push(r.wall.as_secs_f64());
                spans_all.extend(span("RunReport::spans", || r.report.spans()));
                trace_dropped += r.report.trace_dropped;
            }
        }
    }
    let recovery = recovery_probe(dog, args)?;

    // Second scale for the fixed / per-MTX split.
    let big = setup(&args.workload, 4 * n, args.seed)?;
    let mut big_seq = vec![Vec::new(); parts];
    let mut big_par = vec![Vec::new(); parts];
    for _ in 0..LAYER_ROUNDS {
        for p in 0..parts {
            let name = &big.parts()[p].name;
            if let Some(d) = guarded(dog, args, &format!("sequential 4n {name}"), || big.seq(p)) {
                big_seq[p].push(d.as_secs_f64());
            }
            if let Some(d) = guarded(dog, args, &format!("dsmtx 4n {name}"), || big.par(p)) {
                big_par[p].push(d.as_secs_f64());
            }
        }
    }
    let (med_seq, med_par) = (medians(&timed.seq), medians(&timed.par));
    let (fixed_ms, tax_us) = two_scale_fit(
        parts,
        n,
        (&med_seq, &med_par),
        (&medians(&big_seq), &medians(&big_par)),
    );

    let parties = w.parts().iter().map(|p| p.threads).max().unwrap_or(1);
    let micro = span("microtimings", || layers::measure(parties, args.seed));
    let terms = tax_terms(&micro, &plain);
    let explained: f64 = terms.iter().map(|(_, us)| us).sum();
    println!(
        "reconciliation: per-MTX tax {tax_us:.3} us, explained {explained:.3} us = {}",
        terms
            .iter()
            .map(|(name, us)| format!("{name} {us:.3}"))
            .collect::<Vec<_>>()
            .join(" + ")
    );

    let span_p50 = |f: &dyn Fn(&dsmtx_obs::MtxSpan) -> Option<u64>| -> (f64, usize) {
        let v: Vec<f64> = spans_all.iter().filter_map(f).map(|x| x as f64).collect();
        (median(&v), v.len())
    };
    let sum_med = |v: &[Vec<f64>]| medians(v).iter().sum::<f64>();
    let seq_per_iter = med_seq.iter().sum::<f64>() / (parts as u64 * n) as f64;
    let attempted = ATTEMPTED.load(Ordering::Relaxed);
    let failed = FAILED.load(Ordering::Relaxed);
    let rs = plain.runs as usize;
    let l = &plain;

    let (qw, qw_n) = span_p50(&|s| Some(s.queue_wait_us()));
    let (ex, ex_n) = span_p50(&|s| Some(s.exec_us()));
    let (fl, fl_n) = span_p50(&|s| Some(s.flush_us()));
    let (vl, vl_n) = span_p50(&|s| s.validation_lag_us());
    let (ch, ch_n) = span_p50(&|s| s.commit_hold_us());
    let hist = |h: &Histogram, q: f64| h.quantile(q) as f64;
    let hist_n = |h: &Histogram| h.count() as usize;
    Ok(vec![
        metric(
            "failed_frac",
            ratio(failed as f64, attempted as f64),
            "ratio",
        )
        .samples(attempted as usize),
        metric("fabric.wakeup_us_p50", micro.wakeup_us_p50, "us").samples(micro.wakeup_samples),
        metric("fabric.wakeup_us_p99", micro.wakeup_us_p99, "us").samples(micro.wakeup_samples),
        metric("fabric.stream_ns_per_item", micro.stream_ns_per_item, "ns"),
        metric("fabric.barrier_us", micro.barrier_us, "us"),
        metric("fabric.items_per_mtx", l.per_mtx(l.items), "count").samples(rs),
        metric("fabric.bytes_per_mtx", l.per_mtx(l.bytes), "B").samples(rs),
        metric("fabric.packets_per_mtx", l.per_mtx(l.packets), "count").samples(rs),
        metric(
            "fabric.mean_batch",
            ratio(l.items as f64, l.packets as f64),
            "count",
        )
        .samples(rs),
        metric(
            "fabric.recv_stall_us_p50",
            hist(&l.recv_stall_us, 0.5),
            "us",
        )
        .samples(hist_n(&l.recv_stall_us)),
        metric(
            "fabric.recv_stall_us_p99",
            hist(&l.recv_stall_us, 0.99),
            "us",
        )
        .samples(hist_n(&l.recv_stall_us)),
        metric("fabric.queue_dwell_us_p99", hist(&l.dwell_us, 0.99), "us")
            .samples(hist_n(&l.dwell_us)),
        metric("mem.coa_hit_ns", micro.coa_hit_ns, "ns"),
        metric("mem.coa_miss_ns", micro.coa_miss_ns, "ns"),
        metric("mem.commit_ns_per_word", micro.commit_ns_per_word, "ns"),
        metric("mem.spec_rw_ns", micro.spec_rw_ns, "ns"),
        metric("coa.pages_per_mtx", l.per_mtx(l.coa_pages), "count").samples(rs),
        metric(
            "coa.cache_hit_ratio",
            ratio(l.hits as f64, (l.hits + l.misses) as f64),
            "ratio",
        )
        .samples(rs),
        metric(
            "valplane.filter_ns_per_record",
            micro.filter_ns_per_record,
            "ns",
        ),
        metric(
            "valplane.pack_ns_per_record",
            micro.pack_ns_per_record,
            "ns",
        ),
        metric(
            "valplane.unpack_ns_per_record",
            micro.unpack_ns_per_record,
            "ns",
        ),
        metric(
            "valplane.records_per_mtx",
            l.per_mtx(l.block_records),
            "count",
        )
        .samples(rs),
        metric("valplane.bytes_per_mtx", l.per_mtx(l.val_bytes), "B").samples(rs),
        metric(
            "valplane.filtered_ratio",
            ratio(l.filtered as f64, l.records_pre as f64),
            "ratio",
        )
        .samples(rs),
        metric(
            "valplane.block_fill",
            ratio(l.block_records as f64, l.blocks as f64),
            "count",
        )
        .samples(rs),
        metric("trycommit.verdict_us_p50", hist(&l.verdict_us, 0.5), "us")
            .samples(hist_n(&l.verdict_us)),
        metric("trycommit.verdict_us_p99", hist(&l.verdict_us, 0.99), "us")
            .samples(hist_n(&l.verdict_us)),
        metric(
            "trycommit.replay_lag_us_p99",
            hist(&l.replay_lag_us, 0.99),
            "us",
        )
        .samples(hist_n(&l.replay_lag_us)),
        metric("trycommit.busy_frac", median(&l.busy), "ratio").samples(l.busy.len()),
        metric(
            "trycommit.conflicts_per_kmtx",
            l.per_mtx(l.conflicts) * 1e3,
            "count",
        )
        .samples(rs),
        metric("commit.recoveries", recovery.recoveries as f64, "count"),
        metric("commit.spec_success_ratio", recovery.success_ratio, "ratio").samples(recovery.runs),
        metric("commit.recovery_round_ms", recovery.round_ms, "ms").samples(recovery.runs),
        metric("control.poll_ns", micro.poll_ns, "ns"),
        metric("core.fixed_ms", fixed_ms, "ms"),
        metric("core.mtx_tax_us", tax_us, "us"),
        metric(
            "core.tax_unexplained_frac",
            ratio(tax_us - explained, tax_us),
            "ratio",
        ),
        metric("span.queue_wait_us_p50", qw, "us").samples(qw_n),
        metric("span.exec_us_p50", ex, "us").samples(ex_n),
        metric("span.flush_us_p50", fl, "us").samples(fl_n),
        metric("span.validation_lag_us_p50", vl, "us").samples(vl_n),
        metric("span.commit_hold_us_p50", ch, "us").samples(ch_n),
        metric(
            "obs.trace_overhead_ratio",
            ratio(sum_med(&traced_wall), sum_med(&plain_wall)),
            "ratio",
        )
        .samples(traced_wall.iter().map(Vec::len).sum()),
        metric("obs.trace_dropped", trace_dropped as f64, "count"),
        metric("workloads.seq_us_per_iter", seq_per_iter * 1e6, "us").samples(timed.rounds),
    ])
}

fn json_result(metrics: &[Metric]) -> String {
    let attempted = ATTEMPTED.load(Ordering::Relaxed);
    let failed = FAILED.load(Ordering::Relaxed);
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    spans::init();
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let dog = Watchdog::start(args.workload.clone(), args.seed, stem.clone());
    let n = iterations(&args.workload);
    let nproc = std::thread::available_parallelism().map_or(1, |c| c.get());

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        spans::next_run();
        let t = Instant::now();
        match setup(&args.workload, n, args.seed) {
            Ok(w) => built = Some(w),
            Err(e) => {
                eprintln!("perfbench: set-up of {} failed: {e}", args.workload);
                std::process::exit(1);
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let w = built.expect("at least one set-up");

    let threads: Vec<String> = w
        .parts()
        .iter()
        .map(|p| format!("{}:{}", p.name, p.threads))
        .collect();
    let record = format!(
        "workload={} seed={} seconds={} trace={} nproc={nproc} replicas={} shards={} \
         iterations={n} threads_per_run={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        loops::REPLICAS,
        w.shards(),
        threads.join(",")
    );
    println!("record: {record}");
    spans::header(record);

    let metrics = if args.trace {
        match per_layer(w.as_ref(), &dog, &args) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("perfbench: traced pass failed: {e}");
                std::process::exit(1);
            }
        }
    } else {
        let timed = timed_rounds(w.as_ref(), &dog, &args, args.seconds as f64);
        let runs = format!(
            "rounds={} dsmtx_runs={} sequential_runs={}",
            timed.rounds,
            timed.par.iter().map(Vec::len).sum::<usize>(),
            timed.seq.iter().map(Vec::len).sum::<usize>()
        );
        println!("runs: {runs}");
        spans::header(runs);
        end_to_end(w.as_ref(), &timed, &setup_s)
    };
    let attempted = ATTEMPTED.load(Ordering::Relaxed);
    let failed = FAILED.load(Ordering::Relaxed);
    println!(
        "failed_frac = {:.6} ratio (failed {failed} of {attempted} runs)",
        ratio(failed as f64, attempted as f64)
    );
    for m in &metrics {
        match m.samples {
            Some(s) => println!("{} = {} {} (samples {s})", m.name, m.value, m.unit),
            None => println!("{} = {} {}", m.name, m.value, m.unit),
        }
    }
    if let Err(e) = spans::write_out(&stem) {
        eprintln!("perfbench: could not write spans: {e}");
    }
    drop(dog);
    println!("{}", json_result(&metrics));
}
