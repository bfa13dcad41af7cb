//! COA page runs on the real runtime.
//!
//! A COA miss fetches the faulting page plus the following pages the
//! worker's cache does not hold, and the next faults on those pages are
//! served locally under the cache's epoch rule. A copy served that way
//! can lag the committed image (the window every COA fetch has), which
//! value validation catches as a conflict. This suite checks that page
//! runs do not turn that window into extra aborts on the shipped
//! Table-2 plans, and that the prefetched pages are actually used.

use dsmtx_analyze::{analyze, attribute, cause_counts};
use dsmtx_obs::AbortCause;
use dsmtx_paradigms::set_trace_default;
use dsmtx_workloads::{all_kernels, Scale};

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// Recoveries of the planted-unknown parser at `Scale::test()` before
/// page runs, at every shard count: its one planted conflict.
const PLANTED_PARSER_RECOVERIES: u64 = 1;

fn unpredicted(spans: &[dsmtx_obs::MtxSpan]) -> u64 {
    cause_counts(spans)
        .iter()
        .find(|(c, _)| *c == AbortCause::Unpredicted)
        .map_or(0, |(_, n)| *n)
}

/// Every Table-2 kernel at 1, 2 and 4 try-commit shards runs without a
/// recovery, as it did with one-page COA trips, and no abort anywhere is
/// `unpredicted`. The runs also serve some faults from prefetched
/// copies, so the check is not vacuous.
#[test]
fn table2_kernels_gain_no_recoveries_from_page_runs() {
    let prev = set_trace_default(true);
    let mut cache_hits = 0;
    for k in all_kernels() {
        let name = k.info().name;
        let mut plan = k.plan(Scale::test()).unwrap();
        let analysis = analyze(&mut plan);
        for shards in SHARD_COUNTS {
            let report = k.run_reported(2, shards, Scale::test()).unwrap().report;
            assert_eq!(report.recoveries, 0, "{name}@{shards}: recoveries");
            let mut spans = report.spans();
            attribute(&mut spans, &analysis.report);
            assert_eq!(
                unpredicted(&spans),
                0,
                "{name}@{shards}: unpredicted aborts"
            );
            cache_hits += report.valplane.cache_hits;
        }
    }

    let parser = dsmtx_workloads::parser::Parser;
    let mut plan = parser.plan_with_planted_unknown(Scale::test()).unwrap();
    let lint = analyze(&mut plan);
    for shards in SHARD_COUNTS {
        let report = parser
            .run_reported_planted_unknown(2, shards, Scale::test())
            .unwrap()
            .report;
        assert!(
            report.recoveries <= PLANTED_PARSER_RECOVERIES,
            "parser(planted)@{shards}: {} recoveries",
            report.recoveries
        );
        let mut spans = report.spans();
        attribute(&mut spans, &lint.report);
        assert_eq!(unpredicted(&spans), 0, "parser(planted)@{shards}");
    }
    set_trace_default(prev);

    assert!(
        cache_hits > 0,
        "no fault was served from a prefetched page: page runs are inert"
    );
}
