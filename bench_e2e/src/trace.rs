//! Spans recorded from outside the program: one per call into a facade
//! function, kept in memory and summarised (or dumped) after the measured
//! window.

use std::time::Instant;

use crate::stats;

/// The facade calls a workload may span. A family's metrics are named
/// `<family>.calls`, `.busy_ms`, `.share`, `.p50_us`, `.p99_us`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Enqueue,
    ReportTelemetry,
    Schedule,
    Execute,
    Tick,
    Recover,
    RunScenario,
}

impl Family {
    pub const ALL: [Family; 7] = [
        Family::Enqueue,
        Family::ReportTelemetry,
        Family::Schedule,
        Family::Execute,
        Family::Tick,
        Family::Recover,
        Family::RunScenario,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Family::Enqueue => "core.enqueue",
            Family::ReportTelemetry => "core.report_telemetry",
            Family::Schedule => "core.schedule",
            Family::Execute => "core.execute",
            Family::Tick => "core.tick",
            Family::Recover => "core.recover",
            Family::RunScenario => "loadgen.run_scenario",
        }
    }
}

/// One recorded call: which facade function, for which request (the job's
/// position in the stream; the wave number for `tick`), when it started
/// relative to the window and how long it took.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub family: Family,
    pub request: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// The spans of one measured window. Disabled, `time` only runs the call.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Option<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool, capacity: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: enabled.then(|| Vec::with_capacity(capacity)),
        }
    }

    /// Restart the clock the spans are relative to: call at the start of the
    /// measured window.
    pub fn start_window(&mut self) {
        self.origin = Instant::now();
    }

    #[inline]
    pub fn time<T>(&mut self, family: Family, request: usize, call: impl FnOnce() -> T) -> T {
        let Some(spans) = self.spans.as_mut() else {
            return call();
        };
        let start = Instant::now();
        let out = call();
        let end = Instant::now();
        spans.push(Span {
            family,
            request: request as u32,
            start_ns: (start - self.origin).as_nanos() as u64,
            dur_ns: (end - start).as_nanos() as u64,
        });
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.unwrap_or_default()
    }
}

/// What one family did inside a window of `wall_s` seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilySummary {
    pub calls: usize,
    pub busy_ms: f64,
    pub share: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub growth: f64,
}

pub fn summarise(spans: &[Span], family: Family, wall_s: f64) -> FamilySummary {
    let durations_us: Vec<f64> = spans
        .iter()
        .filter(|span| span.family == family)
        .map(|span| span.dur_ns as f64 / 1e3)
        .collect();
    let busy_ms = durations_us.iter().sum::<f64>() / 1e3;
    let growth = stats::growth(&durations_us);
    let mut sorted = durations_us;
    sorted.sort_by(f64::total_cmp);
    FamilySummary {
        calls: sorted.len(),
        busy_ms,
        share: if wall_s > 0.0 {
            busy_ms / 1e3 / wall_s
        } else {
            0.0
        },
        p50_us: stats::percentile(&sorted, 50.0),
        p99_us: stats::tail(&sorted, 99.0),
        growth,
    }
}

/// Share of the window no facade span covers: the driver loop itself, the
/// clock reads, and anything the harness forgot to span.
pub fn unattributed_share(spans: &[Span], wall_s: f64) -> f64 {
    let busy_s: f64 = spans.iter().map(|span| span.dur_ns as f64 / 1e9).sum();
    if wall_s > 0.0 {
        1.0 - busy_s / wall_s
    } else {
        0.0
    }
}

/// Append one window's spans to `out` as tab-separated lines.
pub fn dump(out: &mut impl std::io::Write, round: usize, spans: &[Span]) -> std::io::Result<()> {
    for span in spans {
        writeln!(
            out,
            "{round}\t{}\t{}\t{}\t{}",
            span.family.name(),
            span.request,
            span.start_ns,
            span.dur_ns
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(family: Family, start_us: u64, dur_us: u64) -> Span {
        Span {
            family,
            request: 0,
            start_ns: start_us * 1000,
            dur_ns: dur_us * 1000,
        }
    }

    #[test]
    fn shares_and_the_unattributed_rest_sum_to_one() {
        // A 1 ms window: 400 + 350 + 230 µs spanned, 20 µs of driver loop.
        let spans = [
            span(Family::Enqueue, 0, 400),
            span(Family::Schedule, 405, 350),
            span(Family::Execute, 760, 230),
        ];
        let wall_s = 1e-3;
        let shares: f64 = Family::ALL
            .iter()
            .map(|&family| summarise(&spans, family, wall_s).share)
            .sum();
        let rest = unattributed_share(&spans, wall_s);
        assert!((shares + rest - 1.0).abs() < 1e-9);
        assert!((rest - 0.02).abs() < 1e-9);
        assert!(rest <= 0.03, "this window meets the 3 % attribution gate");
        assert_eq!(summarise(&spans, Family::Tick, wall_s).calls, 0);
        assert_eq!(summarise(&spans, Family::Tick, wall_s).share, 0.0);
    }

    #[test]
    fn summary_counts_sums_and_quarters_in_call_order() {
        let spans: Vec<Span> = [10, 10, 30, 30, 30, 30, 40, 40]
            .iter()
            .enumerate()
            .map(|(i, &dur)| span(Family::Tick, i as u64 * 100, dur))
            .collect();
        let summary = summarise(&spans, Family::Tick, 1.0);
        assert_eq!(summary.calls, 8);
        assert!((summary.busy_ms - 0.22).abs() < 1e-12);
        assert_eq!(summary.p50_us, 30.0);
        // Eight samples leave fewer than ten beyond any tail: the median.
        assert_eq!(summary.p99_us, 30.0);
        assert_eq!(summary.growth, 4.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut off = Tracer::new(false, 0);
        assert_eq!(off.time(Family::Enqueue, 0, || 7), 7);
        assert!(off.into_spans().is_empty());
        let mut on = Tracer::new(true, 1);
        assert_eq!(on.time(Family::Enqueue, 3, || 7), 7);
        let spans = on.into_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].request, 3);
    }
}
