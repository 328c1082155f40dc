//! Harness-side spans around every call into a layer.
//!
//! Spans are recorded by the benchmark's own code, from outside the measured
//! crates: name, start, end, the span that was open when it began (its
//! parent) and a request id (document id or burst number) shared by all the
//! spans of one stream event. They stay in memory and are written out when
//! the workload ends. A disabled tracer reads no clock and stores nothing, so
//! the untraced run pays one branch per call site.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::Serialize;

/// Spans of each name that are kept individually (the first 20,000 requests
/// that reach that layer); later ones only feed the per-name totals, which
/// bounds memory on long runs.
pub const STORED_PER_NAME: u64 = 20_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing stored span, if any.
    pub parent: Option<u32>,
    pub request: u64,
}

/// Running totals of one span name over the whole run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
}

impl NameTotal {
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// An open span: what [`Tracer::begin`] hands to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    name: &'static str,
    start_ns: u64,
    request: u64,
    /// Slot reserved in the span store (`None` past [`STORED_PER_NAME`]).
    slot: Option<u32>,
    live: bool,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Stored spans currently open, innermost last.
    stack: Vec<u32>,
    totals: BTreeMap<&'static str, NameTotal>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    /// Pauses or resumes recording; the traced run alternates chunks with
    /// and without spans to price the spans themselves.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, request: u64) -> Open {
        if !self.enabled {
            return Open {
                name,
                start_ns: 0,
                request,
                slot: None,
                live: false,
            };
        }
        let slot = (self.total(name).count < STORED_PER_NAME).then(|| {
            let slot = self.spans.len() as u32;
            self.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: self.stack.last().copied(),
                request,
            });
            self.stack.push(slot);
            slot
        });
        Open {
            name,
            // Read the clock last so the bookkeeping above is not inside the
            // span.
            start_ns: self.now_ns(),
            request,
            slot,
            live: true,
        }
    }

    /// Closes a span; returns its duration in nanoseconds (0 when the
    /// tracer was disabled at `begin`).
    pub fn end(&mut self, open: Open) -> u64 {
        if !open.live {
            return 0;
        }
        let end_ns = self.now_ns();
        let total = self.totals.entry(open.name).or_default();
        total.count += 1;
        total.total_ns += end_ns - open.start_ns;
        if let Some(slot) = open.slot {
            let span = &mut self.spans[slot as usize];
            span.start_ns = open.start_ns;
            span.end_ns = end_ns;
            debug_assert_eq!(span.request, open.request);
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(slot), "spans must close innermost first");
        }
        end_ns - open.start_ns
    }

    /// Times `body` as one span.
    pub fn span<T>(&mut self, name: &'static str, request: u64, body: impl FnOnce() -> T) -> T {
        self.timed_span(name, request, body).0
    }

    /// Times `body` as one span and also returns the span's duration in µs.
    pub fn timed_span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        body: impl FnOnce() -> T,
    ) -> (T, f64) {
        let open = self.begin(name, request);
        let out = body();
        (out, self.end(open) as f64 / 1e3)
    }

    pub fn total(&self, name: &str) -> NameTotal {
        self.totals.get(name).copied().unwrap_or_default()
    }

    pub fn span_count(&self) -> u64 {
        self.totals.values().map(|t| t.count).sum()
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name self time over the stored spans: a span's duration minus the
    /// part its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, NameTotal> {
        let mut self_ns: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let covered = span.end_ns - span.start_ns;
                self_ns[parent as usize] = self_ns[parent as usize].saturating_sub(covered);
            }
        }
        let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_ns) {
            let total = out.entry(span.name).or_default();
            total.count += 1;
            total.total_ns += own;
        }
        out
    }

    /// The trace file: every stored span plus the per-name totals.
    pub fn to_file(&self, workload: &str) -> TraceFile {
        let self_times = self.self_times();
        let names = self
            .totals
            .iter()
            .map(|(name, total)| {
                let own = self_times.get(name).copied().unwrap_or_default();
                NameSummary {
                    name,
                    count: total.count,
                    mean_us: total.mean_us(),
                    stored: own.count,
                    self_mean_us: own.mean_us(),
                }
            })
            .collect();
        TraceFile {
            workload: workload.to_string(),
            stored_per_name: STORED_PER_NAME,
            names,
            spans: self.spans.clone(),
        }
    }
}

/// One span name of a [`TraceFile`]: all its spans, and the self time of
/// the stored ones.
#[derive(Debug, Serialize)]
pub struct NameSummary {
    name: &'static str,
    count: u64,
    mean_us: f64,
    stored: u64,
    self_mean_us: f64,
}

/// What `trace_<workload>.json` holds. A span's `parent` is its index in
/// `spans`.
#[derive(Debug, Serialize)]
pub struct TraceFile {
    workload: String,
    stored_per_name: u64,
    names: Vec<NameSummary>,
    spans: Vec<Span>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut tracer = Tracer::new(true);
        let event = tracer.begin("event", 7);
        tracer.span("text.analyze", 7, || std::hint::black_box(1 + 1));
        tracer.span("service.offer", 7, || ());
        tracer.end(event);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans
            .iter()
            .all(|s| s.request == 7 && s.end_ns >= s.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        let children =
            (spans[1].end_ns - spans[1].start_ns) + (spans[2].end_ns - spans[2].start_ns);
        let own = tracer.self_times()["event"].total_ns;
        assert_eq!(own, spans[0].end_ns - spans[0].start_ns - children);
        assert_eq!(tracer.span_count(), 3);
    }

    #[test]
    fn disabled_tracers_and_late_spans_store_nothing() {
        let mut tracer = Tracer::new(false);
        assert_eq!(tracer.span("engine.process", 1, || 5), 5);
        assert_eq!(tracer.span_count(), 0);
        tracer.set_enabled(true);
        for request in 0..STORED_PER_NAME + 5 {
            tracer.span("engine.process", request, || ());
        }
        assert_eq!(
            tracer.spans().len() as u64,
            STORED_PER_NAME,
            "late spans only feed totals"
        );
        assert_eq!(tracer.total("engine.process").count, STORED_PER_NAME + 5);
        assert_eq!(tracer.total("never").mean_us(), 0.0);
    }
}
