//! In-memory span recording for the traced run.
//!
//! A span is kept around each call the benchmark makes into a layer's
//! public functions: its name (`<layer>.<call>`), start and end on one
//! shared clock, the span that caused it, and the unit of work (trace
//! item, taskset, ...) it belongs to. Spans stay in memory while the
//! benchmark runs and are written out once when it ends. A layer's
//! self time is the time its spans cover minus the time covered by
//! their child spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span within its [`SpanLog`].
pub type SpanId = u32;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub unit: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// The spans of one thread, against a clock shared by all threads.
#[derive(Debug, Clone)]
pub struct SpanLog {
    epoch: Instant,
    thread: usize,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant, thread: usize) -> Self {
        SpanLog {
            epoch,
            thread,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`SpanLog::exit`]. Spans of one
    /// thread nest strictly.
    pub fn enter(&mut self, name: &'static str, parent: Option<SpanId>, unit: u64) -> SpanId {
        let id = SpanId::try_from(self.spans.len()).expect("fewer than 2^32 spans per thread");
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            unit,
        });
        id
    }

    /// Closes `id`, returning its duration in nanoseconds.
    pub fn exit(&mut self, id: SpanId) -> u64 {
        let now = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.duration_ns()
    }

    /// Runs `f` inside a span.
    pub fn scoped<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        unit: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.enter(name, parent, unit);
        let out = f();
        self.exit(id);
        out
    }

    /// Renames a span once its outcome is known (a submit is classified
    /// by the verdict it returned).
    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        self.spans[id as usize].name = name;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name totals over a set of span logs.
#[derive(Debug, Default, Clone, Copy)]
pub struct NameTotals {
    pub calls: u64,
    pub busy_ns: u64,
}

/// Sums calls and busy time per span name.
pub fn totals_by_name(logs: &[SpanLog]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for span in logs.iter().flat_map(|log| log.spans()) {
        let entry = out.entry(span.name).or_default();
        entry.calls += 1;
        entry.busy_ns += span.duration_ns();
    }
    out
}

/// Self time per layer: each span's duration minus the durations of
/// its direct children (children of one thread never overlap).
pub fn self_time_by_layer(logs: &[SpanLog]) -> BTreeMap<&'static str, u64> {
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for log in logs {
        let mut child_ns = vec![0u64; log.spans.len()];
        for span in &log.spans {
            if let Some(parent) = span.parent {
                child_ns[parent as usize] += span.duration_ns();
            }
        }
        for (span, children) in log.spans.iter().zip(child_ns) {
            *out.entry(span.layer()).or_default() += span.duration_ns().saturating_sub(children);
        }
    }
    out
}

/// Renders every span as tab-separated lines: thread, span id, parent
/// id (`-` for a root), unit, name, start and end in nanoseconds.
pub fn render(logs: &[SpanLog]) -> String {
    let mut out = String::from("thread\tid\tparent\tunit\tname\tstart_ns\tend_ns\n");
    for log in logs {
        for (id, span) in log.spans.iter().enumerate() {
            let parent = span.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}\t{id}\t{parent}\t{}\t{}\t{}\t{}",
                log.thread, span.unit, span.name, span.start_ns, span.end_ns
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut log = SpanLog::new(Instant::now(), 0);
        let parent = log.enter("alloc.solution", None, 7);
        let child = log.enter("analysis.vm_level", Some(parent), 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        log.exit(child);
        log.exit(parent);
        let logs = [log];
        let self_time = self_time_by_layer(&logs);
        let spans = logs[0].spans();
        assert_eq!(
            self_time["alloc"] + self_time["analysis"],
            spans[0].duration_ns()
        );
        assert_eq!(self_time["analysis"], spans[1].duration_ns());
        let totals = totals_by_name(&logs);
        assert_eq!(totals["analysis.vm_level"].calls, 1);
        assert!(render(&logs).lines().count() == 3);
    }
}
