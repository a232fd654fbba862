//! Spans around the calls into each layer.
//!
//! The tracer is the benchmark's only stopwatch: `begin`/`end` time a
//! call in every run, and additionally keep the span in memory when the
//! run is traced. Spans are written out once, after the last
//! repetition. A span's layer is its name up to the first `.`.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The repetition, sweep job or request the span belongs to.
    pub unit: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A started call; hand it back to [`Tracer::end`].
#[must_use]
pub struct Open {
    start: Instant,
    /// Index into the span list when the run is traced.
    slot: Option<usize>,
}

pub struct Tracer {
    epoch: Instant,
    recording: bool,
    /// Stamped on every span begun from now on.
    pub unit: u64,
    spans: Vec<Span>,
    /// Indices of the spans begun and not yet ended, innermost last.
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            recording: false,
            unit: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_recording(&mut self, on: bool) {
        assert!(self.open.is_empty(), "recording toggled inside a span");
        self.recording = on;
    }

    pub fn recording(&self) -> bool {
        self.recording
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let slot = self.recording.then(|| {
            let parent = self.open.last().map_or(0, |&i| self.spans[i].id);
            let at = ns(start.duration_since(self.epoch));
            self.spans.push(Span {
                id: self.spans.len() as u32 + 1,
                parent,
                name,
                start_ns: at,
                end_ns: at,
                unit: self.unit,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { start, slot }
    }

    /// Ends the innermost open call and returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let now = Instant::now();
        if let Some(slot) = open.slot {
            assert_eq!(self.open.pop(), Some(slot), "spans must nest");
            self.spans[slot].end_ns = ns(now.duration_since(self.epoch));
        }
        now.duration_since(open.start).as_secs_f64()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line: `id, parent, name, start_ns, end_ns,
    /// unit`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"unit\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.unit
            )?;
        }
        out.flush()
    }
}

fn ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Self time in seconds per layer: each span's duration minus the part
/// its direct children cover, summed by the span's layer. Children of
/// one parent never overlap (spans are begun and ended on one thread,
/// innermost first), so the covered part is the sum of their durations.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut covered = vec![0u64; spans.len() + 1];
    for s in spans {
        covered[s.parent as usize] += s.dur_ns();
    }
    let mut by_layer = BTreeMap::new();
    for s in spans {
        let own = s.dur_ns().saturating_sub(covered[s.id as usize]);
        *by_layer.entry(s.layer()).or_insert(0.0) += own as f64 / 1e9;
    }
    by_layer
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            unit: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(1, 0, "benchmark.rep", 0, 1_000),
            span(2, 1, "core.pipeline_new", 100, 700),
            span(3, 2, "sim.run", 200, 500),
            span(4, 1, "sim.run", 700, 900),
        ];
        let by = self_time_by_layer(&spans);
        // root: 1000 - (600 + 200); core: 600 - 300; sim: 300 + 200.
        assert_eq!(by["benchmark"], 200e-9);
        assert_eq!(by["core"], 300e-9);
        assert_eq!(by["sim"], 500e-9);
        let total: f64 = by.values().sum();
        assert!(
            (total - 1_000e-9).abs() < 1e-15,
            "self times partition the root"
        );
    }

    #[test]
    fn untraced_calls_are_timed_but_not_kept() {
        let mut t = Tracer::new();
        let o = t.begin("sim.run");
        assert!(t.end(o) >= 0.0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn traced_calls_nest_and_carry_the_unit() {
        let mut t = Tracer::new();
        t.set_recording(true);
        t.unit = 7;
        let outer = t.begin("benchmark.rep");
        let inner = t.begin("sim.run");
        t.end(inner);
        t.end(outer);
        let s = t.spans();
        assert_eq!((s[0].id, s[0].parent, s[0].unit), (1, 0, 7));
        assert_eq!((s[1].id, s[1].parent, s[1].name), (2, 1, "sim.run"));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }
}
