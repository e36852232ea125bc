//! Spans recorded by the benchmark around its calls into the workspace.
//!
//! A span has a name, start, end, the span that was open when it began
//! (its parent), and for serve traffic the id of the frame it belongs to.
//! Spans stay in memory and are written out once, at exit. A layer's self
//! time is its span minus the time its child spans cover. Recording is
//! switched on per repetition, so the traced run can also time the same
//! operations untraced and report the tracing overhead.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

const NONE: u32 = u32::MAX;

struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: u32,
    frame: u64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Handle of a begun span; [`Tracer::end`] closes it.
#[must_use]
pub struct SpanId(u32);

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off for the spans begun from now on.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Opens a span; `frame` is 0 outside serve traffic.
    pub fn begin(&mut self, name: &'static str, frame: u64) -> SpanId {
        if !self.on {
            return SpanId(NONE);
        }
        let id = self.spans.len() as u32;
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied().unwrap_or(NONE),
            frame,
        });
        self.open.push(id);
        SpanId(id)
    }

    pub fn end(&mut self, id: SpanId) {
        if id.0 == NONE {
            return;
        }
        self.spans[id.0 as usize].end = self.origin.elapsed();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id.0), "spans must close innermost first");
    }

    /// Records a closed child span of the innermost open span, for a phase
    /// the program timed itself (`BuildTimings`), laid after `start`.
    pub fn record(&mut self, name: &'static str, start: Duration, len: Duration) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            name,
            start,
            end: start + len,
            parent: self.open.last().copied().unwrap_or(NONE),
            frame: 0,
        });
    }

    /// Offset of a begun span's start from the tracer's origin.
    pub fn start_of(&self, id: &SpanId) -> Duration {
        self.spans
            .get(id.0 as usize)
            .map_or(Duration::ZERO, |s| s.start)
    }

    /// Self time per span name in milliseconds: every span's duration
    /// minus its children's, one sample per span.
    pub fn self_times_ms(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child[s.parent as usize] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child) {
            let own = (s.end - s.start).saturating_sub(*c);
            out.entry(s.name).or_default().push(own.as_secs_f64() * 1e3);
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                f,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"frame\":{}}}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                s.frame
            )?;
        }
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.set_on(true);
        let outer = t.begin("outer", 0);
        let start = t.start_of(&outer);
        t.record("inner", start, Duration::from_millis(4));
        std::thread::sleep(Duration::from_millis(10));
        t.end(outer);
        let st = t.self_times_ms();
        assert_eq!(st["inner"], vec![4.0]);
        let own = st["outer"][0];
        assert!((6.0 - 1e-9..1000.0).contains(&own), "{own}");
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new();
        let s = t.begin("x", 0);
        t.end(s);
        assert!(t.self_times_ms().is_empty());
    }
}
