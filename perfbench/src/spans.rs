//! In-memory span recorder for the traced run.
//!
//! Every span has a name, start and end (seconds since the run's origin),
//! the span open when it began as its parent, and an id shared by all spans
//! of one cell or request. Spans stay in memory until the run ends and are
//! then written out with each span's self time: its duration minus the
//! time its children cover (children of one parent never overlap, because
//! one recorder serves one thread).

use serde::Value;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub id: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, id: u64) -> usize {
        let span = Span {
            name,
            start: self.now(),
            end: f64::NAN,
            parent: self.open.last().copied(),
            id,
        };
        self.spans.push(span);
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `idx` (which must be the innermost open one) and returns
    /// its duration in seconds.
    pub fn end(&mut self, idx: usize) -> f64 {
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx].end = self.now();
        self.spans[idx].secs()
    }

    /// Runs `f` inside a leaf span.
    pub fn time<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let idx = self.begin(name, id);
        let out = f();
        self.end(idx);
        out
    }

    /// Appends the spans another thread recorded against the same origin.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Summed duration of every span called `name`.
    pub fn sum(&self, name: &str) -> f64 {
        self.durations(name).iter().fold(0.0, |a, b| a + b)
    }

    /// Self time of every span, indexed like [`Tracer::spans`].
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::secs).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.secs();
            }
        }
        own
    }

    /// The spans as JSON rows (times in microseconds).
    pub fn to_value(&self) -> Value {
        let own = self.self_times();
        let us = |s: f64| Value::Float((s * 1e6).round());
        Value::Seq(
            self.spans
                .iter()
                .zip(own)
                .map(|(s, own)| {
                    Value::Map(vec![
                        ("name".into(), Value::Str(s.name.into())),
                        ("id".into(), Value::UInt(s.id)),
                        (
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                        ),
                        ("start_us".into(), us(s.start)),
                        ("end_us".into(), us(s.end)),
                        ("self_us".into(), us(own)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        let outer = t.begin("outer", 1);
        t.time("inner", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(outer);
        let own = t.self_times();
        assert!(own[0] >= 0.0 && own[0] < t.spans()[0].secs());
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!((own[1] - t.spans()[1].secs()).abs() < 1e-12);
    }
}
