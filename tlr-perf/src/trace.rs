//! Spans recorded by the benchmark around its calls into each layer.
//! They are kept in memory and written out at exit as Chrome
//! trace-event JSON (load it in `chrome://tracing` or Perfetto).

use std::collections::BTreeMap;
use std::time::Instant;

use tlr_sim::json::escape;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    /// The cell label, shown in the viewer.
    detail: String,
    parent: Option<usize>,
    /// The traced pass the span belongs to (a Chrome thread row).
    pass: usize,
    start_ns: u64,
    dur_ns: u64,
}

/// An in-memory span log.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    pass: usize,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            pass: 0,
        }
    }
}

impl Tracer {
    /// Starts a new traced pass; its spans go on their own row.
    pub fn next_pass(&mut self) {
        self.pass += 1;
    }

    /// Opens a span starting now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, detail: &str, parent: Option<usize>) -> usize {
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            detail: detail.to_string(),
            parent,
            pass: self.pass,
            start_ns,
            dur_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now and returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let now = self.origin.elapsed().as_nanos() as u64;
        let s = &mut self.spans[id];
        s.dur_ns = now - s.start_ns;
        s.dur_ns as f64 * 1e-9
    }

    /// Self time in seconds per span name, over the spans of the
    /// current pass: each span's duration minus its children's.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut own: Vec<i64> = self.spans.iter().map(|s| s.dur_ns as i64).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.dur_ns as i64;
            }
        }
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(own) {
            if s.pass == self.pass {
                *out.entry(s.name).or_insert(0.0) += t as f64 * 1e-9;
            }
        }
        out
    }

    /// The log as Chrome trace-event JSON: one complete ("X") event
    /// per span, one thread row per traced pass.
    pub fn chrome_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"tlr-perf\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                     \"pid\":1,\"tid\":{},\"args\":{{\"cell\":\"{}\"}}}}",
                    s.name,
                    s.start_ns as f64 / 1e3,
                    s.dur_ns as f64 / 1e3,
                    s.pass,
                    escape(&s.detail)
                )
            })
            .collect();
        format!(
            "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}",
            events.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_json_validates() {
        let mut t = Tracer::default();
        t.next_pass();
        let cell = t.open("cell", "a/\"b\"", None);
        let child = t.open("machine.run", "a", Some(cell));
        std::thread::sleep(std::time::Duration::from_millis(2));
        let child_s = t.close(child);
        let cell_s = t.close(cell);
        let st = t.self_times();
        assert!((st["machine.run"] - child_s).abs() < 1e-12);
        assert!((st["cell"] - (cell_s - child_s)).abs() < 1e-9);
        assert!(st["cell"] >= 0.0 && st["machine.run"] >= 0.002);
        t.next_pass();
        assert!(t.self_times().is_empty());
        let j = t.chrome_json();
        tlr_sim::json::validate(&j).expect("chrome trace must be valid JSON");
        assert!(j.contains("\"name\":\"machine.run\""));
    }
}
