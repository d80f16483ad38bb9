//! Harness spans for the traced run: one record per call into the program,
//! kept in a pre-sized buffer per lane and written out as JSON lines when
//! the run ends. Spans *inside* the program are a later issue; these are
//! taken from outside, around the public calls.

use std::io::Write;
use std::path::Path;

/// The phases a lane spends time in. `Generate` and `Drain` are harness
/// work; the rest are calls into the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Generate,
    Push,
    Drain,
    Request,
    Release,
    PolicyUpdate,
}

impl Phase {
    pub fn name(self) -> &'static str {
        match self {
            Phase::Generate => "generate",
            Phase::Push => "push",
            Phase::Drain => "drain",
            Phase::Request => "request",
            Phase::Release => "release",
            Phase::PolicyUpdate => "policy_update",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub phase: Phase,
    pub start_ns: i64,
    pub end_ns: i64,
    /// Batch or request number within the lane.
    pub id: u64,
}

/// One lane's span buffer. Disabled tracers cost one branch per call.
pub struct Tracer {
    lane: &'static str,
    enabled: bool,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    /// A buffer of `capacity` spans, sized by the caller for the round's
    /// length; beyond it spans are counted as dropped rather than growing
    /// the buffer mid-run.
    pub fn new(lane: &'static str, enabled: bool, capacity: usize) -> Self {
        let spans = if enabled { Vec::with_capacity(capacity) } else { Vec::new() };
        Tracer { lane, enabled, spans, dropped: 0 }
    }

    pub fn record(&mut self, phase: Phase, id: u64, start_ns: i64, end_ns: i64) {
        if !self.enabled {
            return;
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
        } else {
            self.spans.push(Span { phase, start_ns, end_ns, id });
        }
    }

    /// Nanoseconds spent in `phase` by spans that ended inside
    /// `[from_ns, until_ns)`.
    pub fn busy_ns(&self, phase: Phase, from_ns: i64, until_ns: i64) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.phase == phase && s.end_ns >= from_ns && s.end_ns < until_ns)
            .map(|s| (s.end_ns - s.start_ns).max(0) as u64)
            .sum()
    }

    /// Append this lane's spans to `out`, one JSON object per line, each
    /// naming the round that caused it.
    pub fn write_jsonl(&self, out: &mut impl Write, round: &str) -> std::io::Result<()> {
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"lane\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":\"{}\",\"id\":{}}}",
                s.phase.name(),
                self.lane,
                s.start_ns,
                s.end_ns,
                round,
                s.id
            )?;
        }
        if self.dropped > 0 {
            writeln!(
                out,
                "{{\"name\":\"dropped\",\"lane\":\"{}\",\"parent\":\"{}\",\"count\":{}}}",
                self.lane, round, self.dropped
            )?;
        }
        Ok(())
    }
}

/// Write both lanes' spans of one traced round to `path`.
pub fn write_trace(path: &Path, round: &str, lanes: &[&Tracer]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for lane in lanes {
        lane.write_jsonl(&mut out, round)?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracers_record_nothing() {
        let mut t = Tracer::new("a", false, 8);
        t.record(Phase::Push, 1, 0, 10);
        assert_eq!(t.busy_ns(Phase::Push, 0, 100), 0);
        let mut out = Vec::new();
        t.write_jsonl(&mut out, "r").unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn busy_time_is_per_phase_and_window() {
        let mut t = Tracer::new("a", true, 8);
        t.record(Phase::Push, 1, 0, 10);
        t.record(Phase::Drain, 1, 10, 14);
        t.record(Phase::Push, 2, 20, 50);
        assert_eq!(t.busy_ns(Phase::Push, 0, 100), 40);
        assert_eq!(t.busy_ns(Phase::Push, 15, 100), 30);
        assert_eq!(t.busy_ns(Phase::Drain, 0, 100), 4);
        let mut out = Vec::new();
        t.write_jsonl(&mut out, "city_ingest#traced").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().next().unwrap().contains("\"parent\":\"city_ingest#traced\""));
    }
}
