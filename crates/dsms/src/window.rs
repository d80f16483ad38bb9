//! Sliding windows.
//!
//! The paper's window-based aggregation operator is parameterised by a
//! *window type* (tuple-based or time-based), a *size* and an *advance step*
//! (Section 2.2). [`WindowSpec`] carries those parameters; [`SlidingBuffer`]
//! implements the buffering/emission logic used by the aggregation operator:
//! the first window closes once `size` tuples (or `size` time units) have
//! been collected, after which the window advances by `advance` tuples (or
//! time units) per emission.

use crate::tuple::Tuple;
use std::collections::VecDeque;
use std::fmt;

/// Whether the window size/advance are counted in tuples or time units
/// (milliseconds of the stream's timestamp attribute).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WindowKind {
    /// Window boundaries are counted in number of tuples.
    Tuple,
    /// Window boundaries are counted in time units of the event timestamp.
    Time,
}

impl WindowKind {
    /// The keyword used in the obligation vocabulary and StreamSQL
    /// (`tuple` / `time`).
    #[must_use]
    pub fn keyword(self) -> &'static str {
        match self {
            WindowKind::Tuple => "tuple",
            WindowKind::Time => "time",
        }
    }

    /// Parse the obligation/StreamSQL keyword.
    #[must_use]
    pub fn from_keyword(kw: &str) -> Option<WindowKind> {
        match kw.to_ascii_lowercase().as_str() {
            "tuple" | "tuples" => Some(WindowKind::Tuple),
            "time" | "seconds" | "millis" => Some(WindowKind::Time),
            _ => None,
        }
    }
}

impl fmt::Display for WindowKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// A sliding-window specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WindowSpec {
    /// Tuple-based or time-based.
    pub kind: WindowKind,
    /// Window size, in tuples or time units.
    pub size: u64,
    /// Advance step, in tuples or time units.
    pub advance: u64,
}

impl WindowSpec {
    /// A tuple-based window.
    #[must_use]
    pub fn tuples(size: u64, advance: u64) -> Self {
        WindowSpec { kind: WindowKind::Tuple, size, advance }
    }

    /// A time-based window (size and advance in timestamp units).
    #[must_use]
    pub fn time(size: u64, advance: u64) -> Self {
        WindowSpec { kind: WindowKind::Time, size, advance }
    }

    /// Validate the specification: size and advance must be positive, and
    /// the advance step may not exceed the size (that would silently skip
    /// tuples, which the paper never allows).
    ///
    /// # Errors
    /// Returns a description of the problem.
    pub fn validate(&self) -> Result<(), String> {
        if self.size == 0 {
            return Err("window size must be positive".into());
        }
        if self.advance == 0 {
            return Err("window advance step must be positive".into());
        }
        if self.advance > self.size {
            return Err(format!(
                "window advance step {} exceeds window size {}",
                self.advance, self.size
            ));
        }
        Ok(())
    }

    /// Whether a user-requested window `self` is allowed on top of a
    /// policy window `policy`: same kind, and the user window must be at
    /// least as coarse (size and advance step no smaller than the policy's)
    /// so the user never sees finer-grained data than permitted
    /// (Section 3.1, merge condition 2).
    #[must_use]
    pub fn is_coarsening_of(&self, policy: &WindowSpec) -> bool {
        self.kind == policy.kind && self.size >= policy.size && self.advance >= policy.advance
    }
}

impl fmt::Display for WindowSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} window size={} advance={}", self.kind, self.size, self.advance)
    }
}

/// The buffering state of one window-based aggregation deployment.
///
/// `push` returns every window (as a vector of tuples) that closes as a
/// consequence of the newly arrived tuple.
#[derive(Debug, Clone)]
pub struct SlidingBuffer {
    spec: WindowSpec,
    buffer: VecDeque<Tuple>,
    /// For time-based windows: the start of the currently open window.
    window_start: Option<i64>,
}

impl SlidingBuffer {
    /// New empty buffer for a window specification.
    #[must_use]
    pub fn new(spec: WindowSpec) -> Self {
        SlidingBuffer { spec, buffer: VecDeque::new(), window_start: None }
    }

    /// The window specification this buffer follows.
    #[must_use]
    pub fn spec(&self) -> &WindowSpec {
        &self.spec
    }

    /// Number of tuples currently buffered.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Add a tuple; return the contents of every window that closes.
    pub fn push(&mut self, tuple: Tuple) -> Vec<Vec<Tuple>> {
        match self.spec.kind {
            WindowKind::Tuple => self.push_tuple_based(tuple),
            WindowKind::Time => self.push_time_based(tuple),
        }
    }

    /// Add a tuple; invoke `on_close` with the contents of every window that
    /// closes, **without cloning them out of the buffer**. This is the
    /// engine's hot path; [`SlidingBuffer::push`] remains for callers that
    /// want owned windows.
    pub fn push_visit(&mut self, tuple: Tuple, mut on_close: impl FnMut(&[Tuple])) {
        match self.spec.kind {
            WindowKind::Tuple => {
                self.buffer.push_back(tuple);
                let size = self.spec.size as usize;
                let advance = self.spec.advance as usize;
                while self.buffer.len() >= size {
                    let (front, _) = self.buffer.as_slices();
                    if front.len() >= size {
                        on_close(&front[..size]);
                    } else {
                        on_close(&self.buffer.make_contiguous()[..size]);
                    }
                    for _ in 0..advance {
                        self.buffer.pop_front();
                    }
                }
            }
            // Time windows close on arbitrary subsets of the buffer; the
            // cloning path is the straightforward one and time windows are
            // far rarer than tuple windows in the workloads.
            WindowKind::Time => {
                for window in self.push_time_based(tuple) {
                    on_close(&window);
                }
            }
        }
    }

    fn push_tuple_based(&mut self, tuple: Tuple) -> Vec<Vec<Tuple>> {
        self.buffer.push_back(tuple);
        let size = self.spec.size as usize;
        let advance = self.spec.advance as usize;
        let mut closed = Vec::new();
        while self.buffer.len() >= size {
            closed.push(self.buffer.iter().take(size).cloned().collect());
            for _ in 0..advance {
                self.buffer.pop_front();
            }
        }
        closed
    }

    fn push_time_based(&mut self, tuple: Tuple) -> Vec<Vec<Tuple>> {
        let Some(ts) = tuple.event_time() else {
            // Tuples without a timestamp cannot participate in time windows;
            // they are dropped, mirroring StreamBase's handling of null
            // timestamps.
            return Vec::new();
        };
        let start = *self.window_start.get_or_insert(ts);
        let mut closed = Vec::new();
        let mut window_start = start;
        let size = self.spec.size as i64;
        let advance = self.spec.advance as i64;

        // Close every window whose end falls at or before the new event time.
        while ts >= window_start + size {
            let window_end = window_start + size;
            let contents: Vec<Tuple> = self
                .buffer
                .iter()
                .filter(|t| {
                    t.event_time().map(|e| e >= window_start && e < window_end).unwrap_or(false)
                })
                .cloned()
                .collect();
            closed.push(contents);
            window_start += advance;
            // Evict tuples that can no longer contribute to any open window.
            while let Some(front) = self.buffer.front() {
                match front.event_time() {
                    Some(e) if e < window_start => {
                        self.buffer.pop_front();
                    }
                    _ => break,
                }
            }
        }
        self.window_start = Some(window_start);
        self.buffer.push_back(tuple);
        closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::{DataType, Value};

    fn schema() -> Schema {
        Schema::from_pairs([("samplingtime", DataType::Timestamp), ("a", DataType::Double)])
    }

    fn tup(ts: i64, a: f64) -> Tuple {
        Tuple::builder(&schema())
            .set("samplingtime", Value::Timestamp(ts))
            .set("a", a)
            .finish()
            .unwrap()
    }

    fn window_values(w: &[Tuple]) -> Vec<f64> {
        w.iter().map(|t| t.get_f64("a").unwrap()).collect()
    }

    #[test]
    fn validation() {
        assert!(WindowSpec::tuples(5, 2).validate().is_ok());
        assert!(WindowSpec::tuples(0, 2).validate().is_err());
        assert!(WindowSpec::tuples(5, 0).validate().is_err());
        assert!(WindowSpec::tuples(2, 5).validate().is_err());
    }

    #[test]
    fn coarsening_rule_matches_section31() {
        let policy = WindowSpec::tuples(5, 2);
        assert!(WindowSpec::tuples(10, 2).is_coarsening_of(&policy));
        assert!(WindowSpec::tuples(5, 2).is_coarsening_of(&policy));
        assert!(!WindowSpec::tuples(4, 2).is_coarsening_of(&policy));
        assert!(!WindowSpec::tuples(10, 1).is_coarsening_of(&policy));
        assert!(!WindowSpec::time(10, 2).is_coarsening_of(&policy));
    }

    #[test]
    fn tuple_window_size5_advance2_matches_paper_example() {
        // The Example 1 window: size 5, advance 2.
        let mut buf = SlidingBuffer::new(WindowSpec::tuples(5, 2));
        let mut emissions = Vec::new();
        for i in 0..9 {
            for w in buf.push(tup(i * 30_000, f64::from(i as i32))) {
                emissions.push(window_values(&w));
            }
        }
        assert_eq!(
            emissions,
            vec![
                vec![0.0, 1.0, 2.0, 3.0, 4.0],
                vec![2.0, 3.0, 4.0, 5.0, 6.0],
                vec![4.0, 5.0, 6.0, 7.0, 8.0],
            ]
        );
    }

    #[test]
    fn tumbling_window_when_advance_equals_size() {
        let mut buf = SlidingBuffer::new(WindowSpec::tuples(3, 3));
        let mut emissions = Vec::new();
        for i in 0..7 {
            for w in buf.push(tup(i, f64::from(i as i32))) {
                emissions.push(window_values(&w));
            }
        }
        assert_eq!(emissions, vec![vec![0.0, 1.0, 2.0], vec![3.0, 4.0, 5.0]]);
        assert_eq!(buf.buffered(), 1);
    }

    #[test]
    fn example2_windows_sizes_3_4_5_step_2() {
        // The Section 3.4 attack uses three windows of sizes 3, 4, 5 with a
        // fixed advance step 2; check the sliding semantics they rely on.
        let values: Vec<f64> = (0..10).map(f64::from).collect();
        let mut sums_by_size = Vec::new();
        for size in [3u64, 4, 5] {
            let mut buf = SlidingBuffer::new(WindowSpec::tuples(size, 2));
            let mut sums = Vec::new();
            for (i, v) in values.iter().enumerate() {
                for w in buf.push(tup(i as i64, *v)) {
                    sums.push(window_values(&w).iter().sum::<f64>());
                }
            }
            sums_by_size.push(sums);
        }
        assert_eq!(sums_by_size[0][..3], [3.0, 9.0, 15.0]); // a0+a1+a2, a2+a3+a4, a4+a5+a6
        assert_eq!(sums_by_size[1][..3], [6.0, 14.0, 22.0]); // size 4
        assert_eq!(sums_by_size[2][..3], [10.0, 20.0, 30.0]); // size 5
    }

    #[test]
    fn time_window_closes_on_late_event() {
        // Window of 60 s advancing 30 s over events every 20 s.
        let mut buf = SlidingBuffer::new(WindowSpec::time(60_000, 30_000));
        let mut emissions = Vec::new();
        for i in 0..8 {
            for w in buf.push(tup(i * 20_000, f64::from(i as i32))) {
                emissions.push(window_values(&w));
            }
        }
        // First window [0, 60s) closes when the 60 s event arrives.
        assert_eq!(emissions[0], vec![0.0, 1.0, 2.0]);
        // Second window [30s, 90s) contains events at 40 s, 60 s, 80 s.
        assert_eq!(emissions[1], vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn time_window_skips_tuples_without_timestamp() {
        let schema = Schema::from_pairs([("a", DataType::Double)]);
        let t = Tuple::builder(&schema).set("a", 1.0).finish().unwrap();
        let mut buf = SlidingBuffer::new(WindowSpec::time(10, 5));
        assert!(buf.push(t).is_empty());
        assert_eq!(buf.buffered(), 0);
    }

    #[test]
    fn keyword_round_trip() {
        assert_eq!(WindowKind::from_keyword("tuple"), Some(WindowKind::Tuple));
        assert_eq!(WindowKind::from_keyword("TIME"), Some(WindowKind::Time));
        assert_eq!(WindowKind::from_keyword("bogus"), None);
        assert_eq!(WindowKind::Tuple.keyword(), "tuple");
    }
}
