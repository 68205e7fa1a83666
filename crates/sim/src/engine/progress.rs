//! Live progress and ETA reporting for backend execution.
//!
//! Progress is a telemetry subscriber: [`ProgressSubscriber`] renders
//! every [`ProgressMode`] from the structured event stream (`run_begin`
//! points, `spec` spans, `run_end` points), so progress/ETA comes from the
//! same events a JSON log records. [`crate::engine::Scheduler::execute_into`]
//! installs one for [`crate::engine::EngineOptions::progress`] while it
//! executes.

use std::io::{IsTerminal, Write};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ltc_telemetry::{Event, EventKind};

/// How an engine invocation reports execution progress (`ltsim run
/// --progress`). Progress goes to stderr, so tables on stdout stay clean
/// for diffing and piping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProgressMode {
    /// No progress output (library callers, tests).
    #[default]
    Off,
    /// One plain text line per completed spec (CI logs, pipes).
    Plain,
    /// A single status line rewritten in place (interactive terminals).
    Live,
    /// [`ProgressMode::Live`] when stderr is a terminal,
    /// [`ProgressMode::Plain`] otherwise.
    Auto,
}

impl ProgressMode {
    /// Parses a `--progress` argument.
    pub fn parse(name: &str) -> Option<ProgressMode> {
        match name {
            "off" => Some(ProgressMode::Off),
            "plain" => Some(ProgressMode::Plain),
            "live" => Some(ProgressMode::Live),
            "auto" => Some(ProgressMode::Auto),
            _ => None,
        }
    }
}

/// Plain-text (or live, in-place) progress lines on stderr:
///
/// ```text
/// [  3/17] timing/mcf/lt-cords/6000k/s1  1.84s  (eta 41s)
/// ```
///
/// The ETA extrapolates from wall-clock throughput so far — total wall
/// time divided by completed specs, times specs remaining — which
/// accounts for worker parallelism without modelling it.
pub struct TextProgress {
    live: bool,
    state: Mutex<State>,
    /// `None` writes to stderr; tests inject a buffer to check rendering.
    out: Option<Mutex<Box<dyn Write + Send>>>,
}

#[derive(Debug)]
struct State {
    total: usize,
    completed: usize,
    started: Option<Instant>,
}

impl TextProgress {
    /// A renderer printing one line per spec (`live: false`) or
    /// rewriting a single status line in place (`live: true`).
    pub fn new(live: bool) -> Self {
        TextProgress {
            live,
            state: Mutex::new(State { total: 0, completed: 0, started: None }),
            out: None,
        }
    }

    /// Like [`TextProgress::new`] but rendering into `out` instead of
    /// stderr, so tests can assert the exact bytes each mode produces.
    pub fn with_writer(live: bool, out: Box<dyn Write + Send>) -> Self {
        TextProgress { out: Some(Mutex::new(out)), ..TextProgress::new(live) }
    }

    /// Resets the counters for a run over `total` specs.
    pub fn begin_total(&self, total: usize) {
        let mut state = self.state.lock().expect("progress lock");
        state.total = total;
        state.completed = 0;
        state.started = Some(Instant::now());
    }

    /// Renders one completed spec, identified by its label.
    pub fn finish_line(&self, label: &str, elapsed: Duration) {
        let mut state = self.state.lock().expect("progress lock");
        state.completed += 1;
        let eta = state
            .started
            .map(|t| eta_after(t.elapsed(), state.completed, state.total))
            .unwrap_or_default();
        let line = status_line(state.completed, state.total, label, elapsed, eta);
        self.write(|w| {
            if self.live {
                // \x1b[2K clears the previous (possibly longer) line.
                write!(w, "\r\x1b[2K{line}")
            } else {
                writeln!(w, "{line}")
            }
        });
    }

    /// Finishes the run (terminates the live line, if any).
    pub fn finish_run(&self) {
        let state = self.state.lock().expect("progress lock");
        if self.live && state.completed > 0 {
            self.write(|w| writeln!(w));
        }
    }

    fn write(&self, f: impl FnOnce(&mut dyn Write) -> std::io::Result<()>) {
        match &self.out {
            Some(out) => {
                let mut out = out.lock().expect("progress writer lock");
                let _ = f(&mut **out);
                let _ = out.flush();
            }
            None => {
                let mut err = std::io::stderr().lock();
                let _ = f(&mut err);
                let _ = err.flush();
            }
        }
    }
}

/// Implements a [`ProgressMode`] as a telemetry subscriber: the
/// scheduler's `run_begin`/`run_end` points and the backends' `spec`
/// spans drive a [`TextProgress`], so a run recording an event log needs
/// no second progress channel.
///
/// The `spec` span-end's `run_us` field (pure execution time, without
/// queue wait) feeds the per-spec column.
pub struct ProgressSubscriber {
    text: Option<TextProgress>,
}

impl ProgressSubscriber {
    /// A subscriber rendering `mode` to stderr ([`ProgressMode::Off`]
    /// renders nothing but still accepts events).
    pub fn new(mode: ProgressMode) -> Self {
        let text = match mode {
            ProgressMode::Off => None,
            ProgressMode::Plain => Some(TextProgress::new(false)),
            ProgressMode::Live => Some(TextProgress::new(true)),
            ProgressMode::Auto => Some(TextProgress::new(std::io::stderr().is_terminal())),
        };
        ProgressSubscriber { text }
    }

    /// A subscriber rendering through an injected [`TextProgress`]
    /// (tests).
    pub fn with_text(text: TextProgress) -> Self {
        ProgressSubscriber { text: Some(text) }
    }
}

impl ltc_telemetry::Subscriber for ProgressSubscriber {
    fn event(&self, event: &Event) {
        let Some(text) = &self.text else { return };
        match (event.kind, event.name.as_str()) {
            (EventKind::Point, "run_begin") => {
                let total = event.field("total").and_then(|f| f.as_u64()).unwrap_or(0);
                text.begin_total(total as usize);
            }
            (EventKind::SpanEnd, "spec") => {
                // A failed attempt closes its span too (so begin/end
                // stays balanced) but tags it with `outcome`; only the
                // untagged completion advances the [k/N] counter.
                if event.field("outcome").is_some() {
                    return;
                }
                let Some(label) = event.field("label").and_then(|f| f.as_str()) else { return };
                let run_us = event
                    .field("run_us")
                    .or_else(|| event.field("elapsed_us"))
                    .and_then(|f| f.as_u64())
                    .unwrap_or(0);
                text.finish_line(label, Duration::from_micros(run_us));
            }
            (EventKind::Point, "run_end") => text.finish_run(),
            _ => {}
        }
    }
}

/// Estimated time remaining from wall time spent and specs completed.
fn eta_after(wall: Duration, completed: usize, total: usize) -> Duration {
    if completed == 0 || total <= completed {
        return Duration::ZERO;
    }
    let per_spec = wall / completed as u32;
    per_spec * (total - completed) as u32
}

/// One progress line: counter, spec label, per-spec wall time, ETA.
fn status_line(
    completed: usize,
    total: usize,
    label: &str,
    elapsed: Duration,
    eta: Duration,
) -> String {
    let width = total.to_string().len();
    let mut line = format!("[{completed:>width$}/{total}] {label}  {:.2}s", elapsed.as_secs_f64());
    if completed < total {
        line.push_str(&format!("  (eta {})", fmt_duration(eta)));
    }
    line
}

/// Compact duration: `47s`, `3m02s`, `1h12m`.
fn fmt_duration(d: Duration) -> String {
    let secs = d.as_secs();
    if secs >= 3600 {
        format!("{}h{:02}m", secs / 3600, (secs % 3600) / 60)
    } else if secs >= 60 {
        format!("{}m{:02}s", secs / 60, secs % 60)
    } else {
        format!("{secs}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_lines_show_counter_timing_and_eta() {
        let line = status_line(
            3,
            17,
            "timing/mcf/lt-cords/6000k/s1",
            Duration::from_millis(1840),
            Duration::from_secs(41),
        );
        assert_eq!(line, "[ 3/17] timing/mcf/lt-cords/6000k/s1  1.84s  (eta 41s)");
        // The final spec drops the ETA.
        let last = status_line(17, 17, "x", Duration::from_secs(1), Duration::ZERO);
        assert!(!last.contains("eta"));
    }

    #[test]
    fn eta_extrapolates_wall_clock_throughput() {
        // 10 s of wall time for 4 of 10 specs → 2.5 s each → 15 s left.
        let eta = eta_after(Duration::from_secs(10), 4, 10);
        assert_eq!(eta, Duration::from_secs(15));
        assert_eq!(eta_after(Duration::from_secs(10), 0, 10), Duration::ZERO);
        assert_eq!(eta_after(Duration::from_secs(10), 10, 10), Duration::ZERO);
    }

    #[test]
    fn durations_format_compactly() {
        assert_eq!(fmt_duration(Duration::from_secs(47)), "47s");
        assert_eq!(fmt_duration(Duration::from_secs(182)), "3m02s");
        assert_eq!(fmt_duration(Duration::from_secs(4320)), "1h12m");
    }

    /// A cloneable in-memory writer so tests can inspect what a
    /// [`TextProgress`] rendered.
    #[derive(Clone, Default)]
    struct SharedBuf(std::sync::Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl SharedBuf {
        fn contents(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    fn run_begin(total: u64) -> Event {
        let mut e = Event::now(EventKind::Point, "run_begin");
        e.fields.push(("total".to_string(), total.into()));
        e
    }

    fn spec_end(label: &str, run_us: u64) -> Event {
        let mut e = Event::now(EventKind::SpanEnd, "spec");
        e.span = Some(1);
        e.fields.push(("label".to_string(), label.into()));
        e.fields.push(("run_us".to_string(), run_us.into()));
        e
    }

    #[test]
    fn plain_subscriber_renders_one_line_per_spec_with_eta() {
        use ltc_telemetry::Subscriber;
        let buf = SharedBuf::default();
        let sub =
            ProgressSubscriber::with_text(TextProgress::with_writer(false, Box::new(buf.clone())));
        sub.event(&run_begin(3));
        sub.event(&spec_end("coverage/gzip/baseline/1000k/s1", 1_840_000));
        sub.event(&spec_end("coverage/mcf/baseline/1000k/s1", 500_000));
        sub.event(&spec_end("coverage/art/baseline/1000k/s1", 250_000));
        sub.event(&Event::now(EventKind::Point, "run_end"));
        let out = buf.contents();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "one plain line per spec:\n{out}");
        assert!(
            lines[0].starts_with("[1/3] coverage/gzip/baseline/1000k/s1  1.84s"),
            "first line: {:?}",
            lines[0]
        );
        // Incomplete specs carry an ETA; the final one drops it.
        assert!(lines[0].contains("(eta "), "eta on line 1: {:?}", lines[0]);
        assert!(!lines[2].contains("eta"), "no eta on final line: {:?}", lines[2]);
        assert!(!out.contains('\r'), "plain mode never rewrites in place");
    }

    #[test]
    fn live_subscriber_rewrites_in_place_and_terminates_the_line() {
        use ltc_telemetry::Subscriber;
        let buf = SharedBuf::default();
        let sub =
            ProgressSubscriber::with_text(TextProgress::with_writer(true, Box::new(buf.clone())));
        sub.event(&run_begin(2));
        sub.event(&spec_end("a/b/c", 100_000));
        sub.event(&spec_end("a/b/d", 100_000));
        sub.event(&Event::now(EventKind::Point, "run_end"));
        let out = buf.contents();
        // Each update rewrites the same line: carriage return + clear.
        assert_eq!(out.matches("\r\x1b[2K").count(), 2, "{out:?}");
        assert!(out.contains("[1/2] a/b/c  0.10s"), "{out:?}");
        assert!(out.contains("[2/2] a/b/d  0.10s"), "{out:?}");
        // run_end terminates the rewritten line exactly once.
        assert!(out.ends_with('\n'), "{out:?}");
        assert_eq!(out.matches('\n').count(), 1, "{out:?}");
    }

    #[test]
    fn off_subscriber_renders_nothing() {
        use ltc_telemetry::Subscriber;
        let sub = ProgressSubscriber::new(ProgressMode::Off);
        sub.event(&run_begin(5));
        sub.event(&spec_end("a/b/c", 1));
        sub.event(&Event::now(EventKind::Point, "run_end"));
        // Nothing to assert beyond "does not panic": Off has no writer.
    }

    #[test]
    fn subscriber_ignores_unrelated_events_and_missing_fields() {
        use ltc_telemetry::Subscriber;
        let buf = SharedBuf::default();
        let sub =
            ProgressSubscriber::with_text(TextProgress::with_writer(false, Box::new(buf.clone())));
        sub.event(&run_begin(1));
        // A spec end without a label cannot be rendered; skip, not panic.
        let mut unlabeled = Event::now(EventKind::SpanEnd, "spec");
        unlabeled.fields.push(("run_us".to_string(), 5u64.into()));
        sub.event(&unlabeled);
        sub.event(&Event::now(EventKind::Counter, "scheduler.cache_hits"));
        sub.event(&Event::now(EventKind::SpanEnd, "scheduler.plan"));
        assert_eq!(buf.contents(), "", "unrelated events render nothing");
        sub.event(&spec_end("x", 10_000));
        assert!(buf.contents().starts_with("[1/1] x  0.01s"));
    }

    #[test]
    fn failed_attempts_do_not_advance_the_counter() {
        use ltc_telemetry::Subscriber;
        let buf = SharedBuf::default();
        let sub =
            ProgressSubscriber::with_text(TextProgress::with_writer(false, Box::new(buf.clone())));
        sub.event(&run_begin(2));
        // A retried attempt ends its span with an outcome tag: rendered
        // nothing, counted nothing.
        let mut failed = spec_end("coverage/gzip/baseline/1000k/s1", 9_000);
        failed.fields.push(("outcome".to_string(), "retry".into()));
        sub.event(&failed);
        assert_eq!(buf.contents(), "");
        sub.event(&spec_end("coverage/gzip/baseline/1000k/s1", 11_000));
        sub.event(&spec_end("coverage/mcf/baseline/1000k/s1", 12_000));
        let out = buf.contents();
        assert!(out.starts_with("[1/2] coverage/gzip"), "{out}");
        assert!(out.contains("[2/2] coverage/mcf"), "{out}");
    }

    #[test]
    fn sinks_build_for_every_mode() {
        for (name, mode) in [
            ("off", ProgressMode::Off),
            ("plain", ProgressMode::Plain),
            ("live", ProgressMode::Live),
            ("auto", ProgressMode::Auto),
        ] {
            assert_eq!(ProgressMode::parse(name), Some(mode));
            // An empty run: begin and end, no spec lines.
            let sub = ProgressSubscriber::new(mode);
            ltc_telemetry::Subscriber::event(&sub, &run_begin(0));
            ltc_telemetry::Subscriber::event(&sub, &Event::now(EventKind::Point, "run_end"));
        }
        assert_eq!(ProgressMode::parse("bogus"), None);
    }
}
