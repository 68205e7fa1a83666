//! Structured telemetry: spans, counters, gauges, and a JSON-lines
//! event stream.
//!
//! The simulator's runtime visibility used to be a stderr progress line
//! plus ad-hoc `eprintln!` warnings. This crate replaces that with one
//! structured event stream that every layer — scheduler, backends,
//! subprocess workers, the segment path, and the sketch layer — writes
//! into, and that pluggable [`Subscriber`]s consume: a JSON-lines file
//! writer ([`JsonLinesWriter`]), an in-memory [`Aggregator`], a test
//! [`Capture`], or the progress-rendering adapter in `ltc_sim`.
//!
//! # Design constraints
//!
//! * **Zero dependencies.** The crate sits at the bottom of the
//!   workspace graph so `ltc_stream` and `ltc_analysis` can emit from
//!   hot loops; it carries its own minimal JSON encoder rather than
//!   depending on the serde shims.
//! * **Cheap when off.** All emit helpers gate on [`enabled`] — a
//!   relaxed atomic load plus a thread-local check — so uninstrumented
//!   runs pay (sub-)nanoseconds per site. Hot loops should additionally
//!   capture `enabled()` once before entering (the stream path does).
//! * **Process-global hub.** Instrumentation sites (disk-store loaders,
//!   sketch observers) have no context object to thread a handle
//!   through, so subscribers [`install`] into a global hub, mirroring
//!   the checkpoint-store registry idiom. Tests use the thread-scoped
//!   [`with_subscriber`] instead, which never leaks across parallel
//!   test threads.
//!
//! # Event schema (v1)
//!
//! One JSON object per line:
//!
//! ```json
//! {"v":1,"t":1234,"kind":"span_begin","name":"spec","span":7,"worker":2,"fields":{"label":"coverage/gcc/..."}}
//! ```
//!
//! | key      | type   | meaning                                               |
//! |----------|--------|-------------------------------------------------------|
//! | `v`      | u64    | schema version ([`EVENT_SCHEMA`])                     |
//! | `t`      | u64    | microseconds since the process telemetry epoch        |
//! | `kind`   | string | `span_begin` `span_end` `counter` `gauge` `warning` `point` |
//! | `name`   | string | event name (the aggregation key)                      |
//! | `span`   | u64?   | span id — present on `span_begin`/`span_end`          |
//! | `worker` | u64?   | worker id — present when the emitting thread has one  |
//! | `fields` | object | typed payload (strings, integers, floats, bools)      |
//!
//! `span_end` always carries an `elapsed_us` field. `counter` events
//! carry a `value` field holding a **delta** (subscribers sum them);
//! `gauge` events carry a `value` field holding an instantaneous level
//! (subscribers keep the last or the peak).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Schema version stamped into every serialized event (`"v"`).
pub const EVENT_SCHEMA: u64 = 1;

/// Environment variable a parent process sets on `ltsim worker`
/// children to request telemetry frames over the worker protocol
/// (tagged `{"event":{...}}` stdout lines, see [`wire_line`]).
pub const WIRE_ENV: &str = "LTC_TELEMETRY_WIRE";

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// A typed field value. The closed set keeps the encoder trivial and
/// the schema checkable.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (serialized via Rust's shortest round-trip formatting).
    F64(f64),
    /// String (JSON-escaped on serialization).
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

impl FieldValue {
    /// The value as an unsigned integer, if representable.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            FieldValue::U64(v) => Some(v),
            FieldValue::I64(v) if v >= 0 => Some(v as u64),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            FieldValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// The six event kinds of schema v1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A span opened (paired with a later `SpanEnd` carrying the same
    /// span id).
    SpanBegin,
    /// A span closed; carries `elapsed_us`.
    SpanEnd,
    /// A monotonic counter **delta** (field `value`).
    Counter,
    /// An instantaneous level (field `value`).
    Gauge,
    /// Something degraded but the run continues.
    Warning,
    /// A discrete occurrence with no duration or magnitude.
    Point,
}

impl EventKind {
    /// The schema string (`"span_begin"`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::SpanBegin => "span_begin",
            EventKind::SpanEnd => "span_end",
            EventKind::Counter => "counter",
            EventKind::Gauge => "gauge",
            EventKind::Warning => "warning",
            EventKind::Point => "point",
        }
    }

    /// Parses the schema string back into a kind.
    pub fn parse(s: &str) -> Option<EventKind> {
        Some(match s {
            "span_begin" => EventKind::SpanBegin,
            "span_end" => EventKind::SpanEnd,
            "counter" => EventKind::Counter,
            "gauge" => EventKind::Gauge,
            "warning" => EventKind::Warning,
            "point" => EventKind::Point,
            _ => return None,
        })
    }
}

/// One structured event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Microseconds since the process telemetry epoch.
    pub t_micros: u64,
    /// Event kind.
    pub kind: EventKind,
    /// Event name — the aggregation key.
    pub name: String,
    /// Span id for `span_begin`/`span_end` pairs.
    pub span: Option<u64>,
    /// Worker id of the emitting thread/process, when assigned.
    pub worker: Option<u64>,
    /// Typed payload.
    pub fields: Vec<(String, FieldValue)>,
}

impl Event {
    /// Builds an event stamped with the current time and the calling
    /// thread's worker id.
    pub fn now(kind: EventKind, name: &str) -> Event {
        Event {
            t_micros: now_micros(),
            kind,
            name: name.to_string(),
            span: None,
            worker: current_worker(),
            fields: Vec::new(),
        }
    }

    /// Looks up a field by name.
    pub fn field(&self, name: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// The `value` field of counter/gauge events, when numeric.
    pub fn value(&self) -> Option<u64> {
        match self.field("value") {
            Some(FieldValue::U64(v)) => Some(*v),
            Some(FieldValue::I64(v)) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// Serializes the event as one schema-v1 JSON line (no trailing
    /// newline).
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(96);
        let _ = write!(
            out,
            "{{\"v\":{EVENT_SCHEMA},\"t\":{},\"kind\":\"{}\",\"name\":",
            self.t_micros,
            self.kind.as_str()
        );
        escape_json_str(&self.name, &mut out);
        if let Some(span) = self.span {
            let _ = write!(out, ",\"span\":{span}");
        }
        if let Some(worker) = self.worker {
            let _ = write!(out, ",\"worker\":{worker}");
        }
        out.push_str(",\"fields\":{");
        for (i, (name, value)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_json_str(name, &mut out);
            out.push(':');
            match value {
                FieldValue::U64(v) => {
                    let _ = write!(out, "{v}");
                }
                FieldValue::I64(v) => {
                    let _ = write!(out, "{v}");
                }
                FieldValue::F64(v) => {
                    // Rust's shortest round-trip formatting emits plain
                    // JSON numbers (integral floats print without a
                    // dot, which is still a valid JSON number).
                    if v.is_finite() {
                        let _ = write!(out, "{v}");
                    } else {
                        out.push_str("null");
                    }
                }
                FieldValue::Str(v) => escape_json_str(v, &mut out),
                FieldValue::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            }
        }
        out.push_str("}}");
        out
    }
}

/// Wraps an event as a worker-protocol frame: a stdout line the parent
/// distinguishes from `RunResult` lines by its single `"event"` key.
pub fn wire_line(event: &Event) -> String {
    format!("{{\"event\":{}}}", event.to_json_line())
}

/// JSON string escaping (quotes, backslash, control characters).
fn escape_json_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Subscribers and the hub
// ---------------------------------------------------------------------------

/// A telemetry consumer. Implementations must tolerate concurrent
/// `event` calls from many threads.
pub trait Subscriber: Send + Sync {
    /// Receives one event.
    fn event(&self, event: &Event);
    /// Flushes any buffered output (called by [`flush`]).
    fn flush(&self) {}
}

struct Hub {
    subscribers: Mutex<Vec<(u64, Arc<dyn Subscriber>)>>,
    /// Mirror of `!subscribers.is_empty()` for the lock-free fast path.
    any_global: AtomicBool,
    next_token: AtomicU64,
    next_span: AtomicU64,
    epoch: Instant,
}

fn hub() -> &'static Hub {
    static HUB: OnceLock<Hub> = OnceLock::new();
    HUB.get_or_init(|| Hub {
        subscribers: Mutex::new(Vec::new()),
        any_global: AtomicBool::new(false),
        next_token: AtomicU64::new(1),
        next_span: AtomicU64::new(1),
        epoch: Instant::now(),
    })
}

thread_local! {
    static LOCAL_SUBSCRIBER: std::cell::RefCell<Vec<Arc<dyn Subscriber>>> =
        const { std::cell::RefCell::new(Vec::new()) };
    static WORKER_ID: std::cell::Cell<Option<u64>> = const { std::cell::Cell::new(None) };
}

/// Token returned by [`install`]; pass to [`uninstall`] to remove the
/// subscriber again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubscriberToken(u64);

/// Installs a process-global subscriber. Returns a token for
/// [`uninstall`].
pub fn install(subscriber: Arc<dyn Subscriber>) -> SubscriberToken {
    let hub = hub();
    let token = hub.next_token.fetch_add(1, Ordering::Relaxed);
    let mut subs = hub.subscribers.lock().unwrap();
    subs.push((token, subscriber));
    hub.any_global.store(true, Ordering::Release);
    SubscriberToken(token)
}

/// Removes a previously [`install`]ed subscriber.
pub fn uninstall(token: SubscriberToken) {
    let hub = hub();
    let mut subs = hub.subscribers.lock().unwrap();
    subs.retain(|(t, _)| *t != token.0);
    hub.any_global.store(!subs.is_empty(), Ordering::Release);
}

/// Runs `f` with `subscriber` additionally receiving every event
/// emitted **from the calling thread**. Scoped and thread-local, so
/// parallel tests never observe each other's events.
pub fn with_subscriber<T>(subscriber: Arc<dyn Subscriber>, f: impl FnOnce() -> T) -> T {
    LOCAL_SUBSCRIBER.with(|cell| cell.borrow_mut().push(subscriber));
    struct Pop;
    impl Drop for Pop {
        fn drop(&mut self) {
            LOCAL_SUBSCRIBER.with(|cell| {
                cell.borrow_mut().pop();
            });
        }
    }
    let _pop = Pop;
    f()
}

/// Whether any subscriber (global, or local to this thread) is
/// listening. Emit helpers check this themselves; hot loops should
/// capture it once before entering.
#[inline]
pub fn enabled() -> bool {
    hub().any_global.load(Ordering::Acquire)
        || LOCAL_SUBSCRIBER.with(|cell| !cell.borrow().is_empty())
}

/// Microseconds since the process telemetry epoch (first hub use).
pub fn now_micros() -> u64 {
    hub().epoch.elapsed().as_micros() as u64
}

/// Allocates a fresh process-unique span id.
pub fn next_span_id() -> u64 {
    hub().next_span.fetch_add(1, Ordering::Relaxed)
}

/// Assigns the calling thread's worker id; subsequently emitted events
/// carry it. Backends tag their worker threads, `ltsim worker` drive
/// threads tag themselves with the child's id.
pub fn set_worker(id: u64) {
    WORKER_ID.with(|cell| cell.set(Some(id)));
}

/// Clears the calling thread's worker id.
pub fn clear_worker() {
    WORKER_ID.with(|cell| cell.set(None));
}

/// The calling thread's worker id, if one was assigned.
pub fn current_worker() -> Option<u64> {
    WORKER_ID.with(|cell| cell.get())
}

/// Dispatches an event to every live subscriber (thread-local first,
/// then global). Does nothing when nothing is listening.
pub fn emit(event: &Event) {
    LOCAL_SUBSCRIBER.with(|cell| {
        for sub in cell.borrow().iter() {
            sub.event(event);
        }
    });
    if hub().any_global.load(Ordering::Acquire) {
        let subs = hub().subscribers.lock().unwrap();
        for (_, sub) in subs.iter() {
            sub.event(event);
        }
    }
}

/// Flushes every live subscriber.
pub fn flush() {
    LOCAL_SUBSCRIBER.with(|cell| {
        for sub in cell.borrow().iter() {
            sub.flush();
        }
    });
    let subs = hub().subscribers.lock().unwrap();
    for (_, sub) in subs.iter() {
        sub.flush();
    }
}

// ---------------------------------------------------------------------------
// Emit helpers
// ---------------------------------------------------------------------------

/// Emits a counter **delta** (`value` field). No-op when disabled.
pub fn counter(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    let mut ev = Event::now(EventKind::Counter, name);
    ev.fields.push(("value".to_string(), FieldValue::U64(delta)));
    emit(&ev);
}

/// Emits an instantaneous gauge level (`value` field) plus extra
/// fields. No-op when disabled.
pub fn gauge(name: &str, value: u64, fields: Vec<(String, FieldValue)>) {
    if !enabled() {
        return;
    }
    let mut ev = Event::now(EventKind::Gauge, name);
    ev.fields.push(("value".to_string(), FieldValue::U64(value)));
    ev.fields.extend(fields);
    emit(&ev);
}

/// Emits a discrete occurrence with a typed payload. No-op when
/// disabled.
pub fn point(name: &str, fields: Vec<(String, FieldValue)>) {
    if !enabled() {
        return;
    }
    let mut ev = Event::now(EventKind::Point, name);
    ev.fields = fields;
    emit(&ev);
}

/// Emits a structured warning. When **no** subscriber is listening the
/// message falls back to stderr, so operators never lose warnings that
/// used to be `eprintln!`s.
pub fn warning(name: &str, message: &str, fields: Vec<(String, FieldValue)>) {
    if !enabled() {
        eprintln!("warning: {message}");
        return;
    }
    let mut ev = Event::now(EventKind::Warning, name);
    ev.fields.push(("message".to_string(), FieldValue::Str(message.to_string())));
    ev.fields.extend(fields);
    emit(&ev);
}

// ---------------------------------------------------------------------------
// Span
// ---------------------------------------------------------------------------

/// A begin/end timed scope. [`span`] emits `span_begin` immediately;
/// dropping the guard (or calling [`Span::end_with`]) emits `span_end`
/// with `elapsed_us`. When telemetry is disabled the guard is inert
/// and costs one branch.
#[must_use = "dropping a Span ends it"]
pub struct Span {
    id: u64,
    name: String,
    start: Instant,
    live: bool,
}

/// Opens a span (see [`Span`]).
pub fn span(name: &str, fields: Vec<(String, FieldValue)>) -> Span {
    if !enabled() {
        return Span { id: 0, name: String::new(), start: Instant::now(), live: false };
    }
    let id = next_span_id();
    let mut ev = Event::now(EventKind::SpanBegin, name);
    ev.span = Some(id);
    ev.fields = fields;
    emit(&ev);
    Span { id, name: name.to_string(), start: Instant::now(), live: true }
}

impl Span {
    /// The span id, when the span is live (telemetry was enabled at
    /// open time).
    pub fn id(&self) -> Option<u64> {
        self.live.then_some(self.id)
    }

    /// Ends the span now, attaching extra fields to the `span_end`
    /// event.
    pub fn end_with(mut self, fields: Vec<(String, FieldValue)>) {
        self.close(fields);
    }

    fn close(&mut self, fields: Vec<(String, FieldValue)>) {
        if !self.live {
            return;
        }
        self.live = false;
        let mut ev = Event::now(EventKind::SpanEnd, &self.name);
        ev.span = Some(self.id);
        ev.fields.push((
            "elapsed_us".to_string(),
            FieldValue::U64(self.start.elapsed().as_micros() as u64),
        ));
        ev.fields.extend(fields);
        emit(&ev);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.close(Vec::new());
    }
}

// ---------------------------------------------------------------------------
// Counter / Gauge accumulators
// ---------------------------------------------------------------------------

/// An atomic counter for warm paths: [`Counter::add`] is one relaxed
/// `fetch_add` with no event emission; [`Counter::emit`] publishes the
/// accumulated total as a single counter-delta event and resets.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// Creates a named counter at zero (usable in `static`s).
    pub const fn new(name: &'static str) -> Counter {
        Counter { name, value: AtomicU64::new(0) }
    }

    /// Adds to the counter (relaxed; no event).
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current accumulated value.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Publishes the accumulated value as one counter event and resets
    /// the accumulator. No-op (and no reset) when disabled.
    pub fn emit(&self) {
        if !enabled() {
            return;
        }
        let v = self.value.swap(0, Ordering::Relaxed);
        counter(self.name, v);
    }
}

/// An atomic gauge for warm paths: [`Gauge::set`] is one relaxed store;
/// [`Gauge::emit`] publishes the current level.
pub struct Gauge {
    name: &'static str,
    value: AtomicU64,
}

impl Gauge {
    /// Creates a named gauge at zero (usable in `static`s).
    pub const fn new(name: &'static str) -> Gauge {
        Gauge { name, value: AtomicU64::new(0) }
    }

    /// Sets the level (relaxed; no event).
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Publishes the current level as one gauge event. No-op when
    /// disabled.
    pub fn emit(&self) {
        if !enabled() {
            return;
        }
        gauge(self.name, self.value(), Vec::new());
    }
}

// ---------------------------------------------------------------------------
// Built-in subscribers
// ---------------------------------------------------------------------------

/// Writes each event as one JSON line. Tracks events and bytes written
/// (`ltsim run --events` reports both when the run ends).
pub struct JsonLinesWriter {
    out: Mutex<Box<dyn Write + Send>>,
    events: AtomicU64,
    bytes: AtomicU64,
}

impl JsonLinesWriter {
    /// Creates (truncating) `path` and writes events to it, buffered.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn create(path: &Path) -> io::Result<JsonLinesWriter> {
        let file = File::create(path)?;
        Ok(JsonLinesWriter::new(Box::new(BufWriter::new(file))))
    }

    /// Wraps an arbitrary writer (stdout, a Vec for tests, …).
    pub fn new(out: Box<dyn Write + Send>) -> JsonLinesWriter {
        JsonLinesWriter {
            out: Mutex::new(out),
            events: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// Events written so far.
    pub fn events_written(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    /// Bytes written so far (including newlines).
    pub fn bytes_written(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

impl Subscriber for JsonLinesWriter {
    fn event(&self, event: &Event) {
        let mut line = event.to_json_line();
        line.push('\n');
        let mut out = self.out.lock().unwrap();
        if out.write_all(line.as_bytes()).is_ok() {
            self.events.fetch_add(1, Ordering::Relaxed);
            self.bytes.fetch_add(line.len() as u64, Ordering::Relaxed);
        }
    }

    fn flush(&self) {
        let _ = self.out.lock().unwrap().flush();
    }
}

/// In-memory aggregation: event totals by kind, counter sums, gauge
/// peaks, and retained warning events. Powers the end-of-run summary
/// line and tests.
#[derive(Default)]
pub struct Aggregator {
    inner: Mutex<AggState>,
}

#[derive(Default)]
struct AggState {
    events: u64,
    kinds: HashMap<&'static str, u64>,
    counters: HashMap<String, u64>,
    gauge_peaks: HashMap<String, u64>,
    warnings: Vec<Event>,
}

impl Aggregator {
    /// Fresh, empty aggregator.
    pub fn new() -> Aggregator {
        Aggregator::default()
    }

    /// Total events observed.
    pub fn events(&self) -> u64 {
        self.inner.lock().unwrap().events
    }

    /// Events observed of one kind.
    pub fn kind_count(&self, kind: EventKind) -> u64 {
        *self.inner.lock().unwrap().kinds.get(kind.as_str()).unwrap_or(&0)
    }

    /// Sum of `value` deltas across counter events with this name.
    pub fn counter(&self, name: &str) -> u64 {
        *self.inner.lock().unwrap().counters.get(name).unwrap_or(&0)
    }

    /// Peak `value` across gauge events with this name.
    pub fn gauge_peak(&self, name: &str) -> Option<u64> {
        self.inner.lock().unwrap().gauge_peaks.get(name).copied()
    }

    /// Retained warning events (full copies, in arrival order).
    pub fn warnings(&self) -> Vec<Event> {
        self.inner.lock().unwrap().warnings.clone()
    }

    /// Warnings observed with this name.
    pub fn warning_count(&self, name: &str) -> u64 {
        self.inner.lock().unwrap().warnings.iter().filter(|w| w.name == name).count() as u64
    }
}

impl Subscriber for Aggregator {
    fn event(&self, event: &Event) {
        let mut state = self.inner.lock().unwrap();
        state.events += 1;
        *state.kinds.entry(event.kind.as_str()).or_insert(0) += 1;
        match event.kind {
            EventKind::Counter => {
                if let Some(v) = event.value() {
                    *state.counters.entry(event.name.clone()).or_insert(0) += v;
                }
            }
            EventKind::Gauge => {
                if let Some(v) = event.value() {
                    let peak = state.gauge_peaks.entry(event.name.clone()).or_insert(0);
                    *peak = (*peak).max(v);
                }
            }
            EventKind::Warning => state.warnings.push(event.clone()),
            _ => {}
        }
    }
}

/// Captures full event copies for assertions in tests.
#[derive(Default)]
pub struct Capture {
    events: Mutex<Vec<Event>>,
}

impl Capture {
    /// Fresh, empty capture.
    pub fn new() -> Capture {
        Capture::default()
    }

    /// Copies of every captured event, in arrival order.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().unwrap().clone()
    }

    /// Captured events with the given name.
    pub fn named(&self, name: &str) -> Vec<Event> {
        self.events.lock().unwrap().iter().filter(|e| e.name == name).cloned().collect()
    }
}

impl Subscriber for Capture {
    fn event(&self, event: &Event) {
        self.events.lock().unwrap().push(event.clone());
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that need the global hub empty against the
    /// one that installs into it: test threads run concurrently, so a
    /// global subscriber would otherwise enable emitters elsewhere.
    static GLOBAL_HUB: Mutex<()> = Mutex::new(());

    fn hub_lock() -> std::sync::MutexGuard<'static, ()> {
        GLOBAL_HUB.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn json_line_matches_schema_shape() {
        let mut ev = Event {
            t_micros: 42,
            kind: EventKind::SpanBegin,
            name: "spec".to_string(),
            span: Some(7),
            worker: Some(2),
            fields: vec![("label".to_string(), FieldValue::Str("a/b".to_string()))],
        };
        assert_eq!(
            ev.to_json_line(),
            r#"{"v":1,"t":42,"kind":"span_begin","name":"spec","span":7,"worker":2,"fields":{"label":"a/b"}}"#
        );
        ev.span = None;
        ev.worker = None;
        ev.fields = vec![
            ("u".to_string(), FieldValue::U64(1)),
            ("i".to_string(), FieldValue::I64(-2)),
            ("f".to_string(), FieldValue::F64(1.5)),
            ("b".to_string(), FieldValue::Bool(true)),
        ];
        assert_eq!(
            ev.to_json_line(),
            r#"{"v":1,"t":42,"kind":"span_begin","name":"spec","fields":{"u":1,"i":-2,"f":1.5,"b":true}}"#
        );
    }

    #[test]
    fn strings_are_escaped() {
        let ev = Event {
            t_micros: 0,
            kind: EventKind::Warning,
            name: "w".to_string(),
            span: None,
            worker: None,
            fields: vec![(
                "message".to_string(),
                FieldValue::Str("quote \" slash \\ nl \n ctl \u{1}".to_string()),
            )],
        };
        assert_eq!(
            ev.to_json_line(),
            "{\"v\":1,\"t\":0,\"kind\":\"warning\",\"name\":\"w\",\"fields\":{\"message\":\"quote \\\" slash \\\\ nl \\n ctl \\u0001\"}}"
        );
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        let ev = Event {
            t_micros: 0,
            kind: EventKind::Point,
            name: "p".to_string(),
            span: None,
            worker: None,
            fields: vec![("x".to_string(), FieldValue::F64(f64::NAN))],
        };
        assert!(ev.to_json_line().contains("\"x\":null"));
    }

    #[test]
    fn kind_strings_round_trip() {
        for kind in [
            EventKind::SpanBegin,
            EventKind::SpanEnd,
            EventKind::Counter,
            EventKind::Gauge,
            EventKind::Warning,
            EventKind::Point,
        ] {
            assert_eq!(EventKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(EventKind::parse("nope"), None);
    }

    #[test]
    fn disabled_emitters_are_inert() {
        let _hub = hub_lock();
        // No local subscriber on this thread; the helpers must not
        // panic and the span guard must be dead.
        let span = span("quiet", Vec::new());
        assert_eq!(span.id(), None);
        drop(span);
        counter("quiet", 1);
        gauge("quiet", 1, Vec::new());
        point("quiet", Vec::new());
    }

    #[test]
    fn with_subscriber_scopes_capture_to_the_thread() {
        let _hub = hub_lock();
        let capture = Arc::new(Capture::new());
        with_subscriber(capture.clone(), || {
            assert!(enabled());
            counter("c", 2);
            counter("c", 3);
            let span = span("s", vec![("k".to_string(), FieldValue::U64(9))]);
            assert!(span.id().is_some());
            drop(span);
        });
        assert!(!enabled());
        let events = capture.events();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].kind, EventKind::Counter);
        assert_eq!(events[2].kind, EventKind::SpanBegin);
        assert_eq!(events[3].kind, EventKind::SpanEnd);
        assert_eq!(events[2].span, events[3].span);
        assert!(events[3].field("elapsed_us").is_some());
        // Events emitted on another thread do not reach the capture.
        counter("c", 100);
        assert_eq!(capture.events().len(), 4);
    }

    #[test]
    fn span_end_with_attaches_fields() {
        let capture = Arc::new(Capture::new());
        with_subscriber(capture.clone(), || {
            let span = span("s", Vec::new());
            span.end_with(vec![("ok".to_string(), FieldValue::Bool(true))]);
        });
        let ends = capture.named("s");
        assert_eq!(ends.len(), 2);
        assert_eq!(ends[1].field("ok"), Some(&FieldValue::Bool(true)));
    }

    #[test]
    fn aggregator_sums_counters_and_peaks_gauges() {
        let agg = Arc::new(Aggregator::new());
        with_subscriber(agg.clone(), || {
            counter("hits", 1);
            counter("hits", 4);
            gauge("mem", 10, Vec::new());
            gauge("mem", 30, Vec::new());
            gauge("mem", 20, Vec::new());
            warning("corrupt", "oh no", Vec::new());
        });
        assert_eq!(agg.events(), 6);
        assert_eq!(agg.counter("hits"), 5);
        assert_eq!(agg.counter("absent"), 0);
        assert_eq!(agg.gauge_peak("mem"), Some(30));
        assert_eq!(agg.warning_count("corrupt"), 1);
        assert_eq!(agg.warnings()[0].field("message"), Some(&FieldValue::Str("oh no".to_string())));
    }

    #[test]
    fn counter_accumulator_publishes_and_resets() {
        let _hub = hub_lock();
        let c = Counter::new("acc");
        c.add(2);
        c.add(3);
        assert_eq!(c.value(), 5);
        let agg = Arc::new(Aggregator::new());
        with_subscriber(agg.clone(), || c.emit());
        assert_eq!(agg.counter("acc"), 5);
        assert_eq!(c.value(), 0, "emit resets the accumulator");
        // Disabled emit keeps the accumulation.
        c.add(7);
        c.emit();
        assert_eq!(c.value(), 7);
    }

    #[test]
    fn gauge_accumulator_publishes_level() {
        let g = Gauge::new("level");
        g.set(11);
        let agg = Arc::new(Aggregator::new());
        with_subscriber(agg.clone(), || g.emit());
        assert_eq!(agg.gauge_peak("level"), Some(11));
        assert_eq!(g.value(), 11);
    }

    #[test]
    fn worker_id_is_thread_scoped_and_stamped() {
        let capture = Arc::new(Capture::new());
        set_worker(9);
        with_subscriber(capture.clone(), || point("p", Vec::new()));
        clear_worker();
        assert_eq!(capture.events()[0].worker, Some(9));
        let handle = std::thread::spawn(current_worker);
        assert_eq!(handle.join().unwrap(), None);
    }

    #[test]
    fn json_writer_counts_events_and_bytes() {
        let writer = Arc::new(JsonLinesWriter::new(Box::new(Vec::new())));
        with_subscriber(writer.clone(), || {
            counter("a", 1);
            gauge("b", 2, Vec::new());
        });
        assert_eq!(writer.events_written(), 2);
        assert!(writer.bytes_written() > 40);
        writer.flush();
    }

    #[test]
    fn json_writer_creates_parseable_lines_on_disk() {
        let dir = std::env::temp_dir().join(format!("ltc_telemetry_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let writer = Arc::new(JsonLinesWriter::create(&path).unwrap());
        with_subscriber(writer.clone(), || {
            counter("hits", 3);
        });
        writer.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.starts_with("{\"v\":1,"));
        assert!(text.trim_end().ends_with('}'));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn global_install_and_uninstall_toggle_enabled() {
        // The only test installing into the global hub; it restores the
        // hub before releasing the lock.
        let _hub = hub_lock();
        let capture = Arc::new(Capture::new());
        let token = install(capture.clone());
        assert!(enabled());
        counter("global", 1);
        uninstall(token);
        assert!(!enabled());
        counter("global", 1);
        // Tests outside the lock may still emit into the capture while
        // it is installed; count only this test's own event.
        assert_eq!(capture.named("global").len(), 1);
    }

    #[test]
    fn wire_line_wraps_the_event() {
        let ev = Event::now(EventKind::Point, "p");
        let line = wire_line(&ev);
        assert!(line.starts_with("{\"event\":{\"v\":1,"));
        assert!(line.ends_with("}}"));
    }

    #[test]
    fn warning_falls_back_to_stderr_without_subscribers() {
        let _hub = hub_lock();
        // Nothing to assert on stderr contents here; the contract under
        // test is "does not panic and does not emit" when disabled.
        warning("fallback", "telemetry off", Vec::new());
    }
}
