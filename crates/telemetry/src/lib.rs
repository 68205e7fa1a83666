//! Structured telemetry: spans, counters, gauges, warnings and points
//! on one event stream.
//!
//! The simulator's runtime visibility used to be a stderr progress line
//! plus ad-hoc `eprintln!` warnings. This crate replaces that with one
//! structured event stream that every layer — scheduler, backends,
//! subprocess workers, the segment path, and the sketch layer — writes
//! into, and that pluggable [`Subscriber`]s consume: the in-memory
//! [`Aggregator`], a test [`Capture`], or the subscribers in `ltc_sim`
//! (the progress renderer and the JSON-lines log writer).
//!
//! # Design constraints
//!
//! * **Zero dependencies.** The crate sits at the bottom of the
//!   workspace graph so `ltc_stream` and `ltc_analysis` can emit from
//!   hot loops. It holds no JSON code: the event line format (schema
//!   v1), its one decoder and the log writer live in
//!   `ltc_sim::engine::eventlog`, on the `serde_json` shim.
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
//! `span_end` always carries an `elapsed_us` field. `counter` events
//! carry a `value` field holding a **delta** (subscribers sum them);
//! `gauge` events carry a `value` field holding an instantaneous level
//! (subscribers keep the last or the peak).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

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
    /// Float.
    F64(f64),
    /// String.
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
/// carry it. The engine's pool tags each worker thread, and events
/// forwarded from a subprocess worker carry the id of the thread that
/// drives it.
pub fn set_worker(id: u64) {
    WORKER_ID.with(|cell| cell.set(Some(id)));
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
// Built-in subscribers
// ---------------------------------------------------------------------------

/// The one fold over the event stream. Live `ltsim run`/`stream`
/// invocations install it for their end-of-run summary line, and `ltsim
/// events summarize` feeds it the decoded lines of a recorded log and
/// renders its [`Tallies`].
#[derive(Default)]
pub struct Aggregator {
    inner: Mutex<Tallies>,
}

/// Everything an [`Aggregator`] has folded. Named series keep
/// first-seen order, so renderings of the same stream are identical.
#[derive(Debug, Clone, Default)]
pub struct Tallies {
    /// Events folded.
    pub events: u64,
    /// Events folded, per kind.
    pub kinds: HashMap<EventKind, u64>,
    /// `span_begin` events.
    pub begun: u64,
    /// `span_end` events.
    pub ended: u64,
    /// Spans still open, keyed by `(worker, span id)`.
    open: HashMap<(Option<u64>, u64), u64>,
    /// Span ends that closed no open span.
    unmatched_ends: u64,
    /// Per span name: the number of ends and their summed `elapsed_us`.
    pub phases: Vec<(String, u64, u64)>,
    /// Completed `spec` spans, in end order. Failed attempts (ends
    /// tagged with an `outcome`) are not completions.
    pub specs: Vec<SpecRow>,
    /// `cache_probe` points.
    pub cache_probes: u64,
    /// `cache_probe` points with `hit: true`.
    pub cache_hits: u64,
    /// `segment_restore` points per outcome; a replay is keyed
    /// `replay (reason)`.
    pub restores: Vec<(String, u64)>,
    /// Fault points (`spec.retry`, `spec.timeout`, `worker.respawn`) per
    /// name.
    pub faults: Vec<(String, u64)>,
    /// Per gauge name: the peak level and the worker that first reported
    /// it.
    pub gauges: Vec<(String, u64, Option<u64>)>,
    /// Per counter name: the sum of its deltas.
    pub counters: Vec<(String, u64)>,
    /// Warning events, in arrival order.
    pub warnings: Vec<Event>,
}

/// One completed `spec` span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecRow {
    /// The spec's `label`.
    pub label: String,
    /// `run_us`, or the span's `elapsed_us` when it carries none.
    pub run_us: u64,
    /// `queue_wait_us` (0 when absent).
    pub queue_us: u64,
    /// The worker that ran it.
    pub worker: Option<u64>,
}

/// Adds `delta` to `key`'s slot, appending the key when first seen.
fn bump(list: &mut Vec<(String, u64)>, key: &str, delta: u64) {
    match list.iter_mut().find(|(k, _)| k == key) {
        Some((_, v)) => *v += delta,
        None => list.push((key.to_string(), delta)),
    }
}

impl Tallies {
    /// Spans begun but never ended, plus ends that closed no span.
    pub fn unbalanced_spans(&self) -> u64 {
        self.open.values().sum::<u64>() + self.unmatched_ends
    }

    fn fold(&mut self, event: &Event) {
        let number = |name: &str| event.field(name).and_then(FieldValue::as_u64);
        let text = |name: &str| event.field(name).and_then(FieldValue::as_str);
        let name = event.name.as_str();
        self.events += 1;
        *self.kinds.entry(event.kind).or_insert(0) += 1;
        match event.kind {
            EventKind::SpanBegin => {
                self.begun += 1;
                if let Some(id) = event.span {
                    *self.open.entry((event.worker, id)).or_insert(0) += 1;
                }
            }
            EventKind::SpanEnd => {
                self.ended += 1;
                let key = event.span.map(|id| (event.worker, id));
                match key.and_then(|key| self.open.remove(&key).map(|open| (key, open))) {
                    Some((key, open)) if open > 1 => {
                        self.open.insert(key, open - 1);
                    }
                    Some(_) => {}
                    None => self.unmatched_ends += 1,
                }
                let elapsed = number("elapsed_us").unwrap_or(0);
                match self.phases.iter_mut().find(|(n, _, _)| n == name) {
                    Some((_, count, total)) => {
                        *count += 1;
                        *total += elapsed;
                    }
                    None => self.phases.push((name.to_string(), 1, elapsed)),
                }
                if name == "spec" && text("outcome").is_none() {
                    if let Some(label) = text("label") {
                        self.specs.push(SpecRow {
                            label: label.to_string(),
                            run_us: number("run_us").unwrap_or(elapsed),
                            queue_us: number("queue_wait_us").unwrap_or(0),
                            worker: event.worker,
                        });
                    }
                }
            }
            EventKind::Counter => bump(&mut self.counters, name, number("value").unwrap_or(0)),
            EventKind::Gauge => {
                let value = number("value").unwrap_or(0);
                match self.gauges.iter_mut().find(|(n, _, _)| n == name) {
                    Some((_, peak, at)) => {
                        if value > *peak {
                            *peak = value;
                            *at = event.worker;
                        }
                    }
                    None => self.gauges.push((name.to_string(), value, event.worker)),
                }
            }
            EventKind::Warning => self.warnings.push(event.clone()),
            EventKind::Point => match name {
                "cache_probe" => {
                    self.cache_probes += 1;
                    if event.field("hit") == Some(&FieldValue::Bool(true)) {
                        self.cache_hits += 1;
                    }
                }
                "segment_restore" => {
                    let outcome = text("outcome").unwrap_or("unknown");
                    let label = match text("reason") {
                        Some(reason) => format!("{outcome} ({reason})"),
                        None => outcome.to_string(),
                    };
                    bump(&mut self.restores, &label, 1);
                }
                "spec.retry" | "spec.timeout" | "worker.respawn" => {
                    bump(&mut self.faults, name, 1);
                }
                _ => {}
            },
        }
    }
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

    /// Sum of `value` deltas across counter events with this name.
    pub fn counter(&self, name: &str) -> u64 {
        let tallies = self.inner.lock().unwrap();
        tallies.counters.iter().find(|(n, _)| n == name).map_or(0, |(_, total)| *total)
    }

    /// A copy of everything folded so far.
    pub fn tallies(&self) -> Tallies {
        self.inner.lock().unwrap().clone()
    }
}

impl Subscriber for Aggregator {
    fn event(&self, event: &Event) {
        self.inner.lock().unwrap().fold(event);
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
        let tallies = agg.tallies();
        assert_eq!(tallies.gauges, [("mem".to_string(), 30, None)]);
        assert_eq!(tallies.warnings.len(), 1);
        assert_eq!(tallies.warnings[0].name, "corrupt");
        assert_eq!(
            tallies.warnings[0].field("message"),
            Some(&FieldValue::Str("oh no".to_string()))
        );
    }

    #[test]
    fn aggregator_folds_spans_specs_and_histograms() {
        let agg = Aggregator::new();
        let event = |kind, name: &str, span, worker, fields: &[(&str, FieldValue)]| Event {
            t_micros: 0,
            kind,
            name: name.to_string(),
            span,
            worker,
            fields: fields.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
        };
        let label = |l: &str| FieldValue::from(l);
        for e in [
            event(EventKind::SpanBegin, "spec", Some(1), Some(1), &[]),
            event(EventKind::SpanBegin, "spec", Some(2), Some(2), &[]),
            event(EventKind::SpanBegin, "spec", Some(1), Some(2), &[]),
            event(
                EventKind::SpanEnd,
                "spec",
                Some(1),
                Some(1),
                &[
                    ("elapsed_us", 9u64.into()),
                    ("label", label("a")),
                    ("queue_wait_us", 3u64.into()),
                ],
            ),
            // A failed attempt balances its span but is no completion.
            event(
                EventKind::SpanEnd,
                "spec",
                Some(2),
                Some(2),
                &[("elapsed_us", 5u64.into()), ("label", label("b")), ("outcome", label("retry"))],
            ),
            // Span 1 of worker 2 stays open; span 7 was never opened.
            event(EventKind::SpanEnd, "spec", Some(7), Some(2), &[("elapsed_us", 1u64.into())]),
            event(EventKind::Point, "cache_probe", None, None, &[("hit", true.into())]),
            event(EventKind::Point, "cache_probe", None, None, &[("hit", false.into())]),
            event(EventKind::Point, "segment_restore", None, None, &[("outcome", label("x"))]),
            event(
                EventKind::Point,
                "segment_restore",
                None,
                None,
                &[("outcome", label("replay")), ("reason", label("missing"))],
            ),
            event(EventKind::Point, "spec.timeout", None, None, &[]),
            event(EventKind::Point, "spec.timeout", None, None, &[]),
            event(EventKind::Point, "elsewhere", None, None, &[]),
            event(EventKind::Gauge, "mem", None, Some(1), &[("value", 8u64.into())]),
            event(EventKind::Gauge, "mem", None, Some(2), &[("value", 8u64.into())]),
            event(EventKind::Counter, "z", None, None, &[("value", 2u64.into())]),
            event(EventKind::Counter, "a", None, None, &[]),
        ] {
            agg.event(&e);
        }
        let t = agg.tallies();
        assert_eq!((t.events, t.begun, t.ended), (17, 3, 3));
        assert_eq!(t.kinds[&EventKind::Point], 7);
        assert_eq!(t.unbalanced_spans(), 2);
        assert_eq!(t.phases, [("spec".to_string(), 3, 15)]);
        let row = SpecRow { label: "a".to_string(), run_us: 9, queue_us: 3, worker: Some(1) };
        assert_eq!(t.specs, [row]);
        assert_eq!((t.cache_hits, t.cache_probes), (1, 2));
        let named = |pairs: &[(&str, u64)]| -> Vec<(String, u64)> {
            pairs.iter().map(|(n, c)| (n.to_string(), *c)).collect()
        };
        assert_eq!(t.restores, named(&[("x", 1), ("replay (missing)", 1)]));
        assert_eq!(t.faults, named(&[("spec.timeout", 2)]));
        // A tie keeps the worker that reached the peak first.
        assert_eq!(t.gauges, [("mem".to_string(), 8, Some(1))]);
        // Counters keep first-seen order, a missing value counting 0.
        assert_eq!(t.counters, named(&[("z", 2), ("a", 0)]));
    }

    #[test]
    fn worker_id_is_thread_scoped_and_stamped() {
        let capture = Arc::new(Capture::new());
        set_worker(9);
        with_subscriber(capture.clone(), || point("p", Vec::new()));
        assert_eq!(capture.events()[0].worker, Some(9));
        let handle = std::thread::spawn(current_worker);
        assert_eq!(handle.join().unwrap(), None);
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
    fn warning_falls_back_to_stderr_without_subscribers() {
        let _hub = hub_lock();
        // Nothing to assert on stderr contents here; the contract under
        // test is "does not panic and does not emit" when disabled.
        warning("fallback", "telemetry off", Vec::new());
    }
}
