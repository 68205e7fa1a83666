//! Rendering `--events` JSON-lines logs (`ltsim events summarize`).
//!
//! An event log recorded by `ltsim run --events FILE` holds one
//! `ltc_telemetry` schema-v1 event per line: scheduler planning spans
//! and counters, per-spec execution spans (queue wait vs run time,
//! worker ids), segment-restore outcomes, sketch occupancy gauges, and
//! structured warnings — including events forwarded from subprocess
//! workers. [`summarize`] digests such a log into the operator-facing
//! breakdown tables: per-phase span totals, the slowest specs, the
//! artifact-cache hit ratio, the restore-outcome histogram (a replay is
//! listed with its reason), the fault histogram (`spec.retry` /
//! `spec.timeout` / `worker.respawn` points emitted by the supervised
//! backends), and peak gauge levels (e.g. peak worker summary memory).
//!
//! Failed execution attempts close their `spec` spans with an `outcome`
//! field (`"panic"`, `"retry"`, `"timeout"`); those ends count toward
//! span balance and phase totals but are excluded from the slowest-spec
//! table so retries do not masquerade as slow completions.

use std::collections::HashMap;

use ltc_sim::report::Table;
use ltc_sim::serde_json;
use serde::Value;

/// Parses and renders an event log in one step.
///
/// # Errors
///
/// Returns a message naming the first malformed line (bad JSON, missing
/// required fields, or an unsupported schema version).
pub fn summarize(text: &str) -> Result<String, String> {
    EventLog::parse(text).map(|log| log.render())
}

/// How many of the slowest specs the summary lists.
const SLOWEST: usize = 5;

/// Aggregated view of one event log.
#[derive(Default)]
pub struct EventLog {
    events: u64,
    kinds: HashMap<String, u64>,
    /// Open spans keyed by `(worker, span id)`; used for balance only.
    open: HashMap<(Option<u64>, u64), u64>,
    /// Span ends that never saw a begin (or vice versa at the end).
    unmatched_ends: u64,
    begun: u64,
    ended: u64,
    /// Per span name: (count, total elapsed µs) across span ends.
    phases: Vec<(String, u64, u64)>,
    specs: Vec<SpecRow>,
    cache_hits: u64,
    cache_probes: u64,
    restores: Vec<(String, u64)>,
    /// Fault-path points keyed by event name (`spec.retry`, …).
    faults: Vec<(String, u64)>,
    gauges: Vec<(String, u64, Option<u64>)>,
    counters: Vec<(String, u64)>,
    warnings: Vec<String>,
}

/// One completed `spec` (or `worker.spec`) span.
struct SpecRow {
    label: String,
    run_us: u64,
    queue_us: u64,
    worker: Option<u64>,
}

fn field_u64(event: &Value, name: &str) -> Option<u64> {
    event.get("fields").and_then(|f| f.get(name)).and_then(Value::as_u64)
}

fn field_str<'a>(event: &'a Value, name: &str) -> Option<&'a str> {
    event.get("fields").and_then(|f| f.get(name)).and_then(Value::as_str)
}

/// Increments `key`'s slot in an insertion-ordered association list
/// (keeps first-seen order, unlike a `HashMap`, so output is stable).
fn bump(list: &mut Vec<(String, u64)>, key: &str, delta: u64) {
    match list.iter_mut().find(|(k, _)| k == key) {
        Some((_, v)) => *v += delta,
        None => list.push((key.to_string(), delta)),
    }
}

impl EventLog {
    /// Parses a JSON-lines event log (blank lines ignored).
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed line.
    pub fn parse(text: &str) -> Result<EventLog, String> {
        let mut log = EventLog::default();
        for (i, line) in text.lines().enumerate() {
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            let event = serde_json::parse(trimmed).map_err(|e| format!("line {}: {e}", i + 1))?;
            log.ingest(&event).map_err(|what| format!("line {}: {what}", i + 1))?;
        }
        Ok(log)
    }

    fn ingest(&mut self, event: &Value) -> Result<(), String> {
        match event.get("v").and_then(Value::as_u64) {
            Some(1) => {}
            Some(v) => return Err(format!("unsupported event schema v{v}")),
            None => return Err("missing schema version field `v`".to_string()),
        }
        let kind = event
            .get("kind")
            .and_then(Value::as_str)
            .ok_or_else(|| "missing `kind`".to_string())?;
        let name = event
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| "missing `name`".to_string())?;
        self.events += 1;
        *self.kinds.entry(kind.to_string()).or_insert(0) += 1;
        let worker = event.get("worker").and_then(Value::as_u64);
        let span = event.get("span").and_then(Value::as_u64);
        match kind {
            "span_begin" => {
                self.begun += 1;
                if let Some(id) = span {
                    *self.open.entry((worker, id)).or_insert(0) += 1;
                }
            }
            "span_end" => {
                self.ended += 1;
                match span.map(|id| (worker, id)) {
                    Some(key) if self.open.get(&key).copied().unwrap_or(0) > 0 => {
                        let open = self.open.get_mut(&key).expect("checked above");
                        *open -= 1;
                        if *open == 0 {
                            self.open.remove(&key);
                        }
                    }
                    _ => self.unmatched_ends += 1,
                }
                let elapsed = field_u64(event, "elapsed_us").unwrap_or(0);
                match self.phases.iter_mut().find(|(n, _, _)| n == name) {
                    Some((_, count, total)) => {
                        *count += 1;
                        *total += elapsed;
                    }
                    None => self.phases.push((name.to_string(), 1, elapsed)),
                }
                // Failed attempts (outcome-tagged ends) are not
                // completions; keep them out of the slowest-spec table.
                if (name == "spec" || name == "worker.spec")
                    && field_str(event, "outcome").is_none()
                {
                    if let Some(label) = field_str(event, "label") {
                        self.specs.push(SpecRow {
                            label: format!(
                                "{label}{}",
                                if name == "worker.spec" { " (worker)" } else { "" }
                            ),
                            run_us: field_u64(event, "run_us").unwrap_or(elapsed),
                            queue_us: field_u64(event, "queue_wait_us").unwrap_or(0),
                            worker,
                        });
                    }
                }
            }
            "counter" => {
                bump(&mut self.counters, name, field_u64(event, "value").unwrap_or(0));
            }
            "gauge" => {
                let value = field_u64(event, "value").unwrap_or(0);
                match self.gauges.iter_mut().find(|(n, _, _)| n == name) {
                    Some((_, peak, at)) => {
                        if value > *peak {
                            *peak = value;
                            *at = worker;
                        }
                    }
                    None => self.gauges.push((name.to_string(), value, worker)),
                }
            }
            "warning" => {
                let message = field_str(event, "message").unwrap_or("(no message)");
                self.warnings.push(format!("{name}: {message}"));
            }
            "point" => match name {
                "cache_probe" => {
                    self.cache_probes += 1;
                    if event
                        .get("fields")
                        .and_then(|f| f.get("hit"))
                        .is_some_and(|v| *v == Value::Bool(true))
                    {
                        self.cache_hits += 1;
                    }
                }
                "segment_restore" => {
                    let outcome = field_str(event, "outcome").unwrap_or("unknown");
                    let label = match field_str(event, "reason") {
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
            other => return Err(format!("unknown event kind `{other}`")),
        }
        Ok(())
    }

    /// Spans that begun but never ended plus ends without begins.
    pub fn unbalanced_spans(&self) -> u64 {
        self.open.values().sum::<u64>() + self.unmatched_ends
    }

    /// Renders the breakdown tables.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let kind = |k: &str| self.kinds.get(k).copied().unwrap_or(0);
        out.push_str(&format!(
            "event log: {} events ({} span pairs, {} counters, {} gauges, {} points, {} warnings)\n",
            self.events,
            self.ended.min(self.begun),
            kind("counter"),
            kind("gauge"),
            kind("point"),
            kind("warning"),
        ));
        out.push_str(&format!(
            "span balance: {} begun, {} ended, {} unbalanced\n\n",
            self.begun,
            self.ended,
            self.unbalanced_spans()
        ));

        if !self.phases.is_empty() {
            let mut phases = self.phases.clone();
            phases.sort_by_key(|(_, _, total)| std::cmp::Reverse(*total));
            let mut t = Table::new(vec!["phase (span)", "count", "total ms"]);
            for (name, count, total_us) in &phases {
                t.row(vec![
                    name.clone(),
                    count.to_string(),
                    format!("{:.2}", *total_us as f64 / 1e3),
                ]);
            }
            out.push_str(&t.render());
            out.push('\n');
        }

        if !self.specs.is_empty() {
            let mut specs: Vec<&SpecRow> = self.specs.iter().collect();
            specs.sort_by_key(|s| std::cmp::Reverse(s.run_us));
            let mut t = Table::new(vec!["slowest specs", "run ms", "queue ms", "worker"]);
            for s in specs.iter().take(SLOWEST) {
                t.row(vec![
                    s.label.clone(),
                    format!("{:.2}", s.run_us as f64 / 1e3),
                    format!("{:.2}", s.queue_us as f64 / 1e3),
                    s.worker.map_or_else(|| "-".to_string(), |w| w.to_string()),
                ]);
            }
            out.push_str(&t.render());
            out.push('\n');
        }

        if self.cache_probes > 0 {
            out.push_str(&format!(
                "artifact cache: {} hits / {} probes ({:.0}%)\n\n",
                self.cache_hits,
                self.cache_probes,
                self.cache_hits as f64 / self.cache_probes as f64 * 100.0
            ));
        }

        if !self.restores.is_empty() {
            let mut t = Table::new(vec!["segment restore", "count"]);
            for (outcome, count) in &self.restores {
                t.row(vec![outcome.clone(), count.to_string()]);
            }
            out.push_str(&t.render());
            out.push('\n');
        }

        if !self.faults.is_empty() {
            let mut t = Table::new(vec!["fault", "count"]);
            for (name, count) in &self.faults {
                t.row(vec![name.clone(), count.to_string()]);
            }
            out.push_str(&t.render());
            out.push('\n');
        }

        if !self.gauges.is_empty() {
            let mut t = Table::new(vec!["gauge", "peak", "worker"]);
            for (name, peak, at) in &self.gauges {
                t.row(vec![
                    name.clone(),
                    peak.to_string(),
                    at.map_or_else(|| "-".to_string(), |w| w.to_string()),
                ]);
            }
            out.push_str(&t.render());
            out.push('\n');
        }

        if !self.counters.is_empty() {
            let mut t = Table::new(vec!["counter", "total"]);
            for (name, total) in &self.counters {
                t.row(vec![name.clone(), total.to_string()]);
            }
            out.push_str(&t.render());
            out.push('\n');
        }

        if !self.warnings.is_empty() {
            out.push_str(&format!("warnings ({}):\n", self.warnings.len()));
            for w in self.warnings.iter().take(5) {
                out.push_str(&format!("  {w}\n"));
            }
            if self.warnings.len() > 5 {
                out.push_str(&format!("  ... and {} more\n", self.warnings.len() - 5));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small but representative log: a plan span, two spec spans on
    /// two workers, cache probes, two segment restores, gauges, counters,
    /// and a warning.
    fn sample_log() -> String {
        [
            r#"{"v":1,"t":10,"kind":"span_begin","name":"scheduler.plan","span":1,"fields":{}}"#,
            r#"{"v":1,"t":90,"kind":"span_end","name":"scheduler.plan","span":1,"fields":{"elapsed_us":80,"cache_hits":1,"to_run":2}}"#,
            r#"{"v":1,"t":95,"kind":"counter","name":"scheduler.cache_hits","fields":{"value":1}}"#,
            r#"{"v":1,"t":96,"kind":"point","name":"cache_probe","fields":{"label":"a","hit":true}}"#,
            r#"{"v":1,"t":97,"kind":"point","name":"cache_probe","fields":{"label":"b","hit":false}}"#,
            r#"{"v":1,"t":98,"kind":"point","name":"cache_probe","fields":{"label":"c","hit":false}}"#,
            r#"{"v":1,"t":100,"kind":"point","name":"run_begin","fields":{"total":2,"backend":"threads"}}"#,
            r#"{"v":1,"t":101,"kind":"span_begin","name":"spec","span":2,"worker":1,"fields":{"label":"b"}}"#,
            r#"{"v":1,"t":102,"kind":"span_begin","name":"spec","span":3,"worker":2,"fields":{"label":"c"}}"#,
            r#"{"v":1,"t":150,"kind":"point","name":"segment_restore","worker":1,"fields":{"outcome":"warm_image","index":1,"start":500,"warm":0}}"#,
            r#"{"v":1,"t":151,"kind":"point","name":"segment_restore","worker":2,"fields":{"outcome":"replay","reason":"missing","index":2,"start":1000,"warm":1000}}"#,
            r#"{"v":1,"t":180,"kind":"gauge","name":"sketch.memory_bytes","worker":1,"fields":{"value":4096}}"#,
            r#"{"v":1,"t":181,"kind":"gauge","name":"sketch.memory_bytes","worker":2,"fields":{"value":8192}}"#,
            r#"{"v":1,"t":190,"kind":"counter","name":"sketch.evictions","worker":2,"fields":{"value":7}}"#,
            r#"{"v":1,"t":200,"kind":"span_end","name":"spec","span":2,"worker":1,"fields":{"elapsed_us":99,"label":"b","queue_wait_us":5,"run_us":99}}"#,
            r#"{"v":1,"t":300,"kind":"span_end","name":"spec","span":3,"worker":2,"fields":{"elapsed_us":198,"label":"c","queue_wait_us":6,"run_us":198}}"#,
            r#"{"v":1,"t":310,"kind":"warning","name":"corrupt_store","fields":{"message":"ignoring corrupt checkpoint store"}}"#,
            r#"{"v":1,"t":320,"kind":"point","name":"run_end","fields":{"completed":2}}"#,
        ]
        .join("\n")
    }

    #[test]
    fn summarize_renders_every_section() {
        let out = summarize(&sample_log()).unwrap();
        assert!(out.contains("event log: 18 events"), "{out}");
        assert!(out.contains("span balance: 3 begun, 3 ended, 0 unbalanced"), "{out}");
        // Phase totals: scheduler.plan and the two spec spans.
        assert!(out.contains("scheduler.plan"), "{out}");
        assert!(out.contains("spec"), "{out}");
        // Slowest spec first: c ran 198 µs on worker 2.
        let c_pos = out.find("c ").or_else(|| out.find("| c")).unwrap_or(usize::MAX);
        let b_pos = out.find("b ").or_else(|| out.find("| b")).unwrap_or(usize::MAX);
        assert!(c_pos < b_pos, "slowest spec listed first:\n{out}");
        assert!(out.contains("artifact cache: 1 hits / 3 probes (33%)"), "{out}");
        assert!(out.contains("warm_image"), "{out}");
        assert!(out.contains("replay (missing)"), "replays show their reason: {out}");
        assert!(out.contains("sketch.memory_bytes"), "{out}");
        assert!(out.contains("8192"), "peak gauge keeps the max: {out}");
        assert!(out.contains("sketch.evictions"), "{out}");
        assert!(out.contains("corrupt_store: ignoring corrupt checkpoint store"), "{out}");
    }

    #[test]
    fn fault_points_build_the_fault_histogram() {
        let log = [
            r#"{"v":1,"t":1,"kind":"point","name":"spec.retry","fields":{"label":"a","attempt":1,"reason":"worker died"}}"#,
            r#"{"v":1,"t":2,"kind":"point","name":"spec.retry","fields":{"label":"b","attempt":1,"reason":"worker died"}}"#,
            r#"{"v":1,"t":3,"kind":"point","name":"spec.timeout","fields":{"label":"a","attempt":2,"reason":"timed out"}}"#,
            r#"{"v":1,"t":4,"kind":"point","name":"worker.respawn","fields":{"worker":0,"consecutive_failures":1,"backoff_ms":1,"reason":"exited"}}"#,
        ]
        .join("\n");
        let out = summarize(&log).unwrap();
        assert!(out.contains("fault"), "{out}");
        assert!(out.contains("spec.retry"), "{out}");
        assert!(out.contains("spec.timeout"), "{out}");
        assert!(out.contains("worker.respawn"), "{out}");
        // spec.retry appeared twice, the others once.
        let retry_row = out.lines().find(|l| l.contains("spec.retry")).unwrap();
        assert!(retry_row.contains('2'), "{retry_row}");
    }

    #[test]
    fn outcome_tagged_spec_ends_stay_out_of_the_slowest_table() {
        let log = [
            r#"{"v":1,"t":1,"kind":"span_begin","name":"spec","span":1,"worker":1,"fields":{"label":"failing"}}"#,
            r#"{"v":1,"t":2,"kind":"span_end","name":"spec","span":1,"worker":1,"fields":{"elapsed_us":999,"label":"failing","run_us":999,"outcome":"retry"}}"#,
            r#"{"v":1,"t":3,"kind":"span_begin","name":"spec","span":2,"worker":1,"fields":{"label":"completed"}}"#,
            r#"{"v":1,"t":4,"kind":"span_end","name":"spec","span":2,"worker":1,"fields":{"elapsed_us":10,"label":"completed","run_us":10}}"#,
        ]
        .join("\n");
        let parsed = EventLog::parse(&log).unwrap();
        // Failed attempts still balance their spans...
        assert_eq!(parsed.unbalanced_spans(), 0);
        let out = parsed.render();
        // ...but only the completion makes the slowest-spec table.
        assert!(out.contains("completed"), "{out}");
        assert!(!out.contains("failing"), "{out}");
    }

    #[test]
    fn unbalanced_spans_are_counted() {
        let log = EventLog::parse(
            &[
                r#"{"v":1,"t":1,"kind":"span_begin","name":"spec","span":1,"worker":1,"fields":{}}"#,
                r#"{"v":1,"t":2,"kind":"span_end","name":"spec","span":9,"worker":1,"fields":{"elapsed_us":1}}"#,
            ]
            .join("\n"),
        )
        .unwrap();
        // One begin never ended, one end never begun.
        assert_eq!(log.unbalanced_spans(), 2);
        // The same span id on different workers is two distinct spans.
        let log = EventLog::parse(
            &[
                r#"{"v":1,"t":1,"kind":"span_begin","name":"spec","span":1,"worker":1,"fields":{}}"#,
                r#"{"v":1,"t":2,"kind":"span_end","name":"spec","span":1,"worker":2,"fields":{"elapsed_us":1}}"#,
            ]
            .join("\n"),
        )
        .unwrap();
        assert_eq!(log.unbalanced_spans(), 2);
    }

    #[test]
    fn bad_lines_are_reported_with_their_line_number() {
        let err = summarize("{\"v\":1}\nnot json\n").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        let err = summarize(r#"{"v":2,"t":1,"kind":"point","name":"x","fields":{}}"#).unwrap_err();
        assert!(err.contains("unsupported event schema v2"), "{err}");
        let err = summarize(r#"{"v":1,"t":1,"kind":"bogus","name":"x","fields":{}}"#).unwrap_err();
        assert!(err.contains("unknown event kind"), "{err}");
    }

    #[test]
    fn real_telemetry_events_round_trip_into_the_summary() {
        // Events produced by the actual emitter parse and summarize.
        use ltc_telemetry::{Capture, EventKind};
        let capture = std::sync::Arc::new(Capture::new());
        ltc_telemetry::with_subscriber(capture.clone(), || {
            let span = ltc_telemetry::span(
                "spec",
                vec![("label".to_string(), "coverage/gzip/baseline/1000k/s1".into())],
            );
            ltc_telemetry::counter("scheduler.cache_hits", 2);
            ltc_telemetry::gauge("sketch.memory_bytes", 1024, Vec::new());
            span.end_with(vec![
                ("label".to_string(), "coverage/gzip/baseline/1000k/s1".into()),
                ("run_us".to_string(), 42u64.into()),
                ("queue_wait_us".to_string(), 1u64.into()),
            ]);
        });
        let text: String = capture.events().iter().map(|e| e.to_json_line() + "\n").collect();
        let log = EventLog::parse(&text).unwrap();
        assert_eq!(log.unbalanced_spans(), 0);
        let out = log.render();
        assert!(out.contains("coverage/gzip/baseline/1000k/s1"), "{out}");
        assert_eq!(capture.events().iter().filter(|e| e.kind == EventKind::SpanEnd).count(), 1);
    }
}
