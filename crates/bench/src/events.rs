//! Rendering `--events` JSON-lines logs (`ltsim events summarize`).
//!
//! An event log recorded by `ltsim run --events FILE` holds one
//! `ltc_telemetry` schema-v1 event per line: scheduler planning spans
//! and counters, per-spec execution spans (queue wait vs run time,
//! worker ids), segment-restore outcomes, sketch occupancy gauges, and
//! structured warnings — including events forwarded from subprocess
//! workers. [`summarize`] decodes each line with
//! [`ltc_sim::engine::eventlog::decode`], folds it into the same
//! [`Aggregator`] live runs install, and renders the operator-facing
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

use ltc_sim::engine::eventlog;
use ltc_sim::report::Table;
use ltc_telemetry::{Aggregator, EventKind, FieldValue, Subscriber, Tallies};

/// Decodes, folds and renders an event log in one step.
///
/// # Errors
///
/// Returns a message naming the first malformed line (see
/// [`eventlog::decode`]).
pub fn summarize(text: &str) -> Result<String, String> {
    fold(text).map(|tallies| render(&tallies))
}

/// Decodes each line of an event log (blank lines ignored) into one
/// [`Aggregator`] and returns what it folded, or a message naming the
/// first malformed line.
fn fold(text: &str) -> Result<Tallies, String> {
    let aggregator = Aggregator::new();
    for (i, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let event = eventlog::decode(trimmed).map_err(|e| format!("line {}: {e}", i + 1))?;
        aggregator.event(&event);
    }
    Ok(aggregator.tallies())
}

/// How many of the slowest specs the summary lists.
const SLOWEST: usize = 5;

/// Renders the breakdown tables.
fn render(tallies: &Tallies) -> String {
    let mut out = String::new();
    let kind = |k: EventKind| tallies.kinds.get(&k).copied().unwrap_or(0);
    out.push_str(&format!(
        "event log: {} events ({} span pairs, {} counters, {} gauges, {} points, {} warnings)\n",
        tallies.events,
        tallies.ended.min(tallies.begun),
        kind(EventKind::Counter),
        kind(EventKind::Gauge),
        kind(EventKind::Point),
        kind(EventKind::Warning),
    ));
    out.push_str(&format!(
        "span balance: {} begun, {} ended, {} unbalanced\n\n",
        tallies.begun,
        tallies.ended,
        tallies.unbalanced_spans()
    ));
    let ms = |us: u64| format!("{:.2}", us as f64 / 1e3);
    let worker = |w: Option<u64>| w.map_or_else(|| "-".to_string(), |w| w.to_string());
    let counts = |rows: &[(String, u64)]| -> Vec<Vec<String>> {
        rows.iter().map(|(name, count)| vec![name.clone(), count.to_string()]).collect()
    };

    let mut phases: Vec<_> = tallies.phases.iter().collect();
    phases.sort_by_key(|(_, _, total)| std::cmp::Reverse(*total));
    let phases =
        phases.iter().map(|(name, count, us)| vec![name.clone(), count.to_string(), ms(*us)]);
    section(&mut out, vec!["phase (span)", "count", "total ms"], phases.collect());

    let mut specs: Vec<_> = tallies.specs.iter().collect();
    specs.sort_by_key(|s| std::cmp::Reverse(s.run_us));
    let specs = specs.iter().take(SLOWEST);
    let specs =
        specs.map(|s| vec![s.label.clone(), ms(s.run_us), ms(s.queue_us), worker(s.worker)]);
    section(&mut out, vec!["slowest specs", "run ms", "queue ms", "worker"], specs.collect());

    if tallies.cache_probes > 0 {
        out.push_str(&format!(
            "artifact cache: {} hits / {} probes ({:.0}%)\n\n",
            tallies.cache_hits,
            tallies.cache_probes,
            tallies.cache_hits as f64 / tallies.cache_probes as f64 * 100.0
        ));
    }

    section(&mut out, vec!["segment restore", "count"], counts(&tallies.restores));
    section(&mut out, vec!["fault", "count"], counts(&tallies.faults));
    let gauges = tallies.gauges.iter();
    let gauges = gauges.map(|(name, peak, at)| vec![name.clone(), peak.to_string(), worker(*at)]);
    section(&mut out, vec!["gauge", "peak", "worker"], gauges.collect());
    section(&mut out, vec!["counter", "total"], counts(&tallies.counters));

    let warnings = &tallies.warnings;
    if !warnings.is_empty() {
        out.push_str(&format!("warnings ({}):\n", warnings.len()));
        for w in warnings.iter().take(5) {
            let message = w.field("message").and_then(FieldValue::as_str).unwrap_or("(no message)");
            out.push_str(&format!("  {}: {message}\n", w.name));
        }
        if warnings.len() > 5 {
            out.push_str(&format!("  ... and {} more\n", warnings.len() - 5));
        }
    }
    out
}

/// Appends a table and a blank line, unless it has no rows.
fn section(out: &mut String, headers: Vec<&str>, rows: Vec<Vec<String>>) {
    if rows.is_empty() {
        return;
    }
    let mut t = Table::new(headers);
    for row in rows {
        t.row(row);
    }
    out.push_str(&t.render());
    out.push('\n');
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
        let tallies = fold(&log).unwrap();
        // Failed attempts still balance their spans...
        assert_eq!(tallies.unbalanced_spans(), 0);
        let out = render(&tallies);
        // ...but only the completion makes the slowest-spec table.
        assert!(out.contains("completed"), "{out}");
        assert!(!out.contains("failing"), "{out}");
    }

    #[test]
    fn unbalanced_spans_are_counted() {
        let log = fold(
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
        let log = fold(
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
        let text: String = capture.events().iter().map(|e| eventlog::encode(e) + "\n").collect();
        let log = fold(&text).unwrap();
        assert_eq!(log.unbalanced_spans(), 0);
        let out = render(&log);
        assert!(out.contains("coverage/gzip/baseline/1000k/s1"), "{out}");
        assert_eq!(capture.events().iter().filter(|e| e.kind == EventKind::SpanEnd).count(), 1);
    }
}
