//! Chrome trace-event export: turns recorded thread rings into the JSON
//! Trace Event Format that Perfetto and `chrome://tracing` load directly.
//!
//! Each recorded thread becomes one track: a `"M"` thread-name metadata
//! record, `"X"` complete events for matched open/close span pairs (nested
//! spans nest on the track), and `"i"` instant events. Timestamps are the
//! recorder's arm-epoch nanoseconds converted to the format's microseconds.
//!
//! Matching is a per-thread stack — guards are `!Send`, so a well-formed
//! ring closes spans in LIFO order on the thread that opened them.
//! [`wellformedness`] reports any violation; the nesting tests assert zero.

use crate::json::{n, nu64, obj, s, Json};
use crate::recorder::{Event, EventKind, ThreadTrace};

/// Nesting audit of one thread's ring.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Wellformedness {
    /// Spans still open at the end of the ring (snapshot mid-span).
    pub unmatched_opens: usize,
    /// Closes with no matching open, or closing a different span than the
    /// innermost open one — impossible unless guards leak across threads.
    pub mismatched_closes: usize,
}

impl Wellformedness {
    /// No violations.
    pub fn is_clean(&self) -> bool {
        self.unmatched_opens == 0 && self.mismatched_closes == 0
    }
}

/// Audits span nesting on one thread: every `Close` must match the
/// innermost open span of the same name, and a quiescent snapshot must
/// leave the stack empty.
pub fn wellformedness(trace: &ThreadTrace) -> Wellformedness {
    let mut stack: Vec<&Event> = Vec::new();
    let mut report = Wellformedness::default();
    for event in &trace.events {
        match event.kind {
            EventKind::Open => stack.push(event),
            EventKind::Close => match stack.pop() {
                Some(open) if open.name == event.name => {}
                _ => report.mismatched_closes += 1,
            },
            EventKind::Instant => {}
        }
    }
    report.unmatched_opens = stack.len();
    report
}

/// Counts spans (open events) named `name` across all threads.
pub fn span_count(threads: &[ThreadTrace], name: &str) -> usize {
    threads
        .iter()
        .flat_map(|t| &t.events)
        .filter(|e| e.kind == EventKind::Open && e.name.as_str() == name)
        .count()
}

/// The close-event details of every span named `name`, across threads (the
/// kernel names of `lift.kernel` spans, the hit/miss of cache lookups…).
pub fn span_details(threads: &[ThreadTrace], name: &str) -> Vec<&'static str> {
    threads
        .iter()
        .flat_map(|t| &t.events)
        .filter(|e| e.kind == EventKind::Close && e.name.as_str() == name)
        .filter_map(|e| e.detail.map(|d| d.as_str()))
        .collect()
}

/// One trace event: `ph`, `pid` and `tid`, then `timing`, `name` and the
/// optional `args` (the format's key order).
fn trace_event(
    ph: &str,
    tid: u64,
    timing: Vec<(&str, Json)>,
    name: &str,
    args: Option<Json>,
) -> Json {
    let mut fields = vec![("ph", s(ph)), ("pid", n(1)), ("tid", nu64(tid))];
    fields.extend(timing);
    fields.push(("name", s(name)));
    fields.extend(args.map(|a| ("args", a)));
    obj(fields)
}

/// Recorder nanoseconds in the format's microseconds.
fn us(ns: u64) -> Json {
    Json::Num(ns as f64 / 1e3)
}

/// An event's `args`: the detail symbol and the numeric argument, each only
/// when present.
fn args(event: &Event) -> Json {
    let mut fields = Vec::new();
    if let Some(detail) = event.detail {
        fields.push(("detail", s(detail.as_str())));
    }
    if event.arg != 0 {
        fields.push(("arg", nu64(event.arg)));
    }
    obj(fields)
}

/// Renders thread traces as a Chrome trace-event JSON document. Spans left
/// open by a mid-run snapshot are emitted as `"B"` begin events so the
/// trace still loads; a quiescent export has none.
pub fn trace_json(threads: &[ThreadTrace]) -> String {
    let mut events = Vec::new();
    for thread in threads {
        let thread_name = obj(vec![("name", s(&thread.thread))]);
        events.push(trace_event(
            "M",
            thread.tid,
            vec![],
            "thread_name",
            Some(thread_name),
        ));
        // Match open/close pairs into "X" complete events. The completes
        // are emitted at close time; Perfetto sorts by ts, so order in the
        // array does not matter.
        let mut stack: Vec<&Event> = Vec::new();
        for event in &thread.events {
            match event.kind {
                EventKind::Open => stack.push(event),
                EventKind::Close => {
                    let Some(open) = stack.pop().filter(|o| o.name == event.name) else {
                        continue; // audited separately by `wellformedness`
                    };
                    let dur = event.ts_ns.saturating_sub(open.ts_ns);
                    events.push(trace_event(
                        "X",
                        thread.tid,
                        vec![("ts", us(open.ts_ns)), ("dur", us(dur))],
                        event.name.as_str(),
                        Some(args(event)),
                    ));
                }
                EventKind::Instant => events.push(trace_event(
                    "i",
                    thread.tid,
                    vec![("ts", us(event.ts_ns)), ("s", s("t"))],
                    event.name.as_str(),
                    Some(args(event)),
                )),
            }
        }
        for open in stack {
            let timing = vec![("ts", us(open.ts_ns))];
            events.push(trace_event(
                "B",
                thread.tid,
                timing,
                open.name.as_str(),
                None,
            ));
        }
    }
    obj(vec![("traceEvents", Json::Arr(events))]).to_string() + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use stng_intern::Symbol;

    fn ev(name: &str, kind: EventKind, ts_ns: u64) -> Event {
        Event {
            name: Symbol::intern(name),
            kind,
            ts_ns,
            detail: None,
            arg: 0,
        }
    }

    fn trace(events: Vec<Event>) -> ThreadTrace {
        ThreadTrace {
            thread: "t".to_string(),
            tid: 0,
            events,
            dropped: 0,
        }
    }

    /// The exported document's events, parsed back.
    fn parsed_events(threads: &[ThreadTrace]) -> Vec<Json> {
        let doc = Json::parse(&trace_json(threads)).expect("trace is valid JSON");
        doc.get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents")
            .to_vec()
    }

    fn field<'a>(event: &'a Json, key: &str) -> Option<&'a str> {
        event.get(key).and_then(Json::as_str)
    }

    #[test]
    fn matched_spans_export_as_complete_events() {
        let t = trace(vec![
            ev("outer", EventKind::Open, 1_000),
            ev("inner", EventKind::Open, 2_000),
            ev("inner", EventKind::Close, 3_000),
            ev("ping", EventKind::Instant, 3_500),
            ev("outer", EventKind::Close, 4_000),
        ]);
        assert!(wellformedness(&t).is_clean());
        let events = parsed_events(&[t]);
        let phase = |ph: &str| events.iter().filter(|e| field(e, "ph") == Some(ph)).count();
        assert_eq!(phase("X"), 2);
        let inner = events
            .iter()
            .find(|e| field(e, "ph") == Some("X") && field(e, "name") == Some("inner"))
            .expect("inner span");
        assert_eq!(inner.get("dur").and_then(Json::as_f64), Some(1.0));
        assert_eq!(inner.get("ts").and_then(Json::as_f64), Some(2.0));
        assert_eq!(phase("i"), 1);
        assert!(events
            .iter()
            .any(|e| field(e, "name") == Some("thread_name")));
        assert_eq!(phase("B"), 0);
    }

    #[test]
    fn unmatched_events_are_audited_and_still_load() {
        let t = trace(vec![
            ev("a", EventKind::Open, 1_000),
            ev("b", EventKind::Close, 2_000),
        ]);
        let audit = wellformedness(&t);
        assert_eq!(audit.mismatched_closes, 1);
        assert_eq!(audit.unmatched_opens, 0);
        let open_only = trace(vec![ev("a", EventKind::Open, 1_000)]);
        assert_eq!(wellformedness(&open_only).unmatched_opens, 1);
        let events = parsed_events(&[open_only]);
        assert!(events.iter().any(|e| field(e, "ph") == Some("B")));
    }

    #[test]
    fn names_and_details_with_control_characters_round_trip() {
        let awkward = "q\"b\\n\nu\u{1}";
        let mut close = ev(awkward, EventKind::Close, 2_000);
        close.detail = Some(Symbol::intern(awkward));
        close.arg = 7;
        let mut t = trace(vec![ev(awkward, EventKind::Open, 1_000), close]);
        t.thread = awkward.to_string();
        let events = parsed_events(&[t]);
        let thread = events[0].get("args").and_then(|a| a.get("name"));
        assert_eq!(thread.and_then(Json::as_str), Some(awkward));
        let span = &events[1];
        assert_eq!(field(span, "name"), Some(awkward));
        let args = span.get("args").expect("args");
        assert_eq!(args.get("detail").and_then(Json::as_str), Some(awkward));
        assert_eq!(args.get("arg").and_then(Json::as_u64), Some(7));
    }

    #[test]
    fn helpers_count_and_collect_details() {
        let mut close = ev("lift.kernel", EventKind::Close, 2_000);
        close.detail = Some(Symbol::intern("heat3d"));
        let t = trace(vec![ev("lift.kernel", EventKind::Open, 1_000), close]);
        let threads = [t];
        assert_eq!(span_count(&threads, "lift.kernel"), 1);
        assert_eq!(span_details(&threads, "lift.kernel"), vec!["heat3d"]);
    }
}
