//! Chrome trace-event JSON export.
//!
//! Renders drained [`SpanEvent`]s in the trace-event format's "JSON
//! object" flavour (`{"traceEvents": [...]}`) using complete (`"ph":"X"`)
//! events, which both Perfetto and `chrome://tracing` load directly. The
//! whole document is a single line so it travels over the service's
//! line-oriented wire protocol unframed.

use crate::json::{escape, Json};
use crate::SpanEvent;
use std::fmt::Write as _;

/// Renders `events` as a one-line Chrome trace-event JSON document.
///
/// Timestamps (`ts`) and durations (`dur`) are microseconds, as the
/// format requires; `pid` is fixed at 1 (one process), and `tid` carries
/// the recorder's hashed thread id.
#[must_use]
pub fn render_chrome_trace(events: &[SpanEvent]) -> String {
    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push_str("{\"traceEvents\":[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}}}",
            escape(ev.name),
            escape(ev.cat),
            ev.start_us,
            ev.dur_us,
            ev.tid,
        );
    }
    out.push_str("]}");
    out
}

/// Validates that `text` is a well-formed trace-event document and
/// returns the number of events it carries.
///
/// Checks the structural invariants the viewers rely on: a top-level
/// `traceEvents` array whose entries each carry string `name`/`cat`/`ph`
/// and numeric `ts`/`dur`/`pid`/`tid`, with non-negative timing fields.
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let doc = Json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .ok_or("missing `traceEvents` key")?
        .as_array()
        .ok_or("`traceEvents` is not an array")?;
    for (i, ev) in events.iter().enumerate() {
        for key in ["name", "cat", "ph"] {
            ev.get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("event {i}: `{key}` missing or not a string"))?;
        }
        for key in ["ts", "dur", "pid", "tid"] {
            let v = ev
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("event {i}: `{key}` missing or not a number"))?;
            if !v.is_finite() || v < 0.0 {
                return Err(format!("event {i}: `{key}` = {v} is not a valid timing"));
            }
        }
        if ev.get("ph").and_then(Json::as_str) != Some("X") {
            return Err(format!("event {i}: expected complete event (`ph` = \"X\")"));
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(name: &'static str, start_us: u64, dur_us: u64) -> SpanEvent {
        SpanEvent {
            cat: "test",
            name,
            tid: 7,
            start_us,
            dur_us,
        }
    }

    #[test]
    fn empty_trace_is_valid() {
        let text = render_chrome_trace(&[]);
        assert_eq!(text, "{\"traceEvents\":[]}");
        assert_eq!(validate_chrome_trace(&text), Ok(0));
    }

    #[test]
    fn rendered_events_validate_and_roundtrip() {
        let events = [event("parse", 10, 2), event("execute", 12, 100)];
        let text = render_chrome_trace(&events);
        assert!(!text.contains('\n'), "must stay a single wire line");
        assert_eq!(validate_chrome_trace(&text), Ok(2));

        let doc = Json::parse(&text).unwrap();
        let parsed = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(parsed[0].get("name").unwrap().as_str(), Some("parse"));
        assert_eq!(parsed[1].get("ts").unwrap().as_f64(), Some(12.0));
        assert_eq!(parsed[1].get("dur").unwrap().as_f64(), Some(100.0));
        assert_eq!(parsed[0].get("tid").unwrap().as_f64(), Some(7.0));
    }

    /// Parsing is linear in the document: a 50k-event trace (~4.5 MB)
    /// validates in well under a second, where re-validating the rest of
    /// the document per string character took minutes.
    #[test]
    fn large_trace_validates_in_linear_time() {
        let events: Vec<SpanEvent> = (0..50_000)
            .map(|i| event(if i % 2 == 0 { "parse" } else { "execute" }, i, 3))
            .collect();
        let text = render_chrome_trace(&events);
        let started = std::time::Instant::now();
        assert_eq!(validate_chrome_trace(&text), Ok(50_000));
        let elapsed = started.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(10),
            "validating {} bytes took {elapsed:?}",
            text.len()
        );
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\": 3}").is_err());
        assert!(
            validate_chrome_trace("{\"traceEvents\":[{\"name\":\"x\"}]}").is_err(),
            "events missing timing fields must be rejected"
        );
        assert!(validate_chrome_trace(
            "{\"traceEvents\":[{\"name\":\"x\",\"cat\":\"c\",\"ph\":\"B\",\
             \"ts\":1,\"dur\":1,\"pid\":1,\"tid\":1}]}"
        )
        .is_err());
    }
}
