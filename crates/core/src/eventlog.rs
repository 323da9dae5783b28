//! Structured JSONL event logging for the long-running daemons.
//!
//! `grout-ctld` and `grout-workerd` historically logged with ad-hoc
//! `eprintln!` lines; once the control plane became a multi-tenant
//! service those lines lost the one thing an operator needs — *which
//! session* an event belongs to. This module replaces them with a
//! leveled, session-tagged, rate-limited JSONL stream:
//!
//! ```text
//! {"ts_ms":1722988800123,"level":"info","component":"grout-ctld",
//!  "event":"session_finished","session":1,
//!  "msg":"session 1 finished (12 kernels)","kernels":12}
//! ```
//!
//! One line per event, always a single JSON object, always with `ts_ms`
//! (wall clock, milliseconds), `level`, `component`, `event` (a stable
//! machine-readable key) and `msg` (the human phrasing — CI greps match
//! on this field, so the historical wording survives the migration).
//! Session-scoped events carry `session`; extra structured fields ride
//! as additional top-level keys.
//!
//! ## Rate limiting
//!
//! Noisy repeated events (reconnect storms, per-frame errors) are
//! limited *per event key*: at most [`EventLog::DEFAULT_RATE_CAP`] lines
//! per second for any one `event`. The first suppressed line in a window
//! emits a single `rate_limited` notice; when the window rolls over, a
//! summary reports how many lines were dropped. `error`-level events are
//! never suppressed.
//!
//! ## Global handle
//!
//! Binaries call [`init`] once at startup ([`global`] falls back to a
//! stderr logger with component `"grout"`), so library code deep in the
//! serving path can tag events without threading a handle through every
//! signature.

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

pub use serde_json::Value;

use crate::telemetry::monotonic_ns;

/// Event severity, ordered `Debug < Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// Development chatter, off by default.
    Debug,
    /// Normal operational events.
    Info,
    /// Degraded but continuing.
    Warn,
    /// Something failed; never rate-limited.
    Error,
}

impl LogLevel {
    fn as_str(self) -> &'static str {
        match self {
            LogLevel::Debug => "debug",
            LogLevel::Info => "info",
            LogLevel::Warn => "warn",
            LogLevel::Error => "error",
        }
    }

    /// Parses the `GROUT_LOG` env-var convention (`debug`, `info`,
    /// `warn`, `error`; anything else ⇒ `None`).
    pub fn parse(s: &str) -> Option<LogLevel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "debug" => Some(LogLevel::Debug),
            "info" => Some(LogLevel::Info),
            "warn" => Some(LogLevel::Warn),
            "error" => Some(LogLevel::Error),
            _ => None,
        }
    }
}

/// Where rendered lines go.
enum Sink {
    Stderr,
    Writer(Mutex<Box<dyn Write + Send>>),
}

struct RateState {
    window_start_ns: u64,
    emitted: u32,
    suppressed: u64,
}

struct LogInner {
    component: String,
    min_level: LogLevel,
    rate_cap: AtomicU32,
    sink: Sink,
    limiter: Mutex<HashMap<String, RateState>>,
}

/// A cloneable handle to one JSONL event stream. Cheap to clone (one
/// `Arc`); every clone shares the sink and the rate limiter.
#[derive(Clone)]
pub struct EventLog {
    inner: Arc<LogInner>,
}

impl EventLog {
    /// Per-event-key emission cap, lines per second.
    pub const DEFAULT_RATE_CAP: u32 = 20;

    /// A logger writing to stderr. The minimum level comes from the
    /// `GROUT_LOG` environment variable when set (default `info`).
    pub fn stderr(component: &str) -> EventLog {
        let min_level = std::env::var("GROUT_LOG")
            .ok()
            .and_then(|v| LogLevel::parse(&v))
            .unwrap_or(LogLevel::Info);
        EventLog::build(component, min_level, Sink::Stderr)
    }

    /// A logger writing JSONL lines to an arbitrary sink — tests capture
    /// output this way.
    pub fn to_writer(component: &str, writer: Box<dyn Write + Send>) -> EventLog {
        EventLog::build(component, LogLevel::Debug, Sink::Writer(Mutex::new(writer)))
    }

    fn build(component: &str, min_level: LogLevel, sink: Sink) -> EventLog {
        EventLog {
            inner: Arc::new(LogInner {
                component: component.to_string(),
                min_level,
                rate_cap: AtomicU32::new(Self::DEFAULT_RATE_CAP),
                sink,
                limiter: Mutex::new(HashMap::new()),
            }),
        }
    }

    /// This logger with a different per-event rate cap (0 ⇒ suppress
    /// everything below `error` after the first line each window). The
    /// cap is shared by every clone of this handle — the sink and
    /// limiter state stay intact.
    pub fn with_rate_cap(&self, cap: u32) -> EventLog {
        self.inner.rate_cap.store(cap, Ordering::Relaxed);
        self.clone()
    }

    /// Emits one event. `event` is the stable machine key (also the
    /// rate-limit bucket), `msg` the human phrasing, `fields` extra
    /// structured payload appended to the JSON object.
    pub fn log(
        &self,
        level: LogLevel,
        event: &str,
        session: Option<u64>,
        msg: &str,
        fields: &[(&str, Value)],
    ) {
        if level < self.inner.min_level {
            return;
        }
        if level < LogLevel::Error {
            let (admitted, notice) = self.admit(event);
            if let Some(notice) = notice {
                self.emit(&notice);
            }
            if !admitted {
                return;
            }
        }
        self.emit(&self.render(level, event, session, msg, fields));
    }

    /// `debug`-level [`log`](Self::log).
    pub fn debug(&self, event: &str, session: Option<u64>, msg: &str, fields: &[(&str, Value)]) {
        self.log(LogLevel::Debug, event, session, msg, fields);
    }

    /// `info`-level [`log`](Self::log).
    pub fn info(&self, event: &str, session: Option<u64>, msg: &str, fields: &[(&str, Value)]) {
        self.log(LogLevel::Info, event, session, msg, fields);
    }

    /// `warn`-level [`log`](Self::log).
    pub fn warn(&self, event: &str, session: Option<u64>, msg: &str, fields: &[(&str, Value)]) {
        self.log(LogLevel::Warn, event, session, msg, fields);
    }

    /// `error`-level [`log`](Self::log) — never rate-limited.
    pub fn error(&self, event: &str, session: Option<u64>, msg: &str, fields: &[(&str, Value)]) {
        self.log(LogLevel::Error, event, session, msg, fields);
    }

    /// Rolls the rate window for `event` and decides admission. Returns
    /// whether this line may be emitted, plus a pre-rendered notice line
    /// to emit first (rate-limit start or window-roll summary) when one
    /// is due.
    fn admit(&self, event: &str) -> (bool, Option<String>) {
        let now = monotonic_ns();
        let mut limiter = self.inner.limiter.lock().unwrap();
        let state = limiter.entry(event.to_string()).or_insert(RateState {
            window_start_ns: now,
            emitted: 0,
            suppressed: 0,
        });
        let mut notice = None;
        if now.saturating_sub(state.window_start_ns) >= 1_000_000_000 {
            if state.suppressed > 0 {
                notice = Some(self.render(
                    LogLevel::Warn,
                    "rate_limited",
                    None,
                    &format!(
                        "suppressed {} \"{}\" lines in the last window",
                        state.suppressed, event
                    ),
                    &[
                        ("suppressed_event", Value::String(event.to_string())),
                        ("count", Value::U64(state.suppressed)),
                    ],
                ));
            }
            state.window_start_ns = now;
            state.emitted = 0;
            state.suppressed = 0;
        }
        if state.emitted < self.inner.rate_cap.load(Ordering::Relaxed).max(1) {
            state.emitted += 1;
            (true, notice)
        } else {
            if state.suppressed == 0 {
                notice = Some(self.render(
                    LogLevel::Warn,
                    "rate_limited",
                    None,
                    &format!(
                        "\"{event}\" exceeding {} lines/s; suppressing",
                        self.inner.rate_cap.load(Ordering::Relaxed)
                    ),
                    &[("suppressed_event", Value::String(event.to_string()))],
                ));
            }
            state.suppressed += 1;
            (false, notice)
        }
    }

    fn render(
        &self,
        level: LogLevel,
        event: &str,
        session: Option<u64>,
        msg: &str,
        fields: &[(&str, Value)],
    ) -> String {
        let ts_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let mut obj = vec![
            ("ts_ms".to_string(), Value::U64(ts_ms)),
            (
                "level".to_string(),
                Value::String(level.as_str().to_string()),
            ),
            (
                "component".to_string(),
                Value::String(self.inner.component.clone()),
            ),
            ("event".to_string(), Value::String(event.to_string())),
        ];
        if let Some(sid) = session {
            obj.push(("session".to_string(), Value::U64(sid)));
        }
        obj.push(("msg".to_string(), Value::String(msg.to_string())));
        for (k, v) in fields {
            obj.push((k.to_string(), v.clone()));
        }
        serde_json::to_string(&Value::Object(obj)).expect("render log line")
    }

    fn emit(&self, line: &str) {
        match &self.inner.sink {
            Sink::Stderr => eprintln!("{line}"),
            Sink::Writer(w) => {
                let mut w = w.lock().unwrap();
                let _ = writeln!(w, "{line}");
                let _ = w.flush();
            }
        }
    }
}

static GLOBAL: OnceLock<EventLog> = OnceLock::new();

/// Installs the process-wide logger. First call wins (returns `false`
/// if one was already installed); binaries call this once at startup.
pub fn init(log: EventLog) -> bool {
    GLOBAL.set(log).is_ok()
}

/// The process-wide logger; a stderr logger with component `"grout"`
/// when [`init`] was never called.
pub fn global() -> &'static EventLog {
    GLOBAL.get_or_init(|| EventLog::stderr("grout"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `Write` sink tests can keep a second handle on.
    #[derive(Clone, Default)]
    struct Capture(Arc<Mutex<Vec<u8>>>);

    impl Write for Capture {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl Capture {
        fn lines(&self) -> Vec<String> {
            String::from_utf8(self.0.lock().unwrap().clone())
                .unwrap()
                .lines()
                .map(str::to_string)
                .collect()
        }
    }

    #[test]
    fn lines_are_json_objects_with_required_keys() {
        let cap = Capture::default();
        let log = EventLog::to_writer("grout-ctld", Box::new(cap.clone()));
        log.info(
            "session_attached",
            Some(3),
            "session 3 attached",
            &[("declared_bytes", Value::U64(64))],
        );
        log.error("boom", None, "it broke", &[]);
        let lines = cap.lines();
        assert_eq!(lines.len(), 2);
        let first = serde_json::from_str(&lines[0]).expect("line parses");
        assert_eq!(
            first.get("component").and_then(|v| v.as_str()),
            Some("grout-ctld")
        );
        assert_eq!(
            first.get("event").and_then(|v| v.as_str()),
            Some("session_attached")
        );
        assert_eq!(first.get("session").and_then(|v| v.as_u64()), Some(3));
        assert_eq!(
            first.get("msg").and_then(|v| v.as_str()),
            Some("session 3 attached")
        );
        assert_eq!(
            first.get("declared_bytes").and_then(|v| v.as_u64()),
            Some(64)
        );
        assert!(first.get("ts_ms").and_then(|v| v.as_u64()).is_some());
        let second = serde_json::from_str(&lines[1]).expect("line parses");
        assert_eq!(second.get("level").and_then(|v| v.as_str()), Some("error"));
        assert_eq!(second.get("session"), None);
    }

    #[test]
    fn repeated_events_are_rate_limited_but_errors_are_not() {
        let cap = Capture::default();
        let log = EventLog::to_writer("w", Box::new(cap.clone()));
        for _ in 0..(EventLog::DEFAULT_RATE_CAP + 40) {
            log.info("chatty", None, "again", &[]);
            log.error("err", None, "always", &[]);
        }
        let lines = cap.lines();
        let chatty = lines
            .iter()
            .filter(|l| l.contains("\"event\":\"chatty\""))
            .count();
        let limited = lines
            .iter()
            .filter(|l| l.contains("\"event\":\"rate_limited\""))
            .count();
        let errors = lines
            .iter()
            .filter(|l| l.contains("\"event\":\"err\""))
            .count();
        assert_eq!(chatty as u32, EventLog::DEFAULT_RATE_CAP);
        assert_eq!(limited, 1, "one suppression notice per window");
        assert_eq!(errors as u32, EventLog::DEFAULT_RATE_CAP + 40);
        // Distinct event keys don't share a bucket.
        log.info("other", None, "fresh key", &[]);
        assert!(cap
            .lines()
            .iter()
            .any(|l| l.contains("\"event\":\"other\"")));
    }

    #[test]
    fn levels_order_and_parse() {
        assert!(LogLevel::Debug < LogLevel::Info);
        assert!(LogLevel::Warn < LogLevel::Error);
        assert_eq!(LogLevel::parse("WARN"), Some(LogLevel::Warn));
        assert_eq!(LogLevel::parse("verbose"), None);
    }

    #[test]
    fn global_falls_back_to_stderr() {
        // Never panics, regardless of init order across the test binary.
        let _ = global();
    }
}
