//! `grout-top` — a live terminal view of a running `grout-ctld` fleet.
//!
//! Usage:
//! ```text
//! grout-top <http-addr> [--interval-ms N] [--once]
//! ```
//!
//! Polls the daemon's introspection plane (`--http` on `grout-ctld`):
//! `/healthz` for the fleet header, `/metrics` for per-worker occupancy
//! and heartbeat RTT, `/sessions` for per-tenant state. Renders a
//! refreshing table (ANSI clear-screen between frames); per-session CE
//! throughput is the completion delta between two consecutive polls.
//!
//! `--once` prints a single frame without clearing — the scriptable
//! mode CI and the acceptance tests use.

use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Duration;

use grout::net::http::http_get;
use serde_json::Value;

const USAGE: &str = "usage: grout-top <http-addr> [--interval-ms N] [--once]";

struct Cli {
    addr: String,
    interval: Duration,
    once: bool,
}

fn main() -> ExitCode {
    let cli = match parse(std::env::args().skip(1)) {
        Ok(Some(cli)) => cli,
        Ok(None) => return ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("grout-top: {msg}");
            return ExitCode::FAILURE;
        }
    };
    // ces_done per session at the previous poll, for throughput deltas.
    let mut last_done: HashMap<u64, u64> = HashMap::new();
    let mut first = true;
    loop {
        match frame(&cli.addr, &mut last_done, cli.interval) {
            Ok(text) => {
                if !cli.once {
                    // Clear + home; repaint in place.
                    print!("\x1b[2J\x1b[H");
                }
                println!("{text}");
            }
            Err(msg) => {
                if cli.once || first {
                    eprintln!("grout-top: {msg}");
                    return ExitCode::FAILURE;
                }
                // A transient scrape failure mid-watch: show it, keep going.
                println!("grout-top: {msg} (retrying)");
            }
        }
        if cli.once {
            return ExitCode::SUCCESS;
        }
        first = false;
        std::thread::sleep(cli.interval);
    }
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Option<Cli>, String> {
    let mut addr = None;
    let mut interval = Duration::from_millis(1000);
    let mut once = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--interval-ms" => {
                let v = args.next().ok_or("--interval-ms needs a number")?;
                let ms: u64 = v
                    .parse()
                    .map_err(|_| format!("--interval-ms needs a number, got `{v}`"))?;
                interval = Duration::from_millis(ms.max(100));
            }
            "--once" => once = true,
            "-h" | "--help" => {
                println!("{USAGE}");
                return Ok(None);
            }
            other if addr.is_none() && !other.starts_with('-') => addr = Some(other.to_string()),
            other => return Err(format!("unknown argument `{other}`; {USAGE}")),
        }
    }
    let addr = addr.ok_or(format!("missing <http-addr>; {USAGE}"))?;
    Ok(Some(Cli {
        addr,
        interval,
        once,
    }))
}

/// One parsed exposition sample: `name{labels} value`.
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

impl Sample {
    fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Minimal Prometheus text-exposition reader: enough for our own
/// `/metrics` output (no escapes-in-values beyond `\\`, `\"`, `\n`).
fn parse_exposition(body: &str) -> Vec<Sample> {
    let mut out = Vec::new();
    for line in body.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (head, value) = match line.rsplit_once(' ') {
            Some(split) => split,
            None => continue,
        };
        let Ok(value) = value.parse::<f64>() else {
            continue;
        };
        let (name, labels) = match head.split_once('{') {
            Some((name, rest)) => {
                let rest = rest.strip_suffix('}').unwrap_or(rest);
                let mut labels = Vec::new();
                for pair in split_label_pairs(rest) {
                    if let Some((k, v)) = pair.split_once('=') {
                        let v = v.trim_matches('"');
                        let v = v.replace("\\\"", "\"").replace("\\n", "\n");
                        labels.push((k.to_string(), v.replace("\\\\", "\\")));
                    }
                }
                (name.to_string(), labels)
            }
            None => (head.to_string(), Vec::new()),
        };
        out.push(Sample {
            name,
            labels,
            value,
        });
    }
    out
}

/// Splits `k1="v1",k2="v2"` on commas outside quotes.
fn split_label_pairs(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = 0;
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, c) in s.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' => escaped = true,
            '"' => in_quotes = !in_quotes,
            ',' if !in_quotes => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < s.len() {
        out.push(&s[start..]);
    }
    out
}

fn get(addr: &str, path: &str) -> Result<String, String> {
    let (status, body) = http_get(addr, path, Duration::from_secs(2))
        .map_err(|e| format!("cannot scrape {addr}{path}: {e}"))?;
    // /healthz legitimately answers 503 while degraded; the body still
    // renders.
    if status != 200 && status != 503 {
        return Err(format!("{addr}{path} answered {status}"));
    }
    Ok(body)
}

fn human_bytes(b: f64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = b;
    let mut u = 0;
    while v >= 1024.0 && u < UNITS.len() - 1 {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{v:.0}{}", UNITS[u])
    } else {
        format!("{v:.1}{}", UNITS[u])
    }
}

/// Builds one rendered frame.
fn frame(
    addr: &str,
    last_done: &mut HashMap<u64, u64>,
    interval: Duration,
) -> Result<String, String> {
    let health = get(addr, "/healthz")?;
    let metrics = parse_exposition(&get(addr, "/metrics")?);
    let sessions = get(addr, "/sessions")?;
    let health: Value = serde_json::from_str(&health).map_err(|e| format!("bad healthz: {e}"))?;
    let sessions: Value =
        serde_json::from_str(&sessions).map_err(|e| format!("bad sessions: {e}"))?;

    let mut out = String::new();
    // --- Fleet header -----------------------------------------------------
    let healthy = health
        .get("healthy")
        .and_then(Value::as_bool)
        .unwrap_or(false);
    let degraded = health
        .get("degraded")
        .and_then(Value::as_bool)
        .unwrap_or(false);
    let uptime_ms = health.get("uptime_ms").and_then(Value::as_u64).unwrap_or(0);
    let fleet = health.get("fleet");
    let g = |k: &str| {
        fleet
            .and_then(|f| f.get(k))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    let find =
        |name: &str| -> Option<f64> { metrics.iter().find(|s| s.name == name).map(|s| s.value) };
    out.push_str(&format!(
        "grout-top — {addr}  [{}{}]  up {}s\n",
        if healthy { "healthy" } else { "UNHEALTHY" },
        if degraded { ", degraded" } else { "" },
        uptime_ms / 1000,
    ));
    out.push_str(&format!(
        "fleet: {} workers ({} alive, {} suspect, {} dead)  queue {}  faults/s {:.2}\n",
        g("workers"),
        g("alive"),
        g("suspect"),
        g("dead"),
        find("grout_fleet_queue_depth").unwrap_or(0.0),
        find("grout_fleet_fault_rate_per_s").unwrap_or(0.0),
    ));

    // --- Per-worker table -------------------------------------------------
    let mut workers: Vec<(u64, f64, Option<f64>)> = Vec::new();
    for s in &metrics {
        if s.name == "grout_fleet_occupancy" {
            if let Some(w) = s.label("worker").and_then(|w| w.parse().ok()) {
                workers.push((w, s.value, None));
            }
        }
    }
    workers.sort_by_key(|(w, _, _)| *w);
    for s in &metrics {
        if s.name == "grout_wire_hb_rtt_ns" && s.label("stat") == Some("p50") {
            if let Some(w) = s.label("worker").and_then(|w| w.parse::<u64>().ok()) {
                if let Some(row) = workers.iter_mut().find(|(id, _, _)| *id == w) {
                    row.2 = Some(s.value);
                }
            }
        }
    }
    if !workers.is_empty() {
        out.push_str("\n  worker  outstanding  hb-rtt-p50\n");
        for (w, occ, rtt) in &workers {
            out.push_str(&format!(
                "  w{w:<6} {occ:>11.0}  {}\n",
                match rtt {
                    Some(ns) if *ns > 0.0 => format!("{:>8.2}ms", ns / 1e6),
                    _ => "       n/a".to_string(),
                }
            ));
        }
    }

    // --- Per-session table ------------------------------------------------
    let rows = sessions.as_array().unwrap_or(&[]);
    out.push_str(&format!("\nsessions ({}):\n", rows.len()));
    out.push_str("  session  prio    state     resident    ces    ce/s   ops\n");
    let secs = interval.as_secs_f64().max(0.001);
    for row in rows {
        let sid = row.get("session").and_then(Value::as_u64).unwrap_or(0);
        let done = row.get("ces_done").and_then(Value::as_u64).unwrap_or(0);
        let prev = last_done.insert(sid, done).unwrap_or(done);
        let rate = (done.saturating_sub(prev)) as f64 / secs;
        let state = row.get("state").and_then(Value::as_str).unwrap_or("?");
        let state = match row.get("queue_position").and_then(Value::as_u64) {
            Some(p) if state == "queued" => format!("queued#{p}"),
            _ => state.to_string(),
        };
        out.push_str(&format!(
            "  s{sid:<7} {:<7} {state:<9} {:>8}  {done:>5}  {rate:>6.1}  {:>4}\n",
            row.get("priority").and_then(Value::as_str).unwrap_or("?"),
            human_bytes(
                row.get("resident_bytes")
                    .and_then(Value::as_u64)
                    .unwrap_or(0) as f64
            ),
            row.get("ops").and_then(Value::as_u64).unwrap_or(0),
        ));
    }
    Ok(out)
}
