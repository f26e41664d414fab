//! Live campaign progress: one shared counter set, a heartbeat thread, and
//! two projections of the same stream — a TTY-aware stderr status line and
//! an append-only machine-readable `progress.jsonl`.
//!
//! The reporter is the single progress code path: campaign workers call
//! [`ProgressReporter::cell_done`] / [`record_retry`]
//! (ProgressReporter::record_retry) / [`record_failure`]
//! (ProgressReporter::record_failure) on shared atomics (no locks on the
//! worker path), and a background heartbeat thread periodically renders a
//! snapshot — cells done/total, rate, ETA, retries, failures. Everything
//! here is wall-clock and lives outside the byte-identical artifact
//! contract: `progress.jsonl` is excluded from determinism diffs, and the
//! deterministic artifacts (metrics.tsv, traces, measurements) never read
//! from the reporter.
//!
//! The JSONL file is truncated when the reporter opens it and appended to
//! line-by-line while the run progresses (safe to `tail -f`); within a run
//! `done` is monotone non-decreasing — retries and failures never decrement
//! it — and a resumed run starts a fresh file whose cells re-tick as cache
//! hits, so every file on disk is monotone from 0 to its final line.

use crate::locks::lock_clean;
use serde::Value;
use std::io::{IsTerminal, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Where the stderr status line goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StderrMode {
    /// No stderr output (the JSONL stream may still be active).
    Off,
    /// Interactive: a single in-place line, rewritten each heartbeat.
    Tty,
    /// Non-interactive but forced: one full line per heartbeat.
    Plain,
}

impl StderrMode {
    /// The mode a `--progress`-style flag should resolve to: in-place when
    /// stderr is a terminal, full lines when `force` asks for output
    /// anyway, otherwise off (logs stay clean under redirection).
    pub fn auto(enabled: bool, force: bool) -> Self {
        if !enabled && !force {
            StderrMode::Off
        } else if std::io::stderr().is_terminal() {
            StderrMode::Tty
        } else if force {
            StderrMode::Plain
        } else {
            StderrMode::Off
        }
    }
}

/// One observation of the campaign's progress counters.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressSnapshot {
    /// Cells delivered so far (computed, memoized or resumed).
    pub done: u64,
    /// Cells the campaigns have promised in total.
    pub total: u64,
    /// Subset of `done` that were cache/memo replays.
    pub cached: u64,
    /// Retry attempts observed so far.
    pub retries: u64,
    /// Cells that failed permanently so far.
    pub failures: u64,
    /// Seconds since the reporter started.
    pub elapsed_secs: f64,
}

impl ProgressSnapshot {
    /// Cells per second since start (0 before the first cell).
    pub fn rate(&self) -> f64 {
        if self.elapsed_secs > 0.0 {
            self.done as f64 / self.elapsed_secs
        } else {
            0.0
        }
    }

    /// Estimated seconds to completion (`None` before the rate exists or
    /// once done).
    pub fn eta_secs(&self) -> Option<f64> {
        let remaining = self.total.saturating_sub(self.done);
        let rate = self.rate();
        if remaining == 0 || rate <= 0.0 {
            None
        } else {
            Some(remaining as f64 / rate)
        }
    }

    fn to_value(&self, fin: bool) -> Value {
        Value::Map(vec![
            ("done".to_string(), Value::UInt(self.done)),
            ("total".to_string(), Value::UInt(self.total)),
            ("cached".to_string(), Value::UInt(self.cached)),
            ("retries".to_string(), Value::UInt(self.retries)),
            ("failures".to_string(), Value::UInt(self.failures)),
            ("elapsed_secs".to_string(), Value::Float(self.elapsed_secs)),
            ("rate_cells_per_sec".to_string(), Value::Float(self.rate())),
            (
                "eta_secs".to_string(),
                match self.eta_secs() {
                    Some(eta) => Value::Float(eta),
                    None => Value::Null,
                },
            ),
            ("final".to_string(), Value::Bool(fin)),
        ])
    }

    fn render_line(&self) -> String {
        let eta = match self.eta_secs() {
            Some(eta) => format!(" eta {eta:.0}s"),
            None => String::new(),
        };
        let mut tail = String::new();
        if self.retries > 0 {
            tail.push_str(&format!(" retries {}", self.retries));
        }
        if self.failures > 0 {
            tail.push_str(&format!(" failures {}", self.failures));
        }
        format!(
            "[{}/{}] {:.1} cells/s{eta} ({} cached){tail}",
            self.done,
            self.total,
            self.rate(),
            self.cached,
        )
    }
}

#[derive(Debug)]
struct ProgressState {
    done: AtomicU64,
    total: AtomicU64,
    cached: AtomicU64,
    retries: AtomicU64,
    failures: AtomicU64,
    start: Instant,
    stderr: StderrMode,
    /// The JSONL writer plus the last `done` written, so quiet heartbeats
    /// do not spam duplicate lines.
    jsonl: Option<Mutex<(std::io::BufWriter<std::fs::File>, Option<u64>)>>,
    /// `(stopped, _)` guarded handshake for prompt heartbeat shutdown.
    shutdown: Mutex<bool>,
    wake: Condvar,
}

impl ProgressState {
    fn snapshot(&self) -> ProgressSnapshot {
        ProgressSnapshot {
            done: self.done.load(Ordering::Relaxed),
            total: self.total.load(Ordering::Relaxed),
            cached: self.cached.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
            elapsed_secs: self.start.elapsed().as_secs_f64(),
        }
    }

    fn emit(&self, fin: bool) {
        let snap = self.snapshot();
        if let Some(jsonl) = &self.jsonl {
            let mut guard = lock_clean(jsonl);
            // Heartbeats only append when progress moved; the final line is
            // always written so every file ends with `"final": true`.
            if fin || guard.1 != Some(snap.done) {
                let line = serde::json::to_string(&snap.to_value(fin));
                let (writer, last) = &mut *guard;
                if writeln!(writer, "{line}")
                    .and_then(|()| writer.flush())
                    .is_err()
                {
                    // Losing the stream costs observability, not the run.
                } else {
                    *last = Some(snap.done);
                }
            }
        }
        match self.stderr {
            StderrMode::Off => {}
            StderrMode::Tty => {
                let mut err = std::io::stderr().lock();
                let _ = write!(err, "\r\x1b[2K{}", snap.render_line());
                if fin {
                    let _ = writeln!(err);
                }
                let _ = err.flush();
            }
            StderrMode::Plain => {
                let mut err = std::io::stderr().lock();
                let _ = writeln!(err, "{}", snap.render_line());
            }
        }
    }
}

/// The live progress stream for one process run. See the [module
/// docs](self).
#[derive(Debug)]
pub struct ProgressReporter {
    state: Arc<ProgressState>,
    heartbeat: Option<std::thread::JoinHandle<()>>,
}

impl ProgressReporter {
    /// Builds a reporter and starts its heartbeat thread (every
    /// `interval`). `jsonl_path`, when given, is truncated and then
    /// appended to for the life of the reporter; an unopenable path
    /// disables the stream with a warning.
    pub fn new(stderr: StderrMode, jsonl_path: Option<&Path>, interval: Duration) -> Self {
        let jsonl = jsonl_path.and_then(|path| match std::fs::File::create(path) {
            Ok(f) => Some(Mutex::new((std::io::BufWriter::new(f), None))),
            Err(e) => {
                eprintln!("warning: could not open {}: {e}", path.display());
                None
            }
        });
        let state = Arc::new(ProgressState {
            done: AtomicU64::new(0),
            total: AtomicU64::new(0),
            cached: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            start: Instant::now(),
            stderr,
            jsonl,
            shutdown: Mutex::new(false),
            wake: Condvar::new(),
        });
        let heartbeat = if state.stderr != StderrMode::Off || state.jsonl.is_some() {
            let beat = Arc::clone(&state);
            Some(std::thread::spawn(move || loop {
                // `wait_timeout_while` checks the flag before sleeping, so
                // a `finish()` that lands before this thread first waits
                // is never lost (and spurious wakeups never emit early).
                let stopped = {
                    let guard = lock_clean(&beat.shutdown);
                    let (guard, _) = beat
                        .wake
                        .wait_timeout_while(guard, interval, |stop| !*stop)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    *guard
                };
                if stopped {
                    break;
                }
                beat.emit(false);
            }))
        } else {
            None
        };
        ProgressReporter { state, heartbeat }
    }

    /// A reporter with no outputs at all — counters still accumulate, so
    /// library callers can poll [`snapshot`](ProgressReporter::snapshot).
    pub fn disabled() -> Self {
        Self::new(StderrMode::Off, None, Duration::from_secs(3600))
    }

    /// Announces `cells` more cells to come (campaigns call this once each;
    /// `repro_all`'s figures accumulate into one total).
    pub fn add_total(&self, cells: u64) {
        self.state.total.fetch_add(cells, Ordering::Relaxed);
    }

    /// Marks one cell delivered; `cached` tags memo/resume replays.
    pub fn cell_done(&self, cached: bool) {
        if cached {
            self.state.cached.fetch_add(1, Ordering::Relaxed);
        }
        self.state.done.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one retry attempt.
    pub fn record_retry(&self) {
        self.state.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one permanently failed cell.
    pub fn record_failure(&self) {
        self.state.failures.fetch_add(1, Ordering::Relaxed);
    }

    /// The current counters.
    pub fn snapshot(&self) -> ProgressSnapshot {
        self.state.snapshot()
    }

    /// Stops the heartbeat and writes the final line to every output.
    /// Dropping the reporter does the same; `finish` just does it at a
    /// chosen point.
    pub fn finish(&mut self) {
        let Some(handle) = self.heartbeat.take() else {
            return;
        };
        *lock_clean(&self.state.shutdown) = true;
        self.state.wake.notify_all();
        let _ = handle.join();
        self.state.emit(true);
    }
}

impl Drop for ProgressReporter {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("copernicus-progress-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn counters_accumulate_and_snapshot() {
        let r = ProgressReporter::disabled();
        r.add_total(10);
        r.cell_done(false);
        r.cell_done(true);
        r.record_retry();
        r.record_failure();
        let s = r.snapshot();
        assert_eq!((s.done, s.total, s.cached), (2, 10, 1));
        assert_eq!((s.retries, s.failures), (1, 1));
        assert!(s.rate() >= 0.0);
        assert!(s.eta_secs().is_none() || s.eta_secs().unwrap() > 0.0);
    }

    #[test]
    fn jsonl_lines_are_valid_json_and_monotone() {
        let dir = scratch("jsonl");
        let path = dir.join("progress.jsonl");
        {
            let mut r =
                ProgressReporter::new(StderrMode::Off, Some(&path), Duration::from_millis(5));
            r.add_total(50);
            for i in 0..50 {
                r.cell_done(i % 3 == 0);
                if i == 20 {
                    r.record_retry();
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            r.finish();
        }
        let text = std::fs::read_to_string(&path).expect("progress.jsonl written");
        let mut last_done = 0u64;
        let mut lines = 0usize;
        for line in text.lines() {
            let v = serde::json::parse(line).expect("valid JSON line");
            let done = v.get("done").and_then(Value::as_u64).expect("done field");
            assert!(
                done >= last_done,
                "done must be monotone: {done} < {last_done}"
            );
            last_done = done;
            lines += 1;
        }
        assert!(lines >= 2, "heartbeat plus final line");
        let last = serde::json::parse(text.lines().last().unwrap()).unwrap();
        assert_eq!(last.get("final"), Some(&Value::Bool(true)));
        assert_eq!(last.get("done").and_then(Value::as_u64), Some(50));
        assert_eq!(last.get("total").and_then(Value::as_u64), Some(50));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn finish_is_idempotent_and_drop_safe() {
        let dir = scratch("finish");
        let path = dir.join("p.jsonl");
        let mut r = ProgressReporter::new(StderrMode::Off, Some(&path), Duration::from_secs(3600));
        r.add_total(1);
        r.cell_done(false);
        r.finish();
        r.finish();
        drop(r);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1, "exactly one final line");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn finish_right_after_new_does_not_wait_out_the_interval() {
        // Regression: the heartbeat used to sleep a full interval when
        // `finish()` raced ahead of its first wait.
        let dir = scratch("prompt");
        let path = dir.join("p.jsonl");
        for _ in 0..20 {
            let start = Instant::now();
            let mut r =
                ProgressReporter::new(StderrMode::Off, Some(&path), Duration::from_secs(3600));
            r.finish();
            assert!(
                start.elapsed() < Duration::from_secs(60),
                "finish() waited {:?} on a 3600 s heartbeat",
                start.elapsed()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stderr_mode_auto_respects_force_and_tty() {
        // In a test harness stderr is not a terminal.
        assert_eq!(StderrMode::auto(false, false), StderrMode::Off);
        let forced = StderrMode::auto(true, true);
        assert!(forced == StderrMode::Plain || forced == StderrMode::Tty);
        let plain = StderrMode::auto(true, false);
        assert!(plain == StderrMode::Off || plain == StderrMode::Tty);
    }
}
