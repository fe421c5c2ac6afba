//! Pluggable report sinks: JSONL stream, in-memory ring buffer.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

use crate::report::IterationReport;

/// Destination for completed iteration reports. Implementations must be
/// `Send + Sync`: the trainer may emit from worker threads.
pub trait Sink: Send + Sync {
    fn emit(&self, report: &IterationReport);
    /// Flush buffered output (called at end of run; best effort).
    fn flush(&self) {}
}

/// Appends one JSON object per line. The format `symi-top` tails.
pub struct JsonlSink {
    out: Mutex<BufWriter<File>>,
    /// Crash-safe mode: every emitted line is pushed through to the OS
    /// immediately, so a killed process loses at most the line being
    /// written — never buffered, already-complete lines.
    write_through: bool,
}

impl JsonlSink {
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        if let Some(parent) = path.as_ref().parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = File::create(path)?;
        Ok(Self { out: Mutex::new(BufWriter::new(file)), write_through: false })
    }

    /// Crash-safe continuation of a JSONL stream across a process restart:
    /// a torn trailing line (a line the previous process was mid-write when
    /// it died — no final `\n`) is truncated back to the last complete
    /// line, then the sink appends in write-through mode so the same
    /// failure can only ever tear the *current* line, never a past one.
    /// Tailers (`symi-top`) see one continuous stream with no partial JSON.
    pub fn resume(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        if path.exists() {
            let contents = std::fs::read(path)?;
            if !contents.is_empty() && contents.last() != Some(&b'\n') {
                // Keep up to and including the last newline; a file that is
                // one torn line with no newline at all truncates to empty.
                let keep = contents.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
                let f = std::fs::OpenOptions::new().write(true).open(path)?;
                f.set_len(keep as u64)?;
                f.sync_all()?;
            }
        }
        let file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Self { out: Mutex::new(BufWriter::new(file)), write_through: true })
    }
}

impl Sink for JsonlSink {
    fn emit(&self, report: &IterationReport) {
        let mut out = self.out.lock().expect("jsonl sink poisoned");
        let _ = writeln!(out, "{}", report.to_jsonl());
        if self.write_through {
            let _ = out.flush();
        }
    }

    fn flush(&self) {
        let _ = self.out.lock().expect("jsonl sink poisoned").flush();
    }
}

/// Bounded in-memory buffer of the most recent reports. Useful for tests and
/// for embedding telemetry in benches without touching the filesystem.
pub struct RingBufferSink {
    capacity: usize,
    buf: Mutex<VecDeque<IterationReport>>,
}

impl RingBufferSink {
    pub fn new(capacity: usize) -> Self {
        Self { capacity: capacity.max(1), buf: Mutex::new(VecDeque::new()) }
    }

    /// Oldest-to-newest copy of the buffered reports.
    pub fn contents(&self) -> Vec<IterationReport> {
        self.buf.lock().expect("ring sink poisoned").iter().cloned().collect()
    }

    pub fn latest(&self) -> Option<IterationReport> {
        self.buf.lock().expect("ring sink poisoned").back().cloned()
    }

    pub fn len(&self) -> usize {
        self.buf.lock().expect("ring sink poisoned").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for RingBufferSink {
    fn emit(&self, report: &IterationReport) {
        let mut buf = self.buf.lock().expect("ring sink poisoned");
        if buf.len() == self.capacity {
            buf.pop_front();
        }
        buf.push_back(report.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_buffer_caps_and_orders() {
        let ring = RingBufferSink::new(2);
        for i in 0..3 {
            ring.emit(&IterationReport::new("symi", i));
        }
        let got = ring.contents();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].iteration, 1);
        assert_eq!(got[1].iteration, 2);
        assert_eq!(ring.latest().unwrap().iteration, 2);
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let dir = std::env::temp_dir().join("symi_telemetry_test_jsonl");
        let path = dir.join("run.jsonl");
        let sink = JsonlSink::create(&path).unwrap();
        let mut r = IterationReport::new("deepspeed", 4);
        r.loss = 1.5;
        sink.emit(&r);
        sink.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        let back = IterationReport::parse_jsonl(text.trim()).unwrap();
        assert_eq!(back.system, "deepspeed");
        assert_eq!(back.iteration, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_repairs_torn_trailing_line_and_continues_the_stream() {
        let dir = std::env::temp_dir().join("symi_telemetry_test_resume");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("run.jsonl");

        // A run that died mid-write: two complete lines + one torn line.
        {
            let sink = JsonlSink::resume(&path).unwrap();
            sink.emit(&IterationReport::new("symi", 0));
            sink.emit(&IterationReport::new("symi", 1));
        }
        let mut torn = std::fs::read(&path).unwrap();
        torn.extend_from_slice(b"{\"system\":\"symi\",\"iteration\":2,\"lo");
        std::fs::write(&path, &torn).unwrap();

        // The restarted run repairs the tear and continues the stream.
        let sink = JsonlSink::resume(&path).unwrap();
        sink.emit(&IterationReport::new("symi", 2));
        sink.flush();

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "torn line replaced, not duplicated: {text}");
        for (i, line) in lines.iter().enumerate() {
            let back = IterationReport::parse_jsonl(line)
                .unwrap_or_else(|e| panic!("line {i} must parse after repair: {e}"));
            assert_eq!(back.iteration, i as u64, "stream stays in order");
        }
        assert!(text.ends_with('\n'), "write-through lines are newline-terminated");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_truncates_a_file_that_is_one_torn_line() {
        let dir = std::env::temp_dir().join("symi_telemetry_test_resume_all_torn");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("run.jsonl");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, b"{\"system\":\"symi\",\"iter").unwrap();
        let sink = JsonlSink::resume(&path).unwrap();
        sink.emit(&IterationReport::new("symi", 0));
        sink.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(IterationReport::parse_jsonl(text.trim()).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
