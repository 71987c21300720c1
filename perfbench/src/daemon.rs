//! An in-process client of the design daemon.
//!
//! [`Client::start`] runs `run_design_daemon` on its own thread with a
//! channel-backed input stream and a line-capturing output sink, so the
//! benchmark speaks the daemon's JSONL wire protocol exactly as a
//! `youtiao serve` client does, and timestamps every response line the
//! moment the daemon writes it.

use std::collections::VecDeque;
use std::io::{BufReader, Read, Write};
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use youtiao::serve::{run_design_daemon, BatchError, DaemonOptions, DaemonReport};

/// How long a single response may take before the run is abandoned;
/// keeps a hung daemon from outliving the benchmark's time limit.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(150);

/// Daemon input: frames arrive over a channel; a dropped sender is EOF.
struct ChannelReader {
    rx: Receiver<Vec<u8>>,
    buf: Vec<u8>,
    pos: usize,
}

impl Read for ChannelReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.buf.len() {
            match self.rx.recv() {
                Ok(bytes) => {
                    self.buf = bytes;
                    self.pos = 0;
                }
                Err(_) => return Ok(0),
            }
        }
        let n = out.len().min(self.buf.len() - self.pos);
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Daemon output: every complete line is forwarded with the instant it
/// was written.
struct LineSink {
    tx: Sender<(Instant, String)>,
    partial: Vec<u8>,
}

impl Write for LineSink {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.partial.extend_from_slice(bytes);
        while let Some(end) = self.partial.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.partial.drain(..=end).collect();
            let text = String::from_utf8_lossy(&line[..end]).into_owned();
            // The client may already be gone on an error path; the
            // daemon then simply drains into nothing.
            let _ = self.tx.send((Instant::now(), text));
        }
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

type Session = JoinHandle<Result<DaemonReport, BatchError>>;

pub struct Client {
    input: Option<Sender<Vec<u8>>>,
    output: Receiver<(Instant, String)>,
    handle: Option<Session>,
}

impl Client {
    pub fn start(options: DaemonOptions) -> Client {
        let (in_tx, in_rx) = mpsc::channel();
        let (out_tx, out_rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            let reader = BufReader::new(ChannelReader {
                rx: in_rx,
                buf: Vec::new(),
                pos: 0,
            });
            let mut sink = LineSink {
                tx: out_tx,
                partial: Vec::new(),
            };
            run_design_daemon(&options, reader, &mut sink)
        });
        Client {
            input: Some(in_tx),
            output: out_rx,
            handle: Some(handle),
        }
    }

    /// Sends one frame; returns when it was handed to the daemon.
    pub fn send(&self, frame: &str) -> Result<Instant, String> {
        let mut bytes = Vec::with_capacity(frame.len() + 1);
        bytes.extend_from_slice(frame.as_bytes());
        bytes.push(b'\n');
        let sent = Instant::now();
        self.input
            .as_ref()
            .expect("input open until finish")
            .send(bytes)
            .map_err(|_| "daemon stopped reading".to_string())?;
        Ok(sent)
    }

    /// The next response line and the instant it was written.
    pub fn recv(&self) -> Result<(Instant, String), String> {
        self.output
            .recv_timeout(RESPONSE_TIMEOUT)
            .map_err(|e| format!("no daemon response: {e}"))
    }

    /// Closes the input (EOF), waits for the daemon to drain and stop,
    /// and returns its session report.
    pub fn finish(mut self) -> Result<DaemonReport, String> {
        self.input.take();
        let handle = self.handle.take().expect("session runs until finish");
        handle
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
            .map_err(|e| format!("daemon session failed: {e}"))
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        // Error paths still stop the daemon thread before the process
        // exits: EOF makes the session drain and return.
        self.input.take();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// One answered request.
pub struct Sample {
    pub latency_ms: f64,
    pub line: String,
}

/// A closed loop with at most `window` requests in flight: `next(i)`
/// yields the `i`-th frame (or `None` to stop sending), and every
/// response is paired with its request by the daemon's in-order
/// emission. Returns one sample per sent frame, in send order.
pub fn closed_loop(
    client: &Client,
    window: usize,
    mut next: impl FnMut(usize) -> Option<String>,
) -> Result<Vec<Sample>, String> {
    let mut in_flight: VecDeque<Instant> = VecDeque::new();
    let mut samples = Vec::new();
    let mut sent = 0usize;
    let mut exhausted = false;
    loop {
        while !exhausted && in_flight.len() < window {
            match next(sent) {
                Some(frame) => {
                    in_flight.push_back(client.send(&frame)?);
                    sent += 1;
                }
                None => exhausted = true,
            }
        }
        let Some(sent_at) = in_flight.pop_front() else {
            return Ok(samples);
        };
        let (at, line) = client.recv()?;
        samples.push(Sample {
            latency_ms: at.duration_since(sent_at).as_secs_f64() * 1e3,
            line,
        });
    }
}
