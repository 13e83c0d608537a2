//! The open-loop load generator: requests go out on a precomputed,
//! seeded schedule whether or not earlier replies have arrived, and each
//! reply is timed from when its request was *due*, so a stall is charged
//! to every request it delays. One thread and one connection per wire
//! format in the plan.

use ssr_graph::NodeId;
use ssr_serve::cache::CachedMatches;
use ssr_serve::codec::{Decoded, WireFormat, SSB_MAGIC};
use ssr_serve::protocol::{Request, Response};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Top-k every read asks for.
pub const TOP_K: usize = 10;

#[derive(Debug, Clone)]
pub enum Op {
    Read(NodeId),
    Write { add: Vec<(NodeId, NodeId)>, remove: Vec<(NodeId, NodeId)> },
}

/// One scheduled request: due `due_ns` after the run's origin, on
/// connection `conn`.
#[derive(Debug, Clone)]
pub struct Planned {
    pub due_ns: u64,
    pub conn: usize,
    pub op: Op,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Res {
    /// No reply before the drain deadline (a timeout).
    Missing,
    Read {
        epoch: u64,
        node: NodeId,
        matches: Option<CachedMatches>,
    },
    Delta {
        epoch: u64,
    },
    Shed,
    Error(String),
}

#[derive(Debug, Clone)]
pub struct Outcome {
    pub due_ns: u64,
    pub send_ns: u64,
    pub sent_ns: u64,
    pub recv_ns: u64,
    pub decode_ns: u64,
    pub res: Res,
}

impl Outcome {
    /// Latency charged to this request: reply time minus *due* time.
    pub fn latency_ns(&self) -> u64 {
        self.recv_ns.saturating_sub(self.due_ns)
    }

    /// How late the generator sent it.
    pub fn late_ns(&self) -> u64 {
        self.send_ns.saturating_sub(self.due_ns)
    }
}

fn request(op: &Op) -> Request {
    match op {
        Op::Read(node) => Request::Query { node: *node, k: TOP_K },
        Op::Write { add, remove } => {
            Request::EdgeDelta { add: add.clone(), remove: remove.clone() }
        }
    }
}

fn connect(addr: SocketAddr, fmt: WireFormat) -> Result<TcpStream, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    if fmt == WireFormat::Ssb {
        s.write_all(SSB_MAGIC).map_err(|e| e.to_string())?;
    }
    Ok(s)
}

/// Runs `plan` open loop against `addr`, one connection per entry of
/// `formats`. Replies of requests flagged in `keep` retain their matches
/// for the output check. Requests still unanswered `drain` after the last
/// send are reported [`Res::Missing`]. Outcome times count from the
/// returned origin.
///
/// One thread does everything: it sends whatever is due, then waits in
/// `ppoll(2)` for replies until the next request is due. A single busy
/// generator thread leaves the other core(s) to the server.
pub fn run_open_loop(
    addr: SocketAddr,
    formats: &[WireFormat],
    plan: &[Planned],
    keep: &[bool],
    drain: Duration,
) -> Result<(Instant, Vec<Outcome>), String> {
    let mut conns: Vec<TcpStream> =
        formats.iter().map(|&f| connect(addr, f)).collect::<Result<_, _>>()?;
    // JSON replies are positional: each connection answers in send order,
    // which is plan order filtered to that connection.
    let mut fifo: Vec<VecDeque<usize>> = vec![VecDeque::new(); formats.len()];
    for (i, p) in plan.iter().enumerate() {
        fifo[p.conn].push_back(i);
    }
    let n = plan.len();
    let mut out: Vec<Outcome> = plan
        .iter()
        .map(|p| Outcome {
            due_ns: p.due_ns,
            send_ns: 0,
            sent_ns: 0,
            recv_ns: 0,
            decode_ns: 0,
            res: Res::Missing,
        })
        .collect();
    let mut pending = n;
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); formats.len()];
    let mut inbufs: Vec<Vec<u8>> = vec![Vec::new(); formats.len()];
    let mut open = vec![true; formats.len()];
    let mut chunk = vec![0u8; 1 << 16];
    let origin = Instant::now() + Duration::from_millis(20);
    let mut deadline = u64::MAX;
    let mut i = 0;
    while pending > 0 {
        let now = since(origin);
        if i < n && plan[i].due_ns <= now {
            let mut j = i;
            while j < n && plan[j].due_ns <= now {
                j += 1;
            }
            // Everything already due goes out now, one write per connection.
            for (c, buf) in bufs.iter_mut().enumerate() {
                buf.clear();
                let start = since(origin);
                for (k, p) in plan[i..j].iter().enumerate() {
                    if p.conn == c {
                        formats[c].codec().encode_request((i + k) as u64, &request(&p.op), buf);
                    }
                }
                if buf.is_empty() {
                    continue;
                }
                conns[c].write_all(buf).map_err(|e| format!("sending on connection {c}: {e}"))?;
                let end = since(origin);
                for (k, p) in plan[i..j].iter().enumerate() {
                    if p.conn == c {
                        out[i + k].send_ns = start;
                        out[i + k].sent_ns = end;
                    }
                }
            }
            i = j;
            if i == n {
                deadline = since(origin) + drain.as_nanos() as u64;
            }
            continue;
        }
        if now >= deadline {
            break;
        }
        // Wait for replies until shortly before the next send is due.
        let wake = if i < n { plan[i].due_ns } else { deadline };
        let wait_ns = wake.saturating_sub(now).saturating_sub(60_000);
        for c in wait_readable(&conns, &open, wait_ns) {
            let (buf, fifo) = (&mut inbufs[c], &mut fifo[c]);
            pending -= read_replies(
                &mut conns[c],
                formats[c],
                buf,
                fifo,
                &mut chunk,
                &mut out,
                keep,
                origin,
                &mut open[c],
            );
        }
    }
    Ok((origin, out))
}

fn since(origin: Instant) -> u64 {
    Instant::now().saturating_duration_since(origin).as_nanos() as u64
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: std::os::raw::c_ulong,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

const POLLIN: i16 = 0x1;

/// Waits up to `wait_ns` for open connections to become readable;
/// returns the readable ones.
fn wait_readable(conns: &[TcpStream], open: &[bool], wait_ns: u64) -> Vec<usize> {
    let mut fds: Vec<PollFd> = conns
        .iter()
        .zip(open)
        .map(|(s, &o)| PollFd {
            fd: if o { s.as_raw_fd() } else { -1 },
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let tmo = Timespec {
        tv_sec: (wait_ns / 1_000_000_000) as i64,
        tv_nsec: (wait_ns % 1_000_000_000) as i64,
    };
    // SAFETY: `fds` is a live pollfd array of the length passed, `tmo` a
    // live timespec, and a null sigmask leaves the signal mask alone.
    let ready = unsafe {
        ppoll(fds.as_mut_ptr(), fds.len() as std::os::raw::c_ulong, &tmo, std::ptr::null())
    };
    if ready <= 0 {
        return Vec::new();
    }
    fds.iter().enumerate().filter(|(_, f)| f.fd >= 0 && f.revents != 0).map(|(c, _)| c).collect()
}

/// Reads what one connection has and records every complete reply;
/// returns how many requests it answered. The blocking read cannot
/// block: it only follows a readiness report.
#[allow(clippy::too_many_arguments)]
fn read_replies(
    conn: &mut TcpStream,
    fmt: WireFormat,
    buf: &mut Vec<u8>,
    fifo: &mut VecDeque<usize>,
    chunk: &mut [u8],
    out: &mut [Outcome],
    keep: &[bool],
    origin: Instant,
    open: &mut bool,
) -> usize {
    let got = match conn.read(chunk) {
        Ok(0) => {
            *open = false;
            return 0;
        }
        Ok(got) => got,
        Err(_) => {
            *open = false;
            return 0;
        }
    };
    let recv_ns = since(origin);
    buf.extend_from_slice(&chunk[..got]);
    let codec = fmt.codec();
    let mut answered = 0;
    let mut pos = 0;
    loop {
        let t0 = Instant::now();
        let decoded = codec.decode_response(&buf[pos..]);
        let decode_ns = t0.elapsed().as_nanos() as u64;
        let (consumed, id, value) = match decoded {
            Decoded::Incomplete => break,
            Decoded::Skip { consumed } => {
                pos += consumed;
                continue;
            }
            Decoded::Malformed(m) => {
                *open = false;
                eprintln!("perfbench: malformed {} reply: {}", fmt.name(), m.error);
                break;
            }
            Decoded::Frame { consumed, id, value } => (consumed, id, value),
        };
        pos += consumed;
        let idx = match id {
            Some(id) => Some(id as usize),
            None => fifo.pop_front(),
        };
        let Some(idx) = idx.filter(|&i| i < out.len() && out[i].res == Res::Missing) else {
            continue;
        };
        out[idx].recv_ns = recv_ns;
        out[idx].decode_ns = decode_ns;
        out[idx].res = classify(value, keep.get(idx).copied().unwrap_or(false));
        answered += 1;
    }
    buf.drain(..pos);
    answered
}

fn classify(resp: Response, keep: bool) -> Res {
    match resp {
        Response::Query(r) => {
            Res::Read { epoch: r.epoch, node: r.node, matches: keep.then_some(r.matches) }
        }
        Response::DeltaApplied { epoch, .. } => Res::Delta { epoch },
        Response::Shed { .. } => Res::Shed,
        Response::Error { message } => Res::Error(message),
        other => Res::Error(format!("unexpected reply {other:?}")),
    }
}

/// A blocking request/reply connection for set-up, warm-up and
/// round-trip timing (never used inside an open-loop window).
pub struct SyncConn {
    stream: TcpStream,
    fmt: WireFormat,
    buf: Vec<u8>,
    next_id: u64,
}

impl SyncConn {
    pub fn connect(addr: SocketAddr, fmt: WireFormat) -> Result<SyncConn, String> {
        Ok(SyncConn { stream: connect(addr, fmt)?, fmt, buf: Vec::new(), next_id: 0 })
    }

    pub fn call(&mut self, req: &Request) -> Result<Response, String> {
        let mut out = Vec::new();
        self.fmt.codec().encode_request(self.next_id, req, &mut out);
        self.next_id += 1;
        self.stream.write_all(&out).map_err(|e| e.to_string())?;
        let mut chunk = [0u8; 8192];
        loop {
            match self.fmt.codec().decode_response(&self.buf) {
                Decoded::Frame { consumed, value, .. } => {
                    self.buf.drain(..consumed);
                    return Ok(value);
                }
                Decoded::Skip { consumed } => {
                    self.buf.drain(..consumed);
                }
                Decoded::Malformed(m) => return Err(m.error),
                Decoded::Incomplete => {
                    let got = self.stream.read(&mut chunk).map_err(|e| e.to_string())?;
                    if got == 0 {
                        return Err("server closed the connection".into());
                    }
                    self.buf.extend_from_slice(&chunk[..got]);
                }
            }
        }
    }

    pub fn read(&mut self, node: NodeId) -> Result<Res, String> {
        Ok(classify(self.call(&Request::Query { node, k: TOP_K })?, true))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A single FIFO server that needs `service` per request and stalls
    /// once: replies are timed from the schedule exactly as the live
    /// generator times them.
    fn simulate(due: &[u64], service: u64, stall_at: u64, stall: u64) -> Vec<Outcome> {
        let mut free_at = 0;
        due.iter()
            .map(|&d| {
                let mut start = d.max(free_at);
                if start >= stall_at && free_at <= stall_at {
                    start = start.max(stall_at + stall);
                }
                free_at = start + service;
                Outcome {
                    due_ns: d,
                    send_ns: d,
                    sent_ns: d,
                    recv_ns: free_at,
                    decode_ns: 0,
                    res: Res::Delta { epoch: 0 },
                }
            })
            .collect()
    }

    #[test]
    fn a_stall_is_charged_to_every_request_it_delays() {
        let due: Vec<u64> = (0..100).map(|i| i * 1_000).collect();
        let calm = simulate(&due, 100, u64::MAX, 0);
        assert!(calm.iter().all(|o| o.latency_ns() == 100));
        // A 20 µs stall at t = 50 µs: requests due inside it wait for it,
        // and so does everything queued behind them.
        let stalled = simulate(&due, 100, 50_000, 20_000);
        let lat: Vec<u64> = stalled.iter().map(Outcome::latency_ns).collect();
        assert!(lat[..50].iter().all(|&l| l == 100));
        assert_eq!(lat[50], 20_100);
        assert_eq!(lat[60], 11_100);
        assert_eq!(lat[72], 300);
        assert!(lat[50..73].iter().all(|&l| l > 100));
        assert!(lat[73..].iter().all(|&l| l == 100));
        // Timing from the actual send instead would hide the stall when
        // the generator itself stalls: charge from due, never from send.
        let late_sender = Outcome {
            due_ns: 0,
            send_ns: 5_000,
            sent_ns: 5_000,
            recv_ns: 5_100,
            decode_ns: 0,
            res: Res::Shed,
        };
        assert_eq!(late_sender.latency_ns(), 5_100);
        assert_eq!(late_sender.late_ns(), 5_000);
    }
}
