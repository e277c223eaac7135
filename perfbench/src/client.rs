//! Load generators over TCP: an open-loop generator (requests sent on
//! a fixed schedule, each timed from its scheduled send time) and a
//! closed-loop generator (a fixed pipeline depth per connection).
//!
//! Replies are checked as they arrive: every GET hit is byte-verified
//! against the value its key and version determine.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use crate::gen::{key_into, Op, Req, Values};
use crate::stats::{thread_cpu_ns, Samples};

/// How replies are judged.
pub struct Checker<'a> {
    pub values: &'a Values,
    pub max_version: &'a [u32],
    /// A GET miss is a failure (the keyspace is fully resident).
    pub miss_is_failure: bool,
    /// A GET miss is followed by a refill SET of the key's version-0
    /// value of the request's length (cache-aside).
    pub refill: bool,
    /// Keep per-request latencies (open loop); a closed loop only
    /// counts, so its memory does not grow with throughput.
    pub record_latency: bool,
}

/// Counts and latencies of one generator phase.
#[derive(Default, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Replies whose bytes were wrong: a correctness failure.
    pub mismatches: u64,
    /// Cache-aside refill SETs the store refused for want of memory
    /// (also counted in `failed`).
    pub refused_refills: u64,
    pub gets: u64,
    pub hits: u64,
    pub get_ns: Samples,
    pub set_ns: Samples,
    /// How late the open-loop generator sent each request.
    pub lag_ns: Samples,
    /// Generator threads' own CPU time.
    pub gen_cpu_ns: u64,
    /// Replies received.
    pub completed: u64,
    /// Stream requests sent (refills excluded): where the next phase
    /// picks up the stream.
    pub stream_used: u64,
    /// Open loop: the phase ended backlogged (see [`open_loop`]).
    pub backlogged: u64,
    /// First error seen, for the log.
    pub first_error: Option<String>,
}

impl Tally {
    pub fn merge(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.mismatches += o.mismatches;
        self.refused_refills += o.refused_refills;
        self.gets += o.gets;
        self.hits += o.hits;
        self.get_ns.extend(&o.get_ns);
        self.set_ns.extend(&o.set_ns);
        self.lag_ns.extend(&o.lag_ns);
        self.gen_cpu_ns += o.gen_cpu_ns;
        self.stream_used += o.stream_used;
        self.backlogged += o.backlogged;
        self.completed += o.completed;
        if self.first_error.is_none() {
            self.first_error = o.first_error;
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.first_error.is_none() {
            self.first_error = Some(why);
        }
    }

    fn mismatch(&mut self, why: String) {
        self.mismatches += 1;
        self.fail(why);
    }

    /// The phase's correctness gate: no reply with wrong bytes and no
    /// failed operation (an `-ERR` reply, an I/O error or disconnect,
    /// a request unanswered at phase end). A failure fails the run; it
    /// never turns into numbers. The one exception is a cache-aside
    /// refill the store refused for want of memory while a co-tenant
    /// squeezes it: the client serves that key without the cache, so
    /// it is counted (the result line's `failed`), not fatal.
    pub fn check(&self, phase: &str) -> Result<(), String> {
        if self.mismatches > 0 || self.failed > self.refused_refills {
            return Err(format!(
                "{phase}: {} of {} operations failed, {} with wrong bytes (first: {})",
                self.failed,
                self.attempted,
                self.mismatches,
                self.first_error.as_deref().unwrap_or("")
            ));
        }
        Ok(())
    }
}

struct Pending {
    sched: Instant,
    op: Op,
    key: u32,
    len: u32,
    /// A cache-aside refill, not a stream request.
    refill: bool,
}

/// One client connection with its own read/write buffers and the FIFO
/// of requests awaiting replies.
pub struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    rstart: usize,
    rlen: usize,
    wbuf: Vec<u8>,
    wpos: usize,
    pending: VecDeque<Pending>,
    closed: bool,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            rbuf: vec![0; 256 << 10],
            rstart: 0,
            rlen: 0,
            wbuf: Vec::with_capacity(64 << 10),
            wpos: 0,
            pending: VecDeque::new(),
            closed: false,
        })
    }

    fn queue(&mut self, values: &Values, op: Op, key: u32, version: u32, len: u32, sched: Instant) {
        match op {
            Op::Get => {
                self.wbuf.extend_from_slice(b"GET ");
                key_into(key, &mut self.wbuf);
            }
            Op::Set => {
                self.wbuf.extend_from_slice(b"SET ");
                key_into(key, &mut self.wbuf);
                self.wbuf.push(b' ');
                values.value_into(key, version, len, &mut self.wbuf);
            }
            Op::Del | Op::Expire => unreachable!("network workloads send GET and SET only"),
        }
        self.wbuf.push(b'\n');
        self.pending.push_back(Pending {
            sched,
            op,
            key,
            len,
            // Stream SETs write versions from 1 on; version 0 is the
            // preloaded value, which only a refill writes again.
            refill: op == Op::Set && version == 0,
        });
    }

    /// Writes as much of the write buffer as the socket takes.
    fn flush(&mut self) -> io::Result<()> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        }
        Ok(())
    }

    /// Reads what is available (or blocks, on a blocking socket);
    /// returns false at end of stream.
    fn fill(&mut self) -> io::Result<bool> {
        if self.rstart == self.rlen {
            self.rstart = 0;
            self.rlen = 0;
        } else if self.rlen == self.rbuf.len() {
            self.rbuf.copy_within(self.rstart..self.rlen, 0);
            self.rlen -= self.rstart;
            self.rstart = 0;
        }
        match self.stream.read(&mut self.rbuf[self.rlen..]) {
            Ok(n) => {
                self.rlen += n;
                Ok(n > 0)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                ) =>
            {
                Ok(true)
            }
            Err(e) => Err(e),
        }
    }

    /// Pops complete replies and judges them; returns the keys (and
    /// lengths) of GET misses that need a refill.
    fn drain_replies(
        &mut self,
        now: Instant,
        chk: &Checker<'_>,
        t: &mut Tally,
        refills: &mut Vec<(u32, u32)>,
    ) {
        while let Some(nl) = self.rbuf[self.rstart..self.rlen]
            .iter()
            .position(|&b| b == b'\n')
        {
            let line = &self.rbuf[self.rstart..self.rstart + nl];
            let Some(p) = self.pending.pop_front() else {
                t.mismatch("reply with no request".into());
                self.rstart += nl + 1;
                continue;
            };
            let lat = now.saturating_duration_since(p.sched).as_nanos() as u64;
            judge(&p, line, lat, chk, t, refills);
            t.completed += 1;
            self.rstart += nl + 1;
        }
    }
}

fn judge(
    p: &Pending,
    line: &[u8],
    lat: u64,
    chk: &Checker<'_>,
    t: &mut Tally,
    refills: &mut Vec<(u32, u32)>,
) {
    // Every reply is timed, failed ones too: a server that sheds load
    // must not read as a faster one.
    if chk.record_latency {
        match p.op {
            Op::Get => t.get_ns.push(lat),
            Op::Set => t.set_ns.push(lat),
            Op::Del | Op::Expire => {}
        }
    }
    if line.starts_with(b"-ERR") {
        if p.refill && line.starts_with(b"-ERR OOM") {
            t.refused_refills += 1;
        }
        t.fail(format!(
            "server error on {:?} key {}: {}",
            p.op,
            p.key,
            String::from_utf8_lossy(line)
        ));
        return;
    }
    match p.op {
        Op::Get => {
            t.gets += 1;
            if line == b"$-1" {
                if chk.miss_is_failure {
                    t.fail(format!("GET key {} missed a resident key", p.key));
                } else if chk.refill {
                    refills.push((p.key, p.len));
                }
            } else if let Some(value) = line.strip_prefix(b"$") {
                // The value must have the stream's length for this
                // workload and name a version the stream wrote.
                match chk.values.verify(p.key, value) {
                    Some(v)
                        if v <= chk.max_version[p.key as usize]
                            && value.len() == p.len as usize =>
                    {
                        t.hits += 1
                    }
                    _ => t.mismatch(format!("GET key {} returned wrong bytes", p.key)),
                }
            } else {
                t.mismatch(format!("malformed GET reply for key {}", p.key));
            }
        }
        Op::Set => {
            if line != b"+OK" {
                t.fail(format!(
                    "SET key {}: {}",
                    p.key,
                    String::from_utf8_lossy(line)
                ));
            }
        }
        Op::Del | Op::Expire => unreachable!(),
    }
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
    fn ppoll(fds: *mut PollFd, nfds: u64, tmo: *const Timespec, sigmask: *const u8) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;
const PR_SET_TIMERSLACK: i32 = 29;

/// Waits until a connection is readable (or writable, where it has
/// unsent bytes) or `timeout` passes; nanosecond timeout, unlike
/// `epoll_wait`.
fn wait(conns: &[Conn], timeout: Duration) -> io::Result<()> {
    let mut fds: Vec<PollFd> = conns
        .iter()
        .map(|c| PollFd {
            fd: c.stream.as_raw_fd(),
            events: POLLIN | if c.wpos < c.wbuf.len() { POLLOUT } else { 0 },
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` holds `fds.len()` initialised pollfd structs that
    // outlive the call, `ts` is a valid timespec, and a null sigmask
    // leaves the signal mask unchanged.
    let rc = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
    if rc < 0 {
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(())
}

/// Open-loop settings.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoop {
    /// Requests per second across all connections, evenly spaced.
    pub rate: f64,
    pub duration: Duration,
}

/// How long an open-loop phase waits for its last replies before
/// counting them failed.
const DRAIN: Duration = Duration::from_secs(5);

/// The backlog that counts as "grown": more than 5 ms of offered load
/// outstanding (at least 64 requests).
fn backlog_limit(rate: f64) -> u64 {
    ((rate * 0.005) as u64).max(64)
}

/// Runs an open-loop phase on `conns` from one thread: request `i` is
/// due at `start + i / rate` and goes out on connection `i % n`; its
/// latency runs from that due time to its full reply, so a stall is
/// charged to every request scheduled behind it. Requests are taken
/// from `reqs` cyclically, starting at `first`.
///
/// Marks the phase `backlogged` when the backlog (requests due but
/// unanswered) stayed above 5 ms of offered load through the last
/// tenth of the phase: the server was not keeping up when the phase
/// ended. A caller fails the run when its phases end backlogged more
/// often than not (see [`check_backlog`]); one stall near a phase's
/// end is not growth.
pub fn open_loop(
    conns: &mut [Conn],
    reqs: &[Req],
    first: usize,
    cfg: OpenLoop,
    chk: &Checker<'_>,
) -> Result<Tally, String> {
    // Wake from ppoll within microseconds of the deadline rather than
    // the default 50 µs timer slack.
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
    // only affects the calling thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
    for c in conns.iter() {
        c.stream
            .set_nonblocking(true)
            .map_err(|e| format!("nonblocking: {e}"))?;
    }
    let cpu0 = thread_cpu_ns();
    let mut t = Tally::default();
    let mut refills = Vec::new();
    let interval = Duration::from_secs_f64(1.0 / cfg.rate);
    let total = (cfg.rate * cfg.duration.as_secs_f64()) as u64;
    let start = Instant::now() + Duration::from_millis(1);
    let sample_every = (cfg.rate / 100.0).max(1.0) as u64; // every 10 ms of schedule
    let mut backlog = Vec::with_capacity((total / sample_every) as usize + 1);
    let mut sent = 0u64;
    let n = conns.len();
    loop {
        let now = Instant::now();
        while sent < total {
            let due = start + interval.mul_f64(sent as f64);
            if due > now {
                break;
            }
            let r = reqs[(first + sent as usize) % reqs.len()];
            let c = &mut conns[sent as usize % n];
            c.queue(chk.values, r.op, r.key, r.version, r.len, due);
            t.attempted += 1;
            t.stream_used += 1;
            t.lag_ns
                .push(now.saturating_duration_since(due).as_nanos() as u64);
            sent += 1;
            if sent.is_multiple_of(sample_every) {
                let outstanding: u64 = conns.iter().map(|c| c.pending.len() as u64).sum();
                backlog.push(outstanding);
            }
        }
        for c in conns.iter_mut().filter(|c| !c.closed) {
            if let Err(e) = c.flush() {
                c.closed = true;
                t.fail(format!("write: {e}"));
            }
        }
        let outstanding: usize = conns.iter().map(|c| c.pending.len()).sum();
        if sent == total && outstanding == 0 {
            break;
        }
        let end_of_schedule = start + interval.mul_f64(total as f64);
        if sent == total && now > end_of_schedule + DRAIN {
            break;
        }
        let next_due = if sent < total {
            (start + interval.mul_f64(sent as f64)).saturating_duration_since(now)
        } else {
            Duration::from_millis(10)
        };
        wait(conns, next_due).map_err(|e| format!("ppoll: {e}"))?;
        let now = Instant::now();
        for c in conns.iter_mut().filter(|c| !c.closed) {
            match c.fill() {
                Ok(true) => {}
                Ok(false) => {
                    c.closed = true;
                    t.fail("server closed the connection".into());
                }
                Err(e) => {
                    c.closed = true;
                    t.fail(format!("read: {e}"));
                }
            }
            c.drain_replies(now, chk, &mut t, &mut refills);
            for (key, len) in refills.drain(..) {
                c.queue(chk.values, Op::Set, key, 0, len, now);
                t.attempted += 1;
            }
        }
    }
    // Whatever is still unanswered (or stranded on a closed
    // connection) failed.
    for c in conns.iter_mut() {
        for p in c.pending.drain(..) {
            t.fail(format!("{:?} key {} unanswered at phase end", p.op, p.key));
        }
        c.stream
            .set_nonblocking(false)
            .map_err(|e| format!("blocking: {e}"))?;
    }
    t.gen_cpu_ns = thread_cpu_ns() - cpu0;
    let tail = &backlog[backlog.len() - (backlog.len() / 10).max(1).min(backlog.len())..];
    if !tail.is_empty() && tail.iter().all(|&b| b > backlog_limit(cfg.rate)) {
        t.backlogged = 1;
    }
    Ok(t)
}

/// Fails when more than half of `phases` open-loop phases ended
/// backlogged: the backlog grew, so the offered rate exceeded what the
/// server sustains.
pub fn check_backlog(backlogged: u64, phases: usize) -> Result<(), String> {
    if backlogged * 2 > phases as u64 {
        return Err(format!(
            "backlog grew: {backlogged} of {phases} open-loop phases ended with a growing backlog"
        ));
    }
    Ok(())
}

/// Runs a closed loop on one connection (call from its own thread):
/// `depth` requests in flight, a new one sent as each reply arrives,
/// until `deadline`; then the in-flight tail is drained. Requests are
/// `reqs[first], reqs[first + stride], …`, cyclically.
pub fn closed_loop(
    conn: &mut Conn,
    reqs: &[Req],
    first: usize,
    stride: usize,
    depth: usize,
    deadline: Instant,
    chk: &Checker<'_>,
) -> Tally {
    let cpu0 = thread_cpu_ns();
    let mut t = Tally::default();
    let mut refills = Vec::new();
    let mut next = first;
    // A server that stops answering fails the phase instead of hanging
    // the run.
    if let Err(e) = conn.stream.set_read_timeout(Some(Duration::from_secs(10))) {
        t.fail(format!("set read timeout: {e}"));
        return t;
    }
    let mut send = |c: &mut Conn, t: &mut Tally, now: Instant| {
        let r = reqs[next % reqs.len()];
        next += stride;
        c.queue(chk.values, r.op, r.key, r.version, r.len, now);
        t.attempted += 1;
        t.stream_used += 1;
    };
    let now = Instant::now();
    for _ in 0..depth {
        send(conn, &mut t, now);
    }
    loop {
        if let Err(e) = conn.flush() {
            t.fail(format!("write: {e}"));
            break;
        }
        if conn.pending.is_empty() {
            break;
        }
        match conn.fill() {
            Ok(true) => {}
            Ok(false) => {
                t.fail("server closed the connection".into());
                break;
            }
            Err(e) => {
                t.fail(format!("read: {e}"));
                break;
            }
        }
        let now = Instant::now();
        let before = conn.pending.len();
        conn.drain_replies(now, chk, &mut t, &mut refills);
        let done = before - conn.pending.len();
        let open = now < deadline;
        let mut budget = if open { done } else { 0 };
        // A miss's refill takes the place of the next stream request.
        for (key, len) in refills.drain(..) {
            if budget > 0 {
                conn.queue(chk.values, Op::Set, key, 0, len, now);
                t.attempted += 1;
                budget -= 1;
            }
        }
        for _ in 0..budget {
            send(conn, &mut t, now);
        }
    }
    for p in conn.pending.drain(..) {
        t.fail(format!("{:?} key {} unanswered", p.op, p.key));
    }
    t.gen_cpu_ns = thread_cpu_ns() - cpu0;
    t
}
