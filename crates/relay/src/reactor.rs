//! The relay's echo data connection on the shared peer scaffold
//! (`flashflow_procutil::peer`): a connection that opened with a data
//! hello moves through **Bind** (accumulate the hello, wait for its
//! nonce to be registered) and then **Echo** (an [`Echoer`] verifying
//! and looping the blast back), driven by a shard of the reactor — one
//! loop iteration per readiness event or shard tick.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use flashflow_obs::{fields, Span};
use flashflow_procutil::peer::{self, Serving, Why};
use flashflow_procutil::reactor::Step;
use flashflow_proto::blast::{DataChannelHello, Echoer, HELLO_LEN};
use flashflow_proto::tcp::TcpTransport;
use flashflow_proto::transport::Transport;
use flashflow_simnet::time::SimTime;

use crate::{EchoCounters, Measurement, Relay};

/// One data connection: binding, then echoing.
pub enum EchoConn {
    /// Accumulating the hello and waiting for its nonce.
    Bind {
        shared: Arc<Serving<Relay>>,
        conn_id: u64,
        transport: TcpTransport,
        buf: Vec<u8>,
        deadline: Instant,
    },
    Echo(Box<DataConn>),
    Gone,
}

impl EchoConn {
    /// A connection classified as data, holding its first bytes.
    pub fn bind(
        shared: &Arc<Serving<Relay>>,
        conn_id: u64,
        transport: TcpTransport,
        buf: Vec<u8>,
        deadline: Instant,
    ) -> EchoConn {
        EchoConn::Bind { shared: Arc::clone(shared), conn_id, transport, buf, deadline }
    }
}

impl peer::DataConn for EchoConn {
    fn step(&mut self, why: Why) -> Step {
        match std::mem::replace(self, EchoConn::Gone) {
            EchoConn::Bind { shared, conn_id, transport, buf, deadline } => {
                let (next, step) = bind(why, shared, conn_id, transport, buf, deadline);
                *self = next;
                step
            }
            EchoConn::Echo(mut d) => {
                let step = match why {
                    Why::Ready => d.step_ready(),
                    Why::Tick => d.step_tick(),
                };
                if step == Step::Continue {
                    *self = EchoConn::Echo(d);
                }
                step
            }
            EchoConn::Gone => Step::Done,
        }
    }

    fn wants_write(&self) -> bool {
        match self {
            EchoConn::Echo(d) => d.backlog,
            EchoConn::Bind { .. } | EchoConn::Gone => false,
        }
    }
}

/// Accumulates the hello, then waits out the window for the nonce to
/// appear in the echo plane (the command may land microseconds after
/// the dial).
fn bind(
    why: Why,
    shared: Arc<Serving<Relay>>,
    conn_id: u64,
    mut transport: TcpTransport,
    mut buf: Vec<u8>,
    deadline: Instant,
) -> (EchoConn, Step) {
    if why == Why::Ready && buf.len() < HELLO_LEN {
        match transport.recv(SimTime::ZERO) {
            Ok(bytes) => buf.extend_from_slice(&bytes),
            Err(_) => return (EchoConn::Gone, Step::Done),
        }
    }
    let span = shared.span.channel(conn_id);
    if buf.len() < HELLO_LEN {
        if Instant::now() >= deadline {
            span.event("channel.no_hello");
            return (EchoConn::Gone, Step::Done);
        }
        return (EchoConn::Bind { shared, conn_id, transport, buf, deadline }, Step::Continue);
    }
    let mut raw = [0u8; HELLO_LEN];
    raw.copy_from_slice(&buf[..HELLO_LEN]);
    let hello = match DataChannelHello::decode(&raw) {
        Ok(h) => h,
        Err(e) => {
            span.emit("channel.bad_hello", fields![error = format!("{e}")]);
            return (EchoConn::Gone, Step::Done);
        }
    };
    match shared.role.echo.lookup(hello.nonce) {
        Some(m) => match DataConn::bind(&shared, span, transport, &buf, &m) {
            Some(d) => (EchoConn::Echo(Box::new(d)), Step::Continue),
            None => (EchoConn::Gone, Step::Done),
        },
        None if Instant::now() >= deadline => {
            span.emit("channel.unknown_nonce", fields![nonce = hello.nonce]);
            (EchoConn::Gone, Step::Done)
        }
        None => (EchoConn::Bind { shared, conn_id, transport, buf, deadline }, Step::Continue),
    }
}

/// How many pump rounds one readiness event may spend on a single
/// channel before yielding to the rest of the shard's event batch
/// (level-triggered polling re-delivers whatever remains).
const PUMP_ROUNDS: u32 = 8;

/// One bound echo channel, pumped on socket readiness, publishing
/// counter deltas into its measurement's aggregate.
pub struct DataConn {
    shared: Arc<Serving<Relay>>,
    span: Span,
    echoer: Echoer<TcpTransport>,
    counters: Arc<EchoCounters>,
    t0: Instant,
    /// (received, corrupt, forged, echoed) through the last publish.
    last: (u64, u64, u64, u64),
    last_activity: Instant,
    /// Echo bytes parsed but not yet flushed to the socket; the shard
    /// re-arms for write readiness while this holds.
    backlog: bool,
}

impl DataConn {
    /// Binds a decoded hello to its registered measurement and feeds
    /// the pre-read bytes (hello + whatever blast followed it).
    fn bind(
        shared: &Arc<Serving<Relay>>,
        span: Span,
        transport: TcpTransport,
        preread: &[u8],
        measurement: &Measurement,
    ) -> Option<DataConn> {
        let counters = Arc::clone(&measurement.counters);
        counters.channels.fetch_add(1, Ordering::Relaxed);
        // The channel inherits its measurement's trace id: the data
        // plane's events join the same cross-process timeline.
        let span = if measurement.trace_id != 0 { span.trace(measurement.trace_id) } else { span };
        span.emit("channel.bound", fields![channels = counters.channels.load(Ordering::Relaxed)]);
        let mut echoer = Echoer::new(transport)
            .with_key(measurement.key)
            .with_counters(shared.role.blast.clone(), shared.role.echoed_bytes.clone());
        echoer.set_corrupt_echo(shared.role.corrupt_echo);
        let t0 = Instant::now();
        let now = SimTime::from_secs_f64(t0.elapsed().as_secs_f64() * shared.cfg.speedup);
        echoer.start(now);
        let mut conn = DataConn {
            shared: Arc::clone(shared),
            span,
            echoer,
            counters,
            t0,
            last: (0, 0, 0, 0),
            last_activity: Instant::now(),
            backlog: false,
        };
        if let Err(e) = conn.echoer.inject(now, preread) {
            conn.span.emit("channel.framing_error", fields![error = format!("{e}")]);
            conn.counters.channels.fetch_sub(1, Ordering::Relaxed);
            return None;
        }
        conn.publish();
        Some(conn)
    }

    fn snow(&self) -> SimTime {
        SimTime::from_secs_f64(self.t0.elapsed().as_secs_f64() * self.shared.cfg.speedup)
    }

    fn step_ready(&mut self) -> Step {
        let now = self.snow();
        for _ in 0..PUMP_ROUNDS {
            match self.echoer.pump(now) {
                Ok(true) => self.last_activity = Instant::now(),
                Ok(false) => break,
                Err(e) => {
                    self.span.emit("channel.framing_error", fields![error = format!("{e}")]);
                    return self.close();
                }
            }
        }
        self.publish();
        if self.echoer.transport_error().is_some() {
            return self.close(); // measurer hung up: the normal end
        }
        self.backlog =
            self.echoer.pending_echo() > 0 || self.echoer.transport_mut().pending_send_bytes() > 0;
        Step::Continue
    }

    fn step_tick(&mut self) -> Step {
        // A quiet bound channel costs nothing per tick; only a flush
        // backlog or the drain deadline brings it back to the socket.
        if self.backlog {
            return self.step_ready();
        }
        if self.shared.draining() && self.last_activity.elapsed() > Duration::from_millis(500) {
            return self.close();
        }
        Step::Continue
    }

    /// Publishes counter deltas into the measurement's aggregate (the
    /// control session reports from those totals).
    fn publish(&mut self) {
        let now = (
            self.echoer.received_total(),
            self.echoer.corrupt_total(),
            self.echoer.forged_total(),
            self.echoer.echoed_total(),
        );
        self.counters.received.fetch_add(now.0 - self.last.0, Ordering::Relaxed);
        self.counters.corrupt.fetch_add(now.1 - self.last.1, Ordering::Relaxed);
        self.counters.forged.fetch_add(now.2 - self.last.2, Ordering::Relaxed);
        self.counters.echoed.fetch_add(now.3 - self.last.3, Ordering::Relaxed);
        self.last = now;
    }

    fn close(&mut self) -> Step {
        self.publish();
        self.counters.channels.fetch_sub(1, Ordering::Relaxed);
        self.span.emit(
            "channel.closed",
            fields![
                received = self.echoer.received_total(),
                echoed = self.echoer.echoed_total(),
                corrupt = self.echoer.corrupt_total(),
                forged = self.echoer.forged_total(),
            ],
        );
        Step::Done
    }
}
