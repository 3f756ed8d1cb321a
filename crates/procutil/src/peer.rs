//! The serving scaffold both peer binaries (`flashflow-relay`,
//! `flashflow-measurer`) run on: process startup, the settings they
//! share, connection classification, and the warm-reuse control
//! conversation loop. Each binary supplies only its [`Role`] hooks —
//! what a slot's `Go`, per-step pump, per-second report, and stop mean
//! for it — and, for the relay, the data connection its echo plane
//! serves.
//!
//! A connection moves through **Classify** (await the first bytes,
//! drop it silent at the hello window or on drain), then either
//! **Control** — one [`Role::Session`] per conversation, back to back on
//! a leased transport so a coordinator-side pool reuses warm
//! connections — or **Data** ([`Role::open_data`]: the relay's echo
//! channel; the measurer refuses data dials). Every state is driven by
//! a shard of the [`Reactor`]: one loop iteration per readiness event
//! or shard tick.
//!
//! The conversation loop owns everything protocol-shaped that is the
//! same for both peers: the process-wide replay claim, `Resume` trace
//! adoption, the drain abort of still-handshaking sessions, trace
//! scoping on `Prepare`, per-second report pacing off the `Go` instant,
//! three terminal flush steps, and finish-and-reuse.

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use flashflow_obs::{fields, Counter, EventSink, MetricsRegistry, Span, Value};
use flashflow_proto::blast::DATA_HELLO_TAG;
use flashflow_proto::endpoint::Endpoint;
use flashflow_proto::msg::{AbortReason, MeasureSpec, AUTH_TOKEN_LEN};
use flashflow_proto::session::{
    MeasurerAction, MeasurerPhase, MeasurerSession, RelaySession, ReplayWindow, SessionState,
};
use flashflow_proto::tcp::TcpTransport;
use flashflow_proto::transport::{LeasedTransport, Transport};
use flashflow_simnet::time::SimTime;

use crate::reactor::{AcceptFn, Driven, Reactor, ReactorConfig, ReactorObs, Step};

/// The settings every peer process accepts (command line and `--config`
/// file alike): `listen`, `token-hex`, `speedup`, `sessions`,
/// `io-threads`, `log-json`, `metrics-addr`.
#[derive(Debug, Clone)]
pub struct PeerConfig {
    /// Address to listen on.
    pub listen: String,
    /// Pre-shared control token.
    pub token: [u8; AUTH_TOKEN_LEN],
    /// Whether a token was given explicitly. The built-in default token
    /// is public knowledge (it is in the source), so it is only
    /// acceptable on loopback; a non-loopback listener must be given a
    /// real secret.
    pub token_explicit: bool,
    /// Clock multiplier (a "second" is `1/speedup` wall seconds). The
    /// coordinator's clock does not speed up with the peer unless it
    /// runs the same multiplier, so either match the speedup on both
    /// sides or raise the coordinator's report-ahead cap.
    pub speedup: f64,
    /// Exit after completing this many control conversations; `None`
    /// serves until SIGTERM.
    pub sessions: Option<u64>,
    /// Reactor shard (event-loop thread) count.
    pub io_threads: usize,
    /// Mirror the structured event stream to this file as JSONL.
    pub log_json: Option<String>,
    /// Serve token-gated metric snapshots on this TCP address.
    pub metrics_addr: Option<String>,
}

impl Default for PeerConfig {
    fn default() -> Self {
        PeerConfig {
            listen: "127.0.0.1:0".to_string(),
            token: [0x42; AUTH_TOKEN_LEN],
            token_explicit: false,
            speedup: 1.0,
            sessions: None,
            io_threads: 4,
            log_json: None,
            metrics_addr: None,
        }
    }
}

impl PeerConfig {
    /// Applies `key=value` if it is one of the shared settings;
    /// `Ok(false)` leaves the key to the binary's own settings.
    ///
    /// # Errors
    /// Describes the value that failed to parse or validate.
    pub fn apply(&mut self, key: &str, value: &str) -> Result<bool, String> {
        match key {
            "listen" => self.listen = value.to_string(),
            "token-hex" => {
                self.token = crate::parse_token_hex(value)?;
                self.token_explicit = true;
            }
            "speedup" => {
                let speedup: f64 = value.parse().map_err(|e| format!("speedup: {e}"))?;
                if !(speedup.is_finite() && speedup > 0.0) {
                    return Err("speedup must be positive and finite".to_string());
                }
                self.speedup = speedup;
            }
            "sessions" => {
                self.sessions = Some(value.parse().map_err(|e| format!("sessions: {e}"))?);
            }
            "io-threads" => {
                let io_threads = value.parse().map_err(|e| format!("io-threads: {e}"))?;
                if io_threads == 0 {
                    return Err("io-threads must be at least 1".to_string());
                }
                self.io_threads = io_threads;
            }
            "log-json" => self.log_json = Some(value.to_string()),
            "metrics-addr" => self.metrics_addr = Some(value.to_string()),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The identification window for fresh connections (see
    /// [`crate::hello_window`]).
    pub fn hello_window(&self) -> Duration {
        crate::hello_window(self.speedup)
    }
}

/// The peer-side session surface the conversation loop drives:
/// implemented by [`MeasurerSession`] and the relay's [`RelaySession`].
pub trait PeerSession: SessionState<Action = MeasurerAction> + Send + 'static {
    /// The `Auth` nonce this session accepted, once past that step.
    fn accepted_nonce(&self) -> Option<u64>;
    /// True when the conversation was opened by an accepted `Resume`.
    fn resumed(&self) -> bool;
    /// The trace id the accepted `Resume` opener carried, if any.
    fn resume_trace_id(&self) -> Option<u64>;
    /// Current phase.
    fn phase(&self) -> MeasurerPhase;
    /// Reports one completed second.
    fn report_second(&mut self, bg_bytes: u64, measured_bytes: u64);
}

macro_rules! peer_session {
    ($($ty:ty),*) => {$(
        impl PeerSession for $ty {
            fn accepted_nonce(&self) -> Option<u64> {
                <$ty>::accepted_nonce(self)
            }
            fn resumed(&self) -> bool {
                <$ty>::resumed(self)
            }
            fn resume_trace_id(&self) -> Option<u64> {
                <$ty>::resume_trace_id(self)
            }
            fn phase(&self) -> MeasurerPhase {
                <$ty>::phase(self)
            }
            fn report_second(&mut self, bg_bytes: u64, measured_bytes: u64) {
                <$ty>::report_second(self, bg_bytes, measured_bytes);
            }
        }
    )*};
}

peer_session!(MeasurerSession, RelaySession);

/// Why the shard called into a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Why {
    /// Socket readiness.
    Ready,
    /// The shard's tick.
    Tick,
}

/// A connection that opened with a data hello, once [`Role::open_data`]
/// took it.
pub trait DataConn: Send + 'static {
    /// One readiness event or tick.
    fn step(&mut self, why: Why) -> Step;
    /// Unflushed outbound bytes: re-arm for write readiness.
    fn wants_write(&self) -> bool;
}

/// The data connection of a peer that serves none.
pub enum NoData {}

impl DataConn for NoData {
    fn step(&mut self, _why: Why) -> Step {
        match *self {}
    }

    fn wants_write(&self) -> bool {
        match *self {}
    }
}

/// What a peer binary plugs into the scaffold. Hooks run in a fixed
/// order within each control step: pump and tick, replay claim,
/// [`Role::on_session`], drain abort, session actions ([`Role::start`],
/// [`Role::stop`]), [`Role::pump`], due reports ([`Role::report`]),
/// terminal flushes, backlog.
pub trait Role: Send + Sync + Sized + 'static {
    /// The protocol session one conversation runs.
    type Session: PeerSession;
    /// Per-conversation role state, fresh for every conversation.
    type Conversation: Send + 'static;
    /// The connection a data hello opens.
    type Data: DataConn;

    /// A session for conversation `session_id`, seeded with the
    /// process-wide replay window.
    fn session(
        &self,
        token: [u8; AUTH_TOKEN_LEN],
        session_id: u64,
        window: ReplayWindow,
    ) -> Self::Session;

    /// Fresh per-conversation state.
    fn conversation(&self) -> Self::Conversation;

    /// Every step, after the replay claim: react to what the session
    /// has accepted so far.
    fn on_session(&self, _conv: &mut Self::Conversation, _session: &Self::Session, _span: &Span) {}

    /// `Go` arrived: the slot starts at `snow` (sped-up clock).
    fn start(&self, conv: &mut Self::Conversation, spec: &MeasureSpec, snow: SimTime, span: &Span);

    /// The session stopped (slot over or session dead) after
    /// `reported` seconds.
    fn stop(&self, conv: &mut Self::Conversation, snow: SimTime, reported: u32, span: &Span);

    /// Per-step work after the session's actions; `terminal` once the
    /// session can make no further progress.
    fn pump(&self, conv: &mut Self::Conversation, snow: SimTime, terminal: bool, span: &Span);

    /// The `(background, measured)` bytes of completed second `second`.
    fn report(&self, conv: &mut Self::Conversation, second: u32, span: &Span) -> (u64, u64);

    /// Outbound bytes queued beyond the control transport.
    fn backlog(&self, _conv: &mut Self::Conversation) -> bool {
        false
    }

    /// The conversation ended: release what it held.
    fn finish(&self, conv: &mut Self::Conversation);

    /// A connection opened with a data hello (`preread` holds its first
    /// bytes); `None` closes it.
    fn open_data(
        shared: &Arc<Serving<Self>>,
        conn_id: u64,
        transport: TcpTransport,
        preread: Vec<u8>,
        deadline: Instant,
    ) -> Option<Self::Data>;
}

/// Everything the serving threads share: the shared settings, the
/// role, and the process-wide conversation state.
pub struct Serving<R> {
    /// The shared settings.
    pub cfg: PeerConfig,
    /// The binary's role state.
    pub role: R,
    /// Root span of the process's structured event stream.
    pub span: Span,
    replay: Mutex<ReplayWindow>,
    draining: AtomicBool,
    sessions_done: AtomicU64,
    /// Conversations re-adopted via the `Resume` handshake (a restarted
    /// coordinator picking its parked sessions back up).
    resumed: Counter,
}

impl<R> Serving<R> {
    /// True once the process is draining: no new conversations, running
    /// slots finish.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn quota_reached(&self) -> bool {
        self.cfg.sessions.is_some_and(|n| self.sessions_done.load(Ordering::SeqCst) >= n)
    }

    fn stop_serving(&self) -> bool {
        self.draining() || self.quota_reached()
    }
}

/// Runs a peer process to its end: bind (`SO_REUSEADDR`), refuse the
/// built-in token off loopback, open the event sink (stderr text, plus
/// `--log-json`), start the metrics endpoint, advertise `listening
/// <addr>` (and `metrics <addr>`) on stdout, emit `<name>.start` with
/// `start_fields`, then serve on the reactor until SIGTERM or the
/// `--sessions` quota, drain, and emit `<name>.exit`. `role` registers
/// its metrics in the process registry. Startup failures exit the
/// process (status 1, or 2 for the token guard).
pub fn run<R: Role>(
    cfg: PeerConfig,
    name: &str,
    start_fields: Vec<(String, Value)>,
    role: impl FnOnce(&MetricsRegistry) -> R,
) {
    crate::install_sigterm_handler();
    // SO_REUSEADDR: a replacement process must re-take its configured
    // port while the killed incarnation's connections sit in TIME_WAIT.
    let listener = match crate::listen_reuseaddr(&*cfg.listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("bind {}: {e}", cfg.listen);
            std::process::exit(1);
        }
    };
    let addr = match listener.local_addr() {
        Ok(addr) => addr,
        Err(e) => {
            eprintln!("query bound address for {}: {e}", cfg.listen);
            std::process::exit(1);
        }
    };
    if !addr.ip().is_loopback() && !cfg.token_explicit {
        eprintln!(
            "refusing to serve {addr} with the built-in default token; \
             pass --token-hex with a real pre-shared secret"
        );
        std::process::exit(2);
    }
    let mut sink = EventSink::new().with_stderr_text();
    if let Some(path) = &cfg.log_json {
        // Opened with the shared journal discipline (O_APPEND, one
        // write per line): a crash tears at most the final line.
        sink = match crate::journal_writer(std::path::Path::new(path)) {
            Ok(file) => sink.with_jsonl(Box::new(file)),
            Err(e) => {
                eprintln!("open --log-json {path}: {e}");
                std::process::exit(1);
            }
        };
    }
    let span = Span::root(sink);
    let registry = MetricsRegistry::new();
    let mut metrics_line = None;
    if let Some(maddr) = &cfg.metrics_addr {
        match crate::start_metrics_endpoint(maddr, cfg.token, registry.clone(), cfg.speedup) {
            Ok(bound) => metrics_line = Some(format!("metrics {bound}")),
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(1);
            }
        }
    }
    // The machine-readable stdout lines: the advertised endpoints. A
    // failed flush means whoever spawned us cannot learn the bound
    // address — serving anyway would wedge the parent, so exit instead.
    println!("listening {addr}");
    if let Some(line) = metrics_line {
        println!("{line}");
    }
    if let Err(e) = std::io::stdout().flush() {
        eprintln!("flush advertised endpoints to stdout: {e}");
        std::process::exit(1);
    }
    span.emit(&format!("{name}.start"), start_fields);

    let role = role(&registry);
    let shared = Arc::new(Serving {
        cfg,
        role,
        span,
        replay: Mutex::new(ReplayWindow::default()),
        draining: AtomicBool::new(false),
        sessions_done: AtomicU64::new(0),
        resumed: registry.counter(&format!("{name}.sessions_resumed")),
    });
    // The reactor owns the listener from here: `--io-threads` epoll
    // shards accept (EPOLLEXCLUSIVE) and drive every connection as a
    // state machine; this thread only supervises drain and quota.
    let reactor = match Reactor::serve_observed(
        Some(listener),
        ReactorConfig { shards: shared.cfg.io_threads, tick: Duration::from_millis(1) },
        accept_factory(Arc::clone(&shared)),
        Some(ReactorObs {
            registry,
            prefix: format!("{name}.reactor"),
            span: shared.span.clone(),
            stall_budget: Duration::from_millis(20),
        }),
    ) {
        Ok(r) => r,
        Err(e) => {
            shared
                .span
                .emit(&format!("{name}.fatal"), fields![error = format!("start reactor: {e}")]);
            std::process::exit(1);
        }
    };
    loop {
        if crate::drain_requested() {
            shared.span.event(&format!("{name}.drain"));
            break;
        }
        if shared.quota_reached() {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    // Stop serving: running slots finish, handshakes abort, data
    // channels wind down, and every shard joins before exit.
    shared.draining.store(true, Ordering::SeqCst);
    reactor.stop();
    if let Err(e) = reactor.join() {
        shared.span.emit(&format!("{name}.fatal"), fields![error = e]);
    }
    let sessions = shared.sessions_done.load(Ordering::SeqCst);
    shared.span.emit(&format!("{name}.exit"), fields![sessions = sessions]);
}

/// The reactor's accept callback: admission control (drain, session
/// quota), the `conn.accept` event, and a fresh connection in its
/// classify window.
fn accept_factory<R: Role>(shared: Arc<Serving<R>>) -> Arc<AcceptFn> {
    let conn_ids = AtomicU64::new(0);
    Arc::new(move |stream: TcpStream, peer: SocketAddr| {
        if shared.stop_serving() {
            return None;
        }
        let transport = TcpTransport::from_stream(stream).ok()?;
        let conn_id = conn_ids.fetch_add(1, Ordering::SeqCst);
        shared.span.channel(conn_id).emit("conn.accept", fields![peer = format!("{peer}")]);
        let deadline = Instant::now() + shared.cfg.hello_window();
        Some(Box::new(PeerConn {
            shared: Arc::clone(&shared),
            conn_id,
            fd: transport.raw_fd(),
            state: State::Classify { transport, buf: Vec::new(), deadline },
        }) as Box<dyn Driven>)
    })
}

/// One reactor-driven peer connection.
struct PeerConn<R: Role> {
    shared: Arc<Serving<R>>,
    conn_id: u64,
    /// Cached at accept: [`Driven::fd`] must stay stable across state
    /// transitions that move the transport between owners.
    fd: i32,
    state: State<R>,
}

enum State<R: Role> {
    /// Awaiting the first bytes that classify the connection.
    Classify {
        transport: TcpTransport,
        buf: Vec<u8>,
        deadline: Instant,
    },
    Control(Box<ControlConn<R>>),
    Data(Box<R::Data>),
    Gone,
}

/// Whether a state handler settled or wants an immediate follow-up
/// (classification should not wait a tick to start the handshake).
enum Flow {
    Settle(Step),
    Again,
}

impl<R: Role> Driven for PeerConn<R> {
    fn fd(&self) -> i32 {
        self.fd
    }

    fn on_ready(&mut self) -> Step {
        self.drive(Why::Ready)
    }

    fn on_tick(&mut self) -> Step {
        self.drive(Why::Tick)
    }

    fn wants_write(&self) -> bool {
        match &self.state {
            State::Control(c) => c.backlog,
            State::Data(d) => d.wants_write(),
            State::Classify { .. } | State::Gone => false,
        }
    }
}

impl<R: Role> PeerConn<R> {
    fn drive(&mut self, why: Why) -> Step {
        loop {
            let state = std::mem::replace(&mut self.state, State::Gone);
            let (next, flow) = match state {
                State::Classify { transport, buf, deadline } => {
                    self.classify(why, transport, buf, deadline)
                }
                State::Control(mut c) => {
                    let step = c.step();
                    let next = if step == Step::Done { State::Gone } else { State::Control(c) };
                    (next, Flow::Settle(step))
                }
                State::Data(mut d) => {
                    let step = d.step(why);
                    let next = if step == Step::Done { State::Gone } else { State::Data(d) };
                    (next, Flow::Settle(step))
                }
                State::Gone => (State::Gone, Flow::Settle(Step::Done)),
            };
            self.state = next;
            match flow {
                Flow::Again => {}
                Flow::Settle(step) => return step,
            }
        }
    }

    /// Reads until the first bytes arrive; drops silent or dead dials
    /// at the hello window (or on drain).
    fn classify(
        &mut self,
        why: Why,
        mut transport: TcpTransport,
        mut buf: Vec<u8>,
        deadline: Instant,
    ) -> (State<R>, Flow) {
        if why == Why::Ready {
            match transport.recv(SimTime::ZERO) {
                Ok(bytes) => buf.extend_from_slice(&bytes),
                Err(_) => {
                    self.shared.span.channel(self.conn_id).event("conn.silent");
                    return (State::Gone, Flow::Settle(Step::Done));
                }
            }
        }
        if !buf.is_empty() {
            if buf[0] == DATA_HELLO_TAG {
                return match R::open_data(&self.shared, self.conn_id, transport, buf, deadline) {
                    Some(d) => (State::Data(Box::new(d)), Flow::Again),
                    None => (State::Gone, Flow::Settle(Step::Done)),
                };
            }
            let control = ControlConn::new(&self.shared, self.conn_id, transport, buf);
            return (State::Control(Box::new(control)), Flow::Again);
        }
        if Instant::now() >= deadline || self.shared.draining() {
            self.shared.span.channel(self.conn_id).event("conn.silent");
            return (State::Gone, Flow::Settle(Step::Done));
        }
        (State::Classify { transport, buf, deadline }, Flow::Settle(Step::Continue))
    }
}

/// One control connection serving conversations back to back on a
/// leased transport, so a coordinator-side pool reuses warm
/// connections.
struct ControlConn<R: Role> {
    shared: Arc<Serving<R>>,
    conn_id: u64,
    conversation: u64,
    endpoint: Option<Endpoint<R::Session, LeasedTransport<TcpTransport>>>,
    span: Span,
    t0: Instant,
    report_every: Duration,
    slot: Option<u32>,
    started_at: Instant,
    reported: u32,
    claimed_nonce: Option<u64>,
    role: R::Conversation,
    /// Terminal sessions get three flush steps before the conversation
    /// ends.
    terminal_flushes: u8,
    /// Unflushed outbound bytes at the end of the last step; the shard
    /// re-arms the socket for write readiness while this holds.
    backlog: bool,
}

impl<R: Role> ControlConn<R> {
    fn new(
        shared: &Arc<Serving<R>>,
        conn_id: u64,
        transport: TcpTransport,
        preread: Vec<u8>,
    ) -> ControlConn<R> {
        let mut conn = ControlConn {
            shared: Arc::clone(shared),
            conn_id,
            conversation: 0,
            endpoint: None,
            span: shared.span.session(conn_id * 1_000),
            t0: Instant::now(),
            report_every: Duration::from_secs_f64(1.0 / shared.cfg.speedup),
            slot: None,
            started_at: Instant::now(),
            reported: 0,
            claimed_nonce: None,
            role: shared.role.conversation(),
            terminal_flushes: 0,
            backlog: false,
        };
        conn.start_conversation(LeasedTransport::new(transport), Some(preread));
        conn
    }

    /// Begins the next conversation on the (possibly warm) transport.
    fn start_conversation(
        &mut self,
        mut leased: LeasedTransport<TcpTransport>,
        preread: Option<Vec<u8>>,
    ) {
        leased.reset_close();
        let session_id = self.conn_id * 1_000 + self.conversation;
        self.conversation += 1;
        self.span = self.shared.span.session(session_id);
        let window = crate::lock_recover(&self.shared.replay).clone();
        let session = self.shared.role.session(self.shared.cfg.token, session_id, window);
        let mut endpoint = Endpoint::new(session, leased);
        self.t0 = Instant::now();
        if let Some(bytes) = preread {
            endpoint.session_mut().receive(SimTime::ZERO, &bytes);
        }
        self.slot = None;
        self.started_at = Instant::now();
        self.reported = 0;
        self.claimed_nonce = None;
        self.role = self.shared.role.conversation();
        self.terminal_flushes = 0;
        self.endpoint = Some(endpoint);
    }

    /// One conversation step.
    fn step(&mut self) -> Step {
        let role = &self.shared.role;
        let Some(endpoint) = self.endpoint.as_mut() else {
            return Step::Done;
        };
        let elapsed = self.t0.elapsed().as_secs_f64();
        let now = SimTime::from_secs_f64(elapsed);
        // Data-plane clocks run sped up, like the reports: a "second"
        // is 1/speedup wall seconds.
        let snow = SimTime::from_secs_f64(elapsed * self.shared.cfg.speedup);
        endpoint.pump(now);
        endpoint.tick(now);
        // Claim the accepted nonce in the process-wide window the moment
        // the handshake passes: of two concurrent connections replaying
        // the same opener, exactly one witnesses it first and the loser
        // is dropped — a session-local window cannot arbitrate that.
        if self.claimed_nonce.is_none() {
            if let Some(nonce) = endpoint.session().accepted_nonce() {
                self.claimed_nonce = Some(nonce);
                if !crate::lock_recover(&self.shared.replay).witness(nonce) {
                    self.span.event("session.replay_drop");
                    endpoint.session_mut().abort(AbortReason::AuthFailed);
                } else if endpoint.session().resumed() {
                    self.shared.resumed.inc();
                    // A resumed conversation learns its trace id from
                    // the Resume opener itself, before the re-sent
                    // MeasureCmd arrives.
                    if let Some(trace) = endpoint.session().resume_trace_id().filter(|&t| t != 0) {
                        self.span = self.span.trace(trace);
                    }
                    self.span.emit("session.resumed", fields![nonce = nonce]);
                }
            }
        }
        role.on_session(&mut self.role, endpoint.session(), &self.span);
        // Drain: finish a running slot, but abort a conversation still
        // in its handshake — the Abort frame is flushed below.
        if self.shared.draining()
            && matches!(
                endpoint.session().phase(),
                MeasurerPhase::AwaitAuth | MeasurerPhase::AwaitCmd | MeasurerPhase::AwaitGo
            )
        {
            endpoint.session_mut().abort(AbortReason::Shutdown);
        }
        while let Some(action) = endpoint.session_mut().poll_action() {
            match action {
                MeasurerAction::Prepare { spec } => {
                    // Every event from here on carries the coordinator's
                    // trace id for this item-attempt.
                    if spec.trace_id != 0 {
                        self.span = self.span.trace(spec.trace_id);
                    }
                    self.span.emit(
                        "session.prepare",
                        fields![
                            fp = format!("{:02x}{:02x}", spec.relay_fp[0], spec.relay_fp[1]),
                            slot_secs = spec.slot_secs,
                            sockets = spec.sockets,
                        ],
                    );
                }
                MeasurerAction::Start { spec } => {
                    self.slot = Some(spec.slot_secs);
                    self.started_at = Instant::now();
                    role.start(&mut self.role, &spec, snow, &self.span);
                }
                MeasurerAction::Stop => role.stop(&mut self.role, snow, self.reported, &self.span),
            }
        }
        role.pump(&mut self.role, snow, endpoint.is_terminal(), &self.span);
        if let Some(slot_secs) = self.slot {
            // One report per (sped-up) second, paced off the Go instant.
            while self.reported < slot_secs
                && !endpoint.is_terminal()
                && self.started_at.elapsed() >= self.report_every * (self.reported + 1)
            {
                let (bg, measured) = role.report(&mut self.role, self.reported, &self.span);
                endpoint.session_mut().report_second(bg, measured);
                self.reported += 1;
            }
        }
        if endpoint.is_terminal() {
            // Flush the tail (SlotDone / Abort) before the conversation
            // ends.
            endpoint.pump(SimTime::from_secs_f64(self.t0.elapsed().as_secs_f64()));
            self.terminal_flushes += 1;
            if self.terminal_flushes >= 3 {
                return self.finish_conversation();
            }
        }
        let backlog = endpoint.transport_mut().inner_mut().pending_send_bytes() > 0;
        self.backlog = backlog | role.backlog(&mut self.role);
        Step::Continue
    }

    /// Ends the current conversation: release what the role held, count
    /// the session, and either start the next conversation on the warm
    /// transport or finish the connection.
    fn finish_conversation(&mut self) -> Step {
        let Some(endpoint) = self.endpoint.take() else {
            return Step::Done;
        };
        let reusable = endpoint.session().phase() == MeasurerPhase::Done
            && endpoint.transport_error().is_none();
        let authed = self.claimed_nonce.is_some();
        let (_session, leased) = endpoint.into_parts();
        self.shared.role.finish(&mut self.role);
        if authed {
            self.shared.sessions_done.fetch_add(1, Ordering::SeqCst);
        }
        if !reusable || self.shared.stop_serving() {
            return Step::Done;
        }
        self.start_conversation(leased, None);
        self.backlog = false;
        Step::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_settings_apply_and_leave_the_rest_to_the_role() {
        let mut cfg = PeerConfig::default();
        assert_eq!(cfg.apply("speedup", "50"), Ok(true));
        assert_eq!(cfg.apply("sessions", "3"), Ok(true));
        assert_eq!(cfg.apply("token-hex", &"ab".repeat(AUTH_TOKEN_LEN)), Ok(true));
        assert_eq!(cfg.apply("background", "10"), Ok(false), "role setting passed through");
        assert!(cfg.apply("speedup", "0").is_err());
        assert!(cfg.apply("io-threads", "0").is_err());
        assert_eq!((cfg.speedup, cfg.sessions, cfg.token_explicit), (50.0, Some(3), true));
        assert_eq!(cfg.hello_window(), Duration::from_millis(200));
    }
}
