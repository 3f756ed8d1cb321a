//! `flashflow-relay` — a standalone **target relay** process: the third
//! corner of the paper's measurement topology.
//!
//! A FlashFlow measurement aims *k* measurers at one relay, which must
//! **echo** the blast back while still serving its clients; the
//! coordinator's estimate is echoed measurement bytes plus the relay's
//! self-reported background bytes (§4.1). This process plays that role
//! on a real socket: it listens on TCP, classifies each accepted
//! connection by its first byte — **control** (the framed session
//! protocol, served by a `RelaySession`) or **data** (an echo channel
//! opening with a `DataChannelHello`) — and serves both concurrently.
//!
//! Serving is **reactor-driven** on the peer scaffold the measurer
//! shares (`flashflow_procutil::peer`): `--io-threads N` epoll shards
//! share the listening socket via `EPOLLEXCLUSIVE` and drive every
//! accepted connection as a state machine, so thousands of concurrent
//! echo channels multiplex over a fixed thread budget instead of a
//! thread per connection. This binary supplies the relay's role hooks
//! ([`Relay`]) and its echo data connection ([`reactor`]).
//!
//! * Control connections run [`RelaySession`]s (the target role of the
//!   protocol) and keep running them across conversations, so a
//!   coordinator-side connection pool reuses warm connections. Once a
//!   `MeasureCmd` is accepted, the session's
//!   [`EchoBinding`](flashflow_proto::session::EchoBinding) — binding
//!   nonce, frame-tag key, background allowance — is registered with
//!   the data plane *before* `Ready` goes back, so the measurers' echo
//!   dials (which only start at `Go`) always find their measurement.
//! * Data connections must open with a hello carrying a registered
//!   binding nonce; each is served by an
//!   [`Echoer`](flashflow_proto::blast::Echoer) that verifies
//!   every inbound payload byte (pattern keystream + keyed frame tag)
//!   and loops exactly the verified bytes back. Concurrent channels
//!   from multiple measurers aggregate into one measurement's counters.
//! * A [`BackgroundMeter`] simulates the relay's client traffic:
//!   `--background RATE` bytes/second offered, admitted up to the
//!   commanded allowance while a slot runs (the paper's `r`-ratio cap).
//!   Per-second `SecondReport`s carry **both** columns: background
//!   admitted and measurement bytes echoed.
//!
//! Adversarial knobs (for the audit-path tests; a real relay would
//! simply lie): `--claim-bg BYTES` reports a fixed background figure
//! regardless of what the meter admitted (TorMult-style inflation of
//! the self-reported channel), and `--corrupt-echo true` echoes
//! keystream-violating garbage (a forged echo, which measurers count
//! corrupt and refuse to credit).
//!
//! Liveness, replay protection, `--config` files, and SIGTERM draining
//! are the shared scaffold's, so they match the measurer process;
//! stdout carries `listening <addr>` and, with `--metrics-addr`, a
//! second `metrics <addr>` line.
//!
//! **Observability**: all process logging goes through one
//! `flashflow-obs` event sink — human text on stderr, and with
//! `--log-json FILE` the same events as JSONL (line-atomic under
//! concurrency). `--metrics-addr ADDR` serves token-gated
//! [`MetricsRegistry`] snapshots (echo-plane byte counters, background
//! accounting) over TCP. When `--claim-bg` makes the relay lie, each
//! reported second also emits a `bg.divergence` event carrying the
//! claimed and metered figures — the ground truth the audit tests
//! cross-check against the coordinator's ledger flags.
//!
//! ```text
//! flashflow-relay [--config FILE] [--listen ADDR] [--token-hex HEX64]
//!     [--background BYTES] [--claim-bg BYTES] [--corrupt-echo true|false]
//!     [--speedup X] [--sessions N] [--io-threads N] [--log-json FILE]
//!     [--metrics-addr ADDR]
//! ```

mod reactor;

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use flashflow_obs::{fields, Counter, MetricsRegistry, Span};
use flashflow_procutil as procutil;
use flashflow_proto::blast::{BackgroundMeter, BlastCounters};
use flashflow_proto::msg::{MeasureSpec, AUTH_TOKEN_LEN};
use flashflow_proto::session::{RelaySession, ReplayWindow, SessionTimeouts};
use flashflow_proto::tcp::TcpTransport;
use flashflow_simnet::time::SimTime;
use procutil::peer::{PeerConfig, Role, Serving};

/// Parsed configuration (command line and/or `--config` file).
#[derive(Debug, Clone, Default)]
struct Config {
    /// The settings every peer process shares.
    peer: PeerConfig,
    /// Offered client traffic in bytes/second (simulated background).
    background: u64,
    /// Adversarial: report this background figure instead of what the
    /// meter actually admitted.
    claim_bg: Option<u64>,
    /// Adversarial: echo keystream-violating garbage.
    corrupt_echo: bool,
}

const USAGE: &str = "usage: flashflow-relay [--config FILE] [--listen ADDR] \
                     [--token-hex HEX64] [--background BYTES] [--claim-bg BYTES] \
                     [--corrupt-echo true|false] [--speedup X] [--sessions N] \
                     [--io-threads N] [--log-json FILE] [--metrics-addr ADDR]";

/// Applies one `key=value` setting (shared by CLI and config file).
fn apply(cfg: &mut Config, key: &str, value: &str) -> Result<(), String> {
    if cfg.peer.apply(key, value)? {
        return Ok(());
    }
    match key {
        "background" => cfg.background = value.parse().map_err(|e| format!("background: {e}"))?,
        "claim-bg" => cfg.claim_bg = Some(value.parse().map_err(|e| format!("claim-bg: {e}"))?),
        "corrupt-echo" => {
            cfg.corrupt_echo = value.parse().map_err(|e| format!("corrupt-echo: {e}"))?
        }
        other => return Err(format!("unknown setting {other:?}\n{USAGE}")),
    }
    Ok(())
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Config, String> {
    let mut cfg = Config::default();
    procutil::parse_args(args, USAGE, &mut |key, value| apply(&mut cfg, key, value))?;
    Ok(cfg)
}

/// One commanded measurement's aggregated echo accounting, fed by
/// however many concurrent echo channels bound to its nonce.
#[derive(Default)]
struct EchoCounters {
    received: AtomicU64,
    corrupt: AtomicU64,
    forged: AtomicU64,
    echoed: AtomicU64,
    channels: AtomicU64,
}

/// One registered measurement: counters plus the frame-tag key its
/// channels verify under and the commanding item-attempt's trace id.
struct Measurement {
    counters: Arc<EchoCounters>,
    key: u64,
    trace_id: u64,
}

/// The process-wide registry binding **measurement** nonces to their
/// echo plane. Control sessions register at `MeasureCmd` (before their
/// `Ready` releases the coordinator's barrier) and release at the end;
/// an echo dial presenting an unregistered nonce is refused.
#[derive(Default)]
struct EchoPlane {
    measurements: Mutex<HashMap<u64, Arc<Measurement>>>,
}

impl EchoPlane {
    // Registry access recovers from poisoning (`lock_recover`): a
    // serving thread that panicked mid-measurement must degrade to one
    // lost measurement, not take down every other thread that touches
    // the registry next.
    fn register(&self, nonce: u64, key: u64, trace_id: u64) -> Arc<EchoCounters> {
        let m =
            Arc::new(Measurement { counters: Arc::new(EchoCounters::default()), key, trace_id });
        let counters = Arc::clone(&m.counters);
        procutil::lock_recover(&self.measurements).insert(nonce, m);
        counters
    }

    fn lookup(&self, nonce: u64) -> Option<Arc<Measurement>> {
        procutil::lock_recover(&self.measurements).get(&nonce).map(Arc::clone)
    }

    fn release(&self, nonce: u64) {
        procutil::lock_recover(&self.measurements).remove(&nonce);
    }
}

/// The relay role: its settings, the echo plane, and the
/// `--metrics-addr` counters.
struct Relay {
    background: u64,
    claim_bg: Option<u64>,
    corrupt_echo: bool,
    echo: EchoPlane,
    /// Process-global echo-plane byte counters: every echo channel's
    /// verifying parser feeds these.
    blast: BlastCounters,
    echoed_bytes: Counter,
    bg_admitted: Counter,
    bg_reported: Counter,
    seconds_reported: Counter,
}

/// One conversation's relay state: the measurement it registered and
/// the background meter of its slot.
struct RelayConversation {
    registered_binding: Option<u64>,
    counters: Option<Arc<EchoCounters>>,
    meter: BackgroundMeter,
    echoed_through: u64,
    bg_through: u64,
}

impl Role for Relay {
    type Session = RelaySession;
    type Conversation = RelayConversation;
    type Data = reactor::EchoConn;

    fn session(
        &self,
        token: [u8; AUTH_TOKEN_LEN],
        session_id: u64,
        window: ReplayWindow,
    ) -> RelaySession {
        RelaySession::new(token, session_id, SessionTimeouts::default()).with_replay_window(window)
    }

    fn conversation(&self) -> RelayConversation {
        RelayConversation {
            registered_binding: None,
            counters: None,
            meter: BackgroundMeter::new(self.background),
            echoed_through: 0,
            bg_through: 0,
        }
    }

    /// Registers the commanded measurement with the echo plane the
    /// moment the command is accepted — `Ready` goes back on this same
    /// step, so the echo dials that follow `Go` always find it.
    fn on_session(&self, conv: &mut RelayConversation, session: &RelaySession, span: &Span) {
        if conv.registered_binding.is_some() {
            return;
        }
        if let Some(binding) = session.echo_binding() {
            conv.counters = Some(self.echo.register(
                binding.binding_nonce,
                binding.channel_key,
                binding.trace_id,
            ));
            conv.registered_binding = Some(binding.binding_nonce);
            conv.meter.set_cap(binding.background_allowance);
            span.emit(
                "session.registered",
                fields![
                    nonce = binding.binding_nonce,
                    bg_allowance = binding.background_allowance,
                ],
            );
        }
    }

    fn start(&self, conv: &mut RelayConversation, _spec: &MeasureSpec, snow: SimTime, span: &Span) {
        conv.meter.start(snow);
        span.emit("session.go", fields![bg_rate = conv.meter.admitted_rate()]);
    }

    fn stop(&self, conv: &mut RelayConversation, _snow: SimTime, reported: u32, span: &Span) {
        let ch = conv.counters.as_ref().map_or(0, |c| c.channels.load(Ordering::Relaxed));
        span.emit("session.stop", fields![seconds = reported, channels = ch]);
    }

    fn pump(&self, conv: &mut RelayConversation, snow: SimTime, _terminal: bool, _span: &Span) {
        conv.meter.tick(snow);
    }

    fn report(&self, conv: &mut RelayConversation, second: u32, span: &Span) -> (u64, u64) {
        let echoed = conv.counters.as_ref().map_or(0, |c| c.echoed.load(Ordering::Relaxed));
        let echo_delta = echoed - conv.echoed_through;
        conv.echoed_through = echoed;
        let admitted = conv.meter.admitted_total();
        let metered = admitted - conv.bg_through;
        conv.bg_through = admitted;
        let bg = match self.claim_bg {
            // The liar: a fixed per-second claim, regardless of what the
            // meter admitted. The lie leaves a trail: both figures go
            // into the event stream, which is what the audit tests
            // cross-check against the coordinator's ledger flags.
            Some(claim) => {
                span.emit(
                    "bg.divergence",
                    fields![second = second, claimed = claim, metered = metered,],
                );
                claim
            }
            None => metered,
        };
        self.bg_admitted.add(metered);
        self.bg_reported.add(bg);
        self.seconds_reported.inc();
        (bg, echo_delta)
    }

    fn finish(&self, conv: &mut RelayConversation) {
        if let Some(nonce) = conv.registered_binding.take() {
            self.echo.release(nonce);
        }
    }

    fn open_data(
        shared: &Arc<Serving<Relay>>,
        conn_id: u64,
        transport: TcpTransport,
        preread: Vec<u8>,
        deadline: Instant,
    ) -> Option<reactor::EchoConn> {
        Some(reactor::EchoConn::bind(shared, conn_id, transport, preread, deadline))
    }
}

fn main() {
    let cfg = match parse_args(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let start = fields![
        background = cfg.background,
        claim_bg = cfg.claim_bg.unwrap_or(0),
        lying = cfg.claim_bg.is_some(),
        corrupt_echo = cfg.corrupt_echo,
        speedup = cfg.peer.speedup,
    ];
    procutil::peer::run(cfg.peer, "relay", start, |registry: &MetricsRegistry| Relay {
        background: cfg.background,
        claim_bg: cfg.claim_bg,
        corrupt_echo: cfg.corrupt_echo,
        echo: EchoPlane::default(),
        blast: BlastCounters {
            verified: registry.counter("relay.echo.verified_bytes"),
            corrupt: registry.counter("relay.echo.corrupt_bytes"),
            forged: registry.counter("relay.echo.forged_bytes"),
            replayed: registry.counter("relay.echo.replayed_bytes"),
        },
        echoed_bytes: registry.counter("relay.echo.echoed_bytes"),
        bg_admitted: registry.counter("relay.bg.admitted_bytes"),
        bg_reported: registry.counter("relay.bg.reported_bytes"),
        seconds_reported: registry.counter("relay.reported_seconds"),
    });
}
