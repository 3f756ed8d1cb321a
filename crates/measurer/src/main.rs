//! `flashflow-measurer` — a standalone measurer process.
//!
//! This is the measurer corner of the paper's deployment topology
//! (§4.1, §7): a long-lived process on a measurement host that listens
//! on TCP for the coordinator's control connections and, when a slot
//! starts, blasts the target relay itself.
//!
//! Serving is **reactor-driven** on the peer scaffold the relay shares
//! (`flashflow_procutil::peer`): every accepted connection becomes a
//! state machine driven by a shard of a shared epoll event loop, so
//! thousands of connections share `--io-threads` threads instead of one
//! thread each. Control connections run `MeasurerSession`s — and keep
//! running them: after a conversation ends cleanly the process waits
//! for the next `Auth` on the *same* connection, which is what lets a
//! coordinator-side connection pool reuse warm connections across
//! measurement items instead of dialing fresh per item. A connection
//! that opens with a `DataChannelHello` is refused and closed at once:
//! data channels run measurer → relay, never into a measurer.
//!
//! **The data plane** (the [`Measurer`] role hooks): each `MeasureCmd`
//! carries the target relay's data endpoint and a per-item measurement
//! secret. At `Go` this measurer dials `sockets` echo channels to the
//! relay, blasts pattern-stamped frames bound to the secret (public
//! binding nonce in the hello, secret-keyed integrity tag on every
//! frame), verifies the relay's echo stream, and reports the **verified
//! echoed bytes** per second. See the `flashflow-relay` crate for the
//! serving side.
//!
//! Liveness at the edges: a connection that says nothing at all is
//! dropped at the classification deadline (pre-`Auth` silence).
//!
//! Operator tooling: `--config FILE` loads `key=value` lines (same keys
//! as the flags, `#` comments); later command-line flags override the
//! file. On **SIGTERM** the process drains gracefully: it stops
//! accepting, lets running slots finish, aborts still-handshaking
//! sessions with `Shutdown` (flushing the `Abort` frames), joins every
//! serving thread, and exits 0.
//!
//! Replay protection across sessions: the process keeps one shared
//! [`ReplayWindow`]. Each session starts from a clone of it, and the
//! moment a session accepts an `Auth` nonce it *claims* it in the
//! shared window under the lock — of two concurrent connections
//! replaying one opener, exactly one wins.
//!
//! **Observability**: process logging goes through one `flashflow-obs`
//! event sink — human text on stderr by default, and with
//! `--log-json FILE` the same structured events as JSONL (line-atomic
//! under concurrent shards). `--metrics-addr ADDR` serves token-gated
//! [`MetricsRegistry`] snapshots (echo byte counters, reactor runtime)
//! over TCP; see `flashflow-top` for the consumer side.
//!
//! ```text
//! flashflow-measurer [--config FILE] [--listen ADDR] [--role measurer]
//!     [--token-hex HEX64] [--speedup X] [--sessions N] [--io-threads N]
//!     [--log-json FILE] [--metrics-addr ADDR]
//! ```
//!
//! Stdout carries `listening <addr>` (and `metrics <addr>` when a
//! metrics endpoint is bound), so a spawning harness (or operator
//! tooling) can read the bound ephemeral ports; everything else goes to
//! stderr. With `--sessions N` the process exits cleanly after
//! completing N control conversations (the multi-process harness uses
//! this); without it, it serves until SIGTERM.

use std::sync::Arc;
use std::time::Instant;

use flashflow_obs::{fields, MetricsRegistry, Span};
use flashflow_procutil as procutil;
use flashflow_proto::blast::{
    binding_nonce, secret_channel_key, BlastCounters, BlastParser, TrafficSource,
};
use flashflow_proto::msg::{MeasureSpec, PeerRole, AUTH_TOKEN_LEN};
use flashflow_proto::session::{MeasurerSession, ReplayWindow, SessionTimeouts};
use flashflow_proto::tcp::TcpTransport;
use flashflow_proto::transport::Transport;
use flashflow_simnet::time::SimTime;
use procutil::peer::{NoData, PeerConfig, Role, Serving};

const USAGE: &str = "usage: flashflow-measurer [--config FILE] [--listen ADDR] \
                     [--role measurer] [--token-hex HEX64] [--speedup X] \
                     [--sessions N] [--io-threads N] [--log-json FILE] \
                     [--metrics-addr ADDR]";

/// Applies one `key=value` setting. Shared by the command line (`--key
/// value`) and the config file (`key=value`), so the two cannot drift.
/// `role` accepts only `measurer`: the relay is its own binary.
fn apply(cfg: &mut PeerConfig, key: &str, value: &str) -> Result<(), String> {
    if cfg.apply(key, value)? {
        return Ok(());
    }
    match (key, value) {
        ("role", "measurer") => Ok(()),
        ("role", other) => Err(format!("role: unknown role {other:?}\n{USAGE}")),
        (other, _) => Err(format!("unknown setting {other:?}\n{USAGE}")),
    }
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<PeerConfig, String> {
    let mut cfg = PeerConfig::default();
    procutil::parse_args(args, USAGE, &mut |key, value| apply(&mut cfg, key, value))?;
    Ok(cfg)
}

/// The measurer role: the counters its echo-verify parsers feed (bytes
/// the target relay echoed back at this measurer).
struct Measurer {
    echo_blast: BlastCounters,
}

/// One echo channel to the target relay: this measurer's blast source
/// and the verifying parser for the relay's echo stream, sharing the
/// dialed connection.
struct EchoChannel {
    source: TrafficSource<TcpTransport>,
    echo: BlastParser,
}

impl EchoChannel {
    /// Verified echoed bytes this channel has received back.
    fn verified(&self) -> u64 {
        self.echo.received_total() - self.echo.corrupt_total()
    }
}

/// One conversation's echo channels (dialed at `Go`, dropped at stop).
#[derive(Default)]
struct MeasurerConversation {
    channels: Vec<EchoChannel>,
    /// Verified echo already reported.
    counted_through: u64,
    /// Reused receive buffer for draining the echo channels' sockets.
    rxbuf: Vec<u8>,
}

impl Measurer {
    /// Dials the slot's echo channels to the target relay and starts
    /// their blasts (clocks run on the sped-up `now`). Channels that fail
    /// to dial are skipped — the slot degrades rather than wedging; the
    /// coordinator sees it in the reported rates. A command without a
    /// target dials nothing, and its seconds report zero.
    fn dial_echo_channels(
        &self,
        spec: &MeasureSpec,
        now: SimTime,
        span: &Span,
    ) -> Vec<EchoChannel> {
        let Some(addr) = spec.target.socket_addr() else { return Vec::new() };
        let nonce = binding_nonce(spec.measurement_secret);
        let key = secret_channel_key(spec.measurement_secret);
        let n = spec.sockets.clamp(1, 16);
        let mut channels = Vec::new();
        for chan in 0..n {
            let transport = match TcpTransport::connect(addr) {
                Ok(t) => t,
                Err(e) => {
                    span.channel(u64::from(chan)).emit(
                        "echo.dial_failed",
                        fields![addr = format!("{addr}"), error = format!("{e}")],
                    );
                    continue;
                }
            };
            let mut source = TrafficSource::new(transport, nonce, chan).with_key(key);
            if spec.rate_cap > 0 {
                // Even split; the first channels absorb the remainder.
                let cap = spec.rate_cap;
                let share = cap / u64::from(n) + u64::from(u64::from(chan) < cap % u64::from(n));
                source.set_rate_cap(share);
            }
            source.greet(now);
            source.start(now);
            channels.push(EchoChannel {
                source,
                echo: BlastParser::new().with_key(key).with_counters(self.echo_blast.clone()),
            });
        }
        span.emit(
            "echo.channels",
            fields![channels = channels.len(), addr = format!("{addr}"), cap = spec.rate_cap],
        );
        channels
    }
}

impl Role for Measurer {
    type Session = MeasurerSession;
    type Conversation = MeasurerConversation;
    type Data = NoData;

    fn session(
        &self,
        token: [u8; AUTH_TOKEN_LEN],
        session_id: u64,
        window: ReplayWindow,
    ) -> MeasurerSession {
        MeasurerSession::new(token, PeerRole::Measurer, session_id, SessionTimeouts::default())
            .with_replay_window(window)
    }

    fn conversation(&self) -> MeasurerConversation {
        MeasurerConversation::default()
    }

    fn start(
        &self,
        conv: &mut MeasurerConversation,
        spec: &MeasureSpec,
        snow: SimTime,
        span: &Span,
    ) {
        conv.channels = self.dial_echo_channels(spec, snow, span);
    }

    fn stop(&self, conv: &mut MeasurerConversation, snow: SimTime, reported: u32, span: &Span) {
        for ch in &mut conv.channels {
            ch.source.stop(snow);
        }
        // Dropping the channels closes the dialed connections; the
        // relay's echo side sees EOF.
        conv.channels.clear();
        span.emit("session.stop", fields![seconds = reported]);
    }

    /// Drives the echo channels: blast the pacing budget out and verify
    /// whatever the relay has echoed back so far.
    fn pump(&self, conv: &mut MeasurerConversation, snow: SimTime, terminal: bool, span: &Span) {
        if conv.channels.is_empty() || terminal {
            return;
        }
        for ch in &mut conv.channels {
            ch.source.pump(snow);
            // A recv error means the relay hung up; verified() keeps
            // its total either way.
            if let Ok(got) = ch.source.transport_mut().recv_into(snow, &mut conv.rxbuf) {
                if got > 0 {
                    if let Err(e) = ch.echo.push(&conv.rxbuf) {
                        span.emit("echo.stream_broke", fields![error = format!("{e}")]);
                    }
                }
            }
        }
    }

    /// The verified bytes the relay echoed back across this session's
    /// channels since the previous report.
    fn report(&self, conv: &mut MeasurerConversation, _second: u32, _span: &Span) -> (u64, u64) {
        let through: u64 = conv.channels.iter().map(EchoChannel::verified).sum();
        let delta = through - conv.counted_through;
        conv.counted_through = through;
        (0, delta)
    }

    fn backlog(&self, conv: &mut MeasurerConversation) -> bool {
        conv.channels.iter_mut().any(|ch| ch.source.transport_mut().backlog() > 0)
    }

    fn finish(&self, conv: &mut MeasurerConversation) {
        conv.channels.clear();
    }

    /// Data channels run measurer → relay; a hello dialed at a measurer
    /// is refused on the spot.
    fn open_data(
        shared: &Arc<Serving<Measurer>>,
        conn_id: u64,
        _transport: TcpTransport,
        _preread: Vec<u8>,
        _deadline: Instant,
    ) -> Option<NoData> {
        shared.span.channel(conn_id).event("channel.refused");
        None
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
    let start = fields![speedup = cfg.speedup];
    procutil::peer::run(cfg, "measurer", start, |registry: &MetricsRegistry| Measurer {
        echo_blast: BlastCounters {
            verified: registry.counter("measurer.echo.verified_bytes"),
            corrupt: registry.counter("measurer.echo.corrupt_bytes"),
            forged: registry.counter("measurer.echo.forged_bytes"),
            replayed: registry.counter("measurer.echo.replayed_bytes"),
        },
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<PeerConfig, String> {
        parse_args(args.iter().map(|a| (*a).to_string()))
    }

    #[test]
    fn removed_modes_are_usage_errors_and_measurer_role_still_parses() {
        for args in [
            &["--role", "target"][..],
            &["--report", "scripted"],
            &["--report", "counters"],
            &["--rate", "1000"],
            &["--bg", "1000"],
        ] {
            let err = parse(args).expect_err("removed option must not parse");
            assert!(err.contains(USAGE), "{args:?} did not surface the usage: {err}");
        }
        let cfg = parse(&["--role", "measurer", "--speedup", "50", "--sessions", "2"])
            .expect("--role measurer still parses");
        assert_eq!((cfg.speedup, cfg.sessions), (50.0, Some(2)));
    }
}
