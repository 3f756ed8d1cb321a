//! Rungs 1–7 of the bench ladder, timed from here through each layer's
//! public API: control-message codec, keystream fill, frame tag,
//! `BlastParser` verify, `Echoer` over an in-memory `Duplex`, one
//! uncapped TCP channel, and a `Reactor::serve` verified-echo round
//! trip with 2 and 32 channels. Every rung checks its own output (a
//! decoded message equals the encoded one, every echoed byte verifies)
//! and is repeated [`REPS`] times; the reported figure is the median.

use std::hint::black_box;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use flashflow_obs::{fields, EventSink, Span};
use flashflow_procutil::reactor::{AcceptFn, Driven, Reactor, ReactorConfig, Step};
use flashflow_proto::blast::{
    binding_nonce, frame_tag, secret_channel_key, BlastEvent, BlastParser, BlastPattern, Echoer,
    TrafficSource, BLAST_CHUNK,
};
use flashflow_proto::frame::{decode_payload, encode, LEN_PREFIX};
use flashflow_proto::msg::{MeasureSpec, Msg, TargetEndpoint};
use flashflow_proto::tcp::TcpTransport;
use flashflow_proto::transport::{Duplex, Transport};
use flashflow_simnet::rng::SimRng;
use flashflow_simnet::time::SimTime;

use crate::spans::Recorder;
use crate::stats::median;

/// Timed repetitions per rung.
const REPS: usize = 5;
/// Pump a channel only while its outbox is below this.
const HIGH_WATER: usize = 1 << 20;
/// Bytes per repetition of the in-memory verify rungs.
const MEM_STREAM: u64 = 32 << 20;
/// Bytes per repetition of the socket rungs.
const NET_STREAM: u64 = 32 << 20;

/// One per-layer figure: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Runs every rung; spans go under `parent`. Errors name the rung whose
/// output failed its check.
pub fn measure(seed: u64, rec: &mut Recorder, parent: usize) -> Result<Vec<Metric>, String> {
    let mut rng = SimRng::seed_from_u64(seed);
    let secret = rng.next_u64();
    let key = secret_channel_key(secret);
    let nonce = binding_nonce(secret);
    let mut out = Vec::new();

    let msgs = codec_inputs(&mut rng);
    let per = reps(rec, parent, "proto.frame.codec", || codec_round(&msgs))?;
    out.push(("proto.frame.codec_ns", median(&per) * 1e9, "ns"));

    let per = reps(rec, parent, "proto.blast.fill", || fill_round(nonce))?;
    out.push(("proto.blast.fill_Bps", 1.0 / median(&per), "B/s"));

    let per = reps(rec, parent, "proto.blast.tag", || tag_round(key, nonce))?;
    out.push(("proto.blast.tag_ns", median(&per) * 1e9, "ns"));

    let stream = capture_stream(key, nonce);
    let per = reps(rec, parent, "proto.blast.parse", || parse_round(&stream, key))?;
    out.push(("proto.blast.parse_Bps", 1.0 / median(&per), "B/s"));

    let per = reps(rec, parent, "proto.blast.echo", || echo_duplex_round(key, nonce))?;
    out.push(("proto.blast.echo_Bps", 1.0 / median(&per), "B/s"));

    let per = reps(rec, parent, "proto.tcp.channel", || tcp_channel_round(key, nonce))?;
    out.push(("proto.tcp.channel_Bps", 1.0 / median(&per), "B/s"));

    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("addr: {e}"))?;
    let reactor = Reactor::serve(
        Some(listener),
        ReactorConfig { shards: 1, tick: Duration::from_millis(1) },
        echo_accept_factory(key),
    )
    .map_err(|e| format!("start reactor: {e}"))?;
    let rtt2 = reps(rec, parent, "procutil.reactor.rtt2", || reactor_round(addr, key, nonce, 2));
    let rtt32 = reps(rec, parent, "procutil.reactor.rtt32", || reactor_round(addr, key, nonce, 32));
    reactor.stop();
    reactor.join()?;
    out.push(("procutil.reactor.rtt2_Bps", 1.0 / median(&rtt2?), "B/s"));
    out.push(("procutil.reactor.rtt32_Bps", 1.0 / median(&rtt32?), "B/s"));

    let per = reps(rec, parent, "obs.emit", emit_round)?;
    out.push(("obs.emit_ns", median(&per) * 1e9, "ns"));
    Ok(out)
}

/// Runs `round` [`REPS`] times inside spans named `name`. Each round
/// returns `(seconds, units of work)`; the result is seconds per unit.
fn reps(
    rec: &mut Recorder,
    parent: usize,
    name: &str,
    mut round: impl FnMut() -> Result<(f64, f64), String>,
) -> Result<Vec<f64>, String> {
    let mut per_unit = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let (secs, units) =
            rec.time(name, Some(parent), &mut round).map_err(|e| format!("{name}: {e}"))?;
        per_unit.push(secs / units);
    }
    Ok(per_unit)
}

fn codec_inputs(rng: &mut SimRng) -> Vec<Msg> {
    (0..64u32)
        .map(|i| {
            if i % 2 == 0 {
                let mut relay_fp = [0u8; 20];
                relay_fp[..8].copy_from_slice(&rng.next_u64().to_be_bytes());
                Msg::MeasureCmd(MeasureSpec {
                    relay_fp,
                    slot_secs: 1 + (rng.next_u64() % 30) as u32,
                    sockets: 1 + (rng.next_u64() % 16) as u32,
                    rate_cap: rng.next_u64() % 1_000_000_000,
                    target: TargetEndpoint::from_addr(SocketAddr::from(([127, 0, 0, 1], 9000)))
                        .unwrap_or(TargetEndpoint::NONE),
                    measurement_secret: rng.next_u64(),
                    trace_id: rng.next_u64(),
                })
            } else {
                Msg::SecondReport {
                    second: i,
                    bg_bytes: rng.next_u64() % 1_000_000,
                    measured_bytes: rng.next_u64() % 1_000_000_000,
                }
            }
        })
        .collect()
}

/// Encode + decode of every input message, 3000 times over.
fn codec_round(msgs: &[Msg]) -> Result<(f64, f64), String> {
    const LOOPS: usize = 3000;
    let t0 = Instant::now();
    for _ in 0..LOOPS {
        for msg in msgs {
            let frame = encode(black_box(msg));
            let back = decode_payload(&frame[LEN_PREFIX..]).map_err(|e| format!("decode: {e}"))?;
            if back != *msg {
                return Err(format!("round trip changed {msg:?}"));
            }
        }
    }
    Ok((t0.elapsed().as_secs_f64(), (LOOPS * msgs.len()) as f64))
}

/// Keystream fill of [`MEM_STREAM`] bytes in blast-chunk buffers.
fn fill_round(nonce: u64) -> Result<(f64, f64), String> {
    let pattern = BlastPattern::new(nonce);
    let mut buf = vec![0u8; BLAST_CHUNK];
    let chunks = MEM_STREAM / BLAST_CHUNK as u64;
    let mut acc = 0u64;
    let t0 = Instant::now();
    for seq in 0..chunks {
        pattern.fill(seq, &mut buf);
        acc = acc.wrapping_add(u64::from(buf[seq as usize % BLAST_CHUNK]));
    }
    let secs = t0.elapsed().as_secs_f64();
    black_box(acc);
    // The keystream is a function of (nonce, seq): refilling reproduces
    // it, and neighbouring sequence numbers differ.
    let mut again = vec![0u8; BLAST_CHUNK];
    pattern.fill(chunks - 1, &mut again);
    pattern.fill(chunks - 2, &mut buf);
    let mut last = vec![0u8; BLAST_CHUNK];
    pattern.fill(chunks - 1, &mut last);
    if again != last || buf == last {
        return Err("keystream is not a function of the sequence number".to_string());
    }
    Ok((secs, (chunks * BLAST_CHUNK as u64) as f64))
}

/// 4M frame tags.
fn tag_round(key: u64, nonce: u64) -> Result<(f64, f64), String> {
    const CALLS: u64 = 4_000_000;
    let mut acc = 0u64;
    let t0 = Instant::now();
    for seq in 0..CALLS {
        acc ^= frame_tag(black_box(key), nonce, seq, BLAST_CHUNK as u32);
    }
    let secs = t0.elapsed().as_secs_f64();
    if black_box(acc) == 0 {
        return Err("frame tags xor to zero".to_string());
    }
    Ok((secs, CALLS as f64))
}

/// A keyed blast stream of [`MEM_STREAM`] bytes, captured off the clock
/// from an uncapped source over a zero-latency duplex.
fn capture_stream(key: u64, nonce: u64) -> Vec<u8> {
    let (a, mut b) = Duplex::loopback().into_endpoints();
    let mut src = TrafficSource::new(a, nonce, 0).with_key(key);
    src.greet(SimTime::ZERO);
    src.start(SimTime::ZERO);
    let mut stream = Vec::with_capacity(MEM_STREAM as usize + (1 << 18));
    while (stream.len() as u64) < MEM_STREAM {
        src.pump(SimTime::ZERO);
        stream.extend(b.recv(SimTime::ZERO).unwrap_or_default());
    }
    stream
}

/// Sums the verified payload bytes among parser events; errs on any
/// corrupt, forged or replayed byte.
fn verified(events: &[BlastEvent]) -> Result<u64, String> {
    let mut bytes = 0;
    for ev in events {
        match ev {
            BlastEvent::Data { bytes: b, corrupt: 0 } => bytes += b,
            BlastEvent::Data { corrupt, .. } => return Err(format!("{corrupt} corrupt bytes")),
            BlastEvent::Hello(_) => {}
            other => return Err(format!("unexpected blast event {other:?}")),
        }
    }
    Ok(bytes)
}

/// `BlastParser::push` over the captured stream in 64 KiB pieces.
fn parse_round(stream: &[u8], key: u64) -> Result<(f64, f64), String> {
    let mut parser = BlastParser::new().with_key(key);
    let mut good = 0;
    let t0 = Instant::now();
    for piece in stream.chunks(64 << 10) {
        let events = parser.push(piece).map_err(|e| format!("parse: {e}"))?;
        good += verified(&events)?;
    }
    let secs = t0.elapsed().as_secs_f64();
    if parser.corrupt_total() != 0 || parser.forged_total() != 0 || good == 0 {
        return Err("captured stream failed to verify".to_string());
    }
    Ok((secs, stream.len() as f64))
}

/// Source → `Echoer` → parser over one in-memory duplex, one thread.
fn echo_duplex_round(key: u64, nonce: u64) -> Result<(f64, f64), String> {
    let (a, b) = Duplex::loopback().into_endpoints();
    let mut src = TrafficSource::new(a, nonce, 0).with_key(key);
    let mut echo = Echoer::new(b).with_key(key);
    let mut back = BlastParser::new().with_key(key);
    let now = SimTime::ZERO;
    src.greet(now);
    src.start(now);
    echo.start(now);
    let mut good = 0u64;
    let t0 = Instant::now();
    while good < MEM_STREAM {
        src.pump(now);
        while echo.pump(now).map_err(|e| format!("echo: {e}"))? {}
        let bytes = src.transport_mut().recv(now).map_err(|e| format!("recv: {e}"))?;
        good += verified(&back.push(&bytes).map_err(|e| format!("echo parse: {e}"))?)?;
    }
    let secs = t0.elapsed().as_secs_f64();
    if echo.corrupt_total() != 0 || echo.forged_total() != 0 || echo.echoed_total() < good {
        return Err("echoer verified less than came back".to_string());
    }
    Ok((secs, good as f64))
}

/// One uncapped source to a verifying parser over loopback TCP; timed
/// until the receiver has verified every byte sent.
fn tcp_channel_round(key: u64, nonce: u64) -> Result<(f64, f64), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("addr: {e}"))?;
    // Dial before the receiver thread exists: a failed dial then leaves
    // no thread blocked in `accept`.
    let t = TcpTransport::connect(addr).map_err(|e| format!("dial: {e}"))?;
    let receiver = thread::spawn(move || -> Result<u64, String> {
        let (stream, _) = listener.accept().map_err(|e| format!("accept: {e}"))?;
        let mut t = TcpTransport::from_stream(stream).map_err(|e| format!("wrap: {e}"))?;
        let mut parser = BlastParser::new().with_key(key);
        let mut buf = Vec::new();
        let mut good = 0u64;
        while good < NET_STREAM {
            match t.recv_into(SimTime::ZERO, &mut buf) {
                Ok(0) => thread::sleep(Duration::from_micros(50)),
                Ok(_) => good += verified(&parser.push(&buf).map_err(|e| format!("parse: {e}"))?)?,
                Err(e) => return Err(format!("receiver: {e} after {good} bytes")),
            }
        }
        Ok(good)
    });
    let mut src = TrafficSource::new(t, nonce, 0).with_key(key);
    let t0 = Instant::now();
    src.greet(SimTime::ZERO);
    src.start(SimTime::ZERO);
    while src.sent_total() < NET_STREAM && src.error().is_none() {
        let now = SimTime::from_secs_f64(t0.elapsed().as_secs_f64());
        if src.transport_mut().pending_send_bytes() < HIGH_WATER {
            src.pump(now);
        } else {
            let _ = src.transport_mut().send(now, &[]);
            thread::sleep(Duration::from_micros(20));
        }
    }
    while src.error().is_none() && src.transport_mut().pending_send_bytes() > 0 {
        let _ = src.transport_mut().send(SimTime::ZERO, &[]);
        thread::sleep(Duration::from_micros(20));
    }
    let failed = src.error();
    // Closing the channel ends a receiver still waiting for bytes.
    drop(src);
    let good = receiver.join().map_err(|_| "receiver panicked".to_string())??;
    if let Some(e) = failed {
        return Err(format!("source: {e}"));
    }
    Ok((t0.elapsed().as_secs_f64(), good as f64))
}

/// One echoing reactor connection: the relay data plane's hot loop
/// without the session machinery.
struct EchoConn {
    fd: i32,
    echoer: Echoer<TcpTransport>,
    t0: Instant,
    backlog: bool,
}

impl EchoConn {
    fn step(&mut self) -> Step {
        let now = SimTime::from_secs_f64(self.t0.elapsed().as_secs_f64());
        for _ in 0..4 {
            match self.echoer.pump(now) {
                Ok(true) => {}
                Ok(false) => break,
                Err(_) => return Step::Done,
            }
        }
        if self.echoer.transport_error().is_some() {
            return Step::Done;
        }
        self.backlog =
            self.echoer.pending_echo() > 0 || self.echoer.transport_mut().pending_send_bytes() > 0;
        Step::Continue
    }
}

impl Driven for EchoConn {
    fn fd(&self) -> i32 {
        self.fd
    }

    fn on_ready(&mut self) -> Step {
        self.step()
    }

    fn on_tick(&mut self) -> Step {
        if self.backlog {
            return self.step();
        }
        Step::Continue
    }

    fn wants_write(&self) -> bool {
        self.backlog
    }
}

fn echo_accept_factory(key: u64) -> Arc<AcceptFn> {
    Arc::new(move |stream: TcpStream, _peer: SocketAddr| {
        let transport = TcpTransport::from_stream(stream).ok()?;
        Some(Box::new(EchoConn {
            fd: transport.raw_fd(),
            echoer: Echoer::new(transport).with_key(key),
            t0: Instant::now(),
            backlog: false,
        }) as Box<dyn Driven>)
    })
}

/// [`NET_STREAM`] bytes split over `channels` sources, echoed by the
/// reactor at `addr`; timed until every byte came back verified.
fn reactor_round(
    addr: SocketAddr,
    key: u64,
    nonce: u64,
    channels: u32,
) -> Result<(f64, f64), String> {
    let share = NET_STREAM / u64::from(channels);
    let mut lanes = Vec::new();
    for chan in 0..channels {
        let t = TcpTransport::connect(addr).map_err(|e| format!("dial: {e}"))?;
        lanes.push((
            TrafficSource::new(t, nonce, chan).with_key(key),
            BlastParser::new().with_key(key),
            0u64,
        ));
    }
    let t0 = Instant::now();
    for (src, ..) in &mut lanes {
        src.greet(SimTime::ZERO);
        src.start(SimTime::ZERO);
    }
    let per_lane_water = (HIGH_WATER / channels as usize).max(64 << 10);
    let deadline = t0 + Duration::from_secs(60);
    let mut buf = Vec::new();
    loop {
        let now = SimTime::from_secs_f64(t0.elapsed().as_secs_f64());
        let mut idle = true;
        let mut done = true;
        for (src, back, good) in &mut lanes {
            if src.sent_total() < share {
                if src.transport_mut().pending_send_bytes() < per_lane_water {
                    src.pump(now);
                    idle = false;
                } else {
                    let _ = src.transport_mut().send(now, &[]);
                }
            } else {
                src.stop(now);
                let _ = src.transport_mut().send(now, &[]);
            }
            match src.transport_mut().recv_into(now, &mut buf) {
                Ok(n) if n > 0 => {
                    idle = false;
                    *good += verified(&back.push(&buf).map_err(|e| format!("echo parse: {e}"))?)?;
                }
                Ok(_) => {}
                Err(e) => return Err(format!("echo channel: {e}")),
            }
            done &= src.sent_total() >= share && *good >= src.sent_total();
        }
        if done {
            break;
        }
        if Instant::now() > deadline {
            return Err("echo never drained".to_string());
        }
        if idle {
            thread::sleep(Duration::from_micros(50));
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    let good: u64 = lanes.iter().map(|(.., g)| *g).sum();
    let sent: u64 = lanes.iter().map(|(s, ..)| s.sent_total()).sum();
    if good != sent {
        return Err(format!("{sent} bytes sent, {good} came back verified"));
    }
    Ok((secs, good as f64))
}

/// 200k JSONL emits through one `EventSink` into a discarding writer.
fn emit_round() -> Result<(f64, f64), String> {
    const EMITS: u64 = 200_000;
    let span = Span::root(EventSink::new().with_jsonl(Box::new(std::io::sink()))).trace(0xF1A5);
    let t0 = Instant::now();
    for i in 0..EMITS {
        span.emit("bench.sample", fields![second = i, bytes = i.wrapping_mul(16384), clean = true]);
    }
    Ok((t0.elapsed().as_secs_f64(), EMITS as f64))
}
