//! The measurer process harness: a real `flashflow-measurer` spawned
//! over loopback TCP, driven by a coordinator-side engine or by raw
//! dials.
//!
//! Process-level agreement with the in-memory reference and warm-pool
//! reuse are asserted end to end by the relay crate's `three_party`
//! harness (coordinator + measurers + relay); this file covers what is
//! the measurer's own: refusing data dials (data channels run measurer
//! → relay, never into a measurer) and the operator surface — `--config`
//! files and the graceful SIGTERM drain.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use flashflow_core::engine::{EngineEvent, MeasurementEngine};
use flashflow_proto::msg::{MeasureSpec, PeerRole, AUTH_TOKEN_LEN, FINGERPRINT_LEN};
use flashflow_proto::session::{CoordPhase, CoordinatorSession, SessionTimeouts};
use flashflow_proto::tcp::TcpTransport;
use flashflow_simnet::time::{SimDuration, SimTime};

/// Spawns one `flashflow-measurer` with the given extra flags and
/// reads its advertised address.
fn spawn_measurer_with(args: &[String]) -> (Child, SocketAddr) {
    let exe = env!("CARGO_BIN_EXE_flashflow-measurer");
    // FF_MEASURER_DEBUG=1 streams the children's stderr into the test
    // output for debugging.
    let stderr = if std::env::var_os("FF_MEASURER_DEBUG").is_some() {
        Stdio::inherit()
    } else {
        Stdio::null()
    };
    let mut child = Command::new(exe)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(stderr)
        .spawn()
        .expect("spawn flashflow-measurer");
    let stdout = child.stdout.take().expect("child stdout");
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).expect("read advertised address");
    let addr = line
        .trim()
        .strip_prefix("listening ")
        .unwrap_or_else(|| panic!("unexpected stdout line: {line:?}"))
        .parse()
        .expect("parse advertised address");
    (child, addr)
}

/// Waits up to `limit` for `child` to exit.
fn wait_exit(child: &mut Child, limit: Duration) -> Option<std::process::ExitStatus> {
    let deadline = Instant::now() + limit;
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return Some(status);
        }
        if Instant::now() >= deadline {
            return None;
        }
        thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn data_hello_is_refused_within_the_window_and_not_counted_as_a_session() {
    use flashflow_proto::blast::DataChannelHello;
    use flashflow_proto::transport::Transport;

    // --sessions 1: if the refused dial counted, the process would exit
    // before serving the real conversation below.
    let speedup = 50.0;
    let (mut child, addr) = spawn_measurer_with(&[
        "--listen".to_string(),
        "127.0.0.1:0".to_string(),
        "--role".to_string(),
        "measurer".to_string(),
        "--speedup".to_string(),
        format!("{speedup}"),
        "--sessions".to_string(),
        "1".to_string(),
    ]);
    let hello_window = flashflow_procutil::hello_window(speedup);

    let t0 = Instant::now();
    let mut dial = TcpTransport::connect(addr).expect("dial data hello");
    dial.send(SimTime::ZERO, &DataChannelHello { nonce: 0x5EED, channel: 0 }.encode())
        .expect("send hello");
    let closed_after = loop {
        match dial.recv(SimTime::ZERO) {
            Ok(bytes) => assert!(bytes.is_empty(), "measurer answered a data hello: {bytes:?}"),
            Err(_) => break t0.elapsed(),
        }
        assert!(t0.elapsed() < Duration::from_secs(10), "data dial never closed");
        thread::sleep(Duration::from_millis(1));
    };
    assert!(
        closed_after < hello_window,
        "data dial held {closed_after:?}, past the {hello_window:?} hello window"
    );
    thread::sleep(hello_window);
    assert!(child.try_wait().expect("try_wait").is_none(), "refused dial spent the session quota");

    // The one real conversation still runs to completion, and only it
    // spends the quota: the process then exits 0.
    let token = [0x42u8; AUTH_TOKEN_LEN]; // the built-in loopback token
    let timeouts = SessionTimeouts {
        handshake: SimDuration::from_secs(500),
        report: SimDuration::from_secs(300),
    };
    let slot_secs = 3u32;
    let spec = MeasureSpec {
        relay_fp: [7; FINGERPRINT_LEN],
        slot_secs,
        sockets: 1,
        ..MeasureSpec::default()
    };
    let mut builder = MeasurementEngine::builder();
    let session = CoordinatorSession::new(token, PeerRole::Measurer, spec, 0x5E55, timeouts)
        .with_report_ahead_cap(slot_secs + 2);
    let peer = builder.add_peer(0, session, Box::new(TcpTransport::connect(addr).expect("dial")));
    let mut engine = builder.hard_deadline(SimTime::from_secs(600)).build(SimTime::ZERO);
    let t1 = Instant::now();
    let mut samples = 0;
    loop {
        thread::sleep(Duration::from_millis(1));
        let live = engine.step(SimTime::from_secs_f64(t1.elapsed().as_secs_f64() * speedup));
        while let Some(ev) = engine.poll_event() {
            samples += usize::from(matches!(ev, EngineEvent::Sample { .. }));
        }
        if !live {
            break;
        }
        assert!(t1.elapsed() < Duration::from_secs(20), "conversation never finished");
    }
    assert_eq!(engine.phase(peer), CoordPhase::Done);
    assert_eq!(samples, slot_secs as usize);
    let Some(status) = wait_exit(&mut child, Duration::from_secs(15)) else {
        let _ = child.kill();
        panic!("process did not exit after its one session");
    };
    assert!(status.success(), "quota exit must be 0, got {status}");
}

// ---------------------------------------------------------------------
// Operator tooling: --config files and graceful SIGTERM drain.
// ---------------------------------------------------------------------

#[test]
fn sigterm_drains_in_flight_slot_flushes_aborts_and_exits_zero() {
    use flashflow_proto::frame::{encode, FrameDecoder};
    use flashflow_proto::msg::{AbortReason, Msg};
    use flashflow_proto::transport::Transport;

    // Configure via --config (the file), with one CLI override on top.
    let dir = std::env::temp_dir().join(format!("ff-measurer-cfg-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mk temp dir");
    let cfg_path = dir.join("measurer.conf");
    std::fs::write(
        &cfg_path,
        "# flashflow-measurer drain-test config\n\
         listen = 127.0.0.1:0\n\
         role = measurer\n\
         speedup = 2\n",
    )
    .expect("write config");
    let (mut child, addr) = spawn_measurer_with(&[
        "--config".to_string(),
        cfg_path.to_string_lossy().to_string(),
        // CLI overrides the file: reports every 20 ms, not 500 ms.
        "--speedup".to_string(),
        "50".to_string(),
    ]);

    let token = [0x42u8; AUTH_TOKEN_LEN]; // the built-in loopback token
                                          // The coordinator clock runs at 50×; default timeouts would be
                                          // 100–200 ms of wall time — flaky on a loaded box. Widen them so
                                          // only the hard deadline bounds a wedged run.
    let timeouts = SessionTimeouts {
        handshake: SimDuration::from_secs(500),
        report: SimDuration::from_secs(300),
    };
    let slot_secs = 5u32;
    let spec = MeasureSpec {
        relay_fp: [9; FINGERPRINT_LEN],
        slot_secs,
        sockets: 1,
        rate_cap: 1_000_000,
        ..MeasureSpec::default()
    };

    // Conversation A runs a full slot; we SIGTERM mid-slot and it must
    // still complete (drain finishes in-flight sessions).
    let mut builder = MeasurementEngine::builder();
    let session = CoordinatorSession::new(token, PeerRole::Measurer, spec, 0xAB1E, timeouts)
        .with_report_ahead_cap(slot_secs + 2);
    let transport = TcpTransport::connect(addr).expect("connect");
    let peer = builder.add_peer(0, session, Box::new(transport));
    let mut engine = builder.hard_deadline(SimTime::from_secs(600)).build(SimTime::ZERO);

    // Conversation B stops after AuthOk: mid-handshake at drain time,
    // it must receive a flushed Abort(Shutdown).
    let mut pending = TcpTransport::connect(addr).expect("connect pending");
    pending
        .send(SimTime::ZERO, &encode(&Msg::Auth { token, role: PeerRole::Measurer, nonce: 0xF00 }))
        .expect("send Auth");

    let t0 = Instant::now();
    let mut termed = false;
    let mut events = Vec::new();
    loop {
        thread::sleep(Duration::from_millis(1));
        let live = engine.step(SimTime::from_secs_f64(t0.elapsed().as_secs_f64() * 50.0));
        while let Some(ev) = engine.poll_event() {
            events.push(ev);
        }
        // Mid-slot (first sample seen): ask the process to drain.
        if !termed && events.iter().any(|e| matches!(e, EngineEvent::Sample { .. })) {
            termed = true;
            let status = Command::new("kill")
                .args(["-TERM", &child.id().to_string()])
                .status()
                .expect("send SIGTERM");
            assert!(status.success(), "kill -TERM failed");
        }
        if !live {
            break;
        }
        assert!(t0.elapsed() < Duration::from_secs(20), "slot never finished: {events:?}");
    }
    assert!(termed, "never saw a sample before the slot ended");
    assert_eq!(engine.phase(peer), CoordPhase::Done, "in-flight slot finished through the drain");
    let samples = events.iter().filter(|e| matches!(e, EngineEvent::Sample { .. })).count();
    assert_eq!(samples, slot_secs as usize);

    // The mid-handshake conversation got its flushed Abort(Shutdown)
    // (an AuthOk arrived first).
    let mut dec = FrameDecoder::new();
    let mut saw_abort = false;
    let deadline = Instant::now() + Duration::from_secs(10);
    'outer: while Instant::now() < deadline {
        match pending.recv(SimTime::ZERO) {
            Ok(bytes) => dec.push(&bytes),
            Err(_) => break,
        }
        while let Ok(Some(msg)) = dec.next_msg() {
            match msg {
                Msg::AuthOk { .. } => {}
                Msg::Abort { reason } => {
                    assert_eq!(reason, AbortReason::Shutdown, "drain abort reason");
                    saw_abort = true;
                    break 'outer;
                }
                other => panic!("unexpected frame on draining handshake: {other:?}"),
            }
        }
        thread::sleep(Duration::from_millis(2));
    }
    assert!(saw_abort, "mid-handshake session never received the drain Abort");

    // And the process itself exits 0.
    let deadline = Instant::now() + Duration::from_secs(15);
    let status = loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            break status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            panic!("drained process did not exit");
        }
        thread::sleep(Duration::from_millis(10));
    };
    assert!(status.success(), "drain must exit 0, got {status}");
    let _ = std::fs::remove_dir_all(&dir);
}
