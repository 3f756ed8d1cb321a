//! The three workloads and one *session* of each: spawn a relay and a
//! measurer (`--io-threads 1`) on loopback, run one `flashflow-coord
//! --once` period against them, stop everything, and read the period's
//! artifacts back — checking the output invariants as it goes.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use flashflow_coord::daemon::hex;
use flashflow_coord::journal::{self, Record};
use flashflow_coord::roster::{self, RosterSource};
use flashflow_coord::scheduler::{plan_rounds, PlanConfig};
use flashflow_core::echo::item_trace_id;
use flashflow_obs::metrics::HistogramSnapshot;
use flashflow_obs::{Event, Json, RegistrySnapshot};

use crate::procs::Proc;
use crate::spans::Recorder;
use crate::stats::{self, Entry, Interval, ItemTally, RowTally};

/// One workload: the shape of every session it runs. Each session is a
/// closed loop — the coordinator waits for each round before the next.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Team entries handed to the coordinator; every one names the
    /// same measurer process (a session clamps its sockets at 16, so a
    /// second entry is how one measurer carries 32 channels).
    pub team: usize,
    /// Echo sockets per team entry.
    pub sockets: u32,
    /// Commanded rate per team entry, bytes/s (`0` = uncapped).
    pub measurer_rate: u64,
    /// Slot length in (sped-up) seconds.
    pub slot_secs: u32,
    /// Clock multiplier of all three processes.
    pub speedup: f64,
    /// Roster size of each session's period.
    pub relays: usize,
    /// Team blast budget; `None` keeps the coordinator's default (one
    /// item per round).
    pub team_capacity: Option<u64>,
    /// Coordinator shard threads.
    pub shards: usize,
    /// The relay's offered client traffic, bytes/s.
    pub background: u64,
}

/// `echo_bulk`, `echo_fanout`, `period_churn`.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "echo_bulk",
        team: 1,
        sockets: 2,
        measurer_rate: 0,
        slot_secs: 3,
        speedup: 1.0,
        relays: 1,
        team_capacity: None,
        shards: 1,
        background: 0,
    },
    Workload {
        name: "echo_fanout",
        team: 2,
        sockets: 16,
        measurer_rate: 0,
        slot_secs: 3,
        speedup: 1.0,
        relays: 1,
        team_capacity: None,
        shards: 1,
        background: 0,
    },
    Workload {
        name: "period_churn",
        team: 1,
        sockets: 2,
        measurer_rate: 10_000,
        slot_secs: 1,
        speedup: 50.0,
        relays: 128,
        team_capacity: Some(20_000),
        shards: 2,
        background: 2_000,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Wall seconds of one slot.
    pub fn slot_wall(&self) -> f64 {
        f64::from(self.slot_secs) / self.speedup
    }

    /// The load a capped team offers the relay: the commanded team rate
    /// plus the admitted background (the relay is commanded no
    /// background cap). `None` for an uncapped team, whose offered load
    /// is what it actually sent.
    pub fn offered(&self) -> Option<f64> {
        (self.measurer_rate > 0)
            .then(|| (self.measurer_rate * self.team as u64 + self.background) as f64)
    }

    /// True for the data-plane workloads (uncapped echo).
    pub fn is_echo(&self) -> bool {
        self.measurer_rate == 0
    }
}

/// Paths of the program binaries.
#[derive(Debug, Clone)]
pub struct Bins {
    /// `flashflow-relay`.
    pub relay: PathBuf,
    /// `flashflow-measurer`.
    pub measurer: PathBuf,
    /// `flashflow-coord`.
    pub coord: PathBuf,
    /// `flashflow-trace`.
    pub trace: PathBuf,
}

/// What the traced run adds to a session.
#[derive(Debug, Default)]
pub struct Traced {
    /// The relay's `--metrics-addr` snapshot at the end of the period.
    pub relay: RegistrySnapshot,
    /// The measurer's snapshot.
    pub measurer: RegistrySnapshot,
    /// Coordinator-lane phase durations per item, ms.
    pub phases: BTreeMap<&'static str, Vec<f64>>,
    /// Item span self time outside the traced phases, ms.
    pub item_self_ms: Vec<f64>,
    /// Items whose timeline `flashflow-trace` could not complete.
    pub incomplete: u64,
    /// Last `period.done` → `consensus.voted`, ms.
    pub close_ms: f64,
    /// Pool dials and reuses at the end of the period.
    pub pool: (u64, u64),
    /// `journal::append` per record, ms.
    pub append_ms: Vec<f64>,
    /// `journal::recover` of the period's journal, ms.
    pub recover_ms: f64,
    /// `scheduler::plan_rounds` over the roster, ms.
    pub plan_ms: f64,
}

/// Everything one session measured.
#[derive(Debug, Default)]
pub struct Session {
    /// Spawn of the peers → peers listening and coordinator started.
    pub setup_s: f64,
    /// Coordinator spawn → period complete (consensus written).
    pub period_s: f64,
    /// `item.start` → `item.done` per item, ms.
    pub item_ms: Vec<f64>,
    /// Per-item capacity estimates, bytes per (sped-up) second.
    pub estimates: Vec<f64>,
    /// Estimate ÷ offered load, per item.
    pub accuracy: Vec<f64>,
    /// Items attempted/failed.
    pub items: ItemTally,
    /// Target ledger rows and flagged rows.
    pub rows: RowTally,
    /// Bytes the relay echoed after verifying them.
    pub verified: u64,
    /// Relay CPU ticks over the period.
    pub relay_ticks: u64,
    /// Measurer CPU ticks over the period.
    pub measurer_ticks: u64,
    /// Wall seconds the CPU samples span.
    pub wall_s: f64,
    /// Relay `VmHWM`, kB.
    pub relay_hwm_kb: u64,
    /// Output-invariant violations.
    pub errors: Vec<String>,
    /// Traced-run extras.
    pub traced: Option<Traced>,
}

const SESSION_LIMIT: Duration = Duration::from_secs(90);
const GRACE: Duration = Duration::from_secs(10);

/// Runs one session in `dir`. `Err` means the session could not run at
/// all; invariant violations land in [`Session::errors`].
pub fn run_session(
    w: &Workload,
    bins: &Bins,
    dir: &Path,
    seed: u64,
    traced: bool,
    rec: &mut Recorder,
    parent: usize,
) -> Result<Session, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let state = dir.join("state");
    let measurer_token = hex(&[(seed as u8) | 1; 32]);
    let relay_token = hex(&[(seed as u8) | 0x80; 32]);
    let speedup = format!("{}", w.speedup);
    let peer_args = |token: &str, log: &str| {
        let mut a: Vec<String> = ["--listen", "127.0.0.1:0", "--token-hex", token]
            .iter()
            .map(|s| s.to_string())
            .collect();
        a.extend(["--io-threads".into(), "1".into(), "--speedup".into(), speedup.clone()]);
        if traced {
            a.extend(["--log-json".into(), dir.join(log).display().to_string()]);
            a.extend(["--metrics-addr".into(), "127.0.0.1:0".into()]);
        }
        a
    };
    let mut relay_args = peer_args(&relay_token, "relay.jsonl");
    relay_args.extend(["--background".into(), w.background.to_string()]);
    let mut measurer_args = peer_args(&measurer_token, "measurer.jsonl");
    measurer_args.extend(["--role".into(), "measurer".into()]);

    let session_span = rec.open("session", Some(parent));
    let setup_span = rec.open("session.setup", Some(session_span));
    let t0 = Instant::now();
    let deadline = t0 + SESSION_LIMIT;
    let mut relay = Proc::spawn("relay", &bins.relay, &relay_args, &dir.join("relay.err"))?;
    let mut measurer =
        Proc::spawn("measurer", &bins.measurer, &measurer_args, &dir.join("measurer.err"))?;
    let relay_addr = relay.wait_line("listening ", deadline)?.1;
    let measurer_addr = measurer.wait_line("listening ", deadline)?.1;
    let metrics_addrs = if traced {
        Some((
            relay.wait_line("metrics ", deadline)?.1,
            measurer.wait_line("metrics ", deadline)?.1,
        ))
    } else {
        None
    };
    let (r0, m0) = (relay.cpu().unwrap_or_default(), measurer.cpu().unwrap_or_default());
    let w0 = Instant::now();

    let mut coord_args: Vec<String> = vec![
        "--state-dir".into(),
        state.display().to_string(),
        "--roster".into(),
        "synth".into(),
        "--seed".into(),
        seed.to_string(),
        "--secret-seed".into(),
        seed.to_string(),
        "--relays".into(),
        w.relays.to_string(),
    ];
    for _ in 0..w.team {
        coord_args.extend(["--measurer".into(), measurer_addr.clone()]);
    }
    coord_args.extend([
        "--relay".into(),
        relay_addr.clone(),
        "--token-hex".into(),
        measurer_token.clone(),
        "--relay-token-hex".into(),
        relay_token.clone(),
        "--measurer-rate".into(),
        w.measurer_rate.to_string(),
        "--sockets".into(),
        w.sockets.to_string(),
        "--slot-secs".into(),
        w.slot_secs.to_string(),
        "--speedup".into(),
        speedup.clone(),
        "--shards".into(),
        w.shards.to_string(),
        "--once".into(),
        "true".into(),
    ]);
    if let Some(cap) = w.team_capacity {
        coord_args.extend(["--team-capacity".into(), cap.to_string()]);
    }
    if traced {
        coord_args.extend(["--log-json".into(), dir.join("coord.jsonl").display().to_string()]);
    }
    let coord_t0 = Instant::now();
    let mut coord = Proc::spawn("coord", &bins.coord, &coord_args, &dir.join("coord.err"))?;
    let (started, _) = coord.wait_line("coordinating ", deadline)?;
    rec.close(setup_span);
    let mut out = Session { setup_s: (started - t0).as_secs_f64(), ..Session::default() };

    let period_span = rec.open("coord.period", Some(session_span));
    let (complete, _) = coord.wait_line("period ", deadline)?;
    out.period_s = (complete - coord_t0).as_secs_f64();
    let code = coord.wait_exit(deadline);
    rec.close(period_span);
    let (r1, m1) = (relay.cpu().unwrap_or_default(), measurer.cpu().unwrap_or_default());
    out.wall_s = w0.elapsed().as_secs_f64();
    out.relay_ticks = r1.since(r0);
    out.measurer_ticks = m1.since(m0);
    out.relay_hwm_kb = relay.vm_hwm_kb().unwrap_or(0);
    let snapshots = match &metrics_addrs {
        Some((r, m)) => Some((scrape(r, &relay_token)?, scrape(m, &measurer_token)?)),
        None => None,
    };
    let teardown = rec.open("session.teardown", Some(session_span));
    let relay_exit = relay.terminate(GRACE);
    let measurer_exit = measurer.terminate(GRACE);
    rec.close(teardown);
    rec.close(session_span);
    if relay_exit != 0 || measurer_exit != 0 {
        eprintln!("ffbench: peers exited relay={relay_exit} measurer={measurer_exit}");
    }
    match code {
        Some(0) => {}
        other => out.errors.push(format!("coordinator exit {other:?}")),
    }

    let journal = read_journal(&state.join("journal.jsonl"), w.relays, &mut out.errors);
    let entries = read_period(&state.join("period.json"), w.relays, &mut out.errors);
    check_consensus(&state.join("consensus.json"), &mut out.errors);
    let received = read_channels(&dir.join("relay.err"), &mut out);

    out.items = ItemTally::of_period(w.relays, &entries);
    out.rows = RowTally::of_entries(&entries, w.slot_secs);
    for e in &entries {
        out.estimates.push(e.capacity);
        let offered = w.offered().unwrap_or_else(|| {
            let trace = journal.traces.get(&e.ix).copied().unwrap_or(0);
            received.get(&trace).copied().unwrap_or(0) as f64 / w.slot_wall()
        });
        out.accuracy.push(if offered > 0.0 { e.capacity / offered } else { 0.0 });
    }
    out.item_ms = journal.items.values().map(|i| (i.done - i.start) * 1e3).collect();

    if let Some((relay_snap, measurer_snap)) = snapshots {
        let mut t = Traced { relay: relay_snap, measurer: measurer_snap, ..Traced::default() };
        read_traces(bins, dir, &journal, &mut t, rec, session_span, coord_t0)?;
        time_coord_layers(w, seed, &state.join("journal.jsonl"), dir, &mut t)?;
        out.traced = Some(t);
    }
    Ok(out)
}

fn scrape(addr: &str, token_hex: &str) -> Result<RegistrySnapshot, String> {
    let addr = addr.parse().map_err(|e| format!("metrics addr {addr}: {e}"))?;
    let token = flashflow_procutil::parse_token_hex(token_hex)?;
    let body = flashflow_procutil::fetch_metrics(addr, &token, Duration::from_secs(5))
        .map_err(|e| format!("scrape {addr}: {e}"))?;
    RegistrySnapshot::parse(&body)
}

/// One journaled item: wall-clock start and end (UNIX seconds).
#[derive(Debug, Clone, Copy)]
struct JournalItem {
    start: f64,
    done: f64,
}

#[derive(Debug, Default)]
struct JournalView {
    items: BTreeMap<u64, JournalItem>,
    /// Roster index → trace id of its last attempt.
    traces: BTreeMap<u64, u64>,
}

/// Reads the journal back, checking through `journal::recover` that the
/// period completed with every item done exactly once.
fn read_journal(path: &Path, relays: usize, errors: &mut Vec<String>) -> JournalView {
    let mut view = JournalView::default();
    match journal::recover(path) {
        Ok(state) => {
            if !state.period_done || state.done.len() != relays || !state.in_flight.is_empty() {
                errors.push(format!(
                    "journal: period_done={} done={} in_flight={} for {relays} relays",
                    state.period_done,
                    state.done.len(),
                    state.in_flight.len()
                ));
            }
        }
        Err(e) => errors.push(format!("journal recover: {e}")),
    }
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let mut starts = BTreeMap::new();
    let mut done_count: BTreeMap<u64, u32> = BTreeMap::new();
    for record in text.lines().filter_map(Record::parse) {
        match record {
            Record::ItemStart { ix, secret, attempt, ts, .. } => {
                starts.insert(ix, ts);
                view.traces.insert(ix, item_trace_id(secret, attempt as u32));
            }
            Record::ItemDone { ix, ts, .. } => {
                *done_count.entry(ix).or_default() += 1;
                if let Some(&start) = starts.get(&ix) {
                    view.items.insert(ix, JournalItem { start, done: ts });
                }
            }
            _ => {}
        }
    }
    let twice: Vec<u64> =
        (0..relays as u64).filter(|ix| done_count.get(ix).copied().unwrap_or(0) != 1).collect();
    if !twice.is_empty() {
        errors.push(format!("journal: items not done exactly once: {twice:?}"));
    }
    view
}

/// Reads `period.json`, checking it has one entry per roster relay.
fn read_period(path: &Path, relays: usize, errors: &mut Vec<String>) -> Vec<Entry> {
    let doc = match std::fs::read_to_string(path).map(|t| Json::parse(t.trim())) {
        Ok(Ok(doc)) => doc,
        _ => {
            errors.push(format!("{}: missing or unparsable", path.display()));
            return Vec::new();
        }
    };
    let entries: Vec<Entry> = doc
        .get("entries")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|e| {
            Some(Entry {
                ix: e.get("ix")?.as_u64()?,
                capacity: e.get("capacity")?.as_f64()?,
                clean: e.get("clean")?.as_bool()?,
                divergent: e.get("divergent")?.as_u64()?,
            })
        })
        .collect();
    let mut ixs: Vec<u64> = entries.iter().map(|e| e.ix).collect();
    ixs.sort_unstable();
    ixs.dedup();
    if entries.len() != relays || ixs != (0..relays as u64).collect::<Vec<_>>() {
        errors.push(format!("period.json: {} entries for {relays} roster relays", entries.len()));
    }
    entries
}

/// Checks `consensus.json`: finite weights, normalized values summing
/// to 1.
fn check_consensus(path: &Path, errors: &mut Vec<String>) {
    let Ok(Ok(doc)) = std::fs::read_to_string(path).map(|t| Json::parse(t.trim())) else {
        errors.push(format!("{}: missing or unparsable", path.display()));
        return;
    };
    let entries = doc.get("entries").and_then(Json::as_arr).unwrap_or(&[]);
    let mut sum = 0.0;
    for e in entries {
        let weight = e.get("weight").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let norm = e.get("normalized").and_then(Json::as_f64).unwrap_or(f64::NAN);
        if !weight.is_finite() || !norm.is_finite() {
            errors.push(format!("consensus: non-finite entry {e}"));
            return;
        }
        sum += norm;
    }
    if entries.is_empty() || (sum - 1.0).abs() > 1e-6 {
        errors.push(format!("consensus: normalized weights sum to {sum}"));
    }
}

/// Reads the relay's `channel.closed` lines: every channel must show
/// `corrupt=0 forged=0` and `echoed ≤ received`. Adds the echoed bytes
/// to the session and returns bytes received per trace id.
fn read_channels(path: &Path, out: &mut Session) -> BTreeMap<u64, u64> {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let mut received = BTreeMap::new();
    let mut lines = 0;
    for line in text.lines().filter(|l| l.contains("] channel.closed ")) {
        lines += 1;
        let field = |key: &str| -> Option<u64> {
            line.split_whitespace()
                .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))?
                .parse()
                .ok()
        };
        match (field("received"), field("echoed"), field("corrupt"), field("forged")) {
            (Some(rx), Some(echoed), Some(0), Some(0)) if echoed <= rx => {
                out.verified += echoed;
                *received.entry(field("trace").unwrap_or(0)).or_insert(0) += rx;
            }
            _ => out.errors.push(format!("relay channel check failed: {line}")),
        }
    }
    if lines == 0 {
        out.errors.push("relay logged no channel.closed line".to_string());
    }
    received
}

/// Joins the coordinator's JSONL with the `flashflow-trace --json`
/// timelines on the trace id: per item, the coordinator lane's phase
/// boundaries partition the item (handshake ends at the last `Ready`,
/// the Go barrier at `slot.go`, the slot at the first final report,
/// report collection at the last, the ledger at `target.estimate`), and
/// the journal's item span minus those phases is the item's self time.
fn read_traces(
    bins: &Bins,
    dir: &Path,
    journal: &JournalView,
    t: &mut Traced,
    rec: &mut Recorder,
    session_span: usize,
    coord_t0: Instant,
) -> Result<(), String> {
    let coord_text = std::fs::read_to_string(dir.join("coord.jsonl"))
        .map_err(|e| format!("coord.jsonl: {e}"))?;
    let events: Vec<Event> =
        coord_text.lines().filter_map(|l| Event::parse_json_line(l).ok()).collect();
    let mut trace_ts = BTreeMap::new();
    let mut last_done = f64::NAN;
    let mut voted = f64::NAN;
    for ev in &events {
        match ev.kind.as_str() {
            "item.trace" => {
                // A `trace` field parses into the event's scope.
                if let Some(trace) = ev.scope.trace.or_else(|| ev.u64_field("trace")) {
                    trace_ts.insert(trace, ev.ts);
                }
            }
            "period.done" => last_done = ev.ts,
            "consensus.voted" => voted = ev.ts,
            "pool.stats" => {
                t.pool = (ev.u64_field("dials").unwrap_or(0), ev.u64_field("reuses").unwrap_or(0));
            }
            _ => {}
        }
    }
    t.close_ms = (voted - last_done) * 1e3;

    let files: Vec<String> = ["coord.jsonl", "relay.jsonl", "measurer.jsonl"]
        .iter()
        .map(|f| dir.join(f).display().to_string())
        .collect();
    let output = std::process::Command::new(&bins.trace)
        .arg("--json")
        .args(&files)
        .output()
        .map_err(|e| format!("flashflow-trace: {e}"))?;
    if !output.status.success() {
        return Err(format!("flashflow-trace exited {:?}", output.status.code()));
    }
    let doc = Json::parse(String::from_utf8_lossy(&output.stdout).trim())
        .map_err(|e| format!("flashflow-trace json: {e:?}"))?;

    // Journal wall-clock → coordinator clock. Each item is journaled
    // just before its `item.trace` event, so the offset is the largest
    // journal-minus-event gap (the tightest lower bound).
    let by_trace: BTreeMap<u64, u64> = journal.traces.iter().map(|(ix, tr)| (*tr, *ix)).collect();
    let offset = journal
        .items
        .iter()
        .filter_map(|(ix, item)| Some(item.start - trace_ts.get(journal.traces.get(ix)?)?))
        .fold(f64::NEG_INFINITY, f64::max);
    let coord_origin = rec.at(coord_t0);
    for item in doc.get("items").and_then(Json::as_arr).unwrap_or(&[]) {
        let Some(trace) =
            item.get("trace").and_then(Json::as_str).and_then(|h| u64::from_str_radix(h, 16).ok())
        else {
            continue;
        };
        let phase = |name: &str, end: &str| {
            item.get("lanes")?.get("coord")?.get("phases")?.get(name)?.get(end)?.as_f64()
        };
        let bounds = (
            trace_ts.get(&trace).copied(),
            phase("handshake", "last"),
            phase("go", "first"),
            phase("report", "first"),
            phase("report", "last"),
            phase("ledger", "last"),
        );
        let (Some(b0), Some(b1), Some(b2), Some(b3), Some(b4), Some(b5)) = bounds else {
            t.incomplete += 1;
            continue;
        };
        let marks = [b0, b1, b2, b3, b4, b5];
        let names = ["handshake", "go", "slots", "report", "ledger"];
        let Some(j) = by_trace.get(&trace).and_then(|ix| journal.items.get(ix)) else {
            t.incomplete += 1;
            continue;
        };
        let span = Interval { start: j.start - offset, end: j.done - offset };
        let item_id = rec.add(
            "item",
            Some(session_span),
            coord_origin + span.start,
            coord_origin + span.end,
            trace,
        );
        let mut children = Vec::new();
        for (i, name) in names.iter().enumerate() {
            let iv = Interval { start: marks[i], end: marks[i + 1].max(marks[i]) };
            t.phases.entry(name).or_default().push((iv.end - iv.start) * 1e3);
            rec.add(
                &format!("item.{name}"),
                Some(item_id),
                coord_origin + iv.start,
                coord_origin + iv.end,
                trace,
            );
            children.push(iv);
        }
        t.item_self_ms.push(stats::self_time(span, &children) * 1e3);
    }
    Ok(())
}

/// Times the coordinator library calls the daemon makes per period:
/// `journal::append` (replaying this period's records into a scratch
/// journal, fsync each), `journal::recover` over the period's journal,
/// and `scheduler::plan_rounds` over the roster.
fn time_coord_layers(
    w: &Workload,
    seed: u64,
    journal_path: &Path,
    dir: &Path,
    t: &mut Traced,
) -> Result<(), String> {
    let text = std::fs::read_to_string(journal_path).map_err(|e| format!("journal: {e}"))?;
    let scratch = dir.join("append.jsonl");
    for record in text.lines().filter_map(Record::parse).take(64) {
        let t0 = Instant::now();
        journal::append(&scratch, &record).map_err(|e| format!("journal append: {e}"))?;
        t.append_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let mut recover = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        let state = journal::recover(journal_path).map_err(|e| format!("journal recover: {e}"))?;
        recover.push(t0.elapsed().as_secs_f64() * 1e3);
        if state.done.len() != w.relays {
            return Err(format!("recover saw {} of {} items", state.done.len(), w.relays));
        }
    }
    t.recover_ms = stats::median(&recover);

    let roster = roster::build(RosterSource::Synth, seed, Some(w.relays));
    let per_item_blast = ((w.measurer_rate * w.team as u64) as f64).max(1.0);
    let plan = PlanConfig {
        team_capacity: w.team_capacity.map_or(per_item_blast, |c| c as f64),
        per_item_blast,
        round_max: 0,
    };
    const PLANS: u32 = 200;
    let t0 = Instant::now();
    let mut rounds = 0;
    for _ in 0..PLANS {
        rounds += std::hint::black_box(plan_rounds(&roster.entries, &plan)).len();
    }
    t.plan_ms = t0.elapsed().as_secs_f64() * 1e3 / f64::from(PLANS);
    let per_round = plan.items_per_round();
    if rounds != PLANS as usize * w.relays.div_ceil(per_round) {
        return Err(format!("plan_rounds packed {rounds} rounds over {PLANS} plans"));
    }
    Ok(())
}

/// Merges the histograms named `<prefix>.shard*.<suffix>` across
/// snapshots.
pub fn merged_histogram(
    snaps: &[&RegistrySnapshot],
    prefix: &str,
    suffix: &str,
) -> Option<HistogramSnapshot> {
    let mut out: Option<HistogramSnapshot> = None;
    for snap in snaps {
        for (name, h) in &snap.histograms {
            if !(name.starts_with(&format!("{prefix}.shard"))
                && name.ends_with(&format!(".{suffix}")))
            {
                continue;
            }
            match &mut out {
                Some(acc) if acc.bounds == h.bounds => {
                    for (a, b) in acc.counts.iter_mut().zip(&h.counts) {
                        *a += b;
                    }
                    acc.count += h.count;
                    acc.sum += h.sum;
                }
                Some(_) => {}
                None => out = Some(h.clone()),
            }
        }
    }
    out
}

/// A counter's value in a snapshot (0 when absent).
pub fn counter(snap: &RegistrySnapshot, name: &str) -> u64 {
    snap.counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
}
