//! `ffbench` — the end-to-end FlashFlow benchmark.
//!
//! ```text
//! cargo run --release --manifest-path ffbench/Cargo.toml -- \
//!     --workload echo_bulk|echo_fanout|period_churn --seed N --seconds S --trace 0|1
//! ```
//!
//! It builds the real `flashflow-relay`, `flashflow-measurer`,
//! `flashflow-coord` and `flashflow-trace` binaries from the checkout,
//! then runs *sessions* for `--seconds`: each spawns one relay and one
//! measurer (`--io-threads 1`) on the loopback interface, runs one
//! `flashflow-coord --once` period against them (roster `--seed` and
//! `--secret-seed` derived from `--seed`), stops both peers, and checks
//! the period's artifacts (see `workload.rs`). With `--trace 0` it
//! prints the end-to-end metrics; with `--trace 1` it times ladder
//! rungs 1–7 through the layers' public APIs, runs half its sessions
//! untraced and half with `--log-json`/`--metrics-addr` joined by
//! `flashflow-trace`, and prints the per-layer metrics. The last stdout
//! line is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! A human-readable report goes to stderr. `README.md` beside this crate
//! maps each per-layer metric to the end-to-end metric it should move.

mod layers;
mod procs;
mod spans;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use flashflow_obs::Json;

use crate::spans::Recorder;
use crate::stats::{cpu_ns_per_byte, median, quantile, tail, ItemTally, RowTally, TailSide};
use crate::workload::{counter, merged_histogram, run_session, Bins, Session, Workload};

const USAGE: &str = "usage: ffbench --workload echo_bulk|echo_fanout|period_churn \
                     --seed N --seconds S --trace 0|1";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::by_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or(USAGE)?,
        seed: seed.ok_or(USAGE)?,
        seconds: seconds.ok_or(USAGE)?,
        trace: trace.ok_or(USAGE)?,
    })
}

/// The checkout root: the working directory when it holds the
/// workspace, else the directory above this crate.
fn repo_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_default();
    if cwd.join("crates").is_dir() && cwd.join("ffbench").is_dir() {
        return cwd;
    }
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().map(Path::to_path_buf).unwrap_or(cwd)
}

/// Builds the program binaries into this executable's target directory
/// (so both builds share `CARGO_TARGET_DIR` when it is set).
fn build(root: &Path) -> Result<Bins, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bin_dir = exe.parent().ok_or("executable has no directory")?.to_path_buf();
    let target = bin_dir.parent().ok_or("executable is not in a target directory")?;
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(cargo)
        .current_dir(root)
        .args(["build", "--offline", "--release", "--quiet", "--bins", "--target-dir"])
        .arg(target)
        .args(["-p", "flashflow-relay", "-p", "flashflow-measurer"])
        .args(["-p", "flashflow-coord", "-p", "flashflow-top"])
        .stdout(std::io::stderr())
        .status()
        .map_err(|e| format!("cargo build: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build failed: {status}"));
    }
    Ok(Bins {
        relay: bin_dir.join("flashflow-relay"),
        measurer: bin_dir.join("flashflow-measurer"),
        coord: bin_dir.join("flashflow-coord"),
        trace: bin_dir.join("flashflow-trace"),
    })
}

/// A run's sessions plus what failed outright.
#[derive(Default)]
struct Runs {
    sessions: Vec<Session>,
    errors: Vec<String>,
}

impl Runs {
    fn items(&self) -> ItemTally {
        let mut t = ItemTally::default();
        for s in &self.sessions {
            t.add(s.items);
        }
        t
    }

    fn rows(&self) -> RowTally {
        let mut t = RowTally::default();
        for s in &self.sessions {
            t.add(s.rows);
        }
        t
    }

    fn all(&self, f: impl Fn(&Session) -> &[f64]) -> Vec<f64> {
        self.sessions.iter().flat_map(|s| f(s).iter().copied()).collect()
    }

    fn each(&self, f: impl Fn(&Session) -> f64) -> Vec<f64> {
        self.sessions.iter().map(f).collect()
    }

    fn verified(&self) -> u64 {
        self.sessions.iter().map(|s| s.verified).sum()
    }
}

/// Runs sessions until `budget` seconds are used: a session starts only
/// if the slowest one so far would still end inside the budget, and at
/// least `min` run. `count` fixes the number instead.
#[allow(clippy::too_many_arguments)]
fn run_sessions(
    args: &Args,
    bins: &Bins,
    run_dir: &Path,
    traced: bool,
    budget: f64,
    min: usize,
    count: Option<usize>,
    rec: &mut Recorder,
    first: u64,
) -> Runs {
    let mut runs = Runs::default();
    let t0 = Instant::now();
    let mut slowest: f64 = 0.0;
    for k in 0.. {
        let enough = match count {
            Some(n) => k >= n,
            None => k >= min && t0.elapsed().as_secs_f64() + slowest > budget,
        };
        if enough {
            break;
        }
        let s0 = Instant::now();
        let dir = run_dir.join(format!("s{}", first + k as u64));
        let seed = args.seed.wrapping_mul(1000).wrapping_add(first + k as u64);
        let root = rec.open(if traced { "run.traced" } else { "run.untraced" }, None);
        let result = run_session(&args.workload, bins, &dir, seed, traced, rec, root);
        rec.close(root);
        let _ = std::fs::remove_dir_all(&dir);
        match result {
            Ok(s) => {
                eprintln!(
                    "  session {k}: {:.2}s wall · setup {:.4}s · period {:.3}s · estimates {:.4e} · \
                     relay {} kB · cpu ticks {}+{}",
                    s0.elapsed().as_secs_f64(),
                    s.setup_s,
                    s.period_s,
                    median(&s.estimates),
                    s.relay_hwm_kb,
                    s.relay_ticks,
                    s.measurer_ticks,
                );
                runs.sessions.push(s);
            }
            Err(e) => {
                runs.errors.push(format!("session {k}: {e}"));
                break;
            }
        }
        slowest = slowest.max(s0.elapsed().as_secs_f64());
    }
    runs
}

/// Metrics in output order: name, value, unit.
type Metrics = Vec<(String, f64, &'static str)>;

fn end_to_end(w: &Workload, runs: &Runs, ticks_per_sec: u64) -> Metrics {
    let item_ms = runs.all(|s| &s.item_ms);
    let accuracy = runs.all(|s| &s.accuracy);
    let cpu_ticks: u64 = runs.sessions.iter().map(|s| s.relay_ticks + s.measurer_ticks).sum();
    let out = vec![
        ("setup_s".to_string(), median(&runs.each(|s| s.setup_s)), "s"),
        ("echo_Bps_p50".to_string(), median(&runs.all(|s| &s.estimates)), "B/s"),
        (
            "cpu_ns_per_B".to_string(),
            cpu_ns_per_byte(cpu_ticks, ticks_per_sec, runs.verified()),
            "ns/B",
        ),
        (
            "relay_rss_MiB".to_string(),
            median(&runs.each(|s| s.relay_hwm_kb as f64)) / 1024.0,
            "MiB",
        ),
        ("period_s".to_string(), median(&runs.each(|s| s.period_s)), "s"),
        ("item_ms_p50".to_string(), quantile(&item_ms, 0.5), "ms"),
        ("item_ms_p90".to_string(), quantile(&item_ms, 0.9), "ms"),
        ("accuracy_p50".to_string(), quantile(&accuracy, 0.5), "ratio"),
        ("accuracy_p10".to_string(), quantile(&accuracy, 0.1), "ratio"),
    ];
    let hi = tail(&item_ms, TailSide::High);
    let lo = tail(&accuracy, TailSide::Low);
    eprintln!(
        "ffbench {}: {} session(s); item_ms p{} = {:.3} and accuracy p{} = {:.4} over {} item(s) \
         (highest percentiles with ten samples beyond them); {} clean item(s) estimated zero",
        w.name,
        runs.sessions.len(),
        hi.pct,
        hi.value,
        lo.pct,
        lo.value,
        hi.samples,
        runs.items().zero,
    );
    out
}

/// The workload's headline figure and whether larger is better, for the
/// tracing-overhead comparison.
fn headline(w: &Workload, runs: &Runs) -> (f64, bool) {
    if w.is_echo() {
        (median(&runs.all(|s| &s.estimates)), true)
    } else {
        (median(&runs.each(|s| s.period_s)), false)
    }
}

fn per_layer(
    w: &Workload,
    untraced: &Runs,
    traced: &Runs,
    layers: Vec<layers::Metric>,
    ticks_per_sec: u64,
) -> Metrics {
    let mut out: Metrics = layers.into_iter().map(|(n, v, u)| (n.to_string(), v, u)).collect();
    let tr: Vec<&workload::Traced> =
        traced.sessions.iter().filter_map(|s| s.traced.as_ref()).collect();
    let verified = traced.verified();
    let wall: f64 = traced.sessions.iter().map(|s| s.wall_s).sum();
    let relay_ticks: u64 = traced.sessions.iter().map(|s| s.relay_ticks).sum();
    let measurer_ticks: u64 = traced.sessions.iter().map(|s| s.measurer_ticks).sum();
    let busy = |ticks: u64| ticks as f64 / ticks_per_sec as f64 / wall;
    out.push((
        "relay.cpu_ns_per_B".into(),
        cpu_ns_per_byte(relay_ticks, ticks_per_sec, verified),
        "ns/B",
    ));
    out.push((
        "measurer.cpu_ns_per_B".into(),
        cpu_ns_per_byte(measurer_ticks, ticks_per_sec, verified),
        "ns/B",
    ));
    out.push(("relay.echoed_wall_Bps".into(), verified as f64 / wall, "B/s"));
    out.push(("relay.busy_share".into(), busy(relay_ticks), "ratio"));
    out.push(("measurer.busy_share".into(), busy(measurer_ticks), "ratio"));

    let relays: Vec<_> = tr.iter().map(|t| &t.relay).collect();
    let measurers: Vec<_> = tr.iter().map(|t| &t.measurer).collect();
    let hq = |snaps: &[&flashflow_obs::RegistrySnapshot], prefix: &str, suffix: &str, q: f64| {
        merged_histogram(snaps, prefix, suffix)
            .map_or(f64::NAN, |h| stats::histogram_quantile(&h.bounds, &h.counts, q))
    };
    out.push((
        "relay.reactor.dispatch_us_p50".into(),
        hq(&relays, "relay.reactor", "dispatch_us", 0.5),
        "us",
    ));
    out.push((
        "relay.reactor.dispatch_us_p99".into(),
        hq(&relays, "relay.reactor", "dispatch_us", 0.99),
        "us",
    ));
    out.push((
        "relay.reactor.epoll_dwell_us_p50".into(),
        hq(&relays, "relay.reactor", "epoll_dwell_us", 0.5),
        "us",
    ));
    out.push((
        "measurer.reactor.dispatch_us_p99".into(),
        hq(&measurers, "measurer.reactor", "dispatch_us", 0.99),
        "us",
    ));
    let stalls: u64 = tr
        .iter()
        .map(|t| {
            counter(&t.relay, "relay.reactor.stalls")
                + counter(&t.measurer, "measurer.reactor.stalls")
        })
        .sum();
    out.push(("reactor.stalls".into(), stalls as f64, "count"));

    for phase in ["handshake", "go", "slots", "report", "ledger"] {
        let v: Vec<f64> =
            tr.iter().flat_map(|t| t.phases.get(phase).cloned().unwrap_or_default()).collect();
        out.push((format!("core.trace.{phase}_ms"), median(&v), "ms"));
    }
    let item_ms = traced.all(|s| &s.item_ms);
    out.push(("core.item_overhead_ms".into(), median(&item_ms) - w.slot_wall() * 1e3, "ms"));
    let self_ms: Vec<f64> = tr.iter().flat_map(|t| t.item_self_ms.iter().copied()).collect();
    out.push(("core.item_self_ms".into(), median(&self_ms), "ms"));
    let (dials, reuses) = tr.iter().fold((0, 0), |(d, r), t| (d + t.pool.0, r + t.pool.1));
    out.push((
        "core.pool.reuse_ratio".into(),
        reuses as f64 / (dials + reuses).max(1) as f64,
        "ratio",
    ));
    out.push((
        "coord.journal.append_ms".into(),
        median(&tr.iter().flat_map(|t| t.append_ms.iter().copied()).collect::<Vec<_>>()),
        "ms",
    ));
    out.push((
        "coord.journal.recover_ms".into(),
        median(&tr.iter().map(|t| t.recover_ms).collect::<Vec<_>>()),
        "ms",
    ));
    out.push((
        "coord.plan_ms".into(),
        median(&tr.iter().map(|t| t.plan_ms).collect::<Vec<_>>()),
        "ms",
    ));
    out.push((
        "coord.close_ms".into(),
        median(&tr.iter().map(|t| t.close_ms).collect::<Vec<_>>()),
        "ms",
    ));

    let mut rows = untraced.rows();
    rows.add(traced.rows());
    out.push(("flagged_row_share".into(), rows.flagged_share(), "ratio"));
    let mut items = untraced.items();
    items.add(traced.items());
    out.push(("zero_estimates".into(), items.zero as f64, "count"));
    out.push((
        "item_samples".into(),
        (untraced.all(|s| &s.item_ms).len() + item_ms.len()) as f64,
        "count",
    ));
    let (base, higher_better) = headline(w, untraced);
    let (with, _) = headline(w, traced);
    let overhead = if higher_better { base / with - 1.0 } else { with / base - 1.0 };
    out.push(("trace_overhead_pct".into(), overhead * 100.0, "%"));
    let incomplete: u64 = tr.iter().map(|t| t.incomplete).sum();
    eprintln!(
        "ffbench {}: traced {} session(s), {} item timeline(s) incomplete; {} of {} target rows flagged",
        w.name,
        traced.sessions.len(),
        incomplete,
        rows.flagged,
        rows.rows
    );
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let root = repo_root();
    let bins = match build(&root) {
        Ok(b) => b,
        Err(msg) => {
            eprintln!("ffbench: {msg}");
            std::process::exit(1);
        }
    };
    let run_dir = bins.coord.parent().unwrap_or(Path::new(".")).join("ffbench-runs").join(format!(
        "{}-{}-{}",
        args.workload.name,
        args.seed,
        std::process::id()
    ));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "ffbench {}: seed {} · {}s · trace {} · nproc {nproc} · traffic over loopback",
        args.workload.name, args.seed, args.seconds, args.trace as u8
    );
    let w = args.workload;
    let ticks = procs::clock_ticks_per_sec();
    let mut rec = Recorder::new();
    let mut errors = Vec::new();

    let (metrics, items) = if args.trace {
        let layer_span = rec.open("layers", None);
        let layer_metrics = layers::measure(args.seed, &mut rec, layer_span);
        rec.close(layer_span);
        let layer_metrics = layer_metrics.unwrap_or_else(|e| {
            errors.push(format!("layer rung: {e}"));
            Vec::new()
        });
        let half = args.seconds / 2.0;
        let untraced = run_sessions(&args, &bins, &run_dir, false, half, 1, None, &mut rec, 0);
        let n = untraced.sessions.len().max(1);
        let traced =
            run_sessions(&args, &bins, &run_dir, true, half, 1, Some(n), &mut rec, n as u64);
        let mut items = untraced.items();
        items.add(traced.items());
        for runs in [&untraced, &traced] {
            errors.extend(runs.errors.iter().cloned());
            errors.extend(runs.sessions.iter().flat_map(|s| s.errors.iter().cloned()));
        }
        let spans_path = run_dir.with_file_name(format!("{}-{}.spans.jsonl", w.name, args.seed));
        if let Err(e) = std::fs::write(&spans_path, rec.to_jsonl()) {
            eprintln!("ffbench: {}: {e}", spans_path.display());
        } else {
            eprintln!("ffbench: {} spans written to {}", rec.spans().len(), spans_path.display());
        }
        (per_layer(&w, &untraced, &traced, layer_metrics, ticks), items)
    } else {
        let runs = run_sessions(&args, &bins, &run_dir, false, args.seconds, 2, None, &mut rec, 0);
        errors.extend(runs.errors.iter().cloned());
        errors.extend(runs.sessions.iter().flat_map(|s| s.errors.iter().cloned()));
        (end_to_end(&w, &runs, ticks), runs.items())
    };
    let _ = std::fs::remove_dir_all(&run_dir);

    let mut fields = Vec::new();
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<36} {value:>16.6} {unit}");
        if !value.is_finite() {
            errors.push(format!("{name} could not be read"));
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        fields.push((
            name.clone(),
            Json::Obj(vec![
                ("value".into(), Json::Num(value)),
                ("unit".into(), Json::Str((*unit).into())),
            ]),
        ));
    }
    for e in &errors {
        eprintln!("ffbench: CHECK FAILED: {e}");
    }
    let doc = Json::Obj(vec![
        ("correct".into(), Json::Bool(errors.is_empty())),
        ("attempted".into(), Json::Int(i128::from(items.attempted.max(1)))),
        ("failed".into(), Json::Int(i128::from(items.failed))),
        ("metrics".into(), Json::Obj(fields)),
    ]);
    println!("{doc}");
}
