//! The benchmark's own arithmetic: order statistics, the tail
//! percentile rule, failure and flagged-row tallies, span self time,
//! CPU cost from `/proc` samples, and histogram quantiles. Everything
//! here is pure so the unit tests below pin it down.

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values` (any order).
/// `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Which end of a distribution is the bad one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailSide {
    /// Large values are bad (latencies): p90, p99, p99.9.
    High,
    /// Small values are bad (accuracy): p10, p1, p0.1.
    Low,
}

/// A tail percentile chosen by [`tail`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (50 when no tail percentile qualifies).
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// How many samples it was computed from.
    pub samples: usize,
}

/// Samples a reported percentile needs beyond it.
pub const TAIL_MIN_BEYOND: f64 = 10.0;

/// The most extreme percentile of the ladder 90/99/99.9 (or 10/1/0.1
/// for [`TailSide::Low`]) that still has at least [`TAIL_MIN_BEYOND`]
/// samples beyond it, with the sample count. Falls back to the median
/// when even p90 would rest on fewer than ten samples.
pub fn tail(values: &[f64], side: TailSide) -> Tail {
    let n = values.len();
    let mut pct = 50.0;
    for beyond in [10.0, 1.0, 0.1] {
        if n as f64 * beyond / 100.0 >= TAIL_MIN_BEYOND {
            pct = match side {
                TailSide::High => 100.0 - beyond,
                TailSide::Low => beyond,
            };
        }
    }
    Tail { pct, value: quantile(values, pct / 100.0), samples: n }
}

/// One period's bandwidth-file entry as the checks need it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Entry {
    /// Roster index.
    pub ix: u64,
    /// Capacity estimate, bytes per (sped-up) second.
    pub capacity: f64,
    /// Every session of the item ended cleanly.
    pub clean: bool,
    /// Target ledger rows flagged divergent.
    pub divergent: u64,
}

/// Items attempted and failed over one or more periods.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ItemTally {
    /// Roster items commanded.
    pub attempted: u64,
    /// Items missing from the bandwidth file, unclean (a session
    /// aborted), or with a non-finite estimate.
    pub failed: u64,
    /// Clean items whose estimate is zero: not failed, but a
    /// measurement that credited nothing (they also show as accuracy 0).
    pub zero: u64,
}

impl ItemTally {
    /// Tallies one period of `roster` items against its `entries`.
    pub fn of_period(roster: usize, entries: &[Entry]) -> ItemTally {
        let mut t = ItemTally { attempted: roster as u64, ..ItemTally::default() };
        for ix in 0..roster as u64 {
            match entries.iter().find(|e| e.ix == ix) {
                Some(e) if e.clean && e.capacity.is_finite() => {
                    t.zero += u64::from(e.capacity <= 0.0);
                }
                _ => t.failed += 1,
            }
        }
        t
    }

    /// Adds another tally.
    pub fn add(&mut self, other: ItemTally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.zero += other.zero;
    }
}

/// Target ledger rows (one per slot second per item) and how many the
/// ledger flagged on the honest relay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RowTally {
    /// All target rows.
    pub rows: u64,
    /// Rows flagged divergent.
    pub flagged: u64,
}

impl RowTally {
    /// Tallies the rows of `entries`, each item carrying `slot_secs`
    /// target rows.
    pub fn of_entries(entries: &[Entry], slot_secs: u32) -> RowTally {
        RowTally {
            rows: entries.len() as u64 * u64::from(slot_secs),
            flagged: entries.iter().map(|e| e.divergent).sum(),
        }
    }

    /// Adds another tally.
    pub fn add(&mut self, other: RowTally) {
        self.rows += other.rows;
        self.flagged += other.flagged;
    }

    /// Flagged rows as a share of all rows (0 with no rows).
    pub fn flagged_share(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.flagged as f64 / self.rows as f64
        }
    }
}

/// A closed interval of time, in seconds on one clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Start.
    pub start: f64,
    /// End (≥ start).
    pub end: f64,
}

/// A span's self time: its duration minus the part of it that the
/// union of its `children` covers (children are clipped to the span;
/// overlapping children count once).
pub fn self_time(span: Interval, children: &[Interval]) -> f64 {
    let mut clipped: Vec<Interval> = children
        .iter()
        .map(|c| Interval { start: c.start.max(span.start), end: c.end.min(span.end) })
        .filter(|c| c.end > c.start)
        .collect();
    clipped.sort_by(|a, b| a.start.total_cmp(&b.start));
    let mut covered = 0.0;
    let mut cursor = span.start;
    for c in clipped {
        let start = c.start.max(cursor);
        if c.end > start {
            covered += c.end - start;
            cursor = c.end;
        }
    }
    (span.end - span.start) - covered
}

/// CPU time of one process at one instant, in clock ticks
/// (`utime + stime` from `/proc/<pid>/stat`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuTicks(pub u64);

impl CpuTicks {
    /// Ticks spent since `before` (zero if the counter went backwards,
    /// as it would across pid reuse).
    pub fn since(self, before: CpuTicks) -> u64 {
        self.0.saturating_sub(before.0)
    }
}

/// Parses `utime + stime` out of a `/proc/<pid>/stat` line. The comm
/// field may hold spaces and parentheses, so fields are counted from
/// the last `)`.
pub fn parse_proc_stat(text: &str) -> Option<CpuTicks> {
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the comm: state is field 3, utime 14, stime 15 (1-based).
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(CpuTicks(utime + stime))
}

/// Parses `VmHWM` (peak resident set, kB) out of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(text: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Nanoseconds of CPU per byte for `ticks` of CPU time (see
/// [`CpuTicks::since`]) spent on `bytes`.
pub fn cpu_ns_per_byte(ticks: u64, ticks_per_sec: u64, bytes: u64) -> f64 {
    ticks as f64 * 1e9 / ticks_per_sec as f64 / bytes.max(1) as f64
}

/// Quantile `q` of a fixed-bucket histogram (`bounds` inclusive upper
/// bounds, `counts` one longer with the overflow cell last),
/// interpolated linearly inside the bucket that holds it. The overflow
/// bucket reports its lower bound. `NaN` when empty.
pub fn histogram_quantile(bounds: &[u64], counts: &[u64], q: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return f64::NAN;
    }
    let rank = q.clamp(0.0, 1.0) * total as f64;
    let mut below = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        if c > 0 && (below + c) as f64 >= rank {
            let lo = if i == 0 { 0.0 } else { bounds[i - 1] as f64 };
            let Some(&hi) = bounds.get(i) else { return lo };
            let frac = ((rank - below as f64) / c as f64).clamp(0.0, 1.0);
            return lo + (hi as f64 - lo) * frac;
        }
        below += c;
    }
    bounds.last().map_or(f64::NAN, |&b| b as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        // 99 samples: p90 has 9.9 beyond — not enough; median only.
        let t = tail(&v, TailSide::High);
        assert_eq!((t.pct, t.samples), (50.0, 99));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v, TailSide::High);
        assert_eq!((t.pct, t.samples), (90.0, 100));
        assert!((t.value - 90.1).abs() < 1e-9);
        let t = tail(&v, TailSide::Low);
        assert_eq!(t.pct, 10.0);
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&v, TailSide::High).pct, 99.0);
        let v: Vec<f64> = (0..10_000).map(f64::from).collect();
        assert_eq!(tail(&v, TailSide::High).pct, 99.9);
        assert_eq!(tail(&v, TailSide::Low).pct, 0.1);
    }

    fn entry(ix: u64, capacity: f64, clean: bool, divergent: u64) -> Entry {
        Entry { ix, capacity, clean, divergent }
    }

    #[test]
    fn missing_and_unclean_items_fail_and_zero_estimates_are_counted() {
        let entries = [
            entry(0, 1e6, true, 0),
            entry(1, 1e6, false, 0), // unclean: failed
            entry(2, 0.0, true, 1),  // clean but credited nothing
            entry(3, f64::NAN, true, 0),
            // ix 4 missing entirely
            entry(5, 2e6, true, 3), // flagged rows do not fail an item
        ];
        let t = ItemTally::of_period(6, &entries);
        assert_eq!(t, ItemTally { attempted: 6, failed: 3, zero: 1 });
        let mut sum = ItemTally::default();
        sum.add(t);
        sum.add(ItemTally::of_period(1, &[entry(0, 5.0, true, 0)]));
        assert_eq!(sum, ItemTally { attempted: 7, failed: 3, zero: 1 });
    }

    #[test]
    fn flagged_rows_count_per_slot_second() {
        let entries = [entry(0, 1.0, true, 2), entry(1, 1.0, true, 0), entry(2, 1.0, true, 1)];
        let t = RowTally::of_entries(&entries, 3);
        assert_eq!(t, RowTally { rows: 9, flagged: 3 });
        assert!((t.flagged_share() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(RowTally::default().flagged_share(), 0.0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = Interval { start: 0.0, end: 10.0 };
        assert_eq!(self_time(span, &[]), 10.0);
        let kids = [
            Interval { start: 1.0, end: 3.0 },
            Interval { start: 2.0, end: 4.0 }, // overlaps the first
            Interval { start: 6.0, end: 7.0 },
            Interval { start: 9.0, end: 12.0 }, // clipped at the end
            Interval { start: -5.0, end: -1.0 }, // entirely outside
        ];
        // Covered: [1,4] + [6,7] + [9,10] = 5 of 10.
        assert!((self_time(span, &kids) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn proc_stat_and_status_parse() {
        let stat = "4242 (flash flow) (x) S 1 2 3 4 5 6 7 8 9 10 150 25 0 0 20 0 3 0 99";
        assert_eq!(parse_proc_stat(stat), Some(CpuTicks(175)));
        assert_eq!(parse_proc_stat("garbage"), None);
        let status = "Name:\tflashflow-relay\nVmPeak:\t  20000 kB\nVmHWM:\t    8412 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(8412));
    }

    #[test]
    fn cpu_per_byte_from_tick_deltas() {
        // 250 ticks at 100 Hz = 2.5 s of CPU over 1e9 bytes = 2.5 ns/B.
        let ticks = CpuTicks(1250).since(CpuTicks(1000));
        assert_eq!(ticks, 250);
        assert!((cpu_ns_per_byte(ticks, 100, 1_000_000_000) - 2.5).abs() < 1e-12);
        // A counter that went backwards (pid reuse) reads as zero work.
        assert_eq!(CpuTicks(3).since(CpuTicks(9)), 0);
        assert_eq!(cpu_ns_per_byte(0, 100, 0), 0.0);
    }

    #[test]
    fn histogram_quantiles_interpolate_within_buckets() {
        let bounds = [10, 20, 50];
        // 10 in (0,10], 10 in (10,20], 0 in (20,50], 5 overflow.
        let counts = [10, 10, 0, 5];
        assert!((histogram_quantile(&bounds, &counts, 0.2) - 5.0).abs() < 1e-9);
        assert!((histogram_quantile(&bounds, &counts, 0.6) - 15.0).abs() < 1e-9);
        assert_eq!(histogram_quantile(&bounds, &counts, 0.99), 50.0);
        assert!(histogram_quantile(&bounds, &[0, 0, 0, 0], 0.5).is_nan());
    }
}
