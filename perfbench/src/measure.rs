//! Measurement plumbing shared by every workload: histogram sample sets, benchmark-side spans, the open-loop sleep, and the metric list a
//! run prints.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::procstat;

/// Linear sub-buckets per power of two, as a power of two: a bucket is at
/// most 1/64 of its lower edge wide.
const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
/// Buckets covering every `u64`.
const BUCKETS: usize = (65 - SUB_BITS as usize) * SUB;

/// Durations in nanoseconds (or other counts), kept as a log-linear
/// histogram: fixed memory however many operations a run completes, and an
/// exact merge, so every thread and round weighs what it completed.
/// Quantiles interpolate within a bucket, to well under 1 % of the value.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    /// Allocated on the first push, so empty sets cost nothing.
    counts: Vec<u64>,
    n: u64,
}

fn bucket(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let sub = (v >> (exp - SUB_BITS)) as usize & (SUB - 1);
    (exp - SUB_BITS + 1) as usize * SUB + sub
}

/// Lower edge and width of bucket `idx`.
fn bucket_range(idx: usize) -> (f64, f64) {
    if idx < SUB {
        return (idx as f64, 1.0);
    }
    let exp = (idx / SUB) as u32 + SUB_BITS - 1;
    let width = 1u64 << (exp - SUB_BITS);
    let lo = (1u64 << exp) + (idx % SUB) as u64 * width;
    (lo as f64, width as f64)
}

impl Samples {
    pub fn push(&mut self, ns: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        self.counts[bucket(ns)] += 1;
        self.n += 1;
    }

    pub fn push_since(&mut self, from: Instant, to: Instant) {
        self.push(to.saturating_duration_since(from).as_nanos() as u64);
    }

    pub fn extend(&mut self, other: &Samples) {
        if other.n == 0 {
            return;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// Samples pushed.
    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// Quantile in nanoseconds, interpolated linearly within the bucket
    /// that holds it; 0 for an empty set.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.n as f64).max(f64::MIN_POSITIVE);
        let mut below = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c > 0 && (below + c) as f64 >= rank {
                let (lo, width) = bucket_range(idx);
                return lo + width * ((rank - below as f64) / c as f64);
            }
            below += c;
        }
        0.0
    }

    pub fn us(&self, q: f64) -> f64 {
        self.quantile_ns(q) / 1e3
    }
}

/// One benchmark-side span: a call into a layer's public API. Spans of one
/// request share `req`; `parent` names the span that caused this one.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub req: u64,
    pub name: &'static str,
    pub parent: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans kept in memory until the run ends, for a sample of requests. Each
/// thread fills its own vector and hands it over once, so recording never
/// contends. Metrics come from [`Samples`] of every call, not from spans.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    pub fn new(enabled: bool) -> Self {
        SpanLog {
            epoch: Instant::now(),
            enabled,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A per-thread buffer; hand it back with [`SpanLog::absorb`].
    pub fn local(&self) -> LocalSpans<'_> {
        LocalSpans {
            log: self,
            spans: Vec::new(),
        }
    }

    fn absorb(&self, spans: Vec<Span>) {
        if !spans.is_empty() {
            self.spans
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .extend(spans);
        }
    }

    pub fn count(&self) -> usize {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Writes every span as tab-separated text, one per line.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::from("req\tname\tparent\tstart_ns\tend_ns\n");
        for s in spans.iter() {
            let _ = writeln!(
                out,
                "{:#x}\t{}\t{}\t{}\t{}",
                s.req, s.name, s.parent, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Requests whose spans are kept: one in `1 << SPAN_SAMPLE_SHIFT`, chosen by
/// a hash of the request id so every span of a kept request is kept.
const SPAN_SAMPLE_SHIFT: u32 = 4;
/// Spans one thread keeps at most, so memory and the span file stay small
/// however long the run.
const SPANS_PER_THREAD: usize = 50_000;

/// A thread's span buffer; flushed into its [`SpanLog`] on drop.
pub struct LocalSpans<'a> {
    log: &'a SpanLog,
    spans: Vec<Span>,
}

impl LocalSpans<'_> {
    pub fn record(
        &mut self,
        req: u64,
        name: &'static str,
        parent: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let sampled = req.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - SPAN_SAMPLE_SHIFT) == 0;
        if self.log.enabled && sampled && self.spans.len() < SPANS_PER_THREAD {
            let ns = |t: Instant| t.saturating_duration_since(self.log.epoch).as_nanos() as u64;
            self.spans.push(Span {
                req,
                name,
                parent,
                start_ns: ns(start),
                end_ns: ns(end),
            });
        }
    }
}

impl Drop for LocalSpans<'_> {
    fn drop(&mut self) {
        self.log.absorb(std::mem::take(&mut self.spans));
    }
}

/// Window over which closed-loop throughput is sampled: long enough for
/// `/proc/stat`'s 10-ms ticks to resolve the steal share to about 1 %.
const RATE_WINDOW: Duration = Duration::from_millis(500);
/// Largest steal share a window is corrected for.
const MAX_STEAL: f64 = 0.9;

/// One closed-loop window's completions per second: of wall time, and of
/// the CPU time the guest was given (wall time less the share the
/// hypervisor stole for other guests).
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub wall: f64,
    pub guest: f64,
}

/// Mean share of the guest's CPU time the hypervisor stole over `windows`.
pub fn steal_frac(windows: &[Window]) -> f64 {
    let n = windows.len().max(1) as f64;
    windows
        .iter()
        .map(|w| 1.0 - w.wall / w.guest.max(f64::MIN_POSITIVE))
        .sum::<f64>()
        / n
}

/// Median completions per second over `windows`: `(per guest-CPU second,
/// per wall second)`.
pub fn capacity(windows: &[Window]) -> (f64, f64) {
    (
        median(windows.iter().map(|w| w.guest).collect()),
        median(windows.iter().map(|w| w.wall).collect()),
    )
}

/// Completions counted by the workers of a closed-loop phase and sampled
/// in fixed windows. Capacity is a median over windows, so a stall of a
/// few hundred milliseconds moves it no more than one window does.
#[derive(Debug, Default)]
pub struct Throughput {
    done: AtomicU64,
}

impl Throughput {
    pub fn add(&self, n: u64) {
        self.done.fetch_add(n, Ordering::Relaxed);
    }

    /// Samples the counter in `RATE_WINDOW` steps from `start` until `end`
    /// and returns each whole window; a phase shorter than one window
    /// counts as one.
    pub fn windows(&self, start: Instant, end: Instant) -> Vec<Window> {
        let sample = |at: Instant| (at, self.done.load(Ordering::Relaxed), procstat::cpu_ticks());
        let mut out = Vec::new();
        let mut prev = sample(start);
        while out.is_empty() || prev.0 + RATE_WINDOW <= end {
            let at = (prev.0 + RATE_WINDOW).min(end);
            wait_until(at);
            let now = sample(at);
            let secs = (now.0 - prev.0).as_secs_f64().max(1e-9);
            let (all, steal) = (now.2 .0 - prev.2 .0, now.2 .1 - prev.2 .1);
            let stolen = (steal as f64 / all.max(1) as f64).min(MAX_STEAL);
            let wall = (now.1 - prev.1) as f64 / secs;
            out.push(Window {
                wall,
                guest: wall / (1.0 - stolen),
            });
            prev = now;
        }
        out
    }
}

/// Sleeps until `deadline`: coarse sleep first, then a short spin, so
/// intended send times hold to microseconds without burning a core.
pub fn wait_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let left = deadline - now;
        if left > Duration::from_micros(200) {
            std::thread::sleep(left - Duration::from_micros(100));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Metrics in print order: `(name, value, unit)`.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.0.iter_mut().find(|(n, _, _)| n == name) {
            Some(slot) => *slot = (name.to_string(), value, unit),
            None => self.0.push((name.to_string(), value, unit)),
        }
    }

    /// The `metrics` object of the result line.
    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON number with every digit the value carries.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// One figure per round of a run. End-to-end figures are the median over
/// the rounds the hypervisor disturbed least (see [`quiet`]).
#[derive(Debug, Default)]
pub struct Rounds {
    /// Each set-up of the round: `(wall, process CPU)` seconds.
    pub setup_s: Vec<Vec<(f64, f64)>>,
    pub read_p50_us: Vec<f64>,
    pub write_p50_us: Vec<f64>,
    pub ew_avg_us: Vec<f64>,
    /// Resident set at the end of the round's traffic. The process's peak
    /// (`VmHWM`) is a single maximum over stacks that each grow with the
    /// exposure windows they close, and it moved by up to 0.3 of itself
    /// from run to run.
    pub rss_mb: Vec<f64>,
    /// Share of the guest's CPU the hypervisor stole during the round.
    pub steal: Vec<f64>,
}

impl Rounds {
    /// Records one round: its set-up times, its read and write latencies,
    /// its service's report, the process counters at the end of its
    /// traffic, and the machine's CPU ticks when it began.
    pub fn push(
        &mut self,
        setup_s: Vec<(f64, f64)>,
        read: &Samples,
        write: &Samples,
        report: &terp_service::ServiceReport,
        end: &procstat::ProcSample,
        ticks: (u64, u64),
    ) {
        self.setup_s.push(setup_s);
        self.steal
            .push(procstat::steal_share(ticks, procstat::cpu_ticks()));
        self.read_p50_us.push(read.us(0.5));
        self.write_p50_us.push(write.us(0.5));
        self.ew_avg_us.push(report.ew.avg_cycles / 1e3);
        self.rss_mb.push(end.rss_bytes as f64 / (1u64 << 20) as f64);
    }

    /// Median of one figure over the quiet rounds.
    pub fn quiet_median(&self, values: &[f64]) -> f64 {
        median(quiet(&self.steal, values).into_iter().copied().collect())
    }

    /// Median process CPU time of a set-up over the quiet rounds.
    pub fn quiet_setup_cpu_s(&self) -> f64 {
        let rounds = quiet(&self.steal, &self.setup_s);
        median(rounds.into_iter().flatten().map(|s| s.1).collect())
    }

    /// Every set-up's wall time, sorted.
    pub fn all_setups_wall(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.setup_s.iter().flatten().map(|s| s.0).collect();
        v.sort_by(|a, b| a.total_cmp(b));
        v
    }
}

/// Stacks set up per round: the round's own, and as many more set up and
/// shut down just before it, so `setup_s` has enough samples from the
/// quiet rounds.
pub const SETUPS_PER_ROUND: usize = 5;

/// The items whose steal share is at most the median one's: the half (or
/// more) of a run that the hypervisor disturbed least. On a 2-vCPU guest
/// whose steal share moved between 0.03 and 0.5 from one round to the
/// next, the disturbed rounds' open-loop p50 reached milliseconds while
/// the others' stayed near 50 µs.
pub fn quiet<'a, T>(steal: &[f64], items: &'a [T]) -> Vec<&'a T> {
    let cut = median(steal.to_vec());
    items
        .iter()
        .zip(steal)
        .filter(|(_, &s)| s <= cut)
        .map(|(item, _)| item)
        .collect()
}

/// Median of a few set-up timings.
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_within_a_percent() {
        let mut s = Samples::default();
        for v in 1..=100_000u64 {
            s.push(v * 10);
        }
        for (q, want) in [(0.5, 500_000.0), (0.99, 990_000.0), (0.01, 10_000.0)] {
            let got = s.quantile_ns(q);
            assert!((got - want).abs() / want < 0.01, "q{q}: {got} vs {want}");
        }
        assert_eq!(Samples::default().quantile_ns(0.5), 0.0);
        let mut one = Samples::default();
        one.push(7);
        assert!((7.0..=8.0).contains(&one.quantile_ns(0.5)));
    }

    #[test]
    fn merge_weighs_every_sample_once() {
        // Sets of different sizes and ranges: the merge must give the
        // quantiles of their union, not favour the set merged first.
        let mut first = Samples::default();
        let mut second = Samples::default();
        for v in 0..100_000u64 {
            first.push(1_000 + v % 100);
            second.push(1_000_000 + v % 1_000);
            second.push(1_000_000 + v % 1_000);
        }
        let mut merged = Samples::default();
        merged.extend(&Samples::default());
        merged.extend(&first);
        merged.extend(&second);
        assert_eq!(merged.len(), 300_000);
        let p25 = merged.quantile_ns(0.25);
        let p50 = merged.quantile_ns(0.5);
        assert!((1_000.0..1_100.0).contains(&p25), "p25 {p25}");
        assert!((995_000.0..1_006_000.0).contains(&p50), "p50 {p50}");
    }

    #[test]
    fn metrics_render_as_json_with_units() {
        let mut m = Metrics::default();
        m.put("a_us", 1.25, "us");
        m.put("b", 3.0, "count");
        m.put("a_us", 2.5, "us");
        assert_eq!(
            m.json(),
            "{\"a_us\": {\"value\": 2.5, \"unit\": \"us\"}, \"b\": {\"value\": 3.0, \"unit\": \"count\"}}"
        );
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
