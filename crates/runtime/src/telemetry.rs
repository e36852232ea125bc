//! Phase-level telemetry: span timers, per-wave histograms, named counters.
//!
//! The paper's speedup claims are *work structure* claims — heap traffic
//! removed by early fixing, synchronization removed by pointer jumping — and
//! verifying them at scale needs per-phase timing and contention telemetry,
//! not just end-to-end wall clock. This module gives every algorithm in the
//! workspace a shared, low-overhead recorder:
//!
//! * [`span`] — a named phase timer; elapsed time is accumulated per phase
//!   name when the guard drops (`mwe-compute`, `frontier-wave`, `q-flush`,
//!   `heap-extract`, `pointer-jump`, `contract`, ...).
//! * [`record_value`] — one sample of a per-wave quantity (frontier size,
//!   bag occupancy, heap depth); aggregated as count/sum/min/max plus a
//!   log2-bucketed histogram, so a million waves cost a fixed footprint.
//! * [`counter_add`] — a named-counter registry extending [`crate::Counter`]
//!   for events that do not belong to a single struct's `AlgoStats`.
//!
//! # Gating
//!
//! Telemetry is double-gated so the Fig. 2 benchmark numbers are unaffected:
//!
//! 1. **Compile-time**: the `telemetry` cargo feature (on by default).
//!    Building with `--no-default-features` compiles every entry point here
//!    to an empty inline function — zero code, zero data.
//! 2. **Runtime**: recording happens only while enabled — either the
//!    `LLP_TELEMETRY` environment variable is set to something other than
//!    `0`/`false`/empty, or a harness called [`set_enabled]`(true)`.
//!    When disabled, every call is a single relaxed atomic load and branch.
//!
//! # Collection
//!
//! A harness brackets a run with [`begin_run`] and [`take_report`]; the
//! returned [`RunReport`] serialises itself to JSON via
//! [`RunReport::to_json`] through the shared [`crate::json`] writer.

use crate::json::Json;

/// Aggregate timing for one named phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStat {
    /// Phase name as passed to [`span`].
    pub name: String,
    /// Number of completed spans.
    pub calls: u64,
    /// Total nanoseconds across all spans.
    pub total_ns: u64,
    /// Shortest single span, ns.
    pub min_ns: u64,
    /// Longest single span, ns.
    pub max_ns: u64,
}

/// Aggregate of a sampled per-wave series (e.g. frontier sizes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesStat {
    /// Series name as passed to [`record_value`].
    pub name: String,
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// `buckets[i]` counts samples whose bit length is `i`; bucket 0 holds
    /// zeros, bucket `i` holds values in `[2^(i-1), 2^i)`.
    pub buckets: Vec<u64>,
}

/// Snapshot of everything recorded between [`begin_run`] and [`take_report`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Whether telemetry was compiled in *and* enabled during the run.
    pub enabled: bool,
    /// Per-phase timing aggregates, sorted by phase name.
    pub phases: Vec<PhaseStat>,
    /// Per-wave series aggregates, sorted by series name.
    pub series: Vec<SeriesStat>,
    /// Named counters, sorted by name.
    pub counters: Vec<(String, u64)>,
}

impl RunReport {
    /// Serialises the report as a JSON object (stable key order).
    pub fn to_json(&self) -> String {
        let mut j = Json::new();
        self.write_json(&mut j);
        j.finish()
    }

    /// Writes the report as one JSON object value into `j`.
    ///
    /// Histogram buckets are emitted sparsely as `[[bit_length, count], ...]`
    /// so reports stay small for long runs with narrow distributions.
    pub fn write_json(&self, j: &mut Json) {
        j.begin_object();
        j.key("enabled").bool(self.enabled);
        j.key("phases").begin_array();
        for p in &self.phases {
            j.begin_object();
            j.key("name").str(&p.name);
            j.key("calls").u64(p.calls);
            j.key("total_ns").u64(p.total_ns);
            j.key("min_ns").u64(p.min_ns);
            j.key("max_ns").u64(p.max_ns);
            j.end_object();
        }
        j.end_array();
        j.key("series").begin_array();
        for s in &self.series {
            j.begin_object();
            j.key("name").str(&s.name);
            j.key("count").u64(s.count);
            j.key("sum").u64(s.sum);
            j.key("min").u64(s.min);
            j.key("max").u64(s.max);
            j.key("log2_buckets").begin_array();
            for (bits, &n) in s.buckets.iter().enumerate().filter(|(_, &n)| n > 0) {
                j.begin_array().u64(bits as u64).u64(n).end_array();
            }
            j.end_array();
            j.end_object();
        }
        j.end_array();
        j.key("counters").begin_object();
        for (name, value) in &self.counters {
            j.key(name).u64(*value);
        }
        j.end_object();
        j.end_object();
    }
}

#[cfg(feature = "telemetry")]
mod imp {
    use super::{PhaseStat, RunReport, SeriesStat};
    use crate::sync::Mutex;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicU8, Ordering};
    use std::sync::OnceLock;
    use std::time::Instant;

    // 0 = read LLP_TELEMETRY on first use, 1 = off, 2 = on.
    static ENABLED: AtomicU8 = AtomicU8::new(0);

    #[derive(Default)]
    struct PhaseAgg {
        calls: u64,
        total_ns: u64,
        min_ns: u64,
        max_ns: u64,
    }

    struct SeriesAgg {
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
        buckets: [u64; 65],
    }

    impl Default for SeriesAgg {
        fn default() -> Self {
            SeriesAgg {
                count: 0,
                sum: 0,
                min: 0,
                max: 0,
                buckets: [0; 65],
            }
        }
    }

    #[derive(Default)]
    struct Registry {
        phases: BTreeMap<&'static str, PhaseAgg>,
        series: BTreeMap<&'static str, SeriesAgg>,
        counters: BTreeMap<&'static str, u64>,
    }

    fn registry() -> &'static Mutex<Registry> {
        static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
        REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
    }

    /// True when telemetry recording is active.
    #[inline]
    pub fn enabled() -> bool {
        match ENABLED.load(Ordering::Relaxed) {
            0 => init_from_env(),
            1 => false,
            _ => true,
        }
    }

    #[cold]
    fn init_from_env() -> bool {
        let on = match std::env::var("LLP_TELEMETRY") {
            Ok(v) => !(v.is_empty() || v == "0" || v.eq_ignore_ascii_case("false")),
            Err(_) => false,
        };
        ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
        on
    }

    /// Programmatically enables or disables recording, overriding the
    /// `LLP_TELEMETRY` environment gate (harnesses call this).
    pub fn set_enabled(on: bool) {
        ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    }

    /// Guard returned by [`span`]; accumulates elapsed time on drop.
    pub struct SpanGuard(Option<(&'static str, Instant)>);

    /// Starts a named phase span. Time from this call until the guard drops
    /// is accumulated under `name`.
    #[inline]
    pub fn span(name: &'static str) -> SpanGuard {
        if enabled() {
            SpanGuard(Some((name, Instant::now())))
        } else {
            SpanGuard(None)
        }
    }

    impl Drop for SpanGuard {
        fn drop(&mut self) {
            if let Some((name, start)) = self.0.take() {
                let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                let mut reg = registry().lock();
                let agg = reg.phases.entry(name).or_default();
                if agg.calls == 0 {
                    agg.min_ns = ns;
                    agg.max_ns = ns;
                } else {
                    agg.min_ns = agg.min_ns.min(ns);
                    agg.max_ns = agg.max_ns.max(ns);
                }
                agg.calls += 1;
                agg.total_ns += ns;
            }
        }
    }

    /// Records one sample of a per-wave series (frontier size, bag
    /// occupancy, heap depth, ...).
    #[inline]
    pub fn record_value(series: &'static str, value: u64) {
        if !enabled() {
            return;
        }
        let mut reg = registry().lock();
        let agg = reg.series.entry(series).or_default();
        if agg.count == 0 {
            agg.min = value;
            agg.max = value;
        } else {
            agg.min = agg.min.min(value);
            agg.max = agg.max.max(value);
        }
        agg.count += 1;
        agg.sum += value;
        agg.buckets[(64 - value.leading_zeros()) as usize] += 1;
    }

    /// Adds `n` to the named registry counter.
    #[inline]
    pub fn counter_add(name: &'static str, n: u64) {
        if !enabled() {
            return;
        }
        let mut reg = registry().lock();
        *reg.counters.entry(name).or_default() += n;
    }

    /// Clears all recorded data, starting a fresh measurement window.
    pub fn begin_run() {
        let mut reg = registry().lock();
        *reg = Registry::default();
    }

    /// Snapshots everything recorded since [`begin_run`] and clears it.
    pub fn take_report() -> RunReport {
        let mut reg = registry().lock();
        let taken = std::mem::take(&mut *reg);
        drop(reg);
        RunReport {
            enabled: enabled(),
            phases: taken
                .phases
                .into_iter()
                .map(|(name, a)| PhaseStat {
                    name: name.to_string(),
                    calls: a.calls,
                    total_ns: a.total_ns,
                    min_ns: a.min_ns,
                    max_ns: a.max_ns,
                })
                .collect(),
            series: taken
                .series
                .into_iter()
                .map(|(name, a)| {
                    let top = a
                        .buckets
                        .iter()
                        .rposition(|&n| n > 0)
                        .map_or(0, |i| i + 1);
                    SeriesStat {
                        name: name.to_string(),
                        count: a.count,
                        sum: a.sum,
                        min: a.min,
                        max: a.max,
                        buckets: a.buckets[..top].to_vec(),
                    }
                })
                .collect(),
            counters: taken
                .counters
                .into_iter()
                .map(|(name, v)| (name.to_string(), v))
                .collect(),
        }
    }
}

#[cfg(not(feature = "telemetry"))]
mod imp {
    use super::RunReport;

    /// Always `false`: telemetry is compiled out.
    #[inline(always)]
    pub fn enabled() -> bool {
        false
    }

    /// No-op: telemetry is compiled out.
    #[inline(always)]
    pub fn set_enabled(_on: bool) {}

    /// Zero-sized no-op guard.
    pub struct SpanGuard(());

    // A (trivial) Drop impl keeps call sites uniform across both builds:
    // callers may `drop(guard)` to end a span early without tripping
    // `clippy::drop_non_drop` when telemetry is compiled out.
    impl Drop for SpanGuard {
        fn drop(&mut self) {}
    }

    /// No-op: telemetry is compiled out.
    #[inline(always)]
    pub fn span(_name: &'static str) -> SpanGuard {
        SpanGuard(())
    }

    /// No-op: telemetry is compiled out.
    #[inline(always)]
    pub fn record_value(_series: &'static str, _value: u64) {}

    /// No-op: telemetry is compiled out.
    #[inline(always)]
    pub fn counter_add(_name: &'static str, _n: u64) {}

    /// No-op: telemetry is compiled out.
    #[inline(always)]
    pub fn begin_run() {}

    /// Returns an empty disabled report.
    #[inline(always)]
    pub fn take_report() -> RunReport {
        RunReport::default()
    }
}

pub use imp::{begin_run, counter_add, enabled, record_value, set_enabled, span, take_report, SpanGuard};

/// Peak resident set size of this process in bytes, read from the
/// kernel's high-water mark (`VmHWM` in `/proc/self/status`) on Linux;
/// `None` on other platforms or when procfs is unavailable.
///
/// This is a process-lifetime gauge, not a phase measurement: it only
/// ever rises, and it is independent of the `telemetry` feature gate so
/// memory-budget checks (the out-of-core harness gate) work in every
/// build configuration.
pub fn peak_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        parse_vm_hwm_bytes(&status)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Parses the `VmHWM:` line of a `/proc/<pid>/status` dump into bytes.
/// The kernel always reports the value in kB.
#[cfg_attr(not(target_os = "linux"), allow(dead_code))]
fn parse_vm_hwm_bytes(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod rss_tests {
    use super::*;

    #[test]
    fn parses_vm_hwm_lines() {
        let status = "Name:\tcargo\nVmPeak:\t  123 kB\nVmHWM:\t   20512 kB\nVmRSS:\t 20000 kB\n";
        assert_eq!(parse_vm_hwm_bytes(status), Some(20512 * 1024));
        assert_eq!(parse_vm_hwm_bytes("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_bytes("VmHWM:\tgarbage kB\n"), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn peak_rss_is_positive_and_monotone() {
        let before = peak_rss_bytes().expect("procfs available");
        assert!(before > 0);
        // Touch a real allocation; the high-water mark can only rise.
        let v = vec![1u8; 4 << 20];
        std::hint::black_box(&v);
        let after = peak_rss_bytes().expect("procfs available");
        assert!(after >= before);
    }
}

#[cfg(all(test, feature = "telemetry"))]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    // The registry is process-global; serialise tests that mutate it.
    fn serial() -> MutexGuard<'static, ()> {
        static GATE: OnceLock<Mutex<()>> = OnceLock::new();
        GATE.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = serial();
        set_enabled(false);
        begin_run();
        {
            let _s = span("p");
            record_value("v", 10);
            counter_add("c", 3);
        }
        let r = take_report();
        assert!(!r.enabled);
        assert!(r.phases.is_empty());
        assert!(r.series.is_empty());
        assert!(r.counters.is_empty());
    }

    #[test]
    fn spans_accumulate_per_name() {
        let _g = serial();
        set_enabled(true);
        begin_run();
        for _ in 0..3 {
            let _s = span("wave");
        }
        {
            let _s = span("flush");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let r = take_report();
        set_enabled(false);
        assert!(r.enabled);
        assert_eq!(r.phases.len(), 2);
        let flush = r.phases.iter().find(|p| p.name == "flush").unwrap();
        assert_eq!(flush.calls, 1);
        assert!(flush.total_ns >= 2_000_000, "slept 2ms, got {}", flush.total_ns);
        assert!(flush.min_ns <= flush.max_ns);
        let wave = r.phases.iter().find(|p| p.name == "wave").unwrap();
        assert_eq!(wave.calls, 3);
        assert!(wave.total_ns >= wave.min_ns);
    }

    #[test]
    fn series_aggregates_and_buckets() {
        let _g = serial();
        set_enabled(true);
        begin_run();
        for v in [0u64, 1, 1, 3, 1000] {
            record_value("frontier-size", v);
        }
        let r = take_report();
        set_enabled(false);
        assert_eq!(r.series.len(), 1);
        let s = &r.series[0];
        assert_eq!(s.name, "frontier-size");
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1005);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1000);
        assert_eq!(s.buckets[0], 1, "one zero");
        assert_eq!(s.buckets[1], 2, "two ones");
        assert_eq!(s.buckets[2], 1, "3 has bit length 2");
        assert_eq!(s.buckets[10], 1, "1000 has bit length 10");
        assert_eq!(s.buckets.len(), 11, "buckets trimmed to top bit length");
    }

    #[test]
    fn counters_accumulate() {
        let _g = serial();
        set_enabled(true);
        begin_run();
        counter_add("stale-heap-pops", 2);
        counter_add("stale-heap-pops", 3);
        counter_add("repushed", 1);
        let r = take_report();
        set_enabled(false);
        assert_eq!(
            r.counters,
            vec![("repushed".to_string(), 1), ("stale-heap-pops".to_string(), 5)]
        );
    }

    #[test]
    fn begin_run_clears_previous_data() {
        let _g = serial();
        set_enabled(true);
        begin_run();
        record_value("x", 1);
        begin_run();
        let r = take_report();
        set_enabled(false);
        assert!(r.series.is_empty());
    }

    #[test]
    fn json_shape_is_valid_and_complete() {
        let _g = serial();
        set_enabled(true);
        begin_run();
        {
            let _s = span("heap-extract");
        }
        record_value("heap-depth", 7);
        counter_add("c\"quoted", 1);
        let r = take_report();
        set_enabled(false);
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"enabled\":true"));
        assert!(json.contains("\"name\":\"heap-extract\""));
        assert!(json.contains("\"log2_buckets\":[[3,1]]"), "{json}");
        assert!(json.contains("\\\"quoted"), "quotes escaped: {json}");
        // Balanced braces/brackets (cheap structural sanity check).
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn empty_report_serialises() {
        let r = RunReport::default();
        assert_eq!(
            r.to_json(),
            "{\"enabled\":false,\"phases\":[],\"series\":[],\"counters\":{}}"
        );
    }
}

#[cfg(all(test, not(feature = "telemetry")))]
mod tests_disabled {
    use super::*;

    #[test]
    fn all_entry_points_are_no_ops() {
        set_enabled(true); // must still be a no-op
        assert!(!enabled());
        begin_run();
        {
            let _s = span("p");
            record_value("v", 1);
            counter_add("c", 1);
        }
        let r = take_report();
        assert!(!r.enabled);
        assert!(r.phases.is_empty() && r.series.is_empty() && r.counters.is_empty());
    }
}
