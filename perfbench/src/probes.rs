//! Benchmark-side probes: a counting global allocator, process CPU time
//! and peak RSS from `/proc/self`, a host reference loop, order
//! statistics, and an in-memory span recorder for the traced run.
//!
//! Nothing here reaches into the program: every number is taken around
//! calls to public functions, or read from the operating system.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// The system allocator with an allocation counter that costs one
/// relaxed load per call while counting is off.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Counts heap allocations (and reallocations) made by `f`, on any
/// thread, while it runs.
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let r = f();
    COUNTING.store(false, Ordering::Relaxed);
    (r, ALLOCS.load(Ordering::Relaxed) - before)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// User + system CPU seconds of this process, all threads, from
/// `/proc/self/stat` (clock ticks of 1/100 s).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / 100.0
}

/// Runs `f` with the calling thread confined to the lowest-numbered CPU
/// it may run on, then gives the thread its CPU set back. Threads that
/// `f` spawns inherit the one-CPU set, so a one-worker sweep (its worker
/// plus the coordinator that polls it) takes one core of the host, not
/// two. Where the set cannot be read or changed, `f` runs unconfined.
pub fn on_one_cpu<R>(f: impl FnOnce() -> R) -> R {
    match cpu_set::current() {
        Some(saved) if cpu_set::set(&cpu_set::lowest(&saved)) => {
            let r = f();
            cpu_set::set(&saved);
            r
        }
        _ => f(),
    }
}

#[cfg(target_os = "linux")]
mod cpu_set {
    /// `cpu_set_t`: 1024 CPUs, one bit each.
    pub type Mask = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut Mask) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const Mask) -> i32;
    }

    /// The calling thread's CPU set (pid 0 is the calling thread).
    pub fn current() -> Option<Mask> {
        let mut m: Mask = [0; 16];
        // SAFETY: `m` is a valid, writable cpu_set_t of the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), &mut m) };
        (rc == 0 && m.iter().any(|w| *w != 0)).then_some(m)
    }

    pub fn set(m: &Mask) -> bool {
        // SAFETY: `m` is a valid cpu_set_t of the size passed.
        unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), m) == 0 }
    }

    /// The set holding only the lowest CPU of `m` (`m` is not empty).
    pub fn lowest(m: &Mask) -> Mask {
        let mut one: Mask = [0; 16];
        if let Some(i) = m.iter().position(|w| *w != 0) {
            one[i] = m[i] & m[i].wrapping_neg();
        }
        one
    }
}

#[cfg(not(target_os = "linux"))]
mod cpu_set {
    pub type Mask = ();
    pub fn current() -> Option<Mask> {
        None
    }
    pub fn set(_: &Mask) -> bool {
        false
    }
    pub fn lowest(_: &Mask) -> Mask {}
}

/// A fixed arithmetic loop, independent of the program: ns per call of
/// 2^20 dependent multiply-adds, median of 9. It shows host drift, so
/// that a slower machine is not read as a regression.
pub fn ref_loop_ns() -> f64 {
    let mut times = Vec::with_capacity(9);
    for _ in 0..9 {
        let t = Instant::now();
        let mut x = std::hint::black_box(1.000_000_1f64);
        for _ in 0..(1 << 20) {
            x = x * 0.999_999_9 + 1e-9;
        }
        std::hint::black_box(x);
        times.push(t.elapsed().as_nanos() as f64);
    }
    median(&mut times)
}

/// What two back-to-back `Instant::now()` calls measure with nothing
/// between them (median ns): the part of every timed interval that is
/// the clock's own.
pub fn timer_floor_ns() -> f64 {
    let mut ns: Vec<f64> = (0..10_000)
        .map(|_| {
            let t0 = Instant::now();
            let t1 = Instant::now();
            (t1 - t0).as_nanos() as f64
        })
        .collect();
    median(&mut ns)
}

/// Median (mean of the middle pair for even lengths); NaN when empty.
pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in [0, 1]; NaN when empty.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(f64::total_cmp);
    let pos = q * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// Times `f` in `batches` batches of `per_batch` calls and returns the
/// median nanoseconds per call.
pub fn time_per_call(batches: usize, per_batch: usize, mut f: impl FnMut()) -> f64 {
    let mut ns = Vec::with_capacity(batches);
    for _ in 0..batches {
        let t = Instant::now();
        for _ in 0..per_batch {
            f();
        }
        ns.push(t.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    median(&mut ns)
}

/// One recorded span: a layer-boundary interval with its cause.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `sweep.call`.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// This span's id (1-based; 0 = none).
    pub id: u64,
    /// Id of the span that caused it (0 = root).
    pub parent: u64,
    /// Identifier shared by every span of one request or job.
    pub key: u64,
}

/// Spans kept in memory and written out when the run ends. Beyond
/// `cap` spans only the count grows, so a long run stays bounded.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
}

impl Spans {
    /// An empty recorder that keeps at most `cap` spans.
    pub fn new(cap: usize) -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            cap,
            dropped: 0,
        }
    }

    /// Nanoseconds since the recorder's epoch for `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span and returns its id (0 when over the cap).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
        key: u64,
    ) -> u64 {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return 0;
        }
        let id = self.spans.len() as u64 + 1;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            id,
            parent,
            key,
        });
        id
    }

    /// Kept spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether further spans would only be counted.
    pub fn is_full(&self) -> bool {
        self.spans.len() >= self.cap
    }

    /// Writes the spans as a Chrome `trace_event` document (open it in
    /// Perfetto); the parent and key travel in `args`.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"traceEvents\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"key\":{}}}}}{sep}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
                s.parent,
                s.key
            )?;
        }
        writeln!(
            out,
            "],\"otherData\":{{\"dropped_spans\":{}}}}}",
            self.dropped
        )?;
        out.flush()
    }
}

/// SplitMix64: derives independent 64-bit streams from the run seed.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(target_os = "linux")]
    #[test]
    fn one_cpu_confines_spawned_threads_and_restores() {
        let before = cpu_set::current().expect("cpu set");
        let inner = on_one_cpu(|| std::thread::spawn(cpu_set::current).join().unwrap());
        let inner = inner.expect("cpu set");
        let bits: u32 = inner.iter().map(|w| w.count_ones()).sum();
        assert_eq!(bits, 1);
        assert_eq!(inner, cpu_set::lowest(&before));
        assert_eq!(cpu_set::current(), Some(before));
    }

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert!(median(&mut []).is_nan());
    }

    #[test]
    fn allocations_are_counted() {
        let (v, n) = count_allocs(|| vec![1u8; 64]);
        assert_eq!(v.len(), 64);
        assert!(n >= 1);
    }
}
