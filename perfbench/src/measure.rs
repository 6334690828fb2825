//! Host clocks, the calibration kernel, the benchmark's own span
//! recorder, and order statistics.
//!
//! Every host-time read of the benchmark goes through this module:
//! process CPU time from `/proc/self/schedstat` (nanosecond resolution,
//! where `/proc/self/stat` ticks at 10 ms), wall time from one
//! monotonic origin, and peak resident memory from `/proc/self/status`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt::Write as _;
use std::time::Instant;

use rio_sim::Histogram;

/// CPU time this process has spent on a core, in nanoseconds.
pub fn cpu_ns() -> u64 {
    // The kernel folds the running slice into the counter only when
    // the task passes through the scheduler; a yield makes the read
    // exact instead of tick-granular.
    std::thread::yield_now();
    let text = std::fs::read_to_string("/proc/self/schedstat")
        .expect("/proc/self/schedstat is readable on Linux");
    text.split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .expect("schedstat starts with the on-CPU nanoseconds")
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status")
        .expect("/proc/self/status is readable on Linux");
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status carries VmHWM in kB");
    kb / 1024.0
}

/// A monotonic wall clock counting nanoseconds from its creation.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    origin: Instant,
}

impl Clock {
    /// Starts a clock at zero.
    pub fn start() -> Self {
        Clock {
            // rio-lint: allow(D2) the benchmark measures host wall time by design
            origin: Instant::now(),
        }
    }

    /// Nanoseconds since [`Clock::start`].
    pub fn ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Host cost of one measured interval.
#[derive(Debug, Clone, Copy)]
pub struct Cost {
    /// Process CPU nanoseconds.
    pub cpu_ns: u64,
    /// Wall nanoseconds.
    pub wall_ns: u64,
}

/// Runs `f` and returns its result with the CPU and wall time it took.
pub fn timed<T>(clock: &Clock, f: impl FnOnce() -> T) -> (T, Cost) {
    let (c0, w0) = (cpu_ns(), clock.ns());
    let out = f();
    let cost = Cost {
        cpu_ns: cpu_ns() - c0,
        wall_ns: clock.ns() - w0,
    };
    (out, cost)
}

/// Operations in one memory-kernel sample: about 60 ms.
const MEMORY_OPS: u64 = 200_000;
/// Pending events in the memory kernel's heap.
const MEMORY_EVENTS: u32 = 1 << 16;
/// Words in the memory kernel's table: 48 MiB, far beyond the private
/// caches, as the simulator's working set is.
const MEMORY_WORDS: usize = 6 << 20;
/// Operations in one compute-kernel sample: about 55 ms.
const COMPUTE_OPS: u64 = 4_000;
/// Bytes one compute-kernel operation checksums: one block.
const COMPUTE_BLOCK: usize = 4096;

/// A fixed calibration kernel. Each belongs to the benchmark, not to
/// the program, so a program change does not move it, while other
/// tenants of the machine slow it as they slow the workload it stands
/// in for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// The simulator's event loop in miniature: pop the earliest event
    /// of a binary heap, touch a random word of a large table, push the
    /// event back later. Bound by the memory hierarchy.
    Memory,
    /// A byte-wise table checksum (CRC-32C's loop) over one 4 KiB
    /// block. Bound by the core, as sealing and verifying payloads are.
    Compute,
}

impl Kernel {
    /// Host ns of one operation on the reference core: about what one
    /// costs on an idle 2.0 GHz Xeon core. Host times are reported as
    /// measured ÷ the kernel's cost measured beside them × this, that
    /// is, in ns of the reference core.
    pub fn reference_ns(self) -> f64 {
        match self {
            Kernel::Memory => 250.0,
            Kernel::Compute => 13_000.0,
        }
    }
}

/// Runs one calibration kernel in samples of about 60 ms. It allocates
/// nothing after [`Calibrator::new`].
#[derive(Debug)]
pub struct Calibrator {
    kernel: Kernel,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    table: Vec<u64>,
    crc_table: [u32; 256],
    block: Vec<u8>,
    rng: u64,
}

impl Calibrator {
    /// Builds `kernel`'s heap and table, or its checksum table and block.
    pub fn new(kernel: Kernel) -> Self {
        let mut c = Calibrator {
            kernel,
            heap: BinaryHeap::new(),
            table: Vec::new(),
            crc_table: [0; 256],
            block: Vec::new(),
            rng: 0x2545_f491_4f6c_dd1d,
        };
        match kernel {
            Kernel::Memory => {
                c.table = vec![1; MEMORY_WORDS];
                c.heap.reserve(MEMORY_EVENTS as usize);
                for id in 0..MEMORY_EVENTS {
                    let at = c.next() & 0xf_ffff;
                    c.heap.push(Reverse((at, id)));
                }
            }
            Kernel::Compute => {
                for (i, entry) in c.crc_table.iter_mut().enumerate() {
                    let mut v = i as u32;
                    for _ in 0..8 {
                        v = if v & 1 == 1 {
                            (v >> 1) ^ 0x82f6_3b78
                        } else {
                            v >> 1
                        };
                    }
                    *entry = v;
                }
                c.block = (0..COMPUTE_BLOCK).map(|i| (i * 31 + 7) as u8).collect();
            }
        }
        c
    }

    fn next(&mut self) -> u64 {
        // xorshift64
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    /// Runs one sample and returns its CPU and wall ns per operation.
    pub fn sample(&mut self, clock: &Clock) -> (f64, f64) {
        let ops = match self.kernel {
            Kernel::Memory => MEMORY_OPS,
            Kernel::Compute => COMPUTE_OPS,
        };
        let (sum, cost) = timed(clock, || {
            let mut sum = 0u64;
            for op in 0..ops {
                sum = sum.wrapping_add(match self.kernel {
                    Kernel::Memory => self.memory_op(),
                    Kernel::Compute => self.compute_op(op as usize),
                });
            }
            sum
        });
        std::hint::black_box(sum);
        (
            cost.cpu_ns as f64 / ops as f64,
            cost.wall_ns as f64 / ops as f64,
        )
    }

    fn memory_op(&mut self) -> u64 {
        let Reverse((at, id)) = self.heap.pop().expect("the heap is never empty");
        let n = self.table.len();
        let slot = (self.next() % n as u64) as usize;
        self.table[slot] = self.table[slot].wrapping_add(at ^ u64::from(id));
        let later = at + (self.next() & 0xffff);
        self.heap.push(Reverse((later, id)));
        self.table[(slot * 7 + 1) % n]
    }

    fn compute_op(&mut self, op: usize) -> u64 {
        // A different block each time, so no result can be reused.
        self.block[op * 13 % COMPUTE_BLOCK] ^= 1;
        let mut crc = !0u32;
        for &byte in &self.block {
            crc = self.crc_table[((crc ^ u32::from(byte)) & 0xff) as usize] ^ (crc >> 8);
        }
        u64::from(!crc)
    }
}

/// One closed span: a named interval of the benchmark's own work.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    cpu_ns: u64,
}

/// In-memory span recorder. Every span of one benchmark run shares
/// the run id; spans nest through an explicit stack, so a span's
/// parent is the span open when it started. Written out once, at the
/// end of the run.
#[derive(Debug)]
pub struct Spans {
    run_id: String,
    clock: Clock,
    spans: Vec<Span>,
    open: Vec<(usize, u64)>,
}

impl Spans {
    /// An empty recorder for run `run_id`.
    pub fn new(run_id: String, clock: Clock) -> Self {
        Spans {
            run_id,
            clock,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &str) {
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().map(|&(i, _)| i),
            start_ns: self.clock.ns(),
            end_ns: 0,
            cpu_ns: 0,
        });
        self.open.push((idx, cpu_ns()));
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let (idx, cpu0) = self.open.pop().expect("exit matches an enter");
        let s = &mut self.spans[idx];
        s.end_ns = self.clock.ns();
        s.cpu_ns = cpu_ns() - cpu0;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.enter(name);
        let out = f(self);
        self.exit();
        out
    }

    /// The spans as JSON: one object per span with its run id, index,
    /// parent index, wall start/end, CPU time and self time (duration
    /// minus the part its children cover).
    pub fn to_json(&self) -> String {
        assert!(self.open.is_empty(), "every span is closed before export");
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let dur = s.end_ns - s.start_ns;
            let _ = write!(
                out,
                "  {{\"run\": \"{}\", \"span\": {i}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"cpu_ns\": {}, \"self_ns\": {}}}",
                self.run_id,
                s.name,
                s.start_ns,
                s.end_ns,
                s.cpu_ns,
                dur.saturating_sub(child_ns[i]),
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Linear sub-buckets per power of two in [`Histogram`]'s layout.
const HISTOGRAM_SUB_BUCKETS: u64 = 32;

/// Quantile `q` of `h` in microseconds, interpolated linearly inside
/// the histogram bucket that holds it.
///
/// [`Histogram::quantile`] returns the bucket's upper edge. Buckets
/// are about 3% wide, so another seed of the same workload often
/// reports the very same edge. The ranks that share the bucket are
/// found through the same public call, and the quantile is placed
/// between the bucket's own lower and upper edges by its rank.
pub fn quantile_us(h: &Histogram, q: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    let at = |rank: u64| h.quantile((rank as f64 - 0.5) / n as f64).as_nanos();
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    let hi = at(rank);
    let first = partition(1, rank, |r| at(r) < hi);
    let last = partition(rank, n, |r| at(r) <= hi) - 1;
    let lo = bucket_floor(hi.saturating_sub(1)).max(h.min().as_nanos());
    let frac = (rank - first + 1) as f64 / (last - first + 1) as f64;
    (lo as f64 + (hi - lo) as f64 * frac) / 1e3
}

/// Lower edge of the [`Histogram`] bucket that holds `ns`.
fn bucket_floor(ns: u64) -> u64 {
    if ns < HISTOGRAM_SUB_BUCKETS {
        return ns;
    }
    let shift = 63 - ns.leading_zeros() - HISTOGRAM_SUB_BUCKETS.trailing_zeros();
    (ns >> shift) << shift
}

/// The first `r` in `lo..=hi` for which `pred` is false (`hi + 1` if
/// none), for a `pred` that is true on a prefix of the range.
fn partition(mut lo: u64, mut hi: u64, pred: impl Fn(u64) -> bool) -> u64 {
    hi += 1;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use rio_sim::SimDuration;

    fn edge(ns: u64) -> u64 {
        let mut h = Histogram::new();
        h.record(SimDuration::from_nanos(ns));
        h.record(SimDuration::from_nanos(u64::MAX >> 30));
        h.quantile(0.5).as_nanos()
    }

    #[test]
    fn bucket_floor_matches_the_histogram_layout() {
        for ns in [40, 1_000, 99_999, 851_968, 13_500_000] {
            let hi = edge(ns);
            let lo = bucket_floor(hi - 1);
            assert!(lo <= ns && ns < hi, "{ns} outside [{lo}, {hi})");
            assert_eq!(edge(lo), hi, "{lo} is in the bucket of {ns}");
            assert!(edge(lo - 1) < hi, "{} is below the bucket of {ns}", lo - 1);
        }
    }

    #[test]
    fn interpolated_quantile_stays_in_its_bucket() {
        // Dense: a thousand distinct samples over a few buckets.
        let mut h = Histogram::new();
        for ns in 100_000..101_000u64 {
            h.record(SimDuration::from_nanos(ns));
        }
        let p50 = quantile_us(&h, 0.5);
        let hi = h.quantile(0.5).as_nanos();
        assert!(p50 * 1e3 <= hi as f64 && p50 * 1e3 >= bucket_floor(hi - 1) as f64);
        assert!(quantile_us(&h, 0.25) < quantile_us(&h, 0.75));

        // Sparse tail: empty buckets between the body and the sample
        // that holds p99.9, which must stay inside its own bucket.
        let mut h = Histogram::new();
        for _ in 0..999 {
            h.record(SimDuration::from_micros(100));
        }
        h.record(SimDuration::from_micros(13_500));
        h.record(SimDuration::from_micros(13_600));
        let hi = h.quantile(0.999).as_nanos();
        let p999 = quantile_us(&h, 0.999) * 1e3;
        assert!(
            p999 >= bucket_floor(hi - 1) as f64 && p999 <= hi as f64,
            "p99.9 {p999} left its bucket ending at {hi}"
        );
        assert!(p999 >= 13_000_000.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
