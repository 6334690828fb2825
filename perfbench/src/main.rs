//! `perfbench`: the repository benchmark.
//!
//! Runs one workload of the simulated RIO cluster through the public
//! `rio-stack` API, checks every run from outside, and prints every
//! metric by name with its unit; the last line of standard output is
//! one JSON object with the verdict and the metrics.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload rio_clean --seed 42 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` repeats the untraced workload for `--seconds` and
//! reports the end-to-end metrics (medians over repetitions).
//! `--trace 1` runs the workload once untraced, once with telemetry
//! and once with stage tracing plus telemetry, replays each layer
//! crate, reports the per-layer metrics, and writes the benchmark's
//! spans to `perfbench/out/`. The exit code is non-zero when any check
//! fails. See `perfbench/README.md` for the workloads and metrics.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod measure;
mod replay;
mod workloads;

use std::process::ExitCode;

use rio_stack::{Cluster, LatencyBreakdown, RunMetrics, TelemetryConfig, TraceConfig};

use measure::{median, peak_rss_mb, quantile_us, timed, Calibrator, Clock, Spans};
use workloads::{Audit, Fingerprint, Kind, DEFAULT_SEED};

/// Fewest timed repetitions an untraced run makes, however short
/// `--seconds` is.
const MIN_REPS: usize = 3;
/// Set-up samples taken before each repetition. One sample varies by
/// about a fifth, so a run's median needs a few hundred.
const SETUP_PER_REP: usize = 4;
/// Fewest set-up samples an untraced run takes, topped up after the
/// last repetition.
const SETUP_SAMPLES: usize = 41;
/// Repetitions of each traced-run variant (untraced, telemetry, stage
/// trace plus telemetry).
const TRACED_REPS: usize = 3;
/// The traced-run variants: span label suffix, stage trace, telemetry.
const VARIANTS: [(&str, bool, bool); 3] = [
    ("", false, false),
    (":telemetry", false, true),
    (":traced", true, true),
];

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    /// A metric `name` of `value` in `unit`.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// Parsed command line.
struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        kind: Kind::RioClean,
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                args.kind = Kind::parse(value).ok_or(format!(
                    "unknown workload {value}; one of {:?}",
                    Kind::ALL.map(Kind::name)
                ))?
            }
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?.max(1),
            "--trace" => args.trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Checks `fp`, a run under `seed`, against the fingerprint recorded
/// for the default seed: equal under that seed, different under any
/// other (which shows the seed reaches the program).
fn check_fingerprint(kind: Kind, seed: u64, fp: Fingerprint, audit: &mut Audit) {
    match Fingerprint::recorded(kind) {
        None => audit.fail_all(format!("no fingerprint recorded for {}", kind.name())),
        Some(rec) if seed == DEFAULT_SEED && rec != fp => audit.fail_all(format!(
            "fingerprint {fp:?} differs from the recorded {rec:?}"
        )),
        Some(rec) if seed != DEFAULT_SEED && rec == fp => audit.fail_all(format!(
            "seed {seed} reproduced the default seed's fingerprint {fp:?}"
        )),
        Some(_) => {}
    }
}

/// The untraced run: repeat the workload for `seconds`, report medians.
///
/// A calibration sample runs between every two repetitions, and each
/// host time is divided by the mean of the two samples beside it, so
/// that other tenants' load, which slows both alike, cancels out.
fn untraced(args: &Args, clock: &Clock) -> (Vec<Metric>, Audit, Vec<String>) {
    let kind = args.kind;
    let mut audit = Audit::default();
    // One set-up sample: a cluster built and dropped unrun, timed
    // after an untimed build and drop. After a run frees its memory,
    // how much of the next `Cluster::new` fresh zero pages serve
    // varies by 3x; the untimed round puts the allocator back in the
    // same state every time.
    let sample_setup = || {
        drop(Cluster::new(kind.config(args.seed), kind.workload()));
        let (cluster, s) = timed(clock, || {
            Cluster::new(kind.config(args.seed), kind.workload())
        });
        drop(cluster);
        s.wall_ns as f64
    };
    // The first repetition is untimed: it warms the allocator and
    // sets the peak RSS before the calibration table exists.
    let m = Cluster::new(kind.config(args.seed), kind.workload()).run();
    audit.absorb(Audit::of(kind, &m));
    let fp = Fingerprint::of(&m);
    let peak_rss = peak_rss_mb();

    let kernel = kind.calibration();
    let reference_ns = kernel.reference_ns();
    let mut cal = Calibrator::new(kernel);
    let (mut cpu, mut wall, mut setup) = (Vec::new(), Vec::new(), Vec::new());
    let (mut raw_cpu, mut cal_cpu) = (Vec::new(), Vec::new());
    let mut before = cal.sample(clock);
    let start = clock.ns();
    while cpu.len() < MIN_REPS || clock.ns() - start < args.seconds * 1_000_000_000 {
        let setup_ns: Vec<f64> = (0..SETUP_PER_REP).map(|_| sample_setup()).collect();
        let cluster = Cluster::new(kind.config(args.seed), kind.workload());
        let (m, c) = timed(clock, || cluster.run());
        let after = cal.sample(clock);
        let (cal_cpu_ns, cal_wall_ns) = ((before.0 + after.0) / 2.0, (before.1 + after.1) / 2.0);
        before = after;
        let blocks = m.blocks_done.max(1) as f64;
        raw_cpu.push(c.cpu_ns as f64 / blocks);
        cal_cpu.push(cal_cpu_ns);
        cpu.push(c.cpu_ns as f64 / blocks / cal_cpu_ns);
        wall.push(c.wall_ns as f64 / blocks / cal_wall_ns);
        setup.extend(setup_ns.iter().map(|ns| ns / cal_wall_ns));
        audit.absorb(Audit::of(kind, &m));
        let rep_fp = Fingerprint::of(&m);
        if rep_fp != fp {
            audit.fail_all(format!(
                "repetition fingerprint {rep_fp:?} differs from {fp:?}"
            ));
        }
    }
    while setup.len() < SETUP_SAMPLES {
        let setup_ns = sample_setup();
        let after = cal.sample(clock);
        setup.push(setup_ns / ((before.1 + after.1) / 2.0));
        before = after;
    }
    check_fingerprint(kind, args.seed, fp, &mut audit);
    let metrics = vec![
        Metric::new("host_cpu_ns_per_block", median(&cpu) * reference_ns, "ns"),
        Metric::new("wall_ns_per_block", median(&wall) * reference_ns, "ns"),
        Metric::new("setup_s", median(&setup) * reference_ns / 1e9, "s"),
        Metric::new("peak_rss_mb", peak_rss, "MiB"),
        Metric::new("sim_kiops", m.block_iops() / 1e3, "KIOPS"),
        Metric::new("group_p50_us", quantile_us(&m.group_latency, 0.5), "us"),
        Metric::new("group_p999_us", quantile_us(&m.group_latency, 0.999), "us"),
        Metric::new(
            "cpu_efficiency",
            m.initiator_efficiency() / 1e3,
            "KIOPS/core",
        ),
    ];
    let notes = vec![
        format!(
            "repetitions: {} (setup samples {}, after one untimed)",
            cpu.len(),
            setup.len()
        ),
        format!(
            "unscaled: {:.1} CPU ns per block; {kernel:?} calibration op {:.1} CPU ns (reference {reference_ns})",
            median(&raw_cpu),
            median(&cal_cpu)
        ),
        format!(
            "groups_done: {} (latency samples per repetition)",
            m.group_latency.count()
        ),
        format!("fingerprint: {}", fp.line(kind)),
    ];
    (metrics, audit, notes)
}

/// The traced run: reference, telemetry and traced runs, then the
/// layer replays, all inside the benchmark's spans.
fn traced(args: &Args, clock: &Clock) -> (Vec<Metric>, Audit, Vec<String>) {
    let kind = args.kind;
    let run_id = format!("{}-{}-{}", kind.name(), args.seed, std::process::id());
    let mut spans = Spans::new(run_id, *clock);
    let mut audit = Audit::default();
    spans.enter("workload");

    // Each variant runs TRACED_REPS times, interleaved, with (setup,
    // run, audit) spans each; CPU costs are medians over repetitions.
    let mut variant = |spans: &mut Spans, label: &str, trace: bool, telemetry: bool| {
        let mut cfg = kind.config(args.seed);
        cfg.trace = trace.then(TraceConfig::default);
        cfg.telemetry = telemetry.then(TelemetryConfig::default);
        let cluster = spans.span(&format!("setup{label}"), |_| {
            Cluster::new(cfg.clone(), kind.workload())
        });
        let (m, cost) = spans.span(&format!("run{label}"), |_| timed(clock, || cluster.run()));
        spans.span(&format!("audit{label}"), |_| {
            audit.absorb(Audit::of(kind, &m))
        });
        (m, cost.cpu_ns as f64)
    };
    let mut cpu: [Vec<f64>; 3] = Default::default();
    let mut fps = Vec::new();
    let mut last = Vec::new();
    for rep in 0..TRACED_REPS {
        for (i, &(label, trace, telemetry)) in VARIANTS.iter().enumerate() {
            let (m, c) = variant(&mut spans, label, trace, telemetry);
            cpu[i].push(c);
            fps.push(Fingerprint::of(&m));
            if rep + 1 == TRACED_REPS {
                last.push(m);
            }
        }
    }
    let [m, mt, mb]: [RunMetrics; 3] = last.try_into().expect("one run per variant");
    let (plain_cpu, telemetry_cpu, traced_cpu) =
        (median(&cpu[0]), median(&cpu[1]), median(&cpu[2]));
    let cfg = kind.config(args.seed);
    let fp = fps[0];
    if fps.iter().any(|f| *f != fp) {
        audit.fail_all("a repetition or an observed variant changed the simulated run".into());
    }
    check_fingerprint(kind, args.seed, fp, &mut audit);

    let telemetry = mt.telemetry.as_ref().expect("telemetry was on");
    let inflight_peak = telemetry
        .buckets
        .iter()
        .map(|b| b.inflight_peak as usize)
        .max()
        .unwrap_or(0);
    let ctx = replay::Ctx {
        cfg: &cfg,
        m: &m,
        inflight_peak,
        seed: args.seed,
        clock: *clock,
    };
    let layers = spans.span("layers", |s| replay::all(&ctx, s));
    spans.exit();

    let blocks = m.blocks_done.max(1) as f64;
    let cmds = m.commands_sent.max(1) as f64;
    let recovered = m.recoveries.len().max(1) as f64;
    let mut metrics = vec![
        Metric::new("groups_done", m.groups_done as f64, "count"),
        Metric::new(
            "sim.events_per_block",
            m.events_processed as f64 / blocks,
            "count",
        ),
        Metric::new(
            "sim.cpu_ns_per_event",
            plain_cpu / m.events_processed.max(1) as f64,
            "ns",
        ),
        Metric::new(
            "net.packets_per_block",
            m.net.packets as f64 / blocks,
            "count",
        ),
        Metric::new("net.retransmits", m.net.retransmits as f64, "count"),
        Metric::new(
            "net.goodput_ratio",
            1.0 - m.net.retransmits as f64 / m.net.packets.max(1) as f64,
            "ratio",
        ),
        Metric::new("order.commands_per_block", cmds / blocks, "count"),
        Metric::new(
            "order.gate_buffered_ratio",
            m.gate_buffered as f64 / cmds,
            "ratio",
        ),
        Metric::new(
            "recovery.records_scanned",
            m.recoveries
                .iter()
                .map(|r| r.records_scanned)
                .sum::<usize>() as f64,
            "count",
        ),
        Metric::new(
            "recovery.order_rebuild_ms",
            m.recoveries
                .iter()
                .map(|r| r.order_rebuild.as_secs_f64() * 1e3)
                // A float `sum` of nothing is -0.0; start from +0.0.
                .fold(0.0, |a, b| a + b)
                / recovered,
            "ms",
        ),
        Metric::new(
            "integrity.wire_refetched",
            m.integrity.wire_refetched as f64,
            "count",
        ),
        Metric::new(
            "integrity.scrubbed_records",
            m.integrity.scrubbed_records as f64,
            "count",
        ),
        Metric::new("stack.initiator_util", m.initiator_util, "ratio"),
        Metric::new("stack.target_util", m.target_util, "ratio"),
        Metric::new("trace.overhead_ratio", traced_cpu / plain_cpu, "ratio"),
        Metric::new(
            "telemetry.overhead_ratio",
            telemetry_cpu / plain_cpu,
            "ratio",
        ),
    ];
    let breakdown = mb.breakdown.as_ref().expect("tracing was on");
    metrics.extend(waits(breakdown));
    match layers {
        Ok((layer_metrics, attributed_ns)) => {
            metrics.extend(layer_metrics);
            metrics.push(Metric::new(
                "stack.glue_share",
                1.0 - attributed_ns / plain_cpu,
                "ratio",
            ));
        }
        Err(e) => audit.fail_all(format!("layer replay check failed: {e}")),
    }

    let mut notes = vec![format!("fingerprint: {}", fp.line(kind))];
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("spans-{}-{}.json", kind.name(), args.seed));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans.to_json())) {
        Ok(()) => notes.push(format!("spans: {}", path.display())),
        Err(e) => audit.fail_all(format!("writing {}: {e}", path.display())),
    }
    (metrics, audit, notes)
}

/// Virtual-time waits per `StageTrace` segment.
fn waits(b: &LatencyBreakdown) -> Vec<Metric> {
    let seg = |label: &str| {
        let i = LatencyBreakdown::SEGMENT_LABELS
            .iter()
            .position(|l| *l == label)
            .expect("known segment");
        &b.stages[i]
    };
    vec![
        Metric::new(
            "wait.network_p99_us",
            quantile_us(seg("network"), 0.99),
            "us",
        ),
        Metric::new("wait.media_p50_us", quantile_us(seg("media"), 0.5), "us"),
        Metric::new("wait.media_p99_us", quantile_us(seg("media"), 0.99), "us"),
        Metric::new("wait.gate_p99_us", quantile_us(seg("gate"), 0.99), "us"),
        Metric::new("wait.pmr_p99_us", quantile_us(seg("pmr"), 0.99), "us"),
        Metric::new(
            "wait.deliver_p99_us",
            quantile_us(seg("deliver"), 0.99),
            "us",
        ),
    ]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let clock = Clock::start();
    let (metrics, audit, notes) = if args.trace {
        traced(&args, &clock)
    } else {
        untraced(&args, &clock)
    };
    let failed_ratio = audit.failed as f64 / audit.attempted.max(1) as f64;

    println!(
        "perfbench {} seed {} trace {}",
        args.kind.name(),
        args.seed,
        u8::from(args.trace)
    );
    for m in &metrics {
        println!("  {:<30} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("  {:<30} {:>16.4} ratio", "failed_ratio", failed_ratio);
    for n in &notes {
        println!("  {n}");
    }
    for p in &audit.problems {
        println!("  CHECK FAILED: {p}");
    }
    let correct = audit.problems.is_empty() && metrics.iter().all(|m| m.value.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        audit.attempted,
        audit.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
