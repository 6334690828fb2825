//! The `sim_engine` sweep grid and its `BENCH_sim.json` rendering.
//!
//! The sweep runs a fixed Fig. 10-style grid (every ordering mode over
//! the paper's cluster shapes, plus lossy-fabric cells) and records
//! *host* wall-clock and simulator event throughput per cell. The
//! simulated workload is pinned — seeds, thread counts and group counts
//! never vary — so the JSON tracks only how fast the engine itself
//! executes, PR over PR. The regression gate ([`crate::gate`]) compares
//! a committed baseline against a re-run of the same grid.
//!
//! The `micro` bench's timers live here too: this is the one file lint
//! D2 lets read the host clock.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

use rio_ssd::SsdProfile;
use rio_stack::{Cluster, ClusterConfig, FabricConfig, OrderingMode, Workload};

use crate::all_modes;

/// Schema version of `BENCH_sim.json`. Version 3 added the
/// deterministic per-cell `groups` and `group_p99_us` fields the
/// regression gate's tail-latency check reads; version 4 added the
/// per-cell `initiators` count and the `multi_initiator` cells it
/// keys.
pub const SCHEMA: u64 = 4;

/// One cell of the sweep grid: the pinned simulated experiment, before
/// it runs.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Figure family (`fig10a_flash`, `fig10b_optane`, `fig10d_4ssd`,
    /// `lossy_fabric`, `multi_initiator`) — selects the cluster shape.
    pub figure: &'static str,
    /// Ordering engine.
    pub mode: OrderingMode,
    /// Submitting threads / streams (total, across all initiators).
    pub threads: usize,
    /// Initiators sharing the targets (1 = the classic single-driver
    /// shape; `multi_initiator` cells split `threads` evenly across
    /// this many one-tenant initiators over two shared targets).
    pub initiators: usize,
    /// Fabric loss rate (0 = lossless).
    pub loss: f64,
    /// Fabric path count.
    pub paths: usize,
    /// Ordered groups per thread.
    pub groups: u64,
}

/// One measured cell: the spec's identity plus its measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Figure family of the originating [`CellSpec`].
    pub figure: String,
    /// Ordering-mode label ([`OrderingMode::label`]).
    pub mode: String,
    /// Submitting threads / streams (total, across all initiators).
    pub threads: usize,
    /// Initiators sharing the targets.
    pub initiators: usize,
    /// Fabric loss rate.
    pub loss: f64,
    /// Fabric path count.
    pub paths: usize,
    /// Host wall-clock seconds the run took (noisy; machine-dependent).
    pub wall_secs: f64,
    /// Simulation events dispatched (deterministic).
    pub events: u64,
    /// Virtual-time span of the run in seconds (deterministic).
    pub sim_span_secs: f64,
    /// 4 KB blocks completed (deterministic).
    pub blocks_done: u64,
    /// Ordered groups completed (deterministic).
    pub groups: u64,
    /// Virtual-time 99th-percentile group latency in microseconds
    /// (deterministic — the gate's tail-latency check).
    pub group_p99_us: f64,
}

impl Cell {
    /// The identity the gate matches baseline and current cells on.
    pub fn key(&self) -> (&str, &str, usize, usize, u64, usize) {
        // Loss rates are small round decimals; scale to micro-units so
        // the key is Eq/Hash-able without comparing floats.
        (
            &self.figure,
            &self.mode,
            self.threads,
            self.initiators,
            (self.loss * 1e6).round() as u64,
            self.paths,
        )
    }

    /// Human-readable cell identity for reports.
    pub fn key_label(&self) -> String {
        format!(
            "{}/{} t={} init={} loss={} paths={}",
            self.figure, self.mode, self.threads, self.initiators, self.loss, self.paths
        )
    }

    /// Host events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_secs.max(1e-12)
    }
}

/// Measures a fixed machine-speed calibration workload and returns its
/// wall-clock seconds, best of three passes.
///
/// The workload mirrors what the event-driven simulator is bound by —
/// dependent loads scattered over a working set far larger than L3 (a
/// pointer chase across a 64 MB permutation cycle) plus a short ALU
/// hash pass — without sharing any code with the engine, so engine
/// regressions do not move it but host slowness (CPU steal, frequency
/// scaling, memory-bandwidth contention from noisy neighbors) moves it
/// roughly as much as it moves the sweep cells. The gate divides
/// current events/s figures by the calibration ratio before comparing,
/// so a slower machine does not read as an engine regression.
pub fn calibrate() -> f64 {
    // A single-cycle permutation over 8M slots (64 MB): slot i points
    // at the next index to visit. Built by Sattolo's algorithm with a
    // fixed multiplicative generator so the chase is deterministic and
    // every load depends on the previous one.
    const SLOTS: usize = 1 << 23;
    let mut perm: Vec<u32> = (0..SLOTS as u32).collect();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for i in (1..SLOTS).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % i;
        perm.swap(i, j);
    }
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let started = Instant::now();
        // Latency-bound leg: 2M dependent cache-missing loads.
        let mut at = 0u32;
        for _ in 0..(1 << 21) {
            at = perm[at as usize];
        }
        // ALU leg: FNV-1a over the permutation's first MB.
        let mut acc = 0xcbf2_9ce4_8422_2325u64;
        for &w in &perm[..(1 << 18)] {
            acc = (acc ^ w as u64).wrapping_mul(0x100_0000_01b3);
        }
        std::hint::black_box((at, acc));
        best = best.min(started.elapsed().as_secs_f64());
    }
    best
}

/// The full (or smoke-scaled) sweep grid, in run order.
pub fn specs(smoke: bool) -> Vec<CellSpec> {
    // Fixed fig10-style grid: three cluster shapes x four modes x two
    // thread counts. Linux runs synchronously (one group per round
    // trip), so it gets proportionally fewer groups, exactly like the
    // figure benches do.
    let thread_axis: &[usize] = if smoke { &[2] } else { &[2, 8] };
    let scale: u64 = if smoke { 10 } else { 1 };
    let mut specs = Vec::new();
    for &(figure, ssds) in &[
        ("fig10a_flash", 1u64),
        ("fig10b_optane", 1),
        ("fig10d_4ssd", 4),
    ] {
        for mode in all_modes() {
            for &threads in thread_axis {
                let groups = match mode {
                    OrderingMode::LinuxNvmf => 600 / scale,
                    _ => (ssds * 120_000 / threads as u64).max(8_000) / scale,
                };
                specs.push(CellSpec {
                    figure,
                    mode: mode.clone(),
                    threads,
                    initiators: 1,
                    loss: 0.0,
                    paths: 1,
                    groups,
                });
            }
        }
    }
    // Lossy-fabric cells: the fig_lossy_fabric sweep shape, so the
    // trajectory also tracks how fast the engine runs retransmission
    // and multi-path events.
    let lossy_grid: &[(f64, usize)] = if smoke {
        &[(1e-3, 2)]
    } else {
        &[(1e-3, 1), (1e-3, 4), (1e-2, 4)]
    };
    for &(loss, paths) in lossy_grid {
        for mode in all_modes() {
            let groups = match mode {
                OrderingMode::LinuxNvmf => 600 / scale,
                _ => 30_000 / scale,
            };
            specs.push(CellSpec {
                figure: "lossy_fabric",
                mode: mode.clone(),
                threads: 4,
                initiators: 1,
                loss,
                paths,
                groups,
            });
        }
    }
    // Multi-initiator cells: M one-tenant initiators (2 streams each)
    // over two shared lossy targets, so the trajectory also tracks the
    // per-tenant DRR admission and the per-initiator ordering engines.
    let init_axis: &[usize] = if smoke { &[2] } else { &[2, 4] };
    for &initiators in init_axis {
        for mode in all_modes() {
            let groups = match mode {
                OrderingMode::LinuxNvmf => 600 / scale,
                _ => 6_000 / scale,
            };
            specs.push(CellSpec {
                figure: "multi_initiator",
                mode: mode.clone(),
                threads: initiators * 2,
                initiators,
                loss: 1e-3,
                paths: 2,
                groups,
            });
        }
    }
    specs
}

/// The CI-affordable subset of the *full-sized* grid the gate re-runs
/// in `--smoke` mode: one single-SSD figure across every mode, plus the
/// single-path lossy cells. Full-sized cells (unlike the `--smoke`
/// sweep's scaled-down ones) keep the deterministic fields comparable
/// to the committed full baseline.
pub fn smoke_subset(spec: &CellSpec) -> bool {
    (spec.figure == "fig10b_optane" && spec.threads == 2)
        || (spec.figure == "lossy_fabric" && spec.loss == 1e-3 && spec.paths == 1)
        || (spec.figure == "multi_initiator" && spec.initiators == 2)
}

/// Runs one cell and measures it: the deterministic simulation runs
/// three times and the *fastest* wall clock is kept. Host jitter
/// (scheduler stalls, CPU steal on shared machines) is one-sided — it
/// only ever makes a run slower — so the minimum over repeats is the
/// stable estimator of engine speed, on both the baseline-writing and
/// the gate-re-running side.
pub fn run_spec(spec: &CellSpec) -> Cell {
    let mut cell = run_spec_once(spec);
    for _ in 0..2 {
        let repeat = run_spec_once(spec);
        debug_assert_eq!(repeat.events, cell.events, "sim must be deterministic");
        if repeat.wall_secs < cell.wall_secs {
            cell = repeat;
        }
    }
    cell
}

fn run_spec_once(spec: &CellSpec) -> Cell {
    let mut cfg = match spec.figure {
        "fig10a_flash" => {
            ClusterConfig::single_ssd(spec.mode.clone(), SsdProfile::pm981(), spec.threads)
        }
        "fig10b_optane" => {
            ClusterConfig::single_ssd(spec.mode.clone(), SsdProfile::optane905p(), spec.threads)
        }
        "fig10d_4ssd" => ClusterConfig::four_ssd_two_targets(spec.mode.clone(), spec.threads),
        "lossy_fabric" => {
            let mut cfg =
                ClusterConfig::single_ssd(spec.mode.clone(), SsdProfile::optane905p(), spec.threads);
            cfg.max_inflight_per_stream = 64;
            cfg
        }
        "multi_initiator" => ClusterConfig::multi_initiator(
            spec.mode.clone(),
            spec.initiators,
            spec.threads / spec.initiators,
            2,
        ),
        other => panic!("unknown sweep figure {other}"),
    };
    if spec.loss > 0.0 {
        cfg.net = FabricConfig::lossy(spec.loss, spec.paths);
    }
    let wl = Workload::random_4k(spec.threads, spec.groups);
    let started = Instant::now();
    let m = Cluster::new(cfg, wl).run();
    let wall_secs = started.elapsed().as_secs_f64();
    Cell {
        figure: spec.figure.to_string(),
        mode: spec.mode.label().to_string(),
        threads: spec.threads,
        initiators: spec.initiators,
        loss: spec.loss,
        paths: spec.paths,
        wall_secs,
        events: m.events_processed,
        sim_span_secs: m.span.as_secs_f64(),
        blocks_done: m.blocks_done,
        groups: m.groups_done,
        group_p99_us: m.group_latency.quantile(0.99).as_micros_f64(),
    }
}

/// Runs the whole grid.
pub fn sweep(smoke: bool) -> Vec<Cell> {
    specs(smoke).iter().map(run_spec).collect()
}

fn json_escape_free(s: &str) -> &str {
    // Labels are static identifiers without quotes or backslashes.
    debug_assert!(!s.contains('"') && !s.contains('\\'));
    s
}

/// Renders the cells as the `BENCH_sim.json` document (schema
/// [`SCHEMA`]). `calib_secs` is the [`calibrate`] measurement taken
/// alongside the sweep.
pub fn render_json(cells: &[Cell], smoke: bool, calib_secs: f64) -> String {
    let total_wall: f64 = cells.iter().map(|c| c.wall_secs).sum();
    let total_events: u64 = cells.iter().map(|c| c.events).sum();
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": {SCHEMA},");
    let _ = writeln!(out, "  \"harness\": \"sim_engine\",");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(out, "  \"calib_secs\": {calib_secs:.6},");
    let _ = writeln!(out, "  \"total_wall_secs\": {total_wall:.6},");
    let _ = writeln!(out, "  \"total_events\": {total_events},");
    let _ = writeln!(
        out,
        "  \"events_per_sec\": {:.0},",
        total_events as f64 / total_wall.max(1e-12)
    );
    out.push_str("  \"figures\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"figure\": \"{}\", \"mode\": \"{}\", \"threads\": {}, \
             \"initiators\": {}, \"loss\": {}, \"paths\": {}, \
             \"wall_secs\": {:.6}, \"events\": {}, \"events_per_sec\": {:.0}, \
             \"sim_span_secs\": {:.6}, \"blocks_done\": {}, \
             \"groups\": {}, \"group_p99_us\": {:.3}}}",
            json_escape_free(&c.figure),
            json_escape_free(&c.mode),
            c.threads,
            c.initiators,
            c.loss,
            c.paths,
            c.wall_secs,
            c.events,
            c.events_per_sec(),
            c.sim_span_secs,
            c.blocks_done,
            c.groups,
            c.group_p99_us,
        );
        out.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Timed samples per microbenchmark.
const MICRO_SAMPLES: usize = 20;
/// Calls timed one by one in each sample of [`micro_batched`].
const MICRO_BATCH: u32 = 16;

/// Times `routine` for the `micro` bench. After an untimed warm-up of a
/// quarter of `measure`, each sample runs the call count that fills its
/// share of `measure`, calibrated on one first call. Prints `name` with
/// the minimum, mean and maximum ns per call and returns the mean.
pub fn micro<O>(name: &str, measure: Duration, mut routine: impl FnMut() -> O) -> f64 {
    let first = Instant::now();
    black_box(routine());
    let once = first.elapsed().as_secs_f64().max(1e-9);
    let slice = measure.as_secs_f64() / MICRO_SAMPLES as f64;
    let iters = (slice / once).clamp(1.0, 1e7) as u64;
    let warm_until = Instant::now() + measure / 4;
    while Instant::now() < warm_until {
        black_box(routine());
    }
    let samples: Vec<f64> = (0..MICRO_SAMPLES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    print_micro(name, &samples)
}

/// [`micro`] for a routine that consumes its input: `setup` builds
/// each call's input untimed, and each sample times 16 calls one by
/// one.
pub fn micro_batched<I, O>(
    name: &str,
    measure: Duration,
    mut setup: impl FnMut() -> I,
    mut routine: impl FnMut(I) -> O,
) -> f64 {
    let warm_until = Instant::now() + measure / 4;
    while Instant::now() < warm_until {
        black_box(routine(setup()));
    }
    let samples: Vec<f64> = (0..MICRO_SAMPLES)
        .map(|_| {
            let mut total = Duration::ZERO;
            for _ in 0..MICRO_BATCH {
                let input = setup();
                let start = Instant::now();
                black_box(routine(input));
                total += start.elapsed();
            }
            total.as_nanos() as f64 / MICRO_BATCH as f64
        })
        .collect();
    print_micro(name, &samples)
}

/// Prints one microbenchmark line and returns the mean ns per call.
fn print_micro(name: &str, samples: &[f64]) -> f64 {
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let max = samples.iter().copied().fold(0.0, f64::max);
    println!("{name:<32} time: [{min:>10.1} ns {mean:>10.1} ns {max:>10.1} ns]/iter");
    mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_timers_report_positive_means() {
        let measure = Duration::from_millis(8);
        assert!(micro("sum_1k", measure, || (0..black_box(1000u64)).sum::<u64>()) > 0.0);
        let sum = |v: Vec<u64>| v.into_iter().sum::<u64>();
        assert!(micro_batched("batched", measure, || vec![1u64; 64], sum) > 0.0);
    }

    #[test]
    fn grid_shape_is_pinned() {
        // 3 figures x 4 modes x 2 threads + 3 lossy grids x 4 modes
        // + 2 initiator counts x 4 modes.
        assert_eq!(specs(false).len(), 44);
        // Smoke: 3 x 4 x 1 + 1 x 4 + 1 x 4.
        assert_eq!(specs(true).len(), 20);
        let subset: Vec<CellSpec> = specs(false).into_iter().filter(smoke_subset).collect();
        assert_eq!(
            subset.len(),
            12,
            "gate smoke subset: fig10b t2 + lossy 1-path + 2-initiator"
        );
        assert!(subset.iter().all(|s| s.groups >= 600), "full-sized cells only");
        assert!(
            subset.iter().any(|s| s.initiators > 1),
            "multi-initiator cells must be regression-gated in CI"
        );
    }

    #[test]
    fn render_is_valid_schema_4() {
        let cell = Cell {
            figure: "fig10b_optane".into(),
            mode: "RIO".into(),
            threads: 2,
            initiators: 1,
            loss: 0.0,
            paths: 1,
            wall_secs: 0.5,
            events: 1_000,
            sim_span_secs: 0.25,
            blocks_done: 400,
            groups: 100,
            group_p99_us: 123.456,
        };
        let json = render_json(&[cell], false, 0.05);
        assert!(json.contains("\"schema\": 4"));
        assert!(json.contains("\"calib_secs\": 0.050000"));
        assert!(json.contains("\"initiators\": 1"));
        assert!(json.contains("\"groups\": 100"));
        assert!(json.contains("\"group_p99_us\": 123.456"));
        assert!(json.contains("\"events_per_sec\": 2000"));
    }

    #[test]
    fn calibration_is_quick_and_positive() {
        let c = calibrate();
        assert!(c > 0.0 && c < 5.0, "calibration took {c}s");
    }
}
