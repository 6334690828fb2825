//! The four workloads, the run audit, and the deterministic
//! fingerprint each run is checked against.
//!
//! All four are closed loops in one process on one simulation thread:
//! every stream submits its next group when its in-flight window has
//! room, so a slower simulator receives the same work, later.

use rio_sim::SimTime;
use rio_stack::{
    ClusterConfig, FabricConfig, FaultEvent, FaultKind, FaultPlan, OrderingMode, RunMetrics,
    Workload,
};

use crate::measure::{quantile_us, Kernel};

/// Seed used when `--seed` is not given; `fingerprints.txt` records
/// each workload's fingerprint under it.
pub const DEFAULT_SEED: u64 = 42;

/// Streams (one submitter thread each) of the fig. 10(d)-shaped runs.
const STREAMS: usize = 8;
/// Random 4 KB ordered writes per stream in one `rio_clean` or
/// `horae_clean` run.
const CLEAN_GROUPS_PER_STREAM: u64 = 30_000;
/// Writes per stream in one `integrity` run (2 initiators x 2 streams).
const INTEGRITY_GROUPS_PER_STREAM: u64 = 4_000;
/// fsync-append operations per stream in one `fsync_crash` run.
const FSYNC_OPS_PER_STREAM: u64 = 2_000;
/// Virtual milliseconds at which `fsync_crash` power-fails one
/// target, alternating targets 0 and 1. The fault-free run spans
/// about 11.5 s of virtual time, so the four faults spread over it.
const FSYNC_FAULTS_AT_MS: [u64; 4] = [2_000, 4_500, 7_000, 9_500];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// RIO with merging on the fig. 10(d) topology, lossless.
    RioClean,
    /// The same traffic under HORAE's synchronous control path.
    HoraeClean,
    /// Two tenants under DRR, integrity on, wire corruption.
    Integrity,
    /// fsync-append journal under 1% loss with four target crashes.
    FsyncCrash,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 4] = [
        Kind::RioClean,
        Kind::HoraeClean,
        Kind::Integrity,
        Kind::FsyncCrash,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::RioClean => "rio_clean",
            Kind::HoraeClean => "horae_clean",
            Kind::Integrity => "integrity",
            Kind::FsyncCrash => "fsync_crash",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The cluster configuration of one run under `seed`.
    pub fn config(self, seed: u64) -> ClusterConfig {
        let rio = OrderingMode::Rio { merge: true };
        let mut cfg = match self {
            Kind::RioClean => ClusterConfig::four_ssd_two_targets(rio, STREAMS),
            Kind::HoraeClean => ClusterConfig::four_ssd_two_targets(OrderingMode::Horae, STREAMS),
            Kind::Integrity => {
                let mut c = ClusterConfig::multi_initiator(rio, 2, 2, 2);
                c.integrity = true;
                c.net = FabricConfig {
                    corrupt_rate: 1e-3,
                    paths: 2,
                    ..FabricConfig::default()
                };
                c
            }
            Kind::FsyncCrash => {
                let mut c = ClusterConfig::four_ssd_two_targets(rio, STREAMS);
                c.net = FabricConfig::lossy(1e-2, 4);
                c.faults = FaultPlan {
                    events: FSYNC_FAULTS_AT_MS
                        .iter()
                        .enumerate()
                        .map(|(i, &ms)| FaultEvent {
                            at: SimTime::from_nanos(ms * 1_000_000),
                            kind: FaultKind::PowerFail {
                                targets: vec![i % 2],
                            },
                            resume: true,
                        })
                        .collect(),
                };
                c
            }
        };
        cfg.seed = seed;
        cfg
    }

    /// The workload script of one run.
    pub fn workload(self) -> Workload {
        match self {
            Kind::RioClean | Kind::HoraeClean => {
                Workload::random_4k(STREAMS, CLEAN_GROUPS_PER_STREAM)
            }
            Kind::Integrity => Workload::random_4k(4, INTEGRITY_GROUPS_PER_STREAM),
            Kind::FsyncCrash => Workload::fsync_append(STREAMS, FSYNC_OPS_PER_STREAM),
        }
    }

    /// The calibration kernel this workload's host times are divided
    /// by. `integrity` spends most of its time in byte-wise CRC-32C,
    /// which the core bounds, so the memory kernel would over-correct
    /// it; the others spend theirs in the event loop.
    pub fn calibration(self) -> Kernel {
        match self {
            Kind::Integrity => Kernel::Compute,
            _ => Kernel::Memory,
        }
    }

    /// Operations one run attempts: groups for the random-write
    /// workloads, fsync operations for `fsync_crash`.
    pub fn attempted(self) -> u64 {
        let w = self.workload();
        w.threads as u64 * w.groups_per_thread
    }

    /// Operations `m` delivered, counted like [`Kind::attempted`].
    pub fn delivered(self, m: &RunMetrics) -> u64 {
        match self {
            Kind::FsyncCrash => m.ops_done,
            _ => m.groups_done,
        }
    }
}

/// The deterministic identity of one run: a pure function of the
/// configuration and the seed, so it must repeat across repetitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Simulation events dispatched.
    pub events: u64,
    /// 4 KB blocks delivered.
    pub blocks: u64,
    /// Virtual span of the run, in ns.
    pub span_ns: u64,
    /// Interpolated group-latency p99.9, in virtual ns.
    pub p999_ns: u64,
}

impl Fingerprint {
    /// The fingerprint of `m`.
    pub fn of(m: &RunMetrics) -> Self {
        Fingerprint {
            events: m.events_processed,
            blocks: m.blocks_done,
            span_ns: m.span.as_nanos(),
            p999_ns: (quantile_us(&m.group_latency, 0.999) * 1e3).round() as u64,
        }
    }

    /// The fingerprint recorded for `kind` under [`DEFAULT_SEED`].
    pub fn recorded(kind: Kind) -> Option<Self> {
        include_str!("../fingerprints.txt")
            .lines()
            .filter(|l| !l.starts_with('#'))
            .find_map(|l| {
                let f: Vec<&str> = l.split_whitespace().collect();
                if f.len() != 5 || f[0] != kind.name() {
                    return None;
                }
                let n = |i: usize| f[i].parse::<u64>().ok();
                Some(Fingerprint {
                    events: n(1)?,
                    blocks: n(2)?,
                    span_ns: n(3)?,
                    p999_ns: n(4)?,
                })
            })
    }

    /// The `fingerprints.txt` line for `kind`.
    pub fn line(&self, kind: Kind) -> String {
        format!(
            "{} {} {} {} {}",
            kind.name(),
            self.events,
            self.blocks,
            self.span_ns,
            self.p999_ns
        )
    }
}

/// The outcome of checking one run from outside.
#[derive(Debug, Clone, Default)]
pub struct Audit {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check: undelivered ones, or every
    /// operation of a run whose ledger, media or recovery check failed.
    pub failed: u64,
    /// What did not hold, one line each.
    pub problems: Vec<String>,
}

impl Audit {
    /// Checks `m`, one run of `kind`.
    pub fn of(kind: Kind, m: &RunMetrics) -> Self {
        let attempted = kind.attempted();
        let delivered = kind.delivered(m);
        let planned = kind.config(DEFAULT_SEED).faults.events.len();
        let i = &m.integrity;
        // Checks whose failure leaves every operation of the run unproven.
        let whole_run = [
            (
                i.balanced(),
                format!("integrity ledger out of balance: {i:?}"),
            ),
            (
                i.media_unrepairable == 0,
                format!("{} media records unrepairable", i.media_unrepairable),
            ),
            (
                m.recoveries.len() == planned,
                format!(
                    "{} recoveries for {planned} planned faults",
                    m.recoveries.len()
                ),
            ),
        ];
        let mut problems: Vec<String> = whole_run
            .into_iter()
            .filter(|(ok, _)| !ok)
            .map(|(_, what)| format!("{}: {what}", kind.name()))
            .collect();
        let failed = if problems.is_empty() {
            attempted.saturating_sub(delivered)
        } else {
            attempted
        };
        if delivered != attempted {
            problems.push(format!(
                "{}: delivered {delivered} of {attempted} operations",
                kind.name()
            ));
        }
        Audit {
            attempted,
            failed,
            problems,
        }
    }

    /// Marks every operation failed for a problem found outside the
    /// run itself (a fingerprint mismatch).
    pub fn fail_all(&mut self, problem: String) {
        self.failed = self.attempted;
        self.problems.push(problem);
    }

    /// Adds `other`'s counts and problems to this audit.
    pub fn absorb(&mut self, other: Audit) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
    }
}
