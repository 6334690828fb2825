//! The event-driven cluster: initiator, targets, and the four ordering
//! engines over one shared data path.
//!
//! Every software step charges a per-core FIFO resource; every wire and
//! device time comes from the passive `rio-net`/`rio-ssd` models. The
//! event heap only sequences *causality*: command arrival at the
//! target, SSD completion, completion arrival back at the initiator,
//! and thread wake-ups.
//!
//! Data path of one ordered write under Rio (Fig. 4):
//!
//! ```text
//! thread: sequencer.submit → ORDER queue → [batch flush] → merge →
//!         stripe/split → stamp_dispatch → SEND (stream-pinned QP) ───┐
//! target: RECV ─ gate.arrive ─ PMR append ─ RDMA READ data ─ SSD    │
//!         write [─ FLUSH] ─ persist toggle ─ completion SEND ───────┘
//! initiator: IRQ → fragment rejoin → in-order completer → deliver
//! ```

use std::collections::VecDeque;

use rio_block::StripedVolume;
use rio_net::{Fabric, Nic};
use rio_order::attr::{BlockRange, OrderingAttr, Seq, ServerId, StreamId};
use rio_order::pmrlog::{PmrLog, SlotRef};
use rio_order::scheduler::{OrderQueue, OrderQueueConfig};
use rio_order::{InOrderCompleter, Sequencer, SubmissionGate};
use rio_proto::PayloadDigest;
use rio_sim::{EventHeap, Histogram, SimRng, SimTime, Slab};
use rio_ssd::Ssd;

use crate::config::{ClusterConfig, FaultKind, OrderingMode};
use crate::cpu::CoreSet;
use crate::metrics::{EpochMetrics, IntegrityMetrics, RecoveryMetrics, RunMetrics};
use crate::telemetry::TelemetrySampler;
use crate::trace::{StageTrace, TRACE_NONE};
use crate::workload::{FsyncStage, GroupSpec, Workload};

mod recovery;
mod submit;
mod target;
mod transport;

#[cfg(test)]
mod tests;

/// Simulation events.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// A thread (re)considers submitting work.
    Resume(usize),
    /// A command SEND was delivered at its target.
    CmdArrive(u64),
    /// A go-back-N timeout fired on one leg of a command; resend the
    /// window.
    Resend(u64, Leg),
    /// A command is ready for SSD submission (gate passed + data in).
    SsdSubmit(u64),
    /// A command's embedded FLUSH may be submitted.
    SsdFlushSubmit(u64),
    /// A command's SSD write finished.
    SsdWriteDone(u64),
    /// A command's embedded FLUSH finished.
    SsdFlushDone(u64),
    /// A completion SEND was delivered at the initiator.
    CmdComplete(u64),
    /// A Horae control message was delivered at its target.
    CtrlArrive { target: usize, thread: usize },
    /// A Horae control acknowledgement reached the initiator.
    CtrlAck { thread: usize },
    /// A scheduled fault fires (index into the config's `FaultPlan`).
    Fault(u32),
}

/// The three wire legs of one command, run strictly in sequence: the
/// capsule to the target, the target's RDMA READ of the data, and the
/// completion capsule back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Leg {
    Capsule,
    DataPull,
    Completion,
}

/// NVMe-oF command capsule size on the wire (64 B SQE + headers).
const CMD_CAPSULE_BYTES: u64 = 96;
/// Completion capsule size on the wire.
const COMPLETION_BYTES: u64 = 32;

/// Command kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CmdKind {
    Write,
    Flush,
}

/// One in-flight NVMe-oF command.
#[derive(Debug)]
struct Cmd {
    kind: CmdKind,
    thread: usize,
    target: usize,
    ssd: usize,
    qp: usize,
    phys: BlockRange,
    tag: u64,
    /// Rio ordering attribute (None on baseline paths).
    attr: Option<OrderingAttr>,
    /// Embedded FLUSH (fsync-style final request).
    flush_embedded: bool,
    /// Initiator-side unit this command belongs to.
    unit: u64,
    /// When the pulled data is in target memory (`FAR_FUTURE` until the
    /// pull — including any retransmissions — completes).
    data_ready: SimTime,
    /// When the target driver finished its CPU work and, for Rio, the
    /// gate released the command (`FAR_FUTURE` until then). The SSD
    /// submission fires once both this and `data_ready` are known.
    driver_ready: SimTime,
    /// Go-back-N bookkeeping for the leg currently on the wire
    /// (capsule → data pull → completion run strictly in sequence):
    /// packets still undelivered, and the leg's total message size.
    retx_pkts: u32,
    retx_bytes: u64,
    /// Whether the parked leg's failure was a detected corruption (as
    /// opposed to a plain drop) — the latest failure wins.
    retx_corrupt: bool,
    /// CRC-32C over the command's payload seeds, stamped at submission
    /// on integrity runs ([`PayloadDigest::NONE`] otherwise).
    digest: PayloadDigest,
    /// PMR log slot holding this command's ordering record.
    slot: Option<SlotRef>,
    /// Stage-trace slot of this command ([`TRACE_NONE`] when tracing
    /// is off; assigned by `send_cmd`).
    trace: u32,
}

impl Cmd {
    /// A command about to be posted: nothing on the wire yet, not
    /// through the gate, no PMR slot or trace. Writes add their tag,
    /// unit, ordering attribute, embedded FLUSH and payload digest.
    fn new(
        kind: CmdKind,
        thread: usize,
        target: usize,
        ssd: usize,
        qp: usize,
        phys: BlockRange,
    ) -> Cmd {
        Cmd {
            kind,
            thread,
            target,
            ssd,
            qp,
            phys,
            tag: 0,
            attr: None,
            flush_embedded: false,
            unit: u64::MAX,
            data_ready: SimTime::FAR_FUTURE,
            driver_ready: SimTime::FAR_FUTURE,
            retx_pkts: 0,
            retx_bytes: 0,
            retx_corrupt: false,
            digest: PayloadDigest::NONE,
            slot: None,
            trace: TRACE_NONE,
        }
    }
}

/// One logical dispatch unit: a (possibly merged) request whose
/// fragments all must complete before the unit completes.
#[derive(Debug)]
struct Unit {
    /// Original logical attributes to unroll into the completer (Rio).
    parts: Vec<OrderingAttr>,
    /// Orderless/baseline accounting: groups and blocks this unit
    /// represents.
    plain_groups: u64,
    blocks: u32,
    fragments_total: usize,
    fragments_done: usize,
    submitted: SimTime,
}

/// Per-group bookkeeping for latency and window accounting (Rio).
#[derive(Debug, Clone, Copy)]
struct GroupInfo {
    blocks: u32,
    submitted: SimTime,
    thread: usize,
    stage: Option<FsyncStage>,
}

/// Dense per-stream store of [`GroupInfo`].
///
/// Group sequence numbers are allocated contiguously per stream and
/// both inserted (at submit) and removed (at in-order delivery) in
/// ascending order, so the map `(stream, seq) -> GroupInfo` collapses
/// into one ring per stream: `buf[0]` is group `head_seq`, lookups are
/// index arithmetic, and no hashing happens on the event path.
#[derive(Debug, Default)]
struct GroupInfoRing {
    /// Sequence number of `buf[0]` (meaningful only when non-empty).
    head_seq: u32,
    buf: VecDeque<GroupInfo>,
}

impl GroupInfoRing {
    /// Inserts the info for `seq`; sequences arrive in order.
    fn insert(&mut self, seq: u32, info: GroupInfo) {
        if self.buf.is_empty() {
            self.head_seq = seq;
        } else {
            debug_assert_eq!(seq, self.head_seq + self.buf.len() as u32);
        }
        self.buf.push_back(info);
    }

    /// Looks up the info for `seq`, if still live.
    fn get(&self, seq: u32) -> Option<&GroupInfo> {
        if self.buf.is_empty() || seq < self.head_seq {
            return None;
        }
        self.buf.get((seq - self.head_seq) as usize)
    }

    /// Removes the info for `seq`. Delivery is in-order per stream, so
    /// `seq` is always the ring head.
    fn remove(&mut self, seq: u32) -> Option<GroupInfo> {
        if self.buf.is_empty() || seq != self.head_seq {
            return None;
        }
        self.head_seq += 1;
        self.buf.pop_front()
    }
}

/// Stage-mark slot order (mirrors `RunMetrics::stage_dispatch`).
const STAGE_BY_INDEX: [FsyncStage; 3] = [FsyncStage::Data, FsyncStage::Meta, FsyncStage::Commit];

/// Slot index of an fsync stage in `stage_marks` / `stage_dispatch`.
fn stage_index(stage: FsyncStage) -> usize {
    match stage {
        FsyncStage::Data => 0,
        FsyncStage::Meta => 1,
        FsyncStage::Commit => 2,
    }
}

/// Synchronous-mode thread stage (Linux NVMe-oF).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SyncStage {
    Idle,
    AwaitWrite,
    AwaitFlush { remaining: usize },
}

/// Per-thread state.
struct ThreadState {
    /// Owning initiator (index into `Cluster::initiators`).
    init: usize,
    core: usize,
    stream: StreamId,
    /// Next script unit (op) index to generate.
    next_op: u64,
    /// Generated-but-unsubmitted groups of the current/pending ops.
    queue: VecDeque<GroupSpec>,
    inflight: usize,
    area_start: u64,
    area_blocks: u64,
    rng: SimRng,
    parked: bool,
    done_submitting: bool,
    sync_stage: SyncStage,
    /// The thread issued a sync point and waits for inflight == 0.
    syncing: bool,
    /// Start of the current fsync op (D submission).
    op_start: SimTime,
    /// Dispatch timestamps of the current op's stages.
    stage_marks: [Option<SimTime>; 3],
    /// Linux mode: whether the in-flight group needs a FLUSH leg and
    /// whether it ends an op.
    cur_flush_leg: bool,
    cur_sync_after: bool,
    /// Horae: group specs whose control ack is pending / data not yet
    /// dispatched.
    ctrl_pending: VecDeque<(GroupSpec, SimTime)>,
    ctrl_outstanding: bool,
    /// Horae: earliest instant the next control post may issue (the
    /// serialized ordering-layer gap).
    ctrl_gate_until: SimTime,
    /// Rio under fault injection: submitted-but-undelivered groups, in
    /// sequence order, so a recovery can redeliver the durable prefix
    /// and re-queue the rolled-back tail. Empty when no faults are
    /// configured.
    replay: VecDeque<(u32, GroupSpec)>,
}

/// One initiator host: its driver cores, fabric NIC, sequencer and
/// in-order completer, plus the slice of the global stream space it
/// owns. Stream ids are global — initiator `i` owns
/// `[stream_base, stream_base + n_streams)` — so every structure
/// keyed by (global) stream is implicitly keyed by (initiator,
/// stream) with no id translation anywhere on the event path.
struct Initiator {
    cores: CoreSet,
    nic: Nic,
    sequencer: Sequencer,
    completer: InOrderCompleter,
    /// Tenant this initiator bills to.
    tenant: u32,
    /// QoS weight its tenant share carries in the target DRR.
    weight: u32,
    /// First global stream id of this initiator's slice.
    stream_base: usize,
    /// Streams in this initiator's slice.
    n_streams: usize,
    // Per-initiator accounting for the RunMetrics breakdown.
    groups_done: u64,
    blocks_done: u64,
    commands_sent: u64,
    gate_buffered: u64,
    group_latency: Histogram,
    finished_at: SimTime,
}

/// Blocks of SSD service one DRR weight unit earns per round.
const DRR_QUANTUM_BLOCKS: u64 = 8;
/// Admitted-but-incomplete writes one target sustains before its DRR
/// holds commands back. Small on purpose: fairness needs the backlog
/// to queue *here*, where the scheduler arbitrates, not inside the
/// device.
const DRR_OUTSTANDING_CAP: usize = 4;

/// Target-side deficit-round-robin scheduler over per-tenant queues
/// at the SSD admission point. Only instantiated when more than one
/// distinct tenant shares the cluster — single-tenant runs never
/// construct it, keeping them byte-identical to the pre-tenancy path.
struct DrrSched {
    /// Per-tenant DRR weight, indexed like `Cluster::tenants`.
    weights: Vec<u32>,
    /// Per-tenant deficit counters, in blocks.
    deficits: Vec<u64>,
    /// Per-tenant FIFO of (command id, enqueue instant, blocks).
    queues: Vec<VecDeque<(u64, SimTime, u32)>>,
    /// Round-robin cursor over tenants.
    cursor: usize,
    /// Whether the cursor just arrived at its queue (quantum not yet
    /// granted for this visit). A visit spans many pump calls — the
    /// outstanding cap rations slots, not rounds — so the flag keeps
    /// one quantum per visit no matter how the pumping interleaves.
    fresh: bool,
    /// Writes admitted to this target's SSDs and not yet completed.
    outstanding: usize,
}

impl DrrSched {
    fn new(weights: Vec<u32>) -> Self {
        let n = weights.len();
        DrrSched {
            weights,
            deficits: vec![0; n],
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            cursor: 0,
            fresh: true,
            outstanding: 0,
        }
    }

    fn is_empty(&self) -> bool {
        self.queues.iter().all(|q| q.is_empty())
    }

    /// Forgets every queued command and outstanding write (a crash
    /// killed them all; their slab ids must never resolve again).
    fn clear(&mut self) {
        for q in &mut self.queues {
            q.clear();
        }
        for d in &mut self.deficits {
            *d = 0;
        }
        self.fresh = true;
        self.outstanding = 0;
    }
}

/// One target server.
struct Target {
    cores: CoreSet,
    nic: Nic,
    gate: SubmissionGate,
    ssds: Vec<Ssd>,
    log: Option<PmrLog>,
    /// Per-tenant fair scheduler at the SSD admission point (`None`
    /// unless the run has more than one distinct tenant).
    drr: Option<DrrSched>,
    /// Live PMR slots per stream (indexed by stream id), append order.
    slots: Vec<VecDeque<(u32, SlotRef)>>,
    /// Whether a stream ever appended a PMR slot on this target; the
    /// superblock head mark is only maintained for such streams.
    slot_seen: Vec<bool>,
    /// Last release (head-seq) applied per stream.
    applied_release: Vec<u32>,
}

impl Target {
    fn apply_pmr_write(&mut self, w: &rio_order::pmrlog::PmrWrite) {
        self.ssds[0].pmr_mut().mmio_write(w.offset, &w.bytes);
    }
}

/// Copy-able discriminant of [`OrderingMode`], hoisted out of the
/// per-event dispatch so handlers never touch (or clone) the config
/// enum on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ModeKind {
    Rio,
    Orderless,
    Horae,
    Linux,
}

impl ModeKind {
    fn of(mode: &OrderingMode) -> Self {
        match mode {
            OrderingMode::Rio { .. } => ModeKind::Rio,
            OrderingMode::Orderless => ModeKind::Orderless,
            OrderingMode::Horae => ModeKind::Horae,
            OrderingMode::LinuxNvmf => ModeKind::Linux,
        }
    }
}

/// The simulated cluster.
pub struct Cluster {
    cfg: ClusterConfig,
    mode_kind: ModeKind,
    workload: Workload,
    events: EventHeap<Event>,
    fabric: Fabric,
    /// The initiator hosts (exactly one on the legacy single-initiator
    /// path, which is byte-identical to the pre-multi-initiator code).
    initiators: Vec<Initiator>,
    volume: StripedVolume,
    /// Distinct tenant ids, in order of first appearance across the
    /// effective initiator list.
    tenants: Vec<u32>,
    /// Per-tenant DRR admission-wait histograms (indexed like
    /// `tenants`; all empty when the scheduler is inert).
    tenant_gate_wait: Vec<Histogram>,
    order_queues: Vec<OrderQueue>,
    released_through: Vec<u32>,
    threads: Vec<ThreadState>,
    targets: Vec<Target>,
    /// In-flight commands, keyed by generational slab ids carried in
    /// event payloads — no hashing on the event path.
    cmds: Slab<Cmd>,
    /// In-flight dispatch units, same keying scheme as `cmds`.
    units: Slab<Unit>,
    /// Per-stream group bookkeeping rings.
    group_info: Vec<GroupInfoRing>,
    /// Scratch buffer for gate releases (reused across events).
    gate_scratch: Vec<(OrderingAttr, u64)>,
    /// Scratch buffer for completer deliveries (reused across events).
    delivered_scratch: Vec<Seq>,
    /// Scratch buffers for the dispatch path (volume mapping, chunking,
    /// slicing and splitting), reused across units.
    map_scratch: Vec<rio_block::Extent>,
    extent_scratch: Vec<rio_block::Extent>,
    slice_scratch: Vec<BlockRange>,
    frag_scratch: Vec<OrderingAttr>,
    /// Round-robin cursor for the scatter (non-pinned) QP policy.
    scatter_qp: u64,
    // Metrics.
    groups_done: u64,
    blocks_done: u64,
    ops_done: u64,
    commands_sent: u64,
    ctrl_sent: u64,
    events_processed: u64,
    group_latency: Histogram,
    op_latency: Histogram,
    stage_lat: [rio_sim::MeanAccum; 4],
    /// Per-command stage recorder (`None` = tracing off, zero cost).
    trace: Option<StageTrace>,
    /// Virtual-time series sampler (`None` = telemetry off, zero cost).
    telemetry: Option<TelemetrySampler>,
    last_completion: SimTime,
    /// Whether end-to-end data integrity is modelled this run: payload
    /// digests stamped at submission, real payload bytes at the device,
    /// sealed media, and a scrub pass in every recovery.
    integrity: bool,
    /// Media-side integrity ledger (wire-side counters come from the
    /// NICs at snapshot time).
    integ: IntegrityMetrics,
    /// Whether per-thread replay buffers are maintained (fault plans).
    track_replay: bool,
    /// Next fault in `cfg.faults` that has not fired yet.
    fault_cursor: usize,
    /// One breakdown per fault survived so far.
    recoveries: Vec<RecoveryMetrics>,
    /// Closed crash-free epochs (the open one is closed by `metrics`).
    epochs: Vec<EpochMetrics>,
    /// Start of the open epoch and the counter bases at that instant.
    epoch_start: SimTime,
    epoch_groups_base: u64,
    epoch_blocks_base: u64,
    epoch_ops_base: u64,
}

impl Cluster {
    /// Builds a cluster for `cfg` running `workload`.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent configuration (zero threads, streams
    /// fewer than threads, targets without SSDs, no QPs per target, or
    /// a zero in-flight window).
    pub fn new(cfg: ClusterConfig, workload: Workload) -> Self {
        assert!(workload.threads > 0, "need at least one thread");
        assert!(cfg.qps_per_target >= 1, "need at least one QP per target");
        assert!(
            cfg.max_inflight_per_stream >= 1,
            "need an in-flight window of at least one group per stream"
        );
        let init_cfgs = cfg.effective_initiators();
        let total_streams = cfg.total_streams();
        if cfg.initiators.is_empty() {
            assert!(
                cfg.streams >= workload.threads,
                "need one stream per thread"
            );
        } else {
            // Multi-initiator runs bind one thread per stream: thread i
            // owns global stream i, partitioned across initiators by
            // their configured stream counts.
            assert!(
                init_cfgs.iter().all(|ic| ic.streams > 0),
                "every initiator needs at least one stream"
            );
            assert_eq!(
                workload.threads, total_streams,
                "multi-initiator runs need exactly one thread per stream"
            );
        }
        assert!(!cfg.targets.is_empty(), "need at least one target");
        if !cfg.faults.events.is_empty() {
            // Pure packet-corruption faults only retune the fabric and
            // work under any mode; everything else runs the recovery
            // machinery, which only Rio's persisted attributes support.
            let needs_recovery = cfg
                .faults
                .events
                .iter()
                .any(|e| !matches!(e.kind, FaultKind::PacketCorrupt { .. }));
            assert!(
                !needs_recovery || matches!(cfg.mode, OrderingMode::Rio { .. }),
                "fault injection requires a Rio mode: recovery rebuilds \
                 the order from persisted attributes, which only Rio keeps"
            );
            for w in cfg.faults.events.windows(2) {
                assert!(w[0].at < w[1].at, "fault times must strictly increase");
            }
            for ev in &cfg.faults.events {
                for t in ev.kind.hit_targets(cfg.targets.len()) {
                    assert!(t < cfg.targets.len(), "fault names target {t} of {}", cfg.targets.len());
                }
            }
        }
        let mut root_rng = SimRng::seed_from_u64(cfg.seed);
        // Integrity is on when asked for explicitly, or implied by any
        // corruption source: the run then carries real payload bytes
        // end to end. Off, the data path is byte-identical to before.
        let integrity = cfg.integrity
            || cfg.net.corrupt_rate > 0.0
            || cfg.faults.events.iter().any(|e| e.kind.needs_integrity());
        // The effective wire profile: base timing plus the transport
        // behavior (segmentation, loss, paths) from `cfg.net`.
        let wire = cfg.net.apply(cfg.fabric.clone());
        let fabric = Fabric::new(wire.clone(), root_rng.below(u64::MAX));

        // Volume: stripe across every SSD of every target.
        let mut legs = Vec::new();
        let mut min_cap = u64::MAX;
        for (t, tc) in cfg.targets.iter().enumerate() {
            assert!(!tc.ssds.is_empty(), "target {t} has no SSDs");
            for (s, prof) in tc.ssds.iter().enumerate() {
                legs.push((ServerId(t as u16), s));
                min_cap = min_cap.min(prof.capacity_blocks);
            }
        }
        let volume = StripedVolume::new(legs, cfg.stripe_blocks, min_cap);

        let n_targets = cfg.targets.len();
        // Distinct tenants in order of first appearance; the DRR only
        // exists when more than one tenant shares the targets.
        let mut tenants: Vec<u32> = Vec::new();
        let mut tenant_weights: Vec<u32> = Vec::new();
        for ic in &init_cfgs {
            if let Some(i) = tenants.iter().position(|&t| t == ic.tenant) {
                tenant_weights[i] += ic.weight.max(1);
            } else {
                tenants.push(ic.tenant);
                tenant_weights.push(ic.weight.max(1));
            }
        }
        let multi_tenant = tenants.len() > 1;
        let targets: Vec<Target> = cfg
            .targets
            .iter()
            .map(|tc| {
                let ssds: Vec<Ssd> = tc
                    .ssds
                    .iter()
                    .map(|p| {
                        let mut s = Ssd::new(p.clone(), root_rng.below(u64::MAX));
                        s.set_integrity(integrity);
                        s
                    })
                    .collect();
                let mut t = Target {
                    cores: CoreSet::new(tc.cores),
                    // One connection (QP group) per initiator.
                    nic: Nic::for_profile(init_cfgs.len() * cfg.qps_per_target, &wire),
                    gate: SubmissionGate::with_streams(total_streams),
                    ssds,
                    log: None,
                    drr: multi_tenant.then(|| DrrSched::new(tenant_weights.clone())),
                    slots: vec![VecDeque::new(); total_streams],
                    slot_seen: vec![false; total_streams],
                    applied_release: vec![0; total_streams],
                };
                if matches!(cfg.mode, OrderingMode::Rio { .. }) {
                    let pmr_len = t.ssds[0].pmr().len();
                    let (log, writes) = PmrLog::format(pmr_len, total_streams);
                    for w in &writes {
                        t.apply_pmr_write(w);
                    }
                    t.log = Some(log);
                }
                t
            })
            .collect();

        // Thread i owns global stream i; its initiator is the one whose
        // stream slice contains i (the legacy path has one slice
        // covering everything, so this reduces to the old layout).
        let mut init_of_thread = Vec::with_capacity(workload.threads);
        {
            let mut base = 0usize;
            for (ii, ic) in init_cfgs.iter().enumerate() {
                for _ in 0..ic.streams {
                    if init_of_thread.len() < workload.threads {
                        init_of_thread.push((ii, base));
                    }
                }
                base += ic.streams;
            }
        }
        let per_thread_blocks = volume.capacity_blocks() / workload.threads as u64;
        let threads: Vec<ThreadState> = (0..workload.threads)
            .map(|i| ThreadState {
                init: init_of_thread[i].0,
                core: (i - init_of_thread[i].1) % init_cfgs[init_of_thread[i].0].cores,
                stream: StreamId(i as u16),
                next_op: 0,
                queue: VecDeque::new(),
                inflight: 0,
                area_start: i as u64 * per_thread_blocks,
                area_blocks: per_thread_blocks,
                rng: root_rng.fork(),
                parked: false,
                done_submitting: false,
                sync_stage: SyncStage::Idle,
                syncing: false,
                op_start: SimTime::ZERO,
                stage_marks: [None; 3],
                cur_flush_leg: false,
                cur_sync_after: false,
                ctrl_pending: VecDeque::new(),
                ctrl_outstanding: false,
                ctrl_gate_until: SimTime::ZERO,
                replay: VecDeque::new(),
            })
            .collect();

        let merge = matches!(cfg.mode, OrderingMode::Rio { merge: true });
        let order_queues = (0..total_streams)
            .map(|s| {
                OrderQueue::new(
                    StreamId(s as u16),
                    OrderQueueConfig {
                        merge,
                        max_merge_blocks: 32,
                    },
                )
            })
            .collect();

        // Pre-size the hot structures from the config: the event heap
        // and command/unit arenas track the global in-flight window.
        let inflight_hint = (total_streams * cfg.max_inflight_per_stream * 2).max(64);
        let trace = cfg
            .trace
            .as_ref()
            .map(|tc| StageTrace::new(tc, total_streams));
        let telemetry = cfg
            .telemetry
            .as_ref()
            .map(|tc| TelemetrySampler::new(tc, tenants.clone(), n_targets, init_cfgs.len()));
        let initiators: Vec<Initiator> = {
            let mut v = Vec::with_capacity(init_cfgs.len());
            let mut base = 0usize;
            for ic in &init_cfgs {
                v.push(Initiator {
                    cores: CoreSet::new(ic.cores),
                    nic: Nic::for_profile(n_targets * cfg.qps_per_target, &wire),
                    // Sequencer and completer are sized at the *global*
                    // stream count; each initiator only ever touches its
                    // own slice, so no id translation exists anywhere.
                    sequencer: Sequencer::new(total_streams, n_targets),
                    completer: InOrderCompleter::with_window(
                        total_streams,
                        cfg.max_inflight_per_stream * 2,
                    ),
                    tenant: ic.tenant,
                    weight: ic.weight.max(1),
                    stream_base: base,
                    n_streams: ic.streams,
                    groups_done: 0,
                    blocks_done: 0,
                    commands_sent: 0,
                    gate_buffered: 0,
                    group_latency: Histogram::new(),
                    finished_at: SimTime::ZERO,
                });
                base += ic.streams;
            }
            v
        };
        let tenant_gate_wait = tenants.iter().map(|_| Histogram::new()).collect();
        Cluster {
            initiators,
            tenants,
            tenant_gate_wait,
            order_queues,
            released_through: vec![0; total_streams],
            volume,
            threads,
            targets,
            cmds: Slab::with_capacity(inflight_hint),
            units: Slab::with_capacity(inflight_hint),
            group_info: (0..total_streams).map(|_| GroupInfoRing::default()).collect(),
            gate_scratch: Vec::with_capacity(16),
            delivered_scratch: Vec::with_capacity(16),
            map_scratch: Vec::with_capacity(16),
            extent_scratch: Vec::with_capacity(16),
            slice_scratch: Vec::with_capacity(16),
            frag_scratch: Vec::with_capacity(16),
            scatter_qp: 0,
            groups_done: 0,
            blocks_done: 0,
            ops_done: 0,
            commands_sent: 0,
            ctrl_sent: 0,
            events_processed: 0,
            group_latency: Histogram::new(),
            op_latency: Histogram::new(),
            stage_lat: Default::default(),
            trace,
            telemetry,
            last_completion: SimTime::ZERO,
            integrity,
            integ: IntegrityMetrics::default(),
            track_replay: !cfg.faults.events.is_empty(),
            fault_cursor: 0,
            recoveries: Vec::new(),
            epochs: Vec::new(),
            epoch_start: SimTime::ZERO,
            epoch_groups_base: 0,
            epoch_blocks_base: 0,
            epoch_ops_base: 0,
            events: EventHeap::with_capacity(inflight_hint),
            fabric,
            mode_kind: ModeKind::of(&cfg.mode),
            cfg,
            workload,
        }
    }

    /// Runs the workload to completion — surviving any scheduled
    /// faults — and returns metrics.
    pub fn run(mut self) -> RunMetrics {
        self.run_loop();
        self.metrics()
    }

    /// Runs the workload, then asserts every target's media holds
    /// exactly what was submitted before building metrics: every
    /// sealed block matches its seal (no corrupt block survives a run
    /// — all are detected and either rolled back + resubmitted or
    /// discarded during recovery) and is byte-for-byte the payload its
    /// embedded seed generates (recovered bytes == submitted bytes).
    #[cfg(test)]
    pub(crate) fn run_and_verify(mut self) -> RunMetrics {
        self.run_loop();
        let m = self.metrics();
        for (t, target) in self.targets.iter().enumerate() {
            for (s, ssd) in target.ssds.iter().enumerate() {
                assert!(
                    ssd.media_verified(),
                    "corrupt block survived the run on target {t} ssd {s}"
                );
                assert!(
                    ssd.payload_verified(),
                    "media block differs from its submitted payload on target {t} ssd {s}"
                );
            }
        }
        m
    }

    /// The event loop body shared by [`Cluster::run`] and the
    /// verifying test harness.
    fn run_loop(&mut self) {
        self.start();
        loop {
            while let Some((now, ev)) = self.events.pop() {
                self.events_processed += 1;
                self.handle(now, ev);
            }
            // Faults whose heap events died with an earlier
            // non-resuming fault's clear still fire, in order, at
            // their scheduled times.
            if self.fault_cursor < self.cfg.faults.events.len() {
                let idx = self.fault_cursor;
                let at = self.cfg.faults.events[idx].at.max(self.last_completion);
                self.events_processed += 1;
                self.on_fault(at, idx);
            } else {
                break;
            }
        }
    }

    /// Schedules the initial thread wake-ups and the fault plan.
    pub(crate) fn start(&mut self) {
        for t in 0..self.threads.len() {
            self.events.push(SimTime::ZERO, Event::Resume(t));
        }
        for i in 0..self.cfg.faults.events.len() {
            let at = self.cfg.faults.events[i].at;
            self.events.push(at, Event::Fault(i as u32));
        }
    }

    /// Runs until the event heap drains or `deadline` passes; returns
    /// the virtual time reached.
    #[cfg(test)]
    pub(crate) fn run_until(&mut self, deadline: SimTime) -> SimTime {
        let mut reached = SimTime::ZERO;
        while let Some((now, ev)) = self.events.pop_if_at_or_before(deadline) {
            self.events_processed += 1;
            self.handle(now, ev);
            reached = now;
        }
        if self.events.is_empty() {
            reached
        } else {
            deadline
        }
    }

    /// Builds the final metrics snapshot.
    pub(crate) fn metrics(&mut self) -> RunMetrics {
        // Settle device-internal effects (stats, drains) up to the end.
        for t in &mut self.targets {
            for ssd in &mut t.ssds {
                ssd.advance(self.last_completion);
            }
        }
        let span = self.last_completion.since(SimTime::ZERO);
        let target_util = if self.targets.is_empty() {
            0.0
        } else {
            self.targets
                .iter()
                .map(|t| t.cores.utilization(span))
                .sum::<f64>()
                / self.targets.len() as f64
        };
        let gate_buffered: u64 = self
            .targets
            .iter()
            .map(|t| t.gate.total_buffered_events())
            .sum();
        let mut net = crate::metrics::NetMetrics::default();
        for init in &self.initiators {
            net.absorb(&init.nic);
        }
        for t in &self.targets {
            net.absorb(&t.nic);
        }
        // The media-side ledger accumulated during recoveries, plus the
        // wire-side counters the NICs kept.
        let mut integrity = self.integ;
        integrity.wire_injected = net.corrupt_injected;
        integrity.wire_detected = net.corrupt_detected;
        integrity.wire_refetched = net.corrupt_refetched;
        // Close the open epoch. A fault with `resume: false` may leave
        // the resume instant past the last completion; the final epoch
        // is then empty, not negative.
        let mut epochs = self.epochs.clone();
        epochs.push(EpochMetrics {
            from: self.epoch_start,
            to: self.last_completion.max(self.epoch_start),
            groups_done: self.groups_done - self.epoch_groups_base,
            blocks_done: self.blocks_done - self.epoch_blocks_base,
            ops_done: self.ops_done - self.epoch_ops_base,
        });
        let initiators: Vec<crate::metrics::InitiatorMetrics> = self
            .initiators
            .iter()
            .enumerate()
            .map(|(i, init)| crate::metrics::InitiatorMetrics {
                initiator: i,
                tenant: init.tenant,
                weight: init.weight,
                stream_base: init.stream_base,
                streams: init.n_streams,
                groups_done: init.groups_done,
                blocks_done: init.blocks_done,
                commands_sent: init.commands_sent,
                gate_buffered: init.gate_buffered,
                group_latency: init.group_latency.clone(),
                util: init.cores.utilization(span),
                finished_at: init.finished_at,
            })
            .collect();
        // Per-tenant rollup: the sum of the tenant's initiators, plus
        // the DRR admission wait recorded at the targets.
        let mut tenants: Vec<crate::metrics::TenantMetrics> = self
            .tenants
            .iter()
            .enumerate()
            .map(|(ti, &tenant)| {
                let mut t = crate::metrics::TenantMetrics {
                    tenant,
                    weight: 0,
                    groups_done: 0,
                    blocks_done: 0,
                    group_latency: Histogram::new(),
                    gate_wait: self.tenant_gate_wait[ti].clone(),
                    finished_at: SimTime::ZERO,
                };
                for init in self.initiators.iter().filter(|i| i.tenant == tenant) {
                    t.weight += init.weight;
                    t.groups_done += init.groups_done;
                    t.blocks_done += init.blocks_done;
                    t.group_latency.merge(&init.group_latency);
                    t.finished_at = t.finished_at.max(init.finished_at);
                }
                t
            })
            .collect();
        tenants.sort_by_key(|t| t.tenant);
        RunMetrics {
            blocks_done: self.blocks_done,
            groups_done: self.groups_done,
            ops_done: self.ops_done,
            gate_buffered,
            commands_sent: self.commands_sent,
            events_processed: self.events_processed,
            span,
            group_latency: self.group_latency.clone(),
            op_latency: self.op_latency.clone(),
            stage_dispatch: self.stage_lat.clone(),
            initiator_util: self
                .initiators
                .iter()
                .map(|i| i.cores.utilization(span))
                .sum::<f64>()
                / self.initiators.len() as f64,
            target_util,
            net,
            integrity,
            recoveries: self.recoveries.clone(),
            epochs,
            finished_at: self.last_completion,
            breakdown: self.trace.as_ref().map(StageTrace::finish),
            initiators,
            tenants,
            telemetry: self.telemetry.as_ref().map(TelemetrySampler::finish),
        }
    }

    fn handle(&mut self, now: SimTime, ev: Event) {
        match ev {
            Event::Resume(t) => self.on_resume(now, t),
            Event::CmdArrive(c) => self.on_cmd_arrive(now, c),
            Event::Resend(c, leg) => self.on_resend(now, c, leg),
            Event::SsdSubmit(c) => self.on_ssd_submit(now, c),
            Event::SsdFlushSubmit(c) => self.on_ssd_flush_submit(now, c),
            Event::SsdWriteDone(c) => self.on_ssd_write_done(now, c),
            Event::SsdFlushDone(c) => self.on_ssd_flush_done(now, c),
            Event::CmdComplete(c) => self.on_cmd_complete(now, c),
            Event::CtrlArrive { target, thread } => self.on_ctrl_arrive(now, target, thread),
            Event::CtrlAck { thread } => self.on_ctrl_ack(now, thread),
            Event::Fault(i) => self.on_fault(now, i as usize),
        }
    }

    /// Immutable access to a target's SSDs.
    #[cfg(test)]
    pub(crate) fn target_ssds(&self, target: usize) -> &[Ssd] {
        &self.targets[target].ssds
    }

    /// Number of targets.
    #[cfg(test)]
    pub(crate) fn n_targets(&self) -> usize {
        self.targets.len()
    }
}
