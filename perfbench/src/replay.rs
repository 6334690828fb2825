//! Layer replays: the workload's operation shape driven straight into
//! each layer crate's public functions, timed from outside.
//!
//! Every replay first runs its operations once untimed and asserts
//! the layer's own output (heap order, exactly-once in-order release,
//! media contents, known CRC vectors), so a replay never times broken
//! code. The timed pass then repeats the same operations.
//!
//! Each replay also returns the host time the layer is estimated to
//! have spent in the timed cluster run: its ns per operation times the
//! run's operation count. `stack.glue_share` is what the cluster run
//! spent beyond the sum of those estimates.

use std::hint::black_box;

use rio_block::StripedVolume;
use rio_net::{Fabric, Nic, XferStep};
use rio_order::recovery::{RecoveryInput, RecoveryMode, ServerScan};
use rio_order::{
    BlockRange, InOrderCompleter, OrderingAttr, PmrLog, RecoveryPlan, Seq, Sequencer, ServerId,
    StreamId, SubmissionGate, SubmitOpts,
};
use rio_proto::{crc32c, payload, Sqe};
use rio_sim::{EventHeap, SimRng, SimTime};
use rio_ssd::{BlockImage, Pmr, Ssd};
use rio_stack::{ClusterConfig, OrderingMode, RunMetrics};

use crate::measure::{timed, Clock, Spans};
use crate::Metric;

/// What a replay needs to know about the timed run it mirrors.
pub struct Ctx<'a> {
    /// The run's configuration.
    pub cfg: &'a ClusterConfig,
    /// The untraced run's metrics.
    pub m: &'a RunMetrics,
    /// Peak commands in flight at once (from telemetry): the event
    /// heap holds about one pending event per in-flight command.
    pub inflight_peak: usize,
    /// Seed for the replays' own randomness.
    pub seed: u64,
    /// Wall clock of the run.
    pub clock: Clock,
}

impl Ctx<'_> {
    fn rio(&self) -> bool {
        matches!(self.cfg.mode, OrderingMode::Rio { .. })
    }

    fn integrity(&self) -> bool {
        self.cfg.integrity || self.cfg.net.corrupt_rate > 0.0
    }

    fn streams(&self) -> usize {
        self.cfg.total_streams()
    }

    fn blocks_per_cmd(&self) -> u32 {
        (self.m.blocks_done as f64 / self.m.commands_sent.max(1) as f64)
            .round()
            .max(1.0) as u32
    }

    /// Nanoseconds per operation of `ops` operations run by `f`: the
    /// median of three timed passes.
    fn ns_per_op(&self, ops: u64, mut f: impl FnMut()) -> f64 {
        let mut v: Vec<f64> = (0..3)
            .map(|_| {
                let ((), c) = timed(&self.clock, &mut f);
                c.cpu_ns as f64 / ops as f64
            })
            .collect();
        v.sort_by(f64::total_cmp);
        v[1]
    }
}

/// The per-layer output of one replay.
pub struct Layer {
    /// Metrics the replay reports.
    pub metrics: Vec<Metric>,
    /// Estimated host ns this layer spent in the timed cluster run.
    pub attributed_ns: f64,
}

type Replay = fn(&Ctx) -> Result<Layer, String>;

/// Every replay, in layer order, under its span name.
const REPLAYS: [(&str, Replay); 6] = [
    ("rio-sim", heap),
    ("rio-net", fabric),
    ("rio-ssd", ssd),
    ("rio-order", order),
    ("rio-proto", proto),
    ("rio-block", block),
];

/// Runs every replay, each in its own span. Returns the metrics and
/// the attributed ns summed over layers, or the first failed check.
pub fn all(ctx: &Ctx, spans: &mut Spans) -> Result<(Vec<Metric>, f64), String> {
    let mut metrics = Vec::new();
    let mut attributed = 0.0;
    for (name, replay) in REPLAYS {
        let layer = spans.span(name, |_| replay(ctx))?;
        metrics.extend(layer.metrics);
        attributed += layer.attributed_ns;
    }
    Ok((metrics, attributed))
}

fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// `rio-sim`: hold-model push + pop at the run's heap depth.
fn heap(ctx: &Ctx) -> Result<Layer, String> {
    const OPS: u64 = 400_000;
    let depth = ctx.inflight_peak + ctx.streams();
    let mut rng = SimRng::seed_from_u64(ctx.seed);
    let deltas: Vec<u64> = (0..4096).map(|_| 1 + rng.below(20_000)).collect();
    let mut h: EventHeap<u64> = EventHeap::with_capacity(depth);
    for i in 0..depth as u64 {
        h.push(SimTime::from_nanos(deltas[i as usize % deltas.len()]), i);
    }
    let run = |h: &mut EventHeap<u64>, verify: bool| -> Result<(), String> {
        let mut last = 0;
        for i in 0..OPS as usize {
            let (t, e) = h.pop().ok_or("heap ran empty")?;
            if verify {
                check(t.as_nanos() >= last, || {
                    "heap popped out of time order".into()
                })?;
                last = t.as_nanos();
            }
            h.push(
                SimTime::from_nanos(t.as_nanos() + deltas[i % deltas.len()]),
                black_box(e),
            );
        }
        Ok(())
    };
    run(&mut h, true)?;
    check(h.len() == depth, || "heap depth drifted".into())?;
    let ns = ctx.ns_per_op(OPS, || {
        let _ = run(&mut h, false);
    });
    Ok(Layer {
        metrics: vec![Metric::new("sim.heap_ns_per_op", ns, "ns")],
        attributed_ns: ns * ctx.m.events_processed as f64,
    })
}

/// Sends one message with go-back-N until delivered; returns the
/// delivery instant.
fn deliver(mut step: XferStep, mut resume: impl FnMut(SimTime, u32) -> XferStep) -> SimTime {
    loop {
        match step {
            XferStep::Delivered { at } => return at,
            XferStep::Dropped {
                resume_at,
                pkts_left,
                ..
            } => step = resume(resume_at, pkts_left),
        }
    }
}

/// `rio-net`: per command a capsule SEND, a data pull and a completion
/// SEND over the workload's fabric profile (loss, corruption, paths).
fn fabric(ctx: &Ctx) -> Result<Layer, String> {
    const CMDS: u64 = 60_000;
    const CAPSULE: u64 = 96;
    const COMPLETION: u64 = 32;
    let data = ctx.blocks_per_cmd() as u64 * 4096;
    let wire = ctx.cfg.net.apply(ctx.cfg.fabric.clone());
    let qps = ctx.cfg.qps_per_target;
    let run = |verify: bool| -> Result<u64, String> {
        let mut f = Fabric::new(wire.clone(), ctx.seed);
        let mut ini = Nic::for_profile(qps, f.profile());
        let mut tgt = Nic::for_profile(qps, f.profile());
        for i in 0..CMDS {
            let qp = i as usize % qps;
            let now = SimTime::from_nanos(i * 2_000);
            let s = f.send_burst(&mut ini, qp, now, CAPSULE);
            let at = deliver(s, |t, left| f.resume_send(&mut ini, qp, t, left, CAPSULE));
            let s = f.pull_burst(&mut tgt, &mut ini, qp, at, data);
            let at2 = deliver(s, |t, left| {
                f.resume_pull(&mut tgt, &mut ini, qp, t, left, data)
            });
            let s = f.send_burst(&mut tgt, qp, at2, COMPLETION);
            let done = deliver(s, |t, left| {
                f.resume_send(&mut tgt, qp, t, left, COMPLETION)
            });
            if verify {
                check(now < at && at < at2 && at2 < done, || {
                    format!("fabric delivered out of causal order at command {i}")
                })?;
            }
        }
        Ok(ini.stats().packets + tgt.stats().packets)
    };
    let packets = run(true)?;
    check(packets >= 3 * CMDS, || {
        "fabric sent fewer packets than messages".into()
    })?;
    let ns = ctx.ns_per_op(packets, || {
        let _ = black_box(run(false));
    });
    Ok(Layer {
        metrics: vec![Metric::new("net.fabric_ns_per_packet", ns, "ns")],
        attributed_ns: ns * ctx.m.net.packets as f64,
    })
}

/// `rio-ssd`: random single-command writes on the run's first device
/// (payload byte images and seals when integrity is on), plus FLUSHes.
fn ssd(ctx: &Ctx) -> Result<Layer, String> {
    const WRITES: u64 = 20_000;
    const FLUSHES: u64 = 4_000;
    let profile = ctx.cfg.targets[0].ssds[0].clone();
    let integrity = ctx.integrity();
    let bpc = ctx.blocks_per_cmd();
    let mut rng = SimRng::seed_from_u64(ctx.seed);
    let mut lbas: Vec<u64> = (0..WRITES).map(|i| i * bpc as u64).collect();
    rng.shuffle(&mut lbas);
    let image = |lba: u64| {
        if integrity {
            BlockImage::Bytes(payload::block_for(payload::seed_for(0, 1, lba)))
        } else {
            BlockImage::Tag(lba)
        }
    };
    let images: Vec<Vec<BlockImage>> = lbas
        .iter()
        .map(|&lba| (0..bpc as u64).map(|j| image(lba + j)).collect())
        .collect();
    // Closed loop at the run's queue depth per device: a write is
    // submitted when the write `depth` places earlier completes. As in
    // the cluster, effects apply in one `advance` at the end.
    let depth = (ctx.inflight_peak / ctx.cfg.total_ssds()).max(1);
    let write_all = |images: Vec<Vec<BlockImage>>| -> Ssd {
        let mut ssd = Ssd::new(profile.clone(), ctx.seed);
        ssd.set_integrity(integrity);
        let mut done = std::collections::VecDeque::with_capacity(depth);
        let mut now = SimTime::ZERO;
        for (imgs, &lba) in images.into_iter().zip(&lbas) {
            if done.len() == depth {
                now = now.max(done.pop_front().expect("queue is full"));
            }
            done.push_back(ssd.submit_write(now, lba, imgs, false).1);
        }
        ssd.advance(done.into_iter().max().unwrap_or(now));
        ssd
    };
    let ssd = write_all(images.clone());
    for &lba in &lbas {
        check(ssd.logical_read(lba) == image(lba), || {
            format!("ssd logical block {lba} differs from its write")
        })?;
    }
    if integrity {
        check(ssd.media_verified() && ssd.payload_verified(), || {
            "ssd media differs from the sealed payload".into()
        })?;
    }
    let write_ns = ctx.ns_per_op(WRITES * bpc as u64, || {
        black_box(write_all(images.clone()));
    }) - clone_ns(ctx, &images, bpc);

    // A one-block write, then a FLUSH at its completion, the next
    // write at the FLUSH's completion: the fsync commit stage in a
    // closed loop. Only the FLUSH submissions and the final advance
    // that retires them are timed, on the wall clock: one CPU-time
    // read costs more than a FLUSH.
    let flush_pass = |timer: &Clock| -> u64 {
        let mut ssd = Ssd::new(profile.clone(), ctx.seed);
        ssd.set_integrity(integrity);
        let mut now = SimTime::ZERO;
        let mut spent = 0;
        for i in 0..FLUSHES {
            let lba = lbas[i as usize % lbas.len()];
            let (_, written) = ssd.submit_write(now, lba, vec![image(lba)], false);
            let t0 = timer.ns();
            let (_, flushed) = ssd.submit_flush(written);
            spent += timer.ns() - t0;
            now = flushed;
        }
        let t0 = timer.ns();
        ssd.advance(now);
        black_box(ssd.dirty_bytes());
        spent + timer.ns() - t0
    };
    let mut passes: Vec<f64> = (0..3)
        .map(|_| flush_pass(&ctx.clock) as f64 / FLUSHES as f64)
        .collect();
    passes.sort_by(f64::total_cmp);
    let flush_ns = passes[1];
    let flushes = ctx.m.ops_done;
    Ok(Layer {
        metrics: vec![
            Metric::new("ssd.write_ns_per_block", write_ns, "ns"),
            Metric::new("ssd.flush_ns", flush_ns, "ns"),
        ],
        attributed_ns: write_ns * ctx.m.blocks_done as f64 + flush_ns * flushes as f64,
    })
}

/// Host ns per block of cloning the prepared images, subtracted from
/// the write replay, which consumes a fresh copy each pass.
fn clone_ns(ctx: &Ctx, images: &[Vec<BlockImage>], bpc: u32) -> f64 {
    ctx.ns_per_op(images.len() as u64 * bpc as u64, || {
        black_box(images.to_vec());
    })
}

/// Stamps `groups` single-member groups per stream in round-robin
/// stream order, each dispatched to server `seq % servers`.
fn stamp_groups(streams: usize, servers: usize, groups: u64, blocks: u32) -> Vec<OrderingAttr> {
    let mut seq = Sequencer::new(streams, servers);
    let mut out = Vec::with_capacity(streams * groups as usize);
    for g in 0..groups {
        for s in 0..streams {
            let range = BlockRange::new((s as u64 * groups + g) * blocks as u64, blocks);
            let opts = SubmitOpts {
                end_group: true,
                ..SubmitOpts::default()
            };
            let mut attr = seq.submit(StreamId(s as u16), range, opts);
            seq.stamp_dispatch(&mut attr, ServerId((g % servers as u64) as u16));
            out.push(attr);
        }
    }
    out
}

/// `rio-order`: sequencer, submission gate, in-order completer, PMR
/// log append and post-crash recovery.
fn order(ctx: &Ctx) -> Result<Layer, String> {
    const GROUPS: u64 = 20_000;
    let streams = ctx.streams();
    let servers = ctx.cfg.targets.len();
    let bpc = ctx.blocks_per_cmd();
    let attrs = stamp_groups(streams, servers, GROUPS, bpc);
    for (i, a) in attrs.iter().enumerate() {
        let (g, s) = (i / streams, i % streams);
        check(
            a.stream.0 as usize == s && a.seq_start == Seq(g as u32 + 1),
            || format!("sequencer stamped {a:?} for group {g} of stream {s}"),
        )?;
    }
    let n = attrs.len() as u64;
    let seq_ns = ctx.ns_per_op(n, || {
        black_box(stamp_groups(streams, servers, GROUPS, bpc));
    });

    // Gate: one server's arrivals, with adjacent pairs swapped at the
    // run's buffered ratio (each swap buffers one command).
    let cmds = ctx.m.commands_sent.max(1) as f64;
    let buffered_ratio = ctx.m.gate_buffered as f64 / cmds;
    let mut rng = SimRng::seed_from_u64(ctx.seed);
    let mut arrivals: Vec<OrderingAttr> = attrs
        .iter()
        .filter(|a| a.server == ServerId(0))
        .copied()
        .collect();
    let mut i = 0;
    while i + 1 < arrivals.len() {
        if rng.chance(buffered_ratio) {
            arrivals.swap(i, i + 1);
            i += 1;
        }
        i += 1;
    }
    let gate_pass = |out: &mut Vec<(OrderingAttr, u64)>| {
        let mut gate = SubmissionGate::with_streams(streams);
        for (tok, a) in arrivals.iter().enumerate() {
            gate.arrive_into(*a, tok as u64, out);
        }
        gate.total_buffered_events()
    };
    let mut released = Vec::with_capacity(arrivals.len());
    gate_pass(&mut released);
    check(released.len() == arrivals.len(), || {
        format!(
            "gate released {} of {} commands",
            released.len(),
            arrivals.len()
        )
    })?;
    let mut next = vec![0u64; streams];
    for (a, _) in &released {
        let s = a.stream.0 as usize;
        check(a.dispatch_idx == next[s], || {
            "gate released out of dispatch order".into()
        })?;
        next[s] += 1;
    }
    let mut scratch = Vec::with_capacity(arrivals.len());
    let gate_ns = ctx.ns_per_op(arrivals.len() as u64, || {
        scratch.clear();
        black_box(gate_pass(&mut scratch));
    });

    // Completer: completions shuffled within windows of in-flight
    // groups, as parallel SSDs finish them.
    let window = ctx.cfg.max_inflight_per_stream.clamp(2, 16);
    let mut done = attrs.clone();
    for chunk in done.chunks_mut(window * streams) {
        rng.shuffle(chunk);
    }
    let complete = |out: &mut Vec<Seq>, order: &mut Vec<(usize, Seq)>| {
        let mut c = InOrderCompleter::with_window(streams, window * 2);
        for a in &done {
            let before = out.len();
            c.on_done_into(a, out);
            order.extend(out[before..].iter().map(|&s| (a.stream.0 as usize, s)));
        }
    };
    let (mut out, mut order) = (Vec::new(), Vec::new());
    complete(&mut out, &mut order);
    check(order.len() == attrs.len(), || {
        format!(
            "completer released {} of {} groups",
            order.len(),
            attrs.len()
        )
    })?;
    let mut through = vec![0u32; streams];
    for &(s, seq) in &order {
        check(seq.0 == through[s] + 1, || {
            "completer released out of order".into()
        })?;
        through[s] = seq.0;
    }
    let completer_ns = ctx.ns_per_op(n, || {
        out.clear();
        order.clear();
        complete(&mut out, &mut order);
        black_box(order.len());
    });

    // PMR log: append, persist toggle and recycle per command, with
    // every write applied to a 2 MB region.
    let region = ctx.cfg.targets[0].ssds[0].pmr_bytes;
    let append_all = |pmr: &mut Pmr| {
        let (mut log, writes) = PmrLog::format(region, streams);
        for w in writes {
            pmr.mmio_write(w.offset, &w.bytes);
        }
        let mut live = std::collections::VecDeque::new();
        for a in &attrs {
            if log.is_full() {
                log.free(live.pop_front().expect("a full log has live slots"));
            }
            let (slot, w) = log.append(&a.to_pmr_record(0)).expect("room after free");
            pmr.mmio_write(w.offset, &w.bytes);
            let w = log.mark_persist(slot);
            pmr.mmio_write(w.offset, &w.bytes);
            live.push_back(slot);
        }
        log.capacity()
    };
    let mut pmr = Pmr::new(region);
    let capacity = append_all(&mut pmr);
    let scanned = PmrLog::scan(pmr.contents()).ok_or("PMR log lost its superblock")?;
    check(scanned.records.len() == capacity.min(attrs.len()), || {
        format!("PMR scan found {} records", scanned.records.len())
    })?;
    let pmr_ns = ctx.ns_per_op(n, || {
        let mut pmr = Pmr::new(region);
        black_box(append_all(&mut pmr));
    });

    let mut metrics = vec![
        Metric::new("order.seq_ns_per_group", seq_ns, "ns"),
        Metric::new("order.gate_ns_per_cmd", gate_ns, "ns"),
        Metric::new("order.completer_ns_per_cmd", completer_ns, "ns"),
        Metric::new("order.pmr_append_ns", pmr_ns, "ns"),
    ];
    let recovery_ms = recovery(ctx, &attrs)?;
    metrics.push(Metric::new("order.recovery_ms", recovery_ms, "ms"));
    let ordered_cmds = if ctx.rio() { ctx.m.commands_sent } else { 0 };
    let attributed_ns = seq_ns * ctx.m.groups_done as f64
        + (gate_ns + completer_ns + pmr_ns) * ordered_cmds as f64
        + recovery_ms * 1e6 * ctx.m.recoveries.len() as f64;
    Ok(Layer {
        metrics,
        attributed_ns,
    })
}

/// `PmrLog::scan` + `RecoveryPlan::compute` over one PMR region per
/// target, holding the run's mean records scanned per recovery. Zero
/// when the run recovered nothing.
fn recovery(ctx: &Ctx, attrs: &[OrderingAttr]) -> Result<f64, String> {
    let recs = &ctx.m.recoveries;
    if recs.is_empty() {
        return Ok(0.0);
    }
    let per_recovery = recs.iter().map(|r| r.records_scanned).sum::<usize>() / recs.len();
    let servers = ctx.cfg.targets.len();
    let region = ctx.cfg.targets[0].ssds[0].pmr_bytes;
    let streams = ctx.streams();
    let regions: Vec<Pmr> = (0..servers)
        .map(|t| {
            let mut pmr = Pmr::new(region);
            let (mut log, writes) = PmrLog::format(region, streams);
            for w in writes {
                pmr.mmio_write(w.offset, &w.bytes);
            }
            let mine = attrs.iter().filter(|a| a.server.0 as usize == t);
            let mut newest = vec![0u32; streams];
            // Durable and FLUSH-carrying, so every record counts as
            // durable whether or not the device has power-loss
            // protection, and each stream has a valid prefix to find.
            for a in mine.take(per_recovery / servers) {
                let mut a = *a;
                a.persist = true;
                a.flush = true;
                let Ok((_, w)) = log.append(&a.to_pmr_record(0)) else {
                    break;
                };
                pmr.mmio_write(w.offset, &w.bytes);
                newest[a.stream.0 as usize] = a.seq_end.0;
            }
            // As in a running cluster, all but the last in-flight window
            // of each stream was delivered before the crash.
            let window = ctx.cfg.max_inflight_per_stream as u32;
            for (s, &seq) in newest.iter().enumerate() {
                let w = log.set_head_seq(StreamId(s as u16), Seq(seq.saturating_sub(window)));
                pmr.mmio_write(w.offset, &w.bytes);
            }
            pmr
        })
        .collect();
    let recover = || -> Option<(usize, RecoveryPlan)> {
        let mut scans = Vec::with_capacity(servers);
        let mut records = 0;
        for (t, pmr) in regions.iter().enumerate() {
            let outcome = PmrLog::scan(pmr.contents())?;
            records += outcome.records.len();
            scans.push(ServerScan {
                server: ServerId(t as u16),
                plp: ctx.cfg.targets[t].ssds[0].plp,
                head_seqs: outcome.head_seqs,
                records: outcome.records,
            });
        }
        let plan = RecoveryPlan::compute(&RecoveryInput {
            scans,
            mode: RecoveryMode::InitiatorRestart,
        });
        Some((records, plan))
    };
    let (records, plan) = recover().ok_or("recovery replay lost a superblock")?;
    check(records > 0 && plan.streams.len() == streams, || {
        format!(
            "recovery scanned {records} records into {} stream plans",
            plan.streams.len()
        )
    })?;
    for sp in &plan.streams {
        check(sp.valid_through.0 >= 1, || {
            format!("stream {:?} recovered no valid prefix", sp.stream)
        })?;
    }
    Ok(ctx.ns_per_op(1, || {
        black_box(recover());
    }) / 1e6)
}

/// `rio-proto`: CRC-32C per KB, payload generation + verification per
/// block, and the NVMe SQE codec.
fn proto(ctx: &Ctx) -> Result<Layer, String> {
    const BLOCKS: u64 = 4_000;
    check(crc32c(b"123456789") == 0xE306_9283, || {
        "crc32c check vector".into()
    })?;
    let mut block = payload::block_for(payload::seed_for(1, 2, 3));
    check(payload::verify_block(&block), || {
        "payload block does not verify".into()
    })?;
    block[100] ^= 1;
    check(!payload::verify_block(&block), || {
        "payload verify missed a flipped bit".into()
    })?;
    block[100] ^= 1;
    let crc_ns = ctx.ns_per_op(BLOCKS * 4, || {
        for _ in 0..BLOCKS {
            black_box(crc32c(black_box(&block)));
        }
    });
    let mut buf = vec![0u8; payload::BLOCK_BYTES];
    let payload_ns = ctx.ns_per_op(BLOCKS, || {
        for i in 0..BLOCKS {
            payload::fill_block(payload::seed_for(0, i, i), &mut buf);
            black_box(payload::verify_block(&buf));
        }
    });
    // The cluster only generates payload blocks; verification runs in
    // tests. The attribution below uses generation alone.
    let fill_ns = ctx.ns_per_op(BLOCKS, || {
        for i in 0..BLOCKS {
            payload::fill_block(payload::seed_for(0, i, i), &mut buf);
            black_box(&buf);
        }
    });
    let sqe = Sqe::write(7, 123_456, 8);
    let back = Sqe::decode(&sqe.encode());
    check(
        back.cid() == 7 && back.slba() == 123_456 && back.nlb() == 8,
        || "sqe codec round trip".into(),
    )?;
    const SQES: u64 = 1_000_000;
    let sqe_ns = ctx.ns_per_op(SQES, || {
        for i in 0..SQES {
            let s = Sqe::write(i as u16, i, 1 + (i % 8) as u32);
            black_box(Sqe::decode(&black_box(s.encode())));
        }
    });
    // On integrity runs the cluster materialises one payload block per
    // delivered block and the scrub re-checksums every scrubbed record;
    // the media seal's CRC is inside the ssd write replay. The cluster
    // encodes no SQEs.
    let attributed_ns = if ctx.integrity() {
        fill_ns * ctx.m.blocks_done as f64 + crc_ns * 4.0 * ctx.m.integrity.scrubbed_records as f64
    } else {
        0.0
    };
    Ok(Layer {
        metrics: vec![
            Metric::new("proto.crc32c_ns_per_kb", crc_ns, "ns"),
            Metric::new("proto.payload_ns_per_block", payload_ns, "ns"),
            Metric::new("proto.sqe_codec_ns", sqe_ns, "ns"),
        ],
        attributed_ns,
    })
}

/// `rio-block`: `StripedVolume::map_into` over the run's stripe legs.
fn block(ctx: &Ctx) -> Result<Layer, String> {
    const MAPS: u64 = 1_000_000;
    let mut legs = Vec::new();
    let mut cap = u64::MAX;
    for (t, tc) in ctx.cfg.targets.iter().enumerate() {
        for (s, p) in tc.ssds.iter().enumerate() {
            legs.push((ServerId(t as u16), s));
            cap = cap.min(p.capacity_blocks);
        }
    }
    let vol = StripedVolume::new(legs, ctx.cfg.stripe_blocks, cap);
    let bpc = ctx.blocks_per_cmd();
    let mut rng = SimRng::seed_from_u64(ctx.seed);
    let ranges: Vec<BlockRange> = (0..4096)
        .map(|_| BlockRange::new(rng.below(vol.capacity_blocks() - bpc as u64), bpc))
        .collect();
    let mut extents = Vec::new();
    for r in &ranges {
        extents.clear();
        vol.map_into(*r, &mut extents);
        let mapped: u32 = extents.iter().map(|e| e.range.blocks).sum();
        let (server, ssd, plba) = vol.map_block(r.lba);
        check(
            mapped == r.blocks
                && extents[0].server == server
                && extents[0].ssd == ssd
                && extents[0].range.lba == plba,
            || format!("volume mapped {r:?} to {extents:?}"),
        )?;
    }
    let ns = ctx.ns_per_op(MAPS, || {
        for i in 0..MAPS as usize {
            extents.clear();
            vol.map_into(ranges[i % ranges.len()], &mut extents);
            black_box(&extents);
        }
    });
    Ok(Layer {
        metrics: vec![Metric::new("block.map_ns_per_cmd", ns, "ns")],
        attributed_ns: ns * ctx.m.commands_sent as f64,
    })
}
