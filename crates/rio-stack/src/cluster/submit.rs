//! Initiator side: the four engines' submission paths (sequencer,
//! ORDER queue, plug merging, the Linux and HORAE control flows), the
//! write builder, and completion handling up to in-order delivery.

use rio_block::Plug;
use rio_order::attr::{BlockRange, OrderingAttr};
use rio_order::scheduler::split_attr_into;
use rio_order::sequencer::SubmitOpts;
use rio_proto::{payload, PayloadDigest};
use rio_sim::SimTime;

use crate::trace::Stage;
use crate::workload::{FsyncStage, GroupSpec};

use super::{
    stage_index, Cluster, Cmd, CmdKind, Event, GroupInfo, ModeKind, SyncStage, Unit,
    STAGE_BY_INDEX,
};

impl Cluster {
    pub(super) fn on_resume(&mut self, now: SimTime, t: usize) {
        self.threads[t].parked = false;
        match self.mode_kind {
            ModeKind::Rio => self.submit_async_rio(now, t),
            ModeKind::Orderless => self.submit_async_orderless(now, t),
            ModeKind::Horae => self.submit_horae(now, t),
            ModeKind::Linux => self.submit_linux(now, t),
        }
    }

    fn thread_has_work(&self, t: usize) -> bool {
        !self.threads[t].queue.is_empty()
            || self.threads[t].next_op < self.workload.groups_per_thread
    }

    /// Pops the next group to submit, generating the next script unit
    /// when the queue runs dry.
    fn next_group_spec(&mut self, t: usize) -> GroupSpec {
        if self.threads[t].queue.is_empty() {
            let th = &mut self.threads[t];
            let groups = self
                .workload
                .op(th.next_op, th.area_start, th.area_blocks, &mut th.rng);
            th.next_op += 1;
            th.queue.extend(groups);
        }
        self.threads[t].queue.pop_front().expect("queue refilled")
    }

    /// Charges per-op application CPU and tracks fsync op starts.
    fn note_group_start(&mut self, mut cpu: SimTime, t: usize, spec: &GroupSpec) -> SimTime {
        if spec.app_cpu_ns > 0 {
            cpu = self.init_run_on(t, cpu, spec.app_cpu_ns);
        }
        let first_stage = matches!(spec.stage, Some(FsyncStage::Data))
            || (matches!(spec.stage, Some(FsyncStage::Meta))
                && self.threads[t].stage_marks[0].is_none()
                && self.threads[t].op_start == SimTime::ZERO)
            || (spec.stage.is_some()
                && self.threads[t].stage_marks.iter().all(|m| m.is_none())
                && !self.threads[t].syncing);
        if spec.stage.is_some() && first_stage && self.threads[t].op_start == SimTime::ZERO {
            self.threads[t].op_start = cpu;
        }
        cpu
    }

    /// Records the dispatch mark of an fsync stage.
    fn mark_stage(&mut self, t: usize, stage: FsyncStage, at: SimTime) {
        let idx = stage_index(stage);
        if self.threads[t].stage_marks[idx].is_none() {
            self.threads[t].stage_marks[idx] = Some(at);
        }
    }

    /// Finishes the current fsync op at `now` (the sync point cleared).
    pub(super) fn finish_op(&mut self, t: usize, now: SimTime) {
        let th = &self.threads[t];
        let start = th.op_start;
        let marks = th.stage_marks;
        self.ops_done += 1;
        if start != SimTime::ZERO || marks.iter().any(|m| m.is_some()) {
            self.op_latency.record(now.since(start));
            let mut prev = start;
            for (i, m) in marks.iter().enumerate() {
                if let Some(at) = m {
                    self.stage_lat[i].record(at.since(prev).as_nanos() as f64);
                    prev = *at;
                }
            }
            self.stage_lat[3].record(now.since(prev).as_nanos() as f64);
        }
        let th = &mut self.threads[t];
        th.op_start = SimTime::ZERO;
        th.stage_marks = [None; 3];
    }

    /// Rio: submit batches through the sequencer and ORDER queue.
    fn submit_async_rio(&mut self, now: SimTime, t: usize) {
        if self.threads[t].syncing {
            self.threads[t].parked = true;
            return;
        }
        let window = self.cfg.max_inflight_per_stream;
        let mut cpu = now;
        'outer: while self.threads[t].inflight < window && self.thread_has_work(t) {
            let batch = self.workload.batch.max(1);
            let mut submitted = 0;
            let mut hit_sync = false;
            while submitted < batch && self.threads[t].inflight < window && self.thread_has_work(t)
            {
                let spec = self.next_group_spec(t);
                cpu = self.note_group_start(cpu, t, &spec);
                let stream = self.threads[t].stream;
                let n = spec.members.len();
                let blocks = spec.blocks();
                let mut group_seq = 0u32;
                for (i, m) in spec.members.iter().enumerate() {
                    let last = i == n - 1;
                    cpu = self.init_run_on(
                        t,
                        cpu,
                        self.cfg.cpu.submit_bio + self.cfg.cpu.order_queue,
                    );
                    let attr = self.initiators[self.threads[t].init].sequencer.submit(
                        stream,
                        m.range,
                        SubmitOpts {
                            end_group: last,
                            ipu: false,
                            flush: last && spec.flush,
                        },
                    );
                    if last {
                        group_seq = attr.seq_start.0;
                        self.group_info[stream.0 as usize].insert(
                            attr.seq_start.0,
                            GroupInfo {
                                blocks,
                                submitted: cpu,
                                thread: t,
                                stage: spec.stage,
                            },
                        );
                        if let Some(tm) = &mut self.telemetry {
                            tm.group_submitted(cpu, 1);
                        }
                    }
                    self.order_queues[stream.0 as usize].push(attr, 0);
                }
                if self.track_replay {
                    // Keep the spec until delivery so a recovery can
                    // re-queue rolled-back groups for resubmission.
                    self.threads[t].replay.push_back((group_seq, spec.clone()));
                }
                self.threads[t].inflight += 1;
                submitted += 1;
                if spec.sync_after {
                    hit_sync = true;
                    break;
                }
            }
            // Flush the ORDER queue: merge pass + dispatch.
            let stream = self.threads[t].stream;
            let units = self.order_queues[stream.0 as usize].flush();
            for unit in units {
                let merged_extra = unit.parts.len().saturating_sub(1) as u64;
                if merged_extra > 0 {
                    cpu = self.init_run_on(t, cpu, self.cfg.cpu.merge_per_bio * merged_extra);
                }
                cpu = self.dispatch_rio_unit(cpu, t, unit);
            }
            if hit_sync {
                self.threads[t].syncing = true;
                self.threads[t].parked = true;
                if self.threads[t].inflight == 0 {
                    // Degenerate: everything already completed.
                    self.threads[t].syncing = false;
                    self.finish_op(t, cpu);
                    self.threads[t].parked = false;
                    continue 'outer;
                }
                return;
            }
        }
        if self.thread_has_work(t) || self.threads[t].inflight > 0 {
            self.threads[t].parked = true;
        } else {
            self.threads[t].done_submitting = true;
        }
    }

    /// Dispatches one Rio unit: stripe, split, stamp, send fragments.
    fn dispatch_rio_unit(
        &mut self,
        mut cpu: SimTime,
        t: usize,
        unit: rio_order::DispatchUnit,
    ) -> SimTime {
        let attr = unit.attr;
        let mut extents = std::mem::take(&mut self.extent_scratch);
        extents.clear();
        self.chunked_extents_into(attr.range, &mut extents);
        // Build logical slices for the splitter, then graft physical
        // ranges onto the fragments.
        let mut slices = std::mem::take(&mut self.slice_scratch);
        slices.clear();
        let mut off = 0u64;
        for e in &extents {
            slices.push(BlockRange::new(attr.range.lba + off, e.range.blocks));
            off += e.range.blocks as u64;
        }
        let mut frags = std::mem::take(&mut self.frag_scratch);
        frags.clear();
        split_attr_into(&attr, &slices, &mut frags);
        let blocks_total: u32 = attr.range.blocks;
        let unit_id = self.units.insert(Unit {
            parts: unit.parts.iter().map(|p| p.attr).collect(),
            plain_groups: 0,
            blocks: blocks_total,
            fragments_total: frags.len(),
            fragments_done: 0,
            submitted: cpu,
        });
        for (frag, ext) in frags.iter_mut().zip(extents.iter()) {
            frag.range = ext.range;
            frag.ssd = ext.ssd as u8;
            self.initiators[self.threads[t].init]
                .sequencer
                .stamp_dispatch(frag, ext.server);
            cpu = self.post_write(cpu, t, ext, unit_id, Some(*frag), frag.flush);
        }
        self.extent_scratch = extents;
        self.slice_scratch = slices;
        self.frag_scratch = frags;
        // Stage dispatch marks for the Fig. 14 breakdown. The same
        // `cpu` instant applies to every stage, so marking order does
        // not matter.
        let mut stages_hit = [false; 3];
        for p in unit.parts.iter().filter(|p| p.attr.boundary) {
            if let Some(info) = self.group_info[p.attr.stream.0 as usize].get(p.attr.seq_start.0)
            {
                if let Some(stage) = info.stage {
                    stages_hit[stage_index(stage)] = true;
                }
            }
        }
        for (i, hit) in stages_hit.into_iter().enumerate() {
            if hit {
                self.mark_stage(t, STAGE_BY_INDEX[i], cpu);
            }
        }
        cpu
    }

    /// Orderless: plug batching and merging, then async dispatch.
    fn submit_async_orderless(&mut self, now: SimTime, t: usize) {
        if self.threads[t].syncing {
            self.threads[t].parked = true;
            return;
        }
        let window = self.cfg.max_inflight_per_stream;
        let mut cpu = now;
        while self.threads[t].inflight < window && self.thread_has_work(t) {
            let batch = self.workload.batch.max(1);
            let mut plug = Plug::new();
            let mut groups_in_batch = 0u64;
            let mut bio_id = 0u64;
            let mut hit_sync = false;
            while groups_in_batch < batch as u64
                && self.threads[t].inflight < window
                && self.thread_has_work(t)
            {
                let spec = self.next_group_spec(t);
                cpu = self.note_group_start(cpu, t, &spec);
                for m in &spec.members {
                    cpu = self.init_run_on(t, cpu, self.cfg.cpu.submit_bio);
                    let mut bio = rio_block::Bio::write(bio_id, m.range, bio_id);
                    bio.flags.flush = spec.flush;
                    plug.add(bio);
                    bio_id += 1;
                }
                self.threads[t].inflight += 1;
                groups_in_batch += 1;
                if let Some(stage) = spec.stage {
                    self.mark_stage(t, stage, cpu);
                }
                if spec.sync_after {
                    hit_sync = true;
                    break;
                }
            }
            let max_blocks = if self.cfg.plug_merge { 32 } else { 1 };
            let runs = plug.finish(max_blocks);
            for run in runs {
                let merged_extra = run.bios.len().saturating_sub(1) as u64;
                if merged_extra > 0 {
                    cpu = self.init_run_on(t, cpu, self.cfg.cpu.merge_per_bio * merged_extra);
                }
                let flush = run.bios.iter().any(|b| b.flags.flush);
                cpu = self.dispatch_plain_unit(cpu, t, run.range, run.bios.len() as u64, flush);
            }
            if hit_sync {
                self.threads[t].syncing = true;
                self.threads[t].parked = true;
                if self.threads[t].inflight == 0 {
                    self.threads[t].syncing = false;
                    self.finish_op(t, cpu);
                    self.threads[t].parked = false;
                    continue;
                }
                return;
            }
        }
        if self.thread_has_work(t) || self.threads[t].inflight > 0 {
            self.threads[t].parked = true;
        } else {
            self.threads[t].done_submitting = true;
        }
    }

    /// Dispatches one orderless/baseline write covering `range`,
    /// representing `groups` workload groups. Returns the CPU cursor.
    fn dispatch_plain_unit(
        &mut self,
        mut cpu: SimTime,
        t: usize,
        range: BlockRange,
        groups: u64,
        flush_embedded: bool,
    ) -> SimTime {
        let mut extents = std::mem::take(&mut self.extent_scratch);
        extents.clear();
        self.chunked_extents_into(range, &mut extents);
        let unit_id = self.units.insert(Unit {
            parts: Vec::new(),
            plain_groups: groups,
            blocks: range.blocks,
            fragments_total: extents.len(),
            fragments_done: 0,
            submitted: cpu,
        });
        if let Some(tm) = &mut self.telemetry {
            tm.group_submitted(cpu, groups);
        }
        for ext in &extents {
            cpu = self.post_write(cpu, t, ext, unit_id, None, flush_embedded);
        }
        self.extent_scratch = extents;
        cpu
    }

    /// Posts one write of thread `t` covering `ext` for dispatch unit
    /// `unit` and returns the CPU cursor. Rio writes carry their
    /// ordering attribute and are tagged by its first sequence number;
    /// baseline writes are tagged by their unit. On integrity runs the
    /// payload digest is stamped first, its per-block CRC pass charged
    /// to the app core.
    fn post_write(
        &mut self,
        mut cpu: SimTime,
        t: usize,
        ext: &rio_block::Extent,
        unit: u64,
        attr: Option<OrderingAttr>,
        flush_embedded: bool,
    ) -> SimTime {
        let tag = attr.map_or(unit, |a| a.seq_start.0 as u64);
        let digest = if self.integrity {
            cpu = self.init_run_on(t, cpu, self.cfg.cpu.crc_per_block * ext.range.blocks as u64);
            let stream = self.threads[t].stream.0;
            let lba = ext.range.lba;
            PayloadDigest::over_seeds(
                (0..ext.range.blocks as u64).map(|j| payload::seed_for(stream, tag, lba + j)),
            )
        } else {
            PayloadDigest::NONE
        };
        let stamped = cpu;
        cpu = self.init_run_on(t, cpu, self.cfg.cpu.cmd_post);
        let qp = self.pick_qp(self.threads[t].stream.0 as usize);
        let cmd = Cmd {
            tag,
            attr,
            flush_embedded,
            unit,
            digest,
            ..Cmd::new(
                CmdKind::Write,
                t,
                ext.server.0 as usize,
                ext.ssd,
                qp,
                ext.range,
            )
        };
        self.send_cmd(cpu, stamped, cmd);
        cpu
    }

    /// Linux ordered NVMe-oF: one group at a time, completion + FLUSH.
    ///
    /// Block-level ordered workloads flush after every request (the
    /// classic ordered NVMe-oF of §2.2). File-system journaling flushes
    /// only on the commit record, like Ext4's sync transfer.
    fn submit_linux(&mut self, now: SimTime, t: usize) {
        if self.threads[t].sync_stage != SyncStage::Idle {
            return;
        }
        if !self.thread_has_work(t) {
            self.threads[t].done_submitting = true;
            return;
        }
        let spec = self.next_group_spec(t);
        let mut cpu = self.note_group_start(now, t, &spec);
        // Journaling stages pay the jbd2 kthread handoff (wakeup of the
        // journal thread plus the completion softirq).
        if spec.stage.is_some() {
            cpu = self.init_run_on(t, cpu, 2 * self.cfg.cpu.ctx_switch);
        }
        self.threads[t].inflight += 1;
        self.threads[t].sync_stage = SyncStage::AwaitWrite;
        self.threads[t].cur_flush_leg = spec.stage.is_none() || spec.flush;
        self.threads[t].cur_sync_after = spec.sync_after || spec.stage.is_none();
        for m in &spec.members {
            cpu = self.init_run_on(t, cpu, self.cfg.cpu.submit_bio);
            cpu = self.dispatch_plain_unit(cpu, t, m.range, 1, false);
        }
        if let Some(stage) = spec.stage {
            self.mark_stage(t, stage, cpu);
        }
    }

    /// Horae: serialized control path, then asynchronous data path.
    fn submit_horae(&mut self, now: SimTime, t: usize) {
        if self.threads[t].syncing {
            self.threads[t].parked = true;
            return;
        }
        // Respect the serialized control-path gap even when woken early
        // by a data completion.
        if now < self.threads[t].ctrl_gate_until {
            let at = self.threads[t].ctrl_gate_until;
            self.events.push(at, Event::Resume(t));
            return;
        }
        let window = self.cfg.max_inflight_per_stream;
        let mut cpu = now;
        while !self.threads[t].ctrl_outstanding
            && self.threads[t].inflight < window
            && self.thread_has_work(t)
        {
            let spec = self.next_group_spec(t);
            cpu = self.note_group_start(cpu, t, &spec);
            self.threads[t].inflight += 1;
            cpu = self.init_run_on(t, cpu, self.cfg.cpu.horae_ctrl_post);
            // Control metadata goes to the group's primary target.
            let primary = self.volume.map_block(spec.members[0].range.lba).0 .0 as usize;
            let qp = self.threads[t].stream.0 as usize % self.cfg.qps_per_target;
            let init_qp = self.target_qp(primary, qp);
            let init = self.threads[t].init;
            let delivery = self
                .fabric
                .send(&mut self.initiators[init].nic, init_qp, cpu, 64);
            self.ctrl_sent += 1;
            self.threads[t].ctrl_pending.push_back((spec, cpu));
            self.threads[t].ctrl_outstanding = true;
            self.events.push(
                delivery,
                Event::CtrlArrive {
                    target: primary,
                    thread: t,
                },
            );
        }
        if self.thread_has_work(t) || self.threads[t].inflight > 0 {
            self.threads[t].parked = true;
        } else {
            self.threads[t].done_submitting = true;
        }
    }

    pub(super) fn on_ctrl_ack(&mut self, now: SimTime, thread: usize) {
        let t = thread;
        let cpu = self.init_run_on(t, now, self.cfg.cpu.irq);
        self.threads[t].ctrl_outstanding = false;
        // Dispatch the acknowledged group's data path asynchronously.
        let (spec, _posted) = self.threads[t]
            .ctrl_pending
            .pop_front()
            .expect("ctrl ack without pending group");
        let mut c = cpu;
        for m in &spec.members {
            c = self.init_run_on(t, c, self.cfg.cpu.submit_bio);
            c = self.dispatch_plain_unit(c, t, m.range, 1, spec.flush);
        }
        if let Some(stage) = spec.stage {
            self.mark_stage(t, stage, c);
        }
        if spec.sync_after {
            self.threads[t].syncing = true;
            self.threads[t].parked = true;
            if self.threads[t].inflight == 0 {
                self.threads[t].syncing = false;
                self.finish_op(t, c);
                self.events.push(c, Event::Resume(t));
            }
            return;
        }
        // The serialized control path may proceed with the next group
        // only after the ordering-layer gap.
        let next = c + rio_sim::SimDuration::from_nanos(self.cfg.cpu.horae_ctrl_gap);
        self.threads[t].ctrl_gate_until = next;
        self.events.push(next, Event::Resume(t));
    }

    /// Charges `cost_ns` on thread `t`'s pinned core of its initiator.
    fn init_run_on(&mut self, t: usize, now: SimTime, cost_ns: u64) -> SimTime {
        let (init, core) = (self.threads[t].init, self.threads[t].core);
        self.initiators[init].cores.run_on(core, now, cost_ns)
    }

    /// Splits a logical range into per-device extents capped at the
    /// device transfer limit and the PMR record length field, appending
    /// to `out`. Uses the internal map scratch buffer, so callers pass
    /// a buffer they took out of `self` first.
    fn chunked_extents_into(&mut self, range: BlockRange, out: &mut Vec<rio_block::Extent>) {
        let mut mapped = std::mem::take(&mut self.map_scratch);
        mapped.clear();
        self.volume.map_into(range, &mut mapped);
        for e in &mapped {
            let prof = self.targets[e.server.0 as usize].ssds[e.ssd].profile();
            let cap = prof.max_transfer_blocks.min(255).max(1);
            let mut remaining = e.range.blocks;
            let mut lba = e.range.lba;
            let mut off = e.logical_offset;
            while remaining > 0 {
                let take = remaining.min(cap);
                out.push(rio_block::Extent {
                    server: e.server,
                    ssd: e.ssd,
                    range: BlockRange::new(lba, take),
                    logical_offset: off,
                });
                lba += take as u64;
                off += take as u64;
                remaining -= take;
            }
        }
        self.map_scratch = mapped;
    }

    pub(super) fn on_cmd_complete(&mut self, now: SimTime, id: u64) {
        let cmd = self.cmds.remove(id).expect("cmd exists");
        let t = cmd.thread;
        let cpu = self.init_run_on(t, now, self.cfg.cpu.irq);
        if let Some(tm) = &mut self.telemetry {
            tm.cmd_done(cpu);
        }
        if let Some(tr) = &mut self.trace {
            tr.rec(cmd.trace, Stage::Complete, cpu);
            if cmd.attr.is_none() {
                // No in-order completer on the baseline paths:
                // completion is delivery, the trace closes here.
                tr.finish_unordered(cmd.trace, cpu);
            }
        }

        if cmd.kind == CmdKind::Flush {
            // Linux mode flush leg.
            self.on_sync_flush_complete(cpu, t);
            return;
        }

        let unit_id = cmd.unit;
        let finished = {
            let unit = self.units.get_mut(unit_id).expect("unit exists");
            unit.fragments_done += 1;
            unit.fragments_done == unit.fragments_total
        };
        if !finished {
            return;
        }
        let unit = self.units.remove(unit_id).expect("unit exists");

        if cmd.attr.is_some() {
            // Rio: unroll the unit's parts into the in-order completer.
            let mut delivered = std::mem::take(&mut self.delivered_scratch);
            delivered.clear();
            let init = self.threads[t].init;
            for part in &unit.parts {
                self.initiators[init].completer.on_done_into(part, &mut delivered);
            }
            let stream = unit.parts[0].stream;
            if self.trace.is_some() || self.telemetry.is_some() {
                let held: usize = self
                    .initiators
                    .iter()
                    .map(|i| i.completer.total_pending())
                    .sum();
                if let Some(tr) = &mut self.trace {
                    // Commands delivered through the in-order completer
                    // close now; sample its held-back pressure too.
                    if let Some(&last) = delivered.last() {
                        tr.deliver(stream.0 as usize, last.0, cpu);
                    }
                    tr.note_completer_held(held as u64);
                }
                if let Some(tm) = &mut self.telemetry {
                    tm.completer_pending(cpu, held as u64);
                }
            }
            for &seq in &delivered {
                let info = self.group_info[stream.0 as usize]
                    .remove(seq.0)
                    .expect("delivered group was submitted");
                if self.track_replay {
                    let popped = self.threads[info.thread].replay.pop_front();
                    debug_assert!(
                        matches!(popped, Some((s, _)) if s == seq.0),
                        "replay buffer out of sync with in-order delivery"
                    );
                }
                let owner = info.thread;
                self.note_delivered(owner, 1, info.blocks as u64, info.submitted, cpu);
                self.released_through[stream.0 as usize] =
                    self.released_through[stream.0 as usize].max(seq.0);
                self.threads[owner].inflight -= 1;
                self.maybe_wake(cpu, owner);
            }
            self.delivered_scratch = delivered;
        } else {
            let blocks = unit.blocks as u64;
            self.note_delivered(t, unit.plain_groups, blocks, unit.submitted, cpu);
            if self.mode_kind == ModeKind::Linux {
                // Write leg finished; issue the FLUSH leg.
                self.on_sync_write_complete(cpu, t, &cmd);
            } else {
                // Orderless / Horae data path.
                self.threads[t].inflight -= unit.plain_groups as usize;
                self.maybe_wake(cpu, t);
            }
        }
    }

    /// Accounts `groups` groups of `blocks` blocks in total, submitted
    /// by thread `t` at `submitted`, as delivered at `at`: the run and
    /// per-initiator counters, the group latency histograms, and the
    /// telemetry series.
    pub(super) fn note_delivered(
        &mut self,
        t: usize,
        groups: u64,
        blocks: u64,
        submitted: SimTime,
        at: SimTime,
    ) {
        self.groups_done += groups;
        self.blocks_done += blocks;
        if let Some(tm) = &mut self.telemetry {
            tm.delivered(at, groups, blocks);
        }
        let latency = at.since(submitted);
        self.group_latency.record(latency);
        self.last_completion = self.last_completion.max(at);
        let im = &mut self.initiators[self.threads[t].init];
        im.groups_done += groups;
        im.blocks_done += blocks;
        im.group_latency.record(latency);
        im.finished_at = im.finished_at.max(at);
    }

    /// Linux mode: after the ordered write completes, send a FLUSH leg
    /// when the group requires one, otherwise finish the group.
    fn on_sync_write_complete(&mut self, now: SimTime, t: usize, cmd: &Cmd) {
        debug_assert_eq!(self.threads[t].sync_stage, SyncStage::AwaitWrite);
        let cpu = self.init_run_on(t, now, self.cfg.cpu.ctx_switch);
        if !self.threads[t].cur_flush_leg {
            self.finish_sync_group(cpu, t);
            return;
        }
        self.threads[t].sync_stage = SyncStage::AwaitFlush { remaining: 1 };
        let c = self.init_run_on(t, cpu, self.cfg.cpu.cmd_post);
        let phys = BlockRange::new(0, 1);
        let flush_cmd = Cmd::new(CmdKind::Flush, t, cmd.target, cmd.ssd, cmd.qp, phys);
        self.send_cmd(c, cpu, flush_cmd);
    }

    fn on_sync_flush_complete(&mut self, now: SimTime, t: usize) {
        let SyncStage::AwaitFlush { remaining } = self.threads[t].sync_stage else {
            unreachable!("flush completion outside AwaitFlush");
        };
        if remaining > 1 {
            self.threads[t].sync_stage = SyncStage::AwaitFlush {
                remaining: remaining - 1,
            };
            return;
        }
        self.finish_sync_group(now, t);
    }

    /// Finishes the current synchronous group and moves on.
    fn finish_sync_group(&mut self, now: SimTime, t: usize) {
        self.threads[t].sync_stage = SyncStage::Idle;
        self.threads[t].inflight -= 1;
        self.last_completion = self.last_completion.max(now);
        if self.threads[t].cur_sync_after {
            self.finish_op(t, now);
        }
        let cpu = self.init_run_on(t, now, self.cfg.cpu.ctx_switch);
        self.events.push(cpu, Event::Resume(t));
    }

    /// Wakes a parked thread whose window has room again, or whose
    /// sync point (fsync wait) is now satisfied.
    fn maybe_wake(&mut self, now: SimTime, t: usize) {
        if self.threads[t].syncing {
            if self.threads[t].inflight == 0 {
                self.threads[t].syncing = false;
                self.finish_op(t, now);
                self.threads[t].parked = false;
                let cpu = self.init_run_on(t, now, self.cfg.cpu.ctx_switch);
                self.events.push(cpu, Event::Resume(t));
            }
            return;
        }
        if self.threads[t].parked
            && (self.thread_has_work(t) || !self.threads[t].ctrl_pending.is_empty())
            && self.threads[t].inflight < self.cfg.max_inflight_per_stream
        {
            self.threads[t].parked = false;
            let cpu = self.init_run_on(t, now, self.cfg.cpu.ctx_switch);
            self.events.push(cpu, Event::Resume(t));
        }
    }
}
