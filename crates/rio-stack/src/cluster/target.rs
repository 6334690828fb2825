//! Target side: command arrival, the in-order submission gate, the PMR
//! log append and persist toggle, the per-tenant DRR at SSD admission,
//! and SSD write/FLUSH completion.

use rio_order::attr::{OrderingAttr, Seq, StreamId};
use rio_order::pmrlog::SlotRef;
use rio_proto::{payload, PayloadDigest};
use rio_sim::SimTime;
use rio_ssd::BlockImage;

use crate::trace::Stage;

use super::{Cluster, CmdKind, Event, Leg, DRR_OUTSTANDING_CAP, DRR_QUANTUM_BLOCKS};

impl Cluster {
    pub(super) fn on_ctrl_arrive(&mut self, now: SimTime, target: usize, thread: usize) {
        // Target CPU: RECV + ordering-layer bookkeeping + PMR MMIO.
        // The ordering layer appends metadata in global order, so the
        // handler serializes on one dedicated core.
        let core = 0;
        let done = self.targets[target]
            .cores
            .run_on(core, now, self.cfg.cpu.horae_ctrl_handle);
        // Acknowledge over the target's NIC, on the sender's
        // connection QP group.
        let qp = self.conn_qp(
            thread,
            self.threads[thread].stream.0 as usize % self.cfg.qps_per_target,
        );
        let delivery = self
            .fabric
            .send(&mut self.targets[target].nic, qp, done, 16);
        self.events.push(delivery, Event::CtrlAck { thread });
    }

    /// Index into the tenant table of thread `t`'s tenant.
    fn tenant_index_of_thread(&self, t: usize) -> usize {
        let tenant = self.initiators[self.threads[t].init].tenant;
        self.tenants
            .iter()
            .position(|&x| x == tenant)
            .expect("tenant registered at construction")
    }

    /// Schedules the SSD submission once both halves of a command are
    /// ready: the driver work (CPU + gate release) and the data pull.
    /// Whichever side finishes second triggers the event, so it fires
    /// exactly once.
    pub(super) fn try_ssd_submit(&mut self, id: u64) {
        let cmd = self.cmds.get(id).expect("cmd exists");
        if cmd.data_ready != SimTime::FAR_FUTURE && cmd.driver_ready != SimTime::FAR_FUTURE {
            let at = cmd.data_ready.max(cmd.driver_ready);
            self.events.push(at, Event::SsdSubmit(id));
        }
    }

    pub(super) fn on_cmd_arrive(&mut self, now: SimTime, id: u64) {
        let (target_idx, qp, kind, bytes, attr, ssd_idx, tid, init) = {
            let cmd = self.cmds.get(id).expect("cmd exists");
            (
                cmd.target,
                cmd.qp,
                cmd.kind,
                cmd.phys.blocks as u64 * 4096,
                cmd.attr,
                cmd.ssd,
                cmd.trace,
                self.threads[cmd.thread].init,
            )
        };
        // Target-side work lands on the core of the sender's
        // connection QP (one QP group per initiator).
        let core = init * self.cfg.qps_per_target + qp;
        let recv_done = self.targets[target_idx]
            .cores
            .run_on(core, now, self.cfg.cpu.target_recv);
        if let Some(tr) = &mut self.trace {
            tr.rec(tid, Stage::GateAdmit, recv_done);
            tr.gate_depth(tid, self.targets[target_idx].gate.buffered() as u32);
        }
        if self.telemetry.is_some() {
            let depth = self.targets[target_idx].gate.buffered() as u32;
            let tm = self.telemetry.as_mut().expect("checked above");
            tm.gate_depth(recv_done, depth);
        }

        if kind == CmdKind::Flush {
            // Explicit FLUSH command (Linux mode): straight to the SSD.
            let submit =
                self.targets[target_idx]
                    .cores
                    .run_on(core, recv_done, self.cfg.cpu.ssd_submit);
            if let Some(tr) = &mut self.trace {
                tr.rec(tid, Stage::GateRelease, submit);
            }
            let (_op, done) = self.targets[target_idx].ssds[ssd_idx].submit_flush(submit);
            self.events.push(done, Event::SsdFlushDone(id));
            return;
        }

        // Pull the data blocks with a one-sided RDMA READ (overlaps any
        // gate wait). A dropped packet parks the pull in go-back-N
        // recovery; `data_ready` stays FAR_FUTURE until the resend
        // completes and the submission waits for it. The driver side
        // is not ready yet, so a delivered pull submits nothing here.
        let init_qp = self.target_qp(target_idx, qp);
        let step = self.fabric.pull_burst(
            &mut self.targets[target_idx].nic,
            &mut self.initiators[init].nic,
            init_qp,
            recv_done,
            bytes,
        );
        self.schedule_xfer(id, bytes, step, Leg::DataPull);

        if let Some(attr) = attr {
            // Apply the release piggyback for this stream.
            let stream = attr.stream;
            self.apply_release(target_idx, stream, self.released_through[stream.0 as usize]);
            // The in-order submission gate may buffer the command.
            let mut released = std::mem::take(&mut self.gate_scratch);
            released.clear();
            self.targets[target_idx]
                .gate
                .arrive_into(attr, id, &mut released);
            if !released.iter().any(|&(_, rid)| rid == id) {
                // The arriving command was held back out of order;
                // bill the buffering to its initiator.
                self.initiators[init].gate_buffered += 1;
            }
            let mut cpu = recv_done;
            for &(r_attr, r_id) in &released {
                cpu = self.rio_release(cpu, target_idx, r_attr, r_id);
            }
            self.gate_scratch = released;
        } else {
            // Baselines submit once the driver CPU work and the data
            // pull both finish (a scheduled event keeps the device
            // clock monotone).
            let submit =
                self.targets[target_idx]
                    .cores
                    .run_on(core, recv_done, self.cfg.cpu.ssd_submit);
            if let Some(tr) = &mut self.trace {
                // No gate on the baseline path: release == driver done.
                tr.rec(tid, Stage::GateRelease, submit);
            }
            self.cmds.get_mut(id).expect("cmd exists").driver_ready = submit;
            self.try_ssd_submit(id);
        }
    }

    /// Submits a command's write to its SSD at the event's instant.
    ///
    /// On integrity runs the target first re-derives the payload digest
    /// over the pulled bytes and checks it against the capsule's stamp
    /// (charging a per-block CRC pass). The fabric NAKs every corrupted
    /// packet back into go-back-N recovery, so by construction the
    /// check always passes here — the assert *is* the end-to-end
    /// guarantee that no corrupted payload reaches media. The write
    /// then carries real payload bytes, sealed on landing.
    pub(super) fn on_ssd_submit(&mut self, now: SimTime, id: u64) {
        let target_idx = self.cmds.get(id).expect("cmd exists").target;
        if self.targets[target_idx].drr.is_some() {
            // Multi-tenant run: the write queues behind its tenant's
            // DRR share instead of hitting the device directly.
            let (tenant_idx, blocks) = {
                let cmd = self.cmds.get(id).expect("cmd exists");
                (self.tenant_index_of_thread(cmd.thread), cmd.phys.blocks)
            };
            let drr = self.targets[target_idx].drr.as_mut().expect("checked above");
            drr.queues[tenant_idx].push_back((id, now, blocks));
            self.drr_pump(now, target_idx);
            return;
        }
        self.ssd_submit_now(now, id);
    }

    /// Admits a write to its SSD unconditionally (the DRR already ran,
    /// or the run is single-tenant and the scheduler is inert).
    fn ssd_submit_now(&mut self, now: SimTime, id: u64) {
        let (target_idx, ssd_idx, lba, blocks, tag, core, stream, digest) = {
            let cmd = self.cmds.get(id).expect("cmd exists");
            let stream = cmd
                .attr
                .map(|a| a.stream.0)
                .unwrap_or(self.threads[cmd.thread].stream.0);
            (
                cmd.target,
                cmd.ssd,
                cmd.phys.lba,
                cmd.phys.blocks,
                cmd.tag,
                self.conn_qp(cmd.thread, cmd.qp),
                stream,
                cmd.digest,
            )
        };
        let (at, images) = if self.integrity {
            let at = self.targets[target_idx].cores.run_on(
                core,
                now,
                self.cfg.cpu.crc_per_block * blocks as u64,
            );
            let seeds = (0..blocks as u64).map(|j| payload::seed_for(stream, tag, lba + j));
            assert_eq!(
                PayloadDigest::over_seeds(seeds.clone()),
                digest,
                "corrupted payload reached the target SSD queue"
            );
            let images = seeds.map(BlockImage::Payload).collect();
            (at, images)
        } else {
            (now, vec![BlockImage::Tag(tag); blocks as usize])
        };
        if let Some(tm) = &mut self.telemetry {
            tm.ssd_admit(at, target_idx);
        }
        let (_op, done) =
            self.targets[target_idx].ssds[ssd_idx].submit_write(at, lba, images, false);
        self.events.push(done, Event::SsdWriteDone(id));
    }

    /// Runs one target's deficit-round-robin scheduler: while the
    /// admission cap has room and tenants have queued writes, the
    /// cursor tenant earns `weight × quantum` blocks of deficit per
    /// visit and drains queue heads while the deficit lasts. Admitted
    /// writes hit the SSD at `now`; their wait is recorded in the
    /// per-tenant admission histogram.
    fn drr_pump(&mut self, now: SimTime, target_idx: usize) {
        let mut admit: Vec<(usize, u64, SimTime)> = Vec::new();
        if let Some(drr) = &mut self.targets[target_idx].drr {
            let n = drr.queues.len();
            while drr.outstanding < DRR_OUTSTANDING_CAP && !drr.is_empty() {
                let i = drr.cursor;
                if drr.queues[i].is_empty() {
                    // An emptied queue forfeits its leftover deficit
                    // (classic DRR: no banking while idle).
                    drr.deficits[i] = 0;
                    drr.cursor = (i + 1) % n;
                    drr.fresh = true;
                    continue;
                }
                // One quantum per *visit*, not per pump call: the
                // outstanding cap slices a visit across many calls,
                // and re-granting the quantum on every admission slot
                // would collapse the weights into plain round-robin.
                if drr.fresh {
                    drr.deficits[i] += DRR_QUANTUM_BLOCKS * drr.weights[i].max(1) as u64;
                    drr.fresh = false;
                }
                let &(id, queued_at, blocks) = drr.queues[i].front().expect("non-empty");
                if (blocks as u64) > drr.deficits[i] {
                    // Deficit spent; the remainder carries into the
                    // next round so oversized writes still progress.
                    drr.cursor = (i + 1) % n;
                    drr.fresh = true;
                    continue;
                }
                drr.deficits[i] -= blocks as u64;
                drr.queues[i].pop_front();
                drr.outstanding += 1;
                admit.push((i, id, queued_at));
            }
        }
        for (tenant_idx, id, queued_at) in admit {
            self.tenant_gate_wait[tenant_idx].record(now.since(queued_at));
            if let Some(tm) = &mut self.telemetry {
                tm.drr_wait(now, tenant_idx, now.since(queued_at));
            }
            self.ssd_submit_now(now, id);
        }
    }

    /// Submits a command's embedded FLUSH at the event's instant.
    pub(super) fn on_ssd_flush_submit(&mut self, now: SimTime, id: u64) {
        let (target_idx, ssd_idx) = {
            let cmd = self.cmds.get(id).expect("cmd exists");
            (cmd.target, cmd.ssd)
        };
        let (_op, done) = self.targets[target_idx].ssds[ssd_idx].submit_flush(now);
        self.events.push(done, Event::SsdFlushDone(id));
    }

    /// Processes one gate release: PMR append, then SSD submission.
    fn rio_release(
        &mut self,
        cpu: SimTime,
        target_idx: usize,
        attr: OrderingAttr,
        id: u64,
    ) -> SimTime {
        let core = {
            let cmd = self.cmds.get(id).expect("cmd exists");
            self.conn_qp(cmd.thread, cmd.qp)
        };
        let cmd = self.cmds.get_mut(id).expect("cmd exists");
        // Persist the ordering attribute before the data (step ⑤).
        let rec = attr.to_pmr_record(0);
        let target = &mut self.targets[target_idx];
        let log = target.log.as_mut().expect("rio target has a log");
        let (slot, write) = log
            .append(&rec)
            .expect("PMR log full: raise pmr size or lower inflight bound");
        target.ssds[0]
            .pmr_mut()
            .mmio_write(write.offset, &write.bytes);
        target.slots[attr.stream.0 as usize].push_back((attr.seq_end.0, slot));
        target.slot_seen[attr.stream.0 as usize] = true;
        cmd.slot = Some(slot);
        let tid = cmd.trace;
        if let Some(tr) = &mut self.trace {
            tr.rec(tid, Stage::GateRelease, cpu);
        }
        let cpu = self.targets[target_idx]
            .cores
            .run_on(core, cpu, self.cfg.cpu.pmr_append);
        if let Some(tr) = &mut self.trace {
            tr.rec(tid, Stage::PmrPersist, cpu);
        }
        // Submit to the SSD once the driver work and the data pull both
        // finish (via an event, keeping the device clock monotone). A
        // retransmitted data pull may still be in flight here.
        let submit = self.targets[target_idx]
            .cores
            .run_on(core, cpu, self.cfg.cpu.ssd_submit);
        self.cmds.get_mut(id).expect("cmd exists").driver_ready = submit;
        self.try_ssd_submit(id);
        cpu
    }

    /// Applies a delivered-through release from the initiator: frees
    /// PMR slots and advances the superblock head mark.
    fn apply_release(&mut self, target_idx: usize, stream: StreamId, through: u32) {
        let target = &mut self.targets[target_idx];
        let applied = &mut target.applied_release[stream.0 as usize];
        if through <= *applied {
            return;
        }
        *applied = through;
        // Only streams that ever appended a slot here carry a head mark
        // in this target's PMR superblock.
        if target.slot_seen[stream.0 as usize] {
            let q = &mut target.slots[stream.0 as usize];
            let log = target.log.as_mut().expect("rio target");
            while let Some(&(seq_end, slot)) = q.front() {
                if seq_end <= through {
                    q.pop_front();
                    log.free(slot);
                } else {
                    break;
                }
            }
            let w = log.set_head_seq(stream, Seq(through));
            target.ssds[0].pmr_mut().mmio_write(w.offset, &w.bytes);
        }
    }

    pub(super) fn on_ssd_write_done(&mut self, now: SimTime, id: u64) {
        let (target_idx, core, flush_embedded, is_rio, slot_opt, plp, tid) = {
            let cmd = self.cmds.get(id).expect("cmd exists");
            let plp = self.targets[cmd.target].ssds[cmd.ssd].profile().plp;
            (
                cmd.target,
                self.conn_qp(cmd.thread, cmd.qp),
                cmd.flush_embedded,
                cmd.attr.is_some(),
                cmd.slot,
                plp,
                cmd.trace,
            )
        };
        if let Some(tm) = &mut self.telemetry {
            tm.ssd_done(now, target_idx);
        }
        if let Some(drr) = &mut self.targets[target_idx].drr {
            // A completed write frees one admission slot; let the DRR
            // refill it before the completion is processed.
            drr.outstanding = drr.outstanding.saturating_sub(1);
            self.drr_pump(now, target_idx);
        }
        if let Some(tr) = &mut self.trace {
            // An embedded FLUSH overwrites this stamp when it lands
            // (last write wins): media-done is the durability instant.
            tr.rec(tid, Stage::MediaDone, now);
        }
        let mut cpu = self.targets[target_idx]
            .cores
            .run_on(core, now, self.cfg.cpu.irq);
        if flush_embedded {
            // The final request of a durability group embeds a FLUSH
            // (§4.6): run it before completing.
            self.events.push(cpu, Event::SsdFlushSubmit(id));
            return;
        }
        if is_rio && plp {
            // PLP drives: data is durable at completion; toggle the
            // persist bit now (step ⑦).
            cpu = self.toggle_persist(cpu, target_idx, core, slot_opt);
        }
        self.send_completion(cpu, id);
    }

    pub(super) fn on_ssd_flush_done(&mut self, now: SimTime, id: u64) {
        let (target_idx, core, is_rio, slot_opt, tid) = {
            let cmd = self.cmds.get(id).expect("cmd exists");
            (
                cmd.target,
                self.conn_qp(cmd.thread, cmd.qp),
                cmd.attr.is_some(),
                cmd.slot,
                cmd.trace,
            )
        };
        if let Some(tr) = &mut self.trace {
            tr.rec(tid, Stage::MediaDone, now);
        }
        let mut cpu = self.targets[target_idx]
            .cores
            .run_on(core, now, self.cfg.cpu.irq);
        if is_rio {
            // Non-PLP durability: only the FLUSH carrier's persist bit
            // is toggled; it vouches for everything before it (§4.3.2).
            cpu = self.toggle_persist(cpu, target_idx, core, slot_opt);
        }
        self.send_completion(cpu, id);
    }

    /// Sets the persist bit of a Rio command's PMR record, if it holds
    /// a slot, and charges the toggle on `core`.
    fn toggle_persist(
        &mut self,
        cpu: SimTime,
        target_idx: usize,
        core: usize,
        slot: Option<SlotRef>,
    ) -> SimTime {
        let target = &mut self.targets[target_idx];
        if let Some(slot) = slot {
            let w = target.log.as_ref().expect("rio target").mark_persist(slot);
            target.ssds[0].pmr_mut().mmio_write(w.offset, &w.bytes);
        }
        target.cores.run_on(core, cpu, self.cfg.cpu.pmr_toggle)
    }
}
