//! The fabric legs of a command: QP addressing, capsule and completion
//! SENDs, and the one go-back-N resend path all three legs share.

use rio_sim::SimTime;

use super::{Cluster, Cmd, CmdKind, Event, Leg, CMD_CAPSULE_BYTES, COMPLETION_BYTES};

impl Cluster {
    /// Initiator-side QP index for (target, qp-within-connection).
    pub(super) fn target_qp(&self, target: usize, qp: usize) -> usize {
        target * self.cfg.qps_per_target + qp
    }

    /// Target-side connection QP for thread `t`'s command: every
    /// initiator owns one group of `qps_per_target` QPs on each target
    /// NIC, so the wire QP is the initiator's base plus the
    /// within-connection QP. Single-initiator runs reduce to `qp`.
    pub(super) fn conn_qp(&self, t: usize, qp: usize) -> usize {
        self.threads[t].init * self.cfg.qps_per_target + qp
    }

    /// Picks the QP for a command of `stream`: pinned (Principle 2) or
    /// scattered round-robin (the ablation).
    pub(super) fn pick_qp(&mut self, stream: usize) -> usize {
        if self.cfg.pin_stream_to_qp {
            stream % self.cfg.qps_per_target
        } else {
            self.scatter_qp += 1;
            (self.scatter_qp as usize) % self.cfg.qps_per_target
        }
    }

    /// Applies one fabric transfer step on `leg` of command `id`. A
    /// delivered capsule schedules its arrival event; a delivered data
    /// pull marks the data in and may submit the write. A drop parks the
    /// leg's go-back-N window on the command and schedules its resend at
    /// the recovery timeout.
    pub(super) fn schedule_xfer(&mut self, id: u64, bytes: u64, step: rio_net::XferStep, leg: Leg) {
        match step {
            rio_net::XferStep::Delivered { at } => match leg {
                Leg::Capsule => self.events.push(at, Event::CmdArrive(id)),
                Leg::Completion => self.events.push(at, Event::CmdComplete(id)),
                Leg::DataPull => {
                    self.cmds.get_mut(id).expect("cmd exists").data_ready = at;
                    self.try_ssd_submit(id);
                }
            },
            rio_net::XferStep::Dropped {
                resume_at,
                pkts_left,
                corrupted,
            } => {
                let cmd = self.cmds.get_mut(id).expect("cmd exists");
                cmd.retx_pkts = pkts_left;
                cmd.retx_bytes = bytes;
                cmd.retx_corrupt = corrupted;
                self.events.push(resume_at, Event::Resend(id, leg));
            }
        }
    }

    /// Sends one command capsule over the fabric: either it arrives at
    /// the target (`CmdArrive`) or a packet drops and the go-back-N
    /// timeout is scheduled as a `Resend` event. `stamped` is the
    /// instant the command was stamped/generated, before the post CPU
    /// charge — the head of its stage trace.
    pub(super) fn send_cmd(&mut self, now: SimTime, stamped: SimTime, mut cmd: Cmd) {
        self.commands_sent += 1;
        let init = self.threads[cmd.thread].init;
        self.initiators[init].commands_sent += 1;
        if let Some(tm) = &mut self.telemetry {
            tm.cmd_sent(now);
        }
        if let Some(tr) = &mut self.trace {
            let stream = cmd
                .attr
                .map(|a| a.stream.0)
                .unwrap_or(self.threads[cmd.thread].stream.0);
            let tid = tr.open(
                init as u16,
                stream,
                cmd.attr.map(|a| (a.seq_start.0, a.seq_end.0)),
                cmd.target as u16,
                cmd.ssd as u16,
                cmd.phys.lba,
                cmd.flush_embedded || cmd.kind == CmdKind::Flush,
                stamped,
                now,
            );
            if let Some(a) = &cmd.attr {
                tr.pending_push(a.stream.0 as usize, a.seq_end.0, tid);
            }
            cmd.trace = tid;
        }
        let qp = self.target_qp(cmd.target, cmd.qp);
        let id = self.cmds.insert(cmd);
        let step =
            self.fabric
                .send_burst(&mut self.initiators[init].nic, qp, now, CMD_CAPSULE_BYTES);
        self.schedule_xfer(id, CMD_CAPSULE_BYTES, step, Leg::Capsule);
    }

    /// A go-back-N timeout fired on `leg` of command `id`: resend the
    /// window from the lost packet. The capsule goes out on the
    /// initiator's NIC, the data pull and the completion on the
    /// target's.
    pub(super) fn on_resend(&mut self, now: SimTime, id: u64, leg: Leg) {
        let (target, qp, pkts, bytes, tid, corrupt, thread) = {
            let cmd = self.cmds.get(id).expect("cmd exists");
            (
                cmd.target,
                cmd.qp,
                cmd.retx_pkts,
                cmd.retx_bytes,
                cmd.trace,
                cmd.retx_corrupt,
                cmd.thread,
            )
        };
        let init = self.threads[thread].init;
        // `pkts > packets_for(bytes)` encodes a lost pull *request*:
        // this round retransmits only that one header packet — the
        // data window, never transmitted, goes out as a first try
        // and must not be annotated (it is not counted as a wire
        // retransmission either).
        let n = if leg == Leg::DataPull && pkts > self.fabric.profile().packets_for(bytes) {
            1
        } else {
            pkts
        };
        if let Some(tr) = &mut self.trace {
            // The whole remaining window goes back on the wire this
            // round (go-back-N), each packet counted exactly once.
            if corrupt {
                tr.retx_corrupt(tid, n);
            } else {
                tr.retx(tid, n);
            }
        }
        if let Some(tm) = &mut self.telemetry {
            let bad = if corrupt { n } else { 0 };
            match leg {
                Leg::Capsule => tm.retx_initiator(now, init, n, bad),
                Leg::DataPull | Leg::Completion => tm.retx_target(now, target, n, bad),
            }
        }
        let step = match leg {
            Leg::Capsule => {
                let qp = self.target_qp(target, qp);
                self.fabric
                    .resume_send(&mut self.initiators[init].nic, qp, now, pkts, bytes)
            }
            Leg::DataPull => {
                let init_qp = self.target_qp(target, qp);
                self.fabric.resume_pull(
                    &mut self.targets[target].nic,
                    &mut self.initiators[init].nic,
                    init_qp,
                    now,
                    pkts,
                    bytes,
                )
            }
            Leg::Completion => {
                let qp = self.conn_qp(thread, qp);
                self.fabric
                    .resume_send(&mut self.targets[target].nic, qp, now, pkts, bytes)
            }
        };
        self.schedule_xfer(id, bytes, step, leg);
    }

    /// Sends the completion capsule back to the initiator (with the
    /// same go-back-N recovery as the command capsule).
    pub(super) fn send_completion(&mut self, now: SimTime, id: u64) {
        let (target_idx, qp) = {
            let cmd = self.cmds.get(id).expect("cmd exists");
            (cmd.target, self.conn_qp(cmd.thread, cmd.qp))
        };
        let step = self.fabric.send_burst(
            &mut self.targets[target_idx].nic,
            qp,
            now,
            COMPLETION_BYTES,
        );
        self.schedule_xfer(id, COMPLETION_BYTES, step, Leg::Completion);
    }
}
