//! Microbenchmarks of the ordering core's hot paths.
//!
//! These measure the *real* CPU cost of the data structures the paper's
//! design leans on: attribute stamping, whole-group merging, PMR log
//! append/scan, recovery's global merge, and wire encoding. Each case
//! prints its minimum, mean and maximum ns per iteration.

use std::time::Duration;

use rio_bench::sweep::{micro, micro_batched};
use rio_order::attr::{BlockRange, OrderingAttr, StreamId};
use rio_order::pmrlog::PmrLog;
use rio_order::recovery::{RecoveryInput, RecoveryMode, RecoveryPlan, ServerScan};
use rio_order::scheduler::{OrderQueue, OrderQueueConfig};
use rio_order::sequencer::{Sequencer, SubmitOpts};
use rio_order::{attr::Seq, attr::ServerId, InOrderCompleter, SubmissionGate};
use rio_proto::{RioExt, Sqe};
use rio_sim::{EventHeap, SimTime};

/// Timed budget of each case, after a quarter of it as warm-up.
const MEASURE: Duration = Duration::from_secs(2);

fn bench_sequencer() {
    let mut seq = Sequencer::new(1, 2);
    let mut i = 0u64;
    micro("sequencer_stamp", MEASURE, || {
        let mut attr = seq.submit(
            StreamId(0),
            BlockRange::new(i % 100_000, 1),
            SubmitOpts {
                end_group: true,
                ..Default::default()
            },
        );
        seq.stamp_dispatch(&mut attr, ServerId((i % 2) as u16));
        i += 1;
        attr
    });
}

fn bench_merge() {
    micro_batched(
        "order_queue_merge_16",
        MEASURE,
        || {
            let mut seq = Sequencer::new(1, 1);
            let mut q = OrderQueue::new(StreamId(0), OrderQueueConfig::default());
            for i in 0..16u64 {
                let attr = seq.submit(
                    StreamId(0),
                    BlockRange::new(i, 1),
                    SubmitOpts {
                        end_group: true,
                        ..Default::default()
                    },
                );
                q.push(attr, i);
            }
            q
        },
        |mut q| q.flush(),
    );
}

fn bench_pmr_log() {
    let (mut log, _) = PmrLog::format(2 * 1024 * 1024, 24);
    let mut seq = Sequencer::new(1, 1);
    let attr = seq.submit(
        StreamId(0),
        BlockRange::new(0, 8),
        SubmitOpts {
            end_group: true,
            ..Default::default()
        },
    );
    let rec = attr.to_pmr_record(0);
    let mut appended = Vec::new();
    micro("pmr_log_append", MEASURE, || {
        if log.is_full() {
            for s in appended.drain(..) {
                log.free(s);
            }
        }
        let (slot, w) = log.append(&rec).expect("space");
        appended.push(slot);
        w
    });
}

fn bench_pmr_scan() {
    let mut region = vec![0u8; 2 * 1024 * 1024];
    let (mut log, writes) = PmrLog::format(region.len(), 24);
    for w in &writes {
        region[w.offset..w.offset + w.bytes.len()].copy_from_slice(&w.bytes);
    }
    let mut seq = Sequencer::new(1, 1);
    for i in 0..10_000u64 {
        let attr = seq.submit(
            StreamId(0),
            BlockRange::new(i, 1),
            SubmitOpts {
                end_group: true,
                ..Default::default()
            },
        );
        let (_, w) = log.append(&attr.to_pmr_record(0)).expect("space");
        region[w.offset..w.offset + w.bytes.len()].copy_from_slice(&w.bytes);
    }
    micro("pmr_scan_2mb", MEASURE, || {
        PmrLog::scan(&region).expect("formatted").records.len()
    });
}

fn bench_recovery() {
    let mut seq = Sequencer::new(1, 2);
    let mut records = Vec::new();
    for i in 0..10_000u64 {
        let mut attr = seq.submit(
            StreamId(0),
            BlockRange::new(i * 8, 8),
            SubmitOpts {
                end_group: true,
                ..Default::default()
            },
        );
        seq.stamp_dispatch(&mut attr, ServerId((i % 2) as u16));
        attr.persist = i % 7 != 0;
        records.push((attr.server, attr.to_pmr_record(0)));
    }
    let scans: Vec<ServerScan> = (0..2u16)
        .map(|s| ServerScan {
            server: ServerId(s),
            plp: true,
            head_seqs: vec![(StreamId(0), Seq(0))],
            records: records
                .iter()
                .filter(|(srv, _)| srv.0 == s)
                .map(|(_, r)| *r)
                .collect(),
        })
        .collect();
    let input = RecoveryInput {
        scans,
        mode: RecoveryMode::InitiatorRestart,
    };
    micro("recovery_merge_10k", MEASURE, || {
        RecoveryPlan::compute(&input).streams.len()
    });
}

fn bench_event_heap() {
    // Steady-state engine rhythm: a 64-deep heap cycling one event
    // per step, the slab reusing slots with no allocation.
    let mut heap = EventHeap::with_capacity(64);
    let mut now = 0u64;
    for i in 0..64u64 {
        heap.push(SimTime::from_nanos(i), i);
    }
    micro("event_heap_push_pop", MEASURE, || {
        let (t, v) = heap.pop().expect("non-empty");
        now += 1;
        heap.push(SimTime::from_nanos(t.as_nanos() + 64), v ^ now);
        v
    });
}

fn bench_completion_ring() {
    // Out-of-order internal completions over a 16-group window:
    // 15 buffer, the 16th releases the whole prefix.
    let mk = |seq: u32| {
        let mut a = OrderingAttr::single(StreamId(0), Seq(seq), BlockRange::new(0, 1));
        a.boundary = true;
        a.num = 1;
        a
    };
    let mut base = 0u32;
    let mut released = Vec::with_capacity(16);
    let mut completer = InOrderCompleter::with_window(1, 32);
    micro("completion_ring_release", MEASURE, || {
        for seq in (base + 2..=base + 16).rev() {
            completer.on_done_into(&mk(seq), &mut released);
        }
        completer.on_done_into(&mk(base + 1), &mut released);
        base += 16;
        let n = released.len();
        released.clear();
        n
    });
}

fn bench_gate() {
    // The pinned-stream fast path: every arrival is in dispatch
    // order and passes straight through without buffering.
    let mut gate = SubmissionGate::with_streams(1);
    let mut idx = 0u64;
    let mut released = Vec::with_capacity(4);
    let proto = OrderingAttr::single(StreamId(0), Seq(1), BlockRange::new(0, 1));
    micro("gate_admit", MEASURE, || {
        let mut attr = proto;
        attr.dispatch_idx = idx;
        gate.arrive_into(attr, idx, &mut released);
        idx += 1;
        let n = released.len();
        released.clear();
        n
    });
}

fn bench_wire() {
    let mut seq = Sequencer::new(1, 1);
    let attr = seq.submit(
        StreamId(0),
        BlockRange::new(77, 8),
        SubmitOpts {
            end_group: true,
            ..Default::default()
        },
    );
    let ext = attr.to_wire();
    micro("sqe_encode_decode", MEASURE, || {
        let mut sqe = Sqe::write(3, 77, 8);
        ext.embed(&mut sqe);
        let bytes = sqe.encode();
        let back = Sqe::decode(&bytes);
        RioExt::extract(&back).expect("rio command")
    });
}

fn main() {
    bench_sequencer();
    bench_merge();
    bench_pmr_log();
    bench_pmr_scan();
    bench_recovery();
    // Hot-path data structures of the engine and ordering core: the
    // event heap's push/pop cycle, the completion ring's buffered
    // release, and the submission gate's in-order admit.
    bench_event_heap();
    bench_completion_ring();
    bench_gate();
    bench_wire();
}
