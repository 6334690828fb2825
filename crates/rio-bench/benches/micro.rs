//! Microbenchmarks of the ordering core's and the integrity path's hot
//! paths.
//!
//! These measure the *real* CPU cost of the data structures the paper's
//! design leans on: attribute stamping, whole-group merging, PMR log
//! append/scan, recovery's global merge, and wire encoding; and of the
//! end-to-end integrity path: CRC-32C over a 4 KB block, payload
//! generation and verification, and one sealed SSD write. Each case
//! prints its minimum, mean and maximum ns per iteration.
//!
//! ```sh
//! cargo bench -p rio-bench --bench micro              # 2 s per case
//! cargo bench -p rio-bench --bench micro -- --smoke   # 100 ms per case
//! ```

use std::hint::black_box;
use std::time::Duration;

use rio_bench::sweep::{micro, micro_batched};
use rio_order::attr::{BlockRange, OrderingAttr, StreamId};
use rio_order::pmrlog::PmrLog;
use rio_order::recovery::{RecoveryInput, RecoveryMode, RecoveryPlan, ServerScan};
use rio_order::scheduler::{OrderQueue, OrderQueueConfig};
use rio_order::sequencer::{Sequencer, SubmitOpts};
use rio_order::{attr::Seq, attr::ServerId, InOrderCompleter, SubmissionGate};
use rio_proto::payload::{self, BLOCK_BYTES};
use rio_proto::{crc32c, RioExt, Sqe};
use rio_sim::{EventHeap, SimTime};
use rio_ssd::{BlockImage, Ssd, SsdProfile};

/// Timed budget of each case, after a quarter of it as warm-up.
const MEASURE: Duration = Duration::from_secs(2);
/// The per-case budget under `--smoke`.
const SMOKE_MEASURE: Duration = Duration::from_millis(100);

fn bench_sequencer(measure: Duration) {
    let mut seq = Sequencer::new(1, 2);
    let mut i = 0u64;
    micro("sequencer_stamp", measure, || {
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

fn bench_merge(measure: Duration) {
    micro_batched(
        "order_queue_merge_16",
        measure,
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

fn bench_pmr_log(measure: Duration) {
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
    micro("pmr_log_append", measure, || {
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

fn bench_pmr_scan(measure: Duration) {
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
    micro("pmr_scan_2mb", measure, || {
        PmrLog::scan(&region).expect("formatted").records.len()
    });
}

fn bench_recovery(measure: Duration) {
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
    micro("recovery_merge_10k", measure, || {
        RecoveryPlan::compute(&input).streams.len()
    });
}

fn bench_event_heap(measure: Duration) {
    // Steady-state engine rhythm: a 64-deep heap cycling one event
    // per step, the slab reusing slots with no allocation.
    let mut heap = EventHeap::with_capacity(64);
    let mut now = 0u64;
    for i in 0..64u64 {
        heap.push(SimTime::from_nanos(i), i);
    }
    micro("event_heap_push_pop", measure, || {
        let (t, v) = heap.pop().expect("non-empty");
        now += 1;
        heap.push(SimTime::from_nanos(t.as_nanos() + 64), v ^ now);
        v
    });
}

fn bench_completion_ring(measure: Duration) {
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
    micro("completion_ring_release", measure, || {
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

fn bench_gate(measure: Duration) {
    // The pinned-stream fast path: every arrival is in dispatch
    // order and passes straight through without buffering.
    let mut gate = SubmissionGate::with_streams(1);
    let mut idx = 0u64;
    let mut released = Vec::with_capacity(4);
    let proto = OrderingAttr::single(StreamId(0), Seq(1), BlockRange::new(0, 1));
    micro("gate_admit", measure, || {
        let mut attr = proto;
        attr.dispatch_idx = idx;
        gate.arrive_into(attr, idx, &mut released);
        idx += 1;
        let n = released.len();
        released.clear();
        n
    });
}

fn bench_wire(measure: Duration) {
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
    micro("sqe_encode_decode", measure, || {
        let mut sqe = Sqe::write(3, 77, 8);
        ext.embed(&mut sqe);
        let bytes = sqe.encode();
        let back = Sqe::decode(&bytes);
        RioExt::extract(&back).expect("rio command")
    });
}

fn bench_crc32c(measure: Duration) {
    let block = payload::block_for(payload::seed_for(0, 1, 2));
    micro("crc32c_4k", measure, || crc32c(black_box(&block)));
}

fn bench_payload(measure: Duration) {
    let mut buf = [0u8; BLOCK_BYTES];
    let mut seed = 0u64;
    micro("payload_fill_4k", measure, || {
        seed += 1;
        payload::fill_block(seed, &mut buf);
        buf[BLOCK_BYTES - 1]
    });
    let block = payload::block_for(payload::seed_for(3, 4, 5));
    micro("payload_verify_4k", measure, || {
        assert!(payload::verify_block(black_box(&block)));
    });
}

fn bench_ssd_sealed_write(measure: Duration) {
    // One sealed 4 KB payload write on a PLP drive, settled at its
    // completion: the seal (payload fill and CRC-32C) plus the device
    // model's bookkeeping.
    let mut ssd = Ssd::new(SsdProfile::optane905p(), 42);
    ssd.set_integrity(true);
    let mut now = SimTime::ZERO;
    let mut i = 0u64;
    micro("ssd_write_sealed_payload", measure, || {
        let lba = i % 4096;
        let image = BlockImage::Payload(payload::seed_for(0, i, lba));
        let (_, done) = ssd.submit_write(now, lba, vec![image], false);
        ssd.advance(done);
        now = done;
        i += 1;
        done
    });
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let measure = if smoke { SMOKE_MEASURE } else { MEASURE };
    bench_sequencer(measure);
    bench_merge(measure);
    bench_pmr_log(measure);
    bench_pmr_scan(measure);
    bench_recovery(measure);
    // Hot-path data structures of the engine and ordering core: the
    // event heap's push/pop cycle, the completion ring's buffered
    // release, and the submission gate's in-order admit.
    bench_event_heap(measure);
    bench_completion_ring(measure);
    bench_gate(measure);
    bench_wire(measure);
    // The integrity path: the CRC-32C seal, payload generation and
    // verification, and a sealed write through the SSD model.
    bench_crc32c(measure);
    bench_payload(measure);
    bench_ssd_sealed_write(measure);
}
