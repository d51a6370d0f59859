//! Microbenchmarks of the structures on the critical path of every
//! simulated cycle, one per hot structure of each layer: cache, victim
//! cache, write and store buffers, MSHRs, retry timers, bus, network,
//! directory, snoop rules, timestamps, predictors, the event queue and
//! the core's ALU tick. `--trace 1` reports each as `kernel.*` in ns per
//! iteration (median of the timed batches).

use std::sync::Arc;

use tlr_check::timing::{black_box, Suite, TimingOpts};
use tlr_core::{RmwPredictor, StorePairPredictor};
use tlr_cpu::{Asm, Core};
use tlr_mem::addr::{Addr, LineAddr};
use tlr_mem::line::{CacheLine, LineData, Moesi};
use tlr_mem::msg::{BusReqKind, BusRequest};
use tlr_mem::timestamp::Timestamp;
use tlr_mem::{
    protocol, Bus, Cache, Directory, MshrEntry, MshrFile, Network, RetryTimers, StoreBuffer,
    VictimCache, WriteBuffer,
};
use tlr_sim::events::EventQueue;
use tlr_sim::SimRng;

fn req(requester: usize, line: u64, kind: BusReqKind, now: u64) -> BusRequest {
    BusRequest {
        requester,
        line: LineAddr(line),
        kind,
        ts: None,
        karma: 0,
        wb_data: None,
        enqueued_at: now,
    }
}

/// Registers every kernel on `suite`, under its reported name.
fn register(suite: &mut Suite) {
    let mut cache = Cache::new(512, 4);
    for i in 0..1024u64 {
        cache.insert(CacheLine::new(
            LineAddr(i),
            Moesi::Shared,
            LineData::zeroed(),
        ));
    }
    let mut i = 0u64;
    suite.bench("kernel.mem.cache_hit_ns", || {
        i = (i + 7) % 1024;
        black_box(cache.get_mut(LineAddr(i)).is_some());
    });

    let mut small = Cache::new(16, 2);
    let mut j = 0u64;
    suite.bench("kernel.mem.cache_insert_evict_ns", || {
        j += 1;
        black_box(small.insert(CacheLine::new(
            LineAddr(j),
            Moesi::Shared,
            LineData::zeroed(),
        )));
    });

    let mut victim = VictimCache::new(16);
    for l in 0..16u64 {
        victim.insert(CacheLine::new(
            LineAddr(l),
            Moesi::Modified,
            LineData::zeroed(),
        ));
    }
    let mut k = 0u64;
    suite.bench("kernel.mem.victim_insert_take_ns", || {
        k = (k + 5) % 16;
        let line = victim.take(LineAddr(k)).expect("resident victim line");
        black_box(victim.insert(line));
    });

    let mut wb = WriteBuffer::new(64);
    suite.bench("kernel.mem.write_buffer_forward_ns", || {
        wb.write(Addr(64), 1).expect("buffer has room");
        wb.write(Addr(72), 2).expect("buffer has room");
        let v = wb.read_word(Addr(72));
        wb.clear();
        black_box(v);
    });

    let mut sb = StoreBuffer::new(64);
    let mut a = 0u64;
    suite.bench("kernel.mem.store_buffer_forward_ns", || {
        a = (a + 8) % 4096;
        sb.push(Addr(a), a);
        black_box(sb.forward(Addr((a + 2048) % 4096)));
        if sb.len() >= 32 {
            black_box(sb.pop());
        }
    });

    let mut mshrs = MshrFile::new(16);
    let mut m = 0u64;
    suite.bench("kernel.mem.mshr_alloc_remove_ns", || {
        m += 1;
        black_box(
            mshrs
                .alloc(MshrEntry::new(LineAddr(m), true, None))
                .is_some(),
        );
        if m > 8 {
            black_box(mshrs.remove(LineAddr(m - 8)));
        }
    });

    let mut timers = RetryTimers::new();
    let mut now = 0u64;
    suite.bench("kernel.mem.retry_timers_take_due_ns", || {
        now += 1;
        timers.schedule(now + 4, LineAddr(now));
        black_box(timers.take_due(now).len());
    });

    let mut bus = Bus::new(16, 4);
    let mut t = 0u64;
    suite.bench("kernel.mem.bus_order_ns", || {
        bus.enqueue(3, req(3, 9, BusReqKind::GetX, t));
        t += 4;
        black_box(bus.tick(t));
    });

    let mut net: Network<u64> = Network::new();
    let mut t2 = 0u64;
    suite.bench("kernel.mem.network_send_drain_ns", || {
        net.send(t2 + 20, 1);
        net.send(t2 + 20, 2);
        t2 += 20;
        black_box(net.drain_ready(t2).len());
    });

    // 256 requesters over 64 lines: shared reads build up wide sharer
    // sets that every eighth (exclusive) request must scan.
    let mut dir = Directory::new(256, 256, 4, 20);
    let mut ordered = Vec::new();
    let (mut n, mut t3) = (0u64, 0u64);
    suite.bench("kernel.mem.directory_order_256_ns", || {
        n += 1;
        let kind = if n % 8 == 0 {
            BusReqKind::GetX
        } else {
            BusReqKind::GetS
        };
        dir.send(t3, req((n % 256) as usize, n % 64, kind, t3));
        t3 += 20;
        dir.tick_into(t3, &mut ordered);
        for r in ordered.drain(..) {
            black_box(dir.peek_order(&r).targets.len());
            dir.commit_order(&r);
        }
    });

    let pairs: Vec<(Moesi, BusReqKind)> = [
        Moesi::Invalid,
        Moesi::Shared,
        Moesi::Exclusive,
        Moesi::Owned,
        Moesi::Modified,
    ]
    .into_iter()
    .flat_map(|s| {
        [
            BusReqKind::GetS,
            BusReqKind::GetX,
            BusReqKind::Upgrade,
            BusReqKind::WriteBack,
        ]
        .map(|k| (s, k))
    })
    .filter(|&(s, k)| {
        !(k == BusReqKind::Upgrade && matches!(s, Moesi::Modified | Moesi::Exclusive))
    })
    .collect();
    let mut p = 0usize;
    suite.bench("kernel.mem.protocol_snoop_ns", || {
        p = (p + 1) % pairs.len();
        let (s, k) = pairs[p];
        black_box(protocol::snoop(black_box(s), black_box(k)));
    });

    let ta = Timestamp::new(12345, 3);
    let tb = Timestamp::new(12346, 9);
    suite.bench("kernel.mem.timestamp_wins_over_ns", || {
        black_box(black_box(ta).wins_over(black_box(tb), 32));
    });

    let mut rmw = RmwPredictor::new(128, true);
    suite.bench("kernel.core.rmw_predictor_ns", || {
        rmw.record_load(42, LineAddr(7));
        rmw.record_store(LineAddr(7));
        black_box(rmw.predicts_store(42));
    });

    let mut sle = StorePairPredictor::new(64, true);
    suite.bench("kernel.core.sle_predictor_ns", || {
        sle.observe_atomic_store(10, Addr(64), 0, 1);
        sle.observe_store(Addr(64), 0);
        black_box(sle.should_elide(10));
    });

    let mut q: EventQueue<u64> = EventQueue::new();
    for e in 0..64u64 {
        q.push(e % 7, e);
    }
    let mut e = 64u64;
    suite.bench("kernel.sim.event_queue_push_pop_ns", || {
        e += 1;
        q.push(e + e % 7, e);
        black_box(q.pop());
    });

    let mut asm = Asm::new("alu-only");
    let (x, y) = (asm.reg(), asm.reg());
    let top = asm.here();
    asm.addi(x, x, 1);
    asm.xor(y, y, x);
    asm.jmp(top);
    let mut core = Core::new(Arc::new(asm.finish()), SimRng::new(1));
    suite.bench("kernel.cpu.core_tick_ns", || {
        black_box(core.tick());
    });
}

/// Runs the suite with `samples` timed batches of at least
/// `min_batch_ns` each and returns `(name, median ns per iteration)`.
pub fn run(samples: u32, min_batch_ns: u64) -> Vec<(String, f64)> {
    let mut suite = Suite::new(
        "tlr-perf kernels",
        TimingOpts {
            samples,
            min_batch_ns,
            json: false,
            jobs: 1,
        },
    );
    register(&mut suite);
    suite
        .rows()
        .iter()
        .map(|r| (r.name.clone(), r.median_ns))
        .collect()
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_kernel_runs_and_reports() {
        let rows = super::run(1, 1_000);
        assert_eq!(rows.len(), 16);
        for (name, ns) in rows {
            assert!(
                name.starts_with("kernel.") && name.ends_with("_ns"),
                "{name}"
            );
            assert!(ns.is_finite() && ns >= 0.0, "{name}: {ns}");
        }
    }
}
