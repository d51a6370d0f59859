//! Property-based tests of the memory-system building blocks, on the
//! in-repo `tlr-check` engine.

use tlr_check::{check, gen};
use tlr_mem::addr::{Addr, LineAddr};
use tlr_mem::line::{CacheLine, LineData, Moesi};
use tlr_mem::timestamp::Timestamp;
use tlr_mem::{Cache, Network, StoreBuffer, WriteBuffer};
use tlr_sim::fault::FaultConfig;

/// The cache never holds two entries for one line, never exceeds its
/// capacity, and a line that was just inserted (and not since evicted)
/// is retrievable.
#[test]
fn cache_invariants() {
    check("cache_invariants", 64, |s| {
        let ops = gen::vec_of(s, 1..=199, |s| (s.u64_in(0..=63), s.bool()));
        let sets = 1usize << s.u32_in(1..=3);
        let ways = s.usize_in(1..=3);
        let mut c = Cache::new(sets, ways);
        for (line, take) in ops {
            let la = LineAddr(line);
            if take {
                c.take(la);
            } else if !c.contains(la) {
                c.insert(CacheLine::new(la, Moesi::Shared, LineData::zeroed()));
                if !c.contains(la) {
                    return Err(format!("freshly inserted line {la:?} not resident"));
                }
            }
            // No duplicates, capacity bound.
            let mut seen = std::collections::HashSet::new();
            for l in c.iter() {
                if !seen.insert(l.line) {
                    return Err(format!("duplicate line {:?}", l.line));
                }
            }
            if c.len() > sets * ways {
                return Err(format!("{} lines in a {sets}x{ways} cache", c.len()));
            }
        }
        Ok(())
    });
}

/// The cache layout of record: one LRU-ordered `Vec` per set, MRU
/// first. `Cache` must behave exactly like it.
struct ReferenceCache {
    sets: Vec<Vec<CacheLine>>,
    ways: usize,
}

impl ReferenceCache {
    fn new(sets: usize, ways: usize) -> Self {
        ReferenceCache { sets: (0..sets).map(|_| Vec::new()).collect(), ways }
    }

    fn set(&self, line: LineAddr) -> usize {
        (line.0 as usize) & (self.sets.len() - 1)
    }

    fn peek(&self, line: LineAddr) -> Option<&CacheLine> {
        self.sets[self.set(line)].iter().find(|l| l.line == line)
    }

    fn peek_mut(&mut self, line: LineAddr) -> Option<&mut CacheLine> {
        let set = self.set(line);
        self.sets[set].iter_mut().find(|l| l.line == line)
    }

    fn get_mut(&mut self, line: LineAddr) -> Option<&mut CacheLine> {
        let set = self.set(line);
        let ways = &mut self.sets[set];
        let pos = ways.iter().position(|l| l.line == line)?;
        ways[..=pos].rotate_right(1);
        Some(&mut ways[0])
    }

    fn is_mru(&self, line: LineAddr) -> bool {
        self.sets[self.set(line)].first().is_some_and(|l| l.line == line)
    }

    fn insert(&mut self, entry: CacheLine) -> Option<CacheLine> {
        let set = self.set(entry.line);
        let mut evicted = None;
        if self.sets[set].len() == self.ways {
            let victim_pos =
                self.sets[set].iter().rposition(|l| !l.spec_accessed()).unwrap_or(self.sets[set].len() - 1);
            evicted = Some(self.sets[set].remove(victim_pos));
        }
        self.sets[set].insert(0, entry);
        evicted
    }

    fn take(&mut self, line: LineAddr) -> Option<CacheLine> {
        let set = self.set(line);
        let pos = self.sets[set].iter().position(|l| l.line == line)?;
        Some(self.sets[set].remove(pos))
    }

    fn iter(&self) -> impl Iterator<Item = &CacheLine> {
        self.sets.iter().flatten()
    }

    fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

/// One cache operation; `spec` carries the access bits an insert
/// starts with or a mutable lookup writes (bit 0 read, bit 1 written).
#[derive(Debug, Clone, Copy)]
enum CacheOp {
    Insert { line: u64, spec: u8 },
    GetMut { line: u64, spec: Option<u8> },
    PeekMut { line: u64, spec: u8 },
    Peek { line: u64 },
    Take { line: u64 },
    IsMru { line: u64 },
}

fn set_spec(l: &mut CacheLine, spec: u8) {
    l.spec_read = spec & 1 != 0;
    l.spec_written = spec & 2 != 0;
}

/// `Cache` matches [`ReferenceCache`] op for op: every return value,
/// every evicted line, `len()` and the full `iter()` order (set index,
/// then MRU to LRU). Lines with access bits set make eviction skip
/// them, so the preference for non-transactional victims is
/// exercised as well as true LRU.
#[test]
fn cache_matches_reference_layout() {
    check("cache_matches_reference_layout", 128, |s| {
        let sets = 1usize << s.u32_in(0..=4);
        let ways = s.usize_in(1..=3);
        let ops = gen::vec_of(s, 1..=199, |s| {
            let line = s.u64_in(0..=47);
            let spec = s.u32_in(0..=3) as u8;
            match s.u32_in(0..=5) {
                0 | 1 => CacheOp::Insert { line, spec },
                2 => CacheOp::GetMut { line, spec: s.bool().then_some(spec) },
                3 => CacheOp::PeekMut { line, spec },
                4 => CacheOp::Take { line },
                _ if s.bool() => CacheOp::Peek { line },
                _ => CacheOp::IsMru { line },
            }
        });
        let (mut c, mut model) = (Cache::new(sets, ways), ReferenceCache::new(sets, ways));
        for (n, op) in ops.into_iter().enumerate() {
            let (got, want) = match op {
                CacheOp::Insert { line, spec } => {
                    let la = LineAddr(line);
                    if model.peek(la).is_some() {
                        // Inserting a resident line is a caller bug.
                        continue;
                    }
                    let mut data = LineData::zeroed();
                    data.0[0] = n as u64;
                    let mut entry = CacheLine::new(la, Moesi::Shared, data);
                    set_spec(&mut entry, spec);
                    (c.insert(entry.clone()), model.insert(entry))
                }
                CacheOp::GetMut { line, spec } => {
                    let touch = |l: Option<&mut CacheLine>| {
                        l.map(|l| {
                            if let Some(spec) = spec {
                                set_spec(l, spec);
                            }
                            l.clone()
                        })
                    };
                    (touch(c.get_mut(LineAddr(line))), touch(model.get_mut(LineAddr(line))))
                }
                CacheOp::PeekMut { line, spec } => {
                    let touch = |l: Option<&mut CacheLine>| {
                        l.map(|l| {
                            set_spec(l, spec);
                            l.clone()
                        })
                    };
                    (touch(c.peek_mut(LineAddr(line))), touch(model.peek_mut(LineAddr(line))))
                }
                CacheOp::Peek { line } => (c.peek(LineAddr(line)).cloned(), model.peek(LineAddr(line)).cloned()),
                CacheOp::Take { line } => (c.take(LineAddr(line)), model.take(LineAddr(line))),
                CacheOp::IsMru { line } => {
                    let (got, want) = (c.is_mru(LineAddr(line)), model.is_mru(LineAddr(line)));
                    if got != want {
                        return Err(format!("op {n} {op:?}: is_mru {got}, reference {want}"));
                    }
                    (None, None)
                }
            };
            if got != want {
                return Err(format!("op {n} {op:?}: returned {got:?}, reference {want:?}"));
            }
            if c.len() != model.len() {
                return Err(format!("op {n} {op:?}: len {}, reference {}", c.len(), model.len()));
            }
            if !c.iter().eq(model.iter()) {
                let lines = |it: &mut dyn Iterator<Item = &CacheLine>| it.map(|l| l.line.0).collect::<Vec<_>>();
                return Err(format!(
                    "op {n} {op:?}: iter {:?}, reference {:?}",
                    lines(&mut c.iter()),
                    lines(&mut model.iter())
                ));
            }
        }
        Ok(())
    });
}

/// Write-buffer forwarding behaves like a word-indexed map over the
/// written words, as long as capacity is not exceeded.
#[test]
fn write_buffer_matches_model() {
    check("write_buffer_matches_model", 64, |s| {
        let writes = gen::vec_of(s, 1..=59, |s| {
            (s.u64_in(0..=5), s.u64_in(0..=7), s.u64_in(0..=u64::MAX - 1))
        });
        let mut wb = WriteBuffer::new(64);
        let mut model = std::collections::HashMap::new();
        for (line, word, val) in writes {
            let addr = Addr(line * 64 + word * 8);
            wb.write(addr, val).map_err(|e| format!("write refused: {e:?}"))?;
            model.insert(addr, val);
        }
        for (addr, val) in &model {
            if wb.read_word(*addr) != Some(*val) {
                return Err(format!("{addr}: {:?} != {val}", wb.read_word(*addr)));
            }
        }
        // Unwritten words read as None.
        if wb.read_word(Addr(7 * 64)).is_some() {
            return Err("unwritten word forwarded".into());
        }
        Ok(())
    });
}

/// Store-buffer forwarding returns the youngest store per address and
/// drains in FIFO order.
#[test]
fn store_buffer_matches_model() {
    check("store_buffer_matches_model", 64, |s| {
        let stores = gen::vec_of(s, 1..=49, |s| (s.u64_in(0..=7), s.u64_in(0..=u64::MAX - 1)));
        let mut sb = StoreBuffer::new(64);
        let mut youngest = std::collections::HashMap::new();
        for (slot, val) in &stores {
            let addr = Addr(slot * 8);
            sb.push(addr, *val);
            youngest.insert(addr, *val);
        }
        for (addr, val) in &youngest {
            if sb.forward(*addr) != Some(*val) {
                return Err(format!("{addr}: forwarded {:?} != {val}", sb.forward(*addr)));
            }
        }
        // FIFO drain reproduces the push order.
        let mut drained = Vec::new();
        while let Some(e) = sb.pop() {
            drained.push(e);
        }
        let expected: Vec<(Addr, u64)> = stores.iter().map(|(s, v)| (Addr(s * 8), *v)).collect();
        if drained != expected {
            return Err(format!("drain order {drained:?} != push order {expected:?}"));
        }
        Ok(())
    });
}

/// Network deliveries are exactly the sent messages, each at or after
/// its scheduled cycle, in (cycle, send-order) order.
#[test]
fn network_delivers_in_order() {
    check("network_delivers_in_order", 64, |s| {
        let msgs = gen::vec_of(s, 1..=39, |s| (s.u64_in(0..=49), s.u32_in(0..=999)));
        let mut n = Network::new();
        for (i, (at, tag)) in msgs.iter().enumerate() {
            n.send(*at, (i, *tag));
        }
        let mut delivered = Vec::new();
        for now in 0..60 {
            for (i, tag) in n.drain_ready(now) {
                if msgs[i].0 > now {
                    return Err(format!("message {i} delivered {} early", msgs[i].0 - now));
                }
                delivered.push((i, tag));
            }
        }
        if delivered.len() != msgs.len() {
            return Err(format!("{} of {} messages delivered", delivered.len(), msgs.len()));
        }
        // Stable order: sorted by (cycle, send index).
        let mut expected: Vec<usize> = (0..msgs.len()).collect();
        expected.sort_by_key(|&i| (msgs[i].0, i));
        let got: Vec<usize> = delivered.iter().map(|&(i, _)| i).collect();
        if got != expected {
            return Err(format!("delivery order {got:?} != {expected:?}"));
        }
        Ok(())
    });
}

/// One case of the calendar model check: random sends (delays from 0
/// to past 1,000 cycles, so the ring doubles several times, and some
/// sends below the earliest queued cycle) interleaved with
/// `pop_ready` at arbitrary clocks. The reference is a list of (due
/// cycle, send index, value) popped by a stable minimum; the network
/// must deliver the same sequence and agree on `next_ready` and `len`
/// after every operation. With `fault` set, a twin of the network's
/// jitter hook tells the model where each send really lands.
fn calendar_matches_model(s: &mut tlr_check::Source, fault: Option<FaultConfig>) -> Result<(), String> {
    let mut net = Network::new();
    let mut twin = fault.as_ref().and_then(FaultConfig::net_fault);
    net.set_fault(fault.as_ref().and_then(FaultConfig::net_fault));
    let mut model: Vec<(u64, usize, u32)> = Vec::new();
    let (mut clock, mut sent) = (0u64, 0usize);
    let ops = s.usize_in(1..=300);
    for op in 0..ops {
        match s.below(8) {
            0..=3 => {
                let delay = match s.below(4) {
                    0 => s.u64_in(0..=3),
                    1 => s.u64_in(0..=100),
                    2 => s.u64_in(0..=400),
                    _ => s.u64_in(600..=1_100),
                };
                let at = clock + delay;
                let value = s.u32_in(0..=999);
                net.send(at, value);
                model.push((twin.as_mut().map_or(at, |f| f.perturb(at)), sent, value));
                sent += 1;
            }
            4 => {
                // Below the earliest queued cycle (and maybe the clock).
                let Some(&(min, _, _)) = model.iter().min() else { continue };
                let at = min.saturating_sub(s.u64_in(1..=40));
                let value = s.u32_in(0..=999);
                net.send(at, value);
                model.push((twin.as_mut().map_or(at, |f| f.perturb(at)), sent, value));
                sent += 1;
            }
            5 => clock += s.u64_in(0..=1_200),
            6 => {
                // One pop at an arbitrary clock, possibly in the past.
                let now = s.u64_in(0..=clock + 50);
                let expect = pop_model(&mut model, now);
                let got = net.pop_ready(now);
                if got != expect {
                    return Err(format!("op {op}: pop_ready({now}) gave {got:?}, model {expect:?}"));
                }
            }
            _ => {
                let mut got = Vec::new();
                while let Some(v) = net.pop_ready(clock) {
                    got.push(v);
                }
                let expect: Vec<u32> = std::iter::from_fn(|| pop_model(&mut model, clock)).collect();
                if got != expect {
                    return Err(format!("op {op}: drain at {clock} gave {got:?}, model {expect:?}"));
                }
            }
        }
        let next = model.iter().min().map(|&(at, _, _)| at);
        if net.next_ready() != next || net.len() != model.len() {
            return Err(format!(
                "op {op}: next_ready {:?} len {}, model {next:?} len {}",
                net.next_ready(),
                net.len(),
                model.len()
            ));
        }
    }
    let got: Vec<u32> = std::iter::from_fn(|| net.pop_ready(u64::MAX)).collect();
    let expect: Vec<u32> = std::iter::from_fn(|| pop_model(&mut model, u64::MAX)).collect();
    if got != expect {
        return Err(format!("final drain gave {got:?}, model {expect:?}"));
    }
    Ok(())
}

/// Removes the model's earliest (due cycle, send index) entry if it is
/// due at or before `now`.
fn pop_model(model: &mut Vec<(u64, usize, u32)>, now: u64) -> Option<u32> {
    let (pos, &(at, _, value)) = model.iter().enumerate().min_by_key(|&(_, e)| (e.0, e.1))?;
    (at <= now).then(|| {
        model.remove(pos);
        value
    })
}

/// The network's calendar ring delivers exactly as a stable-min model.
#[test]
fn calendar_matches_reference_model() {
    check("calendar_matches_reference_model", 64, |s| calendar_matches_model(s, None));
}

/// The same, with delivery jitter installed at a random intensity.
#[test]
fn calendar_matches_reference_model_under_jitter() {
    check("calendar_matches_reference_model_under_jitter", 64, |s| {
        let level = s.u32_in(1..=FaultConfig::MAX_INTENSITY);
        let fault = FaultConfig::intensity(s.next_raw(), level);
        calendar_matches_model(s, Some(fault))
    });
}

/// Timestamp comparison is a strict total order within a half-window
/// of clock values, at every width.
#[test]
fn timestamp_total_order_within_window() {
    check("timestamp_total_order_within_window", 128, |s| {
        let base = s.u64_in(0..=u64::MAX - 1);
        let offs: Vec<u64> = (0..3).map(|_| s.u64_in(0..=99)).collect();
        let bits = s.u32_in(8..=64);
        // Clamp clocks into the bit width.
        let mask = if bits >= 64 { u64::MAX } else { (1u64 << bits) - 1 };
        let ts: Vec<Timestamp> =
            (0..3).map(|k| Timestamp::new(base.wrapping_add(offs[k]) & mask, k)).collect();
        // Antisymmetry.
        for a in 0..3 {
            for b in 0..3 {
                if a != b && ts[a].wins_over(ts[b], bits) == ts[b].wins_over(ts[a], bits) {
                    return Err(format!("antisymmetry: {} vs {} @{bits}", ts[a], ts[b]));
                }
            }
        }
        // Transitivity (offsets stay within a half-window of 100 < 2^7).
        for a in 0..3 {
            for b in 0..3 {
                for c in 0..3 {
                    if a != b
                        && b != c
                        && a != c
                        && ts[a].wins_over(ts[b], bits)
                        && ts[b].wins_over(ts[c], bits)
                        && !ts[a].wins_over(ts[c], bits)
                    {
                        return Err(format!(
                            "transitivity: {} < {} < {} but not {} < {} @{bits}",
                            ts[a], ts[b], ts[c], ts[a], ts[c]
                        ));
                    }
                }
            }
        }
        Ok(())
    });
}
