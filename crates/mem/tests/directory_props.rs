//! Property wall for the bare home-node directory: fuzzed request
//! interleavings against a precise Rust model of the protocol spec.
//!
//! The driver plays the role of the machine's ordering loop: nodes
//! issue `GetS`/`GetX`/`WriteBack` requests at random cycles, lines
//! are silently evicted from clean holders (the imprecision a real
//! directory must tolerate), orders are randomly annulled the way
//! NACK retention annuls them, and annulled requests are re-sent the
//! way a NACKed requester's retry timer re-sends them. After every
//! ordering step the directory must agree with the model:
//!
//! * at most one owner per line, and the owner is always a sharer;
//! * the sharer vector tracks the spec transitions exactly, and is a
//!   superset of the nodes that *really* hold a copy (stale bits from
//!   silent evictions are allowed; missing holders are not);
//! * no request is ever dropped: every send is eventually ordered,
//!   exactly once, respecting the request-network latency and the
//!   per-bank occupancy spacing;
//! * an annulled (NACKed) order leaves the entry byte-identical, and
//!   its retry is ordered like any fresh request.
//!
//! Failures minimize through `tlr-check`'s shrinker; the printed
//! `TLR_CHECK_SEED` line reproduces a counterexample exactly.

use std::collections::HashMap;

use tlr_check::{prop, Source};
use tlr_mem::addr::LineAddr;
use tlr_mem::msg::{BusReqKind, BusRequest};
use tlr_mem::Directory;
use tlr_sim::NodeId;

/// The precise model: spec-level sharer vector and owner (mirroring
/// the transitions the directory must implement) plus the ground-truth
/// holder set (which silent evictions *do* shrink).
#[derive(Default)]
struct Model {
    vec: HashMap<LineAddr, Vec<NodeId>>,
    owner: HashMap<LineAddr, NodeId>,
    holders: HashMap<LineAddr, Vec<NodeId>>,
}

impl Model {
    fn commit(&mut self, req: &BusRequest) {
        let v = self.vec.entry(req.line).or_default();
        if req.kind.is_exclusive() {
            v.clear();
        }
        if !v.contains(&req.requester) {
            v.push(req.requester);
        }
        let take_ownership = req.kind == BusReqKind::GetX
            || (self.owner.get(&req.line).is_none_or(|&o| o == req.requester)
                && !v.iter().any(|&n| n != req.requester));
        if take_ownership {
            self.owner.insert(req.line, req.requester);
        }
        let h = self.holders.entry(req.line).or_default();
        if req.kind.is_exclusive() {
            h.clear();
        }
        if !h.contains(&req.requester) {
            h.push(req.requester);
        }
    }

    fn retire_writeback(&mut self, line: LineAddr, node: NodeId) {
        if self.owner.get(&line) == Some(&node) {
            self.owner.remove(&line);
        }
        if let Some(v) = self.vec.get_mut(&line) {
            v.retain(|&n| n != node);
        }
        if let Some(h) = self.holders.get_mut(&line) {
            h.retain(|&n| n != node);
        }
    }

    fn silently_evict(&mut self, line: LineAddr, node: NodeId) {
        if let Some(h) = self.holders.get_mut(&line) {
            h.retain(|&n| n != node);
        }
    }
}

/// Compares directory and model over every line the case touched.
fn check_invariants(dir: &Directory, model: &Model, lines: &[LineAddr]) -> Result<(), String> {
    for &line in lines {
        let sharers = dir.sharers(line);
        let got: Vec<NodeId> = sharers.iter().collect();
        let mut want = model.vec.get(&line).cloned().unwrap_or_default();
        want.sort_unstable();
        if got != want {
            return Err(format!(
                "line {}: directory sharers {got:?} != model sharer vector {want:?}",
                line.0
            ));
        }
        if dir.owner(line) != model.owner.get(&line).copied() {
            return Err(format!(
                "line {}: directory owner {:?} != model owner {:?}",
                line.0,
                dir.owner(line),
                model.owner.get(&line)
            ));
        }
        if let Some(o) = dir.owner(line) {
            if !sharers.contains(o) {
                return Err(format!("line {}: owner {o} is not a sharer", line.0));
            }
        }
        for &h in model.holders.get(&line).map(Vec::as_slice).unwrap_or(&[]) {
            if !sharers.contains(h) {
                return Err(format!(
                    "line {}: node {h} really holds a copy but is missing from the \
                     sharer vector (unsafe imprecision)",
                    line.0
                ));
            }
        }
    }
    Ok(())
}

fn request(requester: NodeId, line: LineAddr, kind: BusReqKind, now: u64) -> BusRequest {
    BusRequest { requester, line, kind, ts: None, karma: 0, wb_data: None, enqueued_at: now }
}

/// Advances the directory through `[now+1, until]`, applying (or
/// annulling) every ordered request and checking all invariants.
#[allow(clippy::too_many_arguments)]
fn drain(
    s: &mut Source,
    dir: &mut Directory,
    model: &mut Model,
    lines: &[LineAddr],
    now: &mut u64,
    until: u64,
    may_annul: bool,
    annulled: &mut Vec<BusRequest>,
    last_bank_order: &mut [Option<u64>],
    ordered_tally: &mut u64,
) -> Result<(), String> {
    let mut out = Vec::new();
    while *now < until {
        *now += 1;
        dir.tick_into(*now, &mut out);
        for req in out.drain(..) {
            *ordered_tally += 1;
            if *now < req.enqueued_at + dir.req_latency() {
                return Err(format!(
                    "request sent at {} ordered at {}, inside the {}-cycle request-network \
                     flight",
                    req.enqueued_at,
                    *now,
                    dir.req_latency()
                ));
            }
            let bank = req.home_bank(dir.banks());
            if let Some(last) = last_bank_order[bank] {
                if *now < last + dir.occupancy() {
                    return Err(format!(
                        "bank {bank} ordered at {} within the occupancy window of its \
                         order at {last}",
                        *now
                    ));
                }
            }
            last_bank_order[bank] = Some(*now);
            if req.kind == BusReqKind::WriteBack {
                dir.retire_writeback(req.line, req.requester);
                model.retire_writeback(req.line, req.requester);
            } else {
                let before = (dir.owner(req.line), dir.sharers(req.line));
                let decision = dir.peek_order(&req);
                if !decision.targets.contains(req.requester) {
                    return Err(format!(
                        "ordering decision for node {} does not target the requester",
                        req.requester
                    ));
                }
                if let Some(sup) = decision.rule.supplier {
                    if !decision.targets.contains(sup) {
                        return Err(format!("supplier {sup} missing from the target set"));
                    }
                    if sup == req.requester {
                        return Err("requester designated as its own supplier".into());
                    }
                }
                if may_annul && s.below(4) == 0 {
                    // NACK annulment: the entry must be untouched, and
                    // the requester's retry timer re-sends the request
                    // (the final drain below replays it).
                    if (dir.owner(req.line), dir.sharers(req.line)) != before {
                        return Err("peeking an order mutated the entry".into());
                    }
                    annulled.push(req);
                    continue;
                }
                dir.commit_order(&req);
                model.commit(&req);
            }
            check_invariants(dir, model, lines)?;
        }
    }
    Ok(())
}

/// One fuzzed interleaving. All randomness flows through `s`, so the
/// shrinker minimizes the whole scenario.
fn directory_case(s: &mut Source) -> Result<(), String> {
    let nodes = s.usize_in(2..=8);
    let banks = s.usize_in(1..=4);
    let occupancy = s.u64_in(1..=4);
    let latency = s.u64_in(1..=24);
    let mut dir = Directory::new(nodes, banks, occupancy, latency);
    // Line addresses stride over the bank mapping.
    let lines: Vec<LineAddr> =
        (0..s.usize_in(1..=4)).map(|i| LineAddr(i as u64 * 3 + 1)).collect();
    let mut model = Model::default();
    let mut now = 0u64;
    let mut sent = 0u64;
    let mut ordered = 0u64;
    let mut annulled = Vec::new();
    let mut last_bank_order = vec![None; dir.banks()];
    let steps = s.usize_in(4..=40);
    for _ in 0..steps {
        match s.below(5) {
            0 | 1 => {
                // A node issues a miss.
                let node = s.usize_in(0..=nodes - 1);
                let line = *s.pick(&lines);
                let kind = *s.pick(&[BusReqKind::GetS, BusReqKind::GetX]);
                dir.send(now, request(node, line, kind, now));
                sent += 1;
            }
            2 => {
                // The owner evicts a dirty line: a writeback.
                let line = *s.pick(&lines);
                if let Some(o) = model.owner.get(&line).copied() {
                    dir.send(now, request(o, line, BusReqKind::WriteBack, now));
                    sent += 1;
                }
            }
            3 => {
                // A clean holder drops its copy without telling anyone.
                let line = *s.pick(&lines);
                let owner = model.owner.get(&line).copied();
                let clean: Vec<NodeId> = model
                    .holders
                    .get(&line)
                    .map(Vec::as_slice)
                    .unwrap_or(&[])
                    .iter()
                    .copied()
                    .filter(|&n| Some(n) != owner)
                    .collect();
                if !clean.is_empty() {
                    model.silently_evict(line, *s.pick(&clean));
                }
            }
            _ => {
                // Let time pass; the directory orders what is due.
                let until = now + s.u64_in(1..=40);
                drain(
                    s, &mut dir, &mut model, &lines, &mut now, until, true, &mut annulled,
                    &mut last_bank_order, &mut ordered,
                )?;
            }
        }
    }
    // Every NACKed requester retries: replay the annulled requests,
    // then drain to empty. Nothing may be left behind.
    let retries = annulled.len() as u64;
    for req in annulled.drain(..) {
        dir.send(now, request(req.requester, req.line, req.kind, now));
        sent += 1;
    }
    let mut none = Vec::new();
    let deadline = now + latency + (sent + 1) * (occupancy + 1) + 64;
    while !dir.is_empty() {
        if now >= deadline {
            return Err(format!(
                "directory failed to drain: {} requests still pending at cycle {now}",
                dir.pending()
            ));
        }
        let until = now + 1;
        drain(
            s, &mut dir, &mut model, &lines, &mut now, until, false, &mut none,
            &mut last_bank_order, &mut ordered,
        )?;
    }
    if dir.sent_count() != sent {
        return Err(format!("sent_count {} != sends {sent}", dir.sent_count()));
    }
    if ordered != sent {
        return Err(format!(
            "{ordered} requests ordered but {sent} were sent ({retries} retries): a \
             request was dropped or duplicated"
        ));
    }
    if dir.ordered_count() != ordered {
        return Err(format!(
            "directory counted {} ordered requests, driver saw {ordered}",
            dir.ordered_count()
        ));
    }
    check_invariants(&dir, &model, &lines)
}

#[test]
fn directory_holds_its_invariants_on_fuzzed_interleavings() {
    // 300 fuzzed interleavings by default; `TLR_CHECK_CASES` scales
    // the sweep and `TLR_CHECK_SEED` replays a failure.
    prop::check("directory_props", 300, directory_case);
}

#[test]
fn zero_stream_is_a_valid_scenario() {
    // The shrinker steers toward the all-zeros stream; it must be a
    // passing case (smallest machine, no requests) or shrinking output
    // would be misleading.
    let mut s = Source::replay(&[]);
    directory_case(&mut s).expect("zero-stream scenario");
}
