//! Operating-system interaction model (§4).
//!
//! The paper's stability discussion centres on how critical sections
//! behave when the OS intervenes: "If the lock owner is de-scheduled
//! by the operating system, other threads waiting for the lock cannot
//! proceed... In high concurrency environments, all threads may wait
//! until the de-scheduled thread runs again." TLR makes the execution
//! non-blocking: "If a process is de-scheduled, a misspeculation is
//! triggered and the lock is left free with all speculative updates
//! within the critical section discarded."
//!
//! [`run_preemptive`] drives a [`Machine`] under a round-robin
//! preemptive scheduler: every quantum, one processor's thread is
//! de-scheduled for a fixed window (an OS activity burst: interrupt
//! handling, another process's timeslice) and then resumed. §3.3 also
//! notes the scheduling quantum as a resource constraint: "it must be
//! possible to execute the critical section within a single quantum"
//! for the lock-free guarantee to hold — a preempted transaction is
//! discarded and retried.

use tlr_sim::{Cycle, NodeId};

use crate::machine::{Machine, SimTimeout};

/// Preemption parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Preemption {
    /// Cycles between preemptions (the scheduling quantum).
    pub quantum: Cycle,
    /// Cycles a preempted thread stays off its processor.
    pub pause: Cycle,
}

impl Preemption {
    /// A quantum/pause pair.
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero.
    pub fn new(quantum: Cycle, pause: Cycle) -> Self {
        assert!(quantum > 0, "quantum must be non-zero");
        Preemption { quantum, pause }
    }
}

/// Statistics from a preemptive run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PreemptionReport {
    /// Number of preemptions performed.
    pub preemptions: u64,
    /// Preemptions that interrupted an in-flight transaction
    /// (discarding its speculative state, §4's restartable critical
    /// sections).
    pub preempted_in_txn: u64,
}

/// Runs the machine to quiescence under round-robin preemption: every
/// `p.quantum` cycles the next processor (skipping finished threads)
/// is de-scheduled for `p.pause` cycles.
///
/// A thread resumed at a cycle is never the victim picked at that same
/// cycle. With `pause >= quantum` a resume always coincides with a due
/// preemption, and when the resumed thread is the last unfinished one
/// it would otherwise be descheduled again before running a cycle,
/// forever. The quantum is not restarted at the resume, so runs with
/// `pause < quantum` (where resumes never meet a due preemption) keep
/// their schedule.
///
/// # Errors
///
/// Returns [`SimTimeout`] if the machine exceeds its cycle budget.
pub fn run_preemptive(machine: &mut Machine, p: Preemption) -> Result<PreemptionReport, SimTimeout> {
    let procs = machine.config().num_procs;
    let max_cycles = machine.config().max_cycles;
    let mut report = PreemptionReport::default();
    let mut next_victim: NodeId = 0;
    let mut paused: Option<(NodeId, Cycle)> = None;
    let mut next_preempt = machine.cycle() + p.quantum;
    while !machine.is_quiesced() {
        if machine.cycle() >= max_cycles {
            machine.settle_idle_charges();
            return Err(SimTimeout { cycle: machine.cycle() });
        }
        let mut resumed = None;
        if let Some((victim, resume_at)) = paused {
            if machine.cycle() >= resume_at {
                machine.reschedule(victim);
                paused = None;
                resumed = Some(victim);
            }
        }
        if paused.is_none() && machine.cycle() >= next_preempt {
            // Pick the next unfinished thread, if any, other than the
            // one that just got its processor back.
            let victim = (0..procs)
                .map(|k| (next_victim + k) % procs)
                .find(|&v| !machine.is_done(v) && Some(v) != resumed);
            if let Some(v) = victim {
                report.preemptions += 1;
                if machine.in_txn(v) {
                    report.preempted_in_txn += 1;
                }
                machine.deschedule(v);
                paused = Some((v, machine.cycle() + p.pause));
                next_victim = (v + 1) % procs;
            }
            next_preempt = machine.cycle() + p.quantum;
        }
        // Event jumps must land exactly on every cycle at which this
        // loop intervenes, so bound them by the armed deadline: the
        // resume cycle while a thread is paused (preemption checks are
        // deferred until then), else the next preemption boundary.
        // Each bound is strictly in the future: the checks above fired
        // and reset any that were due.
        let bound = max_cycles.min(match paused {
            Some((_, resume_at)) => resume_at,
            None => next_preempt,
        });
        machine.advance(bound);
    }
    if let Some((victim, _)) = paused {
        machine.reschedule(victim);
    }
    machine.settle_idle_charges();
    machine.finalize_stats();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preemption_parameters_validated() {
        let p = Preemption::new(1000, 200);
        assert_eq!(p.quantum, 1000);
        assert_eq!(p.pause, 200);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_quantum_rejected() {
        Preemption::new(0, 10);
    }
}
