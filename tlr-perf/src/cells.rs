//! The four workloads and the cells each one runs, back to back, in a
//! fixed order.
//!
//! A cell is one simulation: a workload constructor from
//! `tlr_workloads` plus a machine configuration built with every knob
//! that has a process-global default set explicitly, so nothing here
//! depends on (or writes) `sim::config::Defaults`.

use std::rc::Rc;

use tlr_core::WorkloadSpec;
use tlr_sim::config::{Engine, Interconnect, MachineConfig, PolicyKind, Scheme};
use tlr_sim::fault::FaultConfig;
use tlr_sim::prof::ProfConfig;
use tlr_workloads::apps::{figure11_apps, mp3d};
use tlr_workloads::micro::{doubly_linked_list, multiple_counter, single_counter};

/// `paper_default`'s machine seed: the default `--seed`.
pub const DEFAULT_SEED: u64 = 0x7a3d_5eed;
/// A seed kept out of development, for checking claims; `golden.tsv`
/// holds digests for it too.
#[cfg(test)]
pub const HELD_OUT_SEED: u64 = 0x0dd5_eed5;
/// Cycle budget of every cell: a livelocked cell fails instead of
/// hanging.
pub const MAX_CYCLES: u64 = 200_000_000;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BusApps16,
    DirParked256,
    Conflict16,
    OracleChaos8,
}

/// Cell sizes: the benchmark's own, or a small version with the same
/// cell list for the tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Small,
}

type MakeWorkload = Rc<dyn Fn() -> Box<dyn WorkloadSpec>>;

/// One simulation of a workload.
#[derive(Clone)]
pub struct Cell {
    /// `constructor(args)[app]/SCHEME[/policy]`; also the golden key.
    pub label: String,
    pub cfg: MachineConfig,
    make: MakeWorkload,
}

impl Cell {
    /// Calls the workload constructor.
    pub fn workload(&self) -> Box<dyn WorkloadSpec> {
        (self.make)()
    }
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::BusApps16,
        Workload::DirParked256,
        Workload::Conflict16,
        Workload::OracleChaos8,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BusApps16 => "bus_apps16",
            Workload::DirParked256 => "dir_parked256",
            Workload::Conflict16 => "conflict16",
            Workload::OracleChaos8 => "oracle_chaos8",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The engine every cell of this workload runs on.
    pub fn engine(self) -> Engine {
        match self {
            Workload::OracleChaos8 => Engine::CycleStepped,
            _ => Engine::EventDriven,
        }
    }

    /// The workload's cells in run order. `seed` is the machine seed
    /// and roots the fault streams.
    pub fn cells(self, seed: u64, size: Size) -> Vec<Cell> {
        let small = size == Size::Small;
        let mut cells = Vec::new();
        let mut push = |desc: String,
                        make: MakeWorkload,
                        scheme: Scheme,
                        policy: Option<PolicyKind>,
                        procs| {
            let mut label = format!("{desc}/{}", scheme.label());
            if let Some(p) = policy {
                label = format!("{label}/{}", p.label());
            }
            let cfg = self.config(scheme, policy.unwrap_or(PolicyKind::Timestamp), procs, seed);
            cells.push(Cell { label, cfg, make });
        };
        match self {
            Workload::BusApps16 => {
                let (procs, scale) = if small { (4, 16) } else { (16, 96) };
                let apps = figure11_apps(procs, scale);
                for (i, app) in apps.iter().enumerate() {
                    for scheme in [Scheme::Base, Scheme::Sle, Scheme::Tlr, Scheme::Mcs] {
                        let desc = format!("figure11_apps({procs},{scale})[{}]", app.name());
                        let make: MakeWorkload =
                            Rc::new(move || figure11_apps(procs, scale).swap_remove(i));
                        push(desc, make, scheme, None, procs);
                    }
                }
            }
            Workload::DirParked256 => {
                let (procs, total) = if small { (32, 256) } else { (256, 512) };
                for scheme in [Scheme::Base, Scheme::Sle, Scheme::Tlr] {
                    let make: MakeWorkload =
                        Rc::new(move || Box::new(multiple_counter(procs, total)));
                    push(
                        format!("multiple_counter({procs},{total})"),
                        make,
                        scheme,
                        None,
                        procs,
                    );
                }
            }
            Workload::Conflict16 => {
                let (procs, sc, dll) = if small {
                    (4, 512, 128)
                } else {
                    (16, 32768, 8192)
                };
                for policy in PolicyKind::ALL {
                    let make: MakeWorkload = Rc::new(move || Box::new(single_counter(procs, sc)));
                    push(
                        format!("single_counter({procs},{sc})"),
                        make,
                        Scheme::Tlr,
                        Some(policy),
                        procs,
                    );
                    let make: MakeWorkload =
                        Rc::new(move || Box::new(doubly_linked_list(procs, dll)));
                    push(
                        format!("doubly_linked_list({procs},{dll})"),
                        make,
                        Scheme::Tlr,
                        Some(policy),
                        procs,
                    );
                }
            }
            Workload::OracleChaos8 => {
                let (procs, sc, dll, iters) = if small {
                    (4, 256, 64, 32)
                } else {
                    (8, 12288, 3072, 768)
                };
                for scheme in [Scheme::Base, Scheme::Sle, Scheme::Tlr] {
                    let make: MakeWorkload = Rc::new(move || Box::new(single_counter(procs, sc)));
                    push(
                        format!("single_counter({procs},{sc})"),
                        make,
                        scheme,
                        None,
                        procs,
                    );
                    let make: MakeWorkload =
                        Rc::new(move || Box::new(doubly_linked_list(procs, dll)));
                    push(
                        format!("doubly_linked_list({procs},{dll})"),
                        make,
                        scheme,
                        None,
                        procs,
                    );
                    let make: MakeWorkload = Rc::new(move || Box::new(mp3d(procs, iters, 512)));
                    push(
                        format!("mp3d({procs},{iters},512)"),
                        make,
                        scheme,
                        None,
                        procs,
                    );
                }
            }
        }
        cells
    }

    fn config(self, scheme: Scheme, policy: PolicyKind, procs: usize, seed: u64) -> MachineConfig {
        let (interconnect, banks) = match self {
            Workload::DirParked256 => (Interconnect::Directory, procs),
            _ => (Interconnect::Snooping, 0),
        };
        let faults = match self {
            Workload::OracleChaos8 => FaultConfig::intensity(seed, 2),
            _ => FaultConfig::off(),
        };
        MachineConfig::builder()
            .scheme(scheme)
            .procs(procs)
            .interconnect(interconnect)
            .dir_banks(banks)
            .policy(policy)
            .engine(self.engine())
            .faults(faults)
            .profile(ProfConfig::off())
            .seed(seed)
            .max_cycles(MAX_CYCLES)
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cell lists are part of the benchmark's definition: a change
    /// here invalidates every recorded result and the goldens.
    #[test]
    fn cell_counts_and_sizes_are_fixed() {
        let expect: [(Workload, usize, usize, &str, &str); 4] = [
            (
                Workload::BusApps16,
                28,
                16,
                "figure11_apps(16,96)[ocean-cont]/BASE",
                "figure11_apps(16,96)[mp3d]/MCS",
            ),
            (
                Workload::DirParked256,
                3,
                256,
                "multiple_counter(256,512)/BASE",
                "multiple_counter(256,512)/BASE+SLE+TLR",
            ),
            (
                Workload::Conflict16,
                8,
                16,
                "single_counter(16,32768)/BASE+SLE+TLR/timestamp",
                "doubly_linked_list(16,8192)/BASE+SLE+TLR/lazysub",
            ),
            (
                Workload::OracleChaos8,
                9,
                8,
                "single_counter(8,12288)/BASE",
                "mp3d(8,768,512)/BASE+SLE+TLR",
            ),
        ];
        for (w, count, procs, first, last) in expect {
            let cells = w.cells(DEFAULT_SEED, Size::Full);
            assert_eq!(cells.len(), count, "{}", w.name());
            assert_eq!(cells[0].label, first);
            assert_eq!(cells[count - 1].label, last);
            for c in &cells {
                assert_eq!(c.cfg.num_procs, procs, "{}", c.label);
                assert_eq!(c.cfg.engine, w.engine());
                assert_eq!(c.cfg.max_cycles, MAX_CYCLES);
                assert_eq!(c.cfg.seed, DEFAULT_SEED);
                assert!(!c.cfg.profile.enabled);
            }
            let labels: std::collections::BTreeSet<_> = cells.iter().map(|c| &c.label).collect();
            assert_eq!(labels.len(), count, "{}: labels must be unique", w.name());
            assert_eq!(
                w.cells(DEFAULT_SEED, Size::Small).len(),
                count,
                "{}: small keeps the cells",
                w.name()
            );
        }
    }

    #[test]
    fn configs_pin_fabric_and_faults() {
        let dir = &Workload::DirParked256.cells(1, Size::Full)[0].cfg;
        assert_eq!(
            (dir.interconnect, dir.dir_banks),
            (Interconnect::Directory, 256)
        );
        let chaos = &Workload::OracleChaos8.cells(9, Size::Full)[0].cfg;
        assert_eq!(chaos.faults, FaultConfig::intensity(9, 2));
        assert_eq!(chaos.engine, Engine::CycleStepped);
        let bus = &Workload::BusApps16.cells(1, Size::Full)[0].cfg;
        assert_eq!(
            (bus.interconnect, bus.faults.enabled),
            (Interconnect::Snooping, false)
        );
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
