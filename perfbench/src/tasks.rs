//! The four workloads: their task lists, how one task runs through the
//! library's public entry points, and the fingerprint its output is
//! checked by.

use crate::probe::{Probe, ProbeStats};
use crate::trace::{cpu_ns, now_ns};
use desim::{DetRng, SimDuration};
use smartvlc_core::frame::format::FecMode;
use smartvlc_link::{LinkConfig, LinkReport, LinkSimulation, RandomTraffic, SchemeKind};
use smartvlc_net::{NetConfig, NetOverLink, WorkloadSpec};
use smartvlc_obs as obs;
use smartvlc_sim::cell::cell_policy_scenarios;
use smartvlc_sim::cell::{run_cell, CellConfig, CellReport};
use smartvlc_sim::chaos::{CHAOS_AMBIENT_LUX, CHAOS_DISTANCE_M};
use smartvlc_sim::net_suite::net_scenarios;
use smartvlc_sim::static_run::paper_levels;
use std::time::Instant;
use vlc_channel::ambient::ConstantAmbient;

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [Workload; 4] = [
    Workload::PaperSweep,
    Workload::LinkSampled,
    Workload::NetMix,
    Workload::CellFloor,
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 15: AMPPM, MPPM(20), OOK-CT × the 17 paper levels × 2 seeds.
    PaperSweep,
    /// AMPPM/MPPM(20) × 5 levels × 10 distances on the sampled channel.
    LinkSampled,
    /// The four net mixes over their faulted link × FEC {Off, Medium}.
    NetMix,
    /// The 8×8 × 100-user policy battery rows.
    CellFloor,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::LinkSampled => "link_sampled",
            Workload::NetMix => "net_mix",
            Workload::CellFloor => "cell_floor",
        }
    }
}

/// `Full` is the benchmark; `Smoke` keeps every task kind but shrinks the
/// task count and simulated duration so all workloads finish in seconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// The static-scenario ambient of the paper's Fig. 15 bench (§6.2): the
/// blind is fixed and the dimming level comes from the set-point.
const STATIC_AMBIENT_LUX: f64 = 8080.0;
/// The Fig. 15 schemes.
pub const PAPER_SCHEMES: [SchemeKind; 3] =
    [SchemeKind::Amppm, SchemeKind::Mppm(20), SchemeKind::OokCt];

pub enum Kind {
    /// One `LinkSimulation` with the saturating random source.
    Link { cfg: LinkConfig, lux: f64 },
    /// One `LinkSimulation` carrying a `NetOverLink` workload mix.
    Net {
        cfg: LinkConfig,
        specs: Vec<WorkloadSpec>,
        lux: f64,
    },
    /// One `run_cell` call.
    Cell { cfg: CellConfig, seed: u64 },
}

pub struct Task {
    pub label: String,
    pub kind: Kind,
}

impl Task {
    /// Simulated seconds the task covers (virtual time on the desim clock).
    pub fn sim_s(&self) -> f64 {
        match &self.kind {
            Kind::Link { cfg, .. } | Kind::Net { cfg, .. } => cfg.duration.as_secs_f64(),
            Kind::Cell { cfg, .. } => cfg.ticks as f64 * cfg.tick_s,
        }
    }

    /// The link configuration and ambient lux, for link-kind tasks.
    pub fn link(&self) -> Option<(&LinkConfig, f64)> {
        match &self.kind {
            Kind::Link { cfg, lux } | Kind::Net { cfg, lux, .. } => Some((cfg, *lux)),
            Kind::Cell { .. } => None,
        }
    }
}

/// A per-task seed: keyed forks of the workload seed, so tasks are
/// decorrelated and the same `--seed` always yields the same inputs.
fn task_seed(root: &DetRng, i: usize) -> u64 {
    root.fork_idx(i as u64).next_u64()
}

/// A paper static-bench link at `distance_m` whose LED settles at `level`
/// (set-point = ambient + level, so Eq. 5 lands on it).
fn static_link(scheme: SchemeKind, distance_m: f64, level: f64, seed: u64) -> (LinkConfig, f64) {
    let mut cfg = LinkConfig::paper_static(distance_m, scheme, seed);
    cfg.channel.ambient_lux = STATIC_AMBIENT_LUX;
    cfg.illum_target = STATIC_AMBIENT_LUX / cfg.full_scale_lux + level;
    (cfg, STATIC_AMBIENT_LUX)
}

pub fn build_tasks(w: Workload, seed: u64, size: Size) -> Vec<Task> {
    let root = DetRng::seed_from_u64(seed).fork(w.name());
    let smoke = size == Size::Smoke;
    let mut tasks = Vec::new();
    match w {
        Workload::PaperSweep => {
            let levels = paper_levels();
            let levels: Vec<f64> = if smoke {
                vec![levels[4], levels[8]]
            } else {
                levels
            };
            let reps = if smoke { 1 } else { 2 };
            let duration = SimDuration::millis(if smoke { 100 } else { 1000 });
            for scheme in PAPER_SCHEMES {
                for &level in &levels {
                    for rep in 0..reps {
                        let s = task_seed(&root, tasks.len());
                        let (mut cfg, lux) = static_link(scheme, 3.0, level, s);
                        cfg.duration = duration;
                        tasks.push(Task {
                            label: format!("{scheme:?}/l={level:.2}/rep{rep}"),
                            kind: Kind::Link { cfg, lux },
                        });
                    }
                }
            }
        }
        Workload::LinkSampled => {
            let levels: &[f64] = if smoke {
                &[0.5]
            } else {
                &[0.2, 0.35, 0.5, 0.65, 0.8]
            };
            let distances: Vec<f64> = (0..if smoke { 2 } else { 10 })
                .map(|i| 1.0 + 0.25 * i as f64)
                .collect();
            let duration = SimDuration::millis(if smoke { 50 } else { 500 });
            for scheme in [SchemeKind::Amppm, SchemeKind::Mppm(20)] {
                for &level in levels {
                    for &d in &distances {
                        let s = task_seed(&root, tasks.len());
                        let (mut cfg, lux) = static_link(scheme, d, level, s);
                        cfg.duration = duration;
                        cfg.fidelity = smartvlc_link::ChannelFidelity::Sampled;
                        tasks.push(Task {
                            label: format!("{scheme:?}/l={level:.2}/d={d:.2}"),
                            kind: Kind::Link { cfg, lux },
                        });
                    }
                }
            }
        }
        Workload::NetMix => {
            let reps = if smoke { 1 } else { 13 };
            let duration = SimDuration::millis(if smoke { 300 } else { 3000 });
            for sc in net_scenarios() {
                for fec in [FecMode::Off, FecMode::Medium] {
                    for rep in 0..reps {
                        let s = task_seed(&root, tasks.len());
                        let mut cfg =
                            LinkConfig::paper_static(CHAOS_DISTANCE_M, SchemeKind::Amppm, s);
                        cfg.duration = duration;
                        cfg.faults = sc.plan();
                        cfg.fec = fec;
                        tasks.push(Task {
                            label: format!("{}/{fec:?}/rep{rep}", sc.name),
                            kind: Kind::Net {
                                cfg,
                                specs: sc.workloads(),
                                lux: CHAOS_AMBIENT_LUX,
                            },
                        });
                    }
                }
            }
        }
        Workload::CellFloor => {
            let ticks = if smoke { 20 } else { 600 };
            tasks = cell_tasks(8, task_seed(&root, 0), ticks);
        }
    }
    tasks
}

/// The policy battery's `n`×`n` grid under every scheduling policy, one
/// `run_cell` each for `ticks` sensing ticks. The policies share a seed,
/// so the rows compare the policies and nothing else. The 4×4 × 12-user
/// rows price `cell.ns_per_event` on workloads that never run the cell
/// simulator.
pub fn cell_tasks(n: usize, seed: u64, ticks: u32) -> Vec<Task> {
    cell_policy_scenarios()
        .into_iter()
        .filter(|sc| sc.cfg.nx == n)
        .map(|sc| Task {
            label: sc.name,
            kind: Kind::Cell {
                cfg: CellConfig { ticks, ..sc.cfg },
                seed,
            },
        })
        .collect()
}

/// What one task produced.
pub struct Outcome {
    /// Host wall time of the public calls (construction + run), ns.
    pub wall_ns: u64,
    /// Thread CPU time of the same calls, ns ([`crate::trace::cpu_ns`]).
    pub cpu_ns: u64,
    /// Host wall time of `run_traffic`/`run_cell` alone, ns.
    pub run_ns: u64,
    /// Span boundaries on the trace clock: task start, run start, run end.
    pub start_ns: u64,
    pub run_start_ns: u64,
    pub run_end_ns: u64,
    /// Frames carried through emit → channel → rx (cell: frame-equivalents
    /// the analytic PHY delivered, `delivered_bits / frame_bits`).
    pub frames: u64,
    /// Datagrams delivered to the layer above the link (saturating source:
    /// one payload per delivered frame; cell: completed replayed flows).
    pub dgrams: u64,
    /// Simulator events (cell: events popped off the desim queue; link:
    /// MAC-loop steps = frames sent + idle source polls).
    pub events: u64,
    pub fingerprint: u64,
    pub snapshot: obs::Snapshot,
    pub link: Option<LinkReport>,
    pub cell: Option<CellReport>,
    pub probe: ProbeStats,
}

/// Run one task under a fresh obs recorder. `timed_hooks` wraps the
/// traffic source in timing spans (the traced run); otherwise the wrapper
/// only counts polls and deliveries.
pub fn run_task(task: &Task, timed_hooks: bool, keep_spans: bool) -> Outcome {
    let rec = obs::Recorder::new();
    let mut probe = ProbeStats::new(timed_hooks, keep_spans);
    let start_ns = now_ns();
    let cpu0 = cpu_ns();
    let t0 = Instant::now();
    let mut run_start_ns = 0;
    let (run_ns, link, cell, net_delivered) = obs::with_recorder(&rec, || match &task.kind {
        Kind::Link { cfg, lux } => {
            let mut sim = LinkSimulation::new(cfg.clone()).expect("valid link scenario");
            run_start_ns = now_ns();
            let t = Instant::now();
            let mut random = RandomTraffic;
            let mut src = Probe::new(&mut random, &mut probe);
            let r = sim.run_traffic(&mut ConstantAmbient { lux: *lux }, &mut src);
            (t.elapsed().as_nanos() as u64, Some(r), None, None)
        }
        Kind::Net { cfg, specs, lux } => {
            // Same construction as `smartvlc_net::run_net_over_link`.
            let rng = DetRng::seed_from_u64(cfg.seed).fork("net");
            let mut net =
                NetOverLink::new(NetConfig::default(), specs, &rng).expect("valid net mix");
            let mut sim = LinkSimulation::new(cfg.clone()).expect("valid net scenario");
            run_start_ns = now_ns();
            let t = Instant::now();
            let r = {
                let mut src = Probe::new(&mut net, &mut probe);
                sim.run_traffic(&mut ConstantAmbient { lux: *lux }, &mut src)
            };
            let run_ns = t.elapsed().as_nanos() as u64;
            let nr = net.finish();
            (run_ns, Some(r), None, Some(nr))
        }
        Kind::Cell { cfg, seed, .. } => {
            run_start_ns = now_ns();
            let t = Instant::now();
            let r = run_cell(cfg, *seed);
            (t.elapsed().as_nanos() as u64, None, Some(r), None)
        }
    });
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let cpu_ns = cpu_ns() - cpu0;
    let run_end_ns = run_start_ns + run_ns;
    let snapshot = rec.snapshot();

    let mut fp = Fnv::new();
    let (frames, dgrams, events);
    if let Some(r) = &link {
        let s = &r.stats;
        frames = s.frames_sent;
        dgrams = match &net_delivered {
            Some(nr) => {
                fp.word(nr.offered_dgrams);
                fp.word(nr.lost_dgrams);
                nr.delivered_dgrams
            }
            None => probe.delivered,
        };
        events = s.frames_sent + probe.idle_polls;
        for v in [
            r.mean_goodput_bps.to_bits(),
            s.frames_sent,
            s.frames_ok,
            s.frames_crc_fail,
            s.frames_lost,
            s.retransmissions,
            s.payload_bytes_acked,
            s.slots_sent,
        ] {
            fp.word(v);
        }
    } else {
        let r = cell.as_ref().expect("a task is a link or a cell run");
        let Kind::Cell { cfg, .. } = &task.kind else {
            unreachable!("cell report from a non-cell task")
        };
        let bits: f64 = r.users.iter().map(|u| u.delivered_bits).sum();
        frames = (bits / cfg.frame_bits) as u64;
        dgrams = r.traffic.as_ref().map_or(0, |t| t.flows_completed);
        events = r.events;
        for v in [
            r.aggregate_goodput_bps.to_bits(),
            bits.to_bits(),
            r.events,
            r.handovers,
            r.queue_peak,
            r.opcache_misses,
        ] {
            fp.word(v);
        }
    }
    fp.word(frames);
    fp.word(dgrams);
    fp.word(events);
    fp.bytes(snapshot.to_json().as_bytes());
    Outcome {
        wall_ns,
        cpu_ns,
        run_ns,
        start_ns,
        run_start_ns,
        run_end_ns,
        frames,
        dgrams,
        events,
        fingerprint: fp.0,
        snapshot,
        link,
        cell,
        probe,
    }
}

/// FNV-1a, 64-bit: a stable hash for fingerprints that must match across
/// processes and against the stored reference.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}
