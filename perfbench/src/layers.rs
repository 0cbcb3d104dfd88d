//! Per-layer metrics of the traced run: spans of the traced lap, the
//! per-frame replay of the workload's own frames, a push/pop loop for the
//! event queue, and counts from the obs snapshots and reports.
//!
//! Unit costs (`*_ns*`, `*_us*`, `*_x_realtime`) are priced at the
//! workload's own operating points; a workload that bypasses a layer gets
//! it priced at a reference point (see README.md), so every unit cost is a
//! measurement on every workload. Shares and counts are always the
//! workload's own: a bypassed layer shows a share and count of 0.

use crate::probe::PAYLOAD_SAMPLES;
use crate::replay::{desim_ns_per_event, replay, FrameCost, FrameSpec};
use crate::tasks::{build_tasks, cell_tasks, run_task, Kind, Outcome, Size, Task, Workload};
use crate::trace::Tracer;
use crate::{metric, Metric};
use desim::DetRng;
use smartvlc_link::{LinkConfig, MacHeader, SchemeKind};
use std::collections::BTreeMap;

/// Stored spans per traced run; beyond this only per-name totals grow.
pub const SPAN_CAP: usize = 50_000;
/// Policies of the cell battery, in report order.
const POLICIES: [&str; 3] = ["equal_share", "proportional_fair", "coordinated_edge"];

/// Frame-weighted sums of replayed costs.
#[derive(Default)]
struct Weighted {
    w: f64,
    emit: f64,
    parse: f64,
    push: f64,
    fec_encode: f64,
    fec_decode: f64,
    frame_slots: f64,
    air_slots: f64,
    airtime_ns: f64,
    iid: f64,
    sampled: f64,
    cw_w: f64,
    cw_encode: f64,
    cw_decode: f64,
    cw_airtime_ns: f64,
}

impl Weighted {
    fn add(&mut self, w: f64, c: &FrameCost) {
        self.w += w;
        self.emit += w * c.emit;
        self.parse += w * c.parse;
        self.push += w * c.push;
        self.fec_encode += w * c.fec_encode;
        self.fec_decode += w * c.fec_decode;
        self.frame_slots += w * c.frame_slots;
        self.air_slots += w * c.air_slots;
        self.airtime_ns += w * c.frame_slots * c.tslot_ns;
        self.iid += w * c.iid;
        self.sampled += w * c.sampled;
        if let Some((e, d, n)) = c.codeword {
            self.cw_w += w;
            self.cw_encode += w * e;
            self.cw_decode += w * d;
            self.cw_airtime_ns += w * n * c.tslot_ns;
        }
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn kind_names(kind: &Kind) -> (&'static str, &'static str, &'static str) {
    match kind {
        Kind::Link { .. } => (
            "task.link",
            "LinkSimulation::new",
            "LinkSimulation::run_traffic",
        ),
        Kind::Net { .. } => (
            "task.net",
            "NetOverLink::new+LinkSimulation::new",
            "LinkSimulation::run_traffic",
        ),
        Kind::Cell { .. } => ("task.cell", "cell.setup", "run_cell"),
    }
}

/// Record the spans of one traced task run, then replay the task's own
/// frame right away, so the replayed unit costs see the same host
/// conditions as the run they are compared with.
pub fn trace_task(tr: &mut Tracer, i: usize, t: &Task, o: &Outcome) -> Option<FrameCost> {
    let task_id = i as u32 + 1;
    let (root_name, new_name, run_name) = kind_names(&t.kind);
    let root = tr.record(root_name, 0, task_id, o.start_ns, o.start_ns + o.wall_ns);
    tr.record(new_name, root, task_id, o.start_ns, o.run_start_ns);
    let run = tr.record(run_name, root, task_id, o.run_start_ns, o.run_end_ns);
    for &(name, a, b) in &o.probe.spans {
        tr.record(name, run, task_id, a, b);
    }
    let (cfg, lux) = t.link()?;
    let spec = FrameSpec {
        link: cfg.clone(),
        lux,
        level: o.probe.level?,
        payloads: o.probe.payloads.clone(),
    };
    replay(&spec, cfg.seed ^ 0x5eed, tr, task_id)
}

/// The reference frame for workloads that emit none: the paper bench's
/// AMPPM link at 3 m and l = 0.5 with a full payload.
fn reference_frame(seed: u64) -> FrameSpec {
    let mut link = LinkConfig::paper_static(3.0, SchemeKind::Amppm, seed);
    link.channel.ambient_lux = 8080.0;
    let mut rng = DetRng::seed_from_u64(seed);
    let payloads = (0..PAYLOAD_SAMPLES)
        .map(|_| {
            let mut p = vec![0u8; link.sys.payload_len - MacHeader::WIRE_BYTES];
            rng.fill_bytes(&mut p);
            p
        })
        .collect();
    FrameSpec {
        link,
        lux: 8080.0,
        level: 0.5,
        payloads,
    }
}

pub fn per_layer(
    w: Workload,
    seed: u64,
    tasks: &[Task],
    lap: &[(usize, Outcome, Option<FrameCost>)],
    tr: &mut Tracer,
    traced_overhead: f64,
    failed_frac: f64,
) -> Vec<Metric> {
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    let (mut link_wall, mut frames_sent, mut retrans) = (0.0, 0u64, 0u64);
    let (mut hook_ns, mut hook_calls, mut polls, mut idle) = (0u64, 0u64, 0u64, 0u64);
    let (mut cell_wall, mut cell_events, mut queue_peak) = (0.0, 0u64, 0u64);
    let (mut handovers, mut coord_grants) = (0u64, 0u64);
    let mut policy_cost: BTreeMap<&str, (f64, u64)> = BTreeMap::new();
    for &(i, ref o, _) in lap {
        for (k, v) in &o.snapshot.counters {
            *counts.entry(k.clone()).or_default() += v;
        }
        if let Some(r) = &o.link {
            link_wall += o.run_ns as f64;
            frames_sent += r.stats.frames_sent;
            retrans += r.stats.retransmissions;
            hook_ns += o.probe.hook_ns;
            hook_calls += o.probe.hook_calls;
            polls += o.probe.polls;
            idle += o.probe.idle_polls;
        }
        if let (Some(r), Kind::Cell { cfg, .. }) = (&o.cell, &tasks[i].kind) {
            cell_wall += o.run_ns as f64;
            cell_events += r.events;
            queue_peak = queue_peak.max(r.queue_peak);
            handovers += r.handovers;
            coord_grants += r.coord_grants;
            let e = policy_cost.entry(cfg.scheduler.name()).or_default();
            e.0 += o.run_ns as f64;
            e.1 += r.events;
        }
    }
    let count = |k: &str| counts.get(k).copied().unwrap_or(0);
    // An obs counter reported under its own name.
    let counter = |k: &str| metric(k, count(k) as f64, "count");

    // Per-frame replay of the workload's own frames, weighted by the
    // frames each task actually sent.
    let mut all = Weighted::default();
    let (mut frame_busy, mut chan_busy, mut rx_busy, mut fec_busy) = (0.0, 0.0, 0.0, 0.0);
    let mut airtime_rows: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    for &(i, ref o, ref cost) in lap {
        let (Some((cfg, _)), Some(r), Some(c)) = (tasks[i].link(), &o.link, cost) else {
            continue;
        };
        let level = o.probe.level.unwrap_or_default();
        let f = r.stats.frames_sent as f64;
        all.add(f, c);
        frame_busy += f * c.emit;
        chan_busy += f * c.channel(cfg.fidelity);
        rx_busy += f * c.push;
        if cfg.fec.profile().is_some() {
            fec_busy += f * (c.fec_encode + c.fec_decode);
        }
        let row = airtime_rows
            .entry(format!("{:?} l={:.2}", cfg.scheme, level))
            .or_default();
        row.0 += c.emit;
        row.1 += c.frame_slots * c.tslot_ns;
    }
    if all.w == 0.0 {
        // No frames on this workload: price the frame layers at the
        // reference frame; their shares stay 0.
        if let Some(c) = replay(&reference_frame(seed), seed, tr, 0) {
            all.add(1.0, &c);
        }
    }

    // Layers this workload bypasses are priced by reference probes.
    if cell_events == 0 {
        for t in cell_tasks(4, seed, 600) {
            let o = run_task(&t, false, false);
            let Kind::Cell { cfg, .. } = t.kind else {
                continue;
            };
            let e = policy_cost.entry(cfg.scheduler.name()).or_default();
            e.0 += o.run_ns as f64;
            e.1 += o.events;
            tr.record("reference.run_cell", 0, 0, o.run_start_ns, o.run_end_ns);
        }
    }
    let mut ref_hook = (hook_ns, hook_calls);
    if hook_calls == 0 {
        let net = build_tasks(Workload::NetMix, seed, Size::Smoke);
        let o = run_task(&net[0], true, false);
        ref_hook = (o.probe.hook_ns, o.probe.hook_calls);
        tr.record("reference.net_hooks", 0, 0, o.run_start_ns, o.run_end_ns);
    }
    let desim_ns = desim_ns_per_event(queue_peak.max(1) as usize, tr);

    let tslot = all.airtime_ns / all.frame_slots.max(1.0);
    let per_slot = |busy: f64, slots: f64| ratio(busy, slots);
    let x_rt = |ns_per_slot: f64| ratio(tslot, ns_per_slot);
    let emit_slot = per_slot(all.emit, all.frame_slots);
    let parse_slot = per_slot(all.parse, all.frame_slots);
    let iid_slot = per_slot(all.iid, all.air_slots);
    let sampled_slot = per_slot(all.sampled, all.air_slots);
    let push_slot = per_slot(all.push, all.air_slots);
    let layer_shares = [
        ("core.frame.share", ratio(frame_busy, link_wall)),
        ("channel.share", ratio(chan_busy, link_wall)),
        ("link.rx.share", ratio(rx_busy, link_wall)),
        ("net.hook_share", ratio(hook_ns as f64, link_wall)),
    ];
    let covered: f64 = layer_shares.iter().map(|s| s.1).sum();
    let other = if link_wall > 0.0 { 1.0 - covered } else { 0.0 };
    let (all_cell_wall, all_cell_events) = policy_cost
        .values()
        .fold((0.0, 0u64), |a, v| (a.0 + v.0, a.1 + v.1));

    let mut m = vec![
        metric(
            "combinat.encode_ns_per_symbol",
            ratio(all.cw_encode, all.cw_w),
            "ns",
        ),
        metric(
            "combinat.decode_ns_per_symbol",
            ratio(all.cw_decode, all.cw_w),
            "ns",
        ),
        metric(
            "combinat.encode_x_realtime",
            ratio(all.cw_airtime_ns, all.cw_encode),
            "x",
        ),
        metric(
            "combinat.decode_x_realtime",
            ratio(all.cw_airtime_ns, all.cw_decode),
            "x",
        ),
        metric("core.frame.emit_us", ratio(all.emit, all.w) * 1e-3, "us"),
        metric("core.frame.parse_us", ratio(all.parse, all.w) * 1e-3, "us"),
        metric("core.frame.emit_x_realtime", x_rt(emit_slot), "x"),
        metric("core.frame.parse_x_realtime", x_rt(parse_slot), "x"),
        metric(
            "core.frame.emit_airtime_ratio",
            ratio(all.emit, all.airtime_ns),
            "ratio",
        ),
        counter("core.codec.emits"),
        counter("core.codec.parses"),
        counter("core.codec.crc_fail"),
        metric(
            "core.planner.cache_hit_ratio",
            ratio(
                count("core.planner.cache_hits") as f64,
                (count("core.planner.cache_hits") + count("core.planner.cache_misses")) as f64,
            ),
            "ratio",
        ),
        metric("channel.iid_ns_per_slot", iid_slot, "ns"),
        metric("channel.iid_x_realtime", x_rt(iid_slot), "x"),
        metric("channel.sampled_ns_per_slot", sampled_slot, "ns"),
        metric("channel.sampled_x_realtime", x_rt(sampled_slot), "x"),
        metric(
            "channel.opcache.hit_ratio",
            ratio(
                count("channel.opcache.hit") as f64,
                (count("channel.opcache.hit") + count("channel.opcache.miss")) as f64,
            ),
            "ratio",
        ),
        counter("channel.opcache.miss"),
        metric(
            "link.rx.push_us_per_frame",
            ratio(all.push, all.w) * 1e-3,
            "us",
        ),
        metric("link.rx.x_realtime", x_rt(push_slot), "x"),
        counter("link.rx.scan_skips"),
        metric(
            "link.mac.retry_ratio",
            ratio(retrans as f64, frames_sent as f64),
            "ratio",
        ),
        metric("link.other_share", other, "ratio"),
        metric("fec.encode_us", ratio(all.fec_encode, all.w) * 1e-3, "us"),
        metric("fec.decode_us", ratio(all.fec_decode, all.w) * 1e-3, "us"),
        counter("fec.corrected_symbols"),
        counter("fec.decode_failures"),
        metric("fec.share", ratio(fec_busy, link_wall), "ratio"),
        metric(
            "net.hook_ns_per_call",
            ratio(ref_hook.0 as f64, ref_hook.1 as f64),
            "ns",
        ),
        metric(
            "net.idle_poll_ratio",
            ratio(idle as f64, polls as f64),
            "ratio",
        ),
        counter("net.tx.frags"),
        counter("net.rx.datagrams"),
        counter("net.rx.dup_frags"),
        metric("desim.ns_per_event", desim_ns, "ns"),
        metric(
            "desim.share",
            ratio(desim_ns * cell_events as f64, cell_wall),
            "ratio",
        ),
        metric("sim.cell.queue_peak", queue_peak as f64, "count"),
        metric(
            "cell.ns_per_event",
            ratio(all_cell_wall, all_cell_events as f64),
            "ns",
        ),
        metric("cell.events", cell_events as f64, "count"),
        metric("cell.handovers", handovers as f64, "count"),
        metric("cell.sched.coord_grants", coord_grants as f64, "count"),
        metric("obs.traced_overhead_frac", traced_overhead, "ratio"),
        metric("failed_frac", failed_frac, "ratio"),
    ];
    for p in POLICIES {
        let (wall, ev) = policy_cost.get(p).copied().unwrap_or((0.0, 0));
        m.push(metric(
            &format!("cell.ns_per_event.{p}"),
            ratio(wall, ev as f64),
            "ns",
        ));
    }
    for (name, v) in layer_shares {
        m.push(metric(name, v, "ratio"));
    }

    // Coverage: every timed layer call plus the uncovered remainder must
    // account for the traced link-run wall time.
    eprintln!(
        "perfbench: {} layer shares of {:.3} s traced link-run wall:",
        w.name(),
        link_wall * 1e-9
    );
    for (name, v) in layer_shares {
        eprintln!("  {name:<20} {v:>7.3}");
    }
    eprintln!(
        "  {:<20} {other:>7.3}   (MAC/ARQ, uplink, sensing)",
        "link.other_share"
    );
    eprintln!(
        "  {:<20} {:>7.3}   (nested in core.frame and link.rx)",
        "fec.share",
        ratio(fec_busy, link_wall)
    );
    if cell_wall > 0.0 {
        eprintln!(
            "  desim (push+pop at queue peak {queue_peak}) {:.3} of {:.3} s cell wall",
            ratio(desim_ns * cell_events as f64, cell_wall),
            cell_wall * 1e-9
        );
    }
    if other < -0.10 {
        eprintln!(
            "perfbench: warning: replayed layer costs exceed the traced link wall ({other:.3})"
        );
    }
    if !airtime_rows.is_empty() {
        eprintln!("perfbench: emit time / on-air time at the configured slot clock:");
        for (k, (emit, air)) in &airtime_rows {
            eprintln!("  {k:<22} {:.4}", ratio(*emit, *air));
        }
    }
    m
}
