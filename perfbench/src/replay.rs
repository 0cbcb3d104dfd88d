//! Per-layer unit costs. The traced run replays each task's own frame
//! (scheme, level, payload size, FEC mode, channel) through the layers'
//! public calls one at a time — `Transmitter::build_frame`, the channel's
//! slot-iid and sampled paths, `Receiver::push_slots`, `FrameCodec::parse`,
//! `smartvlc_fec::{encode, decode}` and the combinadic codeword codec —
//! and prices the desim queue with a push/pop loop.

use crate::trace::Tracer;
use combinat::{decode_codeword_with, encode_codeword_into, BigUint, EncodeScratch};
use desim::{DetRng, Scheduler, SimDuration, SimTime};
use smartvlc_core::frame::codec::FrameCodec;
use smartvlc_core::frame::format::FecMode;
use smartvlc_core::{DimmingLevel, SystemConfig};
use smartvlc_fec::FecProfile;
use smartvlc_link::{ChannelFidelity, LinkConfig, Receiver, SchemeKind, Transmitter};
use std::hint::black_box;
use vlc_channel::link::{OpticalChannel, RxScratch};

/// One task's frames to replay: its link, the LED level its transmitter
/// held, and a sample of the payloads it sent.
#[derive(Clone)]
pub struct FrameSpec {
    pub link: LinkConfig,
    pub lux: f64,
    pub level: f64,
    pub payloads: Vec<Vec<u8>>,
}

/// Mean per-frame cost of each layer for one [`FrameSpec`], ns.
#[derive(Clone, Copy, Default)]
pub struct FrameCost {
    /// `Transmitter::build_frame` (MAC header, FEC encode, modulation).
    pub emit: f64,
    /// `FrameCodec::parse` of the clean waveform.
    pub parse: f64,
    /// Slot-iid error injection over the on-air stream (gap + frame).
    pub iid: f64,
    /// Sampled channel (LED → optics → PD → ADC → decide) over it.
    pub sampled: f64,
    /// `Receiver::push_slots` on the stream the task's channel produced.
    pub push: f64,
    /// `smartvlc_fec::encode` / `decode` of the payload block at the
    /// frame's profile (Medium when the frame is uncoded).
    pub fec_encode: f64,
    pub fec_decode: f64,
    /// Codeword encode and decode ns per symbol at the planner's (N, K),
    /// and N (slots per symbol); `None` for OOK-CT, which has no
    /// combinadic symbols.
    pub codeword: Option<(f64, f64, f64)>,
    /// Frame slots (emit output) and on-air slots (gap + frame).
    pub frame_slots: f64,
    pub air_slots: f64,
    /// Tslot of the configuration, ns (8000 at the paper's 125 kHz).
    pub tslot_ns: f64,
}

impl FrameCost {
    /// The channel cost at the task's own fidelity.
    pub fn channel(&self, fidelity: ChannelFidelity) -> f64 {
        match fidelity {
            ChannelFidelity::SlotIid => self.iid,
            ChannelFidelity::Sampled => self.sampled,
        }
    }
}

/// Replayed frames per spec after one untimed warm-up frame.
const FRAMES: usize = 3;
/// Codewords per combinat timing loop.
const SYMBOLS: usize = 256;

fn timed<R>(
    tracer: &mut Tracer,
    name: &'static str,
    parent: u32,
    task: u32,
    acc: &mut f64,
    f: impl FnOnce() -> R,
) -> R {
    let start = crate::trace::now_ns();
    let out = f();
    let end = crate::trace::now_ns();
    tracer.record(name, parent, task, start, end);
    *acc += (end - start) as f64;
    out
}

/// The planner's combinadic (N, K) for a frame at `level`.
fn codeword_shape(codec: &FrameCodec, scheme: SchemeKind, level: f64) -> Option<(usize, usize)> {
    match scheme {
        SchemeKind::Amppm => {
            let plan = codec
                .planner()
                .plan_tiered(DimmingLevel::clamped(level), 0)
                .ok()?;
            let p = plan.super_symbol.s1();
            Some((p.n() as usize, p.k() as usize))
        }
        SchemeKind::Mppm(n) => {
            let k = ((level * n as f64).round() as u16).clamp(1, n - 1);
            Some((n as usize, k as usize))
        }
        _ => None,
    }
}

/// Replay `spec` under one `replay` span and return its per-frame layer
/// costs, or `None` when the level carries no data (the link idles there
/// too).
pub fn replay(spec: &FrameSpec, seed: u64, tracer: &mut Tracer, task: u32) -> Option<FrameCost> {
    let span = tracer.open("replay", 0, task);
    let cost = replay_frames(spec, seed, tracer, span.0, task);
    tracer.close("replay", span);
    cost
}

fn replay_frames(
    spec: &FrameSpec,
    seed: u64,
    tracer: &mut Tracer,
    root: u32,
    task: u32,
) -> Option<FrameCost> {
    let cfg = &spec.link;
    let sys: SystemConfig = cfg.sys.clone();
    let rng = DetRng::seed_from_u64(seed);
    let mut tx = Transmitter::new(
        sys.clone(),
        cfg.scheme,
        spec.level,
        0.0,
        cfg.fixed_step_floor,
        cfg.fec,
        rng.fork("tx"),
    )
    .ok()?;
    let mut rx = Receiver::new(sys.clone()).ok()?;
    rx.set_accept_fec(cfg.fec != FecMode::Off);
    let mut codec = FrameCodec::new(sys.clone()).ok()?;
    let mut channel = OpticalChannel::new(cfg.channel, rng.fork("channel"));
    channel.set_ambient_lux(spec.lux);
    let mut flips = rng.fork("flips");
    let profile = cfg.fec.profile().unwrap_or(FecProfile::Medium);
    if spec.payloads.is_empty() {
        return None;
    }

    let mut c = FrameCost {
        tslot_ns: sys.tslot_nanos() as f64,
        ..FrameCost::default()
    };
    let mut air = Vec::new();
    let mut iid_out = Vec::new();
    let mut scratch = RxScratch::new();
    let shape = codeword_shape(&codec, cfg.scheme, spec.level);
    // Round 0 warms caches and buffers; its times are discarded.
    for round in 0..=FRAMES {
        let data = &spec.payloads[round % spec.payloads.len()];
        let mut block = data.clone();
        block.extend_from_slice(&[0, 0]);
        let mut r = FrameCost::default();
        let (_, slots) = timed(
            tracer,
            "replay.build_frame",
            root,
            task,
            &mut r.emit,
            || tx.build_frame(round as u16, data),
        )
        .ok()?;
        air.clear();
        tx.idle_filler_into(cfg.interframe_gap_slots, &mut air);
        air.extend_from_slice(&slots);
        timed(tracer, "replay.channel.iid", root, task, &mut r.iid, || {
            let probs = channel.analytic_error_probs();
            iid_out.clear();
            iid_out.extend(air.iter().map(|&s| {
                let p = if s {
                    probs.p_on_error
                } else {
                    probs.p_off_error
                };
                s ^ flips.chance(p)
            }));
        });
        timed(
            tracer,
            "replay.channel.sampled",
            root,
            task,
            &mut r.sampled,
            || channel.transmit_and_decide_into(&air, &mut scratch),
        );
        let decided = match cfg.fidelity {
            ChannelFidelity::SlotIid => &iid_out,
            ChannelFidelity::Sampled => &scratch.decided,
        };
        black_box(timed(
            tracer,
            "replay.rx.push_slots",
            root,
            task,
            &mut r.push,
            || rx.push_slots(decided),
        ));
        let parsed = timed(
            tracer,
            "replay.codec.parse",
            root,
            task,
            &mut r.parse,
            || codec.parse(&slots),
        );
        if !parsed.is_ok_and(|(_, st)| st.crc_ok) {
            panic!(
                "replayed clean frame failed to parse: {spec_level}",
                spec_level = spec.level
            );
        }
        let coded = timed(
            tracer,
            "replay.fec.encode",
            root,
            task,
            &mut r.fec_encode,
            || smartvlc_fec::encode(profile, &block),
        );
        let dec = timed(
            tracer,
            "replay.fec.decode",
            root,
            task,
            &mut r.fec_decode,
            || smartvlc_fec::decode(profile, &coded, block.len()),
        );
        assert_eq!(dec.data, block, "clean RS block must decode to itself");
        let cw = shape.map(|(n, k)| codeword_loop(&codec, n, k, &mut flips, tracer, root, task));
        if round > 0 {
            let inv = 1.0 / FRAMES as f64;
            c.emit += r.emit * inv;
            c.parse += r.parse * inv;
            c.iid += r.iid * inv;
            c.sampled += r.sampled * inv;
            c.push += r.push * inv;
            c.fec_encode += r.fec_encode * inv;
            c.fec_decode += r.fec_decode * inv;
            c.frame_slots += slots.len() as f64 * inv;
            c.air_slots += air.len() as f64 * inv;
            if let (Some((enc, dec)), Some((n, _))) = (cw, shape) {
                let (e, d, _) = c.codeword.get_or_insert((0.0, 0.0, n as f64));
                *e += enc * inv;
                *d += dec * inv;
            }
        }
    }
    Some(c)
}

/// Encode then decode [`SYMBOLS`] random codewords of shape (n, k);
/// returns ns per symbol for each direction.
fn codeword_loop(
    codec: &FrameCodec,
    n: usize,
    k: usize,
    rng: &mut DetRng,
    tracer: &mut Tracer,
    parent: u32,
    task: u32,
) -> (f64, f64) {
    let table = codec.planner().table();
    let bits = table.bits_per_symbol(n, k).unwrap_or(0) as usize;
    let values: Vec<BigUint> = (0..SYMBOLS)
        .map(|_| {
            let b: Vec<bool> = (0..bits).map(|_| rng.chance(0.5)).collect();
            BigUint::from_bits_msb(&b)
        })
        .collect();
    let mut scratch = EncodeScratch::new();
    let mut words = Vec::with_capacity(SYMBOLS * n);
    let (mut enc, mut dec) = (0.0, 0.0);
    timed(
        tracer,
        "replay.combinat.encode",
        parent,
        task,
        &mut enc,
        || {
            for v in &values {
                encode_codeword_into(table, n, k, v, &mut scratch, &mut words)
                    .expect("value < C(n,k)");
            }
        },
    );
    timed(
        tracer,
        "replay.combinat.decode",
        parent,
        task,
        &mut dec,
        || {
            for (w, v) in words.chunks_exact(n).zip(&values) {
                let got =
                    decode_codeword_with(table, n, k, w, &mut scratch).expect("clean codeword");
                assert!(&got == v, "codeword round trip");
            }
        },
    );
    (enc / SYMBOLS as f64, dec / SYMBOLS as f64)
}

/// `desim::Scheduler` push + pop at a standing depth of `depth` events,
/// ns per event.
pub fn desim_ns_per_event(depth: usize, tracer: &mut Tracer) -> f64 {
    const EVENTS: u64 = 200_000;
    let mut rng = DetRng::seed_from_u64(depth as u64);
    let mut q: Scheduler<u64> = Scheduler::new();
    for i in 0..depth.max(1) {
        q.schedule(
            SimTime::ZERO + SimDuration::micros(rng.next_below(100_000)),
            i as u64,
        );
    }
    let mut acc = 0.0;
    timed(tracer, "replay.desim.push_pop", 0, 0, &mut acc, || {
        for _ in 0..EVENTS {
            let (t, e) = q.pop().expect("queue holds `depth` events");
            q.schedule(
                t + SimDuration::micros(1 + rng.next_below(100_000)),
                black_box(e),
            );
        }
    });
    acc / EVENTS as f64
}
