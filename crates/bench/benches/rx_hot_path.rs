//! The RX hot path before and after the speed passes: analytic
//! operating-point derivation vs the interned cache, and the sampled
//! slot pipeline: exact levels vs the bounded-decision
//! `transmit_and_decide_into`, on a working and on a dead link.
//!
//! The "before" shapes are reconstructed from public API, mirroring
//! `codec_scratch`'s baselines: `analytic_recompute` is the full
//! `detector_with(..).error_probs()` chain the old per-frame/per-tick
//! code paid on every call, `frame_alloc` is the allocating
//! detector + `transmit` + `decide_all` frame, and `decide_per_slot`
//! recomputes the threshold slot by slot the way `decide` does.

use criterion::{criterion_group, criterion_main, Criterion};
use desim::DetRng;
use std::hint::black_box;
use vlc_channel::link::{ChannelConfig, OpticalChannel, RxScratch};

/// A frame-sized slot batch: deterministic pseudo-payload plus the
/// 32-slot inter-frame gap, about what one AMPPM frame occupies on air.
fn frame_slots() -> Vec<bool> {
    let mut rng = DetRng::seed_from_u64(0xbe7c);
    let mut slots: Vec<bool> = (0..1274).map(|_| rng.next_u64() & 1 == 1).collect();
    slots.extend(std::iter::repeat_n(false, 32));
    slots
}

fn bench_analytic(c: &mut Criterion) {
    let mut group = c.benchmark_group("rx_analytic");
    let cfg = ChannelConfig::paper_bench(2.5);

    group.bench_function("recompute_per_call", |b| {
        b.iter(|| black_box(black_box(&cfg).detector_with(1.0, false).error_probs()))
    });

    group.bench_function("memoized", |b| {
        let ch = OpticalChannel::new(cfg, DetRng::seed_from_u64(1));
        b.iter(|| black_box(ch.analytic_error_probs()))
    });

    group.bench_function("intern_map_probe", |b| {
        // Memo invalidated every iteration: times the shared-map hit,
        // the cost a channel pays right after a state change.
        let mut ch = OpticalChannel::new(cfg, DetRng::seed_from_u64(1));
        let lux = cfg.ambient_lux;
        b.iter(|| {
            ch.set_ambient_lux(lux);
            black_box(ch.analytic_error_probs())
        })
    });
    group.finish();
}

fn bench_sampled(c: &mut Criterion) {
    let mut group = c.benchmark_group("rx_sampled");
    let cfg = ChannelConfig::paper_bench(2.5);
    let slots = frame_slots();

    group.bench_function("frame_alloc", |b| {
        let mut ch = OpticalChannel::new(cfg, DetRng::seed_from_u64(7));
        b.iter(|| {
            let det = black_box(&cfg).detector_with(1.0, false);
            let levels = ch.transmit(black_box(&slots));
            black_box(det.decide_all(&levels))
        })
    });

    group.bench_function("frame_scratch", |b| {
        let mut ch = OpticalChannel::new(cfg, DetRng::seed_from_u64(7));
        let mut scratch = RxScratch::new();
        b.iter(|| {
            ch.transmit_and_decide_into(black_box(&slots), &mut scratch);
            black_box(scratch.decided.as_slice());
        })
    });

    // Past the range cliff almost no slot can be decided from its noise
    // bounds: this times what the failed attempts cost.
    group.bench_function("frame_scratch_dead_link", |b| {
        let mut ch = OpticalChannel::new(ChannelConfig::paper_bench(4.5), DetRng::seed_from_u64(7));
        let mut scratch = RxScratch::new();
        b.iter(|| {
            ch.transmit_and_decide_into(black_box(&slots), &mut scratch);
            black_box(scratch.decided.as_slice());
        })
    });
    group.finish();
}

fn bench_decide(c: &mut Criterion) {
    let mut group = c.benchmark_group("rx_decide");
    let cfg = ChannelConfig::paper_bench(2.5);
    let slots = frame_slots();
    let mut ch = OpticalChannel::new(cfg, DetRng::seed_from_u64(7));
    let det = ch.analytic_detector();
    let levels = ch.transmit(&slots);

    group.bench_function("per_slot_threshold", |b| {
        b.iter(|| {
            let out: Vec<bool> = black_box(&levels).iter().map(|&v| det.decide(v)).collect();
            black_box(out.as_slice());
        })
    });

    group.bench_function("decide_into", |b| {
        let mut out = Vec::with_capacity(levels.len());
        b.iter(|| {
            det.decide_into(black_box(&levels), &mut out);
            black_box(out.as_slice());
        })
    });
    group.finish();
}

criterion_group!(benches, bench_analytic, bench_sampled, bench_decide);
criterion_main!(benches);
