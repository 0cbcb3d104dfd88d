//! The event-driven cell core's correctness contract:
//!
//! 1. **Bit-equivalence with the lockstep oracle** — on the seed
//!    scenarios (2×2/3×3/4×4 grids) the retired lockstep loop and the
//!    scheduler-driven core must produce bit-identical reports. This is
//!    the gate ISSUE 9 requires before the lockstep path can go.
//! 2. **Thread determinism at scale** — the 8×8 × 100-user scenario,
//!    fanned out on the work pool at 1/2/8 threads, must
//!    produce byte-identical scaling-curve JSON and bit-identical
//!    per-user results.
//! 3. **Grant conservation** — proptest over random configurations
//!    (including aggressive handover policies that cancel and
//!    re-schedule grants constantly): every user-tick is exactly one of
//!    {grant, outage}, so a grant is never lost or duplicated.

#![allow(deprecated)] // the lockstep oracle is deprecated by design

use proptest::prelude::*;
use smartvlc_sim::cell::{
    run_cell, run_cell_lockstep, CellConfig, CellReport, CellTrafficSpec, SchedulerSpec,
};
use smartvlc_sim::scenario::CellScenarioBuilder;
use smartvlc_sim::{cell_scale_json, cell_scenarios, par_sweep, with_threads, ScalePoint, TaskId};

/// Everything in a report except the queue-only observables
/// (`events`/`queue_peak`, which the lockstep oracle reports as 0),
/// reduced to exact bits.
fn fingerprint(r: &CellReport) -> Vec<u64> {
    let mut v = vec![
        r.aggregate_goodput_bps.to_bits(),
        r.handovers,
        r.mean_handover_latency_s.map_or(0, f64::to_bits),
        r.outage_fraction.to_bits(),
        r.interference_limited_fraction.to_bits(),
        r.opcache_hits,
        r.opcache_misses,
        r.slots_equivalent.to_bits(),
    ];
    for u in &r.users {
        v.extend([
            u.delivered_bits.to_bits(),
            u.goodput_bps.to_bits(),
            u.handovers,
            u.outage_ticks,
            u.grant_ticks,
        ]);
    }
    for c in &r.cells {
        v.extend([
            c.delivered_bits.to_bits(),
            c.mean_led.to_bits(),
            c.mean_users.to_bits(),
            c.smart_steps,
        ]);
    }
    v
}

#[test]
fn event_core_reproduces_lockstep_on_the_seed_scenarios() {
    // Every scenario of the legacy battery, at a replicate-style seed:
    // the event queue must not perturb a single bit anywhere in the
    // report — per-user f64 accumulations included, which makes this a
    // test of same-instant event *ordering*, not just of totals.
    for (i, sc) in cell_scenarios().iter().enumerate() {
        let cfg = sc.config();
        let seed = 0xce11_0000 + i as u64;
        let lock = run_cell_lockstep(&cfg, seed);
        let ev = run_cell(&cfg, seed);
        assert_eq!(
            fingerprint(&lock),
            fingerprint(&ev),
            "event core diverges from lockstep on {}",
            sc.name
        );
        assert_eq!(lock.events, 0, "oracle must not touch the queue");
        assert!(ev.events > 0 && ev.queue_peak > 0, "event core must");
    }
}

#[test]
fn event_core_reproduces_lockstep_with_quantized_sensing() {
    // The op-cache bugfix knob runs through both cores' sensing paths.
    let cfg = CellScenarioBuilder::new()
        .grid(3, 3)
        .users(6)
        .sensor_resolution_lux(smartvlc_sim::cell::QUANTIZED_SENSOR_RES_LUX)
        .build()
        .expect("valid")
        .config();
    let lock = run_cell_lockstep(&cfg, 77);
    let ev = run_cell(&cfg, 77);
    assert_eq!(fingerprint(&lock), fingerprint(&ev));
    assert!(
        ev.opcache_hits > 0,
        "quantized sensing must earn cache hits: {ev:?}"
    );
}

#[test]
fn traffic_observer_does_not_perturb_equal_share() {
    // The NetMix traffic bridge is a pure observer of delivered bits:
    // switching it on under the default equal-share policy must not move
    // a single bit of the report the lockstep oracle reproduces (the
    // oracle ignores the traffic knob entirely, so equal fingerprints
    // prove the observer never feeds back into delivery math).
    let cfg = CellScenarioBuilder::new()
        .grid(3, 3)
        .users(6)
        .scheduler(SchedulerSpec::EqualShare)
        .traffic(CellTrafficSpec::NetMix)
        .build()
        .expect("valid")
        .config();
    let lock = run_cell_lockstep(&cfg, 4242);
    let ev = run_cell(&cfg, 4242);
    assert_eq!(
        fingerprint(&lock),
        fingerprint(&ev),
        "traffic observer perturbed the equal-share delivery path"
    );
    let t = ev.traffic.expect("NetMix must attach a traffic report");
    assert!(t.flows_offered > 0, "the workload mix must offer flows");
}

#[test]
fn scale_scenario_is_byte_identical_across_thread_counts() {
    // The 8×8 × 100-user scenario through the deterministic work pool at
    // 1, 2 and 8 threads: the scaling-curve JSON (the bytes the bench bin
    // splices into BENCH_cell.json) and the underlying user results must
    // not move by a bit.
    let scenario = CellScenarioBuilder::new()
        .grid(8, 8)
        .users(100)
        .name("scale_8x8_users100")
        .build()
        .expect("valid");
    let run = |threads: usize| {
        with_threads(threads, || {
            let reports = par_sweep(
                std::slice::from_ref(&scenario),
                1,
                2026,
                |sc: &smartvlc_sim::CellScenario, id: TaskId| run_cell(&sc.config(), id.seed),
            );
            let r = &reports[0][0];
            let json = cell_scale_json(&[ScalePoint::from_report(&scenario, r)]);
            (json, fingerprint(r), r.events, r.queue_peak)
        })
    };
    let t1 = run(1);
    let t2 = run(2);
    let t8 = run(8);
    assert_eq!(t1.0, t2.0, "scale JSON differs between 1 and 2 threads");
    assert_eq!(t1.0, t8.0, "scale JSON differs between 1 and 8 threads");
    assert_eq!(t1.1, t2.1);
    assert_eq!(t1.1, t8.1);
    assert!(t1.2 > 0 && t1.3 > 0, "the event queue must have run");
}

/// A handover-heavy configuration: tiny dwell so grants get cancelled
/// and re-scheduled constantly, variable association delay (including 0,
/// the leave-the-grant-alone path).
fn chaotic_cfg(
    nx: usize,
    ny: usize,
    n_users: usize,
    ticks: u32,
    dwell: u32,
    delay: u32,
) -> CellConfig {
    let mut cfg = CellConfig::standard(nx, ny, n_users);
    cfg.ticks = ticks;
    cfg.policy.dwell_ticks = dwell;
    cfg.policy.assoc_delay_ticks = delay;
    cfg.policy.hysteresis_db = 0.5; // hair trigger: maximal rescheduling
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Grant conservation under event cancellation/re-scheduling: for
    /// every user, `grant_ticks + outage_ticks == ticks` — a cancelled
    /// grant is always replaced by outage accounting, and a re-scheduled
    /// grant never double-fires. Checked against the lockstep oracle's
    /// counts too, so the bulk outage-interval arithmetic must agree
    /// with per-tick counting under overlapping handovers.
    #[test]
    fn handover_never_loses_or_duplicates_a_grant(
        nx in 1usize..=3,
        ny in 1usize..=3,
        n_users in 1usize..=5,
        ticks in 10u32..=90,
        dwell in 1u32..=3,
        delay in 0u32..=6,
        seed in 0u64..1_000_000,
    ) {
        let cfg = chaotic_cfg(nx, ny, n_users, ticks, dwell, delay);
        let ev = run_cell(&cfg, seed);
        for u in &ev.users {
            prop_assert_eq!(
                u.grant_ticks + u.outage_ticks,
                ticks as u64,
                "user {} lost/duplicated a grant: {} grants + {} outage != {} ticks \
                 (dwell={}, delay={})",
                u.id, u.grant_ticks, u.outage_ticks, ticks, dwell, delay
            );
        }
        let lock = run_cell_lockstep(&cfg, seed);
        prop_assert_eq!(fingerprint(&lock), fingerprint(&ev));

        // The invariant is policy-independent: proportional-fair and the
        // coordinated scheduler drive the exact same grant machinery, so
        // the identity must survive them too (no lockstep comparison —
        // the oracle only models equal share). The traffic observer
        // rides along to prove it survives chaos as well.
        for policy in [
            SchedulerSpec::proportional_fair(),
            SchedulerSpec::coordinated_edge(),
        ] {
            let mut pcfg = cfg;
            pcfg.scheduler = policy;
            pcfg.traffic = CellTrafficSpec::NetMix;
            let pr = run_cell(&pcfg, seed);
            for u in &pr.users {
                prop_assert_eq!(
                    u.grant_ticks + u.outage_ticks,
                    ticks as u64,
                    "user {} lost/duplicated a grant under {}: {} grants + {} outage != {}",
                    u.id, policy.name(), u.grant_ticks, u.outage_ticks, ticks
                );
            }
        }
    }
}
