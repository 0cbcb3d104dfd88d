//! Differential property test of the sampled decide path: the decisions
//! of `transmit_and_decide_into`, most of them taken from bounds on the
//! noise, must equal thresholding the exact levels of `transmit` slot for
//! slot, and must leave the noise stream where the exact path leaves it,
//! across the channel's operating envelope.

use desim::DetRng;
use proptest::prelude::*;
use vlc_channel::faults::ChannelFaultState;
use vlc_channel::led::LedModel;
use vlc_channel::link::{ChannelConfig, OpticalChannel, RxScratch};

const BLOCKAGE: [f64; 4] = [1.0, 0.3, 0.001, 0.0];
const FAULTS: [ChannelFaultState; 4] = [
    ChannelFaultState::CLEAR,
    ChannelFaultState {
        extra_ambient_lux: 25_000.0,
        gain: 1.0,
        saturated: false,
    },
    ChannelFaultState {
        extra_ambient_lux: 0.0,
        gain: 1.0,
        saturated: true,
    },
    ChannelFaultState {
        extra_ambient_lux: 3_000.0,
        gain: 0.05,
        saturated: false,
    },
];
const FRAME_LENGTHS: [usize; 4] = [0, 1, 37, 1306];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn decide_path_matches_the_exact_levels(
        distance in 0.3f64..6.0,
        ambient in 0.0f64..40_000.0,
        off_axis in 0.0f64..80.0,
        blockage in 0usize..4,
        fault in 0usize..4,
        ideal_led in any::<bool>(),
        spp in 2usize..=8,
        len in 0usize..4,
        on_share in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let mut cfg = ChannelConfig::paper_bench(distance);
        cfg.ambient_lux = ambient;
        cfg.geometry.off_axis_deg = off_axis;
        cfg.samples_per_slot = spp;
        if ideal_led {
            cfg.led = LedModel::ideal(cfg.led.on_power_w);
        }
        let mut pick = DetRng::seed_from_u64(seed ^ 0x5107);
        let slots: Vec<bool> = (0..FRAME_LENGTHS[len]).map(|_| pick.chance(on_share)).collect();

        let mut exact = OpticalChannel::new(cfg, DetRng::seed_from_u64(seed));
        let mut fast = OpticalChannel::new(cfg, DetRng::seed_from_u64(seed));
        for ch in [&mut exact, &mut fast] {
            ch.set_blockage_gain(BLOCKAGE[blockage]);
            ch.set_fault_state(FAULTS[fault]);
        }
        // Two frames through one scratch: the reuse path as well.
        let mut scratch = RxScratch::new();
        for _ in 0..2 {
            let want = exact.analytic_detector().decide_all(&exact.transmit(&slots));
            fast.transmit_and_decide_into(&slots, &mut scratch);
            prop_assert_eq!(&want, &scratch.decided);
            prop_assert!(scratch.levels.is_empty());
        }

        // Same stream position: with the faults cleared (a saturated
        // front end draws no noise) the next noisy levels agree bit for
        // bit, which two different stream positions would not.
        for ch in [&mut exact, &mut fast] {
            ch.clear_faults();
            ch.set_blockage_gain(1.0);
        }
        let probe = [true, false, true, true];
        let a: Vec<u64> = exact.transmit(&probe).iter().map(|l| l.to_bits()).collect();
        let b: Vec<u64> = fast.transmit(&probe).iter().map(|l| l.to_bits()).collect();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn decide_path_matches_at_the_range_cliff(
        distance in 3.3f64..4.3,
        ambient in 4_000.0f64..12_000.0,
        ideal_led in any::<bool>(),
        spp in 2usize..=8,
        seed in any::<u64>(),
    ) {
        // Where the slot error rate climbs through 1e-5..1e-2, bounds
        // still decide many slots and some of those sit a hair from the
        // threshold: the band where a loose bound would show.
        let mut cfg = ChannelConfig::paper_bench(distance);
        cfg.ambient_lux = ambient;
        cfg.samples_per_slot = spp;
        if ideal_led {
            cfg.led = LedModel::ideal(cfg.led.on_power_w);
        }
        let mut pick = DetRng::seed_from_u64(seed ^ 0xc1ff);
        let slots: Vec<bool> = (0..1306).map(|_| pick.chance(0.5)).collect();
        let mut exact = OpticalChannel::new(cfg, DetRng::seed_from_u64(seed));
        let mut fast = OpticalChannel::new(cfg, DetRng::seed_from_u64(seed));
        let mut scratch = RxScratch::new();
        for _ in 0..4 {
            let want = exact.analytic_detector().decide_all(&exact.transmit(&slots));
            fast.transmit_and_decide_into(&slots, &mut scratch);
            prop_assert_eq!(&want, &scratch.decided);
        }
    }
}
