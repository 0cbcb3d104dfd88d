//! Property tests for the operating-point cache: the interned values must
//! be bit-identical to the direct computation for every reachable
//! configuration, and distinct inputs must never share an entry.

use proptest::prelude::*;
use vlc_channel::link::ChannelConfig;
use vlc_channel::opcache::OperatingPointCache;
use vlc_channel::optics::DiffuseReflection;

fn detector_bits(d: &vlc_channel::SlotDetector) -> (u64, u64, u64) {
    (
        d.mu_on_a.to_bits(),
        d.mu_off_a.to_bits(),
        d.sigma_a.to_bits(),
    )
}

proptest! {
    #[test]
    fn cached_detector_is_bit_identical(
        distance in 0.3f64..6.0,
        off_axis in -80.0f64..80.0,
        ambient in 0.0f64..25_000.0,
        ambient_rin in 1e-4f64..1e-2,
        spp in 2usize..9,
        extra_gain in 0.0f64..1.0,
        saturated in any::<bool>(),
        diffuse in any::<bool>(),
    ) {
        let mut cfg = ChannelConfig::paper_bench(distance);
        cfg.geometry.off_axis_deg = off_axis;
        cfg.ambient_lux = ambient;
        cfg.ambient_rin = ambient_rin;
        cfg.samples_per_slot = spp;
        if diffuse {
            cfg.geometry.diffuse = Some(DiffuseReflection::office());
        }

        let direct = cfg.detector_with(extra_gain, saturated);
        let direct_probs = direct.error_probs();

        let cache = OperatingPointCache::new();
        // First query computes and interns; repeats are served from the
        // map. Every answer must carry the exact bits of the direct form.
        for _ in 0..3 {
            let op = cache.query(&cfg, extra_gain, saturated);
            prop_assert_eq!(detector_bits(&op.detector), detector_bits(&direct));
            prop_assert_eq!(op.probs.p_off_error.to_bits(), direct_probs.p_off_error.to_bits());
            prop_assert_eq!(op.probs.p_on_error.to_bits(), direct_probs.p_on_error.to_bits());
        }
        prop_assert_eq!((cache.hits(), cache.misses()), (2, 1));
    }

    #[test]
    fn perturbed_inputs_never_share_an_entry(
        distance in 0.5f64..5.0,
        nudge_ulps in 1u64..1000,
    ) {
        // Exact-bit keying: even a few-ULP perturbation of one input is a
        // distinct operating point, never a stale shared entry.
        let cfg = ChannelConfig::paper_bench(distance);
        let mut nudged = cfg;
        nudged.ambient_lux = f64::from_bits(cfg.ambient_lux.to_bits() + nudge_ulps);
        let cache = OperatingPointCache::new();
        let a = cache.query(&cfg, 1.0, false);
        let b = cache.query(&nudged, 1.0, false);
        prop_assert_eq!(cache.misses(), 2);
        prop_assert_eq!(
            detector_bits(&a.detector),
            detector_bits(&cfg.detector_with(1.0, false))
        );
        prop_assert_eq!(
            detector_bits(&b.detector),
            detector_bits(&nudged.detector_with(1.0, false))
        );
    }
}
