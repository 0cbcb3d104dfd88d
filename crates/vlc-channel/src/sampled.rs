//! The sampled receive chain behind [`OpticalChannel`]: per ADC sample,
//! photocurrent → shot + ambient-RIN noise → TIA thermal noise → ADC code
//! → input-referred current; per slot, the mean of the interior samples.
//!
//! One slot can be evaluated two ways from the same noise draws:
//!
//! * **exact** ([`SampleChain::slot_level`]): Box–Muller transforms each
//!   sample's two Gaussians (two `ln`, two `cos`) and runs them through
//!   the chain;
//! * **bounded** ([`SampleChain::bounded_decision`]): draws the same
//!   uniforms, bounds each Gaussian by [`DetRng::gaussian_bound`] and
//!   runs only the extreme noise values through the chain. Every step of
//!   the chain is monotone in the noise, so the exact level lies between
//!   the two extreme levels; when both sit on one side of the threshold
//!   the exact decision is known without transforming a single Gaussian.
//!
//! [`OpticalChannel`]: crate::link::OpticalChannel

use crate::frontend::AnalogFrontend;
use crate::link::ChannelConfig;
use crate::photodiode::Photodiode;
use desim::DetRng;

/// The per-frame constants of the sampled receive chain.
pub(crate) struct SampleChain {
    diode: Photodiode,
    frontend: AnalogFrontend,
    /// Optical-to-receiver gain: path gain × blockage × fault gain.
    gain: f64,
    /// Ambient + dark DC photocurrent, A.
    i_amb: f64,
    /// Variance of the ambient RIN current, A².
    rin_var: f64,
    /// Shot-noise bandwidth of one sample, Hz.
    half_bw: f64,
    /// ADC samples per slot.
    spp: usize,
    /// Interior samples per slot, the divisor of the slot mean.
    slot_norm: f64,
}

impl SampleChain {
    /// The chain of `cfg` at optical gain `gain` and DC photocurrent
    /// `i_amb` (both include the channel's blockage and fault state).
    pub(crate) fn new(cfg: &ChannelConfig, gain: f64, i_amb: f64) -> SampleChain {
        let i_amb_rin = cfg.ambient_rin * i_amb;
        SampleChain {
            diode: cfg.rx_diode,
            frontend: cfg.frontend,
            gain,
            i_amb,
            rin_var: i_amb_rin * i_amb_rin,
            half_bw: cfg.samples_per_slot as f64 / cfg.tslot_s / 2.0,
            spp: cfg.samples_per_slot,
            slot_norm: (cfg.samples_per_slot - 1) as f64,
        }
    }

    /// AC photocurrent of an optical sample, A; monotone in `p_opt`.
    fn signal(&self, p_opt: f64) -> f64 {
        self.diode.responsivity_a_per_w * p_opt * self.gain
    }

    /// σ of the shot + ambient-RIN noise at signal current `i_sig`;
    /// non-decreasing in `i_sig`.
    fn sigma(&self, i_sig: f64) -> f64 {
        let shot = self
            .diode
            .shot_noise_std_a(i_sig + self.i_amb, self.half_bw);
        (shot * shot + self.rin_var).sqrt()
    }

    /// The current the receiver reads back for a noisy input current:
    /// ADC code, then code to current. Non-decreasing in `noisy_a` for a
    /// positive TIA gain and LSB.
    fn readback(&self, noisy_a: f64) -> f64 {
        self.frontend
            .code_to_current(self.frontend.quantize(noisy_a))
    }

    /// The exact level of every slot of `optical` (the frame's optical
    /// samples, `spp` per slot), appended to `out`.
    pub(crate) fn levels_into(&self, optical: &[f64], rng: &mut DetRng, out: &mut Vec<f64>) {
        for slot in optical.chunks_exact(self.spp) {
            out.push(self.slot_level(slot, rng));
        }
    }

    /// The decision of every slot of `optical` against `thr`, appended to
    /// `out`: bit-identical to thresholding [`SampleChain::levels_into`],
    /// with the noise stream left at the same position.
    ///
    /// Each slot first tries [`SampleChain::bounded_decision`]; when that
    /// fails, the stream is rewound to the slot's start and the slot is
    /// evaluated exactly. A failed attempt costs about a fifth of an
    /// exact slot on top of it, so attempts pay only while enough
    /// succeed: past the first 16 slots of a frame, once under a quarter
    /// of them have, the rest of the frame (a link near its range cliff)
    /// goes straight to the exact chain. Debug builds re-evaluate every
    /// bound-decided slot exactly and assert both agree.
    pub(crate) fn decide_into(
        &self,
        optical: &[f64],
        thr: f64,
        rng: &mut DetRng,
        out: &mut Vec<bool>,
    ) {
        let sigma_max = self.noise_ceiling(optical);
        let (mut attempts, mut hits) = (0u32, 0u32);
        for slot in optical.chunks_exact(self.spp) {
            let decided = match sigma_max {
                Some(s) if attempts < 16 || hits * 4 >= attempts => {
                    attempts += 1;
                    let mark = rng.clone();
                    match self.bounded_decision(slot, thr, s, rng) {
                        Some(decision) => {
                            hits += 1;
                            #[cfg(debug_assertions)]
                            {
                                let mut exact = mark;
                                assert_eq!(
                                    self.slot_level(slot, &mut exact) > thr,
                                    decision,
                                    "bounded slot decision diverged from the exact chain"
                                );
                                assert_eq!(
                                    exact.next_u64(),
                                    rng.clone().next_u64(),
                                    "bounded slot decision left the noise stream elsewhere"
                                );
                            }
                            decision
                        }
                        None => {
                            *rng = mark;
                            self.slot_level(slot, rng) > thr
                        }
                    }
                }
                _ => self.slot_level(slot, rng) > thr,
            };
            out.push(decided);
        }
    }

    /// The exact level of one slot (`slot` holds its optical samples):
    /// the mean read-back current of every sample but the first, which
    /// straddles the LED transition. Each interior sample draws a
    /// shot + RIN Gaussian, then a thermal one.
    fn slot_level(&self, slot: &[f64], rng: &mut DetRng) -> f64 {
        let mut acc = 0.0;
        for &p_opt in &slot[1..] {
            let (u_shot, v_shot) = rng.gaussian_uniforms();
            let (u_th, v_th) = rng.gaussian_uniforms();
            let i_sig = self.signal(p_opt);
            let noise = DetRng::box_muller(u_shot, v_shot) * self.sigma(i_sig);
            // `thermal × g` is `next_normal(0.0, thermal)` up to the sign
            // of a zero, which no ADC code can tell apart.
            let thermal = self.frontend.thermal_noise_a_rms * DetRng::box_muller(u_th, v_th);
            acc += self.readback(i_sig + noise + thermal);
        }
        acc / self.slot_norm
    }

    /// The largest shot + RIN σ any sample of `optical` sees: the
    /// `sigma_max` of [`SampleChain::bounded_decision`] for this frame.
    ///
    /// `None` when the frame is outside what the bounded decision covers:
    /// a non-positive TIA gain or LSB (the readback would not be
    /// non-decreasing) or an infinite current in the chain. (A NaN sample
    /// reads full scale on the exact and the bounded path alike.)
    fn noise_ceiling(&self, optical: &[f64]) -> Option<f64> {
        let fe = &self.frontend;
        if !(fe.tia_gain_v_per_a > 0.0 && fe.lsb_v() > 0.0 && fe.thermal_noise_a_rms.is_finite()) {
            return None;
        }
        // Compare-and-select: a NaN sample never wins.
        let (p_lo, p_hi) = optical
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &p| {
                (if p < lo { p } else { lo }, if p > hi { p } else { hi })
            });
        let (i_lo, i_hi) = (self.signal(p_lo), self.signal(p_hi));
        // The signal is monotone in the optical power (in either
        // direction) and σ non-decreasing in the signal, so σ peaks at
        // one end of the frame's power range.
        let ceiling = self.sigma(i_lo).max(self.sigma(i_hi));
        (i_lo.is_finite() && i_hi.is_finite() && ceiling.is_finite()).then_some(ceiling)
    }

    /// Decide one slot against `thr` from bounds on its noise alone.
    ///
    /// Draws the slot's uniforms exactly as [`SampleChain::slot_level`]
    /// does but never transforms them. Each shot + RIN term is at most
    /// `gaussian_bound(u) × sigma_max` in magnitude and each thermal term
    /// at most `gaussian_bound(u) × |thermal|`; float addition,
    /// multiplication by a non-negative factor, the readback and the
    /// slot sum are all non-decreasing, so the exact level lies between
    /// the levels of the all-low and all-high extremes. Returns the
    /// decision both extremes agree on, or `None` if they straddle `thr`
    /// or a uniform is too small to bound; after `None` the stream
    /// position is unspecified and the caller rewinds it.
    fn bounded_decision(
        &self,
        slot: &[f64],
        thr: f64,
        sigma_max: f64,
        rng: &mut DetRng,
    ) -> Option<bool> {
        let thermal = self.frontend.thermal_noise_a_rms.abs();
        let (mut lo, mut hi) = (0.0, 0.0);
        for &p_opt in &slot[1..] {
            let (u_shot, _) = rng.gaussian_uniforms();
            let (u_th, _) = rng.gaussian_uniforms();
            let noise = DetRng::gaussian_bound(u_shot)? * sigma_max;
            let th = DetRng::gaussian_bound(u_th)? * thermal;
            let i_sig = self.signal(p_opt);
            lo += self.readback(i_sig - noise - th);
            hi += self.readback(i_sig + noise + th);
        }
        if lo / self.slot_norm > thr {
            Some(true)
        } else if hi / self.slot_norm > thr {
            None
        } else {
            Some(false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A paper-bench frame at `distance_m`: its chain, optical samples
    /// and decision threshold.
    fn frame(distance_m: f64) -> (SampleChain, Vec<f64>, f64) {
        let cfg = ChannelConfig::paper_bench(distance_m);
        let mut pick = DetRng::seed_from_u64(6);
        let slots: Vec<bool> = (0..1300).map(|_| pick.next_u64() & 1 == 1).collect();
        let optical = cfg
            .led
            .synthesize(&slots, cfg.tslot_s, cfg.samples_per_slot);
        let chain = SampleChain::new(&cfg, cfg.geometry.path_gain(), cfg.ambient_current());
        (chain, optical, cfg.analytic_detector().threshold())
    }

    /// Runs the bounded decision over every slot of a frame, checking
    /// each decided slot (and the stream position after it) against the
    /// exact chain; returns the fraction the bound decided.
    fn decided_fraction(distance_m: f64) -> f64 {
        let (chain, optical, thr) = frame(distance_m);
        let sigma_max = chain
            .noise_ceiling(&optical)
            .expect("paper bench is bounded");
        let mut rng = DetRng::seed_from_u64(9);
        let mut decided = 0;
        let slots = optical.chunks_exact(chain.spp);
        let n = slots.len();
        for slot in slots {
            let mut exact_rng = rng.clone();
            let exact = chain.slot_level(slot, &mut exact_rng) > thr;
            if let Some(d) = chain.bounded_decision(slot, thr, sigma_max, &mut rng) {
                assert_eq!(d, exact);
                assert_eq!(rng.next_u64(), exact_rng.clone().next_u64());
                decided += 1;
            }
            rng = exact_rng;
        }
        decided as f64 / n as f64
    }

    #[test]
    fn a_clean_link_is_decided_by_the_bound() {
        let f = decided_fraction(2.5);
        assert!(
            f >= 0.95,
            "only {f:.3} of a 2.5 m frame decided by the bound"
        );
    }

    #[test]
    fn a_dead_link_falls_back_to_the_exact_chain() {
        let f = decided_fraction(4.5);
        assert!(f < 0.5, "{f:.3} of a 4.5 m frame decided by the bound");
    }

    #[test]
    fn readback_is_monotone_across_the_adc_range() {
        // Steps of 0.37 LSB from below the bottom rail to above the top.
        let (chain, _, _) = frame(2.5);
        let lsb = chain.frontend.lsb_current_a();
        let mut prev = f64::NEG_INFINITY;
        for i in -12_000..12_000 {
            let x = chain.readback(i as f64 * 0.37 * lsb);
            assert!(x >= prev, "readback fell at step {i}");
            prev = x;
        }
    }

    #[test]
    fn unbounded_frames_are_left_to_the_exact_chain() {
        let (mut chain, optical, _) = frame(2.5);
        assert!(chain.noise_ceiling(&optical).is_some());
        assert_eq!(chain.noise_ceiling(&[1.0, f64::INFINITY]), None);
        chain.frontend.tia_gain_v_per_a = -2.2e5;
        assert_eq!(chain.noise_ceiling(&optical), None);
    }
}
