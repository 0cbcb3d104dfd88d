//! Analog front end: transimpedance amplifier + ADC.
//!
//! The paper's receive chain is a TLC237 op-amp as TIA feeding a TI
//! ADS7883 (12-bit, up to 3 MS/s, sampled at 500 kHz = 4× the slot rate).
//! The model converts photocurrent to voltage, adds input-referred
//! thermal noise, AC-couples away the ambient DC, and quantizes:
//!
//! ```text
//! v = clamp(i_ac · G + n_thermal, 0, Vref) → code ∈ [0, 2^bits)
//! ```
//!
//! Quantization matters: once the received swing falls below a couple of
//! LSBs, decisions collapse — this is what produces the sharp throughput
//! cliff past 3.6 m in Fig. 16 rather than a gentle roll-off.

use desim::DetRng;
use serde::{Deserialize, Serialize};

/// TIA + ADC parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct AnalogFrontend {
    /// Transimpedance gain, V/A.
    pub tia_gain_v_per_a: f64,
    /// Input-referred thermal noise current, A RMS over the sampling
    /// bandwidth (op-amp + feedback resistor Johnson noise).
    pub thermal_noise_a_rms: f64,
    /// ADC resolution in bits.
    pub adc_bits: u8,
    /// ADC full-scale reference, volts.
    pub adc_vref_v: f64,
    /// Mid-scale bias applied after AC coupling, volts (keeps the signal
    /// inside the unipolar ADC range).
    pub bias_v: f64,
}

impl AnalogFrontend {
    /// The paper's TLC237 + ADS7883 chain. The gain puts the 3 m signal
    /// well inside the ADC range; the input-referred noise is the
    /// breadboard-level floor (op-amp + EMI + supply ripple) calibrated so
    /// that, together with ambient-light noise, the link reproduces the
    /// paper's measured P1 = 9e-5 / P2 = 8e-5 at 3.6 m under bright
    /// ambient (Sec. 6.1).
    pub fn paper_receiver() -> AnalogFrontend {
        AnalogFrontend {
            tia_gain_v_per_a: 2.2e5,
            thermal_noise_a_rms: 1.3e-7,
            adc_bits: 12,
            adc_vref_v: 3.3,
            bias_v: 0.5,
        }
    }

    /// Volts per ADC code.
    pub fn lsb_v(&self) -> f64 {
        self.adc_vref_v / (1u64 << self.adc_bits) as f64
    }

    /// Convert one AC-coupled photocurrent sample to an ADC code.
    ///
    /// `i_ac_a` is the photocurrent with the ambient/dark DC already
    /// removed (the receiver AC-couples); `rng` supplies thermal noise.
    pub fn sample(&self, i_ac_a: f64, rng: &mut DetRng) -> u16 {
        self.quantize(i_ac_a + rng.next_normal(0.0, self.thermal_noise_a_rms))
    }

    /// The ADC code of a noisy input current: TIA gain, bias, clamp to
    /// the reference, floor to a code. Monotone non-decreasing in
    /// `noisy_a` for a positive gain.
    pub fn quantize(&self, noisy_a: f64) -> u16 {
        let v = (noisy_a * self.tia_gain_v_per_a + self.bias_v).clamp(0.0, self.adc_vref_v);
        let max = ((1u64 << self.adc_bits) - 1) as f64;
        // `v / lsb` is non-negative, so the truncating cast is the floor
        // (`min` sends NaN to full scale).
        (v / self.lsb_v()).min(max) as u16
    }

    /// Convert an ADC code back to the equivalent input current (for
    /// threshold arithmetic in the detector).
    pub fn code_to_current(&self, code: u16) -> f64 {
        (code as f64 * self.lsb_v() - self.bias_v) / self.tia_gain_v_per_a
    }

    /// The input-referred current equivalent of one LSB — the quantization
    /// floor that sets the Fig. 16 distance cliff.
    pub fn lsb_current_a(&self) -> f64 {
        self.lsb_v() / self.tia_gain_v_per_a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> DetRng {
        DetRng::seed_from_u64(1234)
    }

    #[test]
    fn lsb_math() {
        let fe = AnalogFrontend::paper_receiver();
        assert!((fe.lsb_v() - 3.3 / 4096.0).abs() < 1e-12);
        assert!((fe.lsb_current_a() - fe.lsb_v() / 2.2e5).abs() < 1e-20);
    }

    #[test]
    fn sample_roundtrip_within_lsb() {
        let mut fe = AnalogFrontend::paper_receiver();
        fe.thermal_noise_a_rms = 0.0; // isolate quantization
        let mut r = rng();
        for i_in in [0.0, 1e-6, 3e-6, -5e-7] {
            let code = fe.sample(i_in, &mut r);
            let i_out = fe.code_to_current(code);
            assert!(
                (i_out - i_in).abs() <= fe.lsb_current_a(),
                "i_in={i_in} i_out={i_out}"
            );
        }
    }

    #[test]
    fn saturation_clamps() {
        let fe = AnalogFrontend::paper_receiver();
        let mut r = rng();
        let code = fe.sample(1.0, &mut r); // absurdly large current
        assert_eq!(code, 4095);
        let code = fe.sample(-1.0, &mut r);
        assert_eq!(code, 0);
    }

    #[test]
    fn noise_spreads_codes() {
        let fe = AnalogFrontend::paper_receiver();
        let mut r = rng();
        let codes: Vec<u16> = (0..1000).map(|_| fe.sample(2e-6, &mut r)).collect();
        let min = *codes.iter().min().unwrap();
        let max = *codes.iter().max().unwrap();
        assert!(max > min, "noise should dither codes");
        // 130 nA rms * 220 kV/A = ~28.6 mV = ~35 LSBs sigma.
        let spread = max - min;
        assert!((100..400).contains(&spread), "spread: {min}..{max}");
    }

    #[test]
    fn deterministic_given_seed() {
        let fe = AnalogFrontend::paper_receiver();
        let mut a = rng();
        let mut b = rng();
        for _ in 0..100 {
            assert_eq!(fe.sample(1e-6, &mut a), fe.sample(1e-6, &mut b));
        }
    }

    #[test]
    fn three_metre_signal_is_well_inside_range() {
        // Sanity-tie between optics and frontend calibration: the 3 m
        // boresight swing should span many LSBs (healthy link) but not
        // saturate.
        use crate::optics::LambertianLink;
        use crate::photodiode::Photodiode;
        let fe = AnalogFrontend::paper_receiver();
        let p_rx = LambertianLink::paper_bench(3.0).received_power_w(1.4);
        let swing = Photodiode::sfh206k().responsivity_a_per_w * p_rx;
        let lsbs = swing / fe.lsb_current_a();
        assert!(lsbs > 20.0 && lsbs < 2000.0, "swing = {lsbs} LSBs");
    }
}
