//! # vlc-channel — the simulated optical channel for SmartVLC
//!
//! The paper's evaluation runs over real hardware: a Philips 4.7 W LED
//! driven by a MOSFET, free space across an office, and an OSRAM SFH206K
//! photodiode behind a TLC237 amplifier and an ADS7883 ADC. None of that
//! hardware is available here, so this crate implements the standard
//! published models for each element, parameterized to reproduce the
//! paper's operating points:
//!
//! * [`led`] — first-order LED switching dynamics. The rise/fall time of
//!   the disassembled Philips LED is what limits the paper's slot clock to
//!   `tslot = 8 µs`; the model exhibits the same bandwidth bottleneck.
//! * [`optics`] — generalized Lambertian line-of-sight link (the standard
//!   Kahn/Barry model used throughout the VLC literature): inverse-square
//!   path loss, `cosᵐ` emitter beam shape, `cos` receiver projection, and
//!   a receiver field-of-view cutoff.
//! * [`photodiode`] — responsivity, photocurrent, shot noise; presets for
//!   the SFH206K (receiver) and OPT101 (ambient sensing).
//! * [`frontend`] — transimpedance amplifier and quantizing ADC with
//!   input-referred thermal noise.
//! * [`detector`] — slot decisions with a preamble-trained threshold, plus
//!   the analytic Gaussian-tail slot error probabilities that feed Eq. 3.
//! * [`ambient`] — time-varying ambient illuminance: the motorized window
//!   blind of Fig. 13, ceiling lights, and a cloudy-sky stochastic model.
//! * [`link`] — the composed end-to-end channel: slot waveform in,
//!   decided slots (or soft levels) out.
//!
//! Everything is deterministic given a seed ([`desim::DetRng`]), and all
//! physical constants carry their units in the field names.
//!
//! # Example
//!
//! The channel's operating point is a pure function of its configuration:
//! the analytic slot error probabilities (the paper's `P1`/`P2`) fall out
//! of the composed geometry + ambient + receiver chain without flying a
//! single slot:
//!
//! ```
//! use vlc_channel::link::ChannelConfig;
//!
//! // §6.1's measurement point: 3.6 m under bright ambient …
//! let probs = ChannelConfig::paper_bench(3.6).analytic_error_probs();
//! // … lands in the measured P1 ≈ 9e-5 decade.
//! assert!(probs.p_off_error > 1e-5 && probs.p_off_error < 1e-3);
//!
//! // Closer in, the same chain is essentially error-free.
//! let near = ChannelConfig::paper_bench(2.0).analytic_error_probs();
//! assert!(near.p_off_error < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ambient;
pub mod detector;
pub mod faults;
pub mod frontend;
pub mod led;
pub mod link;
pub mod opcache;
pub mod optics;
pub mod photodiode;
mod sampled;
pub mod shadowing;

pub use ambient::AmbientProfile;
pub use detector::{ChannelErrorProbs, SlotDetector};
pub use faults::{ChannelFaultState, FaultEvent, FaultKind, FaultPlan, UplinkFaultState};
pub use link::{ChannelConfig, OpticalChannel, RxScratch};
pub use opcache::{CachedOp, OperatingPointCache};
pub use optics::LambertianLink;
pub use shadowing::{ShadowingModel, ShadowingProcess};
