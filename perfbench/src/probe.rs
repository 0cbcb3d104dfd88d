//! A `TrafficSource` wrapper that counts the link's source polls and, in
//! the traced run, times every hook call into the wrapped source
//! (`NetOverLink`, or the saturating `RandomTraffic`).

use crate::trace::now_ns;
use desim::{DetRng, SimTime};
use smartvlc_link::{TrafficSource, Transmitter};

/// What the wrapper saw over one run.
#[derive(Default)]
pub struct ProbeStats {
    timed: bool,
    keep_spans: bool,
    /// `next_data` calls.
    pub polls: u64,
    /// `next_data` calls that returned nothing to send.
    pub idle_polls: u64,
    /// `on_delivered` calls: payloads handed up for the first time.
    pub delivered: u64,
    /// LED dimming level the transmitter held at the first fresh frame.
    pub level: Option<f64>,
    /// Timed hook calls and their total time, ns (traced run only).
    pub hook_calls: u64,
    pub hook_ns: u64,
    /// Individual hook spans `(name, start_ns, end_ns)`, kept for the
    /// first traced lap only so the in-memory trace stays bounded.
    pub spans: Vec<(&'static str, u64, u64)>,
    /// A uniform sample of the fresh payloads (same lap as `spans`), which
    /// the per-frame replay sends again: emit and parse costs depend on
    /// the payload bytes, not just their count.
    pub payloads: Vec<Vec<u8>>,
    sampler: Option<DetRng>,
}

/// Payloads kept per task for the replay.
pub const PAYLOAD_SAMPLES: usize = 4;

impl ProbeStats {
    pub fn new(timed: bool, keep_spans: bool) -> ProbeStats {
        ProbeStats {
            timed,
            keep_spans,
            sampler: keep_spans.then(|| DetRng::seed_from_u64(PAYLOAD_SAMPLES as u64)),
            ..ProbeStats::default()
        }
    }

    /// Reservoir-sample one fresh payload.
    fn sample(&mut self, data: &[u8]) {
        let seen = self.polls - self.idle_polls;
        let Some(rng) = self.sampler.as_mut() else {
            return;
        };
        if self.payloads.len() < PAYLOAD_SAMPLES {
            self.payloads.push(data.to_vec());
        } else {
            let j = rng.next_below(seen) as usize;
            if j < PAYLOAD_SAMPLES {
                self.payloads[j] = data.to_vec();
            }
        }
    }

    fn timed<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.timed {
            return f();
        }
        let start = now_ns();
        let out = f();
        let end = now_ns();
        self.hook_calls += 1;
        self.hook_ns += end - start;
        if self.keep_spans {
            self.spans.push((name, start, end));
        }
        out
    }
}

pub struct Probe<'a> {
    inner: &'a mut dyn TrafficSource,
    stats: &'a mut ProbeStats,
}

impl<'a> Probe<'a> {
    pub fn new(inner: &'a mut dyn TrafficSource, stats: &'a mut ProbeStats) -> Probe<'a> {
        Probe { inner, stats }
    }
}

impl TrafficSource for Probe<'_> {
    fn next_data(&mut self, now: SimTime, tx: &mut Transmitter) -> Option<Vec<u8>> {
        let inner = &mut *self.inner;
        let out = self
            .stats
            .timed("source.next_data", || inner.next_data(now, tx));
        self.stats.polls += 1;
        match &out {
            None => self.stats.idle_polls += 1,
            Some(data) => {
                self.stats.level.get_or_insert(tx.led_level());
                self.stats.sample(data);
            }
        }
        out
    }

    fn on_delivered(&mut self, now: SimTime, body: &[u8]) {
        let inner = &mut *self.inner;
        self.stats
            .timed("source.on_delivered", || inner.on_delivered(now, body));
        self.stats.delivered += 1;
    }

    fn on_abandoned(&mut self, now: SimTime, body: &[u8]) {
        let inner = &mut *self.inner;
        self.stats
            .timed("source.on_abandoned", || inner.on_abandoned(now, body));
    }

    fn on_tick(&mut self, now: SimTime) {
        let inner = &mut *self.inner;
        self.stats.timed("source.on_tick", || inner.on_tick(now));
    }
}
