//! In-memory spans for the traced run. Spans are recorded only around the
//! benchmark's own calls into the library, kept in memory, and written
//! out once when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// Host nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// CPU time of the calling thread since it started, ns: the time it ran,
/// without the time the scheduler or a shared host's hypervisor (steal
/// time) gave its CPU to someone else. Every end-to-end time is measured
/// on this clock.
#[cfg(target_os = "linux")]
pub fn cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: std::ffi::c_long,
        tv_nsec: std::ffi::c_long,
    }
    extern "C" {
        fn clock_gettime(clock: std::ffi::c_int, tp: *mut Timespec) -> std::ffi::c_int;
    }
    const CLOCK_THREAD_CPUTIME_ID: std::ffi::c_int = 3;
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable timespec for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    t.tv_sec as u64 * 1_000_000_000 + t.tv_nsec as u64
}

/// Elsewhere the thread's CPU clock is not read; wall time stands in.
#[cfg(not(target_os = "linux"))]
pub fn cpu_ns() -> u64 {
    now_ns()
}

/// One span: `task` groups the spans of one benchmark task (the trace's
/// request id); `parent` is the enclosing span's id, 0 for a root.
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub task: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Bounded span store plus unbounded per-name totals.
pub struct Tracer {
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
    totals: BTreeMap<&'static str, (u64, u64)>,
}

impl Tracer {
    pub fn new(cap: usize) -> Tracer {
        Tracer {
            spans: Vec::new(),
            cap,
            dropped: 0,
            totals: BTreeMap::new(),
        }
    }

    /// Record a finished span; returns its id (0 if only its totals were
    /// kept because the store is full).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        task: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let t = self.totals.entry(name).or_default();
        t.0 += 1;
        t.1 += end_ns - start_ns;
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            task,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Start a span whose children are recorded before it ends; returns
    /// its id and start for [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: u32, task: u32) -> (u32, u64) {
        let start = now_ns();
        (self.record(name, parent, task, start, start), start)
    }

    /// End the span `open` returned.
    pub fn close(&mut self, name: &'static str, (id, start): (u32, u64)) {
        let end = now_ns();
        self.totals.entry(name).or_default().1 += end - start;
        if id > 0 {
            self.spans[id as usize - 1].end_ns = end;
        }
    }

    /// The trace as JSON: per-name totals, then every stored span.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"totals\": {");
        for (i, (name, (n, ns))) in self.totals.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{name}\": {{\"calls\": {n}, \"ns\": {ns}}}");
        }
        let _ = write!(s, "}}, \"dropped\": {}, \"spans\": [", self.dropped);
        for (i, sp) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                s,
                "{sep}{{\"id\": {}, \"parent\": {}, \"task\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                sp.id, sp.parent, sp.task, sp.name, sp.start_ns, sp.end_ns
            );
        }
        s.push_str("\n]}\n");
        s
    }
}
