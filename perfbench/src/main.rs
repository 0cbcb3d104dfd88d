//! The repository benchmark: simulated-time throughput of the SmartVLC
//! stack on four workloads, with a traced per-layer run.
//!
//! ```text
//! perfbench --workload <paper_sweep|link_sampled|net_mix|cell_floor>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --smoke [--workload <name>] [--trace 0|1]
//! perfbench --write-reference --workload <name>
//! ```
//!
//! One process, one thread, closed loop: the next task starts when the
//! previous one returns. Every task's output fingerprint is checked
//! against the same task's warm-up run (and, for the default seed,
//! against `reference/<workload>.txt`) before any timing is reported.
//! End-to-end times are the thread's CPU time, taken per task at its
//! median over the run's complete laps. The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end metrics with `--trace 0`, per-layer
//! metrics with `--trace 1`). See README.md.

mod layers;
mod probe;
mod replay;
mod tasks;
mod trace;

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use tasks::{build_tasks, run_task, Outcome, Size, Task, Workload, WORKLOADS};

/// The seed the stored reference fingerprints belong to.
pub const DEFAULT_SEED: u64 = 17;
/// Set-up repetitions per untraced run, spread over its timed loop;
/// `setup_s` is their median.
const SETUPS: usize = 5;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    write_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        smoke: false,
        write_reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                }
            }
            "--smoke" => a.smoke = true,
            "--write-reference" => a.write_reference = true,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if a.workload.is_none() && (a.write_reference || !a.smoke) {
        return Err("--workload is required".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    trace::now_ns();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let size = if args.smoke { Size::Smoke } else { Size::Full };
    if args.write_reference {
        let w = args.workload.expect("checked in parse_args");
        return match write_reference(w, args.seed) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let list: Vec<Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.to_vec(),
    };
    let seconds = if args.smoke { 0.2 } else { args.seconds };
    let mut all_ok = true;
    for (i, w) in list.into_iter().enumerate() {
        // The main thread's CPU clock starts at 0 with the process.
        let cpu0 = if i == 0 { 0 } else { trace::cpu_ns() };
        let r = run_workload(w, args.seed, seconds, args.trace, size, cpu0);
        all_ok &= r.correct;
        println!("{}", r.to_json());
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl RunResult {
    fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Median of a non-empty sample (0 for an empty one).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Nearest-rank percentile.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn reference_path(w: Workload) -> PathBuf {
    bench_dir()
        .join("reference")
        .join(format!("{}.txt", w.name()))
}

/// Run a task, turning a panic into `None`.
fn guarded(task: &Task, traced: bool, keep_spans: bool) -> Option<Outcome> {
    catch_unwind(AssertUnwindSafe(|| run_task(task, traced, keep_spans))).ok()
}

/// The warm-up pass: one run of every task, whose fingerprints every
/// timed run must reproduce.
fn warm_up(tasks: &[Task]) -> Vec<Option<u64>> {
    tasks
        .iter()
        .map(|t| guarded(t, false, false).map(|o| o.fingerprint))
        .collect()
}

fn write_reference(w: Workload, seed: u64) -> Result<(), String> {
    if seed != DEFAULT_SEED {
        return Err(format!("the reference belongs to seed {DEFAULT_SEED}"));
    }
    let tasks = build_tasks(w, seed, Size::Full);
    let mut out = String::new();
    for (i, (t, fp)) in tasks.iter().zip(warm_up(&tasks)).enumerate() {
        let fp = fp.ok_or(format!("task {} panicked", t.label))?;
        let _ = writeln!(out, "{i} {fp:016x} {}", t.label);
    }
    let path = reference_path(w);
    std::fs::create_dir_all(path.parent().expect("reference dir")).map_err(|e| e.to_string())?;
    std::fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// Stored default-seed fingerprints; a missing or short file fails every
/// task it does not cover.
fn stored_reference(w: Workload, n: usize) -> Vec<Option<u64>> {
    let text = std::fs::read_to_string(reference_path(w)).unwrap_or_default();
    let mut out = vec![None; n];
    for line in text.lines() {
        let mut f = line.split_whitespace();
        if let (Some(i), Some(fp)) = (f.next(), f.next()) {
            if let (Ok(i), Ok(fp)) = (i.parse::<usize>(), u64::from_str_radix(fp, 16)) {
                if i < n {
                    out[i] = Some(fp);
                }
            }
        }
    }
    out
}

/// Set-up: build the task list and run one warm-up task, the lap's last.
/// Its cost barely depends on the seed: on net_mix it is the saturated
/// bulk_vs_keepalive mix, whose frames do not wait for the seed's
/// arrivals. Returns the tasks and the CPU seconds since the thread's CPU
/// clock read `cpu0` ns.
fn set_up(w: Workload, seed: u64, size: Size, cpu0: u64) -> (Vec<Task>, f64) {
    let tasks = build_tasks(w, seed, size);
    let _ = guarded(
        tasks.last().expect("every workload has tasks"),
        false,
        false,
    );
    (tasks, (trace::cpu_ns() - cpu0) as f64 * 1e-9)
}

/// Per-lap totals of the closed loop; one lap is one pass over every task.
#[derive(Default, Clone, Copy)]
struct Lap {
    cpu_ns: u64,
    wall_ns: u64,
    sim_s: f64,
    frames: u64,
    dgrams: u64,
    events: u64,
}

impl Lap {
    fn add(&mut self, t: &Task, o: &Outcome) {
        self.cpu_ns += o.cpu_ns;
        self.wall_ns += o.wall_ns;
        self.sim_s += t.sim_s();
        self.frames += o.frames;
        self.dgrams += o.dgrams;
        self.events += o.events;
    }

    /// `n` per CPU second of the lap's public calls.
    fn rate(&self, n: f64) -> f64 {
        n / (self.cpu_ns as f64 * 1e-9)
    }
}

fn run_workload(
    w: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    size: Size,
    cpu0: u64,
) -> RunResult {
    // The first set-up runs from `cpu0` (process start for the first
    // workload) and also pays the process's lazy tables (binomial table,
    // planner hull); the untraced loop repeats it between laps.
    let (tasks, first_setup) = set_up(w, seed, size, cpu0);
    let mut setup_s = vec![first_setup];
    let n = tasks.len();
    let mut expected = warm_up(&tasks);
    if seed == DEFAULT_SEED && size == Size::Full {
        for (i, (e, s)) in expected.iter_mut().zip(stored_reference(w, n)).enumerate() {
            if *e != s {
                eprintln!(
                    "perfbench: {} task {i} ({}) fingerprint {:?} differs from the stored reference {:?}",
                    w.name(),
                    tasks[i].label,
                    e.map(|v| format!("{v:016x}")),
                    s.map(|v| format!("{v:016x}"))
                );
                *e = None;
            }
        }
    }

    let mut attempted = 0u64;
    let mut failed = 0u64;
    // Each task's CPU times over the complete untraced laps, so every task
    // has the same number of samples; the current lap's wait in `lap_ms`.
    // `work[i]` is task i's work (one task's `Lap`), the same in every run
    // of it since its fingerprint is.
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut lap_ms: Vec<(usize, f64)> = Vec::new();
    let mut work: Vec<Option<Lap>> = vec![None; n];
    let mut laps: Vec<Lap> = Vec::new();
    let mut traced_laps: Vec<Vec<(usize, Outcome, Option<replay::FrameCost>)>> = Vec::new();
    let mut untraced_cpu: Vec<u64> = Vec::new();
    let mut traced_cpu: Vec<u64> = Vec::new();
    let mut cur = Lap::default();
    let mut cur_outcomes: Vec<(usize, Outcome, Option<replay::FrameCost>)> = Vec::new();
    let mut tracer = trace::Tracer::new(layers::SPAN_CAP);
    let start = Instant::now();
    // Set-up repetitions are spread over the timed loop, so their median
    // samples the same host conditions as the laps; their time is not
    // counted against `seconds`.
    let spacing = seconds / SETUPS as f64;
    let mut paused = 0.0;
    let mut k = 0usize;
    // The traced run alternates untraced and traced laps so both see the
    // same host conditions; the untraced run only measures.
    loop {
        let i = k % n;
        let lap_no = k / n;
        let tracing_lap = traced && lap_no % 2 == 1;
        let out = guarded(
            &tasks[i],
            tracing_lap,
            tracing_lap && traced_laps.is_empty(),
        );
        attempted += 1;
        match out {
            Some(o) if expected[i] == Some(o.fingerprint) => {
                lap_ms.push((i, o.cpu_ns as f64 * 1e-6));
                cur.add(&tasks[i], &o);
                work[i].get_or_insert_with(|| {
                    let mut one = Lap::default();
                    one.add(&tasks[i], &o);
                    one
                });
                if tracing_lap {
                    // Spans and the per-frame replay come from the first
                    // traced lap; later traced laps only time the overhead.
                    let cost = if traced_laps.is_empty() {
                        layers::trace_task(&mut tracer, i, &tasks[i], &o)
                    } else {
                        None
                    };
                    cur_outcomes.push((i, o, cost));
                }
            }
            Some(o) => {
                failed += 1;
                eprintln!(
                    "perfbench: {} task {i} ({}) fingerprint {:016x} != warm-up {:?}",
                    w.name(),
                    tasks[i].label,
                    o.fingerprint,
                    expected[i].map(|v| format!("{v:016x}"))
                );
            }
            None => failed += 1,
        }
        k += 1;
        let lap_done = k.is_multiple_of(n);
        if lap_done {
            if tracing_lap {
                traced_cpu.push(cur.cpu_ns);
                traced_laps.push(std::mem::take(&mut cur_outcomes));
                lap_ms.clear();
            } else {
                untraced_cpu.push(cur.cpu_ns);
                laps.push(cur);
                for (i, ms) in lap_ms.drain(..) {
                    samples[i].push(ms);
                }
            }
            cur = Lap::default();
            let timed = start.elapsed().as_secs_f64() - paused;
            if !traced && setup_s.len() < SETUPS && timed >= spacing * setup_s.len() as f64 {
                let t = Instant::now();
                let (_, s) = set_up(w, seed, size, trace::cpu_ns());
                setup_s.push(s);
                paused += t.elapsed().as_secs_f64();
            }
        }
        // The untraced run stops at the first task boundary past the
        // deadline; the traced run also needs one traced lap.
        let enough = !traced || (lap_done && !traced_laps.is_empty());
        if start.elapsed().as_secs_f64() - paused >= seconds && enough {
            break;
        }
    }
    let complete = laps.len();
    if laps.is_empty() {
        // Shorter than one lap (smoke runs): the partial lap is the sample.
        laps.push(cur);
        for (i, ms) in lap_ms.drain(..) {
            samples[i].push(ms);
        }
    }
    // The median lap: every sampled task's work, each at its median CPU
    // time over the run. A host that runs slow for part of a run moves
    // each task's median only as far as that task's own samples allow,
    // where a lap total takes the slowdown of every task it overlaps.
    let mut med = Lap::default();
    let mut task_ms = Vec::new();
    for (s, one) in samples.iter().zip(&work) {
        if let (false, Some(one)) = (s.is_empty(), one) {
            let ms = median(s);
            task_ms.push(ms);
            med.cpu_ns += (ms * 1e6) as u64;
            med.sim_s += one.sim_s;
            med.frames += one.frames;
            med.dgrams += one.dgrams;
            med.events += one.events;
        }
    }
    let correct = failed == 0;
    let lap_x: Vec<String> = laps
        .iter()
        .map(|l| format!("{:.1}", l.rate(l.sim_s)))
        .collect();
    // Wall time the thread spent off its CPU (preempted or stolen by the
    // host): what the CPU clock keeps out of every timing.
    let (cpu, wall) = laps
        .iter()
        .fold((0, 0), |(c, w), l| (c + l.cpu_ns, w + l.wall_ns));
    eprintln!(
        "perfbench: {} seed {seed}: {attempted} tasks ({n} per lap), {complete} untraced laps, \
         {} tasks timed, {} samples each, {failed} failed; set-up runs {setup_s:?}; x real time per lap: {}; \
         off-CPU share of lap wall time {:.3}",
        w.name(),
        task_ms.len(),
        samples.iter().map(Vec::len).max().unwrap_or(0),
        lap_x.join(" "),
        1.0 - cpu as f64 / wall.max(1) as f64
    );

    let metrics = if traced {
        let overhead = median(&traced_cpu.iter().map(|&v| v as f64).collect::<Vec<_>>())
            / median(&untraced_cpu.iter().map(|&v| v as f64).collect::<Vec<_>>())
            - 1.0;
        let lap = traced_laps.first().map(Vec::as_slice).unwrap_or(&[]);
        let metrics = layers::per_layer(
            w,
            seed,
            &tasks,
            lap,
            &mut tracer,
            overhead,
            failed as f64 / attempted as f64,
        );
        let out_dir = bench_dir().join("out");
        let path = out_dir.join(format!("{}-seed{seed}.trace.json", w.name()));
        if let Err(e) =
            std::fs::create_dir_all(&out_dir).and_then(|()| std::fs::write(&path, tracer.to_json()))
        {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
        metrics
    } else {
        vec![
            metric("setup_s", median(&setup_s), "s"),
            metric("sim_x_realtime", med.rate(med.sim_s), "x"),
            metric("frames_per_s", med.rate(med.frames as f64), "1/s"),
            metric("dgrams_per_s", med.rate(med.dgrams as f64), "1/s"),
            metric("events_per_s", med.rate(med.events as f64), "1/s"),
            metric("task_ms_p50", percentile(&task_ms, 0.5), "ms"),
            metric("task_ms_p90", percentile(&task_ms, 0.9), "ms"),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
        ]
    };
    RunResult {
        correct,
        attempted,
        failed,
        metrics,
    }
}
