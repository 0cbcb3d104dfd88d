//! Cell suite: the multi-luminaire room under mobile load.
//!
//! Runs the grid-size × user-count battery from `smartvlc_sim::cell`
//! (2×2 / 3×3 / 4×4 ceiling grids, each serving 2 / 6 / 12 waypoint
//! users) on the event-driven core, prints the aggregate-goodput and
//! handover tables, and writes the curves as JSON to
//! `results/BENCH_cell.json` plus the telemetry export to
//! `results/TELEMETRY_cell.csv`.
//!
//! On top of the legacy battery, the **scale battery** (8×8×100 up to
//! 32×32×1000 — the grids the event queue's per-user FoV window exists
//! for) is run once per scenario, timed, and reported as the
//! wall-clock/events-per-second scaling curve: a deterministic
//! `"scaling"` section plus a nondeterministic `"scaling_wall"` line
//! that is spliced in only after the byte-equality gates (CI's
//! determinism diff filters it out; CI's perf gate asserts its 8×8
//! events/sec against a tracked floor).
//!
//! The **policy battery** compares the TDMA scheduling policies
//! (equal-share, proportional-fair, coordinated-edge) on the reference
//! 4×4 and 8×8 grids with the smartvlc-net workload mix replayed:
//! per-policy goodput, Jain fairness, cell-edge (p5) user rate and
//! per-flow completion times land in the `"policies"` section, and an
//! in-binary gate asserts the coordinated scheduler never leaves
//! cell-edge users worse off than equal share on the 4×4 grid.
//!
//! The suite runs every battery at one thread and again at eight under
//! `runner::with_threads`, and verifies all batteries' reports are
//! byte-identical — the runner's determinism contract, enforced on the
//! cell path every time this binary runs (CI diffs the same pair across
//! processes).

use smartvlc_bench::{f, full_run, results_dir};
use smartvlc_sim::cell::{
    cell_policy_json, cell_scale_json, cell_scale_scenarios, cell_suite_artifacts, run_cell,
    run_cell_policies, run_cell_scale, CellSuiteSummary, ScalePoint,
};
use smartvlc_sim::report::markdown_table;
use smartvlc_sim::{task_seed, with_threads};

const BASE_SEED: u64 = 0xce11_5eed;
const SCALE_SEED: u64 = 0x5ca1_ab1e;

fn run_at(threads: usize, replicates: usize) -> (String, String, Vec<CellSuiteSummary>) {
    with_threads(threads, || cell_suite_artifacts(replicates, BASE_SEED))
}

fn main() {
    let replicates = if full_run() { 5 } else { 2 };

    // Determinism gate first: the serial run both feeds the tables and
    // becomes the written artifact, so what we print is what we checked.
    let t0 = std::time::Instant::now();
    let (serial, serial_csv, summaries) = run_at(1, replicates);
    let serial_wall_s = t0.elapsed().as_secs_f64();
    let (parallel, parallel_csv, _) = run_at(8, replicates);
    assert_eq!(
        serial, parallel,
        "cell suite differs between 1 and 8 threads"
    );
    assert_eq!(
        serial_csv, parallel_csv,
        "cell telemetry CSV differs between 1 and 8 threads"
    );

    // Scale battery: each scenario run serially (timed — the wall-clock
    // curve is the point), reproducing the pool's per-scenario seeds so
    // the 8-thread pool leg below must match byte-for-byte.
    let scale_scenarios = cell_scale_scenarios();
    let mut points: Vec<ScalePoint> = Vec::new();
    let mut wall_ms: Vec<f64> = Vec::new();
    for (i, sc) in scale_scenarios.iter().enumerate() {
        let seed = task_seed(SCALE_SEED, i as u64);
        let t = std::time::Instant::now();
        let r = run_cell(&sc.config(), seed);
        wall_ms.push(t.elapsed().as_secs_f64() * 1e3);
        points.push(ScalePoint::from_report(sc, &r));
    }
    let scale_json = cell_scale_json(&points);
    let pooled = with_threads(8, || run_cell_scale(SCALE_SEED));
    assert_eq!(
        scale_json,
        cell_scale_json(&pooled),
        "scale battery differs between serial and 8 threads"
    );

    // Policy battery: every scheduling policy on the reference grids with
    // the net workload mix replayed — deterministic end to end, so the
    // 1-vs-8-thread byte gate covers it like the main battery. Policies
    // sharing a grid run the same seed, so the columns compare nothing
    // but the scheduler.
    let policies = with_threads(1, || run_cell_policies(BASE_SEED));
    let policy_json = cell_policy_json(&policies);
    let policies_par = with_threads(8, || run_cell_policies(BASE_SEED));
    assert_eq!(
        policy_json,
        cell_policy_json(&policies_par),
        "policy battery differs between 1 and 8 threads"
    );
    // Coordination gate: on the reference 4×4 grid the coordinated
    // scheduler must not leave cell-edge users worse off than equal
    // share (CI re-checks this from the written artifact).
    let p5 = |policy: &str| {
        policies
            .iter()
            .find(|p| p.nx == 4 && p.policy == policy)
            .map(|p| p.edge_p5_goodput_bps)
            .expect("4x4 policy point present")
    };
    assert!(
        p5("coordinated_edge") >= p5("equal_share"),
        "cell-edge p5 regressed under coordination: {} < {}",
        p5("coordinated_edge"),
        p5("equal_share")
    );

    // Wall-clock is legitimately nondeterministic, so it is spliced into
    // the artifact only AFTER the byte-equality gates above ran on the
    // pristine strings (CI's determinism diff filters these lines out).
    let slots: f64 = summaries.iter().map(|s| s.slots_equivalent).sum();
    let wall_ns_per_slot = serial_wall_s * 1e9 / slots.max(1.0);
    let hits: u64 = summaries.iter().map(|s| s.opcache_hits).sum();
    let misses: u64 = summaries.iter().map(|s| s.opcache_misses).sum();
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    let qhits: u64 = summaries.iter().map(|s| s.opcache_hits_quantized).sum();
    let qmisses: u64 = summaries.iter().map(|s| s.opcache_misses_quantized).sum();
    let qhit_rate = qhits as f64 / (qhits + qmisses).max(1) as f64;
    let scaling_wall: Vec<String> = points
        .iter()
        .zip(&wall_ms)
        .map(|(p, w)| {
            format!(
                "{{\"name\": \"{}\", \"wall_ms\": {w:.1}, \"events_per_sec\": {:.0}}}",
                p.name,
                p.events as f64 / (w / 1e3).max(1e-9)
            )
        })
        .collect();
    let serial = serial.replacen(
        "  \"suite\": \"cell\",\n",
        &format!(
            "  \"suite\": \"cell\",\n  \"wall_ns_per_slot\": {wall_ns_per_slot:.1},\n  \
             \"scaling_wall\": [{}],\n",
            scaling_wall.join(", ")
        ),
        1,
    );
    // The deterministic half of the scaling curve participated in the
    // byte gate above, so it can live as a regular section.
    let serial = serial.replacen(
        "  \"scenarios\": [",
        &format!("  \"scaling\": {scale_json},\n  \"scenarios\": ["),
        1,
    );
    // The policy comparison is deterministic end to end (gated above).
    let serial = serial.replacen(
        "  \"scenarios\": [",
        &format!("  \"policies\": {policy_json},\n  \"scenarios\": ["),
        1,
    );

    let mut rows = Vec::new();
    for s in &summaries {
        rows.push(vec![
            s.scenario.name.clone(),
            format!("{}x{}", s.scenario.cfg.nx, s.scenario.cfg.ny),
            s.scenario.cfg.n_users.to_string(),
            f(s.mean_aggregate_goodput_bps / 1000.0, 1),
            f(s.mean_per_user_goodput_bps / 1000.0, 1),
            s.handovers.to_string(),
            f(s.handover_rate_per_user_min, 2),
            s.mean_handover_latency_s
                .map_or("-".into(), |v| f(v * 1000.0, 0)),
            f(s.outage_fraction * 100.0, 2),
            f(s.interference_limited_fraction * 100.0, 1),
        ]);
    }
    println!("# Cell suite — multi-luminaire room under mobile load\n");
    println!(
        "{}",
        markdown_table(
            &[
                "scenario",
                "grid",
                "users",
                "aggregate kbit/s",
                "per-user kbit/s",
                "handovers",
                "HO/user/min",
                "HO latency ms",
                "outage %",
                "interf-limited %",
            ],
            &rows,
        )
    );
    println!("determinism: 1- and 8-thread reports are byte-identical");
    println!(
        "rx hot path: {hits} op-point cache hits / {misses} misses ({:.2}% hit rate raw, \
         {:.1}% with 50-lux sensor quantization), \
         {wall_ns_per_slot:.0} ns per slot-equivalent (serial wall-clock)",
        hit_rate * 100.0,
        qhit_rate * 100.0,
    );

    let mut scale_rows = Vec::new();
    for (p, w) in points.iter().zip(&wall_ms) {
        scale_rows.push(vec![
            p.name.clone(),
            format!("{}x{}", p.nx, p.ny),
            p.users.to_string(),
            p.events.to_string(),
            p.queue_peak.to_string(),
            f(*w, 0),
            f(p.events as f64 / (w / 1e3).max(1e-9) / 1000.0, 0),
            f(p.aggregate_goodput_bps / 1000.0, 0),
        ]);
    }
    println!("\n# Scaling — event-driven core, one simulated minute per point\n");
    println!(
        "{}",
        markdown_table(
            &[
                "scenario",
                "grid",
                "users",
                "events",
                "queue peak",
                "wall ms",
                "k events/s",
                "aggregate kbit/s",
            ],
            &scale_rows,
        )
    );

    let mut policy_rows = Vec::new();
    for p in &policies {
        let t = p.traffic.as_ref();
        policy_rows.push(vec![
            format!("{}x{}", p.nx, p.ny),
            p.users.to_string(),
            p.policy.to_string(),
            f(p.aggregate_goodput_bps / 1000.0, 1),
            f(p.jain_fairness, 3),
            f(p.edge_p5_goodput_bps / 1000.0, 1),
            format!("{}/{}", p.coord_grants, p.coord_blocked),
            t.map_or("-".into(), |t| {
                format!("{}/{}", t.flows_completed, t.flows_offered)
            }),
            t.and_then(|t| t.fct_p50_s).map_or("-".into(), |v| f(v, 2)),
            t.and_then(|t| t.fct_p95_s).map_or("-".into(), |v| f(v, 2)),
        ]);
    }
    println!("\n# Scheduling policies — net workload replay, same seed per grid\n");
    println!(
        "{}",
        markdown_table(
            &[
                "grid",
                "users",
                "policy",
                "aggregate kbit/s",
                "Jain",
                "edge p5 kbit/s",
                "coord ok/blocked",
                "flows done/offered",
                "FCT p50 s",
                "FCT p95 s",
            ],
            &policy_rows,
        )
    );
    println!("gate: coordinated_edge cell-edge p5 >= equal_share on the 4x4 grid");

    let path = results_dir().join("BENCH_cell.json");
    std::fs::write(&path, &serial).expect("write BENCH_cell.json");
    println!("wrote {}", path.display());
    let csv_path = results_dir().join("TELEMETRY_cell.csv");
    std::fs::write(&csv_path, &serial_csv).expect("write TELEMETRY_cell.csv");
    println!("wrote {}", csv_path.display());
}
