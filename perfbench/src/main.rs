//! `perfbench`: wall-clock benchmark of the crossinvoc engines.
//!
//! ```text
//! perfbench --workload <spec-checker|domore-sched|compute|auto-pir>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one client thread, a closed loop with one region in flight;
//! set-up is timed in child processes between rounds (`--time-setup 1`).
//! After set-up and one warm-up round, rounds run until `--seconds` have
//! passed; each round times every case under each of its techniques, in an
//! order rotated from round to round, and checks every region against the
//! sequential oracle. A time metric sums each region's median time across
//! rounds (its fastest, for the barrier baseline; see [`region_times`]).
//! With `--trace 0` the last line of standard output is
//! a JSON object with the end-to-end metrics; with `--trace 1` rounds
//! alternate untraced and traced and the JSON carries the per-layer metrics
//! of the traced rounds plus `trace_overhead`. See README.md.

mod burn;
mod cases;
mod kernel;
mod pir;
mod probe;
mod replay;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use cases::{Case, Layers, Tech, WORKERS};
use stats::{median, tail, Tally};

const WORKLOADS: [&str; 4] = ["spec-checker", "domore-sched", "compute", "auto-pir"];

/// Set-ups timed before the warm-up round. One more is timed after every
/// round, so the samples span the run as the rounds do (the machine's
/// speed drifts over seconds); `setup_s` is the median of all of them.
const SETUP_REPS: usize = 3;

/// Rounds (untraced, and traced with `--trace 1`) run even past the
/// deadline.
const MIN_ROUNDS: usize = 3;

/// Per-layer metrics printed by a traced run: name, unit, and whether the
/// value repeats exactly from run to run for one seed.
const PER_LAYER: &[(&str, &str, bool)] = &[
    ("workloads.task_busy_ms", "ms", false),
    ("workloads.tasks_run", "count", true),
    ("workloads.useful_task_ratio", "ratio", true),
    ("speccross.check_requests", "count", true),
    ("speccross.comparisons_per_request", "ratio", false),
    ("speccross.epoch_skips", "count", false),
    ("speccross.replay_comparisons_per_admit", "ratio", true),
    ("speccross.replay_admit_ns", "ns", false),
    ("speccross.recorded_accesses", "count", true),
    ("speccross.record_ms", "ms", false),
    ("speccross.worker_idle_ms", "ms", false),
    ("speccross.stall_wait_ms", "ms", false),
    ("speccross.barrier_wait_ms", "ms", false),
    ("speccross.snapshot_ms", "ms", false),
    ("speccross.restore_ms", "ms", false),
    ("speccross.checkpoints", "count", true),
    ("speccross.misspeculations", "count", true),
    ("speccross.profile_ms", "ms", false),
    ("domore.compute_addr_calls", "count", true),
    ("domore.compute_addr_ms", "ms", false),
    ("domore.sync_conditions", "count", true),
    ("domore.stalls", "count", false),
    ("domore.stall_wait_ms", "ms", false),
    ("domore.memo_hit_ratio", "ratio", true),
    ("domore.worker_idle_ms", "ms", false),
    ("runtime.gang_passes", "count", true),
    ("runtime.gang_start_us", "us", false),
    ("barrier.barrier_wait_ms", "ms", false),
    ("barrier.worker_idle_ms", "ms", false),
    ("pir.manifest_profile_ms", "ms", false),
    ("pir.pdg_build_ms", "ms", false),
    ("pir.spec_plan_build_ms", "ms", false),
    ("pir.distance_profile_ms", "ms", false),
    ("pir.domore_plan_build_ms", "ms", false),
    ("core.driver.speccross", "count", true),
    ("core.driver.domore", "count", true),
    ("core.driver.barrier", "count", true),
    ("core.driver.sequential", "count", true),
    ("trace_overhead", "ratio", false),
    ("failed_ratio", "ratio", true),
];

#[derive(Debug)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Internal: build the set-up once, print its seconds and exit (see
    /// [`setup_in_child`]).
    time_setup: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let key = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" | "--time-setup" => flag.as_str(),
            other => return Err(format!("unknown flag {other}")),
        };
        flags.insert(key, value);
    }
    let get = |k: &str| flags.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let workload = get("--workload")?;
    let workload = WORKLOADS
        .into_iter()
        .find(|w| *w == workload)
        .ok_or_else(|| format!("unknown workload {workload}; one of {WORKLOADS:?}"))?;
    let num = |k: &str| -> Result<u64, String> { get(k)?.parse().map_err(|e| format!("{k}: {e}")) };
    let seconds = num("--seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be in 1..=600".to_string());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds,
        trace,
        time_setup: flags.get("--time-setup") == Some(&"1"),
    })
}

/// Times one build of `setup`. The value is leaked, not dropped: the
/// set-up child exits right after, and tearing down a `RegionServer` can
/// hang (see [`exit_now`]).
fn time_setup<T>(setup: impl FnOnce() -> T) -> f64 {
    let start = Instant::now();
    let value = setup();
    let secs = start.elapsed().as_secs_f64();
    std::mem::forget(value);
    secs
}

/// Flushes standard output and ends the process with `code` without
/// running destructors. `WorkerPool::drop` sets its shutdown flag and
/// notifies the pool's condition variable without holding the queue lock,
/// so a pool thread that has just seen the flag unset, and not yet started
/// waiting, misses the notification, and the drop joins it forever (seen in
/// one `compute` set-up child out of about forty). The benchmark times no
/// teardown, so it leaves teardown to the operating system.
fn exit_now(code: i32) -> ! {
    let _ = std::io::Write::flush(&mut std::io::stdout());
    std::process::exit(code)
}

/// Times one set-up in a fresh child process (this binary with
/// `--time-setup 1`). Each sample then pays what every run pays, a fresh
/// heap, and the timed build never shares this process's memory, so
/// `peak_rss_mb` stays the run's own. Waits for the child to exit.
fn setup_in_child(args: &Args) -> f64 {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let seed = args.seed.to_string();
    let out = std::process::Command::new(exe)
        .args(["--workload", args.workload, "--seed", &seed])
        .args(["--seconds", "1", "--trace", "0", "--time-setup", "1"])
        .output()
        .expect("spawn the set-up child");
    assert!(
        out.status.success(),
        "set-up child failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .expect("the set-up child prints its seconds")
}

/// One round's measurements.
#[derive(Debug, Default)]
struct Round {
    /// (case index, technique) → each timed region's milliseconds.
    times: BTreeMap<(usize, Tech), Vec<f64>>,
    /// Per-layer sums, per case (traced rounds only).
    layers: Vec<Layers>,
}

impl Round {
    fn all_layers(&self) -> Layers {
        let mut all = Layers::default();
        for l in &self.layers {
            all.merge(l.clone());
        }
        all
    }
}

/// Runs round `index`; each case's techniques run in their order rotated
/// left by `rotation`.
fn run_round(cases: &[&dyn Case], index: usize, rotation: usize, tally: &mut Tally) -> Round {
    let span = probe::on().then(|| probe::open("round", format!("round {index}")));
    let mut round = Round::default();
    for (ci, case) in cases.iter().enumerate() {
        let mut techs = case.techs();
        let n = techs.len();
        techs.rotate_left(rotation % n);
        let mut layers = Layers::default();
        for tech in techs {
            let out = case.run(tech);
            tally.add(out.regions, out.failed);
            round.times.insert((ci, tech), out.region_ms);
            layers.merge(out.layers);
        }
        round.layers.push(layers);
    }
    if let Some(span) = span {
        span.close();
    }
    round
}

/// Per-round sum over cases of `tech`'s time, restricted to `filter`.
fn per_round(rounds: &[Round], tech: Tech, filter: impl Fn(usize) -> bool) -> Vec<f64> {
    rounds
        .iter()
        .map(|r| {
            r.times
                .iter()
                .filter(|((ci, t), _)| *t == tech && filter(*ci))
                .flat_map(|(_, ms)| ms)
                .sum()
        })
        .collect()
}

/// The reported time of `tech`: the sum, over the regions of the cases
/// `filter` keeps, of each region's median time across `rounds` — or, for
/// the barrier baseline, of its fastest time. A host slowdown lasting a
/// fraction of a second then moves only the region samples it overlaps,
/// not a whole round. Barrier regions synchronize both workers every few
/// tens of microseconds, so their time follows how promptly the host runs
/// both vCPUs at once, and in busy periods most rounds are slowed; their
/// fastest round is the engine's own cost, and a baseline reported at its
/// best keeps any win over it conservative.
fn region_times(rounds: &[Round], tech: Tech, filter: impl Fn(usize) -> bool) -> f64 {
    let Some(first) = rounds.first() else {
        return 0.0;
    };
    let summary = |samples: Vec<f64>| match tech {
        Tech::Barrier => samples.into_iter().fold(f64::INFINITY, f64::min),
        _ => median(&samples),
    };
    first
        .times
        .iter()
        .filter(|((ci, t), _)| *t == tech && filter(*ci))
        .map(|(key, regions)| {
            (0..regions.len())
                .map(|j| summary(rounds.iter().map(|r| r.times[key][j]).collect()))
                .sum::<f64>()
        })
        .sum()
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn json_metrics(metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Prints `value` with the median, tail and count of its `samples`.
fn print_row(name: &str, unit: &str, value: f64, samples: &[f64]) {
    let (label, tail_value) = tail(samples);
    println!(
        "  {name:<34} {value:>12.4} {unit:<5} median={:.4} {label}={tail_value:.4} n={}",
        median(samples),
        samples.len()
    );
}

/// Per-layer values of one traced round, ratios formed within the round.
fn layer_values(l: &Layers) -> BTreeMap<&'static str, f64> {
    let ratio = |num: &str, den: &str| {
        let d = l.get(den);
        if d > 0.0 {
            l.get(num) / d
        } else {
            0.0
        }
    };
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    for &(name, _, _) in PER_LAYER {
        v.insert(name, l.get(name));
    }
    v.insert(
        "workloads.useful_task_ratio",
        ratio("workloads.model_tasks", "workloads.tasks_run"),
    );
    v.insert(
        "speccross.comparisons_per_request",
        ratio("speccross.comparisons", "speccross.check_requests"),
    );
    v.insert(
        "speccross.replay_comparisons_per_admit",
        ratio("speccross.replay_comparisons", "speccross.replay_admits"),
    );
    v.insert(
        "speccross.replay_admit_ns",
        ratio("speccross.replay_admit_ns_total", "speccross.replay_admits"),
    );
    v.insert(
        "domore.memo_hit_ratio",
        ratio("domore.memo_hits", "domore.invocations"),
    );
    v
}

/// Runs the workload, prints its report and returns whether every checked
/// run was correct.
fn run(args: &Args, cases: &[&dyn Case]) -> bool {
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={} workers={} burn_units_per_op={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        WORKERS,
        burn::UNITS_PER_OP
    );
    probe::set(false);
    let mut setup_times: Vec<f64> = (0..SETUP_REPS).map(|_| setup_in_child(args)).collect();
    let mut tally = Tally::default();
    // Warm-up: fills caches, profiles distances and spawns pools; its
    // regions are checked and counted, but not timed.
    run_round(cases, 0, 0, &mut tally);
    for case in cases {
        println!("case {}", case.describe());
    }
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut index = 1;
    while Instant::now() < deadline
        || plain.len() < MIN_ROUNDS
        || (args.trace && traced.len() < MIN_ROUNDS)
    {
        let trace_this = args.trace && index % 2 == 0;
        // A traced round uses the order of the untraced round before it, so
        // `trace_overhead` compares like with like.
        let rotation = if args.trace { (index - 1) / 2 } else { index };
        probe::set(trace_this);
        let round = run_round(cases, index, rotation, &mut tally);
        probe::set(false);
        setup_times.push(setup_in_child(args));
        if trace_this {
            traced.push(round);
        } else {
            plain.push(round);
        }
        index += 1;
    }

    let correct = tally.failed == 0;
    let mut out: Vec<(String, f64, &str)> = Vec::new();
    let barrier_cases: Vec<bool> = cases
        .iter()
        .map(|c| c.techs().contains(&Tech::Barrier))
        .collect();
    println!("end-to-end (untraced rounds): value; median, tail and count of the per-round totals");
    let mut values = BTreeMap::new();
    for tech in [Tech::Seq, Tech::Barrier, Tech::Par, Tech::Plan] {
        let value = region_times(&plain, tech, |_| true);
        print_row(
            tech.metric(),
            "ms",
            value,
            &per_round(&plain, tech, |_| true),
        );
        for (ci, case) in cases.iter().enumerate() {
            if case.techs().contains(&tech) {
                print_row(
                    &format!("{}.{}", tech.metric(), case.name()),
                    "ms",
                    region_times(&plain, tech, |c| c == ci),
                    &per_round(&plain, tech, |c| c == ci),
                );
            }
        }
        values.insert(tech, value);
        out.push((tech.metric().to_string(), value, "ms"));
    }
    let par = values[&Tech::Par];
    let par_on_barrier_cases = region_times(&plain, Tech::Par, |c| barrier_cases[c]);
    print_row("setup_s", "s", median(&setup_times), &setup_times);
    out.push(("setup_s".to_string(), median(&setup_times), "s"));
    println!(
        "  {:<34} {:>12.6} ratio ({} of {} checked runs)",
        "failed_ratio",
        tally.failed_ratio(),
        tally.failed,
        tally.attempted
    );
    let rss = peak_rss_mb();
    println!("  {:<34} {:>12.3} MB", "peak_rss_mb", rss);
    out.push(("peak_rss_mb".to_string(), rss, "MB"));
    println!(
        "derived (not gated): speedup_vs_seq={:.4} speedup_vs_barrier={:.4} (barrier kernels only)",
        values[&Tech::Seq] / par,
        values[&Tech::Barrier] / par_on_barrier_cases
    );

    if args.trace {
        out.clear();
        let all: Vec<Layers> = traced.iter().map(Round::all_layers).collect();
        let per_round_values: Vec<BTreeMap<&str, f64>> = all.iter().map(layer_values).collect();
        let per_case_values: Vec<Vec<BTreeMap<&str, f64>>> = (0..cases.len())
            .map(|ci| traced.iter().map(|r| layer_values(&r.layers[ci])).collect())
            .collect();
        let traced_par = region_times(&traced, Tech::Par, |_| true);
        let gang_start: Vec<f64> = all
            .iter()
            .flat_map(|l| l.gang_start_us.iter().copied())
            .collect();
        println!(
            "per-layer (traced rounds; median per round, n={}):",
            traced.len()
        );
        for &(name, unit, exact) in PER_LAYER {
            let per_case = |ci: usize| {
                median(
                    &per_case_values[ci]
                        .iter()
                        .map(|m| m[name])
                        .collect::<Vec<_>>(),
                )
            };
            let value = match name {
                "trace_overhead" => traced_par / par - 1.0,
                "failed_ratio" => tally.failed_ratio(),
                "runtime.gang_start_us" => median(&gang_start),
                _ => median(&per_round_values.iter().map(|v| v[name]).collect::<Vec<_>>()),
            };
            let note = if exact {
                "repeats exactly"
            } else {
                "timing-dependent"
            };
            println!("  {name:<40} {value:>14.4} {unit:<5} {note}");
            out.push((name.to_string(), value, unit));
            let summed = !matches!(
                name,
                "trace_overhead" | "failed_ratio" | "runtime.gang_start_us"
            );
            if summed && cases.len() > 1 && value != 0.0 {
                for (ci, case) in cases.iter().enumerate() {
                    println!(
                        "    {:<38} {:>14.4}",
                        format!(".{}", case.name()),
                        per_case(ci)
                    );
                }
            }
        }
        println!("span self times (all traced rounds):");
        for (name, (count, total, own)) in probe::self_times() {
            println!(
                "  {name:<18} count={count:<10} total_ms={:<12.3} self_ms={:.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        let path = std::path::PathBuf::from(format!(
            ".bench_build/perfbench-traces/{}-seed{}.jsonl",
            args.workload, args.seed
        ));
        match probe::write_jsonl(&path) {
            Ok(n) => println!("wrote {n} spans to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted,
        tally.failed,
        json_metrics(&out)
    );
    correct
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let auto_pir = args.workload == "auto-pir";
    if args.time_setup {
        let secs = if auto_pir {
            time_setup(|| pir::PirSetup::new(args.seed))
        } else {
            time_setup(|| cases::registry_cases(args.workload, args.seed))
        };
        println!("{secs}");
        exit_now(0);
    }
    let correct = if auto_pir {
        let setup = pir::PirSetup::new(args.seed);
        let doall = pir::PirCase::new(&setup, true);
        let other = pir::PirCase::new(&setup, false);
        run(&args, &[&doall, &other])
    } else {
        let kernels = cases::registry_cases(args.workload, args.seed);
        let refs: Vec<&dyn Case> = kernels.iter().map(|k| k as &dyn Case).collect();
        let correct = run(&args, &refs);
        // Not dropped: see `exit_now`.
        std::mem::forget(kernels);
        correct
    };
    exit_now(if correct { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_answer_fails_the_round() {
        let case = cases::KernelCase::small(cases::Par::SpecCross).with_wrong_oracle();
        let mut tally = Tally::default();
        run_round(&[&case], 1, 1, &mut tally);
        // Seq, barrier and par run two regions each, all failing; the plan
        // run is checked against the profile and passes.
        assert_eq!((tally.attempted, tally.failed), (7, 6));
        assert!(tally.failed_ratio() > 0.0);
    }

    #[test]
    fn region_times_sum_medians_and_barrier_minima() {
        let round = |a: f64, b: f64| {
            let mut r = Round::default();
            for tech in [Tech::Par, Tech::Barrier] {
                r.times.insert((0, tech), vec![a, b]);
            }
            r
        };
        let rounds = [round(1.0, 30.0), round(2.0, 10.0), round(9.0, 20.0)];
        assert_eq!(region_times(&rounds, Tech::Par, |_| true), 2.0 + 20.0);
        assert_eq!(region_times(&rounds, Tech::Barrier, |_| true), 1.0 + 10.0);
        assert_eq!(region_times(&rounds, Tech::Par, |_| false), 0.0);
    }

    #[test]
    fn per_layer_table_matches_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit, _) in PER_LAYER {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(
                spec.contains(&entry),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        for tech in [Tech::Seq, Tech::Barrier, Tech::Par, Tech::Plan] {
            assert!(spec.contains(&format!("\"name\": \"{}\"", tech.metric())));
        }
    }
}
