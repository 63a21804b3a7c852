//! `edn-simbench`: the in-process EDN simulator benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path simbench/Cargo.toml -- \
//!     --workload mimd_fig11 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics, `--trace 1` runs the
//! traced mode and prints the per-layer table. Either way the last line
//! of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. `--record-golden FIRST..LAST` prints the
//! golden-digest lines for those seeds instead.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use edn_simbench::check::{verify, Checker, OpChecks};
use edn_simbench::span::Recorder;
use edn_simbench::stats::{median, quantile, tail};
use edn_simbench::traced;
use edn_simbench::workload::{
    golden_checkpoints, prepare, recorded_checkpoints, setup, Kind, OpOutcome,
};
use edn_simbench::PREFIX_OPS;

/// Set-ups per end-to-end run, spread evenly over the timed phase.
const SETUP_REPS: usize = 21;

/// The quantile of the set-up times reported as `setup_s`, and of the
/// op times behind `requests_per_s`: the fast decile. This host's speed
/// for throughput-bound code switches every few seconds between two
/// states 1.3-1.5x apart, and a median (or mean) follows the mix of the
/// two in a run; the fast decile of samples spread over the whole run
/// follows the code.
const FAST_QUANTILE: f64 = 0.1;

const USAGE: &str = "usage: edn-simbench --workload NAME --seed N --seconds S --trace 0|1
       edn-simbench --record-golden FIRST..LAST
workloads: mc_maspar, mc_256k, ra_maspar_perm, mimd_fig11";

struct Args {
    workload: Option<Kind>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    golden: Option<(u64, u64)>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: None,
        seconds: None,
        trace: false,
        golden: None,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload =
                    Some(Kind::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => parsed.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {seconds} is outside (0, 600]"));
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--record-golden" => {
                let range = value()?;
                let (first, last) = range
                    .split_once("..")
                    .ok_or_else(|| format!("--record-golden takes FIRST..LAST, not {range}"))?;
                let first = first.parse().map_err(|e| format!("--record-golden: {e}"))?;
                let last = last.parse().map_err(|e| format!("--record-golden: {e}"))?;
                parsed.golden = Some((first, last));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// Where set-up writes fabric files and the traced run its spans.
fn scratch_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// The result line: the last line of standard output.
fn print_result(checker: &Checker, metrics: &[(&str, f64, &str)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checker.failed() == 0 && checker.attempted() > 0,
        checker.attempted(),
        checker.failed(),
        body.join(", ")
    );
}

/// Seed of the canary: a run whose own seed has no recorded digests
/// also runs the first ops at this seed, whose digests are recorded, so
/// a change in simulated output shows whatever `--seed` is.
const CANARY_SEED: u64 = 0;

/// For a seed without recorded digests: checks the run's first
/// [`PREFIX_OPS`] ops against a replay from a fresh set-up
/// (determinism), and the canary seed's first [`Kind::canary_ops`] ops
/// against its recorded digests (regression).
fn check_unrecorded_seed(kind: Kind, seed: u64, prefix: &[OpOutcome], checker: &mut Checker) {
    let expect = kind.expect();
    let scratch = scratch_dir();
    let mut replay = setup(kind, seed, &scratch, checker);
    for (index, outcome) in prefix.iter().enumerate() {
        let digest = replay.op(index as u64).digest();
        checker.record(verify(outcome, &expect, Some(digest)));
    }
    drop(replay);
    let Some(canary) = recorded_checkpoints(kind, CANARY_SEED) else {
        checker.require(Err(format!("golden.txt has no seed {CANARY_SEED}")));
        return;
    };
    prepare(kind, CANARY_SEED, &scratch, checker);
    let mut runner = setup(kind, CANARY_SEED, &scratch, checker);
    let mut checks = OpChecks::new(expect, canary);
    for index in 0..kind.canary_ops() {
        checker.record(checks.check(&runner.op(index)));
    }
}

fn end_to_end(kind: Kind, seed: u64, seconds: f64) {
    let scratch = scratch_dir();
    let mut checker = Checker::new();
    prepare(kind, seed, &scratch, &mut checker);
    let recorded = recorded_checkpoints(kind, seed);
    let mut checks = OpChecks::new(kind.expect(), recorded.clone().unwrap_or_default());

    // Set-up rep `k` runs once `k / SETUP_REPS` of the phase has passed;
    // the first one builds the runner the ops use.
    let phase = Instant::now();
    let mut runner = setup(kind, seed, &scratch, &mut checker);
    let mut setup_s = vec![phase.elapsed().as_secs_f64()];
    let mut prefix: Vec<OpOutcome> = Vec::with_capacity(PREFIX_OPS);
    let mut ops: Vec<(f64, u64)> = Vec::new();
    loop {
        let elapsed = phase.elapsed().as_secs_f64();
        if setup_s.len() < SETUP_REPS
            && elapsed >= seconds * setup_s.len() as f64 / SETUP_REPS as f64
        {
            let start = Instant::now();
            let rep = setup(kind, seed, &scratch, &mut checker);
            setup_s.push(start.elapsed().as_secs_f64());
            drop(rep);
            continue;
        }
        if elapsed >= seconds && ops.len() >= PREFIX_OPS && setup_s.len() == SETUP_REPS {
            break;
        }
        let start = Instant::now();
        let outcome = runner.op(ops.len() as u64);
        ops.push((start.elapsed().as_secs_f64(), outcome.offered));
        checker.record(checks.check(&outcome));
        if prefix.len() < PREFIX_OPS {
            prefix.push(outcome);
        }
    }
    drop(runner);
    let peak_rss = peak_rss_mb();

    let checked = match &recorded {
        Some(_) => format!("recorded digests through op {}", checks.compared_through()),
        None => {
            check_unrecorded_seed(kind, seed, &prefix, &mut checker);
            format!(
                "a replay of the first {PREFIX_OPS} ops, plus seed {CANARY_SEED}'s \
                 recorded digests through op {}",
                kind.canary_ops()
            )
        }
    };

    let mut op_ms: Vec<f64> = ops.iter().map(|&(s, _)| s * 1e3).collect();
    let op_tail = tail(&mut op_ms);
    let op_seconds: f64 = ops.iter().map(|&(s, _)| s).sum();
    let requests: u64 = ops.iter().map(|&(_, r)| r).sum();
    let mut rates: Vec<f64> = ops.iter().map(|&(s, r)| r as f64 / s).collect();
    let metrics = [
        ("setup_s", quantile(&mut setup_s, FAST_QUANTILE), "s"),
        (
            "requests_per_s",
            quantile(&mut rates, 1.0 - FAST_QUANTILE),
            "1/s",
        ),
        ("peak_rss_mb", peak_rss, "MiB"),
    ];

    println!(
        "simbench {} seed {seed}: {} ops, {requests} requests in {op_seconds:.3} s of op time",
        kind.name(),
        ops.len(),
    );
    // The whole-phase figures, printed beside the fast-decile ones.
    println!(
        "requests_per_s over the whole phase: {}",
        requests as f64 / op_seconds
    );
    println!("setup_s median of {SETUP_REPS}: {} s", median(&mut setup_s));
    // Printed, not bounded: a per-run median follows the host's mix of
    // fast and slow stretches (see spec.json).
    println!("op_ms_p50: {} ms", median(&mut op_ms));
    match op_tail {
        Some(t) => println!(
            "op_ms_tail: {} ms at p{:.2} of {} samples, {} beyond",
            t.value, t.percentile, t.samples, t.beyond
        ),
        None => println!(
            "op_ms_tail: {} ms, the max of {} samples (too few for a percentile)",
            op_ms.iter().copied().fold(0.0, f64::max),
            ops.len()
        ),
    }
    println!(
        "error_rate: {} ({} of {} ops failed){}",
        checker.error_rate(),
        checker.failed(),
        checker.attempted(),
        checker
            .first_failure()
            .map_or_else(String::new, |reason| format!("; first: {reason}"))
    );
    println!(
        "model_abs_err: {} (reference {}, first {PREFIX_OPS} ops)",
        kind.model_abs_err(&prefix),
        kind.reference()
    );
    println!(
        "rolling digest of {} ops: {:016x} (checked against {checked})",
        checks.count(),
        checks.rolling()
    );
    for (name, value, unit) in &metrics {
        println!("{name}: {value} {unit}");
    }
    print_result(&checker, &metrics);
}

fn traced_run(kind: Kind, seed: u64, seconds: f64) {
    let scratch = scratch_dir();
    let mut rec = Recorder::new();
    let mut checker = Checker::new();
    let table = traced::run(kind, seed, seconds, &scratch, &mut rec, &mut checker);
    table.print(kind);
    let path = scratch.join(format!("trace-{}-{seed}.tsv", kind.name()));
    match rec.write_tsv(&path) {
        Ok(()) => println!("{} spans written to {}", rec.spans().len(), path.display()),
        Err(e) => checker.require(Err(format!("writing {}: {e}", path.display()))),
    }
    println!(
        "error_rate: {} ({} of {} checks failed){}",
        checker.error_rate(),
        checker.failed(),
        checker.attempted(),
        checker
            .first_failure()
            .map_or_else(String::new, |reason| format!("; first: {reason}"))
    );
    let metrics: Vec<(&str, f64, &str)> = table
        .metrics
        .iter()
        .map(|m| (m.name, m.value, m.unit))
        .collect();
    print_result(&checker, &metrics);
}

fn record_golden(first: u64, last: u64) {
    let scratch = scratch_dir();
    println!(
        "# Rolling op digests per workload and seed, as count:digest at op counts 1..=8 \
         and powers of two (edn-simbench --record-golden {first}..{last})."
    );
    println!(
        "# A run at a listed seed checks every checkpoint it reaches; other seeds replay \
         their first ops and check seed {CANARY_SEED}'s."
    );
    for seed in first..=last {
        for kind in Kind::ALL {
            let mut checker = Checker::new();
            prepare(kind, seed, &scratch, &mut checker);
            let mut runner = setup(kind, seed, &scratch, &mut checker);
            let mut checks = OpChecks::new(kind.expect(), Vec::new());
            let mut prefix = Vec::with_capacity(PREFIX_OPS);
            let mut fields = Vec::new();
            let mut checkpoints = golden_checkpoints(kind).peekable();
            let mut index = 0;
            while let Some(&checkpoint) = checkpoints.peek() {
                let outcome = runner.op(index);
                checker.record(checks.check(&outcome));
                if prefix.len() < PREFIX_OPS {
                    prefix.push(outcome);
                }
                index += 1;
                if index == checkpoint {
                    fields.push(format!("{checkpoint}:{:016x}", checks.rolling()));
                    checkpoints.next();
                }
            }
            println!("{} {seed} {}", kind.name(), fields.join(" "));
            eprintln!(
                "{} seed {seed}: model_abs_err {} failures {}",
                kind.name(),
                kind.model_abs_err(&prefix),
                checker.failed()
            );
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("edn-simbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((first, last)) = args.golden {
        record_golden(first, last);
        return ExitCode::SUCCESS;
    }
    let (Some(kind), Some(seed), Some(seconds)) = (args.workload, args.seed, args.seconds) else {
        eprintln!("edn-simbench: --workload, --seed and --seconds are required\n{USAGE}");
        return ExitCode::from(2);
    };
    if args.trace {
        traced_run(kind, seed, seconds);
    } else {
        end_to_end(kind, seed, seconds);
    }
    ExitCode::SUCCESS
}
