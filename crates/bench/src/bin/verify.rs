//! Command-line front end for the `ehs-verify` correctness tooling.
//!
//! Usage:
//!
//! ```text
//! verify matrix [--seed SEED] [--samples N] [--no-invariants]
//! verify slices [--seed SEED] [--samples N] [--slices K] [--workloads a,b,...]
//! verify fuzz   --seed SEED --iters N [--fault REG] [--max-cycles N]
//! verify shrink --input CASE.json [--output FILE] [--fault REG] [--budget N]
//! ```
//!
//! `matrix` sweeps the full 20-workload × 7-configuration × 4-trace-kind
//! differential grid; `slices` sweeps the pause/resume oracle (an
//! uninterrupted run vs one paused at K fixed cycles vs one rebuilt from
//! a JSON snapshot at each pause) over a workload × 7-configuration
//! grid; `fuzz` runs the adversarial outage fuzzer and prints (shrunk)
//! reproducers for any divergence; `shrink` minimizes a committed corpus
//! case, re-running every candidate from cycle 0 with invariant checking
//! on. Seeds may be decimal, hex, or arbitrary tags (`--seed 0xEHS`
//! works). Exit status is 0 when everything matched, 1 on any
//! divergence, 2 on a usage error.

use std::process::ExitCode;

use ehs_sim::FaultPlan;
use ehs_verify::{
    fuzz::{run_fuzz, FuzzOptions},
    oracle::run_matrix,
    parse_seed, shrink_trace, CorpusCase,
};

const USAGE: &str = "usage: verify <matrix|fuzz|shrink|slices> [options]
  matrix [--seed SEED] [--samples N] [--no-invariants]
  slices [--seed SEED] [--samples N] [--slices K] [--workloads a,b,...]
  fuzz   --seed SEED --iters N [--fault REG] [--max-cycles N]
  shrink --input CASE.json [--output FILE] [--fault REG] [--budget N]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "matrix" => cmd_matrix(rest),
        "slices" => cmd_slices(rest),
        "fuzz" => cmd_fuzz(rest),
        "shrink" => cmd_shrink(rest),
        _ => {
            eprintln!("verify: unknown subcommand `{cmd}`\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Pulls the value following a `--flag`, or exits with a usage error.
fn flag_value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> Result<&'a str, ExitCode> {
    *i += 1;
    match args.get(*i) {
        Some(v) => Ok(v.as_str()),
        None => {
            eprintln!("verify: {flag} needs a value\n{USAGE}");
            Err(ExitCode::from(2))
        }
    }
}

fn parse_fault(reg: &str) -> Result<FaultPlan, ExitCode> {
    match reg.parse::<ehs_isa::Reg>() {
        Ok(ehs_isa::Reg::Zero) => {
            eprintln!("verify: --fault zero is a no-op (writes to r0 are discarded)");
            Err(ExitCode::from(2))
        }
        Ok(r) => Ok(FaultPlan {
            skip_restore_reg: Some(r),
        }),
        Err(e) => {
            eprintln!("verify: --fault: {e}");
            Err(ExitCode::from(2))
        }
    }
}

fn cmd_matrix(args: &[String]) -> ExitCode {
    let mut seed = parse_seed("0xEHS");
    let mut samples = 50_000usize;
    let mut invariants = true;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => match flag_value(args, &mut i, "--seed") {
                Ok(v) => seed = parse_seed(v),
                Err(c) => return c,
            },
            "--samples" => match flag_value(args, &mut i, "--samples") {
                Ok(v) => match v.parse() {
                    Ok(n) => samples = n,
                    Err(e) => {
                        eprintln!("verify: --samples: {e}");
                        return ExitCode::from(2);
                    }
                },
                Err(c) => return c,
            },
            "--no-invariants" => invariants = false,
            other => {
                eprintln!("verify: unknown option `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }

    println!(
        "differential matrix: 20 workloads x 7 configs x 4 trace kinds \
         (seed {seed:#x}, {samples} samples, invariants {})",
        if invariants { "on" } else { "off" }
    );
    let t0 = std::time::Instant::now();
    let report = run_matrix(seed, samples, invariants);
    let failures = report.failures();
    println!(
        "{} cells checked in {:.1}s: {} matched, {} failed",
        report.entries.len(),
        t0.elapsed().as_secs_f64(),
        report.entries.len() - failures.len(),
        failures.len()
    );
    for f in &failures {
        println!(
            "  FAIL {} / {} / {}: {:?}",
            f.workload,
            f.config.name(),
            f.kind.name(),
            f.outcome
        );
    }
    if failures.is_empty() {
        println!("matrix OK");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_slices(args: &[String]) -> ExitCode {
    let mut seed = parse_seed("0xEHS");
    let mut samples = 50_000usize;
    let mut slices = 4usize;
    let mut workloads: Vec<&'static ehs_workloads::Workload> =
        ehs_workloads::SUITE.iter().collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => match flag_value(args, &mut i, "--seed") {
                Ok(v) => seed = parse_seed(v),
                Err(c) => return c,
            },
            "--samples" => match flag_value(args, &mut i, "--samples") {
                Ok(v) => match v.parse() {
                    Ok(n) => samples = n,
                    Err(e) => {
                        eprintln!("verify: --samples: {e}");
                        return ExitCode::from(2);
                    }
                },
                Err(c) => return c,
            },
            "--slices" => match flag_value(args, &mut i, "--slices") {
                Ok(v) => match v.parse::<usize>() {
                    Ok(n) if n >= 1 => slices = n,
                    Ok(_) | Err(_) => {
                        eprintln!("verify: --slices needs a positive slice count");
                        return ExitCode::from(2);
                    }
                },
                Err(c) => return c,
            },
            "--workloads" => match flag_value(args, &mut i, "--workloads") {
                Ok(v) => {
                    let mut picked = Vec::new();
                    for name in v.split(',').filter(|n| !n.is_empty()) {
                        match ehs_workloads::by_name(name) {
                            Some(w) => picked.push(w),
                            None => {
                                eprintln!("verify: unknown workload `{name}`");
                                return ExitCode::from(2);
                            }
                        }
                    }
                    if picked.is_empty() {
                        eprintln!("verify: --workloads selected nothing");
                        return ExitCode::from(2);
                    }
                    workloads = picked;
                }
                Err(c) => return c,
            },
            other => {
                eprintln!("verify: unknown option `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }

    println!(
        "pause/resume matrix: {} workloads x 7 configs, {slices} slices chained \
         through JSON snapshots (seed {seed:#x}, {samples} samples)",
        workloads.len()
    );
    let t0 = std::time::Instant::now();
    let report = ehs_verify::run_slice_matrix(&workloads, seed, samples, slices);
    let failures = report.failures();
    println!(
        "{} cells checked in {:.1}s: {} matched, {} failed",
        report.entries.len(),
        t0.elapsed().as_secs_f64(),
        report.entries.len() - failures.len(),
        failures.len()
    );
    for f in &failures {
        let why = f.outcome.as_ref().err().map(String::as_str).unwrap_or("");
        println!("  FAIL {} / {}: {why}", f.workload, f.config.name());
    }
    if failures.is_empty() {
        println!("slices OK");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_fuzz(args: &[String]) -> ExitCode {
    let mut seed = parse_seed("0xEHS");
    let mut iters = 200u64;
    let mut fault = None;
    let mut max_cycles = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => match flag_value(args, &mut i, "--seed") {
                Ok(v) => seed = parse_seed(v),
                Err(c) => return c,
            },
            "--iters" => match flag_value(args, &mut i, "--iters") {
                Ok(v) => match v.parse() {
                    Ok(n) => iters = n,
                    Err(e) => {
                        eprintln!("verify: --iters: {e}");
                        return ExitCode::from(2);
                    }
                },
                Err(c) => return c,
            },
            "--fault" => match flag_value(args, &mut i, "--fault") {
                Ok(v) => match parse_fault(v) {
                    Ok(f) => fault = Some(f),
                    Err(c) => return c,
                },
                Err(c) => return c,
            },
            "--max-cycles" => match flag_value(args, &mut i, "--max-cycles") {
                Ok(v) => match v.parse() {
                    Ok(n) => max_cycles = Some(n),
                    Err(e) => {
                        eprintln!("verify: --max-cycles: {e}");
                        return ExitCode::from(2);
                    }
                },
                Err(c) => return c,
            },
            other => {
                eprintln!("verify: unknown option `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }

    let mut opts = FuzzOptions::new(seed, iters);
    opts.fault = fault;
    if let Some(mc) = max_cycles {
        opts.max_cycles = mc;
    }
    println!(
        "adversarial fuzz: {iters} iterations, seed {seed:#x}{}",
        match fault {
            Some(f) => format!(", injected fault {f:?}"),
            None => String::new(),
        }
    );
    let t0 = std::time::Instant::now();
    let report = run_fuzz(&opts);
    println!(
        "{} iterations in {:.1}s: {} matched, {} inconclusive, {} diverged",
        report.iters,
        t0.elapsed().as_secs_f64(),
        report.matched,
        report.inconclusive,
        report.failures.len()
    );
    for f in &report.failures {
        println!(
            "  FAIL iter {} ({} / {} / {} strategy, {} samples): {}",
            f.case.iter,
            f.case.workload,
            f.case.config.name(),
            f.case.strategy,
            f.case.samples_mw.len(),
            f.divergence
        );
    }
    // Shrink and print a reproducer for the first failure so the trace
    // can be committed to the corpus directly.
    if let Some(f) = report.failures.first() {
        let w = ehs_workloads::by_name(f.case.workload).expect("fuzz workload exists");
        let cfg = f.case.config.build();
        println!("shrinking first failure (budget 64 runs)...");
        let shrunk = shrink_trace(&f.case.samples_mw, 64, |cand| {
            let trace = ehs_energy::PowerTrace::from_samples_mw(cand.to_vec());
            ehs_verify::oracle::check_workload(w, &cfg, &trace, opts.fault, opts.check_invariants)
                .is_divergence()
        });
        let case = CorpusCase {
            name: format!("fuzz-{seed:x}-iter{}", f.case.iter),
            description: format!(
                "fuzz seed {seed:#x} iter {} ({} strategy), shrunk from {} samples: {}",
                f.case.iter,
                f.case.strategy,
                f.case.samples_mw.len(),
                f.divergence
            ),
            workload: f.case.workload.to_string(),
            config: f.case.config.name().to_string(),
            samples_mw: shrunk,
        };
        println!(
            "shrunk to {} samples; corpus case:\n{}",
            case.samples_mw.len(),
            case.to_json()
        );
    }
    if report.failures.is_empty() {
        println!("fuzz OK");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_shrink(args: &[String]) -> ExitCode {
    let mut input: Option<String> = None;
    let mut output: Option<String> = None;
    let mut fault = None;
    let mut budget = 256usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--input" => match flag_value(args, &mut i, "--input") {
                Ok(v) => input = Some(v.to_string()),
                Err(c) => return c,
            },
            "--output" => match flag_value(args, &mut i, "--output") {
                Ok(v) => output = Some(v.to_string()),
                Err(c) => return c,
            },
            "--fault" => match flag_value(args, &mut i, "--fault") {
                Ok(v) => match parse_fault(v) {
                    Ok(f) => fault = Some(f),
                    Err(c) => return c,
                },
                Err(c) => return c,
            },
            "--budget" => match flag_value(args, &mut i, "--budget") {
                Ok(v) => match v.parse() {
                    Ok(n) => budget = n,
                    Err(e) => {
                        eprintln!("verify: --budget: {e}");
                        return ExitCode::from(2);
                    }
                },
                Err(c) => return c,
            },
            other => {
                eprintln!("verify: unknown option `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }
    let Some(input) = input else {
        eprintln!("verify: shrink needs --input CASE.json\n{USAGE}");
        return ExitCode::from(2);
    };

    let case = match CorpusCase::load(std::path::Path::new(&input)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("verify: {e}");
            return ExitCode::FAILURE;
        }
    };
    let w = match ehs_workloads::by_name(&case.workload) {
        Some(w) => w,
        None => {
            eprintln!("verify: unknown workload `{}`", case.workload);
            return ExitCode::FAILURE;
        }
    };
    let Some(config) = ehs_verify::ConfigId::from_name(&case.config) else {
        eprintln!("verify: unknown config `{}`", case.config);
        return ExitCode::FAILURE;
    };
    let cfg = config.build();
    let reproduces = |cand: &[f64]| {
        let trace = ehs_energy::PowerTrace::from_samples_mw(cand.to_vec());
        ehs_verify::oracle::check_workload(w, &cfg, &trace, fault, true).is_divergence()
    };
    if !reproduces(&case.samples_mw) {
        eprintln!(
            "verify: case `{}` does not reproduce a divergence ({} samples); nothing to shrink",
            case.name,
            case.samples_mw.len()
        );
        return ExitCode::FAILURE;
    }
    println!(
        "shrinking `{}` ({} samples, budget {budget} runs)...",
        case.name,
        case.samples_mw.len()
    );
    let shrunk = shrink_trace(&case.samples_mw, budget, reproduces);
    let mut out_case = case.clone();
    out_case.samples_mw = shrunk;
    out_case.description = format!(
        "{} (shrunk from {} to {} samples)",
        case.description,
        case.samples_mw.len(),
        out_case.samples_mw.len()
    );
    println!("shrunk to {} samples", out_case.samples_mw.len());
    match output {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, out_case.to_json() + "\n") {
                eprintln!("verify: {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {path}");
        }
        None => println!("{}", out_case.to_json()),
    }
    ExitCode::SUCCESS
}
