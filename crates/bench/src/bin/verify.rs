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
//! works); `--samples N` and `--slices K` need N, K ≥ 1. Exit status is 0 when everything matched, 1 on any
//! divergence, 2 on a usage error.

use std::fmt::Display;
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;

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
  shrink --input CASE.json [--output FILE] [--fault REG] [--budget N]
  --samples N and --slices K need N, K >= 1";

const DEFAULT_SEED: &str = "0xEHS";
const DEFAULT_SAMPLES: usize = 50_000;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let rest = &args[1..];
    let run = match cmd.as_str() {
        "matrix" => parse_matrix(rest).map(cmd_matrix),
        "slices" => parse_slices(rest).map(cmd_slices),
        "fuzz" => parse_fuzz(rest).map(cmd_fuzz),
        "shrink" => parse_shrink(rest).map(cmd_shrink),
        _ => Err(Usage(format!("unknown subcommand `{cmd}`"))),
    };
    run.unwrap_or_else(|Usage(msg)| {
        eprintln!("verify: {msg}\n{USAGE}");
        ExitCode::from(2)
    })
}

/// A usage error's message; `main` prints it with [`USAGE`] and exits
/// with status 2.
#[derive(Debug)]
struct Usage(String);

/// Reads one subcommand's options in order.
struct Flags<'a>(std::slice::Iter<'a, String>);

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Flags<'a> {
        Flags(args.iter())
    }

    /// The next option, or `None` after the last.
    fn next_flag(&mut self) -> Option<&'a str> {
        self.0.next().map(String::as_str)
    }

    /// The value after `flag`.
    fn value(&mut self, flag: &str) -> Result<&'a str, Usage> {
        self.next_flag()
            .ok_or_else(|| Usage(format!("{flag} needs a value")))
    }

    /// The value after `flag`, parsed.
    fn parse<T: FromStr>(&mut self, flag: &str) -> Result<T, Usage>
    where
        T::Err: Display,
    {
        let v = self.value(flag)?;
        v.parse().map_err(|e| Usage(format!("{flag}: {e}")))
    }

    /// The value after `flag` as a count of at least one.
    fn count(&mut self, flag: &str) -> Result<usize, Usage> {
        match self.parse(flag)? {
            0 => Err(Usage(format!("{flag} needs a count of at least 1"))),
            n => Ok(n),
        }
    }

    /// The register named after `flag`, as the fault that skips its
    /// restore.
    fn fault(&mut self, flag: &str) -> Result<FaultPlan, Usage> {
        match self.parse::<ehs_isa::Reg>(flag)? {
            ehs_isa::Reg::Zero => Err(Usage(format!(
                "{flag} zero is a no-op (writes to r0 are discarded)"
            ))),
            r => Ok(FaultPlan {
                skip_restore_reg: Some(r),
            }),
        }
    }
}

fn unknown(option: &str) -> Usage {
    Usage(format!("unknown option `{option}`"))
}

struct MatrixArgs {
    seed: u64,
    samples: usize,
    invariants: bool,
}

fn parse_matrix(args: &[String]) -> Result<MatrixArgs, Usage> {
    let mut o = MatrixArgs {
        seed: parse_seed(DEFAULT_SEED),
        samples: DEFAULT_SAMPLES,
        invariants: true,
    };
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--seed" => o.seed = parse_seed(flags.value(flag)?),
            "--samples" => o.samples = flags.count(flag)?,
            "--no-invariants" => o.invariants = false,
            other => return Err(unknown(other)),
        }
    }
    Ok(o)
}

fn cmd_matrix(
    MatrixArgs {
        seed,
        samples,
        invariants,
    }: MatrixArgs,
) -> ExitCode {
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

struct SlicesArgs {
    seed: u64,
    samples: usize,
    slices: usize,
    workloads: Vec<&'static ehs_workloads::Workload>,
}

fn parse_slices(args: &[String]) -> Result<SlicesArgs, Usage> {
    let mut o = SlicesArgs {
        seed: parse_seed(DEFAULT_SEED),
        samples: DEFAULT_SAMPLES,
        slices: 4,
        workloads: ehs_workloads::SUITE.iter().collect(),
    };
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--seed" => o.seed = parse_seed(flags.value(flag)?),
            "--samples" => o.samples = flags.count(flag)?,
            "--slices" => o.slices = flags.count(flag)?,
            "--workloads" => {
                o.workloads = flags
                    .value(flag)?
                    .split(',')
                    .filter(|n| !n.is_empty())
                    .map(|name| {
                        ehs_workloads::by_name(name)
                            .ok_or_else(|| Usage(format!("unknown workload `{name}`")))
                    })
                    .collect::<Result<_, _>>()?;
                if o.workloads.is_empty() {
                    return Err(Usage("--workloads selected nothing".into()));
                }
            }
            other => return Err(unknown(other)),
        }
    }
    Ok(o)
}

fn cmd_slices(
    SlicesArgs {
        seed,
        samples,
        slices,
        workloads,
    }: SlicesArgs,
) -> ExitCode {
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

fn parse_fuzz(args: &[String]) -> Result<FuzzOptions, Usage> {
    let mut opts = FuzzOptions::new(parse_seed(DEFAULT_SEED), 200);
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--seed" => opts.seed = parse_seed(flags.value(flag)?),
            "--iters" => opts.iters = flags.parse(flag)?,
            "--fault" => opts.fault = Some(flags.fault(flag)?),
            "--max-cycles" => opts.max_cycles = flags.parse(flag)?,
            other => return Err(unknown(other)),
        }
    }
    Ok(opts)
}

fn cmd_fuzz(opts: FuzzOptions) -> ExitCode {
    let FuzzOptions {
        seed, iters, fault, ..
    } = opts;
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

struct ShrinkArgs {
    input: String,
    output: Option<String>,
    fault: Option<FaultPlan>,
    budget: usize,
}

fn parse_shrink(args: &[String]) -> Result<ShrinkArgs, Usage> {
    let (mut input, mut output, mut fault, mut budget) = (None, None, None, 256);
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--input" => input = Some(flags.value(flag)?.to_owned()),
            "--output" => output = Some(flags.value(flag)?.to_owned()),
            "--fault" => fault = Some(flags.fault(flag)?),
            "--budget" => budget = flags.parse(flag)?,
            other => return Err(unknown(other)),
        }
    }
    let input = input.ok_or_else(|| Usage("shrink needs --input CASE.json".into()))?;
    Ok(ShrinkArgs {
        input,
        output,
        fault,
        budget,
    })
}

fn cmd_shrink(
    ShrinkArgs {
        input,
        output,
        fault,
        budget,
    }: ShrinkArgs,
) -> ExitCode {
    let case = match CorpusCase::load(Path::new(&input)) {
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
            if let Err(e) = ehs_bench::write_atomic(Path::new(&path), out_case.to_json() + "\n") {
                eprintln!("verify: {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {path}");
        }
        None => println!("{}", out_case.to_json()),
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    fn usage_error<T>(parsed: Result<T, Usage>) -> String {
        match parsed {
            Ok(_) => panic!("accepted a usage error"),
            Err(Usage(msg)) => msg,
        }
    }

    #[test]
    fn zero_counts_are_usage_errors() {
        let msg = usage_error(parse_matrix(&args("--samples 0")));
        assert!(
            msg.contains("--samples needs a count of at least 1"),
            "{msg}"
        );
        let msg = usage_error(parse_slices(&args("--samples 0")));
        assert!(
            msg.contains("--samples needs a count of at least 1"),
            "{msg}"
        );
        let msg = usage_error(parse_slices(&args("--slices 0")));
        assert!(
            msg.contains("--slices needs a count of at least 1"),
            "{msg}"
        );
    }

    #[test]
    fn an_option_missing_its_value_is_a_usage_error() {
        let msg = usage_error(parse_fuzz(&args("--seed 7 --iters")));
        assert!(msg.starts_with("--iters needs a value"), "{msg}");
    }

    #[test]
    fn an_unknown_option_is_a_usage_error() {
        let msg = usage_error(parse_shrink(&args("--input case.json --frobnicate")));
        assert!(msg.starts_with("unknown option `--frobnicate`"), "{msg}");
    }

    #[test]
    fn valid_counts_are_accepted() {
        let o = parse_slices(&args("--samples 7 --slices 3 --workloads qsort,fft")).unwrap();
        assert_eq!((o.samples, o.slices, o.workloads.len()), (7, 3, 2));
        let o = parse_matrix(&args("--samples 1 --no-invariants")).unwrap();
        assert_eq!((o.samples, o.invariants), (1, false));
    }
}
