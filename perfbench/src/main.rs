//! End-to-end serving benchmark at the paper's deployment shape.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_200 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Builds the real stack in-process (paper-shape `FrozenModel`,
//! `QueryServer`, `NetServer` on 127.0.0.1), drives it over two
//! connections, verifies every answer, and prints one JSON object as the
//! last line of stdout: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Exits non-zero when any answer or
//! state check fails. See `perfbench/README.md`.

mod host;
mod inputs;
mod layers;
mod loadgen;
mod run;
mod stack;
mod trace;
mod verify;

use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <paper_200|exact_20k|routed_20k|stream_durable> --seed <n> --seconds <n> --trace <0|1>";

fn parse(args: &[String]) -> Result<run::Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    stack::WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(run::Args {
        spec: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run::run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.spec.name);
            return ExitCode::FAILURE;
        }
    };
    eprint!("{}", report.ledger.render());
    let mut correct = report.ledger.failed() == 0;
    let mut metrics = Vec::new();
    for (name, value, unit) in &report.metrics {
        eprintln!("perfbench: {name} = {value} {unit}");
        if !value.is_finite() {
            eprintln!("perfbench: {name} was not measured");
            correct = false;
        }
        // Non-finite values are not JSON; the run has failed anyway.
        let value = if value.is_finite() {
            value.to_string()
        } else {
            "null".to_string()
        };
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let metrics = metrics.join(", ");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.ledger.attempted(),
        report.ledger.failed()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let args = parse(&argv(
            "--workload routed_20k --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (args.spec.name, args.seed, args.seconds, args.trace),
            ("routed_20k", 7, 3, true)
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse(&argv("--workload nope")).is_err());
        assert!(parse(&argv("--seed 1")).is_err());
        assert!(parse(&argv("--workload paper_200 --seed")).is_err());
        assert!(parse(&argv("--workload paper_200 --bogus 1")).is_err());
    }
}
