//! `perfbench --workload W --seed N --seconds S --trace 0|1 [--smoke]`
//!
//! Prints the workload's figures, then one JSON line with `correct`,
//! `attempted`, `failed` and the metrics.

use std::process::ExitCode;

fn main() -> ExitCode {
    let cfg = match perfbench::Config::parse(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match perfbench::run(&cfg) {
        Ok(report) => {
            for line in &report.lines {
                println!("{line}");
            }
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
