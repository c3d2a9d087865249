//! The one binary of the evaluation harness, and only an edge: argv →
//! [`cli::parse`] → [`commands::run`]. `repro` with no arguments prints
//! every subcommand and the flags it takes.

use rev_bench::{cli, commands};
use std::process::ExitCode;

fn main() -> ExitCode {
    let command = match cli::parse(std::env::args().skip(1)) {
        Ok(command) => command,
        Err(e) => {
            eprintln!("error: {e}\n{}", cli::usage());
            return ExitCode::from(2);
        }
    };
    commands::run(&command).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}
