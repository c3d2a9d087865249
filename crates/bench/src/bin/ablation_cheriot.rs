//! Ablation study (see DESIGN.md). Honours REPRO_JOBS.
use rev_bench::cli;

fn main() {
    println!("{}", rev_bench::ablations::cheriot(cli::env_workers()));
}
