//! Ablation study (§7.1 multi-threaded background revocation).
use rev_bench::cli;

fn main() {
    println!("{}", rev_bench::ablations::revoker_threads(cli::env_workers()));
}
