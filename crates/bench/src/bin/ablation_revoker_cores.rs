//! Ablation study (§7.1 parallel multi-core concurrent sweep).
fn main() {
    println!("{}", rev_bench::ablations::revoker_core_scaling());
}
