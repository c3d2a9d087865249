//! Utility: dump a surrogate workload as a portable trace file, or replay
//! a trace under a chosen strategy.
//!
//! ```text
//! dump_trace dump <pgbench|grpc|xalancbmk|omnetpp|...> <out.trace>
//! dump_trace replay <in.trace> [baseline|cherivoke|cornucopia|reloaded|paintsync]
//! ```

use morello_sim::{trace, Condition, SimConfig, System};
use workloads::{grpc_qps, pgbench, spec, GrpcParams, PgbenchParams, SpecProgram, SPEC_PROGRAMS};

fn workload_by_name(name: &str) -> Option<workloads::GeneratedWorkload> {
    match name {
        "pgbench" => Some(pgbench(PgbenchParams { transactions: 2000, ..Default::default() })),
        "grpc" => Some(grpc_qps(GrpcParams { messages: 2000, ..Default::default() })),
        _ => SPEC_PROGRAMS
            .iter()
            .find(|p| p.name().split_whitespace().next() == Some(name) || p.name() == name)
            .map(|&p: &SpecProgram| spec(p, 42)),
    }
}

fn condition_by_name(name: &str) -> Option<Condition> {
    Some(match name {
        "baseline" => Condition::baseline(),
        "cherivoke" => Condition::cherivoke(),
        "cornucopia" => Condition::cornucopia(),
        "reloaded" => Condition::reloaded(),
        "paintsync" => Condition::paint_sync(),
        _ => return None,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("dump") if args.len() >= 4 => {
            let Some(w) = workload_by_name(&args[2]) else {
                eprintln!("unknown workload {:?}", args[2]);
                std::process::exit(2);
            };
            let mut meta = trace::TraceMeta::new();
            meta.insert("workload".into(), w.name.clone());
            meta.insert("ops".into(), w.ops.len().to_string());
            trace::save_trace_to_path(&w.ops, &meta, &args[3]).expect("write trace");
            println!("wrote {} ops of {} to {}", w.ops.len(), w.name, args[3]);
        }
        Some("replay") if args.len() >= 3 => {
            let (ops, meta) = match trace::load_trace_from_path(&args[2]) {
                Ok(parts) => parts,
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(2);
                }
            };
            if let Some(workload) = meta.get("workload") {
                println!("trace metadata: workload {workload}");
            }
            let cond = args
                .get(3)
                .and_then(|s| condition_by_name(s))
                .unwrap_or_else(Condition::reloaded);
            let cfg = SimConfig::builder()
                .condition(cond)
                .min_quarantine(128 << 10)
                .build()
                .expect("replay config");
            match System::new(cfg).run(ops) {
                Ok(s) => println!(
                    "{}: wall {:.1} ms, {} revocations, {} faults, max pause {:.3} ms, {} MDRAM",
                    cond.label(),
                    s.wall_ms(),
                    s.revocations,
                    s.faults,
                    s.pauses.iter().copied().max().unwrap_or(0) as f64 / 2.5e6,
                    s.total_dram() / 1_000_000
                ),
                Err(e) => {
                    eprintln!("replay failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        _ => {
            eprintln!("usage: dump_trace dump <workload> <out.trace>");
            eprintln!("       dump_trace replay <in.trace> [condition]");
            eprintln!("workloads: pgbench grpc {}", SPEC_PROGRAMS.map(|p| p.name().split(' ').next().unwrap()).join(" "));
            std::process::exit(2);
        }
    }
}
