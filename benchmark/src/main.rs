//! One run of one workload of the simulator-stack benchmark. Started by
//! `benchmark/run.sh`, which builds this crate and passes the arguments
//! through:
//!
//! ```text
//! simbench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//! ```
//!
//! The run sets up [`SETUP_RUNS`] times, repeats the workload until
//! `--seconds` have passed, checks what the product computed, and prints
//! every metric by name and unit; the last line of standard output is
//! the result object the driver reads.
//!
//! Timings are *undisturbed* times. The work is deterministic, so every
//! repetition splits into the same segments (one per refill of a cell's
//! op stream, or one per pipeline stage); each segment counts at the
//! shortest time any repetition took for it, and the sum stands for the
//! repetition. On a shared host interference only ever adds time, in
//! bursts far shorter than a repetition, so this estimate stays put when
//! the median of whole repetitions moves by tens of percent.
//!
//! `--trace 0` reports the end-to-end metrics with tracing off.
//! `--trace 1` alternates untraced and traced repetitions (their ratio is
//! the tracing overhead), then runs the direct layer drivers, and
//! reports the per-layer metrics.
//!
//! The product is measured from outside, through public functions of its
//! crates only. It is a closed loop with one client: the next cell
//! starts when the previous one ends.

mod cells;
mod direct;
mod host;
mod matrix;
mod metrics;
mod trace;

use cells::LayerCounts;
use metrics::{Metrics, END_TO_END, PER_LAYER};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::{Total, Tracer};

const WORKLOADS: [&str; 5] = [
    "churn-sweep",
    "churn-nosweep",
    "pgbench-tx",
    "matrix-shortcells",
    "opgen-analyze",
];

/// Set-ups per run; `setup_s` is their undisturbed time.
const SETUP_RUNS: u32 = 8;

/// What one repetition of a workload did.
#[derive(Debug, Default)]
pub struct RepOutcome {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub ops: u64,
    /// FNV-1a over everything the product computed in the repetition.
    pub digest: u64,
    pub attempted: u64,
    /// One message per failed cell or check.
    pub messages: Vec<String>,
}

pub trait Workload {
    /// Runs every cell once; spans go to `tr` when it is on.
    fn rep(&mut self, tr: &mut Tracer, rep: u32) -> RepOutcome;
    /// Seconds one repetition takes with every segment at the fastest
    /// any untraced repetition so far ran it.
    fn undisturbed_s(&self) -> f64;
    /// Checks after the measured window: cells attempted, and one
    /// message per failed check.
    fn verify(&mut self) -> (u64, Vec<String>);
    /// Trace-only work outside the measured window.
    fn trace_extras(&mut self, _tr: &mut Tracer, _m: &mut Metrics) -> Vec<String> {
        Vec::new()
    }
    /// Layer counters of the traced cells.
    fn layer_counts(&self) -> &LayerCounts;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1000,
        seconds: 15.0,
        trace: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("not a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload {:?}: expected one of {}",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Builds the workload from the seed: its cell list or matrix plan.
fn build(args: &Args) -> Box<dyn Workload> {
    match args.workload.as_str() {
        "churn-sweep" => Box::new(cells::churn_sweep(args.seed)),
        "churn-nosweep" => Box::new(cells::churn_nosweep(args.seed)),
        "pgbench-tx" => Box::new(cells::pgbench_tx(args.seed)),
        "opgen-analyze" => Box::new(cells::opgen_analyze(args.seed)),
        "matrix-shortcells" => Box::new(matrix::MatrixWorkload::new(args.seed, &args.out)),
        other => unreachable!("parse_args admitted workload {other}"),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            std::process::exit(2);
        }
    };
    std::fs::create_dir_all(&args.out).expect("create the output directory");

    // Set-up: build the workload, then the fixed warm-up pass — two small
    // churn programs under Reloaded, a 400-transaction pgbench and one
    // analysis — so the measured window starts with the allocator, page
    // cache and branch predictors in their steady state.
    let mut warm_up = cells::warm_up(args.seed);
    let (mut build_s, mut whole_s) = (Vec::new(), Vec::new());
    let mut workload = None;
    for i in 0..SETUP_RUNS {
        let t = Instant::now();
        workload = Some(build(&args));
        build_s.push(t.elapsed().as_secs_f64());
        warm_up.rep(&mut Tracer::new(), i);
        whole_s.push(t.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("SETUP_RUNS is positive");
    let setup_s = host::summarise(&build_s).min + warm_up.undisturbed_s();

    // The measured window. A traced run alternates untraced and traced
    // repetitions so drift hits both sides of the overhead ratio alike.
    let mut tracer = Tracer::new();
    let mut reps: Vec<(bool, RepOutcome)> = Vec::new();
    let min_reps = if args.trace { 4 } else { 3 };
    let window = Instant::now();
    while window.elapsed().as_secs_f64() < args.seconds || reps.len() < min_reps {
        let traced = args.trace && reps.len() % 2 == 1;
        tracer.set_on(traced);
        reps.push((traced, workload.rep(&mut tracer, reps.len() as u32)));
    }
    let window_s = window.elapsed().as_secs_f64();
    let peak_rss_mib = host::peak_rss_mib();

    // Correctness: every cell ran, every repetition — traced or not —
    // computed the same bytes, and the workload's own checks hold.
    let mut attempted = 0;
    let mut messages = Vec::new();
    for (_, r) in &mut reps {
        attempted += r.attempted;
        messages.append(&mut r.messages);
    }
    let (digest, ops) = (reps[0].1.digest, reps[0].1.ops);
    if let Some(i) = reps
        .iter()
        .position(|(_, r)| r.digest != digest || r.ops != ops)
    {
        let r = &reps[i].1;
        messages.push(format!(
            "repetition {i} ran {} ops to digest {:#018x}, repetition 0 {ops} ops to {digest:#018x}",
            r.ops, r.digest
        ));
    }
    let (checked, mut bad) = workload.verify();
    attempted += checked;
    messages.append(&mut bad);

    let mut m = Metrics::new(if args.trace { PER_LAYER } else { END_TO_END });
    let of = |traced: bool, f: &dyn Fn(&RepOutcome) -> f64| -> Vec<f64> {
        reps.iter()
            .filter(|(t, _)| *t == traced)
            .map(|(_, r)| f(r))
            .collect()
    };
    let ops_per_s = |r: &RepOutcome| r.ops as f64 / r.wall_s;
    let undisturbed_s = workload.undisturbed_s();
    m.put_with_spread(
        "ops_per_s",
        ops as f64 / undisturbed_s,
        host::summarise(&of(false, &ops_per_s)),
    );
    // CPU seconds per wall second, from the repetition that waited least
    // for a processor (1 on one thread, up to the worker count on
    // `matrix-shortcells`), applied to the undisturbed time. /proc counts
    // CPU in 10 ms ticks: too coarse to take minima of segments, and the
    // CPU time of whole repetitions swells with the host's interference
    // just as their wall time does.
    let busy_cores = host::summarise(&of(false, &|r| r.cpu_s / r.wall_s)).max;
    m.put_with_spread(
        "cpu_ns_per_op",
        busy_cores * undisturbed_s * 1e9 / ops as f64,
        host::summarise(&of(false, &|r| r.cpu_s * 1e9 / r.ops as f64)),
    );
    m.put("peak_rss_mib", peak_rss_mib);
    m.put_with_spread("setup_s", setup_s, host::summarise(&whole_s));

    if args.trace {
        // Fastest traced over fastest untraced repetition: the pair least
        // disturbed by the host.
        let fastest = |traced| host::summarise(&of(traced, &ops_per_s)).max;
        m.put("trace.overhead_ratio", fastest(true) / fastest(false));
        let traced_wall_ns: f64 = of(true, &|r| r.wall_s * 1e9).iter().sum();
        for (layer, t) in layer_self_ns(&tracer) {
            m.put(
                &format!("trace.share.{layer}"),
                100.0 * t as f64 / traced_wall_ns,
            );
        }
        tracer.set_on(true);
        messages.append(&mut workload.trace_extras(&mut tracer, &mut m));
        tracer.set_on(false);
        let layers = workload.layer_counts();
        span_metrics(&mut m, &tracer, layers.passes.max(1) as f64);
        count_metrics(&mut m, layers);
        m.put("bench.cells_failed", messages.len() as f64);
        direct::run(&mut m, args.seed);
        let path = args.out.join(format!("trace-{}.jsonl", args.workload));
        tracer.write_jsonl(&path).expect("write the span file");
    }

    let failed = (messages.len() as u64).min(attempted);
    m.put("passed_share", 1.0 - failed as f64 / attempted as f64);
    let correct = failed == 0;
    for msg in &messages {
        eprintln!("simbench: FAILED CHECK: {msg}");
    }
    let run = RunInfo {
        args: &args,
        reps: reps.len(),
        window_s,
        digest,
        correct,
        attempted,
        failed,
    };
    report(&run, &m);
    std::process::exit(if correct { 0 } else { 1 });
}

/// Self time per layer (the part of a span name before the first dot).
fn layer_self_ns(tracer: &Tracer) -> std::collections::BTreeMap<&'static str, u64> {
    let mut layers = std::collections::BTreeMap::new();
    for (name, t) in tracer.totals() {
        *layers
            .entry(name.split('.').next().expect("split yields one item"))
            .or_default() += t.self_ns;
    }
    layers
}

/// Per-layer timings from the spans. Counts are per traced pass over
/// the workload's cells.
fn span_metrics(m: &mut Metrics, tracer: &Tracer, passes: f64) {
    let totals = tracer.totals();
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let per_call = |t: Total, scale: f64| {
        if t.calls == 0 {
            0.0
        } else {
            t.ns as f64 / t.calls as f64 / scale
        }
    };

    let refill = get("workloads.refill");
    let count_pass = get("workloads.count_pass");
    m.put("workloads.refill_ns_per_op", refill.ns_per_work());
    m.put("workloads.count_pass_ns_per_op", count_pass.ns_per_work());
    m.put(
        "workloads.ops",
        (refill.work + count_pass.work) as f64 / passes,
    );

    let push = get("analyze.push");
    m.put("analyze.push_ns_per_op", push.ns_per_work());
    m.put("analyze.finish_ms", per_call(get("analyze.finish"), 1e6));
    m.put(
        "analyze.ops",
        (push.work + get("bench.preflight").work) as f64 / passes,
    );

    m.put("sim.new_us", per_call(get("sim.new"), 1e3));
    m.put("sim.finish_ms", per_call(get("sim.finish"), 1e6));
    let mut batches: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "sim.exec_batch" && s.work > 0)
        .map(|s| s.ns() as f64 / s.work as f64)
        .collect();
    m.put("sim.batches", batches.len() as f64 / passes);
    // Percentiles only where the tail is populated: p99 of fewer than
    // 1 000 batches would rest on under ten samples.
    if batches.len() >= 1000 {
        batches.sort_by(f64::total_cmp);
        m.put(
            "sim.exec_batch_ns_per_op_p50",
            host::quantile(&batches, 0.5),
        );
        m.put(
            "sim.exec_batch_ns_per_op_p99",
            host::quantile(&batches, 0.99),
        );
    }

    m.put(
        "bench.plan_build_us",
        per_call(get("bench.plan_build"), 1e3),
    );
    m.put("bench.resume_ms", per_call(get("bench.resume"), 1e6));
    m.put("bench.compact_ms", per_call(get("bench.compact"), 1e6));
    m.put("bench.render_ms", per_call(get("bench.render"), 1e6));
}

/// Per-layer counts, per traced pass over the cells. They are simulated
/// quantities and repeat exactly for a seed.
fn count_metrics(m: &mut Metrics, c: &LayerCounts) {
    let passes = c.passes.max(1) as f64;
    let per_pass = |v: u64| v as f64 / passes;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    m.put("workloads.batch_ops_max", c.batch_ops_max as f64);
    m.put("sim.wall_mcycles", per_pass(c.wall_cycles) / 1e6);
    m.put("sim.peak_rss_mib", c.sim_peak_rss as f64 / (1 << 20) as f64);
    m.put("core.epochs", per_pass(c.epochs));
    m.put("core.pages_swept", per_pass(c.pages_swept));
    m.put("core.pages_visited_clean", per_pass(c.pages_visited_clean));
    m.put("core.caps_checked", per_pass(c.caps_checked));
    m.put("core.caps_revoked", per_pass(c.caps_revoked));
    m.put(
        "core.revoked_per_checked",
        ratio(c.caps_revoked, c.caps_checked),
    );
    m.put("core.load_faults", per_pass(c.load_faults));
    m.put("alloc.allocs", per_pass(c.allocs));
    m.put("alloc.frees", per_pass(c.frees));
    m.put("alloc.blocked_allocs", per_pass(c.blocked_allocs));
    m.put(
        "alloc.revocations_requested",
        per_pass(c.revocations_requested),
    );
    m.put("vm.tlb_misses", per_pass(c.tlb_misses));
    m.put(
        "vm.tlb_misses_per_kop",
        1e3 * ratio(c.tlb_misses, c.sim_ops),
    );
    m.put("vm.tlb_shootdowns", per_pass(c.tlb_shootdowns));
    m.put("vm.pte_writes", per_pass(c.pte_writes));
    m.put(
        "vm.load_generation_faults",
        per_pass(c.load_generation_faults),
    );
    m.put("mem.l1_hits", per_pass(c.l1_hits));
    m.put("mem.l2_hits", per_pass(c.l2_hits));
    m.put("mem.dram_txn", per_pass(c.dram_txn));
    m.put(
        "mem.l1_hit_ratio",
        ratio(c.l1_hits, c.l1_hits + c.l2_hits + c.dram_txn),
    );
}

struct RunInfo<'a> {
    args: &'a Args,
    reps: usize,
    window_s: f64,
    digest: u64,
    correct: bool,
    attempted: u64,
    failed: u64,
}

/// Prints every metric by name and unit, writes the run's detail file,
/// and ends standard output with the result object.
fn report(run: &RunInfo, m: &Metrics) {
    let a = run.args;
    let trace = u8::from(a.trace);
    println!(
        "workload {} seed {} trace {trace}: {} repetitions in {:.2} s, {} cells attempted, {} failed, stats_digest {:#018x}",
        a.workload, a.seed, run.reps, run.window_s, run.attempted, run.failed, run.digest
    );
    let mut brief = String::new();
    let mut detail = String::new();
    for (name, unit, v) in m.rows() {
        let value = if v.value.is_finite() { v.value } else { 0.0 };
        match v.spread {
            Some(s) => println!(
                "  {name:34} {value:>16.4} {unit:8} (whole repetitions: median {:.4}, min {:.4}, max {:.4}, n {})",
                s.median, s.min, s.max, s.n
            ),
            None => println!("  {name:34} {value:>16.4} {unit}"),
        }
        let sep = if brief.is_empty() { "" } else { "," };
        write!(
            brief,
            "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        )
        .expect("write to a String");
        write!(
            detail,
            "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\""
        )
        .expect("write to a String");
        if let Some(s) = v.spread {
            write!(
                detail,
                ",\"rep_median\":{},\"rep_min\":{},\"rep_max\":{},\"n\":{}",
                s.median, s.min, s.max, s.n
            )
            .expect("write to a String");
        }
        detail.push('}');
    }
    let head = format!(
        "\"correct\":{},\"attempted\":{},\"failed\":{}",
        run.correct, run.attempted, run.failed
    );
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let file = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{trace},\"available_parallelism\":{nproc},\"repetitions\":{},\"window_s\":{},\"stats_digest\":\"{:#018x}\",{head},\"metrics\":{{{detail}}}}}\n",
        a.workload, a.seed, a.seconds, run.reps, run.window_s, run.digest
    );
    write_file(
        &a.out.join(format!("run-{}-trace{trace}.json", a.workload)),
        &file,
    );
    println!("{{{head},\"metrics\":{{{brief}}}}}");
}

fn write_file(path: &Path, text: &str) {
    std::fs::write(path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}
