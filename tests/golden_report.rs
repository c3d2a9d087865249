//! Exporter schema-stability gate, the telemetry analogue of
//! `tests/golden_stats.rs`: a fixed-seed SPEC surrogate run with the
//! recorder on must keep producing the same JSON document — byte for
//! byte — and that document must keep the schema the figure-plotting
//! pipeline consumes.
//!
//! If a *simulation-semantics* change legitimately moves the report,
//! re-capture the digest with:
//!
//! ```text
//! GOLDEN_PRINT=1 cargo test --test golden_report -- --nocapture
//! ```

use morello_sim::{Condition, Json, Sample, SimConfig, System, TelemetryConfig, REPORT_VERSION};
use workloads::{spec_stream, SpecProgram};

/// FNV-1a 64-bit over the rendered JSON: a short, committable stand-in
/// for the multi-kilobyte document itself.
fn fnv1a64(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The same workload as `golden_stats.rs`, with the recorder switched on:
/// full event journal + spans, one counter sample per 50M cycles.
fn golden_cfg(config: SimConfig) -> SimConfig {
    config
        .to_builder()
        .condition(Condition::reloaded())
        .revoker_threads(1)
        .telemetry(TelemetryConfig::full(50_000_000))
        .build()
        .expect("golden telemetry config")
}

fn golden_json() -> String {
    let mut w = spec_stream(SpecProgram::GobmkTrevord, 1234);
    let cfg = golden_cfg(w.config);
    System::new(cfg).run_stream(&mut w.source).expect("golden workload must complete").to_json()
}

/// Digest of the full JSON document, captured when the exporter landed.
/// Re-captured when `RevocationRequested` events gained a `reason` tag
/// and `must_block` switched to gating on the open (accumulating)
/// quarantine buffer; re-captured again when the stale-chase instrument
/// began journaling `StaleChase` events under `record_events`.
const GOLDEN_DIGEST: u64 = 0xd48a_bd4d_fcfd_8335;

#[test]
fn report_json_matches_golden_digest_and_schema() {
    let print = std::env::var("GOLDEN_PRINT").is_ok_and(|v| v != "0");
    let json = golden_json();
    let digest = fnv1a64(&json);
    if print {
        println!("const GOLDEN_DIGEST: u64 = 0x{digest:016x};");
        println!("({} bytes of JSON)", json.len());
    }
    assert!(!print, "GOLDEN_PRINT set: refusing to pass while printing snapshots");

    // Schema: exactly the keys and shapes the plotting pipeline reads.
    let v = Json::parse(&json).expect("report must parse with the in-tree parser");
    assert_eq!(v.get("version").unwrap().as_num(), Some(REPORT_VERSION as i128));
    assert_eq!(v.get("condition").unwrap().as_str(), Some("Reloaded"));
    let stats = v.get("stats").expect("stats object");
    for key in ["wall_cycles", "app_dram", "revoker_dram", "faults", "peak_rss", "pauses"] {
        assert!(stats.get(key).is_some(), "stats.{key} missing");
    }
    assert!(stats.get("latency").unwrap().get("p99").is_some());

    // Fig. 9 inputs: per-epoch phase durations and the matching spans.
    let phases = v.get("phases").unwrap().as_arr().unwrap();
    assert!(!phases.is_empty(), "no phase records");
    assert!(phases.iter().all(|p| p.get("kind").is_some() && p.get("cycles").is_some()));
    let spans = v.get("spans").unwrap().as_arr().unwrap();
    let kind_of = |s: &Json| s.get("kind").unwrap().as_str().unwrap().to_string();
    for needed in ["stw_pause", "concurrent_sweep", "epoch"] {
        assert!(spans.iter().any(|s| kind_of(s) == needed), "no {needed} span");
    }

    // Fig. 4/6 inputs: the counter series, one equal-length column per
    // sampled counter.
    let series = v.get("series").unwrap();
    let n = series.get("at").unwrap().as_arr().unwrap().len();
    assert!(n > 10, "only {n} samples for a multi-second run");
    for col in Sample::COLUMNS {
        assert_eq!(
            series.get(col).unwrap().as_arr().unwrap().len(),
            n,
            "ragged column {col}"
        );
    }

    // The journal saw the run's traffic.
    let events = v.get("events").unwrap().as_arr().unwrap();
    assert!(!events.is_empty(), "no events recorded");

    assert_eq!(
        digest, GOLDEN_DIGEST,
        "report JSON drifted (got 0x{digest:016x}); if intentional, re-capture with GOLDEN_PRINT=1"
    );
}

/// Byte-identical export across two in-process runs (the acceptance
/// criterion's two-invocation determinism check).
#[test]
fn report_json_is_reproducible() {
    assert_eq!(golden_json(), golden_json());
}
