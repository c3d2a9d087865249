//! Workload trace serialization.
//!
//! Op streams can be recorded to (and replayed from) a compact, line-based
//! text format. A program saved this way replays bit-identically against
//! any revocation strategy even after the generator that produced it
//! changes, so it can be archived alongside results or kept as a corpus
//! file (a minimal failing program) that a test replays. A damaged file is
//! a typed error, never a different program.
//!
//! Format (`#cornucopia-trace v2` header, one op per line, `#` comments):
//!
//! ```text
//! A <obj> <size>      Alloc          F <obj>         Free
//! L <obj>             LoadObj        R <obj> <len>   ReadData
//! W <obj> <len>       WriteData      P <from> <slot> <to>  LinkPtr
//! C <from> <slot>     ChasePtr       X <cycles>      Compute
//! I <cycles>          ThinkIdle      H <obj>         SyscallHoard
//! B <id>              TxBegin        E <id>          TxEnd
//! ```
//!
//! Older traces may hold `M <obj> <len>` and `U <obj>` lines, the `mmap`
//! and `munmap` ops of a deleted path; they read as parse errors.
//!
//! Metadata lines of the form `#!key value` follow the header (sorted by
//! key on write, so equal traces serialize identically) — provenance such
//! as the generating workload, seed, or scale travels with the ops, and so
//! does the [`SimConfig`] the workload was tuned for, as `#!sim.<field>`
//! keys ([`insert_config`], [`config_from_meta`]).

use crate::config::{ConfigError, SimConfig, SimConfigBuilder};
use crate::ops::Op;
use cornucopia::PteUpdateMode;
use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, BufRead, Write};

/// The format header.
pub const TRACE_HEADER: &str = "#cornucopia-trace v2";

/// Trace metadata: ordered key → value pairs carried by a trace. Keys
/// must be nonempty and free of whitespace; values must be single-line.
pub type TraceMeta = BTreeMap<String, String>;

/// Trace parsing errors, with 1-based line numbers.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The header line is missing or wrong.
    BadHeader,
    /// A line could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// The offending text.
        text: String,
    },
    /// A metadata key or value is unserializable (whitespace in the key,
    /// newline in the value, or an empty key).
    BadMeta {
        /// The offending key.
        key: String,
    },
    /// A `#!sim.<field>` key is unknown, its value does not parse, or the
    /// configuration it sets is rejected by the builder.
    BadConfig {
        /// The offending key.
        key: String,
        /// Why it was refused.
        reason: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::BadHeader => write!(f, "missing `{TRACE_HEADER}` header"),
            TraceError::Parse { line, text } => write!(f, "trace parse error at line {line}: {text:?}"),
            TraceError::BadMeta { key } => write!(f, "unserializable trace metadata key {key:?}"),
            TraceError::BadConfig { key, reason } => write!(f, "trace metadata key {key}: {reason}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Rejects the first metadata entry that cannot round-trip: an empty key,
/// whitespace in a key, or a line break in a value.
fn check_meta(meta: &TraceMeta) -> Result<(), TraceError> {
    match meta.iter().find(|(key, value)| {
        key.is_empty()
            || key.chars().any(char::is_whitespace)
            || value.contains('\n')
            || value.contains('\r')
    }) {
        Some((key, _)) => Err(TraceError::BadMeta { key: key.clone() }),
        None => Ok(()),
    }
}

/// Prefix of the metadata keys that carry a trace's [`SimConfig`].
const CONFIG_PREFIX: &str = "sim.";

/// A recorded [`SimConfig`] field: its name, its value as written, and
/// its setter from that text (`None` when the text does not parse).
type ConfigField =
    (&'static str, fn(&SimConfig) -> String, fn(SimConfigBuilder, &str) -> Option<SimConfigBuilder>);

/// A field written with `Display` and read back with `FromStr`.
macro_rules! plain_field {
    ($name:ident) => {
        (stringify!($name), |c| c.$name.to_string(), |b, v| Some(b.$name(v.parse().ok()?)))
    };
}

/// Every field a workload tunes: all but the condition (a replay chooses
/// it) and telemetry.
const CONFIG_FIELDS: [ConfigField; 11] = [
    plain_field!(heap_len),
    plain_field!(max_objects),
    plain_field!(min_quarantine),
    plain_field!(quarantine_divisor),
    plain_field!(app_threads),
    plain_field!(spare_revoker_core),
    plain_field!(revoker_threads),
    plain_field!(colors),
    plain_field!(latency_from_arrival),
    (
        "tx_interval",
        |c| c.tx_interval.map_or_else(|| "none".to_string(), |t| t.to_string()),
        |b, v| Some(b.tx_interval(if v == "none" { None } else { Some(v.parse().ok()?) })),
    ),
    (
        "pte_mode",
        |c| match c.pte_mode {
            PteUpdateMode::Generation => "generation".to_string(),
            PteUpdateMode::RewriteEachEpoch => "rewrite-each-epoch".to_string(),
        },
        |b, v| match v {
            "generation" => Some(b.pte_mode(PteUpdateMode::Generation)),
            "rewrite-each-epoch" => Some(b.pte_mode(PteUpdateMode::RewriteEachEpoch)),
            _ => None,
        },
    ),
];

/// Records `cfg` in `meta` as one `#!sim.<field> value` key per
/// [`CONFIG_FIELDS`] entry; [`config_from_meta`] reads them back.
pub fn insert_config(meta: &mut TraceMeta, cfg: &SimConfig) {
    for (field, value, _) in CONFIG_FIELDS {
        meta.insert(format!("{CONFIG_PREFIX}{field}"), value(cfg));
    }
}

/// The configuration a trace's `#!sim.<field>` keys describe, built
/// through [`SimConfig::builder`]: a missing key keeps
/// [`SimConfig::default`]'s value, so a trace dumped without them replays
/// under the defaults. Set the condition with [`SimConfig::with_condition`].
///
/// # Errors
///
/// [`TraceError::BadConfig`] naming the key, for an unknown `sim.` key,
/// an unparsable value, or a value the builder rejects.
pub fn config_from_meta(meta: &TraceMeta) -> Result<SimConfig, TraceError> {
    let bad = |key: &str, reason: String| TraceError::BadConfig { key: key.to_string(), reason };
    let mut b = SimConfig::builder();
    for (key, value) in meta {
        let Some(field) = key.strip_prefix(CONFIG_PREFIX) else { continue };
        let Some((_, _, set)) = CONFIG_FIELDS.iter().find(|(name, ..)| *name == field) else {
            return Err(bad(key, "not a configuration field".to_string()));
        };
        b = set(b, value).ok_or_else(|| bad(key, format!("unparsable value {value:?}")))?;
    }
    b.build().map_err(|e| bad(&format!("{CONFIG_PREFIX}{}", rejected_field(e)), e.to_string()))
}

/// The field a builder rejection is about.
fn rejected_field(e: ConfigError) -> &'static str {
    match e {
        ConfigError::ZeroRevokerThreads => "revoker_threads",
        ConfigError::ZeroAppThreads => "app_threads",
        ConfigError::BadHeapLen { .. } => "heap_len",
        ConfigError::ZeroMaxObjects | ConfigError::RootTableTooLarge { .. } => "max_objects",
        ConfigError::ZeroQuarantineDivisor => "quarantine_divisor",
        ConfigError::ZeroTxInterval => "tx_interval",
        ConfigError::BadColors { .. } => "colors",
        ConfigError::ZeroSampleInterval => "telemetry",
    }
}

/// Serializes an op stream plus metadata (header, `#!key value` lines in
/// key order, then one op per line). Writes nothing if the metadata is
/// rejected. Flushes `w` before returning, so a buffered writer's failed
/// final write is an error here rather than lost in its `Drop`.
pub fn write_trace<W: Write>(ops: &[Op], meta: &TraceMeta, mut w: W) -> Result<(), TraceError> {
    check_meta(meta)?;
    writeln!(w, "{TRACE_HEADER}").map_err(TraceError::Io)?;
    for (key, value) in meta {
        writeln!(w, "#!{key} {value}").map_err(TraceError::Io)?;
    }
    write_op_lines(ops, &mut w).map_err(TraceError::Io)?;
    w.flush().map_err(TraceError::Io)
}

fn write_op_lines<W: Write>(ops: &[Op], mut w: W) -> io::Result<()> {
    for op in ops {
        match *op {
            Op::Alloc { obj, size } => writeln!(w, "A {obj} {size}")?,
            Op::Free { obj } => writeln!(w, "F {obj}")?,
            Op::LoadObj { obj } => writeln!(w, "L {obj}")?,
            Op::ReadData { obj, len } => writeln!(w, "R {obj} {len}")?,
            Op::WriteData { obj, len } => writeln!(w, "W {obj} {len}")?,
            Op::LinkPtr { from, slot, to } => writeln!(w, "P {from} {slot} {to}")?,
            Op::ChasePtr { from, slot } => writeln!(w, "C {from} {slot}")?,
            Op::Compute { cycles } => writeln!(w, "X {cycles}")?,
            Op::ThinkIdle { cycles } => writeln!(w, "I {cycles}")?,
            Op::SyscallHoard { obj } => writeln!(w, "H {obj}")?,
            Op::TxBegin { id } => writeln!(w, "B {id}")?,
            Op::TxEnd { id } => writeln!(w, "E {id}")?,
        }
    }
    Ok(())
}

/// Deserializes an op stream plus its metadata.
pub fn read_trace<R: BufRead>(r: R) -> Result<(Vec<Op>, TraceMeta), TraceError> {
    let mut lines = r.lines();
    match lines.next() {
        Some(Ok(h)) if h.trim() == TRACE_HEADER => {}
        Some(Err(e)) => return Err(e.into()),
        _ => return Err(TraceError::BadHeader),
    }
    let mut meta = TraceMeta::new();
    let mut ops = Vec::new();
    for (i, line) in lines.enumerate() {
        let line = line?;
        let text = line.trim();
        if let Some(body) = text.strip_prefix("#!") {
            let lineno = i + 2;
            let (key, value) = body
                .split_once(char::is_whitespace)
                .map_or((body, ""), |(k, v)| (k, v.trim_start()));
            if key.is_empty() {
                return Err(TraceError::Parse { line: lineno, text: text.to_string() });
            }
            meta.insert(key.to_string(), value.to_string());
            continue;
        }
        if text.is_empty() || text.starts_with('#') {
            continue;
        }
        let lineno = i + 2;
        let mut parts = text.split_ascii_whitespace();
        let bad = || TraceError::Parse { line: lineno, text: text.to_string() };
        let tag = parts.next().ok_or_else(bad)?;
        let mut num = || -> Result<u64, TraceError> {
            parts.next().and_then(|s| s.parse().ok()).ok_or_else(bad)
        };
        let op = match tag {
            "A" => Op::Alloc { obj: num()?, size: num()? },
            "F" => Op::Free { obj: num()? },
            "L" => Op::LoadObj { obj: num()? },
            "R" => Op::ReadData { obj: num()?, len: num()? },
            "W" => Op::WriteData { obj: num()?, len: num()? },
            "P" => Op::LinkPtr { from: num()?, slot: num()?, to: num()? },
            "C" => Op::ChasePtr { from: num()?, slot: num()? },
            "X" => Op::Compute { cycles: num()? },
            "I" => Op::ThinkIdle { cycles: num()? },
            "H" => Op::SyscallHoard { obj: num()? },
            "B" => Op::TxBegin { id: num()? },
            "E" => Op::TxEnd { id: num()? },
            _ => return Err(bad()),
        };
        if parts.next().is_some() {
            return Err(bad());
        }
        ops.push(op);
    }
    Ok((ops, meta))
}

/// Writes a trace with metadata to `path`. Rejected metadata leaves any
/// existing file at `path` untouched.
pub fn save_trace_to_path(
    ops: &[Op],
    meta: &TraceMeta,
    path: impl AsRef<std::path::Path>,
) -> Result<(), TraceError> {
    check_meta(meta)?;
    let f = std::fs::File::create(path).map_err(TraceError::Io)?;
    write_trace(ops, meta, io::BufWriter::new(f))
}

/// Reads a trace plus metadata from `path`.
pub fn load_trace_from_path(
    path: impl AsRef<std::path::Path>,
) -> Result<(Vec<Op>, TraceMeta), TraceError> {
    let f = std::fs::File::open(path)?;
    read_trace(io::BufReader::new(f))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Op> {
        vec![
            Op::TxBegin { id: 0 },
            Op::Alloc { obj: 3, size: 4096 },
            Op::WriteData { obj: 3, len: 128 },
            Op::LinkPtr { from: 3, slot: 7, to: 3 },
            Op::ChasePtr { from: 3, slot: 7 },
            Op::ReadData { obj: 3, len: 64 },
            Op::LoadObj { obj: 3 },
            Op::Compute { cycles: 1000 },
            Op::ThinkIdle { cycles: 500 },
            Op::SyscallHoard { obj: 3 },
            Op::Free { obj: 3 },
            Op::TxEnd { id: 0 },
        ]
    }

    fn ops_of(text: &[u8]) -> Result<Vec<Op>, TraceError> {
        read_trace(text).map(|(ops, _)| ops)
    }

    #[test]
    fn roundtrip_preserves_ops() {
        let ops = sample();
        let mut buf = Vec::new();
        write_trace(&ops, &TraceMeta::new(), &mut buf).unwrap();
        let back = ops_of(&buf).unwrap();
        assert_eq!(back, ops);
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = format!("{TRACE_HEADER}\n# hello\n\nA 1 64\n  \nF 1\n");
        let ops = ops_of(text.as_bytes()).unwrap();
        assert_eq!(ops, vec![Op::Alloc { obj: 1, size: 64 }, Op::Free { obj: 1 }]);
    }

    #[test]
    fn missing_header_is_rejected() {
        assert!(matches!(ops_of("A 1 64\n".as_bytes()), Err(TraceError::BadHeader)));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let text = format!("{TRACE_HEADER}\nA 1 64\nQ nonsense\n");
        match ops_of(text.as_bytes()) {
            Err(TraceError::Parse { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other:?}"),
        }
        let text = format!("{TRACE_HEADER}\nA 1\n"); // missing size
        assert!(matches!(ops_of(text.as_bytes()), Err(TraceError::Parse { line: 2, .. })));
        // The `mmap`/`munmap` lines of traces written before that path was
        // deleted: refused where they stand, never skipped.
        for line in ["M 9 8192", "U 9"] {
            let text = format!("{TRACE_HEADER}\nA 1 64\n# note\n{line}\nF 1\n");
            match ops_of(text.as_bytes()) {
                Err(TraceError::Parse { line: 4, text }) => assert_eq!(text, line),
                other => panic!("{line}: expected a parse error on line 4, got {other:?}"),
            }
        }
    }

    #[test]
    fn trailing_tokens_are_parse_errors() {
        // A damaged line must not read back as a shorter, different op.
        let text = format!("{TRACE_HEADER}\nA 1 64 999\nF 1\n");
        assert!(matches!(ops_of(text.as_bytes()), Err(TraceError::Parse { line: 2, .. })));
        let text = format!("{TRACE_HEADER}\nA 1 64\n# note\nF 1 junk\n");
        assert!(matches!(ops_of(text.as_bytes()), Err(TraceError::Parse { line: 4, .. })));
    }

    /// A writer whose every `write` fails, as a full disk does.
    struct FullDisk;

    impl Write for FullDisk {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::Error::other("no space left on device"))
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_failed_buffered_write_is_an_error() {
        let w = io::BufWriter::new(FullDisk);
        assert!(matches!(
            write_trace(&sample(), &sample_meta(), w),
            Err(TraceError::Io(_))
        ));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("cornucopia-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.trace");
        save_trace_to_path(&sample(), &TraceMeta::new(), &path).unwrap();
        assert_eq!(load_trace_from_path(&path).unwrap(), (sample(), TraceMeta::new()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_equals_original_run() {
        use crate::{Condition, SimConfig, System};
        let ops = sample();
        let mut buf = Vec::new();
        write_trace(&ops, &TraceMeta::new(), &mut buf).unwrap();
        let replayed = ops_of(&buf).unwrap();
        let cfg = SimConfig::builder().condition(Condition::reloaded()).build().unwrap();
        let a = System::new(cfg.clone()).run_stream(&mut ops.into_iter()).unwrap();
        let b = System::new(cfg).run_stream(&mut replayed.into_iter()).unwrap();
        assert_eq!(a.wall_cycles, b.wall_cycles);
        assert_eq!(a.total_dram(), b.total_dram());
    }

    /// A configuration with every recorded field off its default.
    fn tuned() -> SimConfig {
        SimConfig::builder()
            .heap_len(32 << 20)
            .max_objects(4096)
            .min_quarantine(1 << 20)
            .quarantine_divisor(5)
            .app_threads(2)
            .spare_revoker_core(false)
            .pte_mode(PteUpdateMode::RewriteEachEpoch)
            .revoker_threads(3)
            .colors(4)
            .tx_interval(800_000)
            .latency_from_arrival(true)
            .build()
            .unwrap()
    }

    #[test]
    fn the_config_round_trips_through_a_trace_file() {
        let mut meta = sample_meta();
        insert_config(&mut meta, &tuned());
        assert_eq!(meta.keys().filter(|k| k.starts_with(CONFIG_PREFIX)).count(), 11);
        let mut buf = Vec::new();
        write_trace(&sample(), &meta, &mut buf).unwrap();
        let (_, back) = read_trace(buf.as_slice()).unwrap();
        let cfg = config_from_meta(&back).unwrap();
        assert_eq!(format!("{cfg:?}"), format!("{:?}", tuned()));
    }

    #[test]
    fn missing_config_keys_keep_the_defaults() {
        let cfg = config_from_meta(&sample_meta()).unwrap();
        assert_eq!(format!("{cfg:?}"), format!("{:?}", SimConfig::default()));
        let mut meta = sample_meta();
        meta.insert("sim.tx_interval".to_string(), "none".to_string());
        meta.insert("sim.app_threads".to_string(), "2".to_string());
        let cfg = config_from_meta(&meta).unwrap();
        let expect = SimConfig::builder().app_threads(2).build().unwrap();
        assert_eq!(format!("{cfg:?}"), format!("{expect:?}"));
    }

    #[test]
    fn a_bad_config_value_is_an_error_naming_its_key() {
        for (key, value) in [
            ("sim.heap_len", "64MiB"),
            ("sim.colors", "300"),
            ("sim.spare_revoker_core", "yes"),
            ("sim.pte_mode", "eager"),
            ("sim.tx_interval", "-1"),
            ("sim.bogus", "1"),
            ("sim.revoker_threads", "0"),
            ("sim.heap_len", "4097"),
            ("sim.max_objects", "1000000000"),
            ("sim.tx_interval", "0"),
        ] {
            let mut meta = sample_meta();
            meta.insert(key.to_string(), value.to_string());
            match config_from_meta(&meta) {
                Err(e @ TraceError::BadConfig { .. }) => {
                    assert!(e.to_string().contains(key), "{key} {value}: {e}");
                }
                other => panic!("{key} {value}: {other:?}"),
            }
        }
    }

    fn sample_meta() -> TraceMeta {
        let mut meta = TraceMeta::new();
        meta.insert("workload".to_string(), "gobmk trevord".to_string());
        meta.insert("seed".to_string(), "1234".to_string());
        meta.insert("scale".to_string(), String::new());
        meta
    }

    #[test]
    fn v2_roundtrip_preserves_ops_and_meta() {
        let ops = sample();
        let meta = sample_meta();
        let mut buf = Vec::new();
        write_trace(&ops, &meta, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with(TRACE_HEADER));
        assert!(text.contains("#!seed 1234"));
        let (back_ops, back_meta) = read_trace(buf.as_slice()).unwrap();
        assert_eq!(back_ops, ops);
        assert_eq!(back_meta, meta);
    }

    #[test]
    fn meta_lines_serialize_in_key_order() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        write_trace(&sample(), &sample_meta(), &mut a).unwrap();
        write_trace(&sample(), &sample_meta(), &mut b).unwrap();
        assert_eq!(a, b);
        let text = String::from_utf8(a).unwrap();
        let keys: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("#!"))
            .map(|l| l[2..].split_whitespace().next().unwrap())
            .collect();
        assert_eq!(keys, vec!["scale", "seed", "workload"]);
    }

    #[test]
    fn bad_meta_is_rejected_on_write() {
        let ops = sample();
        let mut meta = TraceMeta::new();
        meta.insert("has space".to_string(), "v".to_string());
        assert!(matches!(
            write_trace(&ops, &meta, Vec::new()),
            Err(TraceError::BadMeta { .. })
        ));
        let mut meta = TraceMeta::new();
        meta.insert("k".to_string(), "line
break".to_string());
        assert!(matches!(
            write_trace(&ops, &meta, Vec::new()),
            Err(TraceError::BadMeta { .. })
        ));
    }

    #[test]
    fn v2_meta_file_roundtrip() {
        let dir = std::env::temp_dir().join("cornucopia-trace-v2-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t2.trace");
        save_trace_to_path(&sample(), &sample_meta(), &path).unwrap();
        let (ops, meta) = load_trace_from_path(&path).unwrap();
        assert_eq!(ops, sample());
        assert_eq!(meta, sample_meta());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_rejected_save_leaves_the_previous_file_byte_identical() {
        let dir = std::env::temp_dir().join(format!("cornucopia-trace-keep-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("keep.trace");
        save_trace_to_path(&sample(), &sample_meta(), &path).unwrap();
        let before = std::fs::read(&path).unwrap();
        let mut bad = sample_meta();
        bad.insert("has space".to_string(), "v".to_string());
        assert!(matches!(save_trace_to_path(&[], &bad, &path), Err(TraceError::BadMeta { .. })));
        assert_eq!(std::fs::read(&path).unwrap(), before);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
