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
//! does the [`SimConfig`] the program runs under, as one `#!sim.<field>`
//! key per [`SimConfig::FIELDS`] row, in that table's text forms
//! ([`insert_config`], [`config_from_meta`]).
//!
//! The writer also records the number of op lines as `#!ops`, so a file
//! cut (or extended) at a line boundary reads as
//! [`TraceError::OpCount`], not as a shorter program. The key belongs to
//! the format: the reader checks and removes it, and traces written
//! without it still read.

use crate::config::{ConfigError, SimConfig, SimConfigBuilder};
use crate::ops::Op;
use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, BufRead, Write};

/// The format header.
pub const TRACE_HEADER: &str = "#cornucopia-trace v2";

/// Trace metadata: ordered key → value pairs carried by a trace. Keys
/// must be nonempty, free of whitespace and not `ops` (the writer's own);
/// values must be single-line.
pub type TraceMeta = BTreeMap<String, String>;

/// The metadata key the writer records the op count under.
const OPS_KEY: &str = "ops";

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
    /// newline in the value, an empty key, or the writer's own `ops`).
    BadMeta {
        /// The offending key.
        key: String,
    },
    /// The `#!ops` count disagrees with the op lines read: the file was
    /// cut or extended.
    OpCount {
        /// The count the file declares.
        declared: usize,
        /// The op lines it holds.
        read: usize,
    },
    /// A `#!sim.<field>` key is unknown, its value does not parse, or the
    /// configuration it sets is rejected by the builder.
    BadConfig(ConfigError),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::BadHeader => write!(f, "missing `{TRACE_HEADER}` header"),
            TraceError::Parse { line, text } => write!(f, "trace parse error at line {line}: {text:?}"),
            TraceError::BadMeta { key } => write!(f, "unserializable trace metadata key {key:?}"),
            TraceError::OpCount { declared, read } => write!(
                f,
                "trace declares `#!{OPS_KEY} {declared}` but holds {read} op line(s): it was \
                 cut or extended"
            ),
            TraceError::BadConfig(e) => write!(f, "trace metadata key {CONFIG_PREFIX}{}: {e}", e.field()),
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
/// whitespace in a key, a line break in a value, whitespace around a
/// value (the reader trims it), or `ops` (the reader removes it).
fn check_meta(meta: &TraceMeta) -> Result<(), TraceError> {
    match meta.iter().find(|(key, value)| {
        key.is_empty()
            || key.as_str() == OPS_KEY
            || key.chars().any(char::is_whitespace)
            || value.contains('\n')
            || value.contains('\r')
            || value.trim() != value.as_str()
    }) {
        Some((key, _)) => Err(TraceError::BadMeta { key: key.clone() }),
        None => Ok(()),
    }
}

/// Prefix of the metadata keys that carry a trace's [`SimConfig`].
const CONFIG_PREFIX: &str = "sim.";

/// Records `cfg` in `meta` as one `#!sim.<field> value` key per
/// [`SimConfig::FIELDS`] row; [`config_from_meta`] reads them back.
pub fn insert_config(meta: &mut TraceMeta, cfg: &SimConfig) {
    for field in &SimConfig::FIELDS {
        meta.insert(format!("{CONFIG_PREFIX}{}", field.name), (field.get)(cfg));
    }
}

/// The configuration a trace's `#!sim.<field>` keys describe, set through
/// [`SimConfigBuilder::set`]: a missing key keeps
/// [`SimConfig::default`]'s value, so a trace dumped without them replays
/// under the defaults. Set the condition with [`SimConfig::with_condition`].
///
/// # Errors
///
/// [`TraceError::BadConfig`], whose message names the key, for an unknown
/// `sim.` key, an unparsable value, or a value the builder rejects.
pub fn config_from_meta(meta: &TraceMeta) -> Result<SimConfig, TraceError> {
    meta.iter()
        .filter_map(|(key, value)| Some((key.strip_prefix(CONFIG_PREFIX)?, value)))
        .try_fold(SimConfig::builder(), |b, (field, value)| b.set(field, value))
        .and_then(SimConfigBuilder::build)
        .map_err(TraceError::BadConfig)
}

/// Serializes an op stream plus metadata (header, `#!key value` lines in
/// key order, `#!ops` among them, then one op per line). Writes nothing
/// if the metadata is rejected. Flushes `w` before returning, so a
/// buffered writer's failed final write is an error here rather than lost
/// in its `Drop`.
pub fn write_trace<W: Write>(ops: &[Op], meta: &TraceMeta, mut w: W) -> Result<(), TraceError> {
    check_meta(meta)?;
    let count = ops.len().to_string();
    let mut lines: Vec<(&str, &str)> = meta.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
    let at = lines.partition_point(|&(key, _)| key < OPS_KEY);
    lines.insert(at, (OPS_KEY, &count));
    writeln!(w, "{TRACE_HEADER}").map_err(TraceError::Io)?;
    for (key, value) in lines {
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

/// Deserializes an op stream plus its metadata (without `#!ops`, which
/// is checked against the op lines read).
pub fn read_trace<R: BufRead>(r: R) -> Result<(Vec<Op>, TraceMeta), TraceError> {
    let mut lines = r.lines();
    match lines.next() {
        Some(Ok(h)) if h.trim() == TRACE_HEADER => {}
        Some(Err(e)) => return Err(e.into()),
        _ => return Err(TraceError::BadHeader),
    }
    let mut meta = TraceMeta::new();
    let mut declared = None;
    let mut ops = Vec::new();
    for (i, line) in lines.enumerate() {
        let line = line?;
        let text = line.trim();
        if let Some(body) = text.strip_prefix("#!") {
            let lineno = i + 2;
            let (key, value) = body
                .split_once(char::is_whitespace)
                .map_or((body, ""), |(k, v)| (k, v.trim_start()));
            let bad = || TraceError::Parse { line: lineno, text: text.to_string() };
            match key {
                "" => return Err(bad()),
                OPS_KEY => declared = Some(value.parse::<usize>().map_err(|_| bad())?),
                _ => {
                    meta.insert(key.to_string(), value.to_string());
                }
            }
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
    match declared {
        Some(declared) if declared != ops.len() => {
            Err(TraceError::OpCount { declared, read: ops.len() })
        }
        _ => Ok((ops, meta)),
    }
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
    use cornucopia::PteUpdateMode;

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

    /// A trace cut or extended at a line boundary is not a different
    /// program; one written without `#!ops` still reads.
    #[test]
    fn the_op_count_catches_a_cut_or_extended_trace() {
        let mut buf = Vec::new();
        write_trace(&sample(), &sample_meta(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains(&format!("#!ops {}\n", sample().len())));
        let lines: Vec<&str> = text.lines().collect();
        let cut = lines[..lines.len() - 3].join("\n");
        match read_trace(cut.as_bytes()) {
            Err(e @ TraceError::OpCount { declared: 12, read: 9 }) => {
                assert!(e.to_string().contains("cut"), "{e}");
            }
            other => panic!("a cut trace read as {other:?}"),
        }
        let extended = format!("{text}F 3\n");
        assert!(matches!(
            read_trace(extended.as_bytes()),
            Err(TraceError::OpCount { declared: 12, read: 13 })
        ));
        let bad_count = text.replace("#!ops 12", "#!ops twelve");
        assert!(matches!(read_trace(bad_count.as_bytes()), Err(TraceError::Parse { .. })));
        let uncounted = text.replace("#!ops 12\n", "");
        assert_eq!(read_trace(uncounted.as_bytes()).unwrap(), (sample(), sample_meta()));
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
    fn every_field_round_trips_through_its_text() {
        for cfg in [SimConfig::default(), tuned()] {
            for field in &SimConfig::FIELDS {
                let text = (field.get)(&cfg);
                let back = cfg.to_builder().set(field.name, &text).unwrap().build().unwrap();
                assert_eq!((field.get)(&back), text, "{}", field.name);
                assert_eq!(format!("{back:?}"), format!("{cfg:?}"), "{} {text}", field.name);
            }
        }
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
        assert_eq!(keys, vec!["ops", "scale", "seed", "workload"]);
    }

    #[test]
    fn bad_meta_is_rejected_on_write() {
        let path = std::env::temp_dir().join(format!("cornucopia-trace-bad-meta-{}", std::process::id()));
        // The reader trims a value, so " lead" would read back as "lead".
        for (key, value) in [
            ("has space", "v"),
            ("k", "line\nbreak"),
            ("k", " lead"),
            ("k", "trail "),
            ("k", "\ttab"),
            (OPS_KEY, "12"),
        ] {
            let mut meta = sample_meta();
            meta.insert(key.to_string(), value.to_string());
            match write_trace(&sample(), &meta, Vec::new()) {
                Err(TraceError::BadMeta { key: k }) => assert_eq!(k, key, "{value:?}"),
                other => panic!("{key} {value:?}: {other:?}"),
            }
            assert!(matches!(save_trace_to_path(&[], &meta, &path), Err(TraceError::BadMeta { .. })));
            assert!(!path.exists(), "{value:?}: a refused save creates no file");
        }
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
