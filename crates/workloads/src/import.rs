//! Import real allocator logs as workloads.
//!
//! Many heap-profiling tools (and simple `LD_PRELOAD` shims) emit lines of
//! the form:
//!
//! ```text
//! malloc(100) = 0x4f001200
//! calloc(4, 32) = 0x4f001400
//! realloc(0x4f001200, 300) = 0x4f002000
//! free(0x4f001400)
//! ```
//!
//! [`import_malloc_log`] converts such a log into a simulator op stream:
//! pointers become root-table slots, `realloc` becomes alloc+copy+free, and
//! a fixed compute budget is inserted between events to stand in for the
//! application work the log does not record. The result can be replayed
//! under any revocation strategy — the closest this reproduction can get
//! to "run your own workload against Cornucopia Reloaded".

use morello_sim::{ObjId, Op, OpSource, OP_BATCH};
use std::collections::HashMap;
use std::fmt;

/// Errors from malloc-log parsing.
#[derive(Debug, PartialEq, Eq)]
pub enum ImportError {
    /// A line could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// The offending text.
        text: String,
    },
    /// `free`/`realloc` referenced a pointer with no live allocation.
    UnknownPointer {
        /// 1-based line number.
        line: usize,
        /// The pointer value.
        ptr: u64,
    },
}

impl fmt::Display for ImportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImportError::Parse { line, text } => write!(f, "line {line}: cannot parse {text:?}"),
            ImportError::UnknownPointer { line, ptr } => {
                write!(f, "line {line}: free/realloc of unknown pointer {ptr:#x}")
            }
        }
    }
}

impl std::error::Error for ImportError {}

/// Options for [`import_malloc_log`].
#[derive(Debug, Clone, Copy)]
pub struct ImportOptions {
    /// Compute cycles inserted between allocator events (application work
    /// the log does not record).
    pub compute_between_events: u64,
    /// Touch newly allocated memory with a write of up to this many bytes.
    pub touch_bytes: u64,
}

impl Default for ImportOptions {
    fn default() -> Self {
        ImportOptions { compute_between_events: 20_000, touch_bytes: 4096 }
    }
}

fn parse_u64(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// Parses a malloc/calloc/realloc/free log into an op stream.
///
/// Returns the ops and the number of root-table slots required (pass it as
/// `SimConfig::max_objects`).
pub fn import_malloc_log(log: &str, opts: ImportOptions) -> Result<(Vec<Op>, u64), ImportError> {
    let mut src = ImportSource::new(log, opts);
    let ops = (&mut src).collect_ops();
    match src.take_error() {
        Some(e) => Err(e),
        None => Ok((ops, src.slots_used())),
    }
}

/// Streaming form of [`import_malloc_log`] (which drains one of these):
/// parses the log one line at a time, so the resident footprint is one
/// batch buffer plus the live pointer map instead of the whole op vector.
///
/// A bad line cannot un-emit the ops already streamed, so the source ends
/// its stream there and records the error. Callers must check
/// [`ImportSource::error`] after exhaustion before trusting the replay.
#[derive(Debug)]
pub struct ImportSource<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
    opts: ImportOptions,
    live: HashMap<u64, ObjId>,
    free_slots: Vec<ObjId>,
    next_slot: ObjId,
    emitted_any: bool,
    error: Option<ImportError>,
    done: bool,
}

impl<'a> ImportSource<'a> {
    /// Starts streaming `log` with `opts`.
    #[must_use]
    pub fn new(log: &'a str, opts: ImportOptions) -> Self {
        ImportSource {
            lines: log.lines().enumerate(),
            opts,
            live: HashMap::new(),
            free_slots: Vec::new(),
            next_slot: 0,
            emitted_any: false,
            error: None,
            done: false,
        }
    }

    /// The parse error that terminated the stream, if any. Only
    /// meaningful once `refill` has returned `0`.
    #[must_use]
    pub fn error(&self) -> Option<&ImportError> {
        self.error.as_ref()
    }

    /// Takes ownership of the terminating error, if any.
    pub fn take_error(&mut self) -> Option<ImportError> {
        self.error.take()
    }

    /// Root-table slots the stream has needed so far (pass the final
    /// value as `SimConfig::max_objects`).
    #[must_use]
    pub fn slots_used(&self) -> u64 {
        self.next_slot.max(1)
    }

    fn take_slot(&mut self) -> ObjId {
        self.free_slots.pop().unwrap_or_else(|| {
            let s = self.next_slot;
            self.next_slot += 1;
            s
        })
    }

    /// Translates one log line into ops, preceded by the inter-event
    /// compute once anything has been emitted.
    fn emit_line(&mut self, lineno: usize, raw: &str, ops: &mut Vec<Op>) -> Result<(), ImportError> {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(());
        }
        let bad = || ImportError::Parse { line: lineno, text: line.to_string() };
        let (call, rest) = line.split_once('(').ok_or_else(bad)?;
        let (args, tail) = rest.split_once(')').ok_or_else(bad)?;
        let result = tail.trim().strip_prefix('=').map(str::trim);
        if self.opts.compute_between_events > 0 && self.emitted_any {
            ops.push(Op::Compute { cycles: self.opts.compute_between_events });
        }
        match call.trim() {
            "malloc" | "calloc" => {
                let size = if call.trim() == "calloc" {
                    let (n, sz) = args.split_once(',').ok_or_else(bad)?;
                    let (n, sz) = parse_u64(n).zip(parse_u64(sz)).ok_or_else(bad)?;
                    n.checked_mul(sz).ok_or_else(bad)?
                } else {
                    parse_u64(args).ok_or_else(bad)?
                };
                let ptr = result.and_then(parse_u64).ok_or_else(bad)?;
                let obj = self.take_slot();
                ops.push(Op::Alloc { obj, size: size.max(1) });
                if self.opts.touch_bytes > 0 {
                    ops.push(Op::WriteData { obj, len: size.clamp(1, self.opts.touch_bytes) });
                }
                self.live.insert(ptr, obj);
            }
            "realloc" => {
                let (old, sz) = args.split_once(',').ok_or_else(bad)?;
                let old_ptr = parse_u64(old).ok_or_else(bad)?;
                let size = parse_u64(sz).ok_or_else(bad)?;
                let new_ptr = result.and_then(parse_u64).ok_or_else(bad)?;
                let old_obj = if old_ptr == 0 {
                    None
                } else {
                    Some(
                        self.live
                            .remove(&old_ptr)
                            .ok_or(ImportError::UnknownPointer { line: lineno, ptr: old_ptr })?,
                    )
                };
                let obj = self.take_slot();
                ops.push(Op::Alloc { obj, size: size.max(1) });
                if let Some(old_obj) = old_obj {
                    // Copy then release, as realloc does.
                    ops.push(Op::ReadData { obj: old_obj, len: size.max(1) });
                    ops.push(Op::WriteData {
                        obj,
                        len: size.clamp(1, self.opts.touch_bytes.max(1)),
                    });
                    ops.push(Op::Free { obj: old_obj });
                    self.free_slots.push(old_obj);
                }
                self.live.insert(new_ptr, obj);
            }
            "free" => {
                let ptr = parse_u64(args).ok_or_else(bad)?;
                if ptr == 0 {
                    return Ok(()); // free(NULL): the inter-event compute stays
                }
                let obj = self
                    .live
                    .remove(&ptr)
                    .ok_or(ImportError::UnknownPointer { line: lineno, ptr })?;
                ops.push(Op::Free { obj });
                self.free_slots.push(obj);
            }
            _ => return Err(bad()),
        }
        Ok(())
    }
}

impl OpSource for ImportSource<'_> {
    fn refill(&mut self, buf: &mut Vec<Op>) -> usize {
        let start = buf.len();
        while !self.done && buf.len() - start < OP_BATCH {
            let Some((i, raw)) = self.lines.next() else {
                self.done = true;
                break;
            };
            let before = buf.len();
            if let Err(e) = self.emit_line(i + 1, raw, buf) {
                self.error = Some(e);
                self.done = true;
                break;
            }
            if buf.len() > before {
                self.emitted_any = true;
            }
        }
        buf.len() - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morello_sim::{Condition, SimConfig, System};

    const LOG: &str = "\
# a tiny session
malloc(100) = 0x1000
calloc(4, 32) = 0x2000
realloc(0x1000, 300) = 0x3000
free(0x2000)
free(0)
free(0x3000)
";

    #[test]
    fn parses_the_standard_forms() {
        let (ops, slots) = import_malloc_log(LOG, ImportOptions::default()).unwrap();
        let allocs = ops.iter().filter(|o| matches!(o, Op::Alloc { .. })).count();
        let frees = ops.iter().filter(|o| matches!(o, Op::Free { .. })).count();
        assert_eq!(allocs, 3); // malloc + calloc + realloc's new block
        assert_eq!(frees, 3); // realloc's old block + two frees
        assert!(slots >= 2);
    }

    #[test]
    fn replays_under_the_simulator() {
        let (ops, slots) = import_malloc_log(LOG, ImportOptions::default()).unwrap();
        let cfg = SimConfig::builder()
            .condition(Condition::reloaded())
            .max_objects(slots)
            .build()
            .unwrap();
        let stats = System::new(cfg).run(ops).unwrap();
        assert_eq!(stats.frees, 3);
    }

    #[test]
    fn rejects_double_free_with_line_number() {
        let log = "malloc(8) = 0x10\nfree(0x10)\nfree(0x10)\n";
        match import_malloc_log(log, ImportOptions::default()) {
            Err(ImportError::UnknownPointer { line: 3, ptr: 0x10 }) => {}
            other => panic!("expected UnknownPointer at line 3, got {other:?}"),
        }
    }

    #[test]
    fn rejects_garbage_with_line_number() {
        let log = "malloc(8) = 0x10\nmunmap(0x10)\n";
        assert!(matches!(
            import_malloc_log(log, ImportOptions::default()),
            Err(ImportError::Parse { line: 2, .. })
        ));
    }

    #[test]
    fn pointer_values_may_be_decimal_or_hex() {
        let log = "malloc(16) = 4096\nfree(0x1000)\n";
        let (ops, _) = import_malloc_log(log, ImportOptions::default()).unwrap();
        assert_eq!(ops.iter().filter(|o| matches!(o, Op::Free { .. })).count(), 1);
    }

    #[test]
    fn log_fixture_translates_to_the_expected_ops() {
        let compute = Op::Compute { cycles: ImportOptions::default().compute_between_events };
        let expected = vec![
            // malloc(100) = 0x1000: first event, no leading compute.
            Op::Alloc { obj: 0, size: 100 },
            Op::WriteData { obj: 0, len: 100 },
            compute,
            // calloc(4, 32) = 0x2000
            Op::Alloc { obj: 1, size: 128 },
            Op::WriteData { obj: 1, len: 128 },
            compute,
            // realloc(0x1000, 300) = 0x3000: new block, copy, release old.
            Op::Alloc { obj: 2, size: 300 },
            Op::ReadData { obj: 0, len: 300 },
            Op::WriteData { obj: 2, len: 300 },
            Op::Free { obj: 0 },
            compute,
            // free(0x2000)
            Op::Free { obj: 1 },
            // free(0): a no-op that keeps its inter-event compute.
            compute,
            compute,
            // free(0x3000)
            Op::Free { obj: 2 },
        ];
        let mut src = ImportSource::new(LOG, ImportOptions::default());
        let streamed = (&mut src).collect_ops();
        assert!(src.error().is_none());
        assert_eq!(streamed, expected);
        assert_eq!(src.slots_used(), 3);
    }

    #[test]
    fn calloc_size_overflow_is_a_parse_error_with_line_number() {
        let log = "malloc(8) = 0x8\ncalloc(18446744073709551615, 2) = 0x10\n";
        assert_eq!(
            import_malloc_log(log, ImportOptions::default()),
            Err(ImportError::Parse { line: 2, text: log.lines().nth(1).unwrap().to_string() })
        );
    }

    #[test]
    fn streaming_import_surfaces_errors_after_exhaustion() {
        let log = "malloc(8) = 0x10\nfree(0x10)\nfree(0x10)\n";
        let mut src = ImportSource::new(log, ImportOptions::default());
        let mut streamed = Vec::new();
        while src.refill(&mut streamed) > 0 {}
        assert!(!streamed.is_empty(), "valid prefix still streams");
        assert_eq!(
            src.take_error(),
            Some(ImportError::UnknownPointer { line: 3, ptr: 0x10 })
        );
    }

    #[test]
    fn realloc_null_acts_like_malloc() {
        let log = "realloc(0, 64) = 0x1000\nfree(0x1000)\n";
        let (ops, _) = import_malloc_log(log, ImportOptions::default()).unwrap();
        assert_eq!(ops.iter().filter(|o| matches!(o, Op::Alloc { .. })).count(), 1);
        assert_eq!(ops.iter().filter(|o| matches!(o, Op::Free { .. })).count(), 1);
    }
}
