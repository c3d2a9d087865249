//! Simulation configuration: the measured condition, the machine/heap
//! shape, and the validating builder every caller constructs it through.
//!
//! [`SimConfig`] fields are crate-private: outside the simulator it can
//! only be obtained from [`SimConfig::default`] or a
//! [`SimConfigBuilder`], both of which guarantee the invariants that
//! [`crate::System::new`] relies on (a non-empty page-aligned arena, a
//! root table that fits, at least one revoker thread, ...).
//! Invalid combinations are rejected with a typed [`ConfigError`] at
//! build time instead of a panic mid-run.

use cheri_cap::CAP_SIZE;
use cheri_mem::PAGE_SIZE;
use cornucopia::{PteUpdateMode, Strategy};
use std::fmt;

/// Which condition a run measures: the spatial-safety-only baseline, or a
/// temporal-safety strategy (paper §5: every figure normalizes against the
/// same CHERI pure-capability baseline binary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Condition {
    /// snmalloc without mrs: immediate reuse, no quarantine, no revoker.
    Baseline,
    /// mrs + the given revocation strategy.
    Safe(Strategy),
}

impl Condition {
    /// The no-revocation baseline.
    #[must_use]
    pub fn baseline() -> Self {
        Condition::Baseline
    }

    /// Cornucopia Reloaded.
    #[must_use]
    pub fn reloaded() -> Self {
        Condition::Safe(Strategy::Reloaded)
    }

    /// Cornucopia (re-implementation).
    #[must_use]
    pub fn cornucopia() -> Self {
        Condition::Safe(Strategy::Cornucopia)
    }

    /// CHERIvoke (Cornucopia without the concurrent phase).
    #[must_use]
    pub fn cherivoke() -> Self {
        Condition::Safe(Strategy::CheriVoke)
    }

    /// Paint+sync (quarantine bookkeeping only; no safety).
    #[must_use]
    pub fn paint_sync() -> Self {
        Condition::Safe(Strategy::PaintSync)
    }

    /// Display label matching the paper's figures.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Condition::Baseline => "baseline",
            Condition::Safe(s) => s.label(),
        }
    }
}

/// Whether the telemetry layer records, and how often it samples (off by
/// default: an untraced run's statistics equal a traced run's, and its
/// recorder stays empty).
///
/// On is [`TelemetryConfig::full`]: the event journal, the revocation
/// spans, and a counter sample every `interval` simulated cycles. The
/// journal and series are rings of fixed capacity (1 Mi events, 4096
/// samples); evictions are counted in the report, never silent.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetryConfig {
    sample_interval: Option<u64>,
}

impl TelemetryConfig {
    /// Everything on: sampling every `interval` cycles plus the event
    /// journal and span records. `interval` must be nonzero
    /// ([`ConfigError::ZeroSampleInterval`]).
    #[must_use]
    pub fn full(interval: u64) -> Self {
        TelemetryConfig { sample_interval: Some(interval) }
    }

    /// The sampling period, `None` when telemetry is off.
    pub(crate) fn sample_interval(&self) -> Option<u64> {
        self.sample_interval
    }
}

/// Simulation configuration (defaults reproduce §5.1's setup at 1/64
/// memory scale: app pinned to core 3, revoker to core 2).
///
/// Construct via [`SimConfig::builder`] (or start from an existing config
/// with [`SimConfig::to_builder`] / [`SimConfig::with_condition`]):
///
/// ```
/// use morello_sim::{Condition, SimConfig};
///
/// let cfg = SimConfig::builder()
///     .revoker_threads(4)
///     .condition(Condition::reloaded())
///     .max_objects(1 << 12)
///     .build()
///     .unwrap();
/// assert_eq!(cfg.max_objects(), 1 << 12);
/// ```
#[derive(Debug, Clone)]
pub struct SimConfig {
    pub(crate) condition: Condition,
    pub(crate) heap_len: u64,
    pub(crate) max_objects: u64,
    pub(crate) min_quarantine: u64,
    pub(crate) quarantine_divisor: u64,
    pub(crate) app_threads: usize,
    pub(crate) spare_revoker_core: bool,
    pub(crate) pte_mode: PteUpdateMode,
    pub(crate) revoker_threads: usize,
    pub(crate) colors: u8,
    pub(crate) tx_interval: Option<u64>,
    pub(crate) latency_from_arrival: bool,
    pub(crate) telemetry: TelemetryConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            condition: Condition::reloaded(),
            heap_len: 64 << 20,
            max_objects: 1 << 16,
            min_quarantine: 128 << 10, // 8 MiB / 64
            quarantine_divisor: 3,
            app_threads: 1,
            spare_revoker_core: true,
            pte_mode: PteUpdateMode::Generation,
            revoker_threads: 1,
            colors: 0,
            tx_interval: None,
            latency_from_arrival: false,
            telemetry: TelemetryConfig::default(),
        }
    }
}

/// One tunable [`SimConfig`] field, with its one text form: the
/// vocabulary of trace `#!sim.<field>` keys and of ablation cell keys.
#[derive(Debug)]
pub struct ConfigField {
    /// The field's name.
    pub name: &'static str,
    /// Its value in a config, as the text [`SimConfigBuilder::set`] reads.
    pub get: fn(&SimConfig) -> String,
    set: fn(SimConfigBuilder, &str) -> Option<SimConfigBuilder>,
}

/// A field written with `Display` and read back with `FromStr`.
macro_rules! plain_field {
    ($name:ident) => {
        ConfigField {
            name: stringify!($name),
            get: |c| c.$name.to_string(),
            set: |b, v| Some(b.$name(v.parse().ok()?)),
        }
    };
}

impl SimConfig {
    /// Every field a workload tunes or an ablation departs from: all but
    /// the condition (a replay or a cell chooses it) and telemetry.
    pub const FIELDS: [ConfigField; 11] = [
        plain_field!(heap_len),
        plain_field!(max_objects),
        plain_field!(min_quarantine),
        plain_field!(quarantine_divisor),
        plain_field!(app_threads),
        plain_field!(spare_revoker_core),
        plain_field!(revoker_threads),
        plain_field!(colors),
        plain_field!(latency_from_arrival),
        ConfigField {
            name: "tx_interval",
            get: |c| c.tx_interval.map_or_else(|| "none".to_string(), |t| t.to_string()),
            set: |b, v| Some(b.tx_interval(if v == "none" { None } else { Some(v.parse().ok()?) })),
        },
        ConfigField {
            name: "pte_mode",
            get: |c| match c.pte_mode {
                PteUpdateMode::Generation => "generation".to_string(),
                PteUpdateMode::RewriteEachEpoch => "rewrite-each-epoch".to_string(),
            },
            set: |b, v| match v {
                "generation" => Some(b.pte_mode(PteUpdateMode::Generation)),
                "rewrite-each-epoch" => Some(b.pte_mode(PteUpdateMode::RewriteEachEpoch)),
                _ => None,
            },
        },
    ];

    /// A builder seeded with the paper defaults.
    #[must_use]
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder::default()
    }

    /// A builder seeded with this configuration (for deriving variants).
    #[must_use]
    pub fn to_builder(&self) -> SimConfigBuilder {
        SimConfigBuilder { cfg: self.clone() }
    }

    /// This configuration with the condition swapped — the common "same
    /// workload, every strategy" sweep. Infallible: the condition does not
    /// participate in any validated invariant.
    #[must_use]
    pub fn with_condition(mut self, condition: Condition) -> Self {
        self.condition = condition;
        self
    }

    /// Root-table capacity (max simultaneously-tracked objects).
    #[must_use]
    pub fn max_objects(&self) -> u64 {
        self.max_objects
    }

    /// mrs minimum quarantine in bytes.
    #[must_use]
    pub fn min_quarantine(&self) -> u64 {
        self.min_quarantine
    }

    /// Fixed transaction arrival interval in cycles, if rate-scheduled.
    #[must_use]
    pub fn tx_interval(&self) -> Option<u64> {
        self.tx_interval
    }
}

/// Rejected [`SimConfigBuilder`] combinations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// [`SimConfigBuilder::set`] named no [`SimConfig::FIELDS`] row.
    UnknownField(String),
    /// [`SimConfigBuilder::set`]'s text does not parse as the field's value.
    Unparsable {
        /// The field.
        field: &'static str,
        /// The refused text.
        value: String,
    },
    /// `revoker_threads` was zero — the safe conditions need
    /// at least one background revoker core.
    ZeroRevokerThreads,
    /// `app_threads` was zero — there is always at least the driving
    /// application thread.
    ZeroAppThreads,
    /// The heap arena is empty or not a whole number of pages.
    BadHeapLen {
        /// The rejected length.
        len: u64,
    },
    /// `max_objects` was zero.
    ZeroMaxObjects,
    /// The root table (`max_objects * 16` bytes) would not leave room for
    /// application objects in the arena.
    RootTableTooLarge {
        /// Bytes the root table needs.
        table_bytes: u64,
        /// The arena length it must fit (comfortably) inside.
        heap_len: u64,
    },
    /// `quarantine_divisor` was zero (division by zero in the policy).
    ZeroQuarantineDivisor,
    /// `tx_interval` was `Some(0)` — a zero-cycle schedule is meaningless.
    ZeroTxInterval,
    /// Telemetry was enabled with a zero-cycle sampling interval.
    ZeroSampleInterval,
    /// `colors` was neither 0 (plain quarantine) nor in `2..=16`.
    BadColors {
        /// The rejected colour count.
        colors: u8,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::UnknownField(name) => write!(f, "{name:?} is not a configuration field"),
            ConfigError::Unparsable { field, value } => write!(f, "unparsable {field} value {value:?}"),
            ConfigError::ZeroRevokerThreads => {
                f.write_str("revoker_threads must be at least 1 (zero revoker cores)")
            }
            ConfigError::ZeroAppThreads => f.write_str("app_threads must be at least 1"),
            ConfigError::BadHeapLen { len } => {
                write!(f, "heap_len {len:#x} must be a nonzero multiple of the page size")
            }
            ConfigError::ZeroMaxObjects => f.write_str("max_objects must be at least 1"),
            ConfigError::RootTableTooLarge { table_bytes, heap_len } => write!(
                f,
                "root table of {table_bytes} bytes does not fit a {heap_len}-byte arena \
                 (must be at most a quarter of it)"
            ),
            ConfigError::ZeroQuarantineDivisor => f.write_str("quarantine_divisor must be at least 1"),
            ConfigError::ZeroTxInterval => f.write_str("tx_interval must be nonzero when set"),
            ConfigError::ZeroSampleInterval => {
                f.write_str("telemetry sampling interval must be nonzero")
            }
            ConfigError::BadColors { colors } => {
                write!(f, "colors {colors} must be 0 (plain quarantine) or in 2..=16")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl ConfigError {
    /// The field a rejection is about: a [`SimConfig::FIELDS`] name, the
    /// unknown name, or `telemetry`.
    #[must_use]
    pub fn field(&self) -> &str {
        match self {
            ConfigError::UnknownField(name) => name,
            ConfigError::Unparsable { field, .. } => field,
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
}

/// Validating builder for [`SimConfig`]. Obtained from
/// [`SimConfig::builder`] (paper defaults) or [`SimConfig::to_builder`];
/// finished with [`SimConfigBuilder::build`].
#[derive(Debug, Clone, Default)]
pub struct SimConfigBuilder {
    cfg: SimConfig,
}

impl SimConfigBuilder {
    /// Sets the measured condition.
    #[must_use]
    pub fn condition(mut self, condition: Condition) -> Self {
        self.cfg.condition = condition;
        self
    }

    /// Sets the heap arena length in bytes (nonzero, page-multiple).
    #[must_use]
    pub fn heap_len(mut self, len: u64) -> Self {
        self.cfg.heap_len = len;
        self
    }

    /// Sets the root-table capacity (max simultaneously-live objects).
    #[must_use]
    pub fn max_objects(mut self, n: u64) -> Self {
        self.cfg.max_objects = n;
        self
    }

    /// Sets the mrs minimum quarantine in bytes.
    #[must_use]
    pub fn min_quarantine(mut self, bytes: u64) -> Self {
        self.cfg.min_quarantine = bytes;
        self
    }

    /// Sets the mrs quarantine divisor.
    #[must_use]
    pub fn quarantine_divisor(mut self, divisor: u64) -> Self {
        self.cfg.quarantine_divisor = divisor;
        self
    }

    /// Sets the number of busy application threads.
    #[must_use]
    pub fn app_threads(mut self, n: usize) -> Self {
        self.cfg.app_threads = n;
        self
    }

    /// Sets whether the revoker has a spare core to itself.
    #[must_use]
    pub fn spare_revoker_core(mut self, spare: bool) -> Self {
        self.cfg.spare_revoker_core = spare;
        self
    }

    /// Sets the PTE maintenance mode (§4.1 ablation).
    #[must_use]
    pub fn pte_mode(mut self, mode: PteUpdateMode) -> Self {
        self.cfg.pte_mode = mode;
        self
    }

    /// Sets the number of background revoker threads (§7.1 ablation).
    /// Must be at least 1.
    #[must_use]
    pub fn revoker_threads(mut self, n: usize) -> Self {
        self.cfg.revoker_threads = n;
        self
    }

    /// Sets the memory colours per heap region (§7.3 composition): 0 is
    /// plain quarantine, 2..=16 recolours on free and quarantines only
    /// regions whose colours ran out.
    #[must_use]
    pub fn colors(mut self, colors: u8) -> Self {
        self.cfg.colors = colors;
        self
    }

    /// Sets the fixed transaction arrival interval in cycles (`None` runs
    /// transactions back-to-back). Accepts `u64` or `Option<u64>`.
    #[must_use]
    pub fn tx_interval(mut self, interval: impl Into<Option<u64>>) -> Self {
        self.cfg.tx_interval = interval.into();
        self
    }

    /// Measures transaction latency from scheduled arrival (open-loop).
    #[must_use]
    pub fn latency_from_arrival(mut self, on: bool) -> Self {
        self.cfg.latency_from_arrival = on;
        self
    }

    /// Sets the telemetry setting ([`TelemetryConfig::full`] turns it on).
    #[must_use]
    pub fn telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.cfg.telemetry = telemetry;
        self
    }

    /// Sets the [`SimConfig::FIELDS`] row named `field` from its text form.
    ///
    /// # Errors
    ///
    /// [`ConfigError::UnknownField`] or [`ConfigError::Unparsable`].
    pub fn set(self, field: &str, value: &str) -> Result<Self, ConfigError> {
        let Some(row) = SimConfig::FIELDS.iter().find(|row| row.name == field) else {
            return Err(ConfigError::UnknownField(field.to_string()));
        };
        (row.set)(self, value)
            .ok_or_else(|| ConfigError::Unparsable { field: row.name, value: value.to_string() })
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first invariant violated.
    pub fn build(self) -> Result<SimConfig, ConfigError> {
        let c = self.cfg;
        if c.revoker_threads == 0 {
            return Err(ConfigError::ZeroRevokerThreads);
        }
        if c.app_threads == 0 {
            return Err(ConfigError::ZeroAppThreads);
        }
        if c.heap_len == 0 || !c.heap_len.is_multiple_of(PAGE_SIZE) {
            return Err(ConfigError::BadHeapLen { len: c.heap_len });
        }
        if c.max_objects == 0 {
            return Err(ConfigError::ZeroMaxObjects);
        }
        let table_bytes = c
            .max_objects
            .checked_mul(CAP_SIZE)
            .ok_or(ConfigError::RootTableTooLarge { table_bytes: u64::MAX, heap_len: c.heap_len })?;
        if table_bytes > c.heap_len / 4 {
            return Err(ConfigError::RootTableTooLarge { table_bytes, heap_len: c.heap_len });
        }
        if c.quarantine_divisor == 0 {
            return Err(ConfigError::ZeroQuarantineDivisor);
        }
        if c.colors == 1 || c.colors > 16 {
            return Err(ConfigError::BadColors { colors: c.colors });
        }
        if c.tx_interval == Some(0) {
            return Err(ConfigError::ZeroTxInterval);
        }
        if c.telemetry.sample_interval == Some(0) {
            return Err(ConfigError::ZeroSampleInterval);
        }
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        SimConfig::default().to_builder().build().unwrap();
    }

    #[test]
    fn builder_sets_fields() {
        let cfg = SimConfig::builder()
            .revoker_threads(4)
            .condition(Condition::cornucopia())
            .heap_len(8 << 20)
            .max_objects(1 << 10)
            .min_quarantine(64 << 10)
            .tx_interval(1_000_000)
            .telemetry(TelemetryConfig::full(50_000))
            .build()
            .unwrap();
        assert_eq!(cfg.revoker_threads, 4);
        assert_eq!(cfg.condition, Condition::cornucopia());
        assert_eq!(cfg.heap_len, 8 << 20);
        assert_eq!(cfg.tx_interval(), Some(1_000_000));
        assert_eq!(cfg.telemetry.sample_interval(), Some(50_000));
    }

    #[test]
    fn zero_revoker_cores_rejected() {
        assert_eq!(
            SimConfig::builder().revoker_threads(0).build().unwrap_err(),
            ConfigError::ZeroRevokerThreads
        );
    }

    #[test]
    fn invalid_combos_rejected() {
        assert_eq!(
            SimConfig::builder().app_threads(0).build().unwrap_err(),
            ConfigError::ZeroAppThreads
        );
        assert_eq!(
            SimConfig::builder().heap_len(0).build().unwrap_err(),
            ConfigError::BadHeapLen { len: 0 }
        );
        assert_eq!(
            SimConfig::builder().heap_len(4096 + 13).build().unwrap_err(),
            ConfigError::BadHeapLen { len: 4096 + 13 }
        );
        assert_eq!(
            SimConfig::builder().max_objects(0).build().unwrap_err(),
            ConfigError::ZeroMaxObjects
        );
        assert!(matches!(
            SimConfig::builder().heap_len(1 << 20).build().unwrap_err(),
            ConfigError::RootTableTooLarge { .. }
        ));
        assert_eq!(
            SimConfig::builder().quarantine_divisor(0).build().unwrap_err(),
            ConfigError::ZeroQuarantineDivisor
        );
        assert_eq!(
            SimConfig::builder().tx_interval(0).build().unwrap_err(),
            ConfigError::ZeroTxInterval
        );
        assert_eq!(
            SimConfig::builder().telemetry(TelemetryConfig::full(0)).build().unwrap_err(),
            ConfigError::ZeroSampleInterval
        );
    }

    #[test]
    fn color_counts_outside_0_and_2_to_16_are_rejected() {
        for colors in [1, 17] {
            assert_eq!(
                SimConfig::builder().colors(colors).build().unwrap_err(),
                ConfigError::BadColors { colors }
            );
        }
        for colors in [0, 2, 16] {
            assert_eq!(SimConfig::builder().colors(colors).build().unwrap().colors, colors);
        }
    }

    #[test]
    fn with_condition_preserves_everything_else() {
        let a = SimConfig::builder().heap_len(16 << 20).build().unwrap();
        let b = a.clone().with_condition(Condition::baseline());
        assert_eq!(b.condition, Condition::baseline());
        assert_eq!(b.heap_len, a.heap_len);
        assert_eq!(b.revoker_threads, a.revoker_threads);
    }

    #[test]
    fn a_by_name_set_is_a_typed_error_naming_the_field() {
        let e = SimConfig::builder().set("bogus", "1").unwrap_err();
        assert_eq!(e, ConfigError::UnknownField("bogus".to_string()));
        assert!(e.field() == "bogus" && e.to_string().contains("bogus"), "{e}");
        for (name, value) in [
            ("heap_len", "64MiB"),
            ("colors", "300"),
            ("spare_revoker_core", "yes"),
            ("pte_mode", "RewriteEachEpoch"),
            ("tx_interval", "-1"),
            ("revoker_threads", ""),
        ] {
            match SimConfig::builder().set(name, value) {
                Err(e @ ConfigError::Unparsable { .. }) => {
                    assert!(e.field() == name && e.to_string().contains(name), "{e}");
                }
                other => panic!("{name}={value}: {other:?}"),
            }
        }
        // A value that parses but breaks an invariant is `build`'s to refuse.
        let e = SimConfig::builder().set("colors", "1").unwrap().build().unwrap_err();
        assert_eq!(e.field(), "colors");
    }

    #[test]
    fn errors_display() {
        for e in [
            ConfigError::ZeroRevokerThreads,
            ConfigError::BadHeapLen { len: 13 },
            ConfigError::RootTableTooLarge { table_bytes: 1 << 20, heap_len: 1 << 20 },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
