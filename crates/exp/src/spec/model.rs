//! The typed scenario model: [`RunSpec`] and everything under it.
//!
//! A spec file extracts itself into this tree via [`FromValue`]; every
//! extraction error carries the dotted key path and source line, which
//! `mimo-exp run` prefixes with the file name. `[cluster]` reads straight
//! onto the runtime's own [`ClusterConfig`], whose `validate` runs at
//! parse time and reports at the section's line (a fleet is a one-chip
//! cluster), and `[loop]` builds its plant to check the app name, so a
//! spec that parses is a spec the runtime accepts. Semantic checks that
//! need more than one key (phase ordering, assertion/kind compatibility,
//! bounds) live in [`RunSpec::validate`] so parse errors and validation
//! errors read the same way.

use mimo_fleet::{ArbitrationPolicy, ClusterConfig};
use mimo_sim::fault::{FaultKind, FaultSpec};
use mimo_sim::llc::LlcConfig;
use mimo_sim::InputSet;

use super::value::{join, DeError, DeResult, FromValue, Spanned, Table, Value};

/// Current spec schema version; bump on incompatible format changes.
pub const SCHEMA_VERSION: i64 = 1;

/// A complete declarative scenario: what to run plus what to expect.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Scenario name; CSVs from non-paper kinds land in `<name>.csv`.
    pub name: String,
    /// What to run.
    pub scenario: Scenario,
    /// Expected-outcome assertions, checked after the run.
    pub asserts: Asserts,
}

/// The three scenario kinds, keyed by the top-level `kind` string.
#[derive(Debug, Clone, PartialEq)]
pub enum Scenario {
    /// `kind = "paper"`: one of the named paper experiments, byte-for-byte
    /// the run the matching subcommand performs.
    Paper(PaperExperiment),
    /// `kind = "loop"`: a single governed core driven through a
    /// piecewise-constant reference schedule.
    Loop(LoopSpec),
    /// `kind = "cluster"`: chips × cores under a cluster-level arbiter (a
    /// one-chip cluster is a fleet).
    Cluster(ClusterConfig),
}

impl Scenario {
    /// The `kind` string this scenario was declared with.
    pub fn kind(&self) -> &'static str {
        match self {
            Scenario::Paper(_) => "paper",
            Scenario::Loop(_) => "loop",
            Scenario::Cluster(_) => "cluster",
        }
    }
}

/// The named paper experiments `kind = "paper"` can dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaperExperiment {
    /// Figure 6 / Table V: weight-choice sensitivity.
    Fig06,
    /// Figure 7: model error vs state dimension.
    Fig07,
    /// Figure 8: convergence under uncertainty guardbands.
    Fig08,
    /// Figure 9: E×D minimization, 2 inputs.
    Fig09,
    /// Figure 10: E×D minimization, 3 inputs.
    Fig10,
    /// Figure 11: tracking-error scatter.
    Fig11,
    /// Figure 12: time-varying (QoE/battery) tracking.
    Fig12,
    /// §VIII-F text: E and E×D² reductions.
    TabOpt,
    /// Fleet sizes × worker counts under one chip budget.
    FleetScale,
    /// Chips × cores-per-chip under one datacenter budget.
    ClusterScale,
    /// Fault rate × arbitration policy on a 16-core fleet.
    FaultSweep,
}

impl PaperExperiment {
    /// Every experiment, in the order `run all` executes them.
    pub const ALL: [PaperExperiment; 11] = [
        PaperExperiment::Fig06,
        PaperExperiment::Fig07,
        PaperExperiment::Fig08,
        PaperExperiment::Fig09,
        PaperExperiment::Fig10,
        PaperExperiment::Fig11,
        PaperExperiment::Fig12,
        PaperExperiment::TabOpt,
        PaperExperiment::FleetScale,
        PaperExperiment::ClusterScale,
        PaperExperiment::FaultSweep,
    ];

    /// The CLI-facing name (also the `experiment` key's vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            PaperExperiment::Fig06 => "fig06",
            PaperExperiment::Fig07 => "fig07",
            PaperExperiment::Fig08 => "fig08",
            PaperExperiment::Fig09 => "fig09",
            PaperExperiment::Fig10 => "fig10",
            PaperExperiment::Fig11 => "fig11",
            PaperExperiment::Fig12 => "fig12",
            PaperExperiment::TabOpt => "tab-opt",
            PaperExperiment::FleetScale => "fleet-scale",
            PaperExperiment::ClusterScale => "cluster-scale",
            PaperExperiment::FaultSweep => "fault-sweep",
        }
    }

    fn parse(v: &Spanned, path: &str) -> DeResult<Self> {
        let s = String::from_value(v, path)?;
        Self::ALL
            .into_iter()
            .find(|e| e.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = Self::ALL.iter().map(|e| e.name()).collect();
                DeError::at(
                    path,
                    v.line,
                    format!(
                        "unknown experiment {s:?} (expected one of: {})",
                        names.join(", ")
                    ),
                )
            })
    }
}

/// `kind = "loop"`: one governed core, one reference schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopSpec {
    /// Workload name (any catalog app).
    pub app: String,
    /// Actuator set (default `freq_cache`).
    pub input_set: InputSet,
    /// Governor (default `mimo`).
    pub governor: GovernorKind,
    /// Base RNG seed (default 2016).
    pub seed: u64,
    /// Epochs to run (`--epochs` overrides).
    pub epochs: usize,
    /// Piecewise-constant reference schedule, strictly increasing epochs
    /// starting at 0.
    pub phases: Vec<PhaseSpec>,
}

/// One step of a reference schedule: from `epoch` on, track
/// (`ips`, `power`).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSpec {
    /// First epoch this reference is in force.
    pub epoch: usize,
    /// IPS target, BIPS.
    pub ips: f64,
    /// Power target, watts.
    pub power: f64,
}

/// Governors a loop scenario can install.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GovernorKind {
    /// The paper's MIMO LQG controller.
    Mimo,
    /// Per-channel decoupled SISO controllers.
    Decoupled,
}

// ---------------------------------------------------------------------------
// Assertions
// ---------------------------------------------------------------------------

/// Expected-outcome assertions, all optional.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Asserts {
    /// CSV files the run must produce (relative to the results dir).
    pub csv: Vec<String>,
    /// Golden digests, each gated on an exact epoch count.
    pub digest: Vec<DigestAssert>,
    /// Aggregate tracking-error ceilings.
    pub tracking_error: Vec<TrackingErrorAssert>,
    /// Bounds on quarantined cores (cluster kind).
    pub quarantined: Option<QuarantinedAssert>,
    /// Byte-identity of CSV output across worker/shard counts.
    pub invariant: Option<InvariantAssert>,
}

/// A golden digest pin: checked only when the run's effective epoch count
/// equals `epochs` (so `--epochs 50` CI runs skip it instead of failing).
#[derive(Debug, Clone, PartialEq)]
pub struct DigestAssert {
    /// Epoch count the digest was recorded at.
    pub epochs: usize,
    /// Expected digest (16 hex digits).
    pub value: u64,
}

/// Output channels a tracking-error assertion can bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputChannel {
    /// Instruction throughput.
    Ips,
    /// Power.
    Power,
}

impl OutputChannel {
    /// Lower-case label, as written in specs.
    pub fn name(self) -> &'static str {
        match self {
            OutputChannel::Ips => "ips",
            OutputChannel::Power => "power",
        }
    }
}

/// Mean tracking error on `output` must stay at or under `max_pct`.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackingErrorAssert {
    /// Which output channel.
    pub output: OutputChannel,
    /// Ceiling, percent.
    pub max_pct: f64,
    /// Optional epoch gate: when set, the bound is only checked at
    /// exactly this epoch count (so `--epochs 50` smoke runs skip it).
    pub epochs: Option<usize>,
}

/// Quarantined-core count must land in `[min, max]`.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantinedAssert {
    /// Minimum quarantined cores (default 0).
    pub min: usize,
    /// Maximum quarantined cores (default unbounded).
    pub max: usize,
    /// Optional epoch gate (see [`TrackingErrorAssert::epochs`]).
    pub epochs: Option<usize>,
}

/// Re-run the scenario at each listed parallelism and require the
/// produced CSV bytes to be identical.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct InvariantAssert {
    /// Worker counts to compare (paper/loop kinds).
    pub jobs: Vec<usize>,
    /// Shard counts to compare (cluster kind, and `cluster-scale`).
    pub shards: Vec<usize>,
}

// ---------------------------------------------------------------------------
// FromValue impls
// ---------------------------------------------------------------------------

fn table<'v>(v: &'v Spanned, path: &str) -> DeResult<&'v Table> {
    match &v.value {
        Value::Table(t) => Ok(t),
        _ => Err(DeError::mismatch(path, v, "table")),
    }
}

fn parse_keyword<T: Copy>(v: &Spanned, path: &str, what: &str, opts: &[(&str, T)]) -> DeResult<T> {
    let s = String::from_value(v, path)?;
    opts.iter()
        .find(|(name, _)| *name == s)
        .map(|&(_, t)| t)
        .ok_or_else(|| {
            let names: Vec<&str> = opts.iter().map(|&(n, _)| n).collect();
            DeError::at(
                path,
                v.line,
                format!(
                    "unknown {what} {s:?} (expected one of: {})",
                    names.join(", ")
                ),
            )
        })
}

fn input_set(t: &Table, path: &str) -> DeResult<Option<InputSet>> {
    match t.get("input_set") {
        None => Ok(None),
        Some(v) => parse_keyword(
            v,
            &join(path, "input_set"),
            "input set",
            &[
                ("freq_cache", InputSet::FreqCache),
                ("freq_cache_rob", InputSet::FreqCacheRob),
            ],
        )
        .map(Some),
    }
}

fn policy(t: &Table, path: &str) -> DeResult<Option<ArbitrationPolicy>> {
    match t.get("policy") {
        None => Ok(None),
        Some(v) => parse_keyword(
            v,
            &join(path, "policy"),
            "policy",
            &[
                ("uniform", ArbitrationPolicy::Uniform),
                ("proportional", ArbitrationPolicy::Proportional),
                ("priority", ArbitrationPolicy::PriorityWeighted),
            ],
        )
        .map(Some),
    }
}

fn targets(t: &Table, path: &str) -> DeResult<Option<[f64; 2]>> {
    let pair: Option<Vec<f64>> = t.field_opt("targets", path)?;
    match pair {
        None => Ok(None),
        Some(v) if v.len() == 2 => Ok(Some([v[0], v[1]])),
        Some(v) => {
            let node = t.get("targets").expect("just read it");
            Err(DeError::at(
                join(path, "targets"),
                node.line,
                format!("targets needs exactly [ips, power], got {} items", v.len()),
            ))
        }
    }
}

impl FromValue for PhaseSpec {
    fn from_value(v: &Spanned, path: &str) -> DeResult<Self> {
        let t = table(v, path)?;
        t.deny_unknown(&["epoch", "ips", "power"], path)?;
        Ok(PhaseSpec {
            epoch: t.field("epoch", path, v.line)?,
            ips: t.field("ips", path, v.line)?,
            power: t.field("power", path, v.line)?,
        })
    }
}

/// Parses a `[….llc]` table into the contention model of a chip with
/// `cores` cores.
fn llc(v: &Spanned, path: &str, cores: usize) -> DeResult<LlcConfig> {
    let t = table(v, path)?;
    t.deny_unknown(&["total_ways", "sensitivity"], path)?;
    let mut llc = LlcConfig::for_cores(cores).total_ways(t.field("total_ways", path, v.line)?);
    if let Some(s) = t.field_opt("sensitivity", path)? {
        llc = llc.sensitivity(s);
    }
    Ok(llc)
}

/// Parses one `[[cluster.faults]]` entry into `(chip, core, window)`.
fn core_fault(v: &Spanned, path: &str) -> DeResult<(usize, usize, FaultSpec)> {
    let t = table(v, path)?;
    t.deny_unknown(
        &[
            "chip", "core", "kind", "channel", "input", "value", "factor", "start", "duration",
        ],
        path,
    )?;
    let chip = t.field("chip", path, v.line)?;

    // Per-kind payload keys; anything from another kind's vocabulary is
    // caught by `only`.
    let kind_node = t
        .get("kind")
        .ok_or_else(|| DeError::at(join(path, "kind"), v.line, "missing required key"))?;
    let only = |allowed: &[&str]| -> DeResult<()> {
        for key in ["channel", "input", "value", "factor"] {
            if let Some(node) = t.get(key) {
                if !allowed.contains(&key) {
                    return Err(DeError::at(
                        join(path, key),
                        node.line,
                        format!(
                            "not a key of this fault kind (takes: {})",
                            allowed.join(", ")
                        ),
                    ));
                }
            }
        }
        Ok(())
    };
    let kind_name = String::from_value(kind_node, &join(path, "kind"))?;
    let kind = match kind_name.as_str() {
        "stuck_sensor" => {
            only(&["channel"])?;
            FaultKind::StuckSensor {
                channel: t.field("channel", path, v.line)?,
            }
        }
        "nan_measurement" => {
            only(&["channel"])?;
            FaultKind::NanMeasurement {
                channel: t.field("channel", path, v.line)?,
            }
        }
        "actuator_stuck_at" => {
            only(&["input", "value"])?;
            FaultKind::ActuatorStuckAt {
                input: t.field("input", path, v.line)?,
                value: t.field("value", path, v.line)?,
            }
        }
        "power_spike" => {
            only(&["factor"])?;
            FaultKind::PowerSpike {
                factor: t.field("factor", path, v.line)?,
            }
        }
        other => {
            return Err(DeError::at(
                join(path, "kind"),
                kind_node.line,
                format!(
                    "unknown fault kind {other:?} (expected one of: stuck_sensor, \
                     nan_measurement, actuator_stuck_at, power_spike)"
                ),
            ))
        }
    };
    Ok((
        chip,
        t.field("core", path, v.line)?,
        FaultSpec {
            kind,
            start_epoch: t.field("start", path, v.line)?,
            duration: t.field_or("duration", path, u64::MAX)?,
        },
    ))
}

fn core_faults(t: &Table, path: &str) -> DeResult<Vec<(usize, usize, FaultSpec)>> {
    match t.get("faults") {
        None => Ok(Vec::new()),
        Some(v) => match &v.value {
            Value::Array(items) => items
                .iter()
                .enumerate()
                .map(|(i, item)| core_fault(item, &format!("{}[{i}]", join(path, "faults"))))
                .collect(),
            _ => Err(DeError::mismatch(
                &join(path, "faults"),
                v,
                "array of tables",
            )),
        },
    }
}

impl FromValue for LoopSpec {
    fn from_value(v: &Spanned, path: &str) -> DeResult<Self> {
        let t = table(v, path)?;
        t.deny_unknown(
            &["app", "input_set", "governor", "seed", "epochs", "phases"],
            path,
        )?;
        let governor = match t.get("governor") {
            None => GovernorKind::Mimo,
            Some(g) => parse_keyword(
                g,
                &join(path, "governor"),
                "governor",
                &[
                    ("mimo", GovernorKind::Mimo),
                    ("decoupled", GovernorKind::Decoupled),
                ],
            )?,
        };
        let spec = LoopSpec {
            app: t.field("app", path, v.line)?,
            input_set: input_set(t, path)?.unwrap_or(InputSet::FreqCache),
            governor,
            seed: t.field_or("seed", path, 2016)?,
            epochs: t.field("epochs", path, v.line)?,
            phases: t.field("phases", path, v.line)?,
        };
        // The loop kind bypasses `FleetConfig`, which would otherwise
        // check the app name against the catalog.
        crate::setup::try_plant(&spec.app, spec.input_set, spec.seed).map_err(|e| {
            let line = t.get("app").map_or(v.line, |node| node.line);
            DeError::at(join(path, "app"), line, e.to_string())
        })?;
        Ok(spec)
    }
}

/// Reads `[cluster]` onto [`ClusterConfig::new`] and runs the config's
/// own `validate`, reporting a rejection at the section's line. `epochs`
/// is required, `seed` defaults to 2016 and `shards` to 1 (0, the
/// runtime's "auto", is rejected); any other absent key leaves the
/// runtime default. `policy` sets each chip's arbiter.
fn cluster(v: &Spanned) -> DeResult<ClusterConfig> {
    let path = "cluster";
    let t = table(v, path)?;
    t.deny_unknown(
        &[
            "chips",
            "cores_per_chip",
            "shards",
            "epochs",
            "seed",
            "power_cap",
            "policy",
            "input_set",
            "apps",
            "targets",
            "fault_rate",
            "faults",
            "llc",
        ],
        path,
    )?;
    let chips = t.field("chips", path, v.line)?;
    let cores_per_chip = t.field("cores_per_chip", path, v.line)?;
    let shards = t.field_or("shards", path, 1)?;
    if shards == 0 {
        let line = t.get("shards").map_or(v.line, |node| node.line);
        return Err(DeError::at("cluster.shards", line, "must be at least 1"));
    }
    let mut cfg = ClusterConfig::new(chips, cores_per_chip)
        .shards(shards)
        .epochs(t.field("epochs", path, v.line)?)
        .seed(t.field_or("seed", path, 2016)?);
    if let Some(watts) = t.field_opt("power_cap", path)? {
        cfg = cfg.power_cap(watts);
    }
    if let Some(set) = input_set(t, path)? {
        cfg = cfg.input_set(set);
    }
    if let Some(apps) = t.field_opt::<Vec<String>>("apps", path)? {
        cfg = cfg.apps(apps);
    }
    if let Some(pair) = targets(t, path)? {
        cfg = cfg.base_targets(pair);
    }
    if let Some(rate) = t.field_opt("fault_rate", path)? {
        cfg = cfg.fault_rate(rate);
    }
    if let Some(node) = t.get("llc") {
        cfg = cfg.llc_contention(llc(node, &join(path, "llc"), cores_per_chip)?);
    }
    if let Some(p) = policy(t, path)? {
        cfg = cfg.chip_policy(p);
    }
    for (chip, core, window) in core_faults(t, path)? {
        cfg = cfg.core_fault(chip, core, window);
    }
    cfg.validate()
        .map_err(|e| DeError::at(path, v.line, e.to_string()))?;
    Ok(cfg)
}

impl FromValue for DigestAssert {
    fn from_value(v: &Spanned, path: &str) -> DeResult<Self> {
        let t = table(v, path)?;
        t.deny_unknown(&["epochs", "value"], path)?;
        let hex: String = t.field("value", path, v.line)?;
        let value = u64::from_str_radix(&hex, 16).map_err(|_| {
            let node = t.get("value").expect("just read it");
            DeError::at(
                join(path, "value"),
                node.line,
                format!("expected 16 hex digits, got {hex:?}"),
            )
        })?;
        Ok(DigestAssert {
            epochs: t.field("epochs", path, v.line)?,
            value,
        })
    }
}

impl FromValue for TrackingErrorAssert {
    fn from_value(v: &Spanned, path: &str) -> DeResult<Self> {
        let t = table(v, path)?;
        t.deny_unknown(&["output", "max_pct", "epochs"], path)?;
        let node = t
            .get("output")
            .ok_or_else(|| DeError::at(join(path, "output"), v.line, "missing required key"))?;
        Ok(TrackingErrorAssert {
            output: parse_keyword(
                node,
                &join(path, "output"),
                "output channel",
                &[("ips", OutputChannel::Ips), ("power", OutputChannel::Power)],
            )?,
            max_pct: t.field("max_pct", path, v.line)?,
            epochs: t.field_opt("epochs", path)?,
        })
    }
}

impl FromValue for QuarantinedAssert {
    fn from_value(v: &Spanned, path: &str) -> DeResult<Self> {
        let t = table(v, path)?;
        t.deny_unknown(&["min", "max", "epochs"], path)?;
        Ok(QuarantinedAssert {
            min: t.field_or("min", path, 0)?,
            max: t.field_or("max", path, usize::MAX)?,
            epochs: t.field_opt("epochs", path)?,
        })
    }
}

impl FromValue for InvariantAssert {
    fn from_value(v: &Spanned, path: &str) -> DeResult<Self> {
        let t = table(v, path)?;
        t.deny_unknown(&["jobs", "shards"], path)?;
        Ok(InvariantAssert {
            jobs: t.field_or("jobs", path, Vec::new())?,
            shards: t.field_or("shards", path, Vec::new())?,
        })
    }
}

impl FromValue for Asserts {
    fn from_value(v: &Spanned, path: &str) -> DeResult<Self> {
        let t = table(v, path)?;
        t.deny_unknown(
            &[
                "csv",
                "digest",
                "tracking_error",
                "quarantined",
                "invariant",
            ],
            path,
        )?;
        Ok(Asserts {
            csv: t.field_or("csv", path, Vec::new())?,
            digest: t.field_or("digest", path, Vec::new())?,
            tracking_error: t.field_or("tracking_error", path, Vec::new())?,
            quarantined: t.field_opt("quarantined", path)?,
            invariant: t.field_opt("invariant", path)?,
        })
    }
}

impl RunSpec {
    /// Extracts a spec from a parsed document and runs
    /// [semantic validation](Self::validate).
    ///
    /// # Errors
    ///
    /// [`DeError`] naming the offending key and line.
    pub fn from_table(root: &Table) -> DeResult<Self> {
        let schema: i64 = root.field("schema", "", 1)?;
        if schema != SCHEMA_VERSION {
            let node = root.get("schema").expect("just read it");
            return Err(DeError::at(
                "schema",
                node.line,
                format!("unsupported schema version {schema} (this build reads {SCHEMA_VERSION})"),
            ));
        }
        let name: String = root.field("name", "", 1)?;
        let kind_node = root
            .get("kind")
            .ok_or_else(|| DeError::at("kind", 1, "missing required key"))?;
        let kind = String::from_value(kind_node, "kind")?;
        let section = |key: &str| -> DeResult<&Spanned> {
            root.get(key).ok_or_else(|| {
                DeError::at(
                    key,
                    kind_node.line,
                    format!("kind = {kind:?} needs a [{key}] section"),
                )
            })
        };
        let scenario = match kind.as_str() {
            "paper" => {
                let node = section("paper")?;
                let t = table(node, "paper")?;
                t.deny_unknown(&["experiment"], "paper")?;
                let exp = t.get("experiment").ok_or_else(|| {
                    DeError::at("paper.experiment", node.line, "missing required key")
                })?;
                Scenario::Paper(PaperExperiment::parse(exp, "paper.experiment")?)
            }
            "loop" => Scenario::Loop(LoopSpec::from_value(section("loop")?, "loop")?),
            "cluster" => Scenario::Cluster(cluster(section("cluster")?)?),
            other => {
                return Err(DeError::at(
                    "kind",
                    kind_node.line,
                    format!("unknown kind {other:?} (expected one of: paper, loop, cluster)"),
                ))
            }
        };
        // Unknown keys are checked once the kind is known, so a spec of a
        // kind this build does not have fails at its `kind` line.
        root.deny_unknown(
            &[
                "schema", "name", "kind", "paper", "loop", "cluster", "asserts",
            ],
            "",
        )?;
        // A spec may only carry the section its kind names.
        for key in ["paper", "loop", "cluster"] {
            if key != scenario.kind() {
                if let Some(node) = root.get(key) {
                    return Err(DeError::at(
                        key,
                        node.line,
                        format!(
                            "[{key}] section conflicts with kind = {:?}",
                            scenario.kind()
                        ),
                    ));
                }
            }
        }
        let asserts = match root.get("asserts") {
            None => Asserts::default(),
            Some(v) => Asserts::from_value(v, "asserts")?,
        };
        let spec = RunSpec {
            name,
            scenario,
            asserts,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Cross-key semantic checks: shapes, phase ordering, and
    /// assertion/kind compatibility. App names and topology bounds are
    /// checked while the scenario section parses.
    ///
    /// # Errors
    ///
    /// [`DeError`] naming the offending key (line 0: the check spans keys).
    pub fn validate(&self) -> DeResult<()> {
        let bad = |path: &str, msg: String| Err(DeError::at(path, 0, msg));
        if self.name.is_empty()
            || !self
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return bad(
                "name",
                format!(
                    "name {:?} must be non-empty [A-Za-z0-9_-] (it names the CSV)",
                    self.name
                ),
            );
        }
        if let Scenario::Loop(l) = &self.scenario {
            if l.epochs == 0 {
                return bad("loop.epochs", "must be at least 1".into());
            }
            if l.phases.is_empty() {
                return bad("loop.phases", "needs at least one [[loop.phases]]".into());
            }
            if l.phases[0].epoch != 0 {
                return bad(
                    "loop.phases[0].epoch",
                    "the first phase must start at epoch 0".into(),
                );
            }
            for (i, pair) in l.phases.windows(2).enumerate() {
                if pair[1].epoch <= pair[0].epoch {
                    return bad(
                        &format!("loop.phases[{}].epoch", i + 1),
                        format!(
                            "phase epochs must be strictly increasing (got {} after {})",
                            pair[1].epoch, pair[0].epoch
                        ),
                    );
                }
            }
            for (i, p) in l.phases.iter().enumerate() {
                if !(p.ips.is_finite() && p.ips > 0.0 && p.power.is_finite() && p.power > 0.0) {
                    return bad(
                        &format!("loop.phases[{i}]"),
                        "ips and power targets must be finite and positive".into(),
                    );
                }
            }
        }
        let kind = self.scenario.kind();
        let cluster = matches!(self.scenario, Scenario::Cluster(_));
        if !self.asserts.digest.is_empty() && !cluster {
            return bad(
                "asserts.digest",
                format!("digest assertions need kind cluster, not {kind}"),
            );
        }
        if self.asserts.quarantined.is_some() && !cluster {
            return bad(
                "asserts.quarantined",
                format!("quarantined assertions need kind cluster, not {kind}"),
            );
        }
        if let Some(q) = &self.asserts.quarantined {
            if q.min > q.max {
                return bad(
                    "asserts.quarantined",
                    format!("min {} > max {}", q.min, q.max),
                );
            }
        }
        if !self.asserts.tracking_error.is_empty() && matches!(self.scenario, Scenario::Paper(_)) {
            return bad(
                "asserts.tracking_error",
                "tracking_error assertions need kind loop or cluster".into(),
            );
        }
        if let Some(inv) = &self.asserts.invariant {
            if inv.jobs.is_empty() && inv.shards.is_empty() {
                return bad(
                    "asserts.invariant",
                    "needs a jobs = [...] or shards = [...] list".into(),
                );
            }
            if inv.jobs.contains(&0) || inv.shards.contains(&0) {
                return bad("asserts.invariant", "counts must be at least 1".into());
            }
            let shards_ok = cluster
                || matches!(
                    self.scenario,
                    Scenario::Paper(PaperExperiment::ClusterScale)
                );
            if !inv.shards.is_empty() && !shards_ok {
                return bad(
                    "asserts.invariant.shards",
                    format!("shards invariance needs kind cluster (or cluster-scale), not {kind}"),
                );
            }
            if !inv.jobs.is_empty() && cluster {
                return bad(
                    "asserts.invariant.jobs",
                    "a cluster parallelizes over shards, not jobs — use shards = [...]".into(),
                );
            }
        }
        for (i, a) in self.asserts.tracking_error.iter().enumerate() {
            if !(a.max_pct.is_finite() && a.max_pct >= 0.0) {
                return bad(
                    &format!("asserts.tracking_error[{i}].max_pct"),
                    "must be finite and non-negative".into(),
                );
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::toml;
    use mimo_fleet::FleetConfig;

    fn parse(src: &str) -> DeResult<RunSpec> {
        RunSpec::from_table(&toml::parse(src)?)
    }

    #[test]
    fn paper_spec_parses() {
        let spec = parse(
            "schema = 1\nname = \"fig06\"\nkind = \"paper\"\n\
             [paper]\nexperiment = \"fig06\"\n\
             [asserts]\ncsv = [\"fig06_weights.csv\"]\n",
        )
        .unwrap();
        assert_eq!(spec.scenario, Scenario::Paper(PaperExperiment::Fig06));
        assert_eq!(spec.asserts.csv, vec!["fig06_weights.csv"]);
    }

    #[test]
    fn loop_spec_parses_with_phases() {
        let spec = parse(
            "schema = 1\nname = \"phase\"\nkind = \"loop\"\n\
             [loop]\napp = \"astar\"\nepochs = 100\n\
             [[loop.phases]]\nepoch = 0\nips = 3.0\npower = 1.9\n\
             [[loop.phases]]\nepoch = 50\nips = 2.0\npower = 1.2\n",
        )
        .unwrap();
        match spec.scenario {
            Scenario::Loop(l) => {
                assert_eq!(l.governor, GovernorKind::Mimo);
                assert_eq!(l.seed, 2016);
                assert_eq!(l.phases.len(), 2);
                assert_eq!(l.phases[1].epoch, 50);
            }
            s => panic!("{s:?}"),
        }
    }

    #[test]
    fn cluster_spec_parses_faults() {
        let spec = parse(
            "schema = 1\nname = \"cf\"\nkind = \"cluster\"\n\
             [cluster]\nchips = 2\ncores_per_chip = 4\nepochs = 100\n\
             [[cluster.faults]]\nchip = 1\ncore = 2\nkind = \"nan_measurement\"\n\
             channel = 0\nstart = 20\n\
             [asserts.quarantined]\nmin = 1\nmax = 1\n",
        )
        .unwrap();
        match &spec.scenario {
            Scenario::Cluster(c) => {
                assert_eq!(c.core_faults.len(), 1);
                let (chip, core, window) = c.core_faults[0];
                assert_eq!((chip, core), (1, 2));
                assert_eq!(window.duration, u64::MAX);
            }
            s => panic!("{s:?}"),
        }
        assert_eq!(
            spec.asserts.quarantined,
            Some(QuarantinedAssert {
                min: 1,
                max: 1,
                epochs: None
            })
        );
    }

    /// A `kind = "cluster"` spec whose `[cluster]` header sits on line 4.
    fn cluster_spec(body: &str) -> DeResult<ClusterConfig> {
        let src = format!("schema = 1\nname = \"x\"\nkind = \"cluster\"\n[cluster]\n{body}");
        match parse(&src)?.scenario {
            Scenario::Cluster(cfg) => Ok(cfg),
            s => panic!("{s:?}"),
        }
    }

    #[test]
    fn cluster_reads_onto_the_builder() {
        let cfg = cluster_spec(
            "chips = 1\ncores_per_chip = 4\nepochs = 100\nseed = 7\npower_cap = 4.0\n\
             policy = \"uniform\"\napps = [\"astar\"]\ntargets = [2.5, 1.5]\n\
             [cluster.llc]\ntotal_ways = 16\n",
        )
        .unwrap();
        assert_eq!((cfg.n_chips, cfg.cores_per_chip), (1, 4));
        assert_eq!((cfg.epochs, cfg.seed), (100, 7));
        assert_eq!(cfg.cluster_power_cap_w, 4.0);
        assert_eq!(cfg.chip_policy, ArbitrationPolicy::Uniform);
        assert_eq!(cfg.apps, vec!["astar"]);
        assert_eq!(cfg.base_targets, [2.5, 1.5]);
        assert_eq!(cfg.llc.unwrap().total_ways, 16);
        // The keys a `[fleet]` section took read onto the fleet's lift.
        let fleet = FleetConfig::new(4)
            .epochs(100)
            .seed(7)
            .power_cap(4.0)
            .policy(ArbitrationPolicy::Uniform)
            .apps(vec!["astar"])
            .base_targets([2.5, 1.5])
            .llc_contention(LlcConfig::for_cores(4).total_ways(16));
        assert_eq!(cfg, ClusterConfig::from(fleet));
    }

    #[test]
    fn cluster_defaults_stay_the_runtime_defaults() {
        // Only the spec's own default seed departs from the runtime's.
        let cfg = cluster_spec("chips = 1\ncores_per_chip = 4\nepochs = 100\n").unwrap();
        assert_eq!(cfg, ClusterConfig::new(1, 4).epochs(100).seed(2016));
        let cfg = cluster_spec("chips = 2\ncores_per_chip = 3\nepochs = 100\n").unwrap();
        assert_eq!(cfg, ClusterConfig::new(2, 3).epochs(100).seed(2016));
    }

    #[test]
    fn unknown_app_fails_at_the_section_line() {
        let err =
            cluster_spec("chips = 1\ncores_per_chip = 4\nepochs = 10\napps = [\"no-such-app\"]\n")
                .unwrap_err();
        assert_eq!((err.path.as_str(), err.line), ("cluster", 4));
        assert!(err.msg.contains("no-such-app"), "{err}");
    }

    #[test]
    fn llc_sensitivity_that_overflows_the_penalty_fails_at_the_section_line() {
        let err = cluster_spec(
            "chips = 1\ncores_per_chip = 4\nepochs = 10\n\
             [cluster.llc]\ntotal_ways = 4\nsensitivity = 1e308\n",
        )
        .unwrap_err();
        assert_eq!((err.path.as_str(), err.line), ("cluster", 4));
        assert!(err.msg.contains("largest penalty inf"), "{err}");
    }

    #[test]
    fn cluster_fault_chip_bound_is_checked() {
        let err = cluster_spec(
            "chips = 2\ncores_per_chip = 2\nepochs = 50\n\
             [[cluster.faults]]\nchip = 5\ncore = 0\nkind = \"power_spike\"\n\
             factor = 3.0\nstart = 0\nduration = 1\n",
        )
        .unwrap_err();
        assert_eq!(err.path, "cluster");
        assert!(err.msg.contains("chip 5"), "{err}");
    }

    #[test]
    fn cluster_rejection_names_the_section_line() {
        let err =
            cluster_spec("chips = 2\ncores_per_chip = 2\nshards = 3\nepochs = 10\n").unwrap_err();
        assert_eq!((err.path.as_str(), err.line), ("cluster", 4));
        assert!(err.msg.contains("exceeds n_chips"), "{err}");
        let err =
            cluster_spec("chips = 2\ncores_per_chip = 2\nshards = 0\nepochs = 10\n").unwrap_err();
        assert_eq!((err.path.as_str(), err.line), ("cluster.shards", 7));
    }

    #[test]
    fn cluster_floor_above_the_nominal_cap_fails_at_the_section_line() {
        // 2 cores x 0.2 x 7 W = 2.8 W of floor against a 2.4 W nominal cap.
        let err = cluster_spec("chips = 2\ncores_per_chip = 2\nepochs = 5\ntargets = [2.5, 7.0]\n")
            .unwrap_err();
        assert_eq!((err.path.as_str(), err.line), ("cluster", 4));
        assert!(err.msg.contains("exceeds the nominal chip cap"), "{err}");
    }

    #[test]
    fn unknown_loop_app_is_rejected() {
        let err = parse(
            "schema = 1\nname = \"x\"\nkind = \"loop\"\n[loop]\napp = \"not-an-app\"\n\
             epochs = 10\n[[loop.phases]]\nepoch = 0\nips = 3.0\npower = 1.9\n",
        )
        .unwrap_err();
        assert_eq!((err.path.as_str(), err.line), ("loop.app", 5));
    }

    #[test]
    fn wrong_kind_section_is_rejected() {
        let err = parse(
            "schema = 1\nname = \"x\"\nkind = \"paper\"\n[paper]\nexperiment = \"fig06\"\n\
             [cluster]\nchips = 1\ncores_per_chip = 4\nepochs = 10\n",
        )
        .unwrap_err();
        assert_eq!((err.path.as_str(), err.line), ("cluster", 6));
        assert!(err.msg.contains("conflicts with kind"), "{err}");
    }

    #[test]
    fn unknown_kind_and_experiment_are_rejected() {
        let err = parse("schema = 1\nname = \"x\"\nkind = \"magic\"\n").unwrap_err();
        assert!(err.msg.contains("unknown kind"), "{err}");
        // A fleet is a one-chip `[cluster]`: `fleet` is no kind, and its
        // section does not turn the error into an unknown-key one.
        let err =
            parse("schema = 1\nname = \"x\"\nkind = \"fleet\"\n[fleet]\ncores = 4\nepochs = 10\n")
                .unwrap_err();
        assert_eq!((err.path.as_str(), err.line), ("kind", 3));
        assert_eq!(
            err.msg,
            "unknown kind \"fleet\" (expected one of: paper, loop, cluster)"
        );
        let err =
            parse("schema = 1\nname = \"x\"\nkind = \"paper\"\n[paper]\nexperiment = \"fig99\"\n")
                .unwrap_err();
        assert_eq!(err.path, "paper.experiment");
        assert_eq!(err.line, 5);
    }

    #[test]
    fn phase_ordering_is_validated() {
        let err = parse(
            "schema = 1\nname = \"x\"\nkind = \"loop\"\n[loop]\napp = \"astar\"\nepochs = 10\n\
             [[loop.phases]]\nepoch = 5\nips = 1.0\npower = 1.0\n",
        )
        .unwrap_err();
        assert!(err.msg.contains("start at epoch 0"), "{err}");
    }

    #[test]
    fn assertion_kind_compatibility() {
        let err = parse(
            "schema = 1\nname = \"x\"\nkind = \"paper\"\n[paper]\nexperiment = \"fig06\"\n\
             [asserts.quarantined]\nmin = 1\n",
        )
        .unwrap_err();
        assert!(err.msg.contains("need kind cluster"), "{err}");
        let err = parse(
            "schema = 1\nname = \"x\"\nkind = \"cluster\"\n[cluster]\nchips = 1\n\
             cores_per_chip = 4\nepochs = 10\n[asserts.invariant]\njobs = [1, 2]\n",
        )
        .unwrap_err();
        assert_eq!(err.path, "asserts.invariant.jobs");
    }

    #[test]
    fn fault_kind_payload_keys_are_checked() {
        let err = parse(
            "schema = 1\nname = \"x\"\nkind = \"cluster\"\n[cluster]\nchips = 1\n\
             cores_per_chip = 4\nepochs = 10\n[[cluster.faults]]\nchip = 0\ncore = 1\n\
             kind = \"power_spike\"\nchannel = 0\nstart = 5\n",
        )
        .unwrap_err();
        assert_eq!(err.path, "cluster.faults[0].channel");
        assert!(err.msg.contains("factor"), "{err}");
    }

    #[test]
    fn digest_value_is_hex() {
        let err = parse(
            "schema = 1\nname = \"x\"\nkind = \"cluster\"\n[cluster]\nchips = 1\n\
             cores_per_chip = 4\nepochs = 10\n[[asserts.digest]]\nepochs = 10\n\
             value = \"zznothex\"\n",
        )
        .unwrap_err();
        assert_eq!(err.path, "asserts.digest[0].value");
    }
}
