//! Fleet configuration: how many cores, which applications, what budget.

use mimo_core::telemetry::TelemetryConfig;
use mimo_sim::fault::FaultSpec;
use mimo_sim::llc::LlcConfig;
use mimo_sim::workload::{catalog_names, is_non_responsive, is_training};
use mimo_sim::InputSet;

use crate::arbiter::ArbitrationPolicy;
use crate::error::{FleetError, Result};

/// One core's identity within the fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreSpec {
    /// Catalog application this core runs.
    pub app: String,
    /// Seed for the core's plant (all stochastic behavior).
    pub seed: u64,
    /// Arbitration weight under
    /// [`ArbitrationPolicy::PriorityWeighted`]; higher keeps more of the
    /// chip budget.
    pub priority: f64,
}

/// Configuration of a [`crate::FleetRunner`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Number of cores (plants) in the fleet.
    pub n_cores: usize,
    /// Epochs to run (50 µs each).
    pub epochs: usize,
    /// Input set every per-core controller actuates.
    pub input_set: InputSet,
    /// Chip-level power cap in watts, shared by all cores.
    pub chip_power_cap_w: f64,
    /// How the arbiter splits the cap across cores.
    pub policy: ArbitrationPolicy,
    /// Nominal per-core `[IPS (BIPS), power (W)]` targets before
    /// arbitration scales them to the budget.
    pub base_targets: [f64; 2],
    /// Base seed; per-core seeds derive from it and the core index only,
    /// so results never depend on scheduling.
    pub seed: u64,
    /// Explicit per-core assignments. When shorter than `n_cores` (or
    /// empty), remaining cores draw responsive production apps round-robin.
    pub cores: Vec<CoreSpec>,
    /// Per-epoch probability of a random transient fault on each core's
    /// plant interface. `0.0` (the default) disables the transient process
    /// entirely, keeping runs bit-identical to a fault-free fleet.
    pub fault_rate: f64,
    /// Scheduled faults, as `(core index, fault window)` pairs. Cores not
    /// listed receive no scheduled faults.
    pub core_faults: Vec<(usize, FaultSpec)>,
    /// Workload mix: applications the fleet cycles through round-robin
    /// for cores without an explicit [`CoreSpec`]. Empty (the default)
    /// means the responsive production set ([`default_fleet_apps`]). Seeds
    /// and priorities still derive per core, so changing only the mix
    /// keeps every other knob identical.
    pub apps: Vec<String>,
    /// Per-core telemetry: when enabled, every core carries its own
    /// [`TelemetrySink`](mimo_core::telemetry::TelemetrySink) and the run
    /// returns a populated [`FleetTelemetry`](crate::FleetTelemetry).
    /// Off by default — the cores then run without a sink and skip record
    /// capture, preserving golden digests and the allocation-free
    /// guarantee.
    pub telemetry: TelemetryConfig,
    /// Shared-LLC contention coupling. `None` (the default) runs every
    /// core's cache in isolation, exactly as before the model existed;
    /// `Some` charges each core's applied L2 ways against a chip-wide way
    /// budget and raises neighbors' effective miss pressure when the chip
    /// oversubscribes it (see [`mimo_sim::llc`]).
    pub llc: Option<LlcConfig>,
    /// Batched structure-of-arrays stepping for shared-controller runs
    /// (`true` by default). When a run is built around one shared
    /// controller of a banked-capable shape, healthy cores step through a
    /// [`GovernorBank`](crate::bank::GovernorBank) — bit-identical to the
    /// per-cell path, so this knob only ever changes wall-clock. `false`
    /// forces every core onto the per-cell path (the determinism CI uses
    /// this to cross-check the two paths byte-for-byte).
    pub banked: bool,
}

impl FleetConfig {
    /// A fleet of `n_cores` with the defaults used by the `fleet_scale`
    /// experiment: two-input plants, a chip cap sized at 1.2 W/core, the
    /// proportional policy, and the paper's aggressive tracking targets.
    pub fn new(n_cores: usize) -> Self {
        FleetConfig {
            n_cores,
            epochs: 1000,
            input_set: InputSet::FreqCache,
            chip_power_cap_w: 1.2 * n_cores as f64,
            policy: ArbitrationPolicy::Proportional,
            base_targets: [3.0, 1.9],
            seed: 1,
            cores: Vec::new(),
            apps: Vec::new(),
            fault_rate: 0.0,
            core_faults: Vec::new(),
            telemetry: TelemetryConfig::off(),
            llc: None,
            banked: true,
        }
    }

    /// Enables or disables banked structure-of-arrays stepping for
    /// shared-controller runs (builder style; on by default).
    pub fn banked(mut self, banked: bool) -> Self {
        self.banked = banked;
        self
    }

    /// A no-op, kept for `benchmark/`, which still calls it: a chip steps
    /// on one thread. Parallelism lives one level up, in the cluster's
    /// [`shards`](crate::ClusterConfig::shards).
    pub fn workers(self, _workers: usize) -> Self {
        self
    }

    /// Sets the epoch count (builder style).
    pub fn epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Sets the arbitration policy (builder style).
    pub fn policy(mut self, policy: ArbitrationPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the power cap this topology's arbiter divides — for a fleet,
    /// the chip-level cap in watts (builder style). Shares its name with
    /// [`ClusterConfig::power_cap`](crate::ClusterConfig::power_cap), the
    /// same knob one level up, so one spec shape drives both.
    pub fn power_cap(mut self, watts: f64) -> Self {
        self.chip_power_cap_w = watts;
        self
    }

    /// Sets the input set every per-core controller actuates (builder
    /// style).
    pub fn input_set(mut self, input_set: InputSet) -> Self {
        self.input_set = input_set;
        self
    }

    /// Sets the nominal per-core `[IPS, power]` targets (builder style).
    pub fn base_targets(mut self, targets: [f64; 2]) -> Self {
        self.base_targets = targets;
        self
    }

    /// Sets explicit per-core assignments (builder style). Entries beyond
    /// `n_cores` are ignored; missing cores draw defaults.
    pub fn cores(mut self, cores: Vec<CoreSpec>) -> Self {
        self.cores = cores;
        self
    }

    /// Sets the workload mix (builder style): cores without an explicit
    /// [`CoreSpec`] cycle through `apps` round-robin instead of the
    /// default responsive production set. Same name and semantics as
    /// [`ClusterConfig::apps`](crate::ClusterConfig::apps).
    pub fn apps<S: Into<String>>(mut self, apps: Vec<S>) -> Self {
        self.apps = apps.into_iter().map(Into::into).collect();
        self
    }

    /// Attaches per-core telemetry (builder style): each core gets its own
    /// sink built from `telemetry`, and the run's
    /// [`FleetTelemetry`](crate::FleetTelemetry) carries the drained
    /// traces, quarantine events, and run summaries.
    pub fn observer(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Sets the base seed (builder style).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables shared-LLC contention coupling (builder style).
    pub fn llc_contention(mut self, llc: LlcConfig) -> Self {
        self.llc = Some(llc);
        self
    }

    /// Sets the transient fault rate (builder style).
    pub fn fault_rate(mut self, rate: f64) -> Self {
        self.fault_rate = rate;
        self
    }

    /// Schedules a fault on one core (builder style; may be called
    /// repeatedly to stack faults). The cluster-level counterpart is
    /// [`ClusterConfig::core_fault`](crate::ClusterConfig::core_fault),
    /// which takes an extra leading chip index.
    pub fn core_fault(mut self, core: usize, spec: FaultSpec) -> Self {
        self.core_faults.push((core, spec));
        self
    }

    /// Checks the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidConfig`] for a zero-sized fleet, a
    /// non-positive power cap, or non-positive targets/priorities.
    pub fn validate(&self) -> Result<()> {
        if self.n_cores == 0 {
            return Err(FleetError::InvalidConfig {
                what: "n_cores must be at least 1".into(),
            });
        }
        // `<= 0.0 || is_nan` rather than `!(x > 0.0)`: NaN must be rejected
        // too, and clippy flags negated partial-order comparisons.
        let not_positive = |x: f64| x <= 0.0 || x.is_nan();
        if not_positive(self.chip_power_cap_w) {
            return Err(FleetError::InvalidConfig {
                what: format!(
                    "chip_power_cap_w = {} must be positive",
                    self.chip_power_cap_w
                ),
            });
        }
        if self.base_targets.iter().any(|&t| not_positive(t)) {
            return Err(FleetError::InvalidConfig {
                what: format!("base_targets {:?} must be positive", self.base_targets),
            });
        }
        if self.cores.iter().any(|c| not_positive(c.priority)) {
            return Err(FleetError::InvalidConfig {
                what: "core priorities must be positive".into(),
            });
        }
        if !(0.0..=1.0).contains(&self.fault_rate) {
            return Err(FleetError::InvalidConfig {
                what: format!(
                    "fault_rate = {} must be a probability in [0, 1]",
                    self.fault_rate
                ),
            });
        }
        if let Some((core, _)) = self
            .core_faults
            .iter()
            .find(|(core, _)| *core >= self.n_cores)
        {
            return Err(FleetError::InvalidConfig {
                what: format!(
                    "core_faults targets core {core}, but the fleet has {} cores",
                    self.n_cores
                ),
            });
        }
        let catalog = catalog_names();
        if let Some(app) = self.apps.iter().find(|a| !catalog.contains(&a.as_str())) {
            return Err(FleetError::InvalidConfig {
                what: format!("apps names unknown workload {app:?} (see the catalog)"),
            });
        }
        if let Some(llc) = &self.llc {
            llc.validate(self.n_cores)?;
        }
        Ok(())
    }

    /// Resolves the full per-core spec list: explicit entries first, then
    /// the workload mix (the [`FleetConfig::apps`] list, or responsive
    /// production applications — the cores that can actually chase the
    /// aggressive IPS target) round-robin, each with a seed derived from
    /// the base seed and the core index only.
    pub fn core_specs(&self) -> Vec<CoreSpec> {
        let default_apps: Vec<String> = if self.apps.is_empty() {
            default_fleet_apps().iter().map(|s| s.to_string()).collect()
        } else {
            self.apps.clone()
        };
        (0..self.n_cores)
            .map(|i| {
                self.cores.get(i).cloned().unwrap_or_else(|| CoreSpec {
                    app: default_apps[i % default_apps.len()].to_string(),
                    // Same derivation regardless of scheduling: core
                    // identity fixes the random stream.
                    seed: self
                        .seed
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(i as u64),
                    priority: 1.0,
                })
            })
            .collect()
    }
}

/// Applications a default fleet cycles through: the responsive production
/// set (non-training, can reach the tracking target), in catalog order.
pub fn default_fleet_apps() -> Vec<&'static str> {
    catalog_names()
        .into_iter()
        .filter(|n| !is_training(n) && !is_non_responsive(n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        for n in [1, 4, 16, 64] {
            FleetConfig::new(n).validate().unwrap();
        }
    }

    #[test]
    fn zero_cores_rejected() {
        assert!(matches!(
            FleetConfig::new(0).validate(),
            Err(FleetError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn negative_cap_rejected() {
        let cfg = FleetConfig::new(4).power_cap(-1.0);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn specs_are_per_core_deterministic_and_distinct() {
        let cfg = FleetConfig::new(16);
        let a = cfg.core_specs();
        let b = cfg.core_specs();
        assert_eq!(a, b);
        assert_eq!(a.len(), 16);
        // Seeds all distinct.
        for i in 0..a.len() {
            for j in i + 1..a.len() {
                assert_ne!(a[i].seed, a[j].seed, "cores {i} and {j}");
            }
        }
        // Different base seed shifts every core seed.
        let c = cfg.clone().seed(99).core_specs();
        assert!(a.iter().zip(&c).all(|(x, y)| x.seed != y.seed));
    }

    #[test]
    fn explicit_cores_take_precedence() {
        let cfg = FleetConfig::new(3).cores(vec![CoreSpec {
            app: "mcf".into(),
            seed: 7,
            priority: 2.0,
        }]);
        let specs = cfg.core_specs();
        assert_eq!(specs[0].app, "mcf");
        assert_eq!(specs[0].seed, 7);
        assert_eq!(specs.len(), 3);
    }

    #[test]
    fn llc_config_is_validated() {
        use mimo_sim::llc::LlcConfig;
        // Fewer ways than cores cannot grant everyone one way.
        let starved = LlcConfig::for_cores(4).total_ways(2);
        assert!(FleetConfig::new(4)
            .llc_contention(starved)
            .validate()
            .is_err());
        let ok = LlcConfig::for_cores(4);
        assert!(FleetConfig::new(4).llc_contention(ok).validate().is_ok());
    }

    #[test]
    fn fault_rate_must_be_a_probability() {
        assert!(FleetConfig::new(2).fault_rate(0.5).validate().is_ok());
        assert!(FleetConfig::new(2).fault_rate(-0.1).validate().is_err());
        assert!(FleetConfig::new(2).fault_rate(1.5).validate().is_err());
        assert!(FleetConfig::new(2).fault_rate(f64::NAN).validate().is_err());
    }

    #[test]
    fn core_fault_indices_are_checked() {
        let spec = FaultSpec {
            kind: mimo_sim::fault::FaultKind::NanMeasurement { channel: 0 },
            start_epoch: 0,
            duration: 1,
        };
        assert!(FleetConfig::new(2).core_fault(1, spec).validate().is_ok());
        assert!(FleetConfig::new(2).core_fault(5, spec).validate().is_err());
    }

    #[test]
    fn apps_mix_drives_default_cores_round_robin() {
        let cfg = FleetConfig::new(5).apps(vec!["astar", "milc"]);
        cfg.validate().unwrap();
        let specs = cfg.core_specs();
        let apps: Vec<&str> = specs.iter().map(|s| s.app.as_str()).collect();
        assert_eq!(apps, ["astar", "milc", "astar", "milc", "astar"]);
        // Seeds keep the default derivation: only the mix changed.
        let default_seeds: Vec<u64> = FleetConfig::new(5)
            .core_specs()
            .iter()
            .map(|s| s.seed)
            .collect();
        assert!(specs.iter().zip(&default_seeds).all(|(s, &d)| s.seed == d));
        // Explicit cores still win over the mix.
        let cfg = cfg.cores(vec![CoreSpec {
            app: "mcf".into(),
            seed: 7,
            priority: 1.0,
        }]);
        assert_eq!(cfg.core_specs()[0].app, "mcf");
    }

    #[test]
    fn unknown_app_in_mix_is_rejected() {
        let err = FleetConfig::new(2)
            .apps(vec!["astar", "no-such-app"])
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("no-such-app"), "{err}");
    }

    #[test]
    fn power_cap_sets_the_chip_cap() {
        let a = FleetConfig::new(4).power_cap(3.3);
        assert_eq!(a.chip_power_cap_w, 3.3);
    }

    #[test]
    fn default_apps_are_responsive_production() {
        let apps = default_fleet_apps();
        assert_eq!(apps.len(), 10);
        assert!(apps.iter().all(|a| !is_non_responsive(a)));
    }
}
