//! Synthetic workloads standing in for SPEC CPU 2006.
//!
//! The paper runs all SPEC CPU 2006 applications except `zeusmp` (28 apps),
//! split into a training set {sjeng, gobmk, leslie3d, namd} and a
//! production set, and further into *responsive* applications (that can
//! reach the 2.5 BIPS tracking target) and *non-responsive* memory-bound
//! ones (that cannot, no matter the configuration).
//!
//! We have no SPEC binaries or traces, so each application is modeled as a
//! cyclic sequence of [`Phase`]s whose parameters (intrinsic ILP, cache
//! miss intensity and sensitivity, ROB/MLP sensitivity, branchiness,
//! switching activity) drive the interval core model. Parameters are tuned
//! so the paper's responsive / non-responsive partition emerges from the
//! microarchitecture model rather than being hard-coded: a memory-bound
//! app cannot reach 2.5 BIPS because its memory stalls dominate at any
//! frequency or cache size.

mod catalog;

pub(crate) use catalog::lookup_shared;
pub use catalog::{catalog, catalog_names, lookup};

/// One execution phase of an application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// Intrinsic instruction-level parallelism: the IPC the phase would
    /// sustain with infinite resources (capped by issue width at runtime).
    pub ilp: f64,
    /// L2 misses per kilo-instruction with the full (8-way) L2.
    pub l2_mpki: f64,
    /// L1 misses that hit in L2, per kilo-instruction, with the full L1.
    pub l1_mpki: f64,
    /// Exponent controlling how fast misses grow as ways are gated:
    /// `mpki(w) = mpki_full * (w_full / w)^cache_sens`.
    pub cache_sens: f64,
    /// How strongly the phase's ILP and memory-level parallelism depend on
    /// the ROB size (0 = insensitive, 1 = strongly window-limited).
    pub rob_sens: f64,
    /// Branch mispredictions per kilo-instruction.
    pub branch_mpki: f64,
    /// Memory-level parallelism the phase can expose with a full ROB
    /// (outstanding misses that overlap).
    pub mem_parallelism: f64,
    /// Dynamic switching-activity factor for the power model (≈0.5 quiet,
    /// ≈1.1 hot loops).
    pub activity: f64,
    /// Nominal phase length in 50 µs epochs before moving to the next
    /// phase.
    pub duration_epochs: usize,
}

impl Phase {
    /// A neutral mid-intensity phase, useful as a default in tests.
    pub fn nominal() -> Self {
        Phase {
            ilp: 1.8,
            l2_mpki: 1.0,
            l1_mpki: 12.0,
            cache_sens: 1.0,
            rob_sens: 0.4,
            branch_mpki: 4.0,
            mem_parallelism: 3.0,
            activity: 0.8,
            duration_epochs: 2000,
        }
    }

    /// Sanity-checks that every parameter is in its physical range.
    pub fn is_valid(&self) -> bool {
        self.ilp > 0.0
            && self.ilp <= 4.0
            && self.l2_mpki >= 0.0
            && self.l1_mpki >= 0.0
            && self.cache_sens >= 0.0
            && (0.0..=1.0).contains(&self.rob_sens)
            && self.branch_mpki >= 0.0
            && self.mem_parallelism >= 1.0
            && self.activity > 0.0
            && self.duration_epochs > 0
    }
}

/// Workload class, mirroring SPEC's integer/floating-point split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppClass {
    /// SPECint-like.
    Integer,
    /// SPECfp-like.
    FloatingPoint,
}

/// A synthetic application: a named, cyclic phase sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct AppProfile {
    name: &'static str,
    class: AppClass,
    phases: Vec<Phase>,
}

impl AppProfile {
    /// Creates a profile.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty or any phase is out of range.
    pub fn new(name: &'static str, class: AppClass, phases: Vec<Phase>) -> Self {
        assert!(!phases.is_empty(), "application needs at least one phase");
        assert!(
            phases.iter().all(Phase::is_valid),
            "invalid phase parameters for {name}"
        );
        AppProfile {
            name,
            class,
            phases,
        }
    }

    /// Application name (SPEC CPU 2006 naming).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Integer or floating point.
    pub fn class(&self) -> AppClass {
        self.class
    }

    /// The phase sequence (cycled at runtime).
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Phase at cyclic index `i`.
    pub fn phase(&self, i: usize) -> &Phase {
        &self.phases[i % self.phases.len()]
    }
}

/// The training set used for system identification and heuristic tuning
/// (§VII-A): two integer and two floating-point applications.
pub const TRAINING_SET: [&str; 4] = ["sjeng", "gobmk", "leslie3d", "namd"];

/// The validation applications used for the uncertainty analysis
/// (§VI-A2): one compute-intensive and one memory-intensive.
pub const VALIDATION_SET: [&str; 2] = ["h264ref", "tonto"];

/// The applications the paper reports as unable to reach the 2.5 BIPS
/// target (§VIII-D).
pub const NON_RESPONSIVE: [&str; 14] = [
    "bzip2",
    "gcc",
    "hmmer",
    "h264ref",
    "libquantum",
    "mcf",
    "omnetpp",
    "perlbench",
    "xalancbmk",
    "bwaves",
    "dealII",
    "GemsFDTD",
    "lbm",
    "soplex",
];

/// Returns `true` if `name` belongs to the training set.
pub fn is_training(name: &str) -> bool {
    TRAINING_SET.contains(&name)
}

/// Returns `true` if `name` is in the paper's non-responsive list.
pub fn is_non_responsive(name: &str) -> bool {
    NON_RESPONSIVE.contains(&name)
}

/// Names of the production set (catalog minus training), in catalog order.
pub fn production_names() -> Vec<&'static str> {
    catalog_names()
        .into_iter()
        .filter(|n| !is_training(n))
        .collect()
}

/// Names of the responsive production applications.
pub fn responsive_production_names() -> Vec<&'static str> {
    production_names()
        .into_iter()
        .filter(|n| !is_non_responsive(n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_28_apps() {
        assert_eq!(catalog().len(), 28);
    }

    #[test]
    fn zeusmp_is_excluded() {
        assert!(lookup("zeusmp").is_none());
    }

    #[test]
    fn training_set_resolves() {
        for name in TRAINING_SET {
            assert!(lookup(name).is_some(), "{name} missing from catalog");
        }
    }

    #[test]
    fn non_responsive_resolves() {
        for name in NON_RESPONSIVE {
            assert!(lookup(name).is_some(), "{name} missing from catalog");
        }
    }

    #[test]
    fn training_and_non_responsive_are_disjoint() {
        for name in TRAINING_SET {
            assert!(!is_non_responsive(name), "{name} in both sets");
        }
    }

    #[test]
    fn production_set_has_24_apps() {
        assert_eq!(production_names().len(), 24);
    }

    #[test]
    fn responsive_production_has_10_apps() {
        // 24 production − 14 non-responsive = 10.
        assert_eq!(responsive_production_names().len(), 10);
    }

    #[test]
    fn all_phases_valid() {
        for app in catalog() {
            assert!(!app.phases().is_empty());
            for p in app.phases() {
                assert!(p.is_valid(), "invalid phase in {}", app.name());
            }
        }
    }

    #[test]
    fn phase_indexing_is_cyclic() {
        let app = lookup("namd").unwrap();
        let n = app.phases().len();
        assert_eq!(app.phase(0), app.phase(n));
    }

    #[test]
    fn class_split_matches_spec() {
        let ints = catalog()
            .iter()
            .filter(|a| a.class() == AppClass::Integer)
            .count();
        let fps = catalog()
            .iter()
            .filter(|a| a.class() == AppClass::FloatingPoint)
            .count();
        assert_eq!(ints, 12); // SPECint 2006
        assert_eq!(fps, 16); // SPECfp 2006 minus zeusmp
    }

    #[test]
    fn nominal_phase_is_valid() {
        assert!(Phase::nominal().is_valid());
    }
}
