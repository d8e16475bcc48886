//! The 28-application catalog.
//!
//! Parameter choices follow the broad characterization of SPEC CPU 2006 in
//! the literature: `mcf`/`lbm`/`libquantum` are memory-streaming with high
//! L2 MPKI, `gcc`/`perlbench`/`xalancbmk` are branchy pointer-chasers,
//! `namd`/`gamess`/`gromacs`/`povray` are compute-dense floating point,
//! `astar`/`milc`/`sphinx3`/`cactusADM`/`leslie3d` are cache-sensitive.
//! Absolute values are calibrated so that (a) the paper's non-responsive
//! set cannot reach 2.5 BIPS at any configuration and (b) the responsive
//! set can, at high-but-feasible settings.

use super::{AppClass, AppProfile, Phase};

/// Compute-dense phase: low miss rates, ILP-limited.
fn compute(ilp: f64, branch_mpki: f64, activity: f64, dur: usize) -> Phase {
    Phase {
        ilp,
        l2_mpki: 0.9,
        l1_mpki: 6.0,
        cache_sens: 1.2,
        rob_sens: 0.55,
        branch_mpki,
        mem_parallelism: 2.0,
        activity,
        duration_epochs: dur,
    }
}

/// Cache-sensitive phase: moderate misses that grow steeply when ways are
/// gated.
fn cache_sensitive(ilp: f64, l2_mpki: f64, sens: f64, dur: usize) -> Phase {
    Phase {
        ilp,
        l2_mpki,
        l1_mpki: 14.0,
        cache_sens: sens,
        rob_sens: 0.5,
        branch_mpki: 4.0,
        mem_parallelism: 3.0,
        activity: 0.85,
        duration_epochs: dur,
    }
}

/// Memory-streaming phase: high L2 MPKI that caching barely helps.
fn memory_bound(ilp: f64, l2_mpki: f64, mlp: f64, dur: usize) -> Phase {
    Phase {
        ilp,
        l2_mpki,
        l1_mpki: 20.0,
        cache_sens: 0.15,
        rob_sens: 0.7,
        branch_mpki: 3.0,
        mem_parallelism: mlp,
        activity: 0.6,
        duration_epochs: dur,
    }
}

/// Dependency-chain-limited phase: clean caches but intrinsically low ILP.
fn low_ilp(ilp: f64, branch_mpki: f64, dur: usize) -> Phase {
    Phase {
        ilp,
        l2_mpki: 1.5,
        l1_mpki: 9.0,
        cache_sens: 1.1,
        rob_sens: 0.3,
        branch_mpki,
        mem_parallelism: 1.5,
        activity: 0.7,
        duration_epochs: dur,
    }
}

/// Builds the full 28-application catalog.
pub fn catalog() -> Vec<AppProfile> {
    use AppClass::{FloatingPoint as Fp, Integer as Int};
    vec![
        // ---- SPECint 2006 (12) -------------------------------------------
        // astar: path-finding; cache-sensitive, moderately branchy. Responsive.
        AppProfile::new(
            "astar",
            Int,
            vec![
                cache_sensitive(2.2, 1.2, 2.0, 2200),
                compute(2.0, 6.0, 0.8, 1400),
            ],
        ),
        // bzip2: compression; moderate ILP, working set exceeds L2. Non-responsive.
        AppProfile::new(
            "bzip2",
            Int,
            vec![low_ilp(1.25, 6.5, 1800), memory_bound(1.5, 5.0, 2.5, 1200)],
        ),
        // gcc: compiler; branchy pointer chasing, bursty misses. Non-responsive.
        AppProfile::new(
            "gcc",
            Int,
            vec![
                low_ilp(1.2, 8.0, 900),
                memory_bound(1.4, 7.0, 2.0, 700),
                low_ilp(1.1, 9.0, 1100),
            ],
        ),
        // gobmk: Go engine; branch-dominated, modest cache needs. TRAINING.
        AppProfile::new(
            "gobmk",
            Int,
            vec![
                compute(1.9, 9.0, 0.8, 1600),
                cache_sensitive(1.8, 0.9, 1.2, 1000),
            ],
        ),
        // h264ref: video encode; decent ILP but low ceiling. Non-responsive (validation app).
        AppProfile::new(
            "h264ref",
            Int,
            vec![low_ilp(1.3, 3.5, 2000), memory_bound(1.5, 4.5, 3.0, 900)],
        ),
        // hmmer: profile HMM search; long dependence chains. Non-responsive.
        AppProfile::new("hmmer", Int, vec![low_ilp(1.28, 2.0, 3000)]),
        // libquantum: streaming over a huge vector. Non-responsive.
        AppProfile::new("libquantum", Int, vec![memory_bound(1.8, 22.0, 5.0, 2600)]),
        // mcf: pointer-chasing sparse network solver. Non-responsive.
        AppProfile::new(
            "mcf",
            Int,
            vec![
                memory_bound(1.2, 28.0, 2.0, 2100),
                memory_bound(1.3, 18.0, 2.5, 1500),
            ],
        ),
        // omnetpp: discrete event simulation; heap-heavy. Non-responsive.
        AppProfile::new("omnetpp", Int, vec![memory_bound(1.3, 12.0, 2.0, 2400)]),
        // perlbench: interpreter; branchy, icache/dcache pressure. Non-responsive.
        AppProfile::new(
            "perlbench",
            Int,
            vec![low_ilp(1.3, 7.5, 1300), cache_sensitive(1.4, 3.0, 1.4, 900)],
        ),
        // sjeng: chess search; branchy compute. TRAINING.
        AppProfile::new(
            "sjeng",
            Int,
            vec![compute(2.0, 8.0, 0.85, 1900), low_ilp(1.6, 7.0, 800)],
        ),
        // xalancbmk: XML transform; pointer-heavy. Non-responsive.
        AppProfile::new(
            "xalancbmk",
            Int,
            vec![memory_bound(1.4, 9.0, 2.2, 1400), low_ilp(1.25, 6.0, 1000)],
        ),
        // ---- SPECfp 2006 minus zeusmp (16) -------------------------------
        // bwaves: blast-wave CFD; streaming dense algebra. Non-responsive.
        AppProfile::new("bwaves", Fp, vec![memory_bound(1.7, 15.0, 4.5, 2800)]),
        // cactusADM: numerical relativity; cache-sensitive stencils. Responsive.
        AppProfile::new(
            "cactusADM",
            Fp,
            vec![
                cache_sensitive(2.3, 1.4, 2.2, 2500),
                compute(2.1, 1.5, 0.95, 1200),
            ],
        ),
        // calculix: FEM; compute-dense with solver bursts. Responsive.
        AppProfile::new(
            "calculix",
            Fp,
            vec![
                compute(2.5, 2.0, 1.0, 2000),
                cache_sensitive(2.0, 1.1, 1.5, 900),
            ],
        ),
        // dealII: adaptive FEM; allocator-bound ceilings. Non-responsive.
        // (Figure 9 calls out its sensitivity to L2 misses despite few accesses.)
        AppProfile::new(
            "dealII",
            Fp,
            vec![
                low_ilp(1.35, 3.0, 1500),
                cache_sensitive(1.5, 4.0, 2.4, 800),
            ],
        ),
        // gamess: quantum chemistry; very compute-dense. Responsive.
        AppProfile::new("gamess", Fp, vec![compute(2.7, 1.2, 1.05, 3200)]),
        // GemsFDTD: FDTD field solver; streaming stencils. Non-responsive.
        AppProfile::new("GemsFDTD", Fp, vec![memory_bound(1.6, 14.0, 4.0, 2600)]),
        // gromacs: molecular dynamics; compute-dense inner loops. Responsive.
        AppProfile::new(
            "gromacs",
            Fp,
            vec![compute(2.4, 1.8, 1.0, 2400), compute(2.1, 2.2, 0.9, 1000)],
        ),
        // lbm: lattice Boltzmann; the canonical streamer. Non-responsive.
        AppProfile::new("lbm", Fp, vec![memory_bound(1.9, 24.0, 3.0, 3000)]),
        // leslie3d: CFD; cache-sensitive stencils. TRAINING.
        AppProfile::new(
            "leslie3d",
            Fp,
            vec![
                cache_sensitive(2.2, 1.8, 1.9, 2100),
                memory_bound(1.8, 6.0, 3.5, 700),
            ],
        ),
        // milc: lattice QCD; cache-sensitive with streaming spells. Responsive.
        AppProfile::new(
            "milc",
            Fp,
            vec![
                cache_sensitive(2.3, 1.6, 2.1, 1800),
                compute(2.0, 1.4, 0.9, 800),
                cache_sensitive(2.1, 2.2, 1.8, 1200),
            ],
        ),
        // namd: molecular dynamics; famously compute-dense. TRAINING.
        AppProfile::new(
            "namd",
            Fp,
            vec![compute(2.6, 1.0, 1.05, 2600), compute(2.3, 1.4, 0.95, 1200)],
        ),
        // povray: ray tracing; compute/branchy mix, tiny data. Responsive.
        AppProfile::new(
            "povray",
            Fp,
            vec![compute(2.5, 5.0, 1.0, 2200), compute(2.2, 6.5, 0.9, 1000)],
        ),
        // soplex: LP simplex; sparse memory-bound pivoting. Non-responsive.
        AppProfile::new(
            "soplex",
            Fp,
            vec![memory_bound(1.4, 10.0, 2.5, 1700), low_ilp(1.3, 4.0, 900)],
        ),
        // sphinx3: speech recognition; cache-sensitive scoring. Responsive.
        AppProfile::new(
            "sphinx3",
            Fp,
            vec![
                cache_sensitive(2.2, 1.9, 2.0, 2000),
                compute(2.0, 3.0, 0.85, 900),
            ],
        ),
        // tonto: quantum chemistry; compute with cache spells. Responsive (validation app).
        AppProfile::new(
            "tonto",
            Fp,
            vec![
                compute(2.4, 2.5, 0.95, 1800),
                cache_sensitive(2.0, 1.3, 1.6, 1000),
            ],
        ),
        // wrf: weather model; mixed compute/stencil. Responsive.
        AppProfile::new(
            "wrf",
            Fp,
            vec![
                compute(2.3, 2.0, 0.95, 1500),
                cache_sensitive(2.1, 1.5, 1.7, 1300),
            ],
        ),
    ]
}

/// Names of every catalog application, in catalog order.
pub fn catalog_names() -> Vec<&'static str> {
    shared_catalog().iter().map(AppProfile::name).collect()
}

/// Looks an application up by name.
pub fn lookup(name: &str) -> Option<AppProfile> {
    lookup_shared(name).cloned()
}

/// Looks an application up in the shared catalog, so plants hold no copy
/// of their phase list.
pub(crate) fn lookup_shared(name: &str) -> Option<&'static AppProfile> {
    shared_catalog().iter().find(|a| a.name() == name)
}

/// The catalog, built once per process and shared by every plant and
/// name query.
fn shared_catalog() -> &'static [AppProfile] {
    static CATALOG: std::sync::OnceLock<Vec<AppProfile>> = std::sync::OnceLock::new();
    CATALOG.get_or_init(catalog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{is_non_responsive, is_training};

    #[test]
    fn names_are_unique() {
        let names = catalog_names();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    #[test]
    fn lookup_finds_every_app() {
        for name in catalog_names() {
            assert!(lookup(name).is_some());
        }
        assert!(lookup("nonexistent").is_none());
    }

    #[test]
    fn training_apps_are_not_memory_streamers() {
        // Training apps must be responsive so the 2.5 BIPS / 2 W targets
        // derived from them are meaningful.
        for app in catalog() {
            if is_training(app.name()) {
                let worst_mpki = app
                    .phases()
                    .iter()
                    .map(|p| p.l2_mpki)
                    .fold(0.0_f64, f64::max);
                assert!(
                    worst_mpki < 8.0,
                    "{} too memory-bound to train on",
                    app.name()
                );
            }
        }
    }

    #[test]
    fn non_responsive_apps_have_limiting_phases() {
        // Every non-responsive app must have either heavy memory traffic or
        // a low ILP ceiling in all phases (otherwise it could reach 2.5 BIPS).
        for app in catalog() {
            if is_non_responsive(app.name()) {
                for p in app.phases() {
                    let limited = p.l2_mpki >= 3.0 || p.ilp <= 1.6;
                    assert!(limited, "{} has an unconstrained phase", app.name());
                }
            }
        }
    }

    #[test]
    fn responsive_apps_have_a_fast_phase() {
        for app in catalog() {
            if !is_non_responsive(app.name()) {
                let best_ilp = app.phases().iter().map(|p| p.ilp).fold(0.0_f64, f64::max);
                assert!(
                    best_ilp >= 1.8,
                    "{} cannot reach the IPS target",
                    app.name()
                );
            }
        }
    }

    #[test]
    fn durations_give_phase_changes_within_runs() {
        // Multi-phase apps should change phase within a 10k-epoch run.
        for app in catalog() {
            if app.phases().len() > 1 {
                let first = app.phases()[0].duration_epochs;
                assert!(first < 10_000, "{} first phase too long", app.name());
            }
        }
    }
}
