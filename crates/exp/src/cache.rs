//! Memoized controller-design artifacts shared across one harness run.
//!
//! Several figures deploy the *same* design: fig09/fig11/fig12/tab-opt all
//! start from `design_mimo(FreqCache, seed)`, and the decoupled / heuristic
//! / baseline architectures are likewise pure functions of a small key. The
//! multi-thousand-epoch excitation recording, ARX least-squares, and DARE
//! synthesis behind each of those is the most expensive non-simulation work
//! in `mimo-exp all`, so a [`DesignCache`] computes each distinct design
//! once and hands every caller the same [`Arc`].
//!
//! Concurrency discipline: each key maps to an `Arc<OnceLock<V>>` slot.
//! The map lock is held only long enough to fetch/insert the slot; the
//! expensive compute runs inside `OnceLock::get_or_init` *outside* the map
//! lock, so two workers asking for *different* designs never serialize,
//! while two workers racing on the *same* key block until the single
//! initializer finishes (compute-once, not compute-twice-drop-one).

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use mimo_core::decoupled::DecoupledGovernor;
use mimo_core::design::{DesignFlow, ValidatedDesign};
use mimo_core::heuristic::SensitivityRanking;
use mimo_core::optimizer::Metric;
use mimo_core::weights::WeightSet;
use mimo_core::Result;
use mimo_sim::{InputSet, PlantConfig};

use crate::setup;

/// Everything that determines a MIMO design's output (§V's Figure 3 flow
/// is deterministic given these): the actuator set, an optional explicit
/// weight set (`None` = the flow's Table III default), the ARX denominator
/// order, and the seed that drives excitation and plant noise.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DesignKey {
    /// Which actuators the controller commands.
    pub input_set: InputSet,
    /// Explicit weight override, or `None` for the flow default.
    pub weights: Option<WeightSet>,
    /// ARX denominator order `na` used by identification.
    pub arx_na: usize,
    /// Seed for excitation recording and training-plant noise.
    pub seed: u64,
}

/// One memoization table: key → compute-once slot.
type Table<K, V> = Mutex<HashMap<K, Arc<OnceLock<V>>>>;

struct CacheInner {
    designs: Table<DesignKey, Result<Arc<ValidatedDesign>>>,
    decoupled: Table<u64, Result<DecoupledGovernor>>,
    rankings: Table<(InputSet, u64), SensitivityRanking>,
    baselines: Table<(InputSet, Metric, u64), PlantConfig>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// A process-wide memo of design-flow products, cheap to clone (it is an
/// [`Arc`] around the tables) and safe to share across grid workers.
#[derive(Clone)]
pub struct DesignCache {
    inner: Arc<CacheInner>,
}

impl Default for DesignCache {
    fn default() -> Self {
        DesignCache {
            inner: Arc::new(CacheInner {
                designs: Mutex::new(HashMap::new()),
                decoupled: Mutex::new(HashMap::new()),
                rankings: Mutex::new(HashMap::new()),
                baselines: Mutex::new(HashMap::new()),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
            }),
        }
    }
}

impl fmt::Debug for DesignCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (hits, misses) = self.stats();
        f.debug_struct("DesignCache")
            .field("hits", &hits)
            .field("misses", &misses)
            .finish()
    }
}

/// Looks up `key` in `table`, computing with `compute` on a miss. The map
/// lock is dropped before `compute` runs; concurrent same-key callers
/// block on the slot's `OnceLock` instead of recomputing.
fn get_or_compute<K, V, F>(
    table: &Table<K, V>,
    hits: &AtomicU64,
    misses: &AtomicU64,
    key: K,
    compute: F,
) -> V
where
    K: Eq + Hash,
    V: Clone,
    F: FnOnce() -> V,
{
    let slot = {
        let mut map = table.lock().expect("design-cache table poisoned");
        Arc::clone(map.entry(key).or_default())
    };
    let mut computed = false;
    let value = slot.get_or_init(|| {
        computed = true;
        compute()
    });
    if computed {
        misses.fetch_add(1, Ordering::Relaxed);
    } else {
        hits.fetch_add(1, Ordering::Relaxed);
    }
    value.clone()
}

impl DesignCache {
    /// A fresh, empty cache.
    pub fn new() -> Self {
        DesignCache::default()
    }

    /// `(hits, misses)` across all tables since construction.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.inner.hits.load(Ordering::Relaxed),
            self.inner.misses.load(Ordering::Relaxed),
        )
    }

    /// Memoized [`setup::design_mimo`]: the Figure 3 flow with the
    /// default Table III weights.
    ///
    /// # Errors
    ///
    /// Propagates (and memoizes) identification/synthesis/RSA failures —
    /// a failing design fails the same way for every caller.
    pub fn design_mimo(&self, input_set: InputSet, seed: u64) -> Result<Arc<ValidatedDesign>> {
        self.design_mimo_with(input_set, seed, None)
    }

    /// Memoized [`setup::design_mimo_with`].
    ///
    /// # Errors
    ///
    /// Propagates (and memoizes) identification/synthesis/RSA failures.
    pub fn design_mimo_with(
        &self,
        input_set: InputSet,
        seed: u64,
        weights: Option<WeightSet>,
    ) -> Result<Arc<ValidatedDesign>> {
        let arx_na = match input_set {
            InputSet::FreqCache => DesignFlow::two_input().arx_na,
            InputSet::FreqCacheRob => DesignFlow::three_input().arx_na,
        };
        let key = DesignKey {
            input_set,
            weights: weights.clone(),
            arx_na,
            seed,
        };
        get_or_compute(
            &self.inner.designs,
            &self.inner.hits,
            &self.inner.misses,
            key,
            || setup::design_mimo_with(input_set, seed, weights).map(Arc::new),
        )
    }

    /// Memoized [`setup::decoupled_governor`] (keyed by seed only — the
    /// decoupled architecture is two-input by construction).
    ///
    /// # Errors
    ///
    /// Propagates (and memoizes) SISO design failures.
    pub fn decoupled_governor(&self, seed: u64) -> Result<DecoupledGovernor> {
        get_or_compute(
            &self.inner.decoupled,
            &self.inner.hits,
            &self.inner.misses,
            seed,
            || setup::decoupled_governor(seed),
        )
    }

    /// Memoized [`setup::heuristic_ranking`].
    pub fn heuristic_ranking(&self, input_set: InputSet, seed: u64) -> SensitivityRanking {
        get_or_compute(
            &self.inner.rankings,
            &self.inner.hits,
            &self.inner.misses,
            (input_set, seed),
            || setup::heuristic_ranking(input_set, seed),
        )
    }

    /// Memoized [`setup::baseline_config`] (the grid profile behind the
    /// Baseline architecture: 32 or 128 configurations swept over one
    /// noise path per training app, cheaper than one MIMO design).
    pub fn baseline_config(&self, input_set: InputSet, metric: Metric, seed: u64) -> PlantConfig {
        get_or_compute(
            &self.inner.baselines,
            &self.inner.hits,
            &self.inner.misses,
            (input_set, metric, seed),
            || setup::baseline_config(input_set, metric, seed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_hit_returns_the_same_arc() {
        let cache = DesignCache::new();
        let a = cache.design_mimo(InputSet::FreqCache, 11).unwrap();
        let b = cache.design_mimo(InputSet::FreqCache, 11).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "warm hit must share the cold Arc");
        assert_eq!(cache.stats(), (1, 1));
    }

    #[test]
    fn different_seed_misses() {
        let cache = DesignCache::new();
        let a = cache.design_mimo(InputSet::FreqCache, 11).unwrap();
        let b = cache.design_mimo(InputSet::FreqCache, 12).unwrap();
        assert!(!Arc::ptr_eq(&a, &b), "different seeds are distinct keys");
        assert_eq!(cache.stats(), (0, 2));
    }

    #[test]
    fn weight_override_is_part_of_the_key() {
        let cache = DesignCache::new();
        let default = cache.design_mimo(InputSet::FreqCache, 11).unwrap();
        let explicit = cache
            .design_mimo_with(
                InputSet::FreqCache,
                11,
                Some(WeightSet::table_iii_two_input()),
            )
            .unwrap();
        // Same numeric weights, but `None` vs `Some` are distinct keys
        // (the flow default could diverge from Table III).
        assert!(!Arc::ptr_eq(&default, &explicit));
        let again = cache
            .design_mimo_with(
                InputSet::FreqCache,
                11,
                Some(WeightSet::table_iii_two_input()),
            )
            .unwrap();
        assert!(Arc::ptr_eq(&explicit, &again));
    }

    #[test]
    fn aux_tables_memoize_and_count() {
        let cache = DesignCache::new();
        let r1 = cache.heuristic_ranking(InputSet::FreqCache, 3);
        let r2 = cache.heuristic_ranking(InputSet::FreqCache, 3);
        assert_eq!(r1.order, r2.order);
        let d1 = cache.decoupled_governor(7).unwrap();
        let _d2 = cache.decoupled_governor(7).unwrap();
        let _ = d1;
        let (hits, misses) = cache.stats();
        assert_eq!((hits, misses), (2, 2));
    }

    #[test]
    fn concurrent_same_key_computes_once() {
        let cache = DesignCache::new();
        let designs: Vec<Arc<ValidatedDesign>> = crate::par::par_map(4, vec![(); 4], |_, ()| {
            cache.design_mimo(InputSet::FreqCache, 21).unwrap()
        });
        for d in &designs[1..] {
            assert!(Arc::ptr_eq(&designs[0], d));
        }
        let (hits, misses) = cache.stats();
        assert_eq!(misses, 1, "exactly one initializer ran");
        assert_eq!(hits, 3);
    }

    #[test]
    fn clones_share_the_same_tables() {
        let cache = DesignCache::new();
        let clone = cache.clone();
        let a = cache.design_mimo(InputSet::FreqCache, 31).unwrap();
        let b = clone.design_mimo(InputSet::FreqCache, 31).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats(), clone.stats());
    }
}
