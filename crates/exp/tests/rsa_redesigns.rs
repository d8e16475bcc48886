//! Pins the outcome of the Robust Stability Analysis loop for the deployed
//! MIMO designs: how many times `DesignFlow::rsa_redesign` de-escalated the
//! integral weight, and that the accepted design is robust. A change to
//! the frequency sweep, the singular-value routine or the identification
//! chain that moves a redesign decision shows up here first.

use mimo_exp::setup::design_mimo;
use mimo_sim::InputSet;

#[test]
fn redesign_counts_and_verdicts_are_pinned() {
    let pins = [
        (
            InputSet::FreqCache,
            [(1, 3), (7, 3), (11, 0), (17, 4), (19, 4), (2016, 3)],
        ),
        (
            InputSet::FreqCacheRob,
            [(1, 4), (7, 3), (11, 3), (17, 4), (19, 4), (2016, 3)],
        ),
    ];
    for (set, seeds) in pins {
        for (seed, redesigns) in seeds {
            let d = design_mimo(set, seed).expect("design");
            assert_eq!(d.redesigns, redesigns, "{set:?} seed {seed}");
            assert!(d.rsa.robust, "{set:?} seed {seed}");
            assert!(d.rsa.peak_weighted_gain < 1.0, "{set:?} seed {seed}");
        }
    }
}
