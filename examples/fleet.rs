//! Fleet: replicate one synthesized controller across a 16-core chip with a
//! shared power budget, then run the same fleet as a one-chip cluster and
//! show both produce the same digest (the README's "Many-core fleets"
//! section, runnable).
//!
//! ```text
//! cargo run --release --example fleet
//! ```

use mimo_arch::core::design::DesignFlow;
use mimo_arch::fleet::{ArbitrationPolicy, ClusterConfig, ClusterRunner, FleetConfig, FleetRunner};
use mimo_arch::sim::{InputSet, ProcessorBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Synthesize one controller, exactly as for a single core.
    let mut plant = ProcessorBuilder::new()
        .app("namd")
        .input_set(InputSet::FreqCache)
        .build()?;
    let controller = DesignFlow::two_input().run(&mut plant)?.into_controller();

    // 2. Replicate it across 16 cores under a 19.2 W chip cap.
    let cfg = FleetConfig::new(16)
        .epochs(1000)
        .power_cap(19.2)
        .policy(ArbitrationPolicy::Proportional);
    let stats = FleetRunner::with_shared_controller(cfg.clone(), &controller)?.run()?;
    println!(
        "16 cores: chip power {:.2} W avg / {:.2} W peak, {:.1}% IPS err, {:.0} epochs/s",
        stats.avg_chip_power_w,
        stats.peak_chip_power_w,
        stats.agg_ips_err_pct,
        stats.epochs_per_sec
    );

    // 3. Lift the same config to a one-chip cluster: both runtimes step
    //    the chip through the same beat, so the science is bit-identical.
    let cluster =
        ClusterRunner::with_shared_controller(ClusterConfig::from(cfg), &controller)?.run()?;
    let chip = &cluster.per_chip[0];
    assert_eq!(
        *chip, stats,
        "the one-chip cluster must reproduce the fleet"
    );
    println!(
        "one-chip cluster: digest {:016x} == {:016x}, deterministic",
        chip.digest(),
        stats.digest()
    );
    Ok(())
}
