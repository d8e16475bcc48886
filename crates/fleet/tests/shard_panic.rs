//! A governor panic on a shard thread must end a cluster run with a panic,
//! never a hang: the caller waits on each shard's own summary channel, and
//! a panicked shard closes its channel.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

use mimo_core::governor::{FixedGovernor, Governor};
use mimo_fleet::{ClusterConfig, ClusterRunner};
use mimo_linalg::Vector;

/// A fixed-actuation governor that panics on its `panic_at`-th decision.
struct PanicsAt {
    inner: FixedGovernor,
    decisions: usize,
    panic_at: usize,
}

impl Governor for PanicsAt {
    fn name(&self) -> &str {
        "panics-at"
    }

    fn num_inputs(&self) -> usize {
        self.inner.num_inputs()
    }

    fn set_targets(&mut self, y0: &Vector) {
        self.inner.set_targets(y0);
    }

    fn decide(&mut self, y: &Vector, phase_changed: bool) -> Vector {
        self.decisions += 1;
        assert!(self.decisions < self.panic_at, "governor panic on purpose");
        self.inner.decide(y, phase_changed)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

#[test]
fn a_panicking_shard_ends_the_run_instead_of_hanging() {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            // Four chips at two shards: chips 2 and 3 form the second
            // chunk, which steps off the calling thread on any host with
            // two or more hardware threads. Chip 3 panics mid-window, after
            // the first exchange.
            let cfg = ClusterConfig::new(4, 2).shards(2).epochs(100).seed(5);
            let runner = ClusterRunner::new(cfg, |chip, core, _| {
                Box::new(PanicsAt {
                    inner: FixedGovernor::new(Vector::from_slice(&[1.3, 6.0])),
                    decisions: 0,
                    panic_at: if chip == 3 && core == 0 {
                        40
                    } else {
                        usize::MAX
                    },
                })
            })
            .expect("valid cluster");
            runner.run()
        }));
        let _ = tx.send(outcome.is_err());
    });
    let panicked = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the cluster run hung after a shard panicked");
    assert!(panicked, "the shard's panic must reach the caller");
    handle
        .join()
        .expect("the run's panic was caught on its thread");
}
