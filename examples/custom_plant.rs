//! Bring your own plant: the controller layer is generic over the
//! [`Plant`] trait, so the same identify → synthesize → track pipeline
//! works on any system with actuators and sensors — here, a toy
//! two-tank "thermal" model unrelated to the processor simulator.
//!
//! ```text
//! cargo run --release --example custom_plant
//! ```

use mimo_arch::core::design::DesignFlow;
use mimo_arch::core::weights::WeightSet;
use mimo_arch::linalg::Vector;
use mimo_arch::sim::{Plant, SimError};

/// A two-input, two-output thermal plant: two heater duties (0..=10, in
/// discrete steps) drive two coupled temperatures with first-order lags.
struct ThermalPlant {
    temps: [f64; 2],
    noise_state: u64,
}

impl ThermalPlant {
    fn new() -> Self {
        ThermalPlant {
            temps: [20.0, 20.0],
            noise_state: 0x9E3779B97F4A7C15,
        }
    }

    fn noise(&mut self) -> f64 {
        // xorshift pseudo-noise in [-0.5, 0.5).
        self.noise_state ^= self.noise_state << 13;
        self.noise_state ^= self.noise_state >> 7;
        self.noise_state ^= self.noise_state << 17;
        (self.noise_state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    }
}

impl Plant for ThermalPlant {
    fn num_inputs(&self) -> usize {
        2
    }

    fn num_outputs(&self) -> usize {
        2
    }

    fn input_grids(&self) -> Vec<Vec<f64>> {
        // Heater duty levels 0..=10.
        let grid: Vec<f64> = (0..=10).map(f64::from).collect();
        vec![grid.clone(), grid]
    }

    fn apply_into(&mut self, u: &Vector, out: &mut Vector) -> mimo_arch::sim::Result<()> {
        // Reject what the dynamics cannot consume, before advancing them.
        for got in [u.len(), out.len()] {
            if got != 2 {
                return Err(SimError::BadActuation { got, expected: 2 });
            }
        }
        if let Some(channel) = u.iter().position(|v| !v.is_finite()) {
            return Err(SimError::NonFiniteActuation { channel });
        }
        // Coupled first-order dynamics: each heater mostly warms its own
        // tank but leaks into the other.
        let ambient = 20.0;
        let w0 = 2.0 * u[0] + 0.6 * u[1];
        let w1 = 0.5 * u[0] + 1.5 * u[1];
        self.temps[0] += 0.08 * (ambient + w0 - self.temps[0]);
        self.temps[1] += 0.06 * (ambient + w1 - self.temps[1]);
        let (n0, n1) = (self.noise(), self.noise());
        out[0] = self.temps[0] + n0;
        out[1] = self.temps[1] + n1;
        Ok(())
    }

    fn observe(&mut self) -> Vector {
        // A sensor read without advancing the dynamics.
        let (n0, n1) = (self.noise(), self.noise());
        Vector::from_slice(&[self.temps[0] + n0, self.temps[1] + n1])
    }

    fn phase_changed(&self) -> bool {
        false
    }

    fn reset(&mut self) {
        self.temps = [20.0, 20.0];
        self.noise_state = 0x9E3779B97F4A7C15;
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Weights: both temperatures equally important; heater 0 is cheaper
    // to move than heater 1.
    let mut flow = DesignFlow::two_input().with_weights(WeightSet {
        label: "thermal".into(),
        output: vec![1.0, 1.0],
        input: vec![0.001, 0.002],
    });
    // This plant is quiet and linear: the processor-calibrated input
    // weight scale would make the controller needlessly timid.
    flow.input_weight_scale = 1e2;

    let mut plant = ThermalPlant::new();
    let mut controller = flow.run(&mut plant)?.into_controller();
    println!(
        "identified a dimension-{} model of the thermal plant",
        controller.model().state_dim()
    );

    // Track 35 °C and 30 °C.
    controller.set_reference(&Vector::from_slice(&[35.0, 30.0]));
    plant.reset();
    let mut y = Vector::from_slice(&[20.0, 20.0]);
    let mut u = Vector::zeros(controller.num_inputs());
    for epoch in 0..400 {
        controller.step_into(&y, &mut u);
        plant.apply_into(&u, &mut y)?;
        if epoch % 80 == 0 {
            println!(
                "epoch {epoch:>3}: duties ({:.0}, {:.0}) → temps ({:.1}, {:.1}) °C",
                u[0], u[1], y[0], y[1]
            );
        }
    }
    let err0 = (y[0] - 35.0_f64).abs();
    let err1 = (y[1] - 30.0_f64).abs();
    println!("final tracking error: ({err0:.2}, {err1:.2}) °C");
    Ok(())
}
