//! Standard-normal noise for the plant.
//!
//! Every plant epoch draws three standard normals — the miss-traffic
//! jitter and the two sensor readings — so this sampler runs on every
//! core-epoch of every workload. [`NormalSampler`] is Box–Muller that
//! keeps both outputs of each transform: one `ln`, one `sqrt` and one
//! `sin_cos` yield two independent normals, and the second is handed out
//! on the next call.

use rand::Rng;

/// Box–Muller standard normals, two per transform.
///
/// The sampler holds the unused second output between calls, so each
/// random stream needs its own sampler; a fresh one starts with no spare.
#[derive(Debug, Clone, Copy, Default)]
pub struct NormalSampler {
    spare: Option<f64>,
}

impl NormalSampler {
    /// A sampler with no spare output.
    pub fn new() -> Self {
        NormalSampler::default()
    }

    /// Draws one standard normal: the spare from the last transform if
    /// there is one, otherwise the cosine output of a new transform of two
    /// uniforms from `rng`, keeping its sine output as the spare.
    pub fn sample<R: Rng>(&mut self, rng: &mut R) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen();
        let radius = (-2.0 * u1.ln()).sqrt();
        let (sin, cos) = (2.0 * std::f64::consts::PI * u2).sin_cos();
        self.spare = Some(radius * sin);
        radius * cos
    }
}
