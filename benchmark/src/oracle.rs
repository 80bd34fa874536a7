//! The harness-side correctness oracle: every returned `x` is checked
//! against the matrix it was asked to solve, independently of the
//! residual the solver reports about itself.

use sparsekit::ops::residual_inf_norm;
use sparsekit::{Csr, Fnv64};

/// Largest accepted normwise backward error.
pub const MAX_BACKWARD_ERROR: f64 = 1e-8;

fn inf_norm(v: &[f64]) -> f64 {
    v.iter().fold(0.0, |m, x| m.max(x.abs()))
}

/// `‖b − Ax‖∞ / (‖A‖∞ ‖x‖∞ + ‖b‖∞)`.
pub fn backward_error(a: &Csr, x: &[f64], b: &[f64]) -> f64 {
    let r = residual_inf_norm(a, x, b);
    let a_norm = (0..a.nrows())
        .map(|i| a.row_values(i).iter().map(|v| v.abs()).sum::<f64>())
        .fold(0.0, f64::max);
    r / (a_norm * inf_norm(x) + inf_norm(b))
}

/// FNV-1a over the bit patterns of `x`: equal across runs of one build
/// at one thread count, so a changed answer shows even when it still
/// passes the backward-error bound.
pub fn fingerprint(x: &[f64]) -> u64 {
    let mut h = Fnv64::new();
    for &v in x {
        h.write_f64(v);
    }
    h.finish()
}

/// Operations attempted and failed in one run. A failure is a typed
/// error, a non-converged solve, a backward error above the bound, or a
/// sequence step that fell back to a rebuild.
#[derive(Default, Debug)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Ops {
    /// Counts one operation; `why` is printed when it failed.
    pub fn record(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("operation failed: {}", why());
        }
    }

    /// Counts one solve, checking `x` against `a` and `b`.
    pub fn solve(
        &mut self,
        a: &Csr,
        b: &[f64],
        out: &Result<pdslin::SolveOutcome, pdslin::PdslinError>,
    ) {
        match out {
            Err(e) => self.record(false, || format!("solve: {e}")),
            Ok(o) => {
                let be = backward_error(a, &o.x, b);
                self.record(o.converged && be <= MAX_BACKWARD_ERROR, || {
                    format!("solve: converged={} backward error {be:.3e}", o.converged)
                });
            }
        }
    }
}
