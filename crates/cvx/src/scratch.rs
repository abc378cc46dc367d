//! Reusable solver scratch memory.
//!
//! Every Newton centering step of the barrier method needs the same set of
//! temporaries: the barrier gradient and Hessian, the Jacobi-scaled system,
//! the Cholesky factor, the step and the line-search candidate. Allocating
//! them per iteration puts the heap on the hot path of the Phase-1 sweep
//! (tens of thousands of Newton steps per table build). [`SolverScratch`]
//! owns them instead, keyed by problem dimension, so a [`crate::BarrierSolver`]
//! reused across solves of the same shape performs **no per-iteration heap
//! allocation after its first solve** — phase I (dimension `n + 1`) and
//! phase II (dimension `n`) each keep their own slot.

use protemp_linalg::{Cholesky, Matrix, StackReq};

use crate::CertScratch;

/// Per-dimension buffer set for the Newton inner loop.
#[derive(Debug, Clone)]
pub(crate) struct DimScratch {
    /// Barrier gradient at the current point.
    pub grad: Vec<f64>,
    /// Barrier Hessian at the current point (lower triangle; the strict
    /// upper half is unspecified).
    pub hess: Matrix,
    /// Gradient of one quadratic constraint (temporary).
    pub qgrad: Vec<f64>,
    /// Jacobi scaling `d` with `d_i = 1/sqrt(H_ii)`.
    pub jacobi: Vec<f64>,
    /// Jacobi-scaled Hessian `D H D` (lower triangle).
    pub hs: Matrix,
    /// Scaled negative gradient (Newton right-hand side).
    pub bs: Vec<f64>,
    /// Newton step.
    pub dx: Vec<f64>,
    /// Line-search candidate point.
    pub cand: Vec<f64>,
    /// Copy of the most recent *cleanly centered* iterate (Newton
    /// decrement converged). When the run's final centering stalls, the
    /// barrier loop falls back to this point — an honest (one-µ-looser)
    /// gap bound and healthy slacks instead of a boundary-pressed stall
    /// artifact that would poison every downstream warm start.
    pub center: Vec<f64>,
    /// Constraint slacks `b − Ax` at the barrier loop's current iterate
    /// (one per linear row; grows to the row count on first use).
    pub slack: Vec<f64>,
    /// `ln` of each entry of `slack`, carried with it.
    pub ln_slack: Vec<f64>,
    /// Constraint weights `1/s` then `1/s²` during the Newton assembly;
    /// then `A·dx` and the line-search candidate's slacks (one per linear
    /// row).
    pub w: Vec<f64>,
    /// `ln` of the line-search candidate's slacks in `w`.
    pub cand_ln: Vec<f64>,
    /// Cholesky factor storage, refactored every Newton step.
    pub chol: Cholesky,
}

impl DimScratch {
    fn new(n: usize) -> Self {
        DimScratch {
            grad: vec![0.0; n],
            hess: Matrix::zeros(n, n),
            qgrad: vec![0.0; n],
            jacobi: vec![0.0; n],
            hs: Matrix::zeros(n, n),
            bs: vec![0.0; n],
            dx: vec![0.0; n],
            cand: vec![0.0; n],
            center: vec![0.0; n],
            slack: Vec::new(),
            ln_slack: Vec::new(),
            w: Vec::new(),
            cand_ln: Vec::new(),
            chol: Cholesky::zeroed(n),
        }
    }

    /// Grows the per-row buffers to cover `m` constraint rows. A no-op
    /// (and allocation-free) once they have reached the problem family's
    /// row count.
    pub(crate) fn ensure_rows(&mut self, m: usize) {
        if self.slack.len() < m {
            for buf in [
                &mut self.slack,
                &mut self.ln_slack,
                &mut self.w,
                &mut self.cand_ln,
            ] {
                buf.resize(m, 0.0);
            }
        }
    }

    /// Scalars held by the four per-row buffers once grown: the slacks
    /// and their logs at the iterate, and the weight/candidate buffer with
    /// its logs.
    fn row_scalars(&self) -> usize {
        self.slack.len() + self.ln_slack.len() + self.w.len() + self.cand_ln.len()
    }

    /// Scalar footprint of one dimension slot at creation (the up-front
    /// size computation callers can use for capacity planning; the four
    /// per-row buffers grow on first use and are reported by
    /// [`crate::SolverScratch::footprint_scalars`] once sized).
    pub(crate) const fn req(n: usize) -> StackReq {
        // grad + qgrad + jacobi + bs + dx + cand + center, plus
        // hess + hs + chol.
        StackReq::scalars(7 * n)
            .and(StackReq::matrix(n, n))
            .and(StackReq::matrix(n, n))
            .and(StackReq::matrix(n, n))
    }
}

/// Reusable buffers for the barrier solver's inner loops.
///
/// Held by [`crate::BarrierSolver`] and persisted across solves; grows once
/// per distinct problem dimension it encounters and is allocation-free
/// afterwards. Create one solver per worker thread and reuse it for every
/// solve of the same problem family.
#[derive(Debug, Clone, Default)]
pub struct SolverScratch {
    slots: Vec<(usize, DimScratch)>,
    cert_ws: CertScratch,
}

impl SolverScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        SolverScratch::default()
    }

    /// Drops all cached buffers.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.cert_ws = CertScratch::new();
    }

    /// Number of distinct problem dimensions currently cached.
    pub fn cached_dims(&self) -> usize {
        self.slots.len()
    }

    /// Total scalar footprint of the cached buffers (including the per-row
    /// slack, log and weight buffers once they have grown to a problem's
    /// row count).
    pub fn footprint_scalars(&self) -> usize {
        self.slots
            .iter()
            .map(|(n, s)| DimScratch::req(*n).len() + s.row_scalars())
            .sum()
    }

    /// The certificate-check workspace shared by this solver's
    /// verification of freshly extracted certificates.
    pub(crate) fn cert_ws(&mut self) -> &mut CertScratch {
        &mut self.cert_ws
    }

    /// The buffer set for dimension `n`, creating it on first request.
    pub(crate) fn for_dim(&mut self, n: usize) -> &mut DimScratch {
        if let Some(pos) = self.slots.iter().position(|(d, _)| *d == n) {
            return &mut self.slots[pos].1;
        }
        self.slots.push((n, DimScratch::new(n)));
        &mut self.slots.last_mut().expect("just pushed").1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_cached_per_dimension() {
        let mut s = SolverScratch::new();
        assert_eq!(s.cached_dims(), 0);
        let p1 = s.for_dim(4).grad.as_ptr();
        let p2 = s.for_dim(5).grad.as_ptr();
        assert_eq!(s.cached_dims(), 2);
        // Re-requesting an existing dimension returns the same buffers.
        assert_eq!(s.for_dim(4).grad.as_ptr(), p1);
        assert_eq!(s.for_dim(5).grad.as_ptr(), p2);
        assert_eq!(s.cached_dims(), 2);
        s.clear();
        assert_eq!(s.cached_dims(), 0);
    }

    #[test]
    fn footprint_matches_req() {
        let mut s = SolverScratch::new();
        s.for_dim(3);
        assert_eq!(s.footprint_scalars(), DimScratch::req(3).len());
        assert_eq!(DimScratch::req(3).len(), 7 * 3 + 3 * 9);
    }

    #[test]
    fn footprint_counts_every_per_row_buffer() {
        let mut s = SolverScratch::new();
        s.for_dim(3).ensure_rows(10);
        let slot = s.for_dim(3);
        for buf in [&slot.slack, &slot.ln_slack, &slot.w, &slot.cand_ln] {
            assert_eq!(buf.len(), 10);
        }
        assert_eq!(s.footprint_scalars(), DimScratch::req(3).len() + 4 * 10);
        // Growing is monotone: a smaller problem keeps the buffers.
        s.for_dim(3).ensure_rows(4);
        assert_eq!(s.footprint_scalars(), DimScratch::req(3).len() + 4 * 10);
    }
}
