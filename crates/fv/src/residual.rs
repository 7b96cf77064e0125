//! The discrete residual of Eq. (3) and the Newton right-hand side.
//!
//! For a cell `K` outside the Dirichlet set `T_D` the residual is the sum of the
//! interfacial fluxes towards its neighbours; for a Dirichlet cell it is
//! `p_K − p_K^D`.  Because the single-phase incompressible problem is linear, one
//! Newton step `J δp = −r(p⁰)` solves it exactly; [`newton_rhs`] builds the
//! right-hand side of the SPD system actually handed to CG (see `DESIGN.md` §4).

use crate::flux::interfacial_flux;
use mffv_mesh::{CellField, Direction, DirichletSet, Scalar, Transmissibilities};

/// Evaluate the residual `r(p)` of Eq. (3).
pub fn residual<T: Scalar>(
    pressure: &CellField<T>,
    coeffs: &Transmissibilities<T>,
    dirichlet: &DirichletSet,
) -> CellField<T> {
    let mut r = CellField::zeros(pressure.dims());
    residual_into(pressure, coeffs, dirichlet, &mut r);
    r
}

/// [`residual`] into a caller-owned buffer — bitwise the same field, zero
/// allocations.  Every entry of `out` is overwritten (Dirichlet rows
/// included), so a stale buffer never leaks into the result.
pub fn residual_into<T: Scalar>(
    pressure: &CellField<T>,
    coeffs: &Transmissibilities<T>,
    dirichlet: &DirichletSet,
    out: &mut CellField<T>,
) {
    let dims = pressure.dims();
    assert_eq!(dims, coeffs.dims(), "coefficient table dimension mismatch");
    assert_eq!(dims, out.dims(), "residual buffer dimension mismatch");
    // The cells are visited in linear order, so the sorted Dirichlet list is
    // walked in lockstep instead of searched per cell.
    let mut pinned = dirichlet.sorted_linear().iter().peekable();
    for c in dims.iter_cells() {
        let k = dims.linear(c);
        if let Some(&(_, pd)) = pinned.next_if(|&&(idx, _)| idx == k) {
            out.set(k, pressure.get(k) - T::from_f64(pd));
            continue;
        }
        let mut acc = T::ZERO;
        let pk = pressure.get(k);
        for dir in Direction::ALL {
            if let Some(n) = dims.neighbor(c, dir) {
                let l = dims.linear(n);
                acc += interfacial_flux(coeffs.get(k, dir), pk, pressure.get(l));
            }
        }
        out.set(k, acc);
    }
}

/// The right-hand side of the SPD Newton system `A δp = b` given the residual at the
/// current pressure: `b_K = r_K` for interior cells and `b_K = 0` for Dirichlet cells
/// (whose update is pinned to zero because the initial pressure already satisfies the
/// Dirichlet condition exactly).
pub fn newton_rhs<T: Scalar>(residual: &CellField<T>, dirichlet: &DirichletSet) -> CellField<T> {
    let mut b = CellField::zeros(residual.dims());
    newton_rhs_into(residual, dirichlet, &mut b);
    b
}

/// [`newton_rhs`] into a caller-owned buffer — bitwise the same field, zero
/// allocations.  Every entry of `out` is overwritten.
pub fn newton_rhs_into<T: Scalar>(
    residual: &CellField<T>,
    dirichlet: &DirichletSet,
    out: &mut CellField<T>,
) {
    assert_eq!(residual.dims(), out.dims(), "rhs buffer dimension mismatch");
    out.copy_from(residual);
    for &(k, _) in dirichlet.sorted_linear() {
        out.set(k, T::ZERO);
    }
}

/// Sum of all residual entries over non-Dirichlet cells — a global mass-balance
/// indicator that must vanish for the converged solution of a closed system fed only
/// by Dirichlet cells.
pub fn interior_mass_imbalance<T: Scalar>(
    residual: &CellField<T>,
    dirichlet: &DirichletSet,
) -> f64 {
    let mut acc = 0.0;
    for k in 0..residual.len() {
        if !dirichlet.contains_linear(k) {
            acc += residual.get(k).to_f64();
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use mffv_mesh::{CellIndex, Dims, DirichletCell};

    #[test]
    fn residual_of_constant_pressure_without_dirichlet_is_zero() {
        let dims = Dims::new(4, 4, 4);
        let coeffs = Transmissibilities::<f64>::uniform(dims, 1.0);
        let p = CellField::constant(dims, 2.0);
        let r = residual(&p, &coeffs, &DirichletSet::empty());
        assert!(r.max_abs() < 1e-14);
    }

    #[test]
    fn dirichlet_rows_measure_deviation_from_prescribed_value() {
        let dims = Dims::new(3, 3, 1);
        let coeffs = Transmissibilities::<f64>::uniform(dims, 1.0);
        let dirichlet = DirichletSet::new(
            dims,
            vec![DirichletCell {
                cell: CellIndex::new(1, 1, 0),
                value: 7.0,
            }],
        );
        let p = CellField::constant(dims, 3.0);
        let r = residual(&p, &coeffs, &dirichlet);
        let k = dims.linear(CellIndex::new(1, 1, 0));
        assert_eq!(r.get(k), 3.0 - 7.0);
    }

    #[test]
    fn linear_profile_between_x_faces_has_zero_interior_residual() {
        // Left face fixed at 1, right face at 0, homogeneous coefficients: the exact
        // solution is a linear pressure drop and its interior residual vanishes.
        let dims = Dims::new(5, 3, 3);
        let coeffs = Transmissibilities::<f64>::uniform(dims, 1.0);
        let dirichlet = DirichletSet::x_faces(dims, 1.0, 0.0);
        let p = CellField::from_fn(dims, |c| 1.0 - c.x as f64 / (dims.nx - 1) as f64);
        let r = residual(&p, &coeffs, &dirichlet);
        for c in dims.iter_cells() {
            let k = dims.linear(c);
            if !dirichlet.contains_linear(k) {
                assert!(
                    r.get(k).abs() < 1e-14,
                    "interior residual at {c:?}: {}",
                    r.get(k)
                );
            } else {
                assert!(
                    r.get(k).abs() < 1e-14,
                    "Dirichlet residual should also vanish"
                );
            }
        }
    }

    #[test]
    fn newton_rhs_zeroes_dirichlet_rows() {
        let dims = Dims::new(3, 3, 2);
        let dirichlet = DirichletSet::source_producer(dims, 1.0, 0.0);
        let r = CellField::constant(dims, 4.0);
        let b = newton_rhs(&r, &dirichlet);
        for k in 0..dims.num_cells() {
            if dirichlet.contains_linear(k) {
                assert_eq!(b.get(k), 0.0);
            } else {
                assert_eq!(b.get(k), 4.0);
            }
        }
    }

    #[test]
    fn mass_imbalance_of_flux_field_sums_interior_only() {
        let dims = Dims::new(2, 2, 1);
        let dirichlet = DirichletSet::new(
            dims,
            vec![DirichletCell {
                cell: CellIndex::new(0, 0, 0),
                value: 0.0,
            }],
        );
        let r = CellField::from_vec(dims, vec![100.0, 1.0, 2.0, 3.0]);
        assert_eq!(interior_mass_imbalance(&r, &dirichlet), 6.0);
    }
}
