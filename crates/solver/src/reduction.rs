//! Deterministic reductions matching the whole-fabric all-reduce order.
//!
//! §III-C of the paper reduces dot products in a fixed spatial order: each PE first
//! reduces its own z-column, rows are then reduced left → right, the right-most
//! column is reduced top → bottom, and the result is broadcast back.  Floating-point
//! addition is not associative, so reproducing *the same order* on the host is what
//! allows bit-for-bit comparison between the fabric execution and the host oracle.
//!
//! [`fabric_ordered_dot`] and [`fabric_ordered_sum`] implement exactly that order on
//! [`CellField`]s.

use mffv_mesh::{CellField, Scalar};

/// Sum the per-cell products `a_i · b_i` in fabric all-reduce order:
/// z within each PE column, then columns left → right within each fabric row, then
/// fabric rows top → bottom.
pub fn fabric_ordered_dot<T: Scalar>(a: &CellField<T>, b: &CellField<T>) -> T {
    assert_eq!(a.dims(), b.dims(), "field dimension mismatch");
    let dims = a.dims();
    let mut total = T::ZERO;
    for y in 0..dims.ny {
        let mut row_acc = T::ZERO;
        for x in 0..dims.nx {
            // Per-PE partial: reduce the z-column locally first.
            let col_a = a.column(x, y);
            let col_b = b.column(x, y);
            let mut pe_acc = T::ZERO;
            for (va, vb) in col_a.iter().zip(col_b.iter()) {
                pe_acc = va.mul_add(*vb, pe_acc);
            }
            // Row reduction: values flow left → right, accumulating on the east side.
            row_acc += pe_acc;
        }
        // Column reduction on the right-most fabric column: top → bottom.
        total += row_acc;
    }
    total
}

/// Sum a single field in fabric all-reduce order (dot with an implicit all-ones
/// field, without the multiplications).
pub fn fabric_ordered_sum<T: Scalar>(a: &CellField<T>) -> T {
    let dims = a.dims();
    let mut total = T::ZERO;
    for y in 0..dims.ny {
        let mut row_acc = T::ZERO;
        for x in 0..dims.nx {
            let mut pe_acc = T::ZERO;
            for v in a.column(x, y) {
                pe_acc += v;
            }
            row_acc += pe_acc;
        }
        total += row_acc;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use mffv_mesh::Dims;
    use proptest::prelude::*;

    #[test]
    fn fabric_sum_matches_naive_sum_for_exact_values() {
        let dims = Dims::new(4, 3, 5);
        let f = CellField::<f64>::from_fn(dims, |c| (c.x + c.y * 10 + c.z * 100) as f64);
        let naive: f64 = f.as_slice().iter().sum();
        assert_eq!(fabric_ordered_sum(&f), naive);
    }

    #[test]
    fn fabric_dot_matches_field_dot_in_f64() {
        let dims = Dims::new(5, 4, 3);
        let a = CellField::<f64>::from_fn(dims, |c| (c.x as f64) - 0.5 * (c.z as f64));
        let b = CellField::<f64>::from_fn(dims, |c| 1.0 + (c.y as f64) * 0.25);
        let expected = a.dot(&b);
        let got = fabric_ordered_dot(&a, &b);
        assert!((expected - got).abs() < 1e-9 * expected.abs().max(1.0));
    }

    proptest! {
        #[test]
        fn fabric_sum_is_permutation_invariant_at_f64(values in proptest::collection::vec(-10.0f64..10.0, 24)) {
            let dims = Dims::new(4, 3, 2);
            let f = CellField::from_vec(dims, values.clone());
            let naive: f64 = values.iter().sum();
            prop_assert!((fabric_ordered_sum(&f) - naive).abs() < 1e-9);
        }
    }
}
