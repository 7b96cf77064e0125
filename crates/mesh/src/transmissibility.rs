//! TPFA transmissibilities.
//!
//! The interfacial flux of Eq. (4) is `f_KL = Υ_KL λ_KL (p_L − p_K)` where the
//! transmissibility `Υ_KL` "is a coefficient accounting for the geometry of the cells
//! and their permeability" and the interfacial mobility `λ_KL` is the arithmetic
//! average of the (constant) cell mobilities.  This module precomputes, for every
//! cell and every one of its six faces, the combined coefficient `Υ_KL λ_KL` — the
//! exact quantity each PE stores ("six transmissibilities for the computation of
//! Eq. (6)", §III-A).
//!
//! `Υ_KL` is the standard harmonic average of the two half-transmissibilities
//! `T_K = κ_K A / (d/2)`; faces on the domain boundary get a zero coefficient
//! (no-flow), which is how the boundary of the Cartesian box is closed.

use crate::dims::Dims;
use crate::field::CellField;
use crate::mesh::CartesianMesh;
use crate::neighbors::Direction;
use crate::scalar::Scalar;
use std::sync::OnceLock;

/// Per-cell, per-direction transmissibility coefficients `Υ_KL λ_KL`.
#[derive(Clone, Debug)]
pub struct Transmissibilities<T: Scalar> {
    dims: Dims,
    /// `data[cell][Direction::index()]`.
    data: Vec<[T; 6]>,
    /// Memoised [`fingerprint`](Self::fingerprint), computed on first use.
    /// The table has no `&mut` API, so the digest can never go stale.
    fingerprint: OnceLock<u64>,
}

/// Equal grid extents and coefficients; the fingerprint memo is ignored.
impl<T: Scalar> PartialEq for Transmissibilities<T> {
    fn eq(&self, other: &Self) -> bool {
        self.dims == other.dims && self.data == other.data
    }
}

impl<T: Scalar> Transmissibilities<T> {
    /// Compute TPFA transmissibilities from mesh geometry, a permeability field (m²)
    /// and a constant fluid viscosity (Pa·s).
    ///
    /// The computation is carried out in `f64` and converted to `T` at the end, so
    /// `f32` device tables are rounded once rather than accumulating error.
    pub fn from_mesh(mesh: &CartesianMesh, permeability: &CellField<f64>, viscosity: f64) -> Self {
        assert!(viscosity > 0.0, "viscosity must be positive");
        assert_eq!(
            mesh.dims(),
            permeability.dims(),
            "permeability grid mismatch"
        );
        let dims = mesh.dims();
        let mobility = 1.0 / viscosity; // λ_K = λ_L = 1/μ, so λ_KL = 1/μ as well.
        let mut data = vec![[T::ZERO; 6]; dims.num_cells()];
        for c in dims.iter_cells() {
            let idx = dims.linear(c);
            let k_c = permeability.at(c);
            for dir in Direction::ALL {
                if let Some(n) = dims.neighbor(c, dir) {
                    let k_n = permeability.at(n);
                    let half = mesh.half_geometric_factor(dir);
                    let t_c = k_c * half;
                    let t_n = k_n * half;
                    // Harmonic average of the two half-transmissibilities.
                    let upsilon = if t_c > 0.0 && t_n > 0.0 {
                        1.0 / (1.0 / t_c + 1.0 / t_n)
                    } else {
                        0.0
                    };
                    data[idx][dir.index()] = T::from_f64(upsilon * mobility);
                }
            }
        }
        Self::from_rows(dims, data)
    }

    /// A uniform coefficient on every interior face (zero on boundary faces).  This
    /// is the setting of the kernel-level experiments, where the operator reduces to
    /// a scaled 7-point Laplacian.
    pub fn uniform(dims: Dims, coefficient: T) -> Self {
        let mut data = vec![[T::ZERO; 6]; dims.num_cells()];
        for c in dims.iter_cells() {
            let idx = dims.linear(c);
            for dir in Direction::ALL {
                if dims.neighbor(c, dir).is_some() {
                    data[idx][dir.index()] = coefficient;
                }
            }
        }
        Self::from_rows(dims, data)
    }

    /// Build from an explicit per-cell coefficient table (one `[T; 6]` row per
    /// cell in linear-layout order, each row in [`Direction::ALL`] order).
    /// The caller is responsible for face symmetry (`Υ_KL λ_KL == Υ_LK λ_LK`)
    /// and for zero coefficients on boundary faces; this is the constructor
    /// coarsened multigrid levels use, where the coarse table is derived from
    /// an already-symmetric fine table.
    pub fn from_rows(dims: Dims, data: Vec<[T; 6]>) -> Self {
        assert_eq!(data.len(), dims.num_cells(), "coefficient row count");
        Self {
            dims,
            data,
            fingerprint: OnceLock::new(),
        }
    }

    /// Grid extents.
    pub fn dims(&self) -> Dims {
        self.dims
    }

    /// Coefficient for the face of cell `cell_linear` in direction `dir` (zero when
    /// the face lies on the domain boundary).
    #[inline]
    pub fn get(&self, cell_linear: usize, dir: Direction) -> T {
        self.data[cell_linear][dir.index()]
    }

    /// All six coefficients of a cell in [`Direction::ALL`] order.
    #[inline]
    pub fn all(&self, cell_linear: usize) -> [T; 6] {
        self.data[cell_linear]
    }

    /// The whole coefficient table as a raw slice — one `[T; 6]` row per cell
    /// in linear-layout order, each row in [`Direction::ALL`] order.  This is
    /// the zero-copy view the planned stencil kernels stream through.
    #[inline]
    pub fn cell_rows(&self) -> &[[T; 6]] {
        &self.data
    }

    /// The coefficients of the z-column at `(x, y)` for one direction, ordered
    /// z = 0 .. nz-1 — the layout a PE keeps in local memory.
    pub fn column_dir(&self, x: usize, y: usize, dir: Direction) -> Vec<T> {
        let base = self.dims.column_base(x, y);
        let stride = self.dims.column_stride();
        (0..self.dims.nz)
            .map(|z| self.data[base + z * stride][dir.index()])
            .collect()
    }

    /// Sum of the six coefficients of a cell (the magnitude of the operator's
    /// diagonal entry for interior cells).
    pub fn row_sum(&self, cell_linear: usize) -> T {
        let mut s = T::ZERO;
        for v in self.data[cell_linear] {
            s += v;
        }
        s
    }

    /// Verify the face symmetry `Υ_KL λ_KL == Υ_LK λ_LK` to within `tolerance`
    /// (relative).  Returns the largest relative asymmetry found.
    pub fn max_asymmetry(&self) -> f64 {
        let mut worst = 0.0f64;
        for c in self.dims.iter_cells() {
            let idx = self.dims.linear(c);
            for dir in Direction::ALL {
                if let Some(n) = self.dims.neighbor(c, dir) {
                    let nidx = self.dims.linear(n);
                    let a = self.get(idx, dir).to_f64();
                    let b = self.get(nidx, dir.opposite()).to_f64();
                    let denom = a.abs().max(b.abs()).max(f64::MIN_POSITIVE);
                    worst = worst.max((a - b).abs() / denom);
                }
            }
        }
        worst
    }

    /// Convert to a different scalar precision.
    pub fn convert<U: Scalar>(&self) -> Transmissibilities<U> {
        let data = self
            .data
            .iter()
            .map(|row| {
                let mut out = [U::ZERO; 6];
                for (o, v) in out.iter_mut().zip(row.iter()) {
                    *o = U::from_f64(v.to_f64());
                }
                out
            })
            .collect();
        Transmissibilities::from_rows(self.dims, data)
    }

    /// Approximate memory footprint in bytes of the per-cell coefficient table; used
    /// by the PE local-memory budgeting in `mffv-core`.
    pub fn bytes(&self) -> usize {
        self.data.len() * 6 * std::mem::size_of::<T>()
    }

    /// FNV-1a fingerprint over the grid extents and every coefficient's
    /// exact bit pattern, in fixed cell-then-direction order — the
    /// transmissibility component of a solve-context cache key (see
    /// [`crate::fingerprint`]).  Equal tables fingerprint equal; any single
    /// bit of any coefficient changes the digest.
    ///
    /// Computed once per table on first call and memoised, so a cached
    /// workload keyed on every job pays the O(cells) hash only once.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| self.compute_fingerprint())
    }

    fn compute_fingerprint(&self) -> u64 {
        let mut hash = crate::fingerprint::Fnv1a::new();
        hash.write_usize(self.dims.nx);
        hash.write_usize(self.dims.ny);
        hash.write_usize(self.dims.nz);
        for row in &self.data {
            for v in row {
                hash.write_f64(v.to_f64());
            }
        }
        hash.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dims::CellIndex;
    use crate::permeability::PermeabilityModel;
    use proptest::prelude::*;

    #[test]
    fn uniform_coefficients_zero_on_boundary() {
        let dims = Dims::new(3, 3, 3);
        let t = Transmissibilities::<f64>::uniform(dims, 2.0);
        let corner = dims.linear(CellIndex::new(0, 0, 0));
        assert_eq!(t.get(corner, Direction::XM), 0.0);
        assert_eq!(t.get(corner, Direction::XP), 2.0);
        let center = dims.linear(CellIndex::new(1, 1, 1));
        for dir in Direction::ALL {
            assert_eq!(t.get(center, dir), 2.0);
        }
        assert_eq!(t.row_sum(center), 12.0);
        assert_eq!(t.row_sum(corner), 6.0);
    }

    #[test]
    fn homogeneous_unit_mesh_matches_hand_computation() {
        // κ = 1, unit spacing: half transmissibility T = 1 * 1 / 0.5 = 2, harmonic
        // average of (2, 2) = 1, mobility = 1/μ with μ = 1 → coefficient 1.
        let dims = Dims::new(4, 4, 4);
        let mesh = CartesianMesh::unit(dims);
        let perm = CellField::constant(dims, 1.0);
        let t = Transmissibilities::<f64>::from_mesh(&mesh, &perm, 1.0);
        let center = dims.linear(CellIndex::new(1, 1, 1));
        for dir in Direction::ALL {
            assert!((t.get(center, dir) - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn viscosity_scales_inverse() {
        let dims = Dims::new(3, 3, 3);
        let mesh = CartesianMesh::unit(dims);
        let perm = CellField::constant(dims, 1.0);
        let t1 = Transmissibilities::<f64>::from_mesh(&mesh, &perm, 1.0);
        let t2 = Transmissibilities::<f64>::from_mesh(&mesh, &perm, 2.0);
        let c = dims.linear(CellIndex::new(1, 1, 1));
        assert!((t1.get(c, Direction::XP) / t2.get(c, Direction::XP) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn harmonic_average_respects_heterogeneity() {
        // Two-layer permeability along X: cells with κ = 1 adjacent to κ = 3 on a
        // unit mesh. Half transmissibilities: 2 and 6 → harmonic: 1/(1/2+1/6) = 1.5.
        let dims = Dims::new(2, 1, 1);
        let mesh = CartesianMesh::unit(dims);
        let perm = CellField::from_fn(dims, |c| if c.x == 0 { 1.0 } else { 3.0 });
        let t = Transmissibilities::<f64>::from_mesh(&mesh, &perm, 1.0);
        assert!((t.get(0, Direction::XP) - 1.5).abs() < 1e-14);
        assert!((t.get(1, Direction::XM) - 1.5).abs() < 1e-14);
    }

    #[test]
    fn symmetry_holds_for_heterogeneous_fields() {
        let dims = Dims::new(6, 5, 4);
        let mesh = CartesianMesh::with_spacing(dims, 2.0, 3.0, 1.0);
        let perm = PermeabilityModel::LogNormal {
            mean_log: 0.0,
            std_log: 1.5,
            seed: 3,
        }
        .generate(dims);
        let t = Transmissibilities::<f64>::from_mesh(&mesh, &perm, 0.5);
        assert!(t.max_asymmetry() < 1e-12);
    }

    #[test]
    fn column_extraction() {
        let dims = Dims::new(3, 3, 4);
        let t = Transmissibilities::<f32>::uniform(dims, 1.0);
        let col = t.column_dir(1, 1, Direction::ZP);
        assert_eq!(col.len(), 4);
        assert_eq!(col[3], 0.0); // top face of the column is a boundary
        assert_eq!(col[0], 1.0);
        let col_down = t.column_dir(1, 1, Direction::ZM);
        assert_eq!(col_down[0], 0.0); // bottom face is a boundary
    }

    #[test]
    fn cell_rows_exposes_the_linear_layout() {
        let dims = Dims::new(3, 2, 2);
        let t = Transmissibilities::<f64>::uniform(dims, 4.0);
        let rows = t.cell_rows();
        assert_eq!(rows.len(), dims.num_cells());
        for (idx, row) in rows.iter().enumerate() {
            for dir in Direction::ALL {
                assert_eq!(row[dir.index()], t.get(idx, dir));
            }
        }
    }

    #[test]
    fn conversion_and_bytes() {
        let dims = Dims::new(2, 2, 2);
        let t = Transmissibilities::<f64>::uniform(dims, 1.25);
        let tf: Transmissibilities<f32> = t.convert();
        assert_eq!(tf.get(0, Direction::XP), 1.25);
        assert_eq!(t.bytes(), 8 * 6 * 8);
        assert_eq!(tf.bytes(), 8 * 6 * 4);
    }

    #[test]
    fn memoised_fingerprint_equals_a_fresh_digest() {
        let dims = Dims::new(5, 4, 3);
        let perm = PermeabilityModel::LogNormal {
            mean_log: 0.0,
            std_log: 1.0,
            seed: 9,
        }
        .generate(dims);
        let t = Transmissibilities::<f64>::from_mesh(&CartesianMesh::unit(dims), &perm, 1.0);
        let fresh = t.compute_fingerprint();
        assert_eq!(t.fingerprint(), fresh);
        assert_eq!(t.fingerprint(), fresh, "a second call reads the memo");

        // A clone carries the memo; it must still be the clone's own digest.
        let copy = t.clone();
        assert_eq!(copy.fingerprint(), copy.compute_fingerprint());
        assert_eq!(copy, t);

        // A converted table memoises its own digest, not the source's.
        let single: Transmissibilities<f32> = t.convert();
        assert_eq!(single.fingerprint(), single.compute_fingerprint());
        let back: Transmissibilities<f64> = single.convert();
        assert_eq!(back.fingerprint(), back.compute_fingerprint());

        // Equality ignores the memo: an unkeyed equal table compares equal.
        let unkeyed = Transmissibilities::from_rows(dims, t.cell_rows().to_vec());
        assert_eq!(unkeyed, t);
        assert_eq!(unkeyed.fingerprint(), fresh);
    }

    proptest! {
        #[test]
        fn symmetry_property(seed in 0u64..50, nx in 2usize..6, ny in 2usize..6, nz in 2usize..6) {
            let dims = Dims::new(nx, ny, nz);
            let mesh = CartesianMesh::unit(dims);
            let perm = PermeabilityModel::LogNormal { mean_log: 0.0, std_log: 1.0, seed }
                .generate(dims);
            let t = Transmissibilities::<f64>::from_mesh(&mesh, &perm, 1.0);
            prop_assert!(t.max_asymmetry() < 1e-12);
        }

        #[test]
        fn coefficients_are_nonnegative(seed in 0u64..50) {
            let dims = Dims::new(4, 4, 4);
            let mesh = CartesianMesh::unit(dims);
            let perm = PermeabilityModel::LogNormal { mean_log: -1.0, std_log: 2.0, seed }
                .generate(dims);
            let t = Transmissibilities::<f64>::from_mesh(&mesh, &perm, 1.0);
            for c in 0..dims.num_cells() {
                for dir in Direction::ALL {
                    prop_assert!(t.get(c, dir) >= 0.0);
                }
            }
        }
    }
}
