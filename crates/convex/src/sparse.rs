//! Sparse Cholesky for the barrier's Newton system.
//!
//! The Hessian of `t·f(x) − Σ log(slack_k)` is a diagonal (the
//! objective is separable) plus `Σ_k c_k c_kᵀ / slack_k²`, one clique
//! per constraint. Its pattern never changes during a barrier solve,
//! so [`SparseSpd::analyse`] orders it once by minimum degree (George
//! & Liu, *SIAM Review* 31(1), 1989) and records the factor's column
//! patterns plus where each constraint's entries land. Every Newton
//! step then assembles straight into that storage and factors it in
//! time proportional to the factor's flops, not `n³`.

use crate::barrier::LinearConstraint;
use std::collections::BTreeSet;

/// A symmetric positive-definite system `diag + Σ_k w_k·c_k c_kᵀ` on a
/// pattern fixed by a constraint list, factored as `P·A·Pᵀ = L·Lᵀ`.
pub(crate) struct SparseSpd {
    /// `perm[k]` is the variable eliminated `k`-th.
    perm: Vec<usize>,
    /// Column `k` of `L` occupies `col_ptr[k]..col_ptr[k + 1]`: the
    /// diagonal first, then its strictly lower rows in ascending order.
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    /// Row `j`'s strictly lower entries, as `(position, end of their
    /// column)` in ascending column order: the columns whose update
    /// the left-looking factorization subtracts from column `j`.
    row_ptr: Vec<usize>,
    row_entries: Vec<(usize, usize)>,
    /// Position of each variable's diagonal.
    diag_slot: Vec<usize>,
    /// Constraint `k` adds `coef·w_k` at each `(position, coef)` of
    /// `pairs[pair_ptr[k]..pair_ptr[k + 1]]`.
    pair_ptr: Vec<usize>,
    pairs: Vec<(usize, f64)>,
    /// The assembled matrix and its factor, both in `L`'s storage.
    a: Vec<f64>,
    l: Vec<f64>,
    /// Dense scatter column for the factorization.
    work: Vec<f64>,
}

impl SparseSpd {
    /// The symbolic phase for `n` variables: minimum-degree order
    /// (ties to the smaller variable index), the factor's pattern and
    /// one assembly slot per constraint pair. The result depends only
    /// on the set of coefficient cliques, so two constraint lists with
    /// the same pattern analyse identically.
    pub(crate) fn analyse(n: usize, constraints: &[LinearConstraint]) -> SparseSpd {
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for c in constraints {
            for &(i, _) in &c.coeffs {
                for &(j, _) in &c.coeffs {
                    if i != j {
                        adj[i].push(j);
                    }
                }
            }
        }
        for a in &mut adj {
            a.sort_unstable();
            a.dedup();
        }

        // Eliminate on the explicit elimination graph: a pivot's
        // remaining neighbours become a clique, and they are exactly
        // its column of L.
        let mut queue: BTreeSet<(usize, usize)> = (0..n).map(|v| (adj[v].len(), v)).collect();
        let mut perm = Vec::with_capacity(n);
        let mut cols: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut stamp = vec![usize::MAX; n];
        while let Some((_, v)) = queue.pop_first() {
            let nbrs = std::mem::take(&mut adj[v]);
            for &u in &nbrs {
                queue.remove(&(adj[u].len(), u));
                let au = &mut adj[u];
                au.retain(|&w| w != v);
                for &w in au.iter() {
                    stamp[w] = u;
                }
                for &w in &nbrs {
                    if w != u && stamp[w] != u {
                        au.push(w);
                    }
                }
                queue.insert((au.len(), u));
            }
            perm.push(v);
            cols[v] = nbrs;
        }

        let mut iperm = vec![0; n];
        for (k, &v) in perm.iter().enumerate() {
            iperm[v] = k;
        }
        let mut col_ptr = Vec::with_capacity(n + 1);
        let mut row_idx = Vec::new();
        col_ptr.push(0);
        for &v in &perm {
            let start = row_idx.len();
            row_idx.push(iperm[v]);
            row_idx.extend(cols[v].iter().map(|&u| iperm[u]));
            row_idx[start + 1..].sort_unstable();
            col_ptr.push(row_idx.len());
        }

        let mut row_ptr = vec![0; n + 1];
        for k in 0..n {
            for &i in &row_idx[col_ptr[k] + 1..col_ptr[k + 1]] {
                row_ptr[i + 1] += 1;
            }
        }
        for j in 0..n {
            row_ptr[j + 1] += row_ptr[j];
        }
        let mut fill = row_ptr.clone();
        let mut row_entries = vec![(0, 0); row_ptr[n]];
        for k in 0..n {
            let (start, end) = (col_ptr[k] + 1, col_ptr[k + 1]);
            for (p, &i) in (start..end).zip(&row_idx[start..end]) {
                row_entries[fill[i]] = (p, end);
                fill[i] += 1;
            }
        }

        let diag_slot: Vec<usize> = (0..n).map(|v| col_ptr[iperm[v]]).collect();
        let slot = |r: usize, c: usize| {
            let col = &row_idx[col_ptr[c]..col_ptr[c + 1]];
            col_ptr[c]
                + col
                    .binary_search(&r)
                    .expect("entry in the analysed pattern")
        };
        // One slot per ordered pair on or below the diagonal, so a
        // variable listed twice in one constraint accumulates exactly
        // as in the dense `c cᵀ`.
        let mut pair_ptr = Vec::with_capacity(constraints.len() + 1);
        let mut pairs = Vec::new();
        pair_ptr.push(0);
        for c in constraints {
            for &(i, ci) in &c.coeffs {
                for &(j, cj) in &c.coeffs {
                    let (r, s) = (iperm[i], iperm[j]);
                    if r >= s {
                        pairs.push((slot(r, s), ci * cj));
                    }
                }
            }
            pair_ptr.push(pairs.len());
        }

        let nnz = row_idx.len();
        SparseSpd {
            perm,
            col_ptr,
            row_idx,
            row_ptr,
            row_entries,
            diag_slot,
            pair_ptr,
            pairs,
            a: vec![0.0; nnz],
            l: vec![0.0; nnz],
            work: vec![0.0; n],
        }
    }

    /// Entries `L` stores, diagonal included.
    #[cfg(test)]
    pub(crate) fn stored_nonzeros(&self) -> usize {
        self.row_idx.len()
    }

    /// Assemble `diag(diag) + Σ_k weights[k]·c_k c_kᵀ` over the
    /// analysed constraints.
    pub(crate) fn assemble(&mut self, diag: &[f64], weights: &[f64]) {
        self.a.fill(0.0);
        for (&s, &d) in self.diag_slot.iter().zip(diag) {
            self.a[s] += d;
        }
        for (k, &w) in weights.iter().enumerate() {
            for &(s, coef) in &self.pairs[self.pair_ptr[k]..self.pair_ptr[k + 1]] {
                self.a[s] += coef * w;
            }
        }
    }

    /// Solve `A·x = b` with the ridge policy of
    /// [`Matrix::solve_spd`](crate::linalg::Matrix::solve_spd): retry
    /// the factorization with escalating ridges scaled by the largest
    /// diagonal entry, then once with the full scale. `None` means
    /// even that failed (NaN/Inf input).
    pub(crate) fn solve(&mut self, b: &[f64]) -> Option<Vec<f64>> {
        let base = self
            .diag_slot
            .iter()
            .fold(0.0f64, |m, &s| m.max(self.a[s].abs()))
            .max(1.0);
        let mut ridge = 0.0;
        for attempt in 0..8 {
            if self.factor(ridge) {
                return Some(self.substitute(b));
            }
            ridge = base * 1e-12 * 10f64.powi(attempt);
        }
        self.factor(base).then(|| self.substitute(b))
    }

    /// Left-looking Cholesky of `A + ridge·I` into `l`. Returns `false`
    /// on a non-positive or non-finite pivot.
    fn factor(&mut self, ridge: f64) -> bool {
        let SparseSpd {
            col_ptr,
            row_idx,
            row_ptr,
            row_entries,
            a,
            l,
            work: x,
            ..
        } = self;
        for j in 0..col_ptr.len() - 1 {
            let col = col_ptr[j]..col_ptr[j + 1];
            for p in col.clone() {
                x[row_idx[p]] = a[p];
            }
            x[j] += ridge;
            for &(p, end) in &row_entries[row_ptr[j]..row_ptr[j + 1]] {
                let ljk = l[p];
                for q in p..end {
                    x[row_idx[q]] -= l[q] * ljk;
                }
            }
            let d = x[j];
            if d <= 0.0 || !d.is_finite() {
                for p in col {
                    x[row_idx[p]] = 0.0;
                }
                return false;
            }
            let d = d.sqrt();
            l[col.start] = d;
            x[j] = 0.0;
            for p in col.start + 1..col.end {
                let i = row_idx[p];
                l[p] = x[i] / d;
                x[i] = 0.0;
            }
        }
        true
    }

    /// Forward and back substitution through the factor, in the
    /// caller's variable order.
    fn substitute(&self, b: &[f64]) -> Vec<f64> {
        let mut y: Vec<f64> = self.perm.iter().map(|&v| b[v]).collect();
        let n = y.len();
        for j in 0..n {
            let p = self.col_ptr[j];
            y[j] /= self.l[p];
            let yj = y[j];
            for q in p + 1..self.col_ptr[j + 1] {
                y[self.row_idx[q]] -= self.l[q] * yj;
            }
        }
        for j in (0..n).rev() {
            let p = self.col_ptr[j];
            let mut v = y[j];
            for q in p + 1..self.col_ptr[j + 1] {
                v -= self.l[q] * y[self.row_idx[q]];
            }
            y[j] = v / self.l[p];
        }
        let mut x = vec![0.0; n];
        for (k, &v) in self.perm.iter().enumerate() {
            x[v] = y[k];
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::Matrix;
    use proptest::prelude::*;

    /// `diag + Σ w_k c_k c_kᵀ`, densely.
    fn dense(n: usize, cons: &[LinearConstraint], diag: &[f64], w: &[f64]) -> Matrix {
        let mut h = Matrix::zeros(n);
        for (i, &d) in diag.iter().enumerate() {
            h.add(i, i, d);
        }
        for (c, &wk) in cons.iter().zip(w) {
            for &(i, ci) in &c.coeffs {
                for &(j, cj) in &c.coeffs {
                    h.add(i, j, ci * cj * wk);
                }
            }
        }
        h
    }

    fn norm_inf(v: &[f64]) -> f64 {
        v.iter().fold(0.0f64, |m, x| m.max(x.abs()))
    }

    type RawConstraint = (Vec<usize>, Vec<f64>, f64);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The sparse solve against the dense oracle on barrier-shaped
        /// systems. A curvature class of 0 makes a variable flat: it is
        /// either untouched by every constraint (an exactly zero row,
        /// so both solvers must ridge) or bounded by a singleton
        /// constraint, as the GP's completion times are by `t ≤ D`.
        #[test]
        fn sparse_solve_matches_dense_oracle(
            n in 1usize..14,
            raw in prop::collection::vec(
                (prop::collection::vec(0usize..14, 1..4),
                 prop::collection::vec(-2.0f64..2.0, 3),
                 -2.0f64..2.0),
                0..20),
            curvature in prop::collection::vec((0usize..3, -2.0f64..2.0), 14),
            b in prop::collection::vec(-1.0f64..1.0, 14),
        ) {
            let raw: Vec<RawConstraint> = raw;
            let mut cons: Vec<LinearConstraint> = raw
                .iter()
                .map(|(vars, cs, _)| {
                    let coeffs = vars
                        .iter()
                        .zip(cs)
                        .map(|(&v, &c)| (v % n, if c.abs() < 0.25 { 1.0 } else { c }))
                        .collect();
                    LinearConstraint::new(coeffs, 0.0)
                })
                .collect();
            let mut w: Vec<f64> = raw.iter().map(|r| 10f64.powf(r.2)).collect();
            let mut touched = vec![false; n];
            for c in &cons {
                for &(v, _) in &c.coeffs {
                    touched[v] = true;
                }
            }
            let mut diag = vec![0.0; n];
            for i in 0..n {
                let (class, mag) = curvature[i];
                if class > 0 {
                    diag[i] = 10f64.powf(mag);
                } else if touched[i] {
                    cons.push(LinearConstraint::new(vec![(i, 1.0)], 1.0));
                    w.push(10f64.powf(mag));
                }
            }
            let b = &b[..n];

            let a = dense(n, &cons, &diag, &w);
            let oracle = a.clone().solve_spd(b);
            let mut sys = SparseSpd::analyse(n, &cons);
            sys.assemble(&diag, &w);
            let got = sys.solve(b);
            prop_assert_eq!(got.is_some(), oracle.is_some());
            if let (Some(xs), Some(xd)) = (&got, &oracle) {
                let diff: Vec<f64> = xs.iter().zip(xd).map(|(s, d)| s - d).collect();
                prop_assert!(norm_inf(&diff) <= 1e-9 * norm_inf(xd).max(1.0),
                    "sparse {xs:?} vs dense {xd:?}");
                let res = |x: &[f64]| {
                    let ax = a.matvec(x);
                    let r: Vec<f64> = ax.iter().zip(b).map(|(p, q)| p - q).collect();
                    norm_inf(&r) / norm_inf(b).max(f64::MIN_POSITIVE)
                };
                prop_assert!(res(xs) <= res(xd) + 1e-9,
                    "relative residual {} vs dense {}", res(xs), res(xd));
            }

            // The order is a function of the pattern: analysing the
            // list again, or reversed, gives the same elimination, and
            // the same list gives the same bits.
            let mut again = SparseSpd::analyse(n, &cons);
            prop_assert_eq!(&again.perm, &sys.perm);
            again.assemble(&diag, &w);
            let bits = |x: &Option<Vec<f64>>| {
                x.as_ref().map(|v| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>())
            };
            prop_assert_eq!(bits(&again.solve(b)), bits(&got));
            let reversed: Vec<LinearConstraint> = cons.iter().rev().cloned().collect();
            prop_assert_eq!(&SparseSpd::analyse(n, &reversed).perm, &sys.perm);
        }
    }

    #[test]
    fn non_finite_systems_fail_like_the_oracle() {
        let cons = vec![LinearConstraint::new(vec![(0, 1.0), (1, -1.0)], 0.0)];
        let diag = [1.0, f64::NAN];
        let mut sys = SparseSpd::analyse(2, &cons);
        sys.assemble(&diag, &[1.0]);
        assert!(sys.solve(&[1.0, 1.0]).is_none());
        assert!(dense(2, &cons, &diag, &[1.0])
            .solve_spd(&[1.0, 1.0])
            .is_none());
    }

    /// The GP's pattern on a layered DAG stays sparse: a regression to
    /// dense fill (and O(n²) memory per Newton step) fails here.
    #[test]
    fn layered_gp_pattern_keeps_fill_sparse() {
        let (layers, width) = (60usize, 10usize);
        let n = layers * width;
        let (d, t) = (|i: usize| i, |i: usize| n + i);
        // Each pair of adjacent-layer tasks is an edge with probability
        // 0.3 (splitmix64; every task keeps at least one predecessor).
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut coin = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) >> 11) as f64 / ((1u64 << 53) as f64) < 0.3
        };
        let mut cons = Vec::new();
        for l in 1..layers {
            for b in 0..width {
                let v = l * width + b;
                let mut has_pred = false;
                for a in 0..width {
                    if coin() || (a + 1 == width && !has_pred) {
                        let u = (l - 1) * width + a;
                        has_pred = true;
                        cons.push(LinearConstraint::new(
                            vec![(t(u), 1.0), (d(v), 1.0), (t(v), -1.0)],
                            0.0,
                        ));
                    }
                }
            }
        }
        for i in 0..n {
            cons.push(LinearConstraint::new(vec![(d(i), 1.0), (t(i), -1.0)], 0.0));
            cons.push(LinearConstraint::new(vec![(t(i), 1.0)], 1.0));
        }
        // 10,561 at this order; the dense lower triangle is 720,600.
        const BOUND: usize = 16_000;
        let sys = SparseSpd::analyse(2 * n, &cons);
        let dense_lower = 2 * n * (2 * n + 1) / 2;
        let stored = sys.stored_nonzeros();
        assert!(
            stored <= BOUND,
            "L stores {stored} nonzeros (bound {BOUND}, dense lower triangle {dense_lower})"
        );
    }
}
