// Dense LU factorization with partial pivoting.
//
// Used for reduced-system solves and as the reference factorization in
// tests; the SPICE engine itself uses the sparse LU in sparse_lu.h.
#pragma once

#include "linalg/dense_matrix.h"

namespace xtv {

/// Factors the row-major n x n matrix at `a` in place (PA = LU, unit-
/// diagonal L below U), filling `perm` so that row i of PA is row perm[i]
/// of A. Throws NumericalError(kSingularMatrix) when a pivot falls to
/// `pivot_tol` or below. Returns the permutation sign. DenseLu runs on
/// this; callers that own reusable storage (the reduced transient's
/// per-iteration Woodbury solve) call it directly to skip the copy.
int lu_factor_inplace(double* a, std::size_t n, std::vector<std::size_t>& perm,
                      double pivot_tol = 1e-300);

/// Solves A x = b from lu_factor_inplace's output; x is resized to n.
void lu_solve_inplace(const double* lu, const std::vector<std::size_t>& perm,
                      const Vector& b, Vector& x);

/// PA = LU factorization with partial (row) pivoting. L has unit diagonal
/// and is stored together with U in a single matrix.
class DenseLu {
 public:
  /// Factors `a` (square). Throws std::runtime_error if the matrix is
  /// numerically singular (pivot below the absolute tolerance).
  explicit DenseLu(DenseMatrix a, double pivot_tol = 1e-300);

  std::size_t size() const { return lu_.rows(); }

  /// Solves A x = b.
  Vector solve(const Vector& b) const;

  /// Solves A X = B column-by-column.
  DenseMatrix solve(const DenseMatrix& b) const;

  /// det(A) (product of pivots with permutation sign).
  double determinant() const;

 private:
  DenseMatrix lu_;
  std::vector<std::size_t> perm_;  // row permutation: row i of PA is row perm_[i] of A
  int perm_sign_ = 1;
};

}  // namespace xtv
