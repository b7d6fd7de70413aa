// Sparse symmetric-positive-definite matrix support for quadratic placement.
//
// The placer stamps the connectivity Laplacian plus anchor diagonal into a
// TripletList (a diagonal vector plus one 32-bit record per spring), then
// converts it to CSR once per axis per iteration for the CG solve. Only the
// operations the placer needs are implemented: assembly, SpMV, diagonal
// lookup.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/vec.h"

namespace complx {

/// Returns `count`, or throws std::length_error naming `what` when it does
/// not fit the 32-bit indices of the spring records and CSR columns.
size_t check_index32(size_t count, const char* what);

/// Accumulator for the symmetric placement matrix.
///
/// Diagonal contributions are summed straight into a dense vector in arrival
/// order, the first one assigned and later ones added: the vector starts at
/// -0.0, the additive identity of IEEE doubles, so even a lone -0.0 survives.
/// Each off-diagonal coupling is one {i, j, w} record; CsrMatrix::assemble
/// expands it into A[i][j] = A[j][i] = -w and sums duplicates in arrival
/// order. Index range errors are reported when the CSR matrix is built.
class TripletList {
 public:
  struct Spring {
    uint32_t i;
    uint32_t j;
    double w;
  };

  /// Throws std::length_error when n does not fit a 32-bit index.
  explicit TripletList(size_t n);

  size_t dim() const { return n_; }

  /// Reserves room for `springs` off-diagonal couplings.
  void reserve(size_t springs) { springs_.reserve(springs); }

  /// A[i][i] += v
  void add_diag(size_t i, double v) {
    if (i >= n_) {
      out_of_range_ = true;
      return;
    }
    diag_[i] += v;
    has_diag_[i] = 1;
  }

  /// Adds the 2x2 stamp of a spring between i and j with weight w:
  /// A[i][i]+=w, A[j][j]+=w, A[i][j]-=w, A[j][i]-=w. A spring needs two
  /// distinct ends: add_spring(i, i) throws std::invalid_argument.
  void add_spring(size_t i, size_t j, double w) {
    if (i == j) [[unlikely]]
      throw_self_spring(i);
    if (i >= n_ || j >= n_) {
      out_of_range_ = true;
      return;
    }
    diag_[i] += w;
    diag_[j] += w;
    has_diag_[i] = 1;
    has_diag_[j] = 1;
    springs_.push_back({static_cast<uint32_t>(i), static_cast<uint32_t>(j), w});
  }

  const Vec& diag() const { return diag_; }
  /// has_diag()[i] != 0 iff row i received a diagonal contribution.
  const std::vector<uint8_t>& has_diag() const { return has_diag_; }
  const std::vector<Spring>& springs() const { return springs_; }
  bool out_of_range() const { return out_of_range_; }

  /// Empties the system, keeping every buffer's capacity.
  void clear();

 private:
  [[noreturn]] static void throw_self_spring(size_t i);

  size_t n_;
  Vec diag_;
  std::vector<uint8_t> has_diag_;
  std::vector<Spring> springs_;
  bool out_of_range_ = false;
};

/// Compressed-sparse-row matrix (square) with 32-bit column indices. Built
/// from a TripletList; each row holds its entries in column order with
/// duplicates summed in arrival order.
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Builds CSR from triplets, summing duplicates. O(nnz + n).
  static CsrMatrix from_triplets(const TripletList& t);

  /// Rebuilds this matrix from `t`, reusing the capacity of its arrays.
  /// Throws std::out_of_range when `t` saw an index >= t.dim(), and
  /// std::length_error when the entry count does not fit 32 bits.
  void assemble(const TripletList& t);

  size_t dim() const { return row_ptr_.empty() ? 0 : row_ptr_.size() - 1; }
  size_t nnz() const { return col_.size(); }

  /// y = A * x
  void multiply(const Vec& x, Vec& y) const;

  /// (A * x)[i]: row i's entries accumulated left to right from 0.0, the
  /// same sum multiply() writes to y[i].
  double row_dot(size_t i, const Vec& x) const {
    double s = 0.0;
    for (size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k)
      s += val_[k] * x[col_[k]];
    return s;
  }

  /// A[i][i], read through the slot assemble() recorded (0 when row i has
  /// no diagonal entry). O(1), so the Jacobi set-up is O(n), not O(nnz).
  double diagonal_at(size_t i) const {
    return diag_[i] == kNoDiag ? 0.0 : val_[diag_[i]];
  }

  /// Returns the diagonal of A.
  Vec diagonal() const;

  /// Max |A[i][j] - A[j][i]| over sampled entries — exact symmetry check
  /// used by tests (O(nnz log) via lookups).
  double symmetry_error() const;

  const std::vector<size_t>& row_ptr() const { return row_ptr_; }
  const std::vector<uint32_t>& col() const { return col_; }
  const std::vector<double>& val() const { return val_; }

  /// A[i][j] by binary search over row i (0 when absent).
  double at(size_t i, size_t j) const;

 private:
  static constexpr uint32_t kNoDiag = UINT32_MAX;

  std::vector<size_t> row_ptr_;
  std::vector<uint32_t> col_;
  std::vector<double> val_;
  std::vector<uint32_t> diag_;  ///< entry index of A[i][i], or kNoDiag
  // assemble()'s scratch, kept for its capacity: the row-grouped spring
  // entries and the per-row write cursors.
  std::vector<uint32_t> raw_col_;
  std::vector<double> raw_val_;
  std::vector<uint32_t> next_;
};

}  // namespace complx
