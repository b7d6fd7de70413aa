#include "linalg/sparse.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/parallel.h"

namespace complx {

size_t check_index32(size_t count, const char* what) {
  if (count > std::numeric_limits<uint32_t>::max())
    throw std::length_error(std::string(what) + " " + std::to_string(count) +
                            " exceeds the 32-bit index range");
  return count;
}

TripletList::TripletList(size_t n)
    : n_(check_index32(n, "variable count")),
      diag_(n, -0.0),
      has_diag_(n, 0) {}

void TripletList::throw_self_spring(size_t i) {
  throw std::invalid_argument("add_spring: both ends are variable " +
                              std::to_string(i));
}

void TripletList::clear() {
  diag_.assign(n_, -0.0);
  has_diag_.assign(n_, 0);
  springs_.clear();
  out_of_range_ = false;
}

CsrMatrix CsrMatrix::from_triplets(const TripletList& t) {
  CsrMatrix m;
  m.assemble(t);
  return m;
}

void CsrMatrix::assemble(const TripletList& t) {
  if (t.out_of_range()) throw std::out_of_range("triplet index out of range");
  const size_t n = t.dim();
  const std::vector<TripletList::Spring>& springs = t.springs();
  const Vec& diag = t.diag();
  const std::vector<uint8_t>& has_diag = t.has_diag();

  // Two counting-sort passes, as in Netlist::finalize(). Count: a spring
  // puts one entry into each of its two rows. row_ptr_ gets each row's
  // capacity (its entries plus the diagonal); next[i] the start of row i in
  // the pass-1 scratch.
  row_ptr_.assign(n + 1, 0);
  for (const TripletList::Spring& s : springs) {
    ++row_ptr_[s.i + 1];
    ++row_ptr_[s.j + 1];
  }
  next_.resize(n);
  uint32_t* const next = next_.data();
  size_t raw = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t count = row_ptr_[i + 1];
    next[i] = static_cast<uint32_t>(raw);
    raw += count;
    row_ptr_[i + 1] = row_ptr_[i] + count + has_diag[i];
  }
  check_index32(row_ptr_[n], "CSR entry count");

  // Pass 1: each row's (col, -w) entries in arrival order.
  raw_col_.resize(raw);
  raw_val_.resize(raw);
  for (const TripletList::Spring& s : springs) {
    const uint32_t a = next[s.i]++, b = next[s.j]++;
    raw_col_[a] = s.j;
    raw_val_[a] = -s.w;
    raw_col_[b] = s.i;
    raw_val_[b] = -s.w;
  }

  // Pass 2, the transpose: visit rows c in increasing order; append row c's
  // diagonal to row c, then (c, v) to row r for each pass-1 entry (r, v).
  // Every row so receives its columns in increasing order, each column's
  // contributions in arrival order; a repeated column (duplicate spring) is
  // summed into the row's last entry, the first contribution assigned.
  // next[r] is now row r's write cursor. The matrix is symmetric, so row
  // c's pass-1 entries are exactly column c's. diag_[c] records where row
  // c's diagonal landed; no spring entry ever merges into it.
  col_.resize(row_ptr_[n]);
  val_.resize(row_ptr_[n]);
  diag_.resize(n);
  for (size_t i = 0; i < n; ++i) next[i] = static_cast<uint32_t>(row_ptr_[i]);
  size_t k = 0;
  for (size_t c = 0; c < n; ++c) {
    const auto col = static_cast<uint32_t>(c);
    diag_[c] = kNoDiag;
    if (has_diag[c]) {
      const uint32_t o = next[c]++;
      col_[o] = col;
      val_[o] = diag[c];
      diag_[c] = o;
    }
    const size_t end = k + (row_ptr_[c + 1] - row_ptr_[c] - has_diag[c]);
    for (; k < end; ++k) {
      const uint32_t r = raw_col_[k];
      uint32_t& o = next[r];
      if (o > row_ptr_[r] && col_[o - 1] == col) {
        val_[o - 1] += raw_val_[k];
      } else {
        col_[o] = col;
        val_[o++] = raw_val_[k];
      }
    }
  }

  // Close the gaps the merged duplicates left behind.
  size_t out = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t begin = row_ptr_[i], len = next[i] - begin;
    row_ptr_[i] = out;
    if (diag_[i] != kNoDiag)
      diag_[i] = static_cast<uint32_t>(diag_[i] - begin + out);
    if (begin != out) {
      std::copy_n(col_.begin() + static_cast<ptrdiff_t>(begin), len,
                  col_.begin() + static_cast<ptrdiff_t>(out));
      std::copy_n(val_.begin() + static_cast<ptrdiff_t>(begin), len,
                  val_.begin() + static_cast<ptrdiff_t>(out));
    }
    out += len;
  }
  row_ptr_[n] = out;
  col_.resize(out);
  val_.resize(out);
}

void CsrMatrix::multiply(const Vec& x, Vec& y) const {
  const size_t n = dim();
  if (x.size() != n) throw std::invalid_argument("SpMV dimension mismatch");
  y.resize(n);
  // Row-parallel: each y[i] is the same left-to-right accumulation as the
  // serial loop, so the result is bitwise identical at any thread count.
  parallel_for(n, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) y[i] = row_dot(i, x);
  });
}

Vec CsrMatrix::diagonal() const {
  Vec d(dim());
  for (size_t i = 0; i < d.size(); ++i) d[i] = diagonal_at(i);
  return d;
}

double CsrMatrix::at(size_t i, size_t j) const {
  const auto begin = col_.begin() + static_cast<ptrdiff_t>(row_ptr_[i]);
  const auto end = col_.begin() + static_cast<ptrdiff_t>(row_ptr_[i + 1]);
  const auto it = std::lower_bound(begin, end, j,
                                   [](uint32_t c, size_t v) { return c < v; });
  if (it == end || *it != j) return 0.0;
  return val_[static_cast<size_t>(it - col_.begin())];
}

double CsrMatrix::symmetry_error() const {
  double err = 0.0;
  for (size_t i = 0; i < dim(); ++i)
    for (size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k)
      err = std::max(err, std::abs(val_[k] - at(col_[k], i)));
  return err;
}

}  // namespace complx
