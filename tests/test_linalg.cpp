#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <stdexcept>
#include <vector>

#include "helpers.h"
#include "linalg/cg.h"
#include "linalg/sparse.h"
#include "util/parallel.h"
#include "util/rng.h"

// Global operator new/delete replacement for the steady-state
// allocation-freedom test below. The counter only ticks while armed, so the
// rest of the binary (gtest bookkeeping, test setup) is unaffected. Must
// live at global scope — allocation functions cannot be namespace members.
namespace alloc_counter {
std::atomic<bool> armed{false};
std::atomic<size_t> news{0};

size_t drain() {
  armed.store(false, std::memory_order_relaxed);
  return news.exchange(0, std::memory_order_relaxed);
}
void arm() { armed.store(true, std::memory_order_relaxed); }
}  // namespace alloc_counter

// GCC pairs the malloc inside the replaced operator new with deletes at
// call sites and (wrongly) reports a mismatch; every allocation in this
// binary goes through these replacements, so malloc/free always pair up.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t sz) {
  if (alloc_counter::armed.load(std::memory_order_relaxed))
    alloc_counter::news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(sz ? sz : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t sz) { return ::operator new(sz); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace complx {
namespace {

// ------------------------------------------------------------- vectors ----

TEST(Vec, DotAndNorm) {
  Vec a{1, 2, 3}, b{4, -5, 6};
  EXPECT_DOUBLE_EQ(dot(a, b), 4 - 10 + 18);
  EXPECT_DOUBLE_EQ(norm2({3, 4}), 5.0);
}

TEST(Vec, Axpy) {
  Vec x{1, 2}, y{10, 20};
  axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 12.0);
  EXPECT_DOUBLE_EQ(y[1], 24.0);
}

TEST(Vec, Xpay) {
  Vec x{1, 2}, y{10, 20};
  xpay(y, 3.0, x);  // x = 3x + y
  EXPECT_DOUBLE_EQ(x[0], 13.0);
  EXPECT_DOUBLE_EQ(x[1], 26.0);
}

TEST(Vec, Distances) {
  EXPECT_DOUBLE_EQ(l1_dist(Vec{0, 0}, Vec{3, -4}), 7.0);
  EXPECT_DOUBLE_EQ(linf_dist(Vec{0, 0}, Vec{3, -4}), 4.0);
}

// ----------------------------------------------------------------- CSR ----

TEST(Csr, FromTripletsMergesDuplicates) {
  TripletList t(3);
  t.add_diag(0, 1.0);
  t.add_diag(0, 2.0);  // duplicate: must sum to 3
  t.add_spring(0, 1, 4.0);
  const CsrMatrix A = CsrMatrix::from_triplets(t);
  EXPECT_EQ(A.dim(), 3u);
  EXPECT_DOUBLE_EQ(A.at(0, 0), 3.0 + 4.0);
  EXPECT_DOUBLE_EQ(A.at(1, 1), 4.0);
  EXPECT_DOUBLE_EQ(A.at(0, 1), -4.0);
  EXPECT_DOUBLE_EQ(A.at(1, 0), -4.0);
  EXPECT_DOUBLE_EQ(A.at(2, 2), 0.0);
  EXPECT_DOUBLE_EQ(A.at(0, 2), 0.0);
}

TEST(Csr, SpMV) {
  TripletList t(2);
  t.add_diag(0, 2.0);
  t.add_diag(1, 3.0);
  t.add_spring(0, 1, 1.0);
  const CsrMatrix A = CsrMatrix::from_triplets(t);
  // A = [[3, -1], [-1, 4]]
  Vec y;
  A.multiply({1.0, 2.0}, y);
  EXPECT_DOUBLE_EQ(y[0], 3.0 - 2.0);
  EXPECT_DOUBLE_EQ(y[1], -1.0 + 8.0);
}

TEST(Csr, Diagonal) {
  TripletList t(3);
  t.add_spring(0, 2, 5.0);
  t.add_diag(1, 7.0);
  const Vec d = CsrMatrix::from_triplets(t).diagonal();
  EXPECT_DOUBLE_EQ(d[0], 5.0);
  EXPECT_DOUBLE_EQ(d[1], 7.0);
  EXPECT_DOUBLE_EQ(d[2], 5.0);
}

TEST(Csr, SymmetryOfSpringAssembly) {
  Rng rng(11);
  TripletList t(50);
  for (int k = 0; k < 300; ++k) {
    const size_t i = rng.uniform_index(50), j = rng.uniform_index(50);
    if (i == j)
      t.add_diag(i, rng.uniform(0.1, 2.0));
    else
      t.add_spring(i, j, rng.uniform(0.1, 2.0));
  }
  EXPECT_LT(CsrMatrix::from_triplets(t).symmetry_error(), 1e-12);
}

TEST(Csr, OutOfRangeThrows) {
  TripletList t(2);
  t.add_diag(0, 1.0);
  t.add_spring(0, 1, 1.0);
  TripletList bad(2);
  bad.add_diag(5, 1.0);
  EXPECT_THROW(CsrMatrix::from_triplets(bad), std::out_of_range);
}

TEST(Csr, DimensionMismatchThrows) {
  TripletList t(2);
  t.add_diag(0, 1.0);
  const CsrMatrix A = CsrMatrix::from_triplets(t);
  Vec y;
  EXPECT_THROW(A.multiply({1.0, 2.0, 3.0}, y), std::invalid_argument);
}

// ------------------------------------------------------------------ CG ----

TEST(Cg, SolvesSmallSystemExactly) {
  // A = [[4, -1], [-1, 3]], b = [1, 2] => x = [5/11, 9/11]... verify by Ax=b.
  TripletList t(2);
  t.add_diag(0, 3.0);
  t.add_diag(1, 2.0);
  t.add_spring(0, 1, 1.0);
  const CsrMatrix A = CsrMatrix::from_triplets(t);
  Vec x(2, 0.0);
  const CgResult res = solve_pcg(A, {1.0, 2.0}, x, {.rel_tolerance = 1e-12});
  EXPECT_TRUE(res.converged);
  Vec ax;
  A.multiply(x, ax);
  EXPECT_NEAR(ax[0], 1.0, 1e-9);
  EXPECT_NEAR(ax[1], 2.0, 1e-9);
}

TEST(Cg, ZeroRhsGivesZero) {
  TripletList t(3);
  for (size_t i = 0; i < 3; ++i) t.add_diag(i, 1.0);
  const CsrMatrix A = CsrMatrix::from_triplets(t);
  Vec x{5.0, -2.0, 1.0};
  const CgResult res = solve_pcg(A, Vec(3, 0.0), x);
  EXPECT_TRUE(res.converged);
  for (double v : x) EXPECT_DOUBLE_EQ(v, 0.0);
  // The early return must report a fully-consistent result, not stale
  // default fields: the x = 0 solution is exact after 0 iterations.
  EXPECT_EQ(res.iterations, 0u);
  EXPECT_DOUBLE_EQ(res.residual_norm, 0.0);
}

TEST(Cg, WarmStartWithinToleranceIsANoOp) {
  // An ECO window re-solved from its converged placement: the initial guess
  // already meets the tolerance, so the solve must cost no iteration and
  // leave x bitwise as it was.
  const size_t n = 200;
  TripletList t(n);
  for (size_t i = 0; i + 1 < n; ++i) t.add_spring(i, i + 1, 1.0);
  t.add_diag(0, 1.0);
  t.add_diag(n - 1, 1.0);
  const CsrMatrix A = CsrMatrix::from_triplets(t);
  Vec b(n, 0.0);
  b[n - 1] = 100.0;

  Vec x(n, 0.0);
  ASSERT_TRUE(solve_pcg(A, b, x, {.rel_tolerance = 1e-10}).converged);
  const Vec warm = x;
  const CgResult res = solve_pcg(A, b, x, {.rel_tolerance = 1e-4});
  EXPECT_TRUE(res.converged);
  EXPECT_FALSE(res.breakdown);
  EXPECT_EQ(res.iterations, 0u);
  EXPECT_LE(res.residual_norm, 1e-4 * 100.0);
  for (size_t i = 0; i < n; ++i)
    ASSERT_EQ(testing::bits(x[i]), testing::bits(warm[i])) << i;
}

TEST(Cg, MaxIterationExhaustionReportsConsistentResult) {
  // Laplacian chain: needs ~n iterations, so a budget of 3 must run out.
  const size_t n = 200;
  TripletList t(n);
  for (size_t i = 0; i + 1 < n; ++i) t.add_spring(i, i + 1, 1.0);
  t.add_diag(0, 1.0);
  t.add_diag(n - 1, 1.0);
  const CsrMatrix A = CsrMatrix::from_triplets(t);
  Vec b(n, 0.0);
  b[n - 1] = 100.0;

  Vec x(n, 0.0);
  const CgResult res =
      solve_pcg(A, b, x, {.rel_tolerance = 1e-12, .max_iterations = 3});
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.iterations, 3u);
  // residual_norm must describe the returned x exactly.
  Vec ax(n);
  A.multiply(x, ax);
  Vec r(n);
  for (size_t i = 0; i < n; ++i) r[i] = b[i] - ax[i];
  EXPECT_NEAR(res.residual_norm, norm2(r), 1e-9 * norm2(b));
  EXPECT_GT(res.residual_norm, 1e-12 * norm2(b));
}

TEST(Cg, WarmStartReducesIterations) {
  // Laplacian chain with anchors at the ends.
  const size_t n = 200;
  TripletList t(n);
  for (size_t i = 0; i + 1 < n; ++i) t.add_spring(i, i + 1, 1.0);
  t.add_diag(0, 1.0);
  t.add_diag(n - 1, 1.0);
  const CsrMatrix A = CsrMatrix::from_triplets(t);
  Vec b(n, 0.0);
  b[0] = 0.0;
  b[n - 1] = 100.0;

  Vec cold(n, 0.0);
  const CgResult cold_res = solve_pcg(A, b, cold);
  ASSERT_TRUE(cold_res.converged);

  Vec warm = cold;  // exact solution as start
  const CgResult warm_res = solve_pcg(A, b, warm);
  EXPECT_TRUE(warm_res.converged);
  EXPECT_LT(warm_res.iterations, cold_res.iterations);
}

TEST(Cg, BreakdownFlagOnIndefiniteSystem) {
  // A negative diagonal makes pAp < 0 on the first step: the solve must
  // report breakdown (not merely "did not converge") and leave x finite.
  TripletList t(2);
  t.add_diag(0, -5.0);
  t.add_diag(1, -3.0);
  const CsrMatrix A = CsrMatrix::from_triplets(t);
  Vec x(2, 0.0);
  const CgResult res = solve_pcg(A, {1.0, 2.0}, x);
  EXPECT_TRUE(res.breakdown);
  EXPECT_FALSE(res.converged);
  for (double v : x) EXPECT_TRUE(std::isfinite(v));
}

TEST(Cg, BudgetExhaustionIsNotBreakdown) {
  const size_t n = 200;
  TripletList t(n);
  for (size_t i = 0; i + 1 < n; ++i) t.add_spring(i, i + 1, 1.0);
  t.add_diag(0, 1.0);
  const CsrMatrix A = CsrMatrix::from_triplets(t);
  Vec b(n, 1.0);
  Vec x(n, 0.0);
  const CgResult res =
      solve_pcg(A, b, x, {.rel_tolerance = 1e-12, .max_iterations = 2});
  EXPECT_FALSE(res.converged);
  EXPECT_FALSE(res.breakdown);
}

TEST(Cg, InjectedBreakdownLeavesGuessUntouched) {
  TripletList t(2);
  t.add_diag(0, 2.0);
  t.add_diag(1, 2.0);
  const CsrMatrix A = CsrMatrix::from_triplets(t);
  Vec x{7.0, -3.0};
  CgOptions opts;
  opts.inject_breakdown = true;
  const CgResult res = solve_pcg(A, {1.0, 1.0}, x, opts);
  EXPECT_TRUE(res.breakdown);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.iterations, 0u);
  // The warm-start guess is the caller's fallback state: untouched.
  EXPECT_DOUBLE_EQ(x[0], 7.0);
  EXPECT_DOUBLE_EQ(x[1], -3.0);
}

TEST(Cg, DiagShiftSolvesShiftedSystem) {
  // A = diag(2), shift = 3: the solve must satisfy (A + 3I) x = b.
  TripletList t(2);
  t.add_diag(0, 2.0);
  t.add_diag(1, 2.0);
  const CsrMatrix A = CsrMatrix::from_triplets(t);
  Vec x(2, 0.0);
  CgOptions opts;
  opts.rel_tolerance = 1e-12;
  opts.diag_shift = 3.0;
  const CgResult res = solve_pcg(A, {10.0, -5.0}, x, opts);
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(x[0], 2.0, 1e-9);
  EXPECT_NEAR(x[1], -1.0, 1e-9);
}

TEST(Cg, DiagShiftRestoresDefiniteness) {
  // Indefinite alone (diagonal -1), SPD once shifted by 2: breakdown
  // without the shift, clean convergence with it — the recovery policy's
  // Tikhonov escape hatch.
  TripletList t(2);
  t.add_diag(0, -1.0);
  t.add_diag(1, -1.0);
  const CsrMatrix A = CsrMatrix::from_triplets(t);
  Vec x(2, 0.0);
  EXPECT_TRUE(solve_pcg(A, {1.0, 1.0}, x).breakdown);
  x.assign(2, 0.0);
  CgOptions opts;
  opts.rel_tolerance = 1e-12;
  opts.diag_shift = 2.0;
  const CgResult res = solve_pcg(A, {1.0, 1.0}, x, opts);
  EXPECT_TRUE(res.converged);
  EXPECT_FALSE(res.breakdown);
  EXPECT_NEAR(x[0], 1.0, 1e-9);  // (-1 + 2) x = 1
  EXPECT_NEAR(x[1], 1.0, 1e-9);
}

struct RandomSpdCase {
  size_t n;
  uint64_t seed;
};

class CgRandomSpd : public ::testing::TestWithParam<RandomSpdCase> {};

TEST_P(CgRandomSpd, SolvesRandomLaplacianPlusDiagonal) {
  const auto [n, seed] = GetParam();
  Rng rng(seed);
  TripletList t(n);
  // Random connected-ish graph Laplacian + positive diagonal => SPD.
  for (size_t i = 0; i + 1 < n; ++i)
    t.add_spring(i, i + 1, rng.uniform(0.5, 2.0));
  for (size_t k = 0; k < 3 * n; ++k) {
    const size_t i = rng.uniform_index(n), j = rng.uniform_index(n);
    if (i != j) t.add_spring(i, j, rng.uniform(0.1, 1.0));
  }
  for (size_t i = 0; i < n; ++i) t.add_diag(i, rng.uniform(0.01, 0.5));
  const CsrMatrix A = CsrMatrix::from_triplets(t);

  Vec x_true(n);
  for (size_t i = 0; i < n; ++i) x_true[i] = rng.uniform(-10, 10);
  Vec b;
  A.multiply(x_true, b);

  Vec x(n, 0.0);
  const CgResult res = solve_pcg(A, b, x, {.rel_tolerance = 1e-10});
  EXPECT_TRUE(res.converged);
  EXPECT_LT(linf_dist(x, x_true), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CgRandomSpd,
                         ::testing::Values(RandomSpdCase{10, 1},
                                           RandomSpdCase{50, 2},
                                           RandomSpdCase{200, 3},
                                           RandomSpdCase{500, 4},
                                           RandomSpdCase{1000, 5}));

// ------------------------------------------------------ CSR assembly ----

uint64_t dbits(double v) { return std::bit_cast<uint64_t>(v); }

void expect_bitwise_equal(const CsrMatrix& a, const CsrMatrix& b) {
  ASSERT_EQ(a.row_ptr(), b.row_ptr());
  ASSERT_EQ(a.col(), b.col());
  ASSERT_EQ(a.val().size(), b.val().size());
  for (size_t i = 0; i < a.val().size(); ++i)
    ASSERT_EQ(dbits(a.val()[i]), dbits(b.val()[i])) << "val[" << i << "]";
}

/// Random SPD system (chain + random springs + positive diagonal).
TripletList random_system(size_t n, uint64_t seed) {
  Rng rng(seed);
  TripletList t(n);
  for (size_t i = 0; i + 1 < n; ++i)
    t.add_spring(i, i + 1, rng.uniform(0.5, 2.0));
  for (size_t k = 0; k < 3 * n; ++k) {
    const size_t i = rng.uniform_index(n), j = rng.uniform_index(n);
    if (i != j) t.add_spring(i, j, rng.uniform(0.1, 1.0));
  }
  for (size_t i = 0; i < n; ++i) t.add_diag(i, rng.uniform(0.01, 0.5));
  return t;
}

/// Reference assembler: a spring is four coordinate triplets (two diagonal,
/// two off-diagonal), and each CSR row is its triplets stable-sorted by
/// column with duplicates accumulated in arrival order, the first one
/// assigned. The production assembler must reproduce it bit for bit.
struct OracleTriplets {
  size_t n;
  std::vector<size_t> rows, cols;
  std::vector<double> vals;

  void add_diag(size_t i, double v) {
    rows.push_back(i);
    cols.push_back(i);
    vals.push_back(v);
  }
  void add_spring(size_t i, size_t j, double w) {
    add_diag(i, w);
    add_diag(j, w);
    rows.push_back(i);
    cols.push_back(j);
    vals.push_back(-w);
    rows.push_back(j);
    cols.push_back(i);
    vals.push_back(-w);
  }

  struct Csr {
    std::vector<size_t> row_ptr;
    std::vector<uint32_t> col;
    std::vector<double> val;
  };
  Csr build() const {
    std::vector<std::vector<size_t>> by_row(n);
    for (size_t k = 0; k < rows.size(); ++k) by_row[rows[k]].push_back(k);
    Csr m;
    m.row_ptr.push_back(0);
    for (std::vector<size_t>& r : by_row) {
      std::stable_sort(r.begin(), r.end(),
                       [&](size_t a, size_t b) { return cols[a] < cols[b]; });
      for (size_t s = 0; s < r.size(); ++s) {
        if (s > 0 && cols[r[s]] == cols[r[s - 1]]) {
          m.val.back() += vals[r[s]];
        } else {
          m.col.push_back(static_cast<uint32_t>(cols[r[s]]));
          m.val.push_back(vals[r[s]]);
        }
      }
      m.row_ptr.push_back(m.col.size());
    }
    return m;
  }
};

/// Feeds the same call sequence to the production and oracle assemblers
/// and requires bitwise-equal CSR.
struct AssemblyPair {
  TripletList t;
  OracleTriplets o;

  explicit AssemblyPair(size_t n) : t(n), o{n, {}, {}, {}} {}
  void add_diag(size_t i, double v) {
    t.add_diag(i, v);
    o.add_diag(i, v);
  }
  void add_spring(size_t i, size_t j, double w) {
    t.add_spring(i, j, w);
    o.add_spring(i, j, w);
  }
  void expect_bitwise_equal_to_oracle() const {
    const CsrMatrix a = CsrMatrix::from_triplets(t);
    const OracleTriplets::Csr ref = o.build();
    ASSERT_EQ(a.row_ptr(), ref.row_ptr);
    ASSERT_EQ(a.col(), ref.col);
    ASSERT_EQ(a.val().size(), ref.val.size());
    for (size_t k = 0; k < ref.val.size(); ++k)
      ASSERT_EQ(dbits(a.val()[k]), dbits(ref.val[k])) << "val[" << k << "]";
    // The recorded diagonal slot reads the entry a column scan finds (0
    // when the row has none), to the bit.
    for (size_t i = 0; i < o.n; ++i) {
      double d = 0.0;
      for (size_t k = ref.row_ptr[i]; k < ref.row_ptr[i + 1]; ++k)
        if (ref.col[k] == i) d = ref.val[k];
      ASSERT_EQ(dbits(a.diagonal_at(i)), dbits(d)) << "diagonal " << i;
    }
  }
};

TEST(CsrAssembly, MatchesTripletOracleOnEdgeCases) {
  AssemblyPair s(6);
  s.add_spring(0, 2, 0.1);
  s.add_spring(2, 0, 0.2);  // duplicate coupling, reversed ends
  s.add_spring(0, 2, 0.3);  // and again: sums in arrival order
  s.add_diag(1, 0.7);       // row 1: diagonal only
  s.add_diag(1, 1e-17);
  s.add_diag(3, -0.0);      // row 3: a lone signed zero must survive
  s.add_spring(5, 2, 1e30);
  s.add_spring(2, 5, -1e30);  // cancels: an explicit zero entry stays
  // row 4: empty
  s.expect_bitwise_equal_to_oracle();
  const CsrMatrix a = CsrMatrix::from_triplets(s.t);
  EXPECT_EQ(dbits(a.at(3, 3)), dbits(-0.0));
  EXPECT_EQ(a.row_ptr()[5] - a.row_ptr()[4], 0u);
}

TEST(CsrAssembly, SignedZeroFirstContributionIsAssigned) {
  // -0.0 + -0.0 stays -0.0; -0.0 then +0.0 sums to +0.0. A zero-initialized
  // accumulator would get the first case wrong.
  AssemblyPair s(3);
  s.add_diag(0, -0.0);
  s.add_diag(0, -0.0);
  s.add_diag(1, -0.0);
  s.add_diag(1, 0.0);
  s.add_spring(0, 2, -0.0);
  s.add_spring(2, 0, -0.0);
  s.expect_bitwise_equal_to_oracle();
}

TEST(CsrAssembly, MatchesTripletOracleOnRandomSystems) {
  for (const uint64_t seed : {31u, 32u, 33u}) {
    Rng rng(seed);
    const size_t n = 300;
    AssemblyPair s(n);
    for (size_t k = 0; k < 5 * n; ++k) {
      const size_t i = rng.uniform_index(n), j = rng.uniform_index(n);
      if (i != j)
        s.add_spring(i, j, rng.uniform(0.1, 2.0));
      else
        s.add_diag(i, rng.uniform(-1.0, 1.0));
      // Many duplicates: re-stamp a recent pair now and then.
      if (k % 7 == 0 && i != j) s.add_spring(j, i, rng.uniform(0.1, 2.0));
    }
    s.expect_bitwise_equal_to_oracle();
  }
}

TEST(CsrAssembly, MatchesTripletOracleOnLongRows) {
  // A hub coupled to hundreds of variables in scrambled order, with
  // repeats, as the bound pin of a high-fanout net is.
  Rng rng(34);
  const size_t n = 700;
  AssemblyPair s(n);
  for (size_t k = 0; k < 3000; ++k) {
    const size_t j = 1 + rng.uniform_index(n - 1);
    s.add_spring(0, j, rng.uniform(0.1, 2.0));
    if (k % 5 == 0) s.add_spring(j, 7 + (j % 90), rng.uniform(0.1, 2.0));
  }
  s.add_diag(0, 0.5);
  s.expect_bitwise_equal_to_oracle();
}

TEST(CsrAssembly, ReassemblyReusesBuffersAndMatchesFreshBuild) {
  CsrMatrix m;
  m.assemble(random_system(300, 21));
  const TripletList t = random_system(200, 22);
  m.assemble(t);  // smaller system into the larger matrix's buffers
  expect_bitwise_equal(m, CsrMatrix::from_triplets(t));
}

TEST(CsrAssembly, ClearResetsTheSystem) {
  TripletList t = random_system(50, 23);
  t.clear();
  t.add_diag(4, -0.0);
  TripletList fresh(50);
  fresh.add_diag(4, -0.0);
  expect_bitwise_equal(CsrMatrix::from_triplets(t),
                       CsrMatrix::from_triplets(fresh));
  EXPECT_EQ(CsrMatrix::from_triplets(t).nnz(), 1u);
}

TEST(CsrAssembly, ResultIndependentOfThreadCount) {
  const size_t prev = global_threads();
  const TripletList t = random_system(20000, 24);
  set_global_threads(1);
  const CsrMatrix reference = CsrMatrix::from_triplets(t);
  set_global_threads(8);
  expect_bitwise_equal(CsrMatrix::from_triplets(t), reference);
  set_global_threads(prev);
}

TEST(CsrAssembly, SelfSpringThrows) {
  TripletList t(3);
  EXPECT_THROW(t.add_spring(1, 1, 1.0), std::invalid_argument);
}

TEST(CsrAssembly, OutOfRangeSpringThrowsAtBuild) {
  TripletList t(3);
  t.add_spring(0, 3, 1.0);  // recorded, reported when the CSR is built
  EXPECT_THROW(CsrMatrix::from_triplets(t), std::out_of_range);
}

TEST(CsrAssembly, VariableCountBeyond32BitsThrows) {
  // The guard runs before any buffer is sized, so nothing is allocated.
  const size_t too_many = size_t{std::numeric_limits<uint32_t>::max()} + 1;
  EXPECT_THROW(TripletList{too_many}, std::length_error);
}

TEST(CsrAssembly, IndexGuardBoundary) {
  const size_t max32 = std::numeric_limits<uint32_t>::max();
  EXPECT_EQ(check_index32(max32, "CSR entry count"), max32);
  EXPECT_THROW(check_index32(max32 + 1, "CSR entry count"),
               std::length_error);
}

// ---------------------------------------------------------- CG workspace ----

TEST(CgWorkspace, MatchesPlainOverloadBitwise) {
  const size_t n = 500;
  const CsrMatrix A = CsrMatrix::from_triplets(random_system(n, 25));
  Rng rng(26);
  Vec b(n);
  for (size_t i = 0; i < n; ++i) b[i] = rng.uniform(-1.0, 1.0);
  CgOptions opts;
  opts.rel_tolerance = 1e-10;

  Vec x_plain(n, 0.0);
  const CgResult plain = solve_pcg(A, b, x_plain, opts);
  CgWorkspace ws;
  Vec x_ws(n, 0.0);
  const CgResult with_ws = solve_pcg(A, b, x_ws, opts, ws);
  EXPECT_EQ(plain.iterations, with_ws.iterations);
  EXPECT_EQ(plain.converged, with_ws.converged);
  EXPECT_EQ(dbits(plain.residual_norm), dbits(with_ws.residual_norm));
  for (size_t i = 0; i < n; ++i)
    ASSERT_EQ(dbits(x_plain[i]), dbits(x_ws[i])) << "x[" << i << "]";

  // Leftover state in a reused workspace must not leak into the result.
  Vec x_again(n, 0.0);
  solve_pcg(A, b, x_again, opts, ws);
  for (size_t i = 0; i < n; ++i)
    ASSERT_EQ(dbits(x_again[i]), dbits(x_ws[i])) << "x[" << i << "]";
}

TEST(CgWorkspace, SteadyStateSolveIsAllocationFree) {
  // n > kReduceChunk so the chunked reduction path itself (not its small-n
  // early return) is on trial; single-threaded so the templated serial
  // fast paths of parallel_for/parallel_sum are the ones exercised.
  const size_t prev = global_threads();
  set_global_threads(1);
  const size_t n = kReduceChunk + 1901;
  TripletList t(n);
  for (size_t i = 0; i + 1 < n; ++i) t.add_spring(i, i + 1, 1.0);
  for (size_t i = 0; i < n; ++i) t.add_diag(i, 0.5);
  const CsrMatrix A = CsrMatrix::from_triplets(t);
  const Vec b(n, 1.0);
  CgOptions opts;
  opts.rel_tolerance = 1e-30;  // never met: runs exactly max_iterations
  opts.max_iterations = 25;

  CgWorkspace ws;
  Vec x(n, 0.0);
  solve_pcg(A, b, x, opts, ws);  // warm-up: sizes every workspace buffer
  x.assign(n, 0.0);
  alloc_counter::arm();
  solve_pcg(A, b, x, opts, ws);
  const size_t allocations = alloc_counter::drain();
  EXPECT_EQ(allocations, 0u)
      << "steady-state solve_pcg must not touch the heap";

  // With a second thread every region runs on the pool, whose dispatch
  // must not allocate either.
  set_global_threads(2);
  solve_pcg(A, b, x, opts, ws);  // warm-up: spawns the pool
  x.assign(n, 0.0);
  alloc_counter::arm();
  const CgResult res = solve_pcg(A, b, x, opts, ws);
  EXPECT_EQ(alloc_counter::drain(), 0u)
      << "steady-state threaded solve_pcg must not touch the heap";
  EXPECT_EQ(res.iterations, 25u);
  set_global_threads(prev);
}

TEST(CsrAssembly, SteadyStateAssembleIsAllocationFree) {
  // Re-assembling a warm matrix from a same-shaped system reuses every
  // buffer: CSR arrays, spring scratch, row cursors and diagonal slots.
  const TripletList t = random_system(kReduceChunk + 1901, 27);
  CsrMatrix m;
  m.assemble(t);  // warm-up
  alloc_counter::arm();
  m.assemble(t);
  EXPECT_EQ(alloc_counter::drain(), 0u)
      << "steady-state CsrMatrix::assemble must not touch the heap";
  expect_bitwise_equal(m, CsrMatrix::from_triplets(t));
}

// ------------------------------------------------------------ PCG oracle ----

/// The Jacobi-PCG loop the fused three-region kernel replaced, kept
/// verbatim (full-vector SpMV, column-scan diagonal, vec.h reductions) as
/// the bitwise oracle.
CgResult reference_pcg(const CsrMatrix& A, const Vec& b, Vec& x,
                       const CgOptions& opts) {
  const size_t n = A.dim();
  CgResult result;
  const double b_norm = norm2(b);
  if (opts.inject_breakdown) {
    result.residual_norm = b_norm;
    result.breakdown = true;
    return result;
  }
  if (b_norm == 0.0) {
    x.assign(n, 0.0);
    result.converged = true;
    return result;
  }
  const double shift = opts.diag_shift;
  Vec inv_diag(n, 0.0);
  for (size_t i = 0; i < n; ++i)
    for (size_t k = A.row_ptr()[i]; k < A.row_ptr()[i + 1]; ++k)
      if (A.col()[k] == i) inv_diag[i] = A.val()[k];
  for (double& d : inv_diag) d = (d + shift > 0.0) ? 1.0 / (d + shift) : 1.0;
  Vec r(n), z(n), p(n), Ap(n);
  A.multiply(x, Ap);
  if (shift > 0.0) axpy(shift, x, Ap);
  for (size_t i = 0; i < n; ++i) r[i] = b[i] - Ap[i];
  for (size_t i = 0; i < n; ++i) z[i] = inv_diag[i] * r[i];
  p = z;
  double rz = dot(r, z);
  const size_t max_iter =
      opts.max_iterations ? opts.max_iterations : 4 * n + 16;
  const double tol = opts.rel_tolerance * b_norm;
  double r_norm = norm2(r);
  size_t it = 0;
  for (; it < max_iter && r_norm > tol; ++it) {
    A.multiply(p, Ap);
    if (shift > 0.0) axpy(shift, p, Ap);
    const double pAp = dot(p, Ap);
    if (pAp <= 0.0) {
      result.breakdown = true;
      break;
    }
    const double alpha = rz / pAp;
    axpy(alpha, p, x);
    axpy(-alpha, Ap, r);
    for (size_t i = 0; i < n; ++i) z[i] = inv_diag[i] * r[i];
    const double rz_next = dot(r, z);
    const double beta = rz_next / rz;
    rz = rz_next;
    xpay(z, beta, p);
    r_norm = norm2(r);
  }
  result.iterations = it;
  result.residual_norm = r_norm;
  result.converged = r_norm <= tol;
  return result;
}

/// One system of an oracle case: matrix, right-hand side, initial guess.
struct OracleSystem {
  CsrMatrix A;
  Vec b, x0;
};

OracleSystem spd_system(size_t n, uint64_t seed, double rhs_scale = 1.0) {
  OracleSystem s{CsrMatrix::from_triplets(random_system(n, seed)), {}, {}};
  Rng rng(seed + 1000);
  s.b.resize(n);
  s.x0.resize(n);
  for (size_t i = 0; i < n; ++i) {
    s.b[i] = rhs_scale * rng.uniform(-1.0, 1.0);
    s.x0[i] = rng.uniform(-5.0, 5.0);
  }
  return s;
}

/// Indefinite: the random SPD couplings plus one strongly negative
/// diagonal entry whose row starts with a zero residual, so p·Ap turns
/// non-positive only once the Krylov space reaches that row.
OracleSystem indefinite_system(size_t n, uint64_t seed) {
  TripletList t = random_system(n, seed);
  t.add_diag(n / 2, -60.0);
  OracleSystem s{CsrMatrix::from_triplets(t), Vec(n, 1.0), Vec(n, 0.0)};
  s.b[n / 2] = 0.0;
  return s;
}

/// Solves the cases in order through one shared workspace at 1, 2 and 8
/// threads and requires every x and result to match the reference loop.
void expect_matches_reference(const std::vector<OracleSystem>& cases,
                              const CgOptions& opts) {
  const size_t prev = global_threads();
  std::vector<Vec> ref_x;
  std::vector<CgResult> ref;
  set_global_threads(1);
  for (const OracleSystem& c : cases) {
    ref_x.push_back(c.x0);
    ref.push_back(reference_pcg(c.A, c.b, ref_x.back(), opts));
  }
  for (const size_t threads : {1, 2, 8}) {
    set_global_threads(threads);
    CgWorkspace ws;
    for (size_t s = 0; s < cases.size(); ++s) {
      SCOPED_TRACE(::testing::Message() << threads << " threads, system " << s);
      Vec x = cases[s].x0;
      const CgResult got = solve_pcg(cases[s].A, cases[s].b, x, opts, ws);
      EXPECT_EQ(got.iterations, ref[s].iterations);
      EXPECT_EQ(dbits(got.residual_norm), dbits(ref[s].residual_norm));
      EXPECT_EQ(got.converged, ref[s].converged);
      EXPECT_EQ(got.breakdown, ref[s].breakdown);
      ASSERT_EQ(x.size(), ref_x[s].size());
      for (size_t i = 0; i < x.size(); ++i)
        ASSERT_EQ(dbits(x[i]), dbits(ref_x[s][i])) << "x[" << i << "]";
    }
  }
  set_global_threads(prev);
}

TEST(PcgOracle, SizesAroundReduceChunk) {
  // Both sides of kReduceChunk, including exactly one chunk, then a small
  // system again: the shared workspace shrinks and regrows between solves.
  std::vector<OracleSystem> cases;
  cases.push_back(spd_system(700, 40));
  cases.push_back(spd_system(kReduceChunk, 41));
  cases.push_back(spd_system(kReduceChunk + 1, 42));
  cases.push_back(spd_system(3 * kReduceChunk + 77, 43));
  cases.push_back(spd_system(900, 44));
  expect_matches_reference(cases, {.rel_tolerance = 1e-10});
  expect_matches_reference({spd_system(300, 48)}, {});
}

TEST(PcgOracle, ZeroRightHandSide) {
  for (const size_t n : {size_t{600}, kReduceChunk + 600})
    expect_matches_reference({spd_system(n, 50, /*rhs_scale=*/0.0)},
                             {.rel_tolerance = 1e-10});
}

TEST(PcgOracle, InjectedBreakdown) {
  for (const size_t n : {size_t{600}, kReduceChunk + 600})
    expect_matches_reference({spd_system(n, 52)}, {.inject_breakdown = true});
}

TEST(PcgOracle, DiagShift) {
  for (const size_t n : {size_t{600}, kReduceChunk + 600})
    expect_matches_reference({spd_system(n, 54), indefinite_system(n, 55)},
                             {.rel_tolerance = 1e-10, .diag_shift = 50.0});
}

TEST(PcgOracle, Breakdown) {
  for (const size_t n : {size_t{600}, kReduceChunk + 600}) {
    std::vector<OracleSystem> cases;
    cases.push_back(indefinite_system(n, 56));
    cases.push_back(spd_system(n, 57));
    expect_matches_reference(cases, {.rel_tolerance = 1e-10});
    // The oracle must actually break down here, after at least one step.
    Vec x = cases[0].x0;
    const CgResult r = reference_pcg(cases[0].A, cases[0].b, x, {});
    EXPECT_TRUE(r.breakdown);
    EXPECT_GT(r.iterations, 0u);
  }
}

TEST(PcgOracle, ExhaustedIterationBudget) {
  for (const size_t n : {size_t{600}, kReduceChunk + 600})
    expect_matches_reference({spd_system(n, 58), spd_system(n / 2, 59)},
                             {.rel_tolerance = 1e-30, .max_iterations = 7});
}

}  // namespace
}  // namespace complx
