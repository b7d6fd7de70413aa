#include "linalg/cg.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/fpcmp.h"
#include "util/parallel.h"

namespace complx {

namespace {

using Partials = CgWorkspace::Partials;

/// One parallel region: body(k, begin, end) for every kReduceChunk-aligned
/// row block [begin, end) of an n-row system.
template <typename Body>
void for_each_block(size_t n, size_t blocks, const Body& body) {
  parallel_for(
      blocks,
      [&](size_t lo, size_t hi) {
        for (size_t k = lo; k < hi; ++k)
          body(k, k * kReduceChunk, std::min(n, (k + 1) * kReduceChunk));
      },
      /*chunk=*/1);
}

/// The row-block kernels of the regions below, over rows [begin, end).
/// They stay out of line: inlined into solve_pcg's iteration loop, the
/// SpMV's inner loop ran out of registers and spilled (about 10% slower
/// PCG at 50k).

/// Set-up: D⁻¹ (zero diagonals fall back to 1), r = b − (A + σI) x,
/// z = D⁻¹ r, p = z, and the partials of b·b, r·z and r·r.
[[gnu::noinline]] Partials setup_block(const CsrMatrix& A, const Vec& b,
                                       const Vec& x, double shift,
                                       CgWorkspace& ws, size_t begin,
                                       size_t end) {
  double bb = 0.0, rz = 0.0, rr = 0.0;
  for (size_t i = begin; i < end; ++i) {
    bb += b[i] * b[i];
    const double d = A.diagonal_at(i) + shift;
    ws.inv_diag[i] = d > 0.0 ? 1.0 / d : 1.0;
    double ax = A.row_dot(i, x);
    if (shift > 0.0) ax += shift * x[i];
    ws.r[i] = b[i] - ax;
    ws.z[i] = ws.inv_diag[i] * ws.r[i];
    ws.p[i] = ws.z[i];
    rz += ws.r[i] * ws.z[i];
    rr += ws.r[i] * ws.r[i];
  }
  return {bb, rz, rr};
}

/// (a) Ap = (A + σI) p; returns the partial of p·Ap.
[[gnu::noinline]] double apply_block(const CsrMatrix& A, double shift,
                                     CgWorkspace& ws, size_t begin,
                                     size_t end) {
  double pAp = 0.0;
  for (size_t i = begin; i < end; ++i) {
    double ap = A.row_dot(i, ws.p);
    if (shift > 0.0) ap += shift * ws.p[i];
    ws.Ap[i] = ap;
    pAp += ws.p[i] * ap;
  }
  return pAp;
}

/// (b) x += α p, r −= α Ap, z = D⁻¹ r; writes the partials of r·z and r·r
/// to out.b and out.c.
[[gnu::noinline]] void update_block(double alpha, Vec& x, CgWorkspace& ws,
                                    size_t begin, size_t end,
                                    Partials& out) {
  const double neg_alpha = -alpha;
  double rz = 0.0, rr = 0.0;
  for (size_t i = begin; i < end; ++i) {
    x[i] += alpha * ws.p[i];
    ws.r[i] += neg_alpha * ws.Ap[i];
    ws.z[i] = ws.inv_diag[i] * ws.r[i];
    rz += ws.r[i] * ws.z[i];
    rr += ws.r[i] * ws.r[i];
  }
  out.b = rz;
  out.c = rr;
}

/// The partials combined in block order, exactly as parallel_sum combines
/// its chunks: a single block is its own sum, more add up from 0.0.
template <typename Field>
double combine(const std::vector<Partials>& partials, size_t blocks,
               Field field) {
  if (blocks == 1) return partials[0].*field;
  double s = 0.0;
  for (size_t k = 0; k < blocks; ++k) s += partials[k].*field;
  return s;
}

}  // namespace

CgResult solve_pcg(const CsrMatrix& A, const Vec& b, Vec& x,
                   const CgOptions& opts) {
  CgWorkspace ws;
  return solve_pcg(A, b, x, opts, ws);
}

CgResult solve_pcg(const CsrMatrix& A, const Vec& b, Vec& x,
                   const CgOptions& opts, CgWorkspace& ws) {
  const size_t n = A.dim();
  if (b.size() != n || x.size() != n)
    throw std::invalid_argument("CG dimension mismatch");

  // Workspace buffers: resizing is a no-op once warm, and every element is
  // written before it is read, so stale contents never leak through.
  ws.r.resize(n);
  ws.z.resize(n);
  ws.p.resize(n);
  ws.Ap.resize(n);
  ws.inv_diag.resize(n);
  const size_t blocks = (n + kReduceChunk - 1) / kReduceChunk;
  if (ws.partials.size() < blocks) ws.partials.resize(blocks);
  std::vector<Partials>& partials = ws.partials;

  // Optional Tikhonov shift: operate on A + σI without materializing it.
  const double shift = opts.diag_shift;

  // Set-up region: ||b||², the Jacobi preconditioner M^{-1} = 1/diag(A)
  // (zero diagonals — isolated, unanchored variables — fall back to
  // identity scaling), r = b − A x, z = M^{-1} r, p = z, and the partials
  // of r·z and r·r.
  for_each_block(n, blocks, [&](size_t k, size_t begin, size_t end) {
    partials[k] = setup_block(A, b, x, shift, ws, begin, end);
  });

  CgResult result;
  const double b_norm = std::sqrt(combine(partials, blocks, &Partials::a));
  if (opts.inject_breakdown) {
    result.residual_norm = b_norm;
    result.breakdown = true;
    return result;
  }
  if (fp::exactly_zero(b_norm)) {
    // x = 0 solves the system exactly; report a fully-populated result
    // (0 iterations, zero residual) instead of default-initialized fields.
    x.assign(n, 0.0);
    result.converged = true;
    return result;
  }

  const size_t max_iter =
      opts.max_iterations ? opts.max_iterations : 4 * n + 16;
  const double tol = opts.rel_tolerance * b_norm;
  double rz = combine(partials, blocks, &Partials::b);

  // The residual norm is computed once per iteration (after the update) and
  // carried into both the convergence test and the reported result, so
  // result.iterations / result.residual_norm always describe the same
  // iterate on every exit path (converged, breakdown, or budget exhausted).
  double r_norm = std::sqrt(combine(partials, blocks, &Partials::c));
  size_t it = 0;
  for (; it < max_iter && r_norm > tol; ++it) {
    // (a) Ap = (A + σI) p and the partials of p·Ap.
    for_each_block(n, blocks, [&](size_t k, size_t begin, size_t end) {
      partials[k].a = apply_block(A, shift, ws, begin, end);
    });
    const double pAp = combine(partials, blocks, &Partials::a);
    if (pAp <= 0.0) {  // not SPD (or numerical breakdown)
      result.breakdown = true;
      break;
    }

    // (b) x += α p, r −= α Ap, z = M^{-1} r and the partials of r·z, r·r.
    const double alpha = rz / pAp;
    for_each_block(n, blocks, [&](size_t k, size_t begin, size_t end) {
      update_block(alpha, x, ws, begin, end, partials[k]);
    });
    const double rz_next = combine(partials, blocks, &Partials::b);
    const double beta = rz_next / rz;
    rz = rz_next;
    r_norm = std::sqrt(combine(partials, blocks, &Partials::c));

    // (c) p = z + β p.
    Vec& p = ws.p;
    const Vec& z = ws.z;
    for_each_block(n, blocks, [&](size_t, size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) p[i] = beta * p[i] + z[i];
    });
  }
  result.iterations = it;
  result.residual_norm = r_norm;
  result.converged = r_norm <= tol;
  return result;
}

}  // namespace complx
