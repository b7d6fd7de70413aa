// Top-down geometric partitioning with 1-D spreading — the computational
// core of the feasibility projection P_C (paper Section 5 and S2).
//
// Within a spreading region, cells are recursively bipartitioned at their
// area median; the region is cut where the *capacity* (γ-scaled free area)
// splits in the same proportion, and cell coordinates are piecewise-linearly
// rescaled into their side. Relative order along the cut axis is preserved
// at every step — this is what makes each pass a convex optimization in the
// neighbor-distance variables δ_i (Section S2) and underlies the projection's
// empirical self-consistency.
#pragma once

#include <cstddef>
#include <vector>

#include "density/grid.h"
#include "projection/mote.h"

namespace complx {

struct SpreaderOptions {
  double gamma = 1.0;       ///< target utilization within the region
  int terminal_motes = 24;  ///< stop recursion at this many motes (>= 1)
  int max_depth = 48;
};

/// The recursion runs level-synchronously: a node is a region rectangle, a
/// contiguous sub-range of one mote-pointer array and a depth, and each
/// level processes all of its nodes in one parallel region. A node sorts
/// and splits its own sub-range in place and emits two children, or runs
/// the terminal sweep. Every node performs the same operations on the same
/// mote sequence as a depth-first recursion would, and nodes share no
/// motes, so the result is bitwise identical at any thread count.
class Spreader {
 public:
  /// `grid` provides the capacity field (fixed blockage already subtracted).
  /// Throws std::invalid_argument when opts.terminal_motes < 1: a split
  /// needs at least two motes.
  Spreader(const DensityGrid& grid, const SpreaderOptions& opts);

  /// Spreads the given motes (in place) so their density inside `region`
  /// approaches uniform γ-utilization. Motes must have centers in `region`.
  /// The one-region call of the multi-region overload below.
  void spread(const Rect& region, std::vector<Mote*>& motes) const;

  /// Spreads every region at once: regions[r] owns the motes
  /// motes[offsets[r], offsets[r + 1]), and the sub-ranges are disjoint.
  /// Reorders `motes` within each sub-range.
  void spread(const std::vector<Rect>& regions,
              const std::vector<size_t>& offsets,
              std::vector<Mote*>& motes) const;

 private:
  const DensityGrid& grid_;
  SpreaderOptions opts_;
};

}  // namespace complx
