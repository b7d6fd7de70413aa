#include "projection/spreader.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "util/parallel.h"

namespace complx {

namespace {

double coord(const Mote* m, bool horizontal) {
  return horizontal ? m->x : m->y;
}
void set_coord(Mote* m, bool horizontal, double v) {
  (horizontal ? m->x : m->y) = v;
}
double lo_edge(const Rect& r, bool horizontal) {
  return horizontal ? r.xl : r.yl;
}
double hi_edge(const Rect& r, bool horizontal) {
  return horizontal ? r.xh : r.yh;
}

/// Sub-rectangle of `r` along the chosen axis.
Rect slice(const Rect& r, bool horizontal, double lo, double hi) {
  return horizontal ? Rect{lo, r.yl, hi, r.yh} : Rect{r.xl, lo, r.xh, hi};
}

/// A mote's sort key, copied out of the mote so std::sort compares flat
/// records instead of chasing pointers.
struct SortRecord {
  double coord;
  CellId owner;
  double transverse;
  Mote* mote;
};

/// Strict weak order on motes along an axis with deterministic tie-breaks.
/// std::sort is unstable, so sorting on the raw coordinate alone would let
/// the relative order of coincident motes (common early on, when cells pile
/// up at the core center) depend on the implementation's pivot choices.
/// Breaking ties by owner id and then the transverse coordinate pins the
/// permutation to the input values only. std::sort's permutation depends
/// only on the comparison outcomes, so sorting records gives the order that
/// sorting the motes under the same comparator would.
bool record_before(const SortRecord& a, const SortRecord& b) {
  if (a.coord < b.coord) return true;
  if (b.coord < a.coord) return false;
  if (a.owner != b.owner) return a.owner < b.owner;
  return a.transverse < b.transverse;
}

/// Sorts motes[0, count) along the axis, using `records` as scratch.
void sort_motes(Mote** motes, size_t count, bool horizontal,
                SortRecord* records) {
  for (size_t i = 0; i < count; ++i)
    records[i] = {coord(motes[i], horizontal), motes[i]->owner,
                  coord(motes[i], !horizontal), motes[i]};
  std::sort(records, records + count, record_before);
  for (size_t i = 0; i < count; ++i) motes[i] = records[i].mote;
}

/// Cumulative γ-capacity along one axis of a region. Free area is uniform
/// within a bin, so the cumulative profile is piecewise linear with knots at
/// the bin boundaries; building it costs one O(1) free_area_in query per bin
/// column crossed, and inverting it is linear interpolation. This replaces
/// the historical 40-step capacity_cut bisection (which evaluated a full
/// free_area_in per step) with one exact solve per query — and an increasing
/// sequence of targets can share a monotone hint so a whole terminal-spread
/// sweep costs O(columns) total.
class CapacityProfile {
 public:
  CapacityProfile(const DensityGrid& g, const Rect& region, bool horizontal,
                  double gamma) {
    const double lo = lo_edge(region, horizontal);
    const double hi = hi_edge(region, horizontal);
    knots_.push_back(lo);
    cum_.push_back(0.0);
    if (!(hi > lo)) return;
    const size_t b0 = horizontal ? g.bin_x_of(lo) : g.bin_y_of(lo);
    const size_t b1 =
        horizontal ? g.bin_x_of(hi - 1e-12) : g.bin_y_of(hi - 1e-12);
    for (size_t b = b0; b <= b1; ++b) {
      const Rect cell = horizontal ? g.bin_rect(b, 0) : g.bin_rect(0, b);
      const double edge = std::min(hi, horizontal ? cell.xh : cell.yh);
      if (edge <= knots_.back()) continue;
      cum_.push_back(cum_.back() +
                     gamma * g.free_area_in(
                                 slice(region, horizontal, knots_.back(), edge)));
      knots_.push_back(edge);
    }
    if (knots_.back() < hi) {  // region reaches past the core: zero capacity
      knots_.push_back(hi);
      cum_.push_back(cum_.back());
    }
  }

  double total() const { return cum_.back(); }

  /// Smallest t with cum(t) >= target — the same infimum the bisection
  /// converged to, including on zero-capacity plateaus. `hint` (optional)
  /// must come from a previous call with a target no larger than this one;
  /// it persists the segment pointer across a nondecreasing target sweep.
  double invert(double target, size_t* hint = nullptr) const {
    if (knots_.size() < 2) return knots_.front();
    if (!(target > 0.0)) return knots_.front();
    size_t k = hint != nullptr ? *hint : 0;
    while (k + 2 < cum_.size() && cum_[k + 1] < target) ++k;
    if (hint != nullptr) *hint = k;
    const double seg = cum_[k + 1] - cum_[k];
    if (!(seg > 0.0)) return knots_[k];
    const double t =
        knots_[k] + (target - cum_[k]) / seg * (knots_[k + 1] - knots_[k]);
    return std::clamp(t, knots_[k], knots_[k + 1]);
  }

 private:
  std::vector<double> knots_;  ///< bin-boundary coordinates clipped to region
  std::vector<double> cum_;    ///< cumulative γ-capacity up to each knot
};

struct Node {
  Rect region;
  size_t begin, end;  ///< sub-range of the mote-pointer array
  int depth;
};

void terminal_spread(const DensityGrid& grid, const SpreaderOptions& opts,
                     const Rect& region, bool horizontal, Mote** motes,
                     size_t count) {
  // 1-D spreading along the dominant axis: each mote is placed where the
  // cumulative capacity profile reaches its cumulative-area midpoint.
  // This evens density while preserving sorted order (Section S2's convex
  // subproblem in the δ_i variables). The transverse coordinate is clamped.
  // The motes arrive sorted along the dominant axis.
  double total_area = 0.0;
  for (size_t i = 0; i < count; ++i) total_area += motes[i]->area();
  const CapacityProfile profile(grid, region, horizontal, opts.gamma);
  const double region_cap = profile.total();

  const double lo = lo_edge(region, horizontal);
  const double hi = hi_edge(region, horizontal);

  if (total_area <= 0.0 || region_cap <= 1e-12) {
    // Nothing meaningful to even out; just clamp into the region.
    for (size_t i = 0; i < count; ++i) {
      Mote* m = motes[i];
      m->x = std::clamp(m->x, region.xl, region.xh);
      m->y = std::clamp(m->y, region.yl, region.yh);
    }
    return;
  }

  // Single monotone sweep: cumulative-area midpoints increase in sorted
  // order, so one persistent hint walks the profile left to right.
  size_t hint = 0;
  double acc = 0.0;
  for (size_t i = 0; i < count; ++i) {
    Mote* m = motes[i];
    const double midpoint = acc + m->area() / 2.0;
    acc += m->area();
    const double target_cap = region_cap * (midpoint / total_area);
    const double pos = profile.invert(target_cap, &hint);
    set_coord(m, horizontal, std::clamp(pos, lo, hi));
    // Clamp transverse coordinate into the region.
    if (horizontal)
      m->y = std::clamp(m->y, region.yl, region.yh);
    else
      m->x = std::clamp(m->x, region.xl, region.xh);
  }
}

/// Sorts the node's motes along its dominant axis, then either runs the
/// terminal sweep (returns false) or bipartitions them, writing the two
/// children to children[0..1] (returns true).
bool process(const DensityGrid& grid, const SpreaderOptions& opts,
             const Node& node, Mote** all_motes, SortRecord* all_records,
             Node* children) {
  const Rect& region = node.region;
  Mote** const motes = all_motes + node.begin;
  const size_t count = node.end - node.begin;
  const bool horizontal = region.width() >= region.height();
  sort_motes(motes, count, horizontal, all_records + node.begin);
  if (static_cast<int>(count) <= opts.terminal_motes ||
      node.depth >= opts.max_depth) {
    terminal_spread(grid, opts, region, horizontal, motes, count);
    return false;
  }

  // Area-median split of the cell list.
  double total_area = 0.0;
  for (size_t i = 0; i < count; ++i) total_area += motes[i]->area();
  size_t k = 0;
  double acc = 0.0;
  while (k < count && acc + motes[k]->area() <= total_area / 2.0)
    acc += motes[k++]->area();
  k = std::clamp<size_t>(k, 1, count - 1);
  const double area1 = acc;

  // Capacity-proportional cut line.
  const CapacityProfile profile(grid, region, horizontal, opts.gamma);
  const double region_cap = profile.total();
  double cut;
  if (region_cap > 1e-12 && total_area > 0.0) {
    cut = profile.invert(region_cap * (area1 / total_area));
  } else {
    cut = (lo_edge(region, horizontal) + hi_edge(region, horizontal)) / 2.0;
  }
  // Keep both halves non-degenerate.
  const double lo = lo_edge(region, horizontal);
  const double hi = hi_edge(region, horizontal);
  const double min_span = (hi - lo) * 1e-3;
  cut = std::clamp(cut, lo + min_span, hi - min_span);

  // Piecewise-linear rescale around the old split coordinate. Relative
  // order is preserved because both maps are increasing.
  const double m_lo = coord(motes[k - 1], horizontal);
  const double m_hi = coord(motes[k], horizontal);
  const double knot = std::clamp((m_lo + m_hi) / 2.0, lo, hi);
  const double left_span = std::max(knot - lo, 1e-12);
  const double right_span = std::max(hi - knot, 1e-12);
  for (size_t i = 0; i < k; ++i) {
    const double t = (coord(motes[i], horizontal) - lo) / left_span;
    set_coord(motes[i], horizontal, lo + std::clamp(t, 0.0, 1.0) * (cut - lo));
  }
  for (size_t i = k; i < count; ++i) {
    const double t = (coord(motes[i], horizontal) - knot) / right_span;
    set_coord(motes[i], horizontal,
              cut + std::clamp(t, 0.0, 1.0) * (hi - cut));
  }

  children[0] = {slice(region, horizontal, lo, cut), node.begin,
                 node.begin + k, node.depth + 1};
  children[1] = {slice(region, horizontal, cut, hi), node.begin + k, node.end,
                 node.depth + 1};
  return true;
}

}  // namespace

Spreader::Spreader(const DensityGrid& grid, const SpreaderOptions& opts)
    : grid_(grid), opts_(opts) {
  if (opts_.terminal_motes < 1)
    throw std::invalid_argument(
        "SpreaderOptions::terminal_motes must be at least 1");
}

void Spreader::spread(const Rect& region, std::vector<Mote*>& motes) const {
  spread(std::vector<Rect>{region}, std::vector<size_t>{0, motes.size()},
         motes);
}

void Spreader::spread(const std::vector<Rect>& regions,
                      const std::vector<size_t>& offsets,
                      std::vector<Mote*>& motes) const {
  std::vector<Node> level, next;
  for (size_t r = 0; r < regions.size(); ++r)
    if (offsets[r + 1] > offsets[r] && !regions[r].empty())
      level.push_back({regions[r], offsets[r], offsets[r + 1], 0});
  if (level.empty()) return;

  // One sort record per mote: a node sorts within its own sub-range, so
  // concurrent nodes never share scratch.
  std::vector<SortRecord> records(motes.size());
  std::vector<uint8_t> split;
  while (!level.empty()) {
    // Node i writes its children to next[2i], next[2i + 1]. Nodes own
    // disjoint mote sub-ranges and the grid is read-only, so chunk=1 lets
    // the pool run whole nodes concurrently.
    next.resize(2 * level.size());
    split.assign(level.size(), 0);
    parallel_for(
        level.size(),
        [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i)
            split[i] = process(grid_, opts_, level[i], motes.data(),
                               records.data(), &next[2 * i]);
        },
        /*chunk=*/1);
    size_t kept = 0;
    for (size_t i = 0; i < level.size(); ++i) {
      if (!split[i]) continue;
      next[kept++] = next[2 * i];
      next[kept++] = next[2 * i + 1];
    }
    next.resize(kept);
    std::swap(level, next);
  }
}

}  // namespace complx
