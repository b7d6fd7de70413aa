#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "density/grid.h"
#include "helpers.h"
#include "projection/spreader.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace complx {
namespace {

/// Empty 100x100 core (no fixed objects) with one tiny movable cell so the
/// netlist finalizes; motes are created independently of it.
Netlist empty_core() {
  Netlist nl;
  Cell c;
  c.width = 1;
  c.height = 1;
  nl.add_cell(c, "dummy");
  nl.set_core({0, 0, 100, 100});
  nl.finalize();
  return nl;
}

std::vector<Mote> cluster_motes(size_t n, double cx, double cy, double spread,
                                uint64_t seed, double size = 4.0) {
  Rng rng(seed);
  std::vector<Mote> motes(n);
  for (size_t i = 0; i < n; ++i) {
    motes[i].x = cx + rng.uniform(-spread, spread);
    motes[i].y = cy + rng.uniform(-spread, spread);
    motes[i].width = size;
    motes[i].height = size;
    motes[i].owner = 0;
  }
  return motes;
}

class SpreaderTest : public ::testing::Test {
 protected:
  void run(std::vector<Mote>& motes, const Rect& region, double gamma) {
    Netlist nl = empty_core();
    DensityGrid grid(nl, 10, 10);
    std::vector<Rect> rects;
    for (const Mote& m : motes) rects.push_back(m.bounds());
    grid.build_from_rects(rects);
    SpreaderOptions opts;
    opts.gamma = gamma;
    Spreader spreader(grid, opts);
    std::vector<Mote*> ptrs;
    for (Mote& m : motes) ptrs.push_back(&m);
    spreader.spread(region, ptrs);
  }
};

TEST_F(SpreaderTest, MotesStayInsideRegion) {
  auto motes = cluster_motes(200, 50, 50, 5, 1);
  const Rect region{0, 0, 100, 100};
  run(motes, region, 1.0);
  for (const Mote& m : motes) {
    EXPECT_GE(m.x, region.xl - 1e-9);
    EXPECT_LE(m.x, region.xh + 1e-9);
    EXPECT_GE(m.y, region.yl - 1e-9);
    EXPECT_LE(m.y, region.yh + 1e-9);
  }
}

TEST_F(SpreaderTest, DensityIsEvenedOut) {
  // 200 motes piled at center; after spreading, quadrant areas should be
  // roughly equal.
  auto motes = cluster_motes(200, 50, 50, 4, 2);
  run(motes, {0, 0, 100, 100}, 1.0);
  double q[4] = {0, 0, 0, 0};
  for (const Mote& m : motes)
    q[(m.x > 50 ? 1 : 0) + (m.y > 50 ? 2 : 0)] += m.area();
  const double total = q[0] + q[1] + q[2] + q[3];
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(q[i] / total, 0.25, 0.12) << i;
}

TEST_F(SpreaderTest, SpreadLowersPeakDensity) {
  auto motes = cluster_motes(300, 30, 70, 6, 3);
  Netlist nl = empty_core();
  auto peak = [&](const std::vector<Mote>& ms) {
    DensityGrid g(nl, 10, 10);
    std::vector<Rect> rects;
    for (const Mote& m : ms) rects.push_back(m.bounds());
    g.build_from_rects(rects);
    double mx = 0.0;
    for (size_t j = 0; j < 10; ++j)
      for (size_t i = 0; i < 10; ++i) mx = std::max(mx, g.usage(i, j));
    return mx;
  };
  const double before = peak(motes);
  run(motes, {0, 0, 100, 100}, 1.0);
  EXPECT_LT(peak(motes), 0.5 * before);
}

TEST_F(SpreaderTest, EmptyInputIsNoop) {
  std::vector<Mote> none;
  run(none, {0, 0, 100, 100}, 1.0);
  SUCCEED();
}

TEST_F(SpreaderTest, SingleMoteStaysPut) {
  auto motes = cluster_motes(1, 42, 13, 0, 4);
  const double ox = motes[0].x, oy = motes[0].y;
  run(motes, {0, 0, 100, 100}, 1.0);
  // One mote in a huge region: terminal spread may slide it along the
  // dominant axis, but it must remain in the region; with uniform capacity
  // it lands at the capacity midpoint. Just require containment and finite.
  EXPECT_GE(motes[0].x, 0.0);
  EXPECT_LE(motes[0].x, 100.0);
  EXPECT_GE(motes[0].y, 0.0);
  EXPECT_LE(motes[0].y, 100.0);
  (void)ox;
  (void)oy;
}

struct OrderCase {
  size_t n;
  uint64_t seed;
};

class SpreaderOrder : public ::testing::TestWithParam<OrderCase> {};

/// Relative order along the spreading axis is preserved (the convexity
/// argument of Section S2 depends on this).
TEST_P(SpreaderOrder, TerminalSpreadPreservesOrder) {
  const auto [n, seed] = GetParam();
  Netlist nl = empty_core();
  Rng rng(seed);
  // A single row of motes across a wide, short region: terminal spreading
  // acts along x. Order in x must be preserved.
  std::vector<Mote> motes(n);
  for (size_t i = 0; i < n; ++i) {
    motes[i].x = rng.uniform(40, 60);
    motes[i].y = 5.0;
    motes[i].width = 2.0;
    motes[i].height = 2.0;
  }
  std::vector<size_t> order_before(n);
  std::iota(order_before.begin(), order_before.end(), 0u);
  std::sort(order_before.begin(), order_before.end(),
            [&](size_t a, size_t b) { return motes[a].x < motes[b].x; });

  DensityGrid grid(nl, 10, 10);
  std::vector<Rect> rects;
  for (const Mote& m : motes) rects.push_back(m.bounds());
  grid.build_from_rects(rects);
  SpreaderOptions opts;
  opts.gamma = 1.0;
  opts.terminal_motes = static_cast<int>(n) + 1;  // force terminal path
  Spreader spreader(grid, opts);
  std::vector<Mote*> ptrs;
  for (Mote& m : motes) ptrs.push_back(&m);
  spreader.spread({0, 0, 100, 10}, ptrs);

  for (size_t i = 0; i + 1 < n; ++i) {
    EXPECT_LE(motes[order_before[i]].x, motes[order_before[i + 1]].x + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SpreaderOrder,
                         ::testing::Values(OrderCase{5, 1}, OrderCase{20, 2},
                                           OrderCase{100, 3},
                                           OrderCase{400, 4}));

TEST_F(SpreaderTest, RespectsBlockedCapacity) {
  // Left half of the core is blocked by a fixed macro: after spreading,
  // most mote area must sit in the right half.
  Netlist nl;
  Cell blk;
  blk.width = 50;
  blk.height = 100;
  blk.x = 0;
  blk.y = 0;
  blk.kind = CellKind::Fixed;
  nl.add_cell(blk, "blk");
  Cell d;
  d.width = 1;
  d.height = 1;
  nl.add_cell(d, "d");
  nl.set_core({0, 0, 100, 100});
  nl.finalize();

  auto motes = cluster_motes(150, 50, 50, 5, 5);
  DensityGrid grid(nl, 10, 10);
  std::vector<Rect> rects;
  for (const Mote& m : motes) rects.push_back(m.bounds());
  grid.build_from_rects(rects);
  SpreaderOptions opts;
  opts.gamma = 1.0;
  Spreader spreader(grid, opts);
  std::vector<Mote*> ptrs;
  for (Mote& m : motes) ptrs.push_back(&m);
  spreader.spread({0, 0, 100, 100}, ptrs);

  double left = 0.0, right = 0.0;
  for (const Mote& m : motes) (m.x < 50 ? left : right) += m.area();
  EXPECT_GT(right, 3.0 * left);
}


TEST(SpreaderSweep, TerminalSweepMatchesBisectionReference) {
  // The monotone profile sweep replaced a 40-step bisection per mote; both
  // compute the infimum coordinate where cumulative gamma-capacity reaches
  // the mote's cumulative-area midpoint. Rebuild the old bisection here and
  // compare, on a capacity profile with a zero plateau in the middle (a
  // full-height fixed block) to exercise the infimum convention.
  Netlist nl;
  Cell blk;
  blk.width = 30;
  blk.height = 100;
  blk.x = 30;  // covers x in [30, 60], all y
  blk.y = 0;
  blk.kind = CellKind::Fixed;
  nl.add_cell(blk, "blk");
  Cell c;
  c.width = 1;
  c.height = 1;
  nl.add_cell(c, "dummy");
  nl.set_core({0, 0, 100, 100});
  nl.finalize();

  std::vector<Mote> motes(20);
  Rng rng(31);
  for (size_t i = 0; i < motes.size(); ++i) {
    motes[i].x = rng.uniform(2.0, 98.0);
    motes[i].y = rng.uniform(10.0, 90.0);
    motes[i].width = 4.0;
    motes[i].height = 4.0;
    motes[i].owner = static_cast<CellId>(i);
  }
  DensityGrid grid(nl, 10, 10);
  std::vector<Rect> rects;
  for (const Mote& m : motes) rects.push_back(m.bounds());
  grid.build_from_rects(rects);

  const Rect region{0, 0, 100, 100};
  const double gamma = 1.0;

  // Reference targets from the pre-spread state, in the sort order the
  // spreader uses along the horizontal axis (x, then owner, then y).
  std::vector<const Mote*> order;
  for (const Mote& m : motes) order.push_back(&m);
  std::sort(order.begin(), order.end(), [](const Mote* a, const Mote* b) {
    if (a->x != b->x) return a->x < b->x;
    if (a->owner != b->owner) return a->owner < b->owner;
    return a->y < b->y;
  });
  double total_area = 0.0;
  for (const Mote& m : motes) total_area += m.area();
  const double region_cap = gamma * grid.free_area_in(region);
  std::vector<std::pair<const Mote*, double>> expected;
  double acc = 0.0;
  for (const Mote* m : order) {
    const double target = region_cap * ((acc + m->area() / 2.0) / total_area);
    acc += m->area();
    double lo = region.xl, hi = region.xh;
    for (int it = 0; it < 40; ++it) {  // the historical capacity_cut
      const double mid = (lo + hi) / 2.0;
      const double cap =
          gamma * grid.free_area_in({region.xl, region.yl, mid, region.yh});
      if (cap < target)
        lo = mid;
      else
        hi = mid;
    }
    expected.push_back({m, (lo + hi) / 2.0});
  }

  SpreaderOptions opts;
  opts.gamma = gamma;
  opts.terminal_motes = 64;  // force the terminal 1-D sweep directly
  Spreader spreader(grid, opts);
  std::vector<Mote*> ptrs;
  for (Mote& m : motes) ptrs.push_back(&m);
  spreader.spread(region, ptrs);

  for (const auto& [m, pos] : expected) {
    EXPECT_NEAR(m->x, pos, 1e-6) << "mote owner " << m->owner;
    // No mote may land inside the zero-capacity plateau's interior.
    EXPECT_FALSE(m->x > 30.0 + 1e-6 && m->x < 60.0 - 1e-6)
        << "mote at " << m->x << " sits on the blocked plateau";
  }
}

TEST(SpreaderOptionsCheck, TerminalMotesBelowOneIsRejected) {
  // A split needs two motes: with terminal_motes <= 0 a one-mote node would
  // reach the split path and read past its sub-range.
  Netlist nl = empty_core();
  DensityGrid grid(nl, 4, 4);
  for (const int bad : {0, -1, -24}) {
    SpreaderOptions opts;
    opts.terminal_motes = bad;
    EXPECT_THROW(Spreader(grid, opts), std::invalid_argument) << bad;
  }
  SpreaderOptions opts;
  opts.terminal_motes = 1;
  EXPECT_NO_THROW(Spreader(grid, opts));
}

// ------------------------------------------------- recursive oracle ----

/// The depth-first recursive spreader the level-synchronous spreader
/// replaced, kept verbatim (pointer sort, per-child vector copies) as the
/// bitwise oracle.
class ReferenceSpreader {
 public:
  ReferenceSpreader(const DensityGrid& grid, const SpreaderOptions& opts)
      : grid_(grid), opts_(opts) {}

  void spread(const Rect& region, std::vector<Mote*>& motes) const {
    if (motes.empty() || region.empty()) return;
    recurse(region, motes, 0);
  }

 private:
  static double coord(const Mote* m, bool h) { return h ? m->x : m->y; }
  static void set_coord(Mote* m, bool h, double v) { (h ? m->x : m->y) = v; }
  static double lo_edge(const Rect& r, bool h) { return h ? r.xl : r.yl; }
  static double hi_edge(const Rect& r, bool h) { return h ? r.xh : r.yh; }
  static Rect slice(const Rect& r, bool h, double lo, double hi) {
    return h ? Rect{lo, r.yl, hi, r.yh} : Rect{r.xl, lo, r.xh, hi};
  }
  static bool mote_before(const Mote* a, const Mote* b, bool h) {
    const double ca = coord(a, h);
    const double cb = coord(b, h);
    if (ca < cb) return true;
    if (cb < ca) return false;
    if (a->owner != b->owner) return a->owner < b->owner;
    return coord(a, !h) < coord(b, !h);
  }

  class CapacityProfile {
   public:
    CapacityProfile(const DensityGrid& g, const Rect& region, bool h,
                    double gamma) {
      const double lo = lo_edge(region, h);
      const double hi = hi_edge(region, h);
      knots_.push_back(lo);
      cum_.push_back(0.0);
      if (!(hi > lo)) return;
      const size_t b0 = h ? g.bin_x_of(lo) : g.bin_y_of(lo);
      const size_t b1 = h ? g.bin_x_of(hi - 1e-12) : g.bin_y_of(hi - 1e-12);
      for (size_t b = b0; b <= b1; ++b) {
        const Rect cell = h ? g.bin_rect(b, 0) : g.bin_rect(0, b);
        const double edge = std::min(hi, h ? cell.xh : cell.yh);
        if (edge <= knots_.back()) continue;
        cum_.push_back(cum_.back() +
                       gamma * g.free_area_in(
                                   slice(region, h, knots_.back(), edge)));
        knots_.push_back(edge);
      }
      if (knots_.back() < hi) {
        knots_.push_back(hi);
        cum_.push_back(cum_.back());
      }
    }
    double total() const { return cum_.back(); }
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
    std::vector<double> knots_;
    std::vector<double> cum_;
  };

  void recurse(const Rect& region, std::vector<Mote*>& motes,
               int depth) const {
    if (motes.empty()) return;
    if (static_cast<int>(motes.size()) <= opts_.terminal_motes ||
        depth >= opts_.max_depth) {
      terminal_spread(region, motes);
      return;
    }
    const bool h = region.width() >= region.height();
    std::sort(motes.begin(), motes.end(), [&](const Mote* a, const Mote* b) {
      return mote_before(a, b, h);
    });
    double total_area = 0.0;
    for (const Mote* m : motes) total_area += m->area();
    size_t k = 0;
    double acc = 0.0;
    while (k < motes.size() && acc + motes[k]->area() <= total_area / 2.0)
      acc += motes[k++]->area();
    k = std::clamp<size_t>(k, 1, motes.size() - 1);
    const double area1 = acc;
    const CapacityProfile profile(grid_, region, h, opts_.gamma);
    const double region_cap = profile.total();
    double cut;
    if (region_cap > 1e-12 && total_area > 0.0) {
      cut = profile.invert(region_cap * (area1 / total_area));
    } else {
      cut = (lo_edge(region, h) + hi_edge(region, h)) / 2.0;
    }
    const double lo = lo_edge(region, h);
    const double hi = hi_edge(region, h);
    const double min_span = (hi - lo) * 1e-3;
    cut = std::clamp(cut, lo + min_span, hi - min_span);
    const double m_lo = coord(motes[k - 1], h);
    const double m_hi = coord(motes[k], h);
    const double knot = std::clamp((m_lo + m_hi) / 2.0, lo, hi);
    const double left_span = std::max(knot - lo, 1e-12);
    const double right_span = std::max(hi - knot, 1e-12);
    for (size_t i = 0; i < k; ++i) {
      const double t = (coord(motes[i], h) - lo) / left_span;
      set_coord(motes[i], h, lo + std::clamp(t, 0.0, 1.0) * (cut - lo));
    }
    for (size_t i = k; i < motes.size(); ++i) {
      const double t = (coord(motes[i], h) - knot) / right_span;
      set_coord(motes[i], h, cut + std::clamp(t, 0.0, 1.0) * (hi - cut));
    }
    std::vector<Mote*> left(motes.begin(),
                            motes.begin() + static_cast<long>(k));
    std::vector<Mote*> right(motes.begin() + static_cast<long>(k),
                             motes.end());
    recurse(slice(region, h, lo, cut), left, depth + 1);
    recurse(slice(region, h, cut, hi), right, depth + 1);
  }

  void terminal_spread(const Rect& region, std::vector<Mote*>& motes) const {
    const bool h = region.width() >= region.height();
    std::sort(motes.begin(), motes.end(), [&](const Mote* a, const Mote* b) {
      return mote_before(a, b, h);
    });
    double total_area = 0.0;
    for (const Mote* m : motes) total_area += m->area();
    const CapacityProfile profile(grid_, region, h, opts_.gamma);
    const double region_cap = profile.total();
    const double lo = lo_edge(region, h);
    const double hi = hi_edge(region, h);
    if (total_area <= 0.0 || region_cap <= 1e-12) {
      for (Mote* m : motes) {
        m->x = std::clamp(m->x, region.xl, region.xh);
        m->y = std::clamp(m->y, region.yl, region.yh);
      }
      return;
    }
    size_t hint = 0;
    double acc = 0.0;
    for (Mote* m : motes) {
      const double midpoint = acc + m->area() / 2.0;
      acc += m->area();
      const double target_cap = region_cap * (midpoint / total_area);
      const double pos = profile.invert(target_cap, &hint);
      set_coord(m, h, std::clamp(pos, lo, hi));
      if (h)
        m->y = std::clamp(m->y, region.yl, region.yh);
      else
        m->x = std::clamp(m->x, region.xl, region.xh);
    }
  }

  const DensityGrid& grid_;
  SpreaderOptions opts_;
};

/// Restores the process-wide thread count on scope exit.
struct ThreadCountGuard {
  size_t prev = global_threads();
  ~ThreadCountGuard() { set_global_threads(prev); }
};

/// 100x100 core with a fixed block at [60, 80] x [10, 50], so capacity
/// profiles have a zero plateau.
Netlist blocked_core() {
  Netlist nl;
  Cell blk;
  blk.width = 20;
  blk.height = 40;
  blk.x = 60;
  blk.y = 10;
  blk.kind = CellKind::Fixed;
  nl.add_cell(blk, "blk");
  Cell d;
  d.width = 1;
  d.height = 1;
  nl.add_cell(d, "d");
  nl.set_core({0, 0, 100, 100});
  nl.finalize();
  return nl;
}

/// Spreads `motes` over `regions` (mote k belongs to region owner[k]) with
/// the level-synchronous spreader at 1, 2 and 8 threads and with the
/// recursive oracle region by region, and requires identical bits.
void expect_matches_oracle(const std::vector<Mote>& motes,
                           const std::vector<size_t>& owner,
                           const std::vector<Rect>& regions,
                           const SpreaderOptions& opts) {
  const Netlist nl = blocked_core();
  DensityGrid grid(nl, 16, 16);
  std::vector<Rect> rects;
  for (const Mote& m : motes) rects.push_back(m.bounds());
  grid.build_from_rects(rects);

  std::vector<Mote> expected = motes;
  {
    const ReferenceSpreader ref(grid, opts);
    for (size_t r = 0; r < regions.size(); ++r) {
      std::vector<Mote*> list;
      for (size_t k = 0; k < expected.size(); ++k)
        if (owner[k] == r) list.push_back(&expected[k]);
      ref.spread(regions[r], list);
    }
  }

  const ThreadCountGuard guard;
  for (const size_t threads : {1, 2, 8}) {
    set_global_threads(threads);
    std::vector<Mote> got = motes;
    std::vector<size_t> offsets(regions.size() + 1, 0);
    std::vector<Mote*> ptrs;
    for (size_t r = 0; r < regions.size(); ++r) {
      for (size_t k = 0; k < got.size(); ++k)
        if (owner[k] == r) ptrs.push_back(&got[k]);
      offsets[r + 1] = ptrs.size();
    }
    Spreader(grid, opts).spread(regions, offsets, ptrs);
    // One region: the one-region call must match as well.
    std::vector<Mote> one = motes;
    if (regions.size() == 1) {
      std::vector<Mote*> one_ptrs;
      for (Mote& m : one) one_ptrs.push_back(&m);
      Spreader(grid, opts).spread(regions[0], one_ptrs);
    }
    for (size_t k = 0; k < got.size(); ++k) {
      ASSERT_EQ(testing::bits(got[k].x), testing::bits(expected[k].x))
          << threads << " threads, mote " << k;
      ASSERT_EQ(testing::bits(got[k].y), testing::bits(expected[k].y))
          << threads << " threads, mote " << k;
      if (regions.size() == 1) {
        ASSERT_EQ(testing::bits(one[k].x), testing::bits(expected[k].x))
            << threads << " threads, one-region call, mote " << k;
        ASSERT_EQ(testing::bits(one[k].y), testing::bits(expected[k].y))
            << threads << " threads, one-region call, mote " << k;
      }
    }
  }
}

TEST(SpreaderOracle, SeveralRegions) {
  // Four regions, one of them empty of motes and one a degenerate
  // rectangle, each holding a pile large enough to recurse several levels.
  const std::vector<Rect> regions = {{0, 0, 50, 50},
                                     {50, 0, 100, 60},
                                     {0, 50, 50, 100},
                                     {70, 70, 70, 90},
                                     {50, 60, 100, 100}};
  std::vector<Mote> motes;
  std::vector<size_t> owner;
  const std::array<Point, 5> centers = {
      Point{20, 20}, Point{70, 30}, Point{25, 75}, Point{70, 80},
      Point{80, 80}};
  const std::array<size_t, 5> counts = {900, 700, 0, 5, 400};
  for (size_t r = 0; r < regions.size(); ++r) {
    std::vector<Mote> pile = cluster_motes(counts[r], centers[r].x,
                                           centers[r].y, 4.0, 60 + r, 1.5);
    for (size_t i = 0; i < pile.size(); ++i) {
      pile[i].owner = static_cast<CellId>(motes.size());
      motes.push_back(pile[i]);
      owner.push_back(r);
    }
  }
  expect_matches_oracle(motes, owner, regions, SpreaderOptions{});
}

TEST(SpreaderOracle, CoincidentMotes) {
  // Half the motes sit on one point with distinct owners, the rest on a
  // second point sharing a few owners: the order is decided by the owner
  // and transverse tie-breaks alone.
  std::vector<Mote> motes = cluster_motes(600, 40, 40, 0.0, 70, 2.0);
  Rng rng(71);
  for (size_t i = 0; i < motes.size(); ++i) {
    if (i < 300) {
      motes[i].owner = static_cast<CellId>(599 - i);
    } else {
      motes[i].x = 42.0;
      motes[i].y = 40.0 + static_cast<double>(i % 3);
      motes[i].owner = static_cast<CellId>(rng.uniform_index(5));
      motes[i].width = 1.0 + static_cast<double>(i % 4);
    }
  }
  expect_matches_oracle(motes, std::vector<size_t>(motes.size(), 0),
                        {{0, 0, 100, 100}}, SpreaderOptions{});
}

TEST(SpreaderOracle, MacroShredsSharingAnOwner) {
  // Two macros shredded into 12x12 lattices (one owner each, some shreds
  // stacked on the same point) among standard cells.
  std::vector<Mote> motes = cluster_motes(500, 50, 50, 10.0, 72, 1.0);
  for (size_t i = 0; i < motes.size(); ++i)
    motes[i].owner = static_cast<CellId>(10 + i);
  for (const CellId macro : {CellId{3}, CellId{7}}) {
    const double ox = macro == 3 ? 40.0 : 55.0;
    for (size_t a = 0; a < 12; ++a) {
      for (size_t b = 0; b < 12; ++b) {
        Mote m;
        m.x = ox + static_cast<double>(a % 6);
        m.y = 45.0 + static_cast<double>(b % 6);
        m.width = 2.0;
        m.height = 2.0;
        m.owner = macro;
        motes.push_back(m);
      }
    }
  }
  expect_matches_oracle(motes, std::vector<size_t>(motes.size(), 0),
                        {{0, 0, 100, 100}}, SpreaderOptions{});
}

TEST(SpreaderOracle, NodeHitsMaxDepth) {
  // max_depth stops the recursion long before terminal_motes would: every
  // depth-3 node runs the terminal sweep on a few hundred motes.
  std::vector<Mote> motes = cluster_motes(2000, 30, 60, 8.0, 73, 1.0);
  for (size_t i = 0; i < motes.size(); ++i)
    motes[i].owner = static_cast<CellId>(i);
  SpreaderOptions opts;
  opts.terminal_motes = 1;
  opts.max_depth = 3;
  expect_matches_oracle(motes, std::vector<size_t>(motes.size(), 0),
                        {{0, 0, 100, 100}}, opts);
  opts.max_depth = 48;  // terminal_motes = 1: recurse down to single motes
  expect_matches_oracle(motes, std::vector<size_t>(motes.size(), 0),
                        {{0, 0, 100, 100}}, opts);
}

}  // namespace
}  // namespace complx
