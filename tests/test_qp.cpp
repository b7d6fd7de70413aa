#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "helpers.h"
#include "qp/solver.h"
#include "wl/hpwl.h"

namespace complx {
namespace {

uint64_t dbits(double v) { return std::bit_cast<uint64_t>(v); }

void expect_bitwise_equal(const Netlist& nl, const Placement& a,
                          const Placement& b) {
  for (CellId id : nl.movable_cells()) {
    ASSERT_EQ(dbits(a.x[id]), dbits(b.x[id])) << "x of cell " << id;
    ASSERT_EQ(dbits(a.y[id]), dbits(b.y[id])) << "y of cell " << id;
  }
}

TEST(VarMap, MapsOnlyMovables) {
  Netlist nl = complx::testing::two_cell_chain();
  const VarMap vars(nl);
  EXPECT_EQ(vars.num_vars(), 2u);
  const CellId pad0 = nl.find_cell("pad0");
  const CellId c0 = nl.find_cell("c0");
  EXPECT_EQ(vars.var_of_cell[pad0], VarMap::kFixed);
  EXPECT_NE(vars.var_of_cell[c0], VarMap::kFixed);
  EXPECT_EQ(vars.cell_of_var[vars.var_of_cell[c0]], c0);
}

TEST(SystemBuilder, ChainOptimumIsEvenSpacing) {
  // pad0(0) -- c0 -- c1 -- pad1(30): quadratic optimum c0=10, c1=20.
  Netlist nl = complx::testing::two_cell_chain();
  const VarMap vars(nl);
  Placement p = nl.snapshot();
  const CellId c0 = nl.find_cell("c0"), c1 = nl.find_cell("c1");
  p.x[c0] = 14.0;
  p.x[c1] = 16.0;

  SystemBuilder builder(nl, vars, Axis::X, p);
  // Unit springs (no B2B linearization, pure quadratic chain).
  std::vector<PinSpring> springs{{0, 1, 1.0}, {2, 3, 1.0}, {4, 5, 1.0}};
  builder.add_pin_springs(springs);
  const CgResult res = builder.solve(p, {.rel_tolerance = 1e-12});
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(p.x[c0], 10.0, 1e-8);
  EXPECT_NEAR(p.x[c1], 20.0, 1e-8);
}

TEST(SystemBuilder, PinOffsetsShiftTheOptimum) {
  // One movable cell tied to a fixed pad at x=10 through a pin with offset
  // +2: optimum has pin at pad, so center = 8.
  Netlist nl;
  Cell pad;
  pad.width = pad.height = 0;
  pad.x = 10;
  pad.y = 0;
  pad.kind = CellKind::Fixed;
  const CellId ip = nl.add_cell(pad, "pad");
  Cell c;
  c.width = 2;
  c.height = 2;
  const CellId ic = nl.add_cell(c, "c");
  nl.add_net("n", 1.0, {{ic, 2.0, 0.0}, {ip, 0.0, 0.0}});
  nl.set_core({0, 0, 20, 20});
  nl.finalize();

  const VarMap vars(nl);
  Placement p = nl.snapshot();
  SystemBuilder builder(nl, vars, Axis::X, p);
  builder.add_pin_springs({{0, 1, 1.0}});
  builder.solve(p, {.rel_tolerance = 1e-12});
  EXPECT_NEAR(p.x[ic], 8.0, 1e-8);
}

TEST(SystemBuilder, AnchorPullsTowardTarget) {
  Netlist nl = complx::testing::two_cell_chain();
  const VarMap vars(nl);
  Placement p = nl.snapshot();
  const CellId c0 = nl.find_cell("c0");

  SystemBuilder builder(nl, vars, Axis::X, p);
  builder.add_pin_springs({{0, 1, 1.0}, {2, 3, 1.0}, {4, 5, 1.0}});
  builder.add_anchor(c0, 5.0, 100.0);  // heavy anchor at x=5
  builder.solve(p, {.rel_tolerance = 1e-12});
  EXPECT_NEAR(p.x[c0], 5.0, 0.2);
}

TEST(SystemBuilder, AnchorOnFixedCellIgnored) {
  Netlist nl = complx::testing::two_cell_chain();
  const VarMap vars(nl);
  Placement p = nl.snapshot();
  SystemBuilder builder(nl, vars, Axis::X, p);
  builder.add_anchor(nl.find_cell("pad0"), 99.0, 100.0);
  EXPECT_DOUBLE_EQ(builder.rhs()[0], 0.0);
  EXPECT_DOUBLE_EQ(builder.rhs()[1], 0.0);
}

TEST(SystemBuilder, MatrixIsSymmetricPositive) {
  Netlist nl = complx::testing::small_circuit(51, 300);
  const VarMap vars(nl);
  const Placement p = nl.snapshot();
  SystemBuilder builder(nl, vars, Axis::X, p);
  builder.add_pin_springs(build_b2b(nl, p, Axis::X, {}));
  const CsrMatrix A = builder.build_matrix();
  EXPECT_LT(A.symmetry_error(), 1e-12);
  const Vec d = A.diagonal();
  for (double v : d) EXPECT_GE(v, 0.0);
}

TEST(SolveQpIteration, ReducesHpwlFromScatter) {
  Netlist nl = complx::testing::small_circuit(52, 800);
  const VarMap vars(nl);
  Placement p = nl.snapshot();  // generator scatter
  const double before = hpwl(nl, p);
  QpOptions opts;
  opts.b2b.min_separation = 1.5 * nl.row_height();
  for (int i = 0; i < 3; ++i) solve_qp_iteration(nl, vars, p, nullptr, opts);
  const double after = hpwl(nl, p);
  EXPECT_LT(after, 0.6 * before);  // QP collapses scattered placement
}

TEST(SolveQpIteration, ClampsToCore) {
  Netlist nl = complx::testing::small_circuit(53, 300);
  const VarMap vars(nl);
  Placement p = nl.snapshot();
  QpOptions opts;
  solve_qp_iteration(nl, vars, p, nullptr, opts);
  for (CellId id : nl.movable_cells()) {
    const Cell& c = nl.cell(id);
    EXPECT_GE(p.x[id] - c.width / 2.0, nl.core().xl - 1e-9);
    EXPECT_LE(p.x[id] + c.width / 2.0, nl.core().xh + 1e-9);
    EXPECT_GE(p.y[id] - c.height / 2.0, nl.core().yl - 1e-9);
    EXPECT_LE(p.y[id] + c.height / 2.0, nl.core().yh + 1e-9);
  }
}

class NetModelSweep : public ::testing::TestWithParam<NetModel> {};

TEST_P(NetModelSweep, AllModelsReduceHpwl) {
  Netlist nl = complx::testing::small_circuit(54, 600);
  const VarMap vars(nl);
  Placement p = nl.snapshot();
  const double before = hpwl(nl, p);
  QpOptions opts;
  opts.model = GetParam();
  opts.b2b.min_separation = 1.5 * nl.row_height();
  for (int i = 0; i < 3; ++i) solve_qp_iteration(nl, vars, p, nullptr, opts);
  EXPECT_LT(hpwl(nl, p), before);
}

INSTANTIATE_TEST_SUITE_P(Models, NetModelSweep,
                         ::testing::Values(NetModel::B2B, NetModel::Clique,
                                           NetModel::Star));

TEST(SolveQpIteration, AnchorsHoldPlacementInPlace) {
  // With huge anchor weights at the current positions, the solve must not
  // move anything appreciably.
  Netlist nl = complx::testing::small_circuit(55, 400);
  const VarMap vars(nl);
  Placement p = nl.snapshot();
  AnchorSet anchors(nl.num_cells());
  for (CellId id : nl.movable_cells()) {
    anchors.target_x[id] = p.x[id];
    anchors.target_y[id] = p.y[id];
    anchors.weight_x[id] = 1e6;
    anchors.weight_y[id] = 1e6;
  }
  const Placement before = p;
  QpOptions opts;
  solve_qp_iteration(nl, vars, p, &anchors, opts);
  double max_move = 0.0;
  for (CellId id : nl.movable_cells())
    max_move = std::max(max_move, std::abs(p.x[id] - before.x[id]) +
                                      std::abs(p.y[id] - before.y[id]));
  EXPECT_LT(max_move, 0.5);
}

// ------------------------------------------------------------ workspace ----

TEST(QpWorkspace, MultiIterationTrajectoryMatchesFreshBitwise) {
  // Let the iterate evolve naturally for several iterations, with anchor
  // weights growing as λ does: a workspace reused across calls must track
  // a fresh one bit for bit the whole way.
  Netlist nl = complx::testing::small_circuit(60, 500);
  const VarMap vars(nl);
  QpOptions opts;
  opts.b2b.min_separation = 1.5 * nl.row_height();
  QpWorkspace ws;
  Placement reused = nl.snapshot();
  Placement fresh = reused;
  AnchorSet anchors(nl.num_cells());
  for (CellId id : nl.movable_cells()) {
    anchors.target_x[id] = reused.x[id];
    anchors.target_y[id] = reused.y[id];
  }
  for (int i = 0; i < 5; ++i) {
    for (CellId id : nl.movable_cells())
      anchors.weight_x[id] = anchors.weight_y[id] = 0.05 * i;
    solve_qp_iteration(nl, vars, reused, &anchors, opts, &ws);
    solve_qp_iteration(nl, vars, fresh, &anchors, opts, nullptr);
    expect_bitwise_equal(nl, reused, fresh);
  }
  EXPECT_EQ(ws.stats.iterations, 5u);
}

// ---------------------------------------------------------- active nets ----

TEST(VarMap, PadToPadNetIsNotActive) {
  Netlist nl;
  Cell pad;
  pad.width = pad.height = 0;
  pad.kind = CellKind::Fixed;
  const CellId p0 = nl.add_cell(pad, "p0");
  pad.x = 10;
  const CellId p1 = nl.add_cell(pad, "p1");
  Cell c;
  c.width = c.height = 2;
  const CellId c0 = nl.add_cell(c, "c0");
  nl.add_net("pads", 1.0, {{p0, 0, 0}, {p1, 0, 0}});
  nl.add_net("mixed", 1.0, {{p1, 0, 0}, {c0, 0, 0}});
  nl.add_net("pads_again", 1.0, {{p1, 0, 0}, {p0, 0, 0}});
  nl.add_net("inner", 1.0, {{c0, 0, 0}, {c0, 1, 0}, {p0, 0, 0}});
  nl.set_core({0, 0, 20, 20});
  nl.finalize();
  const VarMap vars(nl);
  EXPECT_EQ(vars.active_nets, (std::vector<NetId>{1, 3}));
}

/// Flips all but every tenth movable cell to Fixed, the way eco_replace
/// freezes the cells outside its window.
Netlist frozen_majority(uint64_t seed, size_t cells) {
  Netlist nl = complx::testing::small_circuit(seed, cells, 1);
  const std::vector<CellId> movable = nl.movable_cells();
  for (size_t k = 0; k < movable.size(); ++k)
    if (k % 10 != 0) nl.cell(movable[k]).kind = CellKind::Fixed;
  nl.refinalize();
  return nl;
}

void expect_systems_bitwise_equal(const SystemBuilder& a,
                                  const SystemBuilder& b) {
  const CsrMatrix ma = a.build_matrix(), mb = b.build_matrix();
  ASSERT_EQ(ma.row_ptr(), mb.row_ptr());
  ASSERT_EQ(ma.col(), mb.col());
  for (size_t k = 0; k < ma.val().size(); ++k)
    ASSERT_EQ(dbits(ma.val()[k]), dbits(mb.val()[k])) << "val[" << k << "]";
  ASSERT_EQ(a.rhs().size(), b.rhs().size());
  for (size_t v = 0; v < a.rhs().size(); ++v)
    ASSERT_EQ(dbits(a.rhs()[v]), dbits(b.rhs()[v])) << "rhs[" << v << "]";
}

class ActiveNetSweep : public ::testing::TestWithParam<NetModel> {};

TEST_P(ActiveNetSweep, FrozenMajoritySystemMatchesEveryNetStamp) {
  // Springs emitted for the active nets only must stamp exactly the system
  // that stamping every net of the design produces.
  const Netlist nl = frozen_majority(61, 1500);
  const VarMap vars(nl);
  ASSERT_LT(vars.num_vars() * 5, nl.num_cells());
  ASSERT_LT(vars.active_nets.size() * 2, nl.num_nets());
  const Placement p = nl.snapshot();
  B2bOptions opts;
  opts.min_separation = 1.5 * nl.row_height();
  for (const Axis axis : {Axis::X, Axis::Y}) {
    SystemBuilder active(nl, vars, axis, p);
    SystemBuilder every(nl, vars, axis, p);
    switch (GetParam()) {
      case NetModel::B2B: {
        std::vector<PinSpring> springs;
        build_b2b(nl, p, axis, opts, vars.active_nets, springs);
        active.add_pin_springs(springs);
        every.add_pin_springs(build_b2b(nl, p, axis, opts));
        break;
      }
      case NetModel::Clique: {
        std::vector<PinSpring> springs;
        build_clique(nl, p, axis, opts, vars.active_nets, springs);
        active.add_pin_springs(springs);
        every.add_pin_springs(build_clique(nl, p, axis, opts));
        break;
      }
      case NetModel::Star: {
        std::vector<StarSpring> stars;
        build_star(nl, p, axis, opts, vars.active_nets, stars);
        active.add_star_springs(stars);
        every.add_star_springs(build_star(nl, p, axis, opts));
        break;
      }
    }
    expect_systems_bitwise_equal(active, every);
  }
}

INSTANTIATE_TEST_SUITE_P(Models, ActiveNetSweep,
                         ::testing::Values(NetModel::B2B, NetModel::Clique,
                                           NetModel::Star));

}  // namespace
}  // namespace complx
