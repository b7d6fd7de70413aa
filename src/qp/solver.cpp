#include "qp/solver.h"

#include <algorithm>

#include "util/parallel.h"
#include "util/timer.h"

namespace complx {

namespace {
void clamp_axis(const Netlist& nl, Vec& coords, Axis axis) {
  const Rect& core = nl.core();
  for (CellId id : nl.movable_cells()) {
    const Cell& c = nl.cell(id);
    if (axis == Axis::X) {
      const double half = c.width / 2.0;
      coords[id] = std::clamp(coords[id], core.xl + half,
                              std::max(core.xl + half, core.xh - half));
    } else {
      const double half = c.height / 2.0;
      coords[id] = std::clamp(coords[id], core.yl + half,
                              std::max(core.yl + half, core.yh - half));
    }
  }
}
}  // namespace

QpIterationResult solve_qp_iteration(const Netlist& nl, const VarMap& vars,
                                     Placement& p, const AnchorSet* anchors,
                                     const QpOptions& opts, QpWorkspace* ws) {
  QpWorkspace local;
  QpWorkspace& w = ws ? *ws : local;

  // Both axes linearize at `p` itself: every read of the linearization
  // point happens during assembly, which completes before the solve
  // rewrites `p`.
  const Placement& point = p;

  Timer assembly_timer;
  if (w.x.builder) {
    w.x.builder->reset(point);
    w.y.builder->reset(point);
  } else {
    w.x.builder.emplace(nl, vars, Axis::X, point);
    w.y.builder.emplace(nl, vars, Axis::Y, point);
  }

  // The two axis systems are independent given the linearization point, so
  // each axis's assembly (net model + anchor pseudonets into spring
  // records, then the serial CSR build) runs as one concurrent task. Only
  // nets with a movable pin are modeled.
  auto assemble = [&](QpWorkspace::AxisState& st, Axis axis) {
    SystemBuilder& builder = *st.builder;
    switch (opts.model) {
      case NetModel::B2B:
        build_b2b(nl, point, axis, opts.b2b, vars.active_nets, st.springs);
        builder.add_pin_springs(st.springs);
        break;
      case NetModel::Clique:
        build_clique(nl, point, axis, opts.b2b, vars.active_nets, st.springs);
        builder.add_pin_springs(st.springs);
        break;
      case NetModel::Star:
        build_star(nl, point, axis, opts.b2b, vars.active_nets, st.stars);
        builder.add_star_springs(st.stars);
        break;
    }
    if (anchors) {
      const Vec& tgt = axis == Axis::X ? anchors->target_x : anchors->target_y;
      const Vec& wgt = axis == Axis::X ? anchors->weight_x : anchors->weight_y;
      for (CellId id : nl.movable_cells())
        builder.add_anchor(id, tgt[id], wgt[id]);
    }
    builder.assemble(st.solve);
  };
  parallel_invoke([&] { assemble(w.x, Axis::X); },
                  [&] { assemble(w.y, Axis::Y); });
  w.stats.assembly_s += assembly_timer.seconds();

  // The axes solve one after the other, each PCG with the whole pool. The x
  // solve and clamp write only p.x, which the y solve does not read.
  QpIterationResult result;
  for (Axis axis : {Axis::X, Axis::Y}) {
    QpWorkspace::AxisState& st = axis == Axis::X ? w.x : w.y;
    Timer solve_timer;
    const CgResult cg = st.builder->solve(p, opts.cg, st.solve);
    w.stats.solve_s += solve_timer.seconds();
    if (opts.clamp_to_core)
      clamp_axis(nl, axis == Axis::X ? p.x : p.y, axis);
    (axis == Axis::X ? result.cg_x : result.cg_y) = cg;
  }
  ++w.stats.iterations;
  return result;
}

}  // namespace complx
