// One linearized quadratic-placement iteration: relinearize the chosen net
// model at the current iterate, add anchor pseudonets, solve both axes.
// This is the primal step of the ComPLx Lagrangian (Formula 10) when Φ is
// the linearized-quadratic model.
#pragma once

#include <optional>

#include "qp/system_builder.h"

namespace complx {

enum class NetModel { B2B, Clique, Star };

/// Per-cell anchor pseudonets representing the linearized λ·L1 penalty term.
/// Entries with weight 0 add nothing. Sized num_cells (fixed entries unused).
struct AnchorSet {
  Vec target_x, target_y;
  Vec weight_x, weight_y;

  explicit AnchorSet(size_t num_cells)
      : target_x(num_cells, 0.0),
        target_y(num_cells, 0.0),
        weight_x(num_cells, 0.0),
        weight_y(num_cells, 0.0) {}
};

struct QpOptions {
  NetModel model = NetModel::B2B;
  B2bOptions b2b;
  /// Placement QPs stop at ||r|| <= 1e-4·||b||, not CgOptions' generic
  /// 1e-6. The primal step minimises L° (Formula 10) against anchors that
  /// P_C rebuilds at bin resolution every iteration, so accuracy far below
  /// a bin's worth of displacement cannot change the next step; at 50k
  /// cells 1e-4 nearly halves the CG iterations per solve. 1e-3 is too loose:
  /// warm-started ECO windows already meet it before the first CG step
  /// and stop moving (docs/THEORY.md §"Primal-step accuracy").
  CgOptions cg{.rel_tolerance = 1e-4};
  /// Clamp solved coordinates into the core area (cells cannot leave the
  /// placement region).
  bool clamp_to_core = true;
};

struct QpIterationResult {
  CgResult cg_x, cg_y;

  bool breakdown() const { return cg_x.breakdown || cg_y.breakdown; }
  bool fully_converged() const { return cg_x.converged && cg_y.converged; }
};

/// Instrumentation of the primal step, accumulated across iterations.
struct QpWorkspaceStats {
  size_t iterations = 0;    ///< solve_qp_iteration calls
  double assembly_s = 0.0;  ///< net model + stamping + CSR assembly
  double solve_s = 0.0;     ///< PCG wall time
};

/// Iteration-persistent state for solve_qp_iteration.
///
/// Lifecycle: the placer owns one QpWorkspace for the whole run and passes
/// it to every primal step. First use allocates and binds the per-axis
/// builders; subsequent iterations reuse every buffer (spring records, CSR
/// arrays, PCG scratch, spring lists).
/// Only capacity carries over: every value is rebuilt each call, so a
/// reused workspace gives the same bits as a fresh one.
struct QpWorkspace {
  struct AxisState {
    std::optional<SystemBuilder> builder;  ///< bound on first iteration
    SolveWorkspace solve;
    std::vector<PinSpring> springs;  ///< B2B / clique buffer
    std::vector<StarSpring> stars;   ///< star-model buffer
  };

  AxisState x, y;
  QpWorkspaceStats stats;
};

/// Solves min Φ_Q(x, y) (+ anchor penalties) linearized at `p`, writing the
/// minimizer back into `p`. With `ws` non-null, all per-iteration buffers
/// come from the workspace and `ws->stats` is updated; a null `ws` runs the
/// same path on a function-local workspace.
QpIterationResult solve_qp_iteration(const Netlist& nl, const VarMap& vars,
                                     Placement& p, const AnchorSet* anchors,
                                     const QpOptions& opts,
                                     QpWorkspace* ws = nullptr);

}  // namespace complx
