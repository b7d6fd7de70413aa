// Multilevel global placement (the mPL6-style scheme the paper benchmarks
// against): coarsen the netlist by heavy-edge matching, place the coarsest
// level with the full ComPLx machinery, then interpolate down and refine
// each finer level with a short warm-started ComPLx run.
//
// The attraction is runtime on very large instances: the expensive
// from-scratch convergence happens on a much smaller netlist, and the fine
// levels only polish. bench_multilevel measures the trade against flat
// ComPLx.
#pragma once

#include <string>
#include <vector>

#include "core/placer.h"
#include "multilevel/cluster.h"

namespace complx {

struct MultilevelConfig {
  int max_levels = 3;
  size_t coarsest_cells = 2500;  ///< stop coarsening below this
  ComplxConfig coarse;           ///< full run at the coarsest level
  /// Refinement run per finer level (warm-started; fewer iterations).
  int refine_iterations = 12;
  ClusterOptions clustering;
};

/// Outcome of one level's ComPLx run.
struct LevelRun {
  size_t cells = 0;  ///< cells in the level's netlist
  int iterations = 0;
  StopReason stop = StopReason::Converged;
  bool failed = false;  ///< recovery retries exhausted at this level
  std::string failure;  ///< the level's failure description (empty when ok)
};

struct MultilevelResult {
  Placement anchors;      ///< final fine-level anchors
  int levels = 0;         ///< coarsening levels actually used
  double runtime_s = 0.0;
  std::vector<size_t> level_sizes;  ///< cells per level, fine -> coarse
  /// One entry per ComPLx run, coarsest first; the last is the fine level.
  std::vector<LevelRun> runs;
  /// The fine level's full result (trace, solver stats, λ, stop reason).
  PlaceResult fine;
};

class MultilevelPlacer {
 public:
  MultilevelPlacer(const Netlist& nl, const MultilevelConfig& cfg);
  MultilevelResult place();

 private:
  const Netlist& nl_;
  MultilevelConfig cfg_;
};

}  // namespace complx
