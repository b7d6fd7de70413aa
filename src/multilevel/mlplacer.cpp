#include "multilevel/mlplacer.h"

#include <algorithm>
#include <utility>

#include "util/timer.h"

namespace complx {

MultilevelPlacer::MultilevelPlacer(const Netlist& nl,
                                   const MultilevelConfig& cfg)
    : nl_(nl), cfg_(cfg) {}

MultilevelResult MultilevelPlacer::place() {
  Timer timer;
  MultilevelResult result;

  // ---- V-cycle down: build the hierarchy ----------------------------------
  // levels[0] is the original netlist; each entry owns its coarse netlist.
  std::vector<CoarseLevel> levels;
  const Netlist* current = &nl_;
  result.level_sizes.push_back(nl_.num_cells());
  for (int l = 0; l < cfg_.max_levels; ++l) {
    if (current->num_movable() <= cfg_.coarsest_cells) break;
    ClusterOptions copts = cfg_.clustering;
    copts.seed += static_cast<uint64_t>(l);
    CoarseLevel next = coarsen(*current, copts);
    // Stop if matching found nothing to merge (ratio ~1).
    if (next.netlist.num_cells() >= current->num_cells() * 95 / 100) break;
    result.level_sizes.push_back(next.netlist.num_cells());
    levels.push_back(std::move(next));
    current = &levels.back().netlist;
  }
  result.levels = static_cast<int>(levels.size());

  // Records a level's outcome; result.fine holds the latest level's run.
  auto finish_level = [&](const Netlist& level, PlaceResult r) {
    result.runs.push_back({level.num_cells(), r.iterations, r.stop, r.failed,
                           r.failure});
    result.fine = std::move(r);
  };

  // ---- coarsest placement: full ComPLx run --------------------------------
  finish_level(*current, ComplxPlacer(*current, cfg_.coarse).place());

  // ---- V-cycle up: interpolate + short warm refinement ---------------------
  for (size_t l = levels.size(); l-- > 0;) {
    const Netlist& fine = l == 0 ? nl_ : levels[l - 1].netlist;
    Placement seeded =
        interpolate(fine, levels[l].fine_to_coarse, result.fine.anchors);

    // Warm-started refinement: the interpolated placement is already
    // globally spread; a short run re-legalizes density at this level's
    // granularity and recovers detail.
    ComplxConfig refine_cfg = cfg_.coarse;
    refine_cfg.max_iterations = cfg_.refine_iterations;
    refine_cfg.min_iterations = std::min(4, cfg_.refine_iterations);
    finish_level(fine, ComplxPlacer(fine, refine_cfg).place_from(seeded));
  }

  result.anchors = result.fine.anchors;
  result.runtime_s = timer.seconds();
  return result;
}

}  // namespace complx
