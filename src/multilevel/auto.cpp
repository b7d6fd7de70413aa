#include "multilevel/auto.h"

#include <utility>

#include "util/timer.h"

namespace complx {

AutoPlaceResult place_auto(const Netlist& nl, const ComplxConfig& cfg,
                           const AutoPlaceOptions& opts) {
  Timer timer;
  AutoPlaceResult result;
  if (nl.num_movable() < opts.multilevel_threshold) {
    ComplxPlacer placer(nl, cfg);
    result.place = placer.place();
    result.anchors = result.place.anchors;
  } else {
    MultilevelConfig ml = opts.multilevel;
    ml.coarse = cfg;  // one tuning knob for both paths
    MultilevelPlacer placer(nl, ml);
    MultilevelResult r = placer.place();
    result.anchors = std::move(r.anchors);
    result.place = std::move(r.fine);
    result.used_multilevel = true;
    result.levels = r.levels;
    result.level_sizes = std::move(r.level_sizes);
    result.level_runs = std::move(r.runs);
  }
  result.runtime_s = timer.seconds();
  return result;
}

}  // namespace complx
