// Bound2Bound net decomposition (Spindler, Schlichtmann, Johannes —
// Kraftwerk2), the linearized-quadratic interconnect model used by SimPL and
// by ComPLx's default Φ.
//
// For each net and each axis, the pins at the net's min and max coordinate
// ("bound" pins) are connected to each other and to every inner pin. With
// the weight  w_e · 2 / ((P−1)·|pos_i − pos_j|)  the quadratic form equals
// the net's HPWL at the linearization point, so repeated relinearization
// makes quadratic optimization track the piecewise-linear HPWL objective.
#pragma once

#include <vector>

#include "netlist/netlist.h"

namespace complx {

/// One linearized spring between two pins of the same net.
struct PinSpring {
  PinId p = 0;
  PinId q = 0;
  double weight = 0.0;
};

enum class Axis { X, Y };

struct B2bOptions {
  /// Lower clamp on pin separation in the weight denominator. The paper
  /// (footnote 6) anchors ε at module dimensions; callers pass something
  /// like 1.5 × row height. Must be > 0 for strict convexity.
  double min_separation = 1.0;
  /// Nets with more pins than this are skipped (ISPD practice: clock/reset
  /// nets with thousands of pins destabilize the model and add little).
  uint32_t max_degree = 3000;
};

/// Builds the Bound2Bound spring list of every net for one axis at
/// linearization point `p`. Degenerate nets (degree < 2) produce nothing.
std::vector<PinSpring> build_b2b(const Netlist& nl, const Placement& p,
                                 Axis axis, const B2bOptions& opts);

/// Same model restricted to `nets` (in list order): clears and refills
/// `out`, whose capacity survives, so the QP workspace builds each
/// iteration's spring list allocation-free once warm. The QP path passes
/// VarMap::active_nets; the list of all nets gives the sequence above.
void build_b2b(const Netlist& nl, const Placement& p, Axis axis,
               const B2bOptions& opts, const std::vector<NetId>& nets,
               std::vector<PinSpring>& out);

}  // namespace complx
