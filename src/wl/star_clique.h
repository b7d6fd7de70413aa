// Star and clique net decompositions — the classical alternatives to
// Bound2Bound (paper, Section 2: "Multipin nets are decomposed into sets of
// edges using stars, cliques or the Bound2Bound model"). Used by the
// interconnect-model ablation bench and available through the public API.
#pragma once

#include <vector>

#include "wl/b2b.h"

namespace complx {

/// Clique: every pin pair of a net, weight w_e / (P−1) per edge, linearized
/// by the current pin separation like B2B (Sigl's GORDIAN-L linearization).
/// Nets above `max_degree` are decomposed as stars instead to avoid the
/// quadratic edge blow-up.
std::vector<PinSpring> build_clique(const Netlist& nl, const Placement& p,
                                    Axis axis, const B2bOptions& opts,
                                    uint32_t clique_max_degree = 16);

/// Restricted to `nets` (in list order); clears and refills `out`, whose
/// capacity survives. The QP path passes VarMap::active_nets.
void build_clique(const Netlist& nl, const Placement& p, Axis axis,
                  const B2bOptions& opts, const std::vector<NetId>& nets,
                  std::vector<PinSpring>& out,
                  uint32_t clique_max_degree = 16);

/// Star: one auxiliary node per net located at the net's pin centroid;
/// every pin connects to it. The auxiliary nodes are *not* solver variables
/// in this formulation — the star center is re-fixed at the centroid of the
/// previous iterate, which keeps the system size at |cells| and behaves like
/// the FastPlace hybrid model in practice.
struct StarSpring {
  PinId p = 0;
  double center = 0.0;  ///< fixed star-center coordinate on this axis
  double weight = 0.0;
};

std::vector<StarSpring> build_star(const Netlist& nl, const Placement& p,
                                   Axis axis, const B2bOptions& opts);

/// Restricted to `nets` (in list order); clears and refills `out`, whose
/// capacity survives. The QP path passes VarMap::active_nets.
void build_star(const Netlist& nl, const Placement& p, Axis axis,
                const B2bOptions& opts, const std::vector<NetId>& nets,
                std::vector<StarSpring>& out);

}  // namespace complx
