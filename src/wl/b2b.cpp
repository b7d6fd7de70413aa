#include "wl/b2b.h"

#include <algorithm>
#include <cmath>

#include "util/parallel.h"

namespace complx {

namespace {

/// Emits the B2B springs of list positions [begin, end) into `springs` in
/// list order; a null `nets` lists every net (position k is net k).
/// Works on the netlist's raw-array view: per axis, the loop touches the
/// position vector, the pin→cell array and ONE pin-offset array — the SoA
/// payoff on multi-million-pin designs.
///
/// The bound coordinates are carried in registers (lo_c/hi_c) instead of
/// being re-derived from the pin arrays at every comparison, so the scan
/// performs one position load per pin and the emit loop one per spring pair
/// (the AoS-era code did three per pin and two extra per spring). A cached
/// bound equals coord(bound) exactly — same pure arithmetic on unchanged
/// memory — so every comparison, separation and weight is bitwise identical
/// to the re-deriving loop.
void build_b2b_range(const NetlistView& v, const double* pos,
                     const double* off, const B2bOptions& opts,
                     const NetId* nets, size_t begin, size_t end,
                     std::vector<PinSpring>& springs) {
  for (size_t i = begin; i < end; ++i) {
    const Net& net = v.nets[nets ? nets[i] : i];
    const uint32_t deg = net.num_pins;
    if (deg < 2 || deg > opts.max_degree) continue;

    // Locate the two bound pins on this axis.
    auto coord = [&](uint32_t k) { return pos[v.pin_cell[k]] + off[k]; };
    uint32_t lo = net.first_pin, hi = net.first_pin;
    double lo_c = coord(net.first_pin), hi_c = lo_c;
    for (uint32_t k = net.first_pin + 1; k < net.first_pin + deg; ++k) {
      const double c = coord(k);
      if (c < lo_c) {
        lo = k;
        lo_c = c;
      }
      if (c > hi_c) {
        hi = k;
        hi_c = c;
      }
    }
    if (lo == hi) {
      hi = lo == net.first_pin ? lo + 1 : net.first_pin;
      hi_c = coord(hi);
    }

    // Weight w_e/((P−1)·sep): in the Σ w (Δ)² convention used throughout
    // this codebase (no ½ factor), the quadratic form then equals the
    // weighted HPWL exactly at the linearization point.
    const double scale = net.weight / static_cast<double>(deg - 1);
    auto emit = [&](uint32_t a, uint32_t b, double ca, double cb) {
      const double sep = std::max(std::abs(ca - cb), opts.min_separation);
      springs.push_back({a, b, scale / sep});
    };

    emit(lo, hi, lo_c, hi_c);
    for (uint32_t k = net.first_pin; k < net.first_pin + deg; ++k) {
      if (k == lo || k == hi) continue;
      const double c = coord(k);
      emit(k, lo, c, lo_c);
      emit(k, hi, c, hi_c);
    }
  }
}

/// Shared driver of both overloads: `count` list positions, `nets` null for
/// all nets.
void build_b2b_list(const Netlist& nl, const Placement& p, Axis axis,
                    const B2bOptions& opts, const NetId* nets, size_t count,
                    std::vector<PinSpring>& springs) {
  const NetlistView v = nl.view();
  const double* pos = axis == Axis::X ? p.x.data() : p.y.data();
  const double* off = axis == Axis::X ? v.pin_dx : v.pin_dy;
  const Partition part = partition_range(count, 512, 64);

  springs.clear();
  if (part.parts <= 1) {
    springs.reserve(2 * v.num_pins);
    build_b2b_range(v, pos, off, opts, nets, 0, count, springs);
    return;
  }

  // Per-block spring buffers built in parallel, concatenated in block
  // order: the output is the exact spring sequence of the serial loop, so
  // everything downstream (spring records, CSR, CG) is bitwise unchanged.
  std::vector<std::vector<PinSpring>> blocks(part.parts);
  parallel_for(
      count,
      [&](size_t begin, size_t end) {
        std::vector<PinSpring>& out = blocks[begin / part.chunk];
        out.reserve(3 * (end - begin));
        build_b2b_range(v, pos, off, opts, nets, begin, end, out);
      },
      part.chunk);

  size_t total = 0;
  for (const auto& blk : blocks) total += blk.size();
  springs.reserve(total);
  for (const auto& blk : blocks)
    springs.insert(springs.end(), blk.begin(), blk.end());
}

}  // namespace

std::vector<PinSpring> build_b2b(const Netlist& nl, const Placement& p,
                                 Axis axis, const B2bOptions& opts) {
  std::vector<PinSpring> springs;
  build_b2b_list(nl, p, axis, opts, nullptr, nl.num_nets(), springs);
  return springs;
}

void build_b2b(const Netlist& nl, const Placement& p, Axis axis,
               const B2bOptions& opts, const std::vector<NetId>& nets,
               std::vector<PinSpring>& springs) {
  build_b2b_list(nl, p, axis, opts, nets.data(), nets.size(), springs);
}

}  // namespace complx
