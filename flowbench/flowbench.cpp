// flowbench — the measured half of the end-to-end placement benchmark.
//
// run.py drives this binary, one process per step, so that peak RSS and
// CPU time belong to exactly one step:
//
//   flowbench setup --workload W --seed S --dir D [--reps R] [--cells N]
//       generates the workload's design R times and writes it as Bookshelf,
//       timing generate and write separately; the last copy stays in D
//       (D/design.aux).
//   flowbench op --workload W --seed S --dir D --out F.pl [--trace]
//                [--spans F.json] [--cells N] [--windows N] [--inject X]
//       runs one closed-loop operation of the workload on D and writes the
//       final placement to F.pl:
//         flow*: read -> place_auto -> legalize -> DP -> metrics -> write
//         eco*:  read the signed-off base -> N eco_replace windows ->
//                legalize -> DP -> metrics -> write
//       then runs the correctness checks. With --trace every call into a
//       library layer is recorded as a span (kept in memory, written to
//       --spans at exit), GP runs through ComplxPlacer::place with a
//       post-projection hook, and a replay of the final GP state times one
//       primal step and one projection.
//
// Each step prints one JSON object on stdout. The benchmark only calls the
// library's public entry points and reads counts the library already
// returns; all timing is taken here, around those calls.
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "bookshelf/reader.h"
#include "bookshelf/writer.h"
#include "core/eco.h"
#include "core/placer.h"
#include "density/metric.h"
#include "dp/detailed.h"
#include "gen/generator.h"
#include "gen/peko.h"
#include "legal/tetris.h"
#include "multilevel/auto.h"
#include "projection/lal.h"
#include "qp/solver.h"
#include "util/parallel.h"
#include "wl/hpwl.h"

using namespace complx;

namespace {

// ---- clocks ----------------------------------------------------------------

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Process high-water RSS (VmHWM) in MB.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

// ---- spans -----------------------------------------------------------------

/// In-memory span recorder. Disabled, open()/close() do nothing, so the
/// untraced operation runs exactly the same calls with no bookkeeping.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0, end = 0.0;
    int parent = -1;
  };

  explicit Tracer(bool on) : on_(on) {}

  int open(const char* name) {
    if (!on_) return -1;
    spans_.push_back({name, now_s(), 0.0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end = now_s();
    stack_.pop_back();
  }
  /// Records an already-measured interval under the innermost open span.
  void add(const char* name, double start, double end) {
    if (on_)
      spans_.push_back({name, start, end, stack_.empty() ? -1 : stack_.back()});
  }

  void write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) throw std::runtime_error("cannot write " + path);
    std::fprintf(f, "[");
    for (size_t i = 0; i < spans_.size(); ++i)
      std::fprintf(f, "%s\n{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                   "\"parent\":%d}",
                   i ? "," : "", spans_[i].name.c_str(), spans_[i].start,
                   spans_[i].end, spans_[i].parent);
    std::fprintf(f, "\n]\n");
    std::fclose(f);
  }

 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class Scope {
 public:
  Scope(Tracer& t, const char* name) : t_(t), id_(t.open(name)) {}
  ~Scope() { t_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

// ---- JSON output -----------------------------------------------------------

class Json {
 public:
  Json& num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(k, std::isfinite(v) ? buf : "null");
  }
  Json& boolean(const std::string& k, bool v) {
    return raw(k, v ? "true" : "false");
  }
  Json& raw(const std::string& k, const std::string& v) {
    body_ += (body_.empty() ? "" : ",") + ("\"" + k + "\":") + v;
    return *this;
  }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---- options ---------------------------------------------------------------

struct Options {
  std::string mode, workload, dir, out, spans, inject;
  uint64_t seed = 3;
  size_t cells = 0;    ///< 0 = the workload's size
  size_t windows = 32;
  int reps = 3;
  bool trace = false;
};

bool is_eco(const std::string& workload) {
  return workload.rfind("eco_peko", 0) == 0;
}

/// A workload name spells its design size and thread count:
/// flow<N>k_t<T> (generate_circuit) or eco_peko<N>k_t<T> (generate_peko).
struct Workload {
  size_t cells = 0;
  size_t threads = 0;
};

Workload workload_of(const std::string& name) {
  const std::string prefix = is_eco(name) ? "eco_peko" : "flow";
  Workload w;
  int used = 0;
  if (name.rfind(prefix, 0) != 0 ||
      std::sscanf(name.c_str() + prefix.size(), "%zuk_t%zu%n", &w.cells,
                  &w.threads, &used) != 2 ||
      prefix.size() + static_cast<size_t>(used) != name.size() ||
      w.cells == 0 || w.threads == 0)
    throw std::invalid_argument("unknown workload: " + name);
  w.cells *= 1000;
  return w;
}

Options parse(int argc, char** argv) {
  Options o;
  if (argc < 2) throw std::invalid_argument("missing mode (setup|op)");
  o.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + ": missing value");
      return argv[++i];
    };
    if (a == "--workload") o.workload = next();
    else if (a == "--seed") o.seed = std::stoull(next());
    else if (a == "--dir") o.dir = next();
    else if (a == "--out") o.out = next();
    else if (a == "--spans") o.spans = next();
    else if (a == "--inject") o.inject = next();
    else if (a == "--cells") o.cells = std::stoul(next());
    else if (a == "--windows") o.windows = std::stoul(next());
    else if (a == "--reps") o.reps = std::stoi(next());
    else if (a == "--trace") o.trace = true;
    else throw std::invalid_argument("unknown option " + a);
  }
  if (o.workload.empty() || o.dir.empty())
    throw std::invalid_argument("--workload and --dir are required");
  if (o.cells == 0) o.cells = workload_of(o.workload).cells;
  return o;
}

// ---- setup -----------------------------------------------------------------

Netlist generate(const Options& o) {
  if (is_eco(o.workload)) {
    PekoParams p;
    p.name = "design";
    p.seed = o.seed;
    p.num_cells = o.cells;
    return generate_peko(p).netlist;
  }
  // = complx_gen --cells N --macros 8 --seed S
  GenParams p;
  p.name = "design";
  p.seed = o.seed;
  p.num_cells = o.cells;
  p.num_movable_macros = 8;
  return generate_circuit(p);
}

int run_setup(const Options& o) {
  std::vector<double> gen_s, write_s;
  size_t cells = 0;
  // Every repetition writes into an empty directory, as a user exporting a
  // new design does; overwriting the previous copy would add unlinking the
  // old files to every repetition but the first. The last one is kept.
  for (int r = 0; r < o.reps; ++r) {
    const bool last = r + 1 == o.reps;
    const std::string dir = last ? o.dir : o.dir + "/setup" + std::to_string(r);
    std::filesystem::create_directories(dir);
    const double t0 = now_s();
    const Netlist nl = generate(o);
    const double t1 = now_s();
    write_bookshelf(nl, dir, "design");
    const double t2 = now_s();
    gen_s.push_back(t1 - t0);
    write_s.push_back(t2 - t1);
    cells = nl.num_movable();
    if (!last) std::filesystem::remove_all(dir);
  }
  auto list = [](const std::vector<double>& v) {
    std::string s = "[";
    for (size_t i = 0; i < v.size(); ++i) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%s%.9f", i ? "," : "", v[i]);
      s += buf;
    }
    return s + "]";
  };
  std::printf("%s\n", Json()
                          .raw("generate_s", list(gen_s))
                          .raw("write_design_s", list(write_s))
                          .num("movable_cells", static_cast<double>(cells))
                          .done()
                          .c_str());
  return 0;
}

// ---- operation -------------------------------------------------------------

/// One placer call as seen from outside.
struct Call {
  double seconds = 0.0;
  int iterations = 0;
  int recoveries = 0;
  bool converged = false;
  bool failed = false;
  size_t cells = 0;  ///< movable cells re-solved
  double overflow = 0.0;
  bool frozen_ok = true;  ///< ECO: every cell outside the window unchanged
  size_t cg_iterations = 0, solves = 0, projections = 0;
};

Call call_of(const PlaceResult& r, double seconds, size_t cells) {
  Call c;
  c.seconds = seconds;
  c.iterations = r.iterations;
  c.recoveries = r.recovered;
  c.converged = r.stop == StopReason::Converged;
  c.failed = r.failed;
  c.cells = cells;
  c.overflow = r.final_overflow;
  c.cg_iterations = r.solver.total_cg_iterations;
  c.solves = r.solver.solves;
  c.projections = r.solver.projections;
  return c;
}

/// The state a replay resumes from: the last iterate, its projection, λ.
struct GpState {
  Placement iterate, anchors;
  double lambda = 0.0;
};

/// Post-projection hook timestamps of one traced ComplxPlacer run.
struct HookTimes {
  double entry = 0.0, exit = 0.0;
  std::vector<double> marks;
};

/// Formula 10's linearized L1 anchor term, as the placer builds it with the
/// default configuration: w = λ·m / (|x − x°| + ε), ε = epsilon_rows row
/// heights, m = 1 for standard cells and capped area ratio for macros.
AnchorSet formula10_anchors(const Netlist& nl, const ComplxConfig& cfg,
                            const GpState& s) {
  AnchorSet a(nl.num_cells());
  const double eps = cfg.epsilon_rows * nl.row_height();
  const double avg_area =
      std::max(nl.average_movable_width() * nl.row_height(), 1e-12);
  for (CellId id : nl.movable_cells()) {
    const Cell& c = nl.cell(id);
    const double m =
        c.is_macro() ? std::min(cfg.macro_lambda_cap, c.area() / avg_area)
                     : 1.0;
    a.target_x[id] = s.anchors.x[id];
    a.target_y[id] = s.anchors.y[id];
    a.weight_x[id] =
        s.lambda * m / (std::abs(s.iterate.x[id] - s.anchors.x[id]) + eps);
    a.weight_y[id] =
        s.lambda * m / (std::abs(s.iterate.y[id] - s.anchors.y[id]) + eps);
  }
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Times the loop's next primal step and the finest-grid projection from
/// `s`, `reps` times each. Each timed primal step follows an untimed one
/// linearized at the anchors, so the workspace is warm but its sparsity
/// pattern is stale, as it is inside the loop.
Json replay(Tracer& tr, const Netlist& nl, const ComplxConfig& cfg,
            const GpState& s, int reps) {
  Scope root(tr, "replay");
  QpOptions qo = cfg.qp;
  if (qo.b2b.min_separation <= 1.0)
    qo.b2b.min_separation = std::max(1.0, nl.average_movable_width());
  const VarMap vars(nl);
  const AnchorSet anchors = formula10_anchors(nl, cfg, s);
  QpWorkspace ws;
  std::vector<double> step_s, project_s;
  double cg_per_solve = 0.0;
  for (int r = 0; r < reps; ++r) {
    Placement other = s.anchors;
    solve_qp_iteration(nl, vars, other, &anchors, qo, &ws);
    Placement p = s.iterate;
    const double t0 = now_s();
    const QpIterationResult q =
        solve_qp_iteration(nl, vars, p, &anchors, qo, &ws);
    const double t1 = now_s();
    tr.add("qp.primal_step", t0, t1);
    step_s.push_back(t1 - t0);
    cg_per_solve = 0.5 * static_cast<double>(q.cg_x.iterations +
                                             q.cg_y.iterations);
  }
  ProjectionOptions po = cfg.projection;
  if (po.gamma <= 0.0) po.gamma = nl.target_density();
  LookAheadLegalizer lal(nl, po);
  for (int r = 0; r <= reps; ++r) {
    const double t0 = now_s();
    [[maybe_unused]] const auto proj = lal.project(s.iterate);
    const double t1 = now_s();
    tr.add("projection.project", t0, t1);
    if (r > 0) project_s.push_back(t1 - t0);  // first call builds the grid
  }
  Json j;
  j.num("qp.primal_step_s", median(step_s))
      .num("linalg.replay_cg_iterations_per_solve", cg_per_solve)
      .num("projection.project_s", median(project_s));
  return j;
}

/// SplitMix64: ECO window positions are drawn from the workload seed.
struct SplitMix {
  uint64_t s;
  uint64_t next() {
    uint64_t z = (s += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

/// `count` windows of 10% of the core area each, at seeded positions.
std::vector<Rect> eco_windows(const Netlist& nl, uint64_t seed, size_t count) {
  const Rect core = nl.core();
  const double f = std::sqrt(0.10);
  const double w = f * (core.xh - core.xl), h = f * (core.yh - core.yl);
  SplitMix rng{seed ^ 0xEC0F10ull};
  std::vector<Rect> out;
  for (size_t i = 0; i < count; ++i) {
    const double xl = core.xl + rng.uniform() * (core.xh - core.xl - w);
    const double yl = core.yl + rng.uniform() * (core.yh - core.yl - h);
    out.push_back({xl, yl, xl + w, yl + h});
  }
  return out;
}

/// Sum over nets of the PEKO per-net minimum: the certified optimum of a
/// generate_peko design (every net is a window of W x W cells at zero pin
/// offset, so the per-net bounds hold for any legal placement).
double peko_optimum(const Netlist& nl) {
  double sum = 0.0;
  for (const Net& n : nl.nets())
    sum += n.weight * peko_net_optimum(static_cast<int>(n.degree()),
                                       nl.row_height());
  return sum;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Runs the ECO window sequence on `nl`, checking after every window that
/// each movable cell outside it is bitwise unchanged. Check time is added
/// to `check_s` and recorded as "check" spans.
std::vector<Call> eco_sequence(Tracer& tr, Netlist& nl, const ComplxConfig& cfg,
                               const std::vector<Rect>& windows,
                               const Options& o, double& check_s) {
  std::vector<Call> calls;
  for (size_t w = 0; w < windows.size(); ++w) {
    const double c0 = now_s();
    const std::vector<Cell> before = nl.cells();
    check_s += now_s() - c0;
    tr.add("check", c0, now_s());

    EcoOptions eo;
    eo.window = windows[w];
    eo.config = cfg;
    const double t0 = now_s();
    const EcoResult r = eco_replace(nl, eo);
    const double t1 = now_s();
    tr.add("core.eco_replace", t0, t1);
    calls.push_back(call_of(r.place, t1 - t0, r.dirty_cells));
    // An empty window re-solves nothing; count it as converged.
    if (r.dirty_cells == 0) calls.back().converged = true;

    const double c1 = now_s();
    if (o.inject == "frozen" && w == 0) {
      for (CellId id : nl.movable_cells()) {
        const Cell& c = before[id];
        if (!eo.window.contains(Point{c.cx(), c.cy()})) {
          nl.cell(id).x = std::nextafter(c.x, c.x + 1.0);
          break;
        }
      }
    }
    for (CellId id : nl.movable_cells()) {
      const Cell& b = before[id];
      if (eo.window.contains(Point{b.cx(), b.cy()})) continue;
      const Cell& a = nl.cell(id);
      if (!same_bits(a.x, b.x) || !same_bits(a.y, b.y) || a.kind != b.kind)
        calls.back().frozen_ok = false;
    }
    check_s += now_s() - c1;
    tr.add("check", c1, now_s());
  }
  return calls;
}

int run_op(const Options& o) {
  const Workload wl = workload_of(o.workload);
  const bool eco = is_eco(o.workload);
  set_global_threads(wl.threads);
  ComplxConfig cfg;
  cfg.threads = wl.threads;
  if (o.inject == "notconverged") cfg.max_iterations = 2;

  Tracer tr(o.trace);
  const std::string aux = o.dir + "/design.aux";
  std::map<std::string, bool> checks;
  std::vector<Call> calls;
  HookTimes hook;
  GpState state;
  double gp_s = 0.0, check_s = 0.0;
  double optimum = 0.0, base_hpwl = 0.0;
  LegalizeResult legal;
  DetailedResult dp;
  DensityMetric metric;
  Placement p;

  const double cpu0 = cpu_s();
  const double t_begin = now_s();
  const int flow_span = tr.open("flow");

  BookshelfDesign design;
  {
    Scope s(tr, "bookshelf.read");
    design = read_bookshelf(aux);
  }
  Netlist& nl = design.netlist;

  if (eco) {
    const double c0 = now_s();
    optimum = peko_optimum(nl);
    base_hpwl = stored_hpwl(nl);
    check_s += now_s() - c0;
    tr.add("check", c0, now_s());
    const std::vector<Rect> windows = eco_windows(nl, o.seed, o.windows);
    {
      Scope s(tr, "core.eco_sequence");
      calls = eco_sequence(tr, nl, cfg, windows, o, check_s);
    }
    bool frozen_ok = true;
    for (const Call& c : calls) {
      gp_s += c.seconds;
      frozen_ok = frozen_ok && c.frozen_ok;
    }
    checks["eco_frozen_unchanged"] = frozen_ok;
    p = nl.snapshot();
  } else if (!o.trace) {
    const double g0 = now_s();
    AutoPlaceResult r = place_auto(nl, cfg);
    gp_s = now_s() - g0;
    calls.push_back(call_of(r.place, gp_s, nl.num_movable()));
    state = {r.place.lower_bound, r.place.anchors, r.place.final_lambda};
    p = std::move(r.anchors);
  } else {
    // Traced GP: the flat path place_auto takes below its multilevel
    // threshold, with a post-projection hook that only records time.
    Scope s(tr, "core.place");
    ComplxPlacer placer(nl, cfg);
    placer.set_post_projection_hook(
        [&hook](Placement&) { hook.marks.push_back(now_s()); });
    hook.entry = now_s();
    PlaceResult r = placer.place();
    hook.exit = now_s();
    gp_s = hook.exit - hook.entry;
    calls.push_back(call_of(r, gp_s, nl.num_movable()));
    state = {r.lower_bound, r.anchors, r.final_lambda};
    p = std::move(r.anchors);
  }

  {
    Scope s(tr, "legal.tetris");
    legal = TetrisLegalizer(nl).legalize(p);
  }
  {
    Scope s(tr, "dp.refine");
    dp = DetailedPlacer(nl).refine(p);
  }
  if (o.inject == "offrow")
    for (CellId id : nl.movable_cells())
      if (!nl.cell(id).is_macro()) {
        p.y[id] += 0.5 * nl.row_height();
        break;
      }
  {
    Scope s(tr, "metric.eval");
    metric = evaluate_scaled_hpwl(nl, p);
  }
  {
    Scope s(tr, "bookshelf.write_pl");
    Placement written = p;
    if (o.inject == "plmismatch")
      written.y[nl.movable_cells().front()] += nl.row_height();
    if (o.inject == "tracediff" && o.trace)
      written.x[nl.movable_cells().front()] += 1.0;
    write_pl(nl, written, o.out);
  }
  tr.close(flow_span);
  const double t_end = now_s();
  const double cpu = cpu_s() - cpu0;
  const double flow_s = t_end - t_begin - check_s;
  const double rss = peak_rss_mb();

  // ---- correctness checks (outside flow_s) ----
  checks["legal"] =
      legal.failed == 0 && TetrisLegalizer::is_legal(nl, p);
  {
    const std::string base = o.dir + "/design";
    const BookshelfDesign back = read_bookshelf_files(
        base + ".nodes", base + ".nets", base + ".wts", o.out, base + ".scl");
    const double a = hpwl(back.netlist, back.netlist.snapshot());
    const double b = hpwl(nl, p);
    checks["pl_readback_hpwl"] = std::abs(a - b) <= 1e-9 * std::abs(b);
  }
  bool converged = !calls.empty(), failed = false;
  for (const Call& c : calls) {
    converged = converged && c.converged;
    failed = failed || c.failed;
  }
  checks["gp_converged"] = converged && !failed;
  double ratio = 0.0;
  if (eco) {
    ratio = metric.hpwl / (o.inject == "ratio" ? 2.0 * optimum : optimum);
    checks["hpwl_ratio_ge_1"] = ratio >= 1.0;
    checks["base_is_optimum"] =
        std::abs(base_hpwl - optimum) <= 1e-9 * optimum;
  } else {
    ratio = metric.hpwl / hpwl(nl, state.iterate);
  }

  // ---- traced extras: ECO probe window and replay (outside flow_s) ----
  Json layers;
  if (o.trace) {
    if (eco && !calls.empty()) {
      // eco_replace exposes no hook, so re-run the first window's solve
      // through the public placer API on the frozen netlist (outside cells
      // marked Fixed, as eco_replace does) to time its phases and capture
      // the state to replay. The probe does not commit anything.
      Scope s(tr, "probe.eco_window");
      const Rect window = eco_windows(nl, o.seed, 1).front();
      const Placement current = nl.snapshot();
      std::vector<std::pair<CellId, CellKind>> saved;
      for (CellId id : nl.movable_cells())
        if (!window.contains(Point{current.x[id], current.y[id]})) {
          saved.emplace_back(id, nl.cell(id).kind);
          nl.cell(id).kind = CellKind::Fixed;
        }
      nl.refinalize();
      ComplxConfig pc = cfg;
      pc.warm_start = true;
      ComplxPlacer placer(nl, pc);
      placer.set_post_projection_hook(
          [&hook](Placement&) { hook.marks.push_back(now_s()); });
      hook.entry = now_s();
      const PlaceResult r = placer.place_from(current);
      hook.exit = now_s();
      state = {r.lower_bound, r.anchors, r.final_lambda};
      layers = replay(tr, nl, cfg, state, 3);
      for (const auto& [id, kind] : saved) nl.cell(id).kind = kind;
      nl.refinalize();
    } else {
      layers = replay(tr, nl, cfg, state, 3);
    }
    // Hook-derived GP phases: entry -> first projection, projection ->
    // projection, last projection -> return.
    std::vector<double> iter;
    for (size_t i = 1; i < hook.marks.size(); ++i)
      iter.push_back(hook.marks[i] - hook.marks[i - 1]);
    layers.num("core.bootstrap_s",
               hook.marks.empty() ? 0.0 : hook.marks.front() - hook.entry)
        .num("core.iteration_s", median(iter))
        .num("core.tail_s",
             hook.marks.empty() ? 0.0 : hook.exit - hook.marks.back());
    if (!o.spans.empty()) tr.write(o.spans);
  }

  // ---- report ----
  std::string call_list = "[";
  for (size_t i = 0; i < calls.size(); ++i) {
    const Call& c = calls[i];
    call_list += (i ? "," : "") +
                 Json()
                     .num("s", c.seconds)
                     .num("iterations", c.iterations)
                     .num("recoveries", c.recoveries)
                     .boolean("converged", c.converged)
                     .boolean("failed", c.failed)
                     .num("cells", static_cast<double>(c.cells))
                     .num("overflow", c.overflow)
                     .num("cg_iterations", static_cast<double>(c.cg_iterations))
                     .num("solves", static_cast<double>(c.solves))
                     .num("projections", static_cast<double>(c.projections))
                     .boolean("frozen_ok", c.frozen_ok)
                     .done();
  }
  call_list += "]";
  std::string check_obj;
  {
    Json j;
    for (const auto& [k, v] : checks) j.boolean(k, v);
    check_obj = j.done();
  }
  Json out;
  out.num("flow_s", flow_s)
      .num("gp_s", gp_s)
      .num("cpu_s", cpu)
      .num("peak_rss_mb", rss)
      .num("legal_hpwl", metric.hpwl)
      .num("hpwl_ratio", ratio)
      .num("legal_failed_cells", static_cast<double>(legal.failed))
      .num("legal_mean_displacement",
           legal.placed ? legal.total_displacement /
                              static_cast<double>(legal.placed)
                        : 0.0)
      .num("dp_hpwl_gain", dp.initial_hpwl > 0.0
                               ? (dp.initial_hpwl - dp.final_hpwl) /
                                     dp.initial_hpwl
                               : 0.0)
      .raw("calls", call_list)
      .raw("checks", check_obj);
  if (o.trace) out.raw("layers", layers.done());
  std::printf("%s\n", out.done().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);
    if (o.mode == "setup") return run_setup(o);
    if (o.mode == "op") {
      if (o.out.empty()) throw std::invalid_argument("op needs --out");
      return run_op(o);
    }
    throw std::invalid_argument("unknown mode " + o.mode);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flowbench: %s\n", e.what());
    return 2;
  }
}
