// complx-lint: a project-specific static-analysis pass.
//
// The placement engine makes two promises that ordinary tests can only
// sample, never prove: bitwise thread-count-independent results
// (docs/PARALLELISM.md) and NaN/Inf-free recovery (docs/ROBUSTNESS.md).
// Both are one careless edit away from silently breaking — an
// unordered_map iterated into a floating-point reduction, a std::rand()
// in a tiebreaker, a raw `==` in a convergence check. complx-lint scans
// the repository's own sources (a token-level scanner; no compiler
// needed) and enforces those invariants as named, suppressible rules.
//
// Two kinds of passes run:
//
//  * per-file rules, on each translation unit in isolation:
//
//   D1  no iteration over unordered associative containers — hash order
//       is not part of any determinism contract; take a sorted snapshot
//       or traverse by index instead.
//   D2  no nondeterminism sources: std::rand/srand/drand48/random_device
//       (outside util/rng.h, the seeded-RNG authority), time()/clock()
//       calls, std::this_thread (thread-id-dependent behaviour).
//   N1  no raw ==/!= on floating-point operands outside util/fpcmp.h,
//       the designated comparator helper.
//   N2  catch (...) in src/core, src/linalg, src/qp must log, set a
//       status, or rethrow — never swallow silently.
//   P1  no std mutexes/atomics/threads outside util/parallel.* — the
//       deterministic-reduction layer is the single concurrency
//       authority.
//   P2  every mutex declared in src/ must carry a thread-safety
//       annotation: its name referenced by a COMPLX_GUARDED_BY /
//       COMPLX_PT_GUARDED_BY / COMPLX_REQUIRES / COMPLX_ACQUIRE /
//       COMPLX_RELEASE / COMPLX_EXCLUDES argument in the same file, or
//       the declaration inside a COMPLX_CAPABILITY-annotated class.
//   IO1 no direct file-writing primitives (ofstream/fopen/freopen/
//       fwrite) in src/ outside util/atomic_file.*, the crash-safe
//       write authority.
//   S1  no cell/net name access (cell_name/net_name/find_cell/NamePool)
//       in src/core, src/linalg, src/qp, src/density or src/projection —
//       names are pooled in side tables so the hot layers never touch
//       string data; resolve ids to names at the io/app boundary.
//
//  * cross-file passes, on the whole scanned file set (analyze_sources):
//
//   A1  no upward #include against the layer DAG declared in
//       tools/complx_lint/layers.toml (util at the bottom, apps at the
//       top) — e.g. util/ reaching into netlist/ is reported.
//   A2  no #include cycles among the scanned files.
//   T1  determinism taint: a function defined under src/core, src/linalg,
//       src/qp or src/projection must not reach a nondeterminism source
//       (the D2 set, or a function annotated `// complx-lint:
//       taint-source`) through any chain of calls. This catches the
//       one-hop laundering a per-file D2 scan cannot see — including
//       sources that were locally allow(D2)-suppressed.
//
// The machine-readable rule list is rule_catalog() — the single source of
// truth behind `complx_lint --list-rules`, the docs table, and the
// fixture tests. (A failed file read is reported under the pseudo-rule
// "IO", also in the catalog.)
//
// Suppression: `// complx-lint: allow(D1): <justification>` on the same
// line or the line above. The justification is mandatory; a bare
// allow() — no justification or no rule ids — is itself reported (rule
// SUPP). A1 suppressions go on the offending #include line; T1
// suppressions on the entry function's definition line.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace complx::lint {

struct Finding {
  std::string file;
  std::size_t line = 0;
  std::string rule;  ///< one of rule_catalog()'s ids — see lint.h header
  std::string message;
};

struct RuleInfo {
  const char* id;
  const char* summary;
};

/// The enforced rule set — the single source of truth for --list-rules,
/// the docs table, and the SARIF rule metadata.
const std::vector<RuleInfo>& rule_catalog();

/// One in-memory source file handed to the analyzer.
struct SourceFile {
  std::string path;
  std::string content;
};

/// Options for the multi-pass analyzer.
struct AnalyzeOptions {
  /// Contents of the layer declaration (layers.toml). Empty disables the
  /// A1/A2 include passes.
  std::string layers_toml;
  /// Run the cross-file determinism-taint pass (rule T1).
  bool taint = true;
};

/// The full multi-pass analysis: per-file rules on every file, then the
/// cross-file passes (A1/A2 layering, T1 taint) over the whole set.
/// Findings are sorted by (file, line, rule).
std::vector<Finding> analyze_sources(const std::vector<SourceFile>& files,
                                     const AnalyzeOptions& opts = {});

/// analyze_sources over files read from disk. Unreadable files yield an
/// "IO" finding rather than a crash.
std::vector<Finding> analyze_paths(const std::vector<std::string>& paths,
                                   const AnalyzeOptions& opts = {});

/// Lints one translation unit given its contents: the per-file rules plus
/// the degenerate single-file taint pass. `path` is used both for
/// reporting and for rule scoping (e.g. util/parallel.* is exempt from P1;
/// N2 applies only under core/, linalg/ and qp/).
std::vector<Finding> lint_source(const std::string& path,
                                 const std::string& content);

/// Reads and lints a file from disk. Unreadable files yield an "IO"
/// finding rather than a crash.
std::vector<Finding> lint_file(const std::string& path);

}  // namespace complx::lint
