// analyze_sources / analyze_paths: the multi-pass orchestration.
//
//   1. per-file pass — each file summarized on its own (no shared state);
//   2. cross-file passes — A1/A2 layering against layers.toml and the T1
//      determinism taint over the summaries.
//
// Findings sort by (file, line, rule) so every run emits byte-identical
// reports.
#include <algorithm>
#include <fstream>
#include <sstream>

#include "layers.h"
#include "lint.h"
#include "summary.h"
#include "taint.h"

namespace complx::lint {

namespace {

std::string normalized_path(const std::string& path) {
  std::string p = path;
  std::replace(p.begin(), p.end(), '\\', '/');
  return p;
}

std::vector<Finding> run_passes(const std::vector<FileSummary>& summaries,
                                const AnalyzeOptions& opts) {
  std::vector<Finding> findings;
  for (const FileSummary& s : summaries)
    findings.insert(findings.end(), s.findings.begin(), s.findings.end());

  if (!opts.layers_toml.empty()) {
    LayerMap map;
    std::string error;
    std::size_t error_line = 0;
    if (!parse_layers_toml(opts.layers_toml, map, error, error_line)) {
      findings.push_back({"layers.toml", error_line, "IO",
                          "cannot parse layer declaration: " + error});
    } else {
      check_layers(summaries, map, findings);
    }
  }
  if (opts.taint) check_taint(summaries, findings);

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
  return findings;
}

}  // namespace

std::vector<Finding> analyze_sources(const std::vector<SourceFile>& files,
                                     const AnalyzeOptions& opts) {
  std::vector<FileSummary> summaries;
  summaries.reserve(files.size());
  for (const SourceFile& f : files)
    summaries.push_back(summarize_source(normalized_path(f.path), f.content));
  return run_passes(summaries, opts);
}

std::vector<Finding> analyze_paths(const std::vector<std::string>& paths,
                                   const AnalyzeOptions& opts) {
  std::vector<FileSummary> summaries;
  summaries.reserve(paths.size());
  for (const std::string& raw : paths) {
    const std::string path = normalized_path(raw);
    std::ifstream in(raw, std::ios::binary);
    if (!in) {
      FileSummary s;
      s.path = path;
      s.findings.push_back({path, 0, "IO", "cannot read file"});
      summaries.push_back(std::move(s));
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    summaries.push_back(summarize_source(path, buf.str()));
  }
  return run_passes(summaries, opts);
}

}  // namespace complx::lint
