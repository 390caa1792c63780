// dimmer-lint CLI. See lint.hpp for the rule catalogue.
//
// Usage:
//   dimmer-lint [--root DIR] [--json FILE] [--list-rules] [--quiet]
//               <file-or-directory>...
//
// Directories are scanned recursively for .cpp/.cc/.hpp/.h files (build
// trees and dotted directories are skipped). Paths in diagnostics and in the
// JSON report are made relative to --root (default: the current directory)
// so reports are machine-independent.
//
// Every run makes two passes over every collected file:
//   1. index: each file is function-extracted into the cross-TU call graph
//      (index.hpp).
//   2. rules: the per-file rules plus the transitive/taint rules run against
//      the graph, one file after another.
// Directories are walked in sorted order, so the report is deterministic.
//
// Exit status: 0 if every finding is suppressed, 1 otherwise, 2 on usage
// errors. CI runs:
//   dimmer-lint --root . --json lint-report.json src bench examples tools
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "index.hpp"
#include "lint.hpp"

namespace fs = std::filesystem;
using dimmer::lint::FileIndex;
using dimmer::lint::Finding;
using dimmer::lint::SourceFile;

namespace {

bool has_source_ext(const fs::path& p) {
  std::string e = p.extension().string();
  return e == ".cpp" || e == ".cc" || e == ".hpp" || e == ".h";
}

bool skip_dir(const fs::path& p) {
  std::string name = p.filename().string();
  return name.empty() || name[0] == '.' || name.rfind("build", 0) == 0;
}

// Returns false (and reports) if `p` does not exist — a lint invocation
// naming a missing path must fail loudly, not scan an empty set.
bool collect(const fs::path& p, std::vector<fs::path>* out) {
  std::error_code ec;
  if (fs::is_directory(p, ec)) {
    std::vector<fs::path> entries;
    for (const auto& e : fs::directory_iterator(p, ec)) entries.push_back(e);
    // Sorted traversal: report order (and thus the JSON report) must not
    // depend on readdir() order.
    std::sort(entries.begin(), entries.end());
    bool ok = true;
    for (const fs::path& e : entries) {
      if (fs::is_directory(e, ec)) {
        if (!skip_dir(e)) ok = collect(e, out) && ok;
      } else if (has_source_ext(e)) {
        out->push_back(e);
      }
    }
    return ok;
  }
  if (fs::exists(p, ec)) {
    out->push_back(p);
    return true;
  }
  std::cerr << "dimmer-lint: no such path: " << p.string() << "\n";
  return false;
}

std::string relative_to(const fs::path& p, const fs::path& root) {
  std::error_code ec;
  fs::path rel = fs::relative(p, root, ec);
  std::string s = (ec || rel.empty() || *rel.begin() == "..")
                      ? p.string()
                      : rel.string();
  std::replace(s.begin(), s.end(), '\\', '/');
  return s;
}

int usage(int code) {
  std::cerr
      << "usage: dimmer-lint [--root DIR] [--json FILE] [--list-rules] "
         "[--quiet]\n"
         "                   <path>...\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".", json_path;
  bool list_rules = false, quiet = false;
  std::vector<std::string> inputs;

  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "dimmer-lint: " << a << " needs an argument\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--root")
      root = next();
    else if (a == "--json")
      json_path = next();
    else if (a == "--list-rules")
      list_rules = true;
    else if (a == "--quiet")
      quiet = true;
    else if (a == "--help" || a == "-h")
      return usage(0);
    else if (!a.empty() && a[0] == '-') {
      std::cerr << "dimmer-lint: unknown option " << a << "\n";
      return usage(2);
    } else {
      inputs.push_back(a);
    }
  }

  if (list_rules) {
    for (const auto& r : dimmer::lint::rules())
      std::cout << r.id << "\n    " << r.summary << "\n";
    std::cout
        << "annotations\n"
           "    // dimmer-lint: hot-path begin|end   bracket a zero-alloc "
           "region\n"
           "    // dimmer-lint: fp-order-ok          sanction one fp "
           "reduction\n"
           "    // dimmer-lint: pure(<prop>)         stop a transitive "
           "property at this\n"
           "                                         function (reported as "
           "suppressed);\n"
           "                                         props: may-allocate, "
           "may-touch-clock,\n"
           "                                         may-iterate-unordered, "
           "may-draw-rng\n"
           "    // NOLINT-DIMMER[(rule,...)]         suppress on this line\n"
           "    // NOLINTNEXTLINE-DIMMER[(rule,...)] suppress on the next "
           "line\n";
    if (inputs.empty()) return 0;
  }
  if (inputs.empty()) return usage(2);

  // Relative inputs are resolved against --root, so the CLI behaves the same
  // from any working directory (CI runs from the repo root; the CMake `lint`
  // target runs from the build tree).
  std::vector<fs::path> paths;
  bool inputs_ok = true;
  for (const std::string& in : inputs) {
    fs::path p(in);
    if (p.is_relative() && !fs::exists(p)) p = fs::path(root) / p;
    inputs_ok = collect(p, &paths) && inputs_ok;
  }
  if (!inputs_ok) return 2;

  // Read every file once; both passes work from the same bytes. Unreadable
  // files become findings so they fail the run instead of silently
  // shrinking the scan.
  std::vector<SourceFile> files;
  std::vector<Finding> findings;
  for (const fs::path& f : paths) {
    std::string rel = relative_to(f, root);
    std::ifstream in(f, std::ios::binary);
    if (!in) {
      findings.push_back({rel, 0, "io", "cannot open file", "", false});
      continue;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    files.push_back({rel, ss.str()});
  }

  // Pass 1: per-file function indexes, merged into the cross-TU call graph.
  std::vector<FileIndex> index;
  index.reserve(files.size());
  for (const SourceFile& sf : files)
    index.push_back(dimmer::lint::index_source(sf.path, sf.contents));
  dimmer::lint::CallGraph graph =
      dimmer::lint::build_call_graph(std::move(index));

  // Pass 2: the rules, with transitive knowledge.
  std::vector<Finding> scanned = dimmer::lint::scan_sources(files, &graph);
  findings.insert(findings.end(), scanned.begin(), scanned.end());

  int active = 0, suppressed = 0;
  for (const Finding& f : findings) {
    if (f.suppressed) {
      ++suppressed;
      continue;
    }
    ++active;
    if (!quiet)
      std::cerr << f.file << ":" << f.line << ": [" << f.rule << "] "
                << f.message << "\n    " << f.excerpt << "\n";
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << dimmer::lint::json_report(findings);
  }

  if (!quiet)
    std::cerr << "dimmer-lint: " << files.size() << " files, " << active
              << " active, " << suppressed << " suppressed\n";
  return dimmer::lint::has_active(findings) ? 1 : 0;
}
