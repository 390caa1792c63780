// Tests for tools/dimmer-lint pass 2: every rule proven to fire on a fixture
// and to honour its suppression mechanism, the JSON report pinned against a
// golden file, and — the point of the tool — the real src/, bench/,
// examples/ and tools/ trees proven clean under the full two-pass
// (call-graph-aware) analysis.
//
// Pass-1 machinery (extractor, fixpoint) is covered in test_index.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <sys/wait.h>

#include "index.hpp"
#include "lint.hpp"
#include "scan.hpp"

namespace fs = std::filesystem;
using dimmer::lint::Finding;

namespace {

std::string fixture_path(const std::string& name) {
  return std::string(DIMMER_LINT_FIXTURE_DIR) + "/" + name;
}

// Scans a fixture, reporting it under a stable relative path so findings are
// machine-independent.
std::vector<Finding> scan_fixture(const std::string& name) {
  return dimmer::lint::scan_file(fixture_path(name), "fixtures/" + name);
}

// Findings for `rule` with the given flags.
std::vector<int> lines_of(const std::vector<Finding>& fs, const std::string& rule,
                          bool suppressed) {
  std::vector<int> lines;
  for (const auto& f : fs)
    if (f.rule == rule && f.suppressed == suppressed) lines.push_back(f.line);
  return lines;
}

int count_rule(const std::vector<Finding>& fs, const std::string& rule) {
  return static_cast<int>(
      std::count_if(fs.begin(), fs.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

// ---------------------------------------------------------------------------
// Rule table
// ---------------------------------------------------------------------------

TEST(LintRules, TableListsAllSevenRules) {
  std::vector<std::string> ids;
  for (const auto& r : dimmer::lint::rules()) ids.push_back(r.id);
  const std::vector<std::string> expected = {"det-clock",  "det-umap-iter",
                                             "hot-no-alloc", "fp-accumulate",
                                             "err-swallow", "nodiscard-result",
                                             "rng-discipline"};
  EXPECT_EQ(ids, expected);
  for (const auto& id : expected) EXPECT_TRUE(dimmer::lint::is_rule(id)) << id;
  EXPECT_FALSE(dimmer::lint::is_rule("no-such-rule"));
}

// ---------------------------------------------------------------------------
// det-clock
// ---------------------------------------------------------------------------

TEST(LintDetClock, FiresOnEveryAmbientSource) {
  auto fs = scan_fixture("clock_violation.cpp");
  // steady_clock, time, random_device, mt19937, rand, sleep_for, usleep,
  // sleep — 8 active findings.
  auto active = lines_of(fs, "det-clock", /*suppressed=*/false);
  EXPECT_EQ(active, (std::vector<int>{9, 13, 16, 17, 18, 22, 23, 24}));
}

TEST(LintDetClock, HonoursSameLineAndNextLineSuppression) {
  auto fs = scan_fixture("clock_violation.cpp");
  auto suppressed = lines_of(fs, "det-clock", /*suppressed=*/true);
  EXPECT_EQ(suppressed, (std::vector<int>{28, 33}));
  EXPECT_TRUE(dimmer::lint::has_active(fs));
}

TEST(LintDetClock, IgnoresMembersStringsAndComments) {
  auto fs = scan_fixture("clock_violation.cpp");
  // Nothing past the suppressed block (the lookalikes section) may fire.
  for (const auto& f : fs) EXPECT_LE(f.line, 33) << f.excerpt;
}

TEST(LintDetClock, ExemptsOnlyTheUtilSeam) {
  const std::string src = slurp(fixture_path("clock_violation.cpp"));
  EXPECT_FALSE(src.empty());
  // The same content reported under src/util/ produces zero det-clock
  // findings: the wall-clock wrapper lives there by design.
  auto util_fs = dimmer::lint::scan_source("src/util/wallclock_fixture.cpp", src);
  EXPECT_EQ(count_rule(util_fs, "det-clock"), 0);
  // tools/ is NOT exempt any more: the lint tool lints itself in CI, so the
  // rule fires there exactly as it does anywhere else.
  auto tools_fs = dimmer::lint::scan_source("tools/dimmer-lint/fixture.cpp", src);
  auto core_fs = dimmer::lint::scan_source("src/core/fixture.cpp", src);
  EXPECT_GT(count_rule(tools_fs, "det-clock"), 0);
  EXPECT_EQ(count_rule(tools_fs, "det-clock"), count_rule(core_fs, "det-clock"));
}

// ---------------------------------------------------------------------------
// det-umap-iter
// ---------------------------------------------------------------------------

TEST(LintUmapIter, FiresOnRangeForBeginAndAliases) {
  auto fs = scan_fixture("umap_iter.cpp");
  auto active = lines_of(fs, "det-umap-iter", /*suppressed=*/false);
  // range-for over member, range-for over alias, begin() on unordered_set.
  EXPECT_EQ(active, (std::vector<int>{19, 25, 30}));
}

TEST(LintUmapIter, SuppressionAndOrderedContainersClean) {
  auto fs = scan_fixture("umap_iter.cpp");
  auto suppressed = lines_of(fs, "det-umap-iter", /*suppressed=*/true);
  EXPECT_EQ(suppressed, (std::vector<int>{37}));
  // std::map traversal and find()/count() lookups (lines 41+) are clean.
  for (const auto& f : fs) EXPECT_LE(f.line, 37) << f.excerpt;
}

// ---------------------------------------------------------------------------
// hot-no-alloc
// ---------------------------------------------------------------------------

TEST(LintHotNoAlloc, FiresOnlyInsideMarkedRegion) {
  auto fs = scan_fixture("hot_alloc.cpp");
  auto active = lines_of(fs, "hot-no-alloc", /*suppressed=*/false);
  // push_back, new, make_unique, resize — all inside the region. reserve/
  // assign in prepare() and the push_back after `hot-path end` are clean.
  EXPECT_EQ(active, (std::vector<int>{20, 21, 22, 23}));
  auto suppressed = lines_of(fs, "hot-no-alloc", /*suppressed=*/true);
  EXPECT_EQ(suppressed, (std::vector<int>{25}));
}

TEST(LintHotNoAlloc, UnterminatedRegionIsItselfAFinding) {
  auto fs = scan_fixture("hot_unterminated.cpp");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "hot-no-alloc");
  EXPECT_FALSE(fs[0].suppressed);
  EXPECT_NE(fs[0].message.find("unterminated"), std::string::npos)
      << fs[0].message;
}

// ---------------------------------------------------------------------------
// fp-accumulate
// ---------------------------------------------------------------------------

TEST(LintFpAccumulate, FiresOnLibraryReductions) {
  auto fs = scan_fixture("fp_accumulate.cpp");
  auto active = lines_of(fs, "fp-accumulate", /*suppressed=*/false);
  EXPECT_EQ(active, (std::vector<int>{7, 11}));
}

TEST(LintFpAccumulate, FpOrderOkAnnotationAndNolintSuppress) {
  auto fs = scan_fixture("fp_accumulate.cpp");
  auto suppressed = lines_of(fs, "fp-accumulate", /*suppressed=*/true);
  // The fp-order-ok annotated call (line 16) and the NOLINT one (line 20).
  EXPECT_EQ(suppressed, (std::vector<int>{16, 20}));
  // The explicit loop at the bottom is invisible to the rule.
  EXPECT_EQ(count_rule(fs, "fp-accumulate"), 4);
}

// ---------------------------------------------------------------------------
// err-swallow
// ---------------------------------------------------------------------------

TEST(LintErrSwallow, FiresOnCatchAllAndEmptyCatch) {
  auto fs = scan_fixture("err_swallow.cpp");
  auto active = lines_of(fs, "err-swallow", /*suppressed=*/false);
  EXPECT_EQ(active, (std::vector<int>{10, 19}));
  auto suppressed = lines_of(fs, "err-swallow", /*suppressed=*/true);
  EXPECT_EQ(suppressed, (std::vector<int>{27}));
}

// ---------------------------------------------------------------------------
// nodiscard-result
// ---------------------------------------------------------------------------

TEST(LintNodiscard, FiresOnUnattributedResultStructOnly) {
  auto fs = scan_fixture("nodiscard.cpp");
  auto active = lines_of(fs, "nodiscard-result", /*suppressed=*/false);
  // FloodResult without [[nodiscard]]; TrialResult (attributed), the
  // RoundResult forward declaration and RoundResult2 (not a listed type)
  // are all clean.
  EXPECT_EQ(active, (std::vector<int>{5}));
  EXPECT_EQ(count_rule(fs, "nodiscard-result"), 1);
}

// ---------------------------------------------------------------------------
// rng-discipline
// ---------------------------------------------------------------------------

TEST(LintRngDiscipline, UnkeyedMemberForkFiresKeyedAndPosixClean) {
  auto fs = scan_fixture("rng_discipline.cpp");
  // root.fork(cast) has no hash_u64 tag; the keyed fork on the next line and
  // the POSIX process fork() (no member access) are both clean.
  auto active = lines_of(fs, "rng-discipline", /*suppressed=*/false);
  EXPECT_EQ(active, (std::vector<int>{10}));
  auto suppressed = lines_of(fs, "rng-discipline", /*suppressed=*/true);
  EXPECT_EQ(suppressed, (std::vector<int>{12}));
  EXPECT_EQ(count_rule(fs, "rng-discipline"), 2);
}

TEST(LintRngDiscipline, ProtocolToConsumerPcgFlowFires) {
  // A protocol-module call into a consumer-module function whose signature
  // takes a Pcg32 is flagged; the consumer file itself is not (the rule
  // polices the protocol side of the boundary).
  const std::string consumer =
      "struct Pcg32;\n"
      "double consume_noise(Pcg32& rng) { return 0.0; }\n";
  const std::string proto =
      "struct Pcg32;\n"
      "void run_round(Pcg32& rng) { consume_noise(rng); }\n";
  std::vector<dimmer::lint::FileIndex> idx;
  idx.push_back(dimmer::lint::index_source("src/fault/consumer.cpp", consumer));
  idx.push_back(dimmer::lint::index_source("src/flood/proto.cpp", proto));
  auto graph = dimmer::lint::build_call_graph(idx);

  auto fs = dimmer::lint::scan_source("src/flood/proto.cpp", proto, &graph);
  auto active = lines_of(fs, "rng-discipline", /*suppressed=*/false);
  ASSERT_EQ(active, (std::vector<int>{2}));
  for (const auto& f : fs) {
    if (f.rule == "rng-discipline") {
      EXPECT_NE(f.message.find("consume_noise"), std::string::npos)
          << f.message;
    }
  }

  auto cfs = dimmer::lint::scan_source("src/fault/consumer.cpp", consumer,
                                       &graph);
  EXPECT_EQ(count_rule(cfs, "rng-discipline"), 0);
}

TEST(LintRngDiscipline, FlowOutsideProtocolModulesIsClean) {
  // The identical call is legal from a non-protocol path: consumer-to-
  // consumer handoff of an RNG stream is exactly how fault plans own their
  // forks.
  const std::string consumer =
      "struct Pcg32;\n"
      "double consume_noise(Pcg32& rng) { return 0.0; }\n";
  const std::string other =
      "struct Pcg32;\n"
      "void drive(Pcg32& rng) { consume_noise(rng); }\n";
  std::vector<dimmer::lint::FileIndex> idx;
  idx.push_back(dimmer::lint::index_source("src/fault/consumer.cpp", consumer));
  idx.push_back(dimmer::lint::index_source("src/exp/trial_loop.cpp", other));
  auto graph = dimmer::lint::build_call_graph(idx);
  auto fs = dimmer::lint::scan_source("src/exp/trial_loop.cpp", other, &graph);
  EXPECT_EQ(count_rule(fs, "rng-discipline"), 0);
}

// ---------------------------------------------------------------------------
// Suppression semantics
// ---------------------------------------------------------------------------

TEST(LintSuppression, BareNolintSuppressesEveryRule) {
  auto fs = dimmer::lint::scan_source(
      "fixtures/inline.cpp",
      "int f() { return std::rand(); }  // NOLINT-DIMMER\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_TRUE(fs[0].suppressed);
  EXPECT_FALSE(dimmer::lint::has_active(fs));
}

TEST(LintSuppression, UnrelatedRuleListDoesNotSuppress) {
  auto fs = dimmer::lint::scan_source(
      "fixtures/inline.cpp",
      "int f() { return std::rand(); }  // NOLINT-DIMMER(err-swallow)\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_FALSE(fs[0].suppressed);
  EXPECT_TRUE(dimmer::lint::has_active(fs));
}

// ---------------------------------------------------------------------------
// JSON report
// ---------------------------------------------------------------------------

TEST(LintReport, MatchesGoldenFile) {
  auto fs = scan_fixture("clock_violation.cpp");
  const std::string got = dimmer::lint::json_report(std::move(fs));
  const std::string want = slurp(fixture_path("golden_clock_report.json"));
  ASSERT_FALSE(want.empty()) << "golden file missing";
  EXPECT_EQ(got, want);
}

TEST(LintReport, IsByteDeterministic) {
  auto a = dimmer::lint::json_report(scan_fixture("umap_iter.cpp"));
  auto b = dimmer::lint::json_report(scan_fixture("umap_iter.cpp"));
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// The repo itself is clean (the static mirror of the jobs=1-vs-8 BENCH
// byte-identity checks). Scans the real src/, bench/, examples/ and tools/
// trees under the full two-pass analysis: call graph built over every file,
// transitive and rng-discipline rules on.
// ---------------------------------------------------------------------------

namespace {

// Loads the repo's lintable files (the same input set CI hands the CLI),
// reported under repo-relative paths.
std::vector<dimmer::lint::SourceFile> repo_sources() {
  const fs::path root = DIMMER_LINT_REPO_ROOT;
  std::vector<std::string> paths;
  for (const char* dir : {"src", "bench", "examples", "tools"}) {
    for (auto it = fs::recursive_directory_iterator(root / dir);
         it != fs::recursive_directory_iterator(); ++it) {
      if (!it->is_regular_file()) continue;
      auto ext = it->path().extension().string();
      if (ext == ".cpp" || ext == ".cc" || ext == ".hpp" || ext == ".h")
        paths.push_back(it->path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<dimmer::lint::SourceFile> files;
  for (const auto& p : paths)
    files.push_back({fs::relative(p, root).generic_string(), slurp(p)});
  return files;
}

dimmer::lint::CallGraph repo_graph(
    const std::vector<dimmer::lint::SourceFile>& files) {
  std::vector<dimmer::lint::FileIndex> idx;
  for (const auto& f : files)
    idx.push_back(dimmer::lint::index_source(f.path, f.contents));
  return dimmer::lint::build_call_graph(std::move(idx));
}

}  // namespace

TEST(LintRepo, SrcBenchExamplesToolsHaveNoActiveFindings) {
  auto files = repo_sources();
  ASSERT_GT(files.size(), 50u);  // sanity: we really walked the tree
  auto graph = repo_graph(files);
  auto found = dimmer::lint::scan_sources(files, &graph);
  int active = 0;
  for (const auto& d : found) {
    if (!d.suppressed) {
      ++active;
      ADD_FAILURE() << d.file << ":" << d.line << ": [" << d.rule << "] "
                    << d.message;
    }
  }
  EXPECT_EQ(active, 0);
}

// Every inline suppression in src/, bench/ and examples/ still suppresses a
// finding: a NOLINT-DIMMER line carries one, and so does the line after a
// NOLINTNEXTLINE-DIMMER. dimmer-lint reports no marker that matches
// nothing, so a stale one would otherwise stay unseen. tools/ is skipped:
// its comments spell the syntax out.
TEST(LintRepo, EveryNolintMarkerSuppressesAFinding) {
  auto files = repo_sources();
  auto graph = repo_graph(files);
  std::set<std::pair<std::string, int>> suppressed;
  for (const auto& d : dimmer::lint::scan_sources(files, &graph))
    if (d.suppressed) suppressed.insert({d.file, d.line});
  int markers = 0;
  for (const auto& f : files) {
    if (f.path.rfind("tools/", 0) == 0) continue;
    std::istringstream in(f.contents);
    std::string text;
    for (int line = 1; std::getline(in, text); ++line) {
      int target = line;
      if (text.find("NOLINTNEXTLINE-DIMMER") != std::string::npos)
        target = line + 1;
      else if (text.find("NOLINT-DIMMER") == std::string::npos)
        continue;
      ++markers;
      EXPECT_TRUE(suppressed.count({f.path, target}))
          << f.path << ":" << line << ": the marker suppresses nothing";
    }
  }
  EXPECT_GT(markers, 0);
}

// The benches' DIMMER_* knobs have one reader, bench::parse_env: the
// identifiers that read the process environment appear in code (comments
// and string literals do not count) in bench/common.hpp and nowhere else in
// src/, bench/, examples/ or tools/. The library takes every such value as
// an explicit option.
TEST(LintRepo, OnlyBenchCommonReadsTheEnvironment) {
  const std::set<std::string> readers = {"getenv", "secure_getenv",
                                         "environ"};
  int in_common = 0;
  for (const auto& f : repo_sources()) {
    for (const auto& tok :
         dimmer::lint::tokenize(dimmer::lint::split_channels(f.contents))) {
      if (readers.count(tok.text) == 0) continue;
      if (f.path == "bench/common.hpp")
        ++in_common;
      else
        ADD_FAILURE() << f.path << ":" << tok.line << ": `" << tok.text
                      << "` outside bench/common.hpp";
    }
  }
  EXPECT_GT(in_common, 0);  // the reader itself is still found
}

// A seeded violation MUST make the gate fail — proves the CI job is not
// vacuously green.
TEST(LintRepo, SeededViolationFailsTheGate) {
  auto fs = dimmer::lint::scan_source(
      "src/core/seeded.cpp",
      "#include <chrono>\n"
      "double t() { return std::chrono::steady_clock::now()"
      ".time_since_epoch().count(); }\n");
  EXPECT_TRUE(dimmer::lint::has_active(fs));
}

// ---------------------------------------------------------------------------
// The CLI end to end: a seeded *transitive* violation in a temp tree makes
// the real binary exit 1 and name the call chain.
// ---------------------------------------------------------------------------

TEST(LintCli, SeededTransitiveViolationExitsOneNamingTheChain) {
  const fs::path root = fs::temp_directory_path() / "dimmer_lint_gate";
  fs::remove_all(root);
  fs::create_directories(root / "src/core");
  fs::create_directories(root / "src/flood");
  {
    std::ofstream h(root / "src/core/helper.cpp");
    h << "#include <vector>\n"
         "void helper_leaf(std::vector<int>& v) { v.push_back(1); }\n"
         "void helper_mid(std::vector<int>& v) { helper_leaf(v); }\n";
    std::ofstream hot(root / "src/flood/hot.cpp");
    hot << "#include <vector>\n"
           "void kernel(std::vector<int>& v) {\n"
           "  // dimmer-lint: hot-path begin\n"
           "  helper_mid(v);\n"
           "  // dimmer-lint: hot-path end\n"
           "}\n";
  }
  const std::string exe = DIMMER_LINT_EXE;
  const std::string base = "cd " + root.string() + " && " + exe + " --root .";
  auto run = [&](const std::string& tail) {
    int st = std::system((base + " " + tail).c_str());
    return WIFEXITED(st) ? WEXITSTATUS(st) : -1;
  };
  // Exit 1, chain named on stderr/stdout.
  EXPECT_EQ(run("--json r1.json src > out1.txt 2>&1"), 1);
  const std::string out = slurp((root / "out1.txt").string());
  EXPECT_NE(out.find("hot-no-alloc"), std::string::npos) << out;
  EXPECT_NE(out.find("helper_mid -> helper_leaf"), std::string::npos) << out;
  EXPECT_NE(out.find("`push_back` at src/core/helper.cpp:2"),
            std::string::npos)
      << out;
  EXPECT_FALSE(slurp((root / "r1.json").string()).empty());
  fs::remove_all(root);
}
