// Tests for tools/dimmer-lint pass 1 (index.hpp): the brace/paren-aware
// function extractor, the fixpoint propagation of the four transitive
// properties through the cross-TU call graph (including virtual-dispatch and
// function-pointer widening) and the pure() trust annotation. The
// fixture-backed tests at the bottom prove each property fires — and
// suppresses — through 2+-deep call chains exactly as the hot-path rules
// report them.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "index.hpp"
#include "lint.hpp"

using dimmer::lint::build_call_graph;
using dimmer::lint::CallGraph;
using dimmer::lint::FileIndex;
using dimmer::lint::Finding;
using dimmer::lint::FunctionDef;
using dimmer::lint::index_source;
using dimmer::lint::Prop;

namespace {

std::string fixture_path(const std::string& name) {
  return std::string(DIMMER_LINT_FIXTURE_DIR) + "/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

const FunctionDef* find_fn(const FileIndex& fi, const std::string& name) {
  for (const auto& f : fi.functions)
    if (f.name == name) return &f;
  return nullptr;
}

int node_of(const CallGraph& g, const std::string& name) {
  const std::vector<int>* ids = g.lookup(name);
  return (ids == nullptr || ids->empty()) ? -1 : ids->front();
}

// Builds a graph over the transitive/ fixtures, reported under stable
// relative paths (the same shape the CLI produces).
struct TransitiveFixtures {
  std::vector<std::pair<std::string, std::string>> sources;  // (rel, contents)
  CallGraph graph;

  TransitiveFixtures() {
    const char* names[] = {
        "transitive/helpers_alloc.cpp", "transitive/helpers_clock.cpp",
        "transitive/helpers_umap.cpp",  "transitive/helpers_rng.cpp",
        "transitive/hot_caller.cpp",    "transitive/trusted_alloc.cpp",
        "transitive/virtual_widen.cpp"};
    std::vector<FileIndex> idx;
    for (const char* n : names) {
      std::string contents = slurp(fixture_path(n));
      std::string rel = std::string("fixtures/") + n;
      idx.push_back(index_source(rel, contents));
      sources.emplace_back(rel, std::move(contents));
    }
    graph = build_call_graph(std::move(idx));
  }

  std::vector<Finding> scan(const std::string& rel) const {
    for (const auto& [path, contents] : sources)
      if (path == rel)
        return dimmer::lint::scan_source(path, contents, &graph);
    ADD_FAILURE() << "no such fixture source: " << rel;
    return {};
  }
};

std::vector<int> lines_of(const std::vector<Finding>& fs,
                          const std::string& rule, bool suppressed) {
  std::vector<int> lines;
  for (const auto& f : fs)
    if (f.rule == rule && f.suppressed == suppressed) lines.push_back(f.line);
  return lines;
}

}  // namespace

// ---------------------------------------------------------------------------
// Extractor
// ---------------------------------------------------------------------------

TEST(LintIndex, ExtractorFindsFunctionsScopesAndBodies) {
  const std::string src =
      "namespace outer {\n"
      "class Widget {\n"
      " public:\n"
      "  int area() const {\n"
      "    return w_ * h_;\n"
      "  }\n"
      " private:\n"
      "  int w_ = 0, h_ = 0;\n"
      "};\n"
      "int free_fn(int x) { return x + 1; }\n"
      "}  // namespace outer\n";
  FileIndex fi = index_source("t.cpp", src);
  ASSERT_EQ(fi.functions.size(), 2u);
  const FunctionDef* area = find_fn(fi, "area");
  ASSERT_NE(area, nullptr);
  EXPECT_EQ(area->scope, "outer::Widget");
  EXPECT_EQ(area->line, 4);
  EXPECT_EQ(area->body_begin, 4);
  EXPECT_EQ(area->body_end, 6);
  const FunctionDef* free_fn = find_fn(fi, "free_fn");
  ASSERT_NE(free_fn, nullptr);
  EXPECT_EQ(free_fn->scope, "outer");
  EXPECT_EQ(free_fn->line, 10);
}

TEST(LintIndex, ExtractorSkipsDeclarationsAndControlFlow) {
  const std::string src =
      "void decl_only(int);\n"
      "template <typename T>\n"
      "int real(T t) {\n"
      "  if (t > 0) { return 1; }\n"
      "  for (int i = 0; i < 3; ++i) { t += i; }\n"
      "  while (t < 0) { ++t; }\n"
      "  if constexpr (sizeof(T) > 4) { return 2; }\n"
      "  switch (t) { default: break; }\n"
      "  return 0;\n"
      "}\n";
  FileIndex fi = index_source("t.cpp", src);
  ASSERT_EQ(fi.functions.size(), 1u);
  EXPECT_EQ(fi.functions[0].name, "real");
}

TEST(LintIndex, ExtractorRecordsDirectEvidencePerProperty) {
  const std::string src =
      "void a(std::vector<int>& v) { v.push_back(1); }\n"
      "double c() { return std::chrono::steady_clock::now()"
      ".time_since_epoch().count(); }\n"
      "int u(const std::unordered_map<int, int>& m) {\n"
      "  int s = 0;\n"
      "  for (const auto& kv : m) s += kv.second;\n"
      "  return s;\n"
      "}\n"
      "double r(Pcg32& rng) { return rng.uniform(); }\n";
  FileIndex fi = index_source("t.cpp", src);
  ASSERT_EQ(fi.functions.size(), 4u);
  auto ev = [&](const char* fn, Prop p) {
    const FunctionDef* d = find_fn(fi, fn);
    return d == nullptr ? dimmer::lint::DirectEvidence{}
                        : d->direct[static_cast<int>(p)];
  };
  EXPECT_EQ(ev("a", Prop::kAllocate).line, 1);
  EXPECT_EQ(ev("a", Prop::kAllocate).token, "push_back");
  EXPECT_EQ(ev("c", Prop::kClock).line, 2);
  EXPECT_EQ(ev("c", Prop::kClock).token, "steady_clock");
  EXPECT_EQ(ev("u", Prop::kUnorderedIter).line, 5);
  EXPECT_EQ(ev("r", Prop::kDrawRng).line, 8);
  EXPECT_EQ(ev("r", Prop::kDrawRng).token, "uniform");
  // No cross-talk: the clock function has no allocation evidence, etc.
  EXPECT_EQ(ev("c", Prop::kAllocate).line, 0);
  EXPECT_EQ(ev("a", Prop::kClock).line, 0);
}

TEST(LintIndex, ExtractorParsesPureAnnotationsAndPcgParams) {
  const std::string src =
      "// dimmer-lint: pure(may-allocate, may-touch-clock)\n"
      "void trusted(std::vector<int>& v) { v.push_back(1); }\n"
      "void takes(Pcg32& rng, const Pcg32* aux) {}\n"
      "void plain(int x) {}\n";
  FileIndex fi = index_source("t.cpp", src);
  const FunctionDef* t = find_fn(fi, "trusted");
  ASSERT_NE(t, nullptr);
  EXPECT_TRUE(t->trusted[static_cast<int>(Prop::kAllocate)]);
  EXPECT_TRUE(t->trusted[static_cast<int>(Prop::kClock)]);
  EXPECT_FALSE(t->trusted[static_cast<int>(Prop::kUnorderedIter)]);
  const FunctionDef* k = find_fn(fi, "takes");
  ASSERT_NE(k, nullptr);
  EXPECT_TRUE(k->takes_pcg);
  EXPECT_EQ(k->pcg_params, (std::vector<std::string>{"rng", "aux"}));
  const FunctionDef* p = find_fn(fi, "plain");
  ASSERT_NE(p, nullptr);
  EXPECT_FALSE(p->takes_pcg);
  for (bool b : p->trusted) EXPECT_FALSE(b);
}

TEST(LintIndex, ExtractorRecordsCallsDedupedAndRefs) {
  const std::string src =
      "void caller() {\n"
      "  helper();\n"
      "  helper();\n"
      "  other(1);\n"
      "  install(&callback);\n"
      "  auto fp = handler;\n"
      "}\n";
  FileIndex fi = index_source("t.cpp", src);
  const FunctionDef* c = find_fn(fi, "caller");
  ASSERT_NE(c, nullptr);
  std::vector<std::string> call_names;
  for (const auto& [name, line] : c->calls) call_names.push_back(name);
  // helper deduped to one entry; install is itself a call.
  EXPECT_EQ(std::count(call_names.begin(), call_names.end(), "helper"), 1);
  EXPECT_NE(std::find(call_names.begin(), call_names.end(), "other"),
            call_names.end());
  std::vector<std::string> ref_names;
  for (const auto& [name, line] : c->refs) ref_names.push_back(name);
  EXPECT_NE(std::find(ref_names.begin(), ref_names.end(), "callback"),
            ref_names.end());
  EXPECT_NE(std::find(ref_names.begin(), ref_names.end(), "handler"),
            ref_names.end());
}

// ---------------------------------------------------------------------------
// Fixpoint propagation
// ---------------------------------------------------------------------------

TEST(LintIndex, FixpointPropagatesThroughThreeHopChain) {
  const std::string src =
      "void leaf(std::vector<int>& v) { v.push_back(1); }\n"
      "void mid(std::vector<int>& v) { leaf(v); }\n"
      "void top(std::vector<int>& v) { mid(v); }\n";
  CallGraph g = build_call_graph({index_source("t.cpp", src)});
  int top = node_of(g, "top");
  ASSERT_GE(top, 0);
  EXPECT_TRUE(g.has(top, Prop::kAllocate));
  EXPECT_FALSE(g.has(top, Prop::kClock));
  EXPECT_EQ(g.chain(top, Prop::kAllocate),
            "top -> mid -> leaf (`push_back` at t.cpp:1)");
}

TEST(LintIndex, TrustCutsPropagationButStaysVisibleAsRawHas) {
  const std::string src =
      "void leaf(std::vector<int>& v) { v.push_back(1); }\n"
      "// dimmer-lint: pure(may-allocate)\n"
      "void mid(std::vector<int>& v) { leaf(v); }\n"
      "void top(std::vector<int>& v) { mid(v); }\n";
  CallGraph g = build_call_graph({index_source("t.cpp", src)});
  int mid = node_of(g, "mid");
  int top = node_of(g, "top");
  ASSERT_GE(mid, 0);
  ASSERT_GE(top, 0);
  // The annotation masks a real propagated property (raw_has) but stops it
  // escaping to callers (has).
  EXPECT_TRUE(g.raw_has(mid, Prop::kAllocate));
  EXPECT_FALSE(g.has(mid, Prop::kAllocate));
  EXPECT_FALSE(g.raw_has(top, Prop::kAllocate));
}

TEST(LintIndex, RefEdgesWidenFunctionPointers) {
  const std::string src =
      "void sink(std::vector<int>& v) { v.push_back(1); }\n"
      "void installer() { enqueue(&sink); }\n";
  CallGraph g = build_call_graph({index_source("t.cpp", src)});
  int inst = node_of(g, "installer");
  ASSERT_GE(inst, 0);
  EXPECT_TRUE(g.has(inst, Prop::kAllocate));
  // Ref edges render as ~> so a chain shows *how* the property traveled.
  EXPECT_EQ(g.chain(inst, Prop::kAllocate),
            "installer ~> sink (`push_back` at t.cpp:1)");
}

TEST(LintIndex, RecursionReachesFixpointWithoutHanging) {
  const std::string src =
      "void ping(std::vector<int>& v) { pong(v); }\n"
      "void pong(std::vector<int>& v) { ping(v); v.push_back(1); }\n";
  CallGraph g = build_call_graph({index_source("t.cpp", src)});
  int ping = node_of(g, "ping");
  ASSERT_GE(ping, 0);
  EXPECT_TRUE(g.has(ping, Prop::kAllocate));
  // The chain terminates at direct evidence even through the cycle.
  std::string chain = g.chain(ping, Prop::kAllocate);
  EXPECT_NE(chain.find("`push_back` at t.cpp:2"), std::string::npos) << chain;
}

// ---------------------------------------------------------------------------
// Transitive rules over the fixture tree: every property fires through a
// 2-deep cross-TU chain, pure() suppresses (visibly), virtual dispatch
// widens, and may-draw-rng deliberately does NOT fire hot-path rules.
// ---------------------------------------------------------------------------

TEST(LintTransitive, HotRegionReachesEachPropertyThroughTwoHopChains) {
  TransitiveFixtures fx;
  auto fs = fx.scan("fixtures/transitive/hot_caller.cpp");
  EXPECT_EQ(lines_of(fs, "hot-no-alloc", false), (std::vector<int>{12}));
  EXPECT_EQ(lines_of(fs, "det-clock", false), (std::vector<int>{13}));
  EXPECT_EQ(lines_of(fs, "det-umap-iter", false), (std::vector<int>{14}));
  // may-draw-rng propagates in the graph but is not a hot-path violation:
  // floods draw protocol randomness by design.
  EXPECT_EQ(lines_of(fs, "rng-discipline", false), (std::vector<int>{}));
  for (const auto& f : fs) EXPECT_NE(f.line, 15) << f.rule << ": " << f.message;
  // The finding names the full chain down to the direct evidence.
  for (const auto& f : fs) {
    if (f.rule != "hot-no-alloc") continue;
    EXPECT_NE(
        f.message.find(
            "alloc_mid -> alloc_leaf (`push_back` at "
            "fixtures/transitive/helpers_alloc.cpp:5)"),
        std::string::npos)
        << f.message;
  }
}

TEST(LintTransitive, RngPropertyStillPropagatesInTheGraph) {
  TransitiveFixtures fx;
  int mid = node_of(fx.graph, "rng_mid");
  ASSERT_GE(mid, 0);
  EXPECT_TRUE(fx.graph.has(mid, Prop::kDrawRng));
  EXPECT_EQ(fx.graph.chain(mid, Prop::kDrawRng),
            "rng_mid -> rng_leaf (`uniform` at "
            "fixtures/transitive/helpers_rng.cpp:6)");
}

TEST(LintTransitive, PureAnnotationSuppressesTwoHopChainVisibly) {
  TransitiveFixtures fx;
  auto fs = fx.scan("fixtures/transitive/trusted_alloc.cpp");
  // The hot region is clean: t_alloc_mid's pure(may-allocate) cut the chain.
  EXPECT_EQ(lines_of(fs, "hot-no-alloc", false), (std::vector<int>{}));
  // But the sanction itself is reported — suppressed — at the definition.
  auto suppressed = lines_of(fs, "hot-no-alloc", true);
  ASSERT_EQ(suppressed, (std::vector<int>{9}));
  for (const auto& f : fs) {
    if (f.line != 9 || f.rule != "hot-no-alloc") continue;
    EXPECT_NE(f.message.find("`pure(may-allocate)` trust annotation"),
              std::string::npos)
        << f.message;
    EXPECT_NE(f.message.find("t_alloc_mid -> t_alloc_leaf"),
              std::string::npos)
        << f.message;
  }
}

// The library under src/ links nothing from bench/, examples/ or tools/, so
// a call made in src/ resolves only to src/ definitions: a bench/ helper
// that happens to share a name with the callee does not reach the hot
// region or trip rng-discipline, but a src/ one still does.
TEST(LintTransitive, SrcCallsResolveOnlyToSrcDefinitions) {
  const std::string engine =
      "void run_step(Reception& reception) {\n"
      "  // dimmer-lint: hot-path begin\n"
      "  reception.decide(1);\n"
      "  // dimmer-lint: hot-path end\n"
      "}\n";
  const std::string growing_decide =
      "int decide(std::vector<int>& v) { v.push_back(1); return 0; }\n";
  const std::string bench_caller =
      "void probe_step(Controller& c) { c.decide(2); }\n";

  // Only bench/ defines an allocating `decide`: no finding, and the src/
  // caller does not inherit the property. A bench/ caller still reaches it.
  {
    CallGraph g = build_call_graph(
        {index_source("src/flood/engine.cpp", engine),
         index_source("bench/perf/probe.cpp", growing_decide),
         index_source("bench/perf/workloads.cpp", bench_caller)});
    EXPECT_FALSE(g.has(node_of(g, "run_step"), Prop::kAllocate));
    EXPECT_TRUE(g.has(node_of(g, "probe_step"), Prop::kAllocate));
    auto fs = dimmer::lint::scan_source("src/flood/engine.cpp", engine, &g);
    EXPECT_EQ(lines_of(fs, "hot-no-alloc", false), (std::vector<int>{}));
  }
  // An allocating src/ `decide`: the same call gets the chain.
  {
    CallGraph g = build_call_graph(
        {index_source("src/flood/engine.cpp", engine),
         index_source("bench/perf/probe.cpp", growing_decide),
         index_source("src/phy/reception.cpp", growing_decide)});
    EXPECT_TRUE(g.has(node_of(g, "run_step"), Prop::kAllocate));
    auto fs = dimmer::lint::scan_source("src/flood/engine.cpp", engine, &g);
    ASSERT_EQ(lines_of(fs, "hot-no-alloc", false), (std::vector<int>{3}));
    for (const auto& f : fs) {
      if (f.rule != "hot-no-alloc") continue;
      EXPECT_NE(f.message.find("decide (`push_back` at src/phy/reception.cpp:1)"),
                std::string::npos)
          << f.message;
      EXPECT_EQ(f.message.find("bench/"), std::string::npos) << f.message;
    }
  }
  // rng-discipline (b) resolves the same way: a protocol call into a bench/
  // function that takes a Pcg32 finds no definition, so it cannot fire. A
  // src/fault/ definition of the same function does.
  const std::string proto =
      "struct Pcg32;\n"
      "void run_round(Pcg32& rng) { consume_noise(rng); }\n";
  const std::string consumer =
      "struct Pcg32;\n"
      "double consume_noise(Pcg32& rng) { return 0.0; }\n";
  {
    CallGraph g = build_call_graph(
        {index_source("src/flood/proto.cpp", proto),
         index_source("bench/perf/probe.cpp", consumer)});
    auto fs = dimmer::lint::scan_source("src/flood/proto.cpp", proto, &g);
    EXPECT_EQ(lines_of(fs, "rng-discipline", false), (std::vector<int>{}));
  }
  {
    CallGraph g = build_call_graph(
        {index_source("src/flood/proto.cpp", proto),
         index_source("bench/perf/probe.cpp", consumer),
         index_source("src/fault/consumer.cpp", consumer)});
    auto fs = dimmer::lint::scan_source("src/flood/proto.cpp", proto, &g);
    EXPECT_EQ(lines_of(fs, "rng-discipline", false), (std::vector<int>{2}));
  }
}

TEST(LintTransitive, VirtualDispatchWidensToTheAllocatingOverride) {
  TransitiveFixtures fx;
  // The override is flagged virtual in the index.
  int step = node_of(fx.graph, "step");
  ASSERT_GE(step, 0);
  EXPECT_TRUE(
      fx.graph.nodes()[static_cast<std::size_t>(step)].def.is_virtual);
  // Calling through the Sink base reaches GrowingSink::step by name.
  auto fs = fx.scan("fixtures/transitive/virtual_widen.cpp");
  EXPECT_EQ(lines_of(fs, "hot-no-alloc", false), (std::vector<int>{16}));
  for (const auto& f : fs) {
    if (f.rule != "hot-no-alloc" || f.suppressed) continue;
    EXPECT_NE(f.message.find("GrowingSink::step"), std::string::npos)
        << f.message;
  }
}
