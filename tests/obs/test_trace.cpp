// TraceEvent serialization and the three TraceSink implementations.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "util/check.hpp"
#include "util/json_parse.hpp"

namespace dimmer::obs {
namespace {

TEST(TraceEvent, JsonlContainsHeaderAndFields) {
  TraceEvent e;
  e.kind = "flood";
  e.round = 42;
  e.t_us = 168000;
  e.node = 3;
  e.f("receivers", 17).f("delivery_ratio", 0.5);
  e.tag("scenario", "dimmer");

  std::string line = e.to_jsonl();
  EXPECT_NO_THROW(util::json::parse(line)) << line;
  EXPECT_NE(line.find("\"event\": \"flood\""), std::string::npos);
  EXPECT_NE(line.find("\"round\": 42"), std::string::npos);
  EXPECT_NE(line.find("\"t_us\": 168000"), std::string::npos);
  EXPECT_NE(line.find("\"node\": 3"), std::string::npos);
  EXPECT_NE(line.find("\"receivers\": 17"), std::string::npos);
  EXPECT_NE(line.find("\"scenario\": \"dimmer\""), std::string::npos);
  EXPECT_EQ(line.find('\n'), std::string::npos);  // one line, no newline
}

TEST(TraceEvent, OmitsEmptySectionsAndEscapesStrings) {
  TraceEvent e;
  e.kind = "a\"b\nc";
  std::string line = e.to_jsonl();
  EXPECT_NO_THROW(util::json::parse(line)) << line;
  EXPECT_EQ(line.find("fields"), std::string::npos);
  EXPECT_EQ(line.find("tags"), std::string::npos);
  EXPECT_NE(line.find("\\\""), std::string::npos);
  EXPECT_NE(line.find("\\n"), std::string::npos);
}

TEST(TraceEvent, NonFiniteFieldsBecomeNull) {
  TraceEvent e;
  e.kind = "x";
  e.f("bad", std::numeric_limits<double>::infinity());
  std::string line = e.to_jsonl();
  EXPECT_NO_THROW(util::json::parse(line)) << line;
  EXPECT_NE(line.find("\"bad\": null"), std::string::npos);
}

TEST(RingBufferSink, KeepsMostRecentEvents) {
  RingBufferSink sink(3);
  for (int i = 0; i < 5; ++i) {
    TraceEvent e;
    e.kind = "e";
    e.round = static_cast<std::uint64_t>(i);
    sink.emit(e);
  }
  EXPECT_EQ(sink.size(), 3u);
  EXPECT_EQ(sink.total(), 5u);
  EXPECT_EQ(sink.dropped(), 2u);

  std::vector<TraceEvent> got = sink.events();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].round, 2u);  // oldest retained
  EXPECT_EQ(got[1].round, 3u);
  EXPECT_EQ(got[2].round, 4u);

  sink.clear();
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.dropped(), 0u);
}

TEST(RingBufferSink, RejectsZeroCapacity) {
  EXPECT_THROW(RingBufferSink(0), util::RequireError);
}

TEST(JsonlFileSink, WritesOneValidLinePerEvent) {
  std::string path = ::testing::TempDir() + "dimmer_trace_test.jsonl";
  {
    JsonlFileSink sink(path);
    for (int i = 0; i < 10; ++i) {
      TraceEvent e;
      e.kind = "round";
      e.round = static_cast<std::uint64_t>(i);
      e.f("reliability", 1.0 / (i + 1));
      sink.emit(e);
    }
    EXPECT_EQ(sink.lines(), 10u);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int n = 0;
  while (std::getline(in, line)) {
    EXPECT_NO_THROW(util::json::parse(line)) << line;
    ++n;
  }
  EXPECT_EQ(n, 10);
  std::remove(path.c_str());
}

TEST(JsonlFileSink, ThrowsOnUnopenablePath) {
  EXPECT_THROW(JsonlFileSink("/nonexistent-dir-zzz/trace.jsonl"),
               util::RequireError);
}

TEST(JsonlFileSink, RejectsNullStream) {
  EXPECT_THROW(JsonlFileSink(nullptr, "null-stream"), util::RequireError);
}

TEST(JsonlFileSink, WriteFailureLatchesAndDropsInsteadOfThrowing) {
  auto stream = std::make_unique<std::ostringstream>();
  std::ostringstream* raw = stream.get();
  JsonlFileSink sink(std::move(stream), "test-stream");
  EXPECT_EQ(sink.path(), "test-stream");

  TraceEvent e;
  e.kind = "round";
  sink.emit(e);
  sink.emit(e);
  EXPECT_EQ(sink.lines(), 2u);
  EXPECT_FALSE(sink.failed());
  EXPECT_EQ(sink.dropped(), 0u);

  // Simulate disk-full / closed-pipe: every write from now on fails. The
  // sink must degrade, not throw — observability can't take the sim down.
  raw->setstate(std::ios::badbit);
  EXPECT_NO_THROW(sink.emit(e));
  EXPECT_TRUE(sink.failed());
  EXPECT_EQ(sink.dropped(), 1u);

  // The failure is latched: even if the stream recovers, the sink stays
  // quiet (a half-written line must remain the final output).
  raw->clear();
  EXPECT_NO_THROW(sink.emit(e));
  EXPECT_EQ(sink.dropped(), 2u);
  EXPECT_EQ(sink.lines(), 2u);

  // The two good lines are intact and valid.
  std::istringstream in(raw->str());
  std::string line;
  int n = 0;
  while (std::getline(in, line)) {
    EXPECT_NO_THROW(util::json::parse(line)) << line;
    ++n;
  }
  EXPECT_EQ(n, 2);
}

TEST(TaggedSink, AppendsTagWithoutMutatingOriginal) {
  RingBufferSink ring(8);
  TaggedSink tagged(&ring, "scenario", "pid");
  TraceEvent e;
  e.kind = "round";
  tagged.emit(e);

  EXPECT_TRUE(e.tags.empty());  // original untouched
  std::vector<TraceEvent> got = ring.events();
  ASSERT_EQ(got.size(), 1u);
  ASSERT_EQ(got[0].tags.size(), 1u);
  EXPECT_EQ(got[0].tags[0].first, "scenario");
  EXPECT_EQ(got[0].tags[0].second, "pid");
}

TEST(TaggedSink, RejectsNullParent) {
  EXPECT_THROW(TaggedSink(nullptr, "k", "v"), util::RequireError);
}

TEST(Instrumentation, DefaultIsInactive) {
  Instrumentation instr;
  EXPECT_FALSE(instr.active());
  RingBufferSink ring(1);
  instr.trace = &ring;
  EXPECT_TRUE(instr.active());
}

}  // namespace
}  // namespace dimmer::obs
