// exp/journal.hpp: append-only JSONL journals must replay cleanly after any
// kill — torn tails dropped, real corruption loud, one writer at a time.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <fstream>
#include <sstream>
#include <string>

#include "exp/journal.hpp"
#include "exp/serialize.hpp"
#include "util/check.hpp"

using dimmer::exp::AppendLog;
using dimmer::exp::attempt_record;
using dimmer::exp::done_record;
using dimmer::exp::failed_record;
using dimmer::exp::LogLockedError;
using dimmer::exp::replay_attempts;
using dimmer::exp::replay_journal;
using dimmer::exp::TrialResult;

namespace {

std::string make_temp_dir() {
  std::string tmpl = ::testing::TempDir() + "dimmer_journal_XXXXXX";
  char* got = mkdtemp(tmpl.data());
  EXPECT_NE(got, nullptr);
  return tmpl;
}

TrialResult result_with(double reliability) {
  TrialResult r;
  r.metrics["reliability"] = reliability;
  return r;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace

TEST(Journal, PathsAreZeroPadded) {
  EXPECT_EQ(dimmer::exp::shard_journal_path("d", 0), "d/shard_000.jsonl");
  EXPECT_EQ(dimmer::exp::shard_journal_path("d", 42), "d/shard_042.jsonl");
  EXPECT_EQ(dimmer::exp::shard_attempts_path("d", 7),
            "d/shard_007.attempts.jsonl");
}

TEST(Journal, AppendThenReplay) {
  const std::string path = make_temp_dir() + "/shard_000.jsonl";
  {
    AppendLog log(path);
    log.append_line(done_record(0, 111, result_with(0.9)));
    log.append_line(done_record(2, 222, result_with(0.8)));
    TrialResult failed;
    failed.ok = false;
    failed.error = "campaign: trial exceeded attempt budget (3 attempts)";
    log.append_line(failed_record(4, 444, failed));
  }
  const auto rep = replay_journal(path);
  EXPECT_EQ(rep.torn_bytes, 0u);
  ASSERT_EQ(rep.records.size(), 3u);
  EXPECT_FALSE(rep.records.at(0).failed);
  EXPECT_EQ(rep.records.at(0).digest, 111u);
  EXPECT_DOUBLE_EQ(rep.records.at(2).result.metrics.at("reliability"), 0.8);
  EXPECT_TRUE(rep.records.at(4).failed);
  EXPECT_FALSE(rep.records.at(4).result.ok);
}

TEST(Journal, MissingFileIsEmpty) {
  const auto rep = replay_journal(make_temp_dir() + "/never_written.jsonl");
  EXPECT_TRUE(rep.records.empty());
  EXPECT_EQ(rep.torn_bytes, 0u);
}

TEST(Journal, TornTailIsDroppedAndRepaired) {
  const std::string path = make_temp_dir() + "/shard_000.jsonl";
  { AppendLog(path).append_line(done_record(0, 1, result_with(0.5))); }
  // Simulate the kill moment: a record fragment with no terminating newline.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "{\"type\": \"done\", \"trial\": 1, \"TORNFRAG";
  }
  auto rep = replay_journal(path);
  EXPECT_EQ(rep.records.size(), 1u);
  EXPECT_GT(rep.torn_bytes, 0u);

  // Re-opening the log truncates the fragment; the next append lands on a
  // clean prefix and replay sees both records, no torn bytes.
  { AppendLog(path).append_line(done_record(1, 2, result_with(0.6))); }
  rep = replay_journal(path);
  EXPECT_EQ(rep.records.size(), 2u);
  EXPECT_EQ(rep.torn_bytes, 0u);
  EXPECT_EQ(slurp(path).find("TORNFRAG"), std::string::npos);
}

TEST(Journal, MidFileCorruptionThrows) {
  const std::string path = make_temp_dir() + "/shard_000.jsonl";
  {
    std::ofstream out(path, std::ios::binary);
    out << done_record(0, 1, result_with(0.5)) << "\n";
    out << "!! not json !!\n";
    out << done_record(1, 2, result_with(0.6)) << "\n";
  }
  // A *terminated* unparsable line is an integrity failure, not a torn tail.
  EXPECT_THROW(replay_journal(path), std::exception);
}

TEST(Journal, DuplicateTrialRecordThrows) {
  const std::string path = make_temp_dir() + "/shard_000.jsonl";
  {
    AppendLog log(path);
    log.append_line(done_record(3, 1, result_with(0.5)));
    log.append_line(done_record(3, 1, result_with(0.5)));
  }
  EXPECT_THROW(replay_journal(path), dimmer::util::RequireError);
}

TEST(Journal, RejectsEmbeddedNewline) {
  const std::string path = make_temp_dir() + "/shard_000.jsonl";
  AppendLog log(path);
  EXPECT_THROW(log.append_line("two\nlines"), dimmer::util::RequireError);
}

TEST(Journal, SecondWriterIsLockedOut) {
  const std::string path = make_temp_dir() + "/shard_000.jsonl";
  AppendLog first(path);
  EXPECT_THROW(AppendLog second(path), LogLockedError);
}

TEST(Journal, AttemptsReplayTracksHighestAndEnforcesOrder) {
  const std::string dir = make_temp_dir();
  const std::string path = dir + "/shard_000.attempts.jsonl";
  {
    AppendLog log(path);
    log.append_line(attempt_record(0, 1));
    log.append_line(attempt_record(5, 1));
    log.append_line(attempt_record(5, 2));
    log.append_line(attempt_record(5, 3));
  }
  const auto rep = replay_attempts(path);
  EXPECT_EQ(rep.attempts.at(0), 1);
  EXPECT_EQ(rep.attempts.at(5), 3);

  const std::string bad = dir + "/bad.attempts.jsonl";
  {
    AppendLog log(bad);
    log.append_line(attempt_record(2, 1));
    log.append_line(attempt_record(2, 3));  // skipped attempt 2
  }
  EXPECT_THROW(replay_attempts(bad), dimmer::util::RequireError);
}

TEST(Journal, AttemptsReplayRejectsAttemptOutsideInt) {
  // 2^32 + 1 used to wrap to attempt 1, a valid first attempt.
  const std::string path = make_temp_dir() + "/shard_000.attempts.jsonl";
  {
    AppendLog log(path);
    log.append_line("{\"trial\": 0, \"attempt\": 4294967297}");
  }
  EXPECT_THROW(replay_attempts(path), dimmer::util::RequireError);
}
