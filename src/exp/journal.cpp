#include "exp/journal.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "exp/serialize.hpp"
#include "util/check.hpp"
#include "util/json_parse.hpp"

namespace dimmer::exp {

namespace {

std::string errno_message(const std::string& what, const std::string& path) {
  return what + " '" + path + "': " + std::strerror(errno);
}

std::string shard_file(const std::string& dir, int shard, const char* suffix) {
  DIMMER_REQUIRE(shard >= 0 && shard <= 999, "shard index out of [0, 999]");
  char name[32];
  std::snprintf(name, sizeof(name), "shard_%03d", shard);
  return dir + "/" + name + suffix;
}

/// Reads a whole file; returns false if it does not exist, throws on any
/// other error.
bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return false;
  std::ostringstream os;
  os << in.rdbuf();
  DIMMER_REQUIRE(!in.bad(), "journal: read failed for '" + path + "'");
  *out = os.str();
  return true;
}

/// Splits `text` into terminated lines; the length of an unterminated tail
/// fragment (if any) goes to *torn_bytes.
std::vector<std::string> split_lines(const std::string& text,
                                     std::size_t* torn_bytes) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t nl = text.find('\n', start);
    if (nl == std::string::npos) {
      *torn_bytes = text.size() - start;
      break;
    }
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

}  // namespace

std::string shard_journal_path(const std::string& dir, int shard) {
  return shard_file(dir, shard, ".jsonl");
}

std::string shard_attempts_path(const std::string& dir, int shard) {
  return shard_file(dir, shard, ".attempts.jsonl");
}

AppendLog::AppendLog(std::string path) : path_(std::move(path)) {
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  DIMMER_REQUIRE(fd_ >= 0, errno_message("journal: cannot open", path_));
  if (::flock(fd_, LOCK_EX | LOCK_NB) != 0) {
    int err = errno;
    ::close(fd_);
    fd_ = -1;
    if (err == EWOULDBLOCK)
      throw LogLockedError("journal: another writer holds '" + path_ + "'");
    errno = err;
    DIMMER_REQUIRE(false, errno_message("journal: flock failed on", path_));
  }
  // Repair a torn tail left by a killed predecessor: truncate back to the
  // last terminated record so the next append starts on a clean boundary.
  struct stat st{};
  DIMMER_REQUIRE(::fstat(fd_, &st) == 0,
                 errno_message("journal: fstat failed on", path_));
  off_t size = st.st_size;
  off_t keep = size;
  while (keep > 0) {
    char c = 0;
    DIMMER_REQUIRE(::pread(fd_, &c, 1, keep - 1) == 1,
                   errno_message("journal: pread failed on", path_));
    if (c == '\n') break;
    --keep;
  }
  if (keep != size) {
    DIMMER_REQUIRE(::ftruncate(fd_, keep) == 0,
                   errno_message("journal: ftruncate failed on", path_));
    DIMMER_REQUIRE(::fsync(fd_) == 0,
                   errno_message("journal: fsync failed on", path_));
  }
}

AppendLog::~AppendLog() {
  if (fd_ >= 0) ::close(fd_);  // releases the flock
}

void AppendLog::append_line(const std::string& line) {
  DIMMER_REQUIRE(fd_ >= 0, "journal: append on a closed log");
  DIMMER_REQUIRE(line.find('\n') == std::string::npos,
                 "journal: record must be a single line");
  std::string rec = line + "\n";
  // One write(2) for the whole record: O_APPEND makes it land contiguously
  // at EOF, so a kill leaves either the full line or a torn tail that the
  // next writer truncates — never an interleaved or silently-half record.
  std::size_t off = 0;
  while (off < rec.size()) {
    ssize_t n = ::write(fd_, rec.data() + off, rec.size() - off);
    if (n < 0 && errno == EINTR) continue;
    DIMMER_REQUIRE(n > 0, errno_message("journal: write failed on", path_));
    off += static_cast<std::size_t>(n);
  }
  DIMMER_REQUIRE(::fsync(fd_) == 0,
                 errno_message("journal: fsync failed on", path_));
}

namespace {
std::string record_json(const char* type, std::size_t trial,
                        std::uint64_t digest, const TrialResult& result) {
  std::ostringstream os;
  os << "{\"type\": \"" << type << "\", \"trial\": " << trial
     << ", \"digest\": " << digest
     << ", \"result\": " << result_to_json(result) << "}";
  return os.str();
}
}  // namespace

std::string done_record(std::size_t trial, std::uint64_t digest,
                        const TrialResult& result) {
  return record_json("done", trial, digest, result);
}

std::string failed_record(std::size_t trial, std::uint64_t digest,
                          const TrialResult& result) {
  return record_json("failed", trial, digest, result);
}

JournalReplay replay_journal(const std::string& path) {
  JournalReplay out;
  std::string text;
  if (!read_file(path, &text)) return out;
  const std::vector<std::string> lines = split_lines(text, &out.torn_bytes);
  for (std::size_t ln = 0; ln < lines.size(); ++ln) {
    util::json::Value v;
    try {
      v = util::json::parse(lines[ln]);
    } catch (const util::json::JsonParseError& e) {
      // A terminated-but-unparsable line is mid-file corruption, not a torn
      // kill tail: refuse to resume on top of it.
      DIMMER_REQUIRE(false, "journal: corrupt record at " + path + ":" +
                                std::to_string(ln + 1) + ": " + e.what());
    }
    const std::string& type = v.at("type").as_string();
    DIMMER_REQUIRE(type == "done" || type == "failed",
                   "journal: unknown record type '" + type + "' in " + path);
    std::size_t trial = static_cast<std::size_t>(v.at("trial").as_u64());
    DIMMER_REQUIRE(out.records.find(trial) == out.records.end(),
                   "journal: duplicate record for trial " +
                       std::to_string(trial) + " in " + path);
    JournalRecord rec;
    rec.failed = (type == "failed");
    rec.digest = v.at("digest").as_u64();
    rec.result = result_from_value(v.at("result"));
    out.records.emplace(trial, std::move(rec));
  }
  return out;
}

std::string attempt_record(std::size_t trial, int attempt) {
  std::ostringstream os;
  os << "{\"trial\": " << trial << ", \"attempt\": " << attempt << "}";
  return os.str();
}

AttemptsReplay replay_attempts(const std::string& path) {
  AttemptsReplay out;
  std::string text;
  if (!read_file(path, &text)) return out;
  const std::vector<std::string> lines = split_lines(text, &out.torn_bytes);
  for (std::size_t ln = 0; ln < lines.size(); ++ln) {
    util::json::Value v;
    try {
      v = util::json::parse(lines[ln]);
    } catch (const util::json::JsonParseError& e) {
      DIMMER_REQUIRE(false, "attempts: corrupt record at " + path + ":" +
                                std::to_string(ln + 1) + ": " + e.what());
    }
    std::size_t trial = static_cast<std::size_t>(v.at("trial").as_u64());
    int attempt = v.at("attempt").as_int();
    DIMMER_REQUIRE(attempt >= 1, "attempts: attempt must be >= 1 in " + path);
    int& slot = out.attempts[trial];
    DIMMER_REQUIRE(attempt == slot + 1,
                   "attempts: non-consecutive attempt for trial " +
                       std::to_string(trial) + " in " + path);
    slot = attempt;
  }
  return out;
}

}  // namespace dimmer::exp
