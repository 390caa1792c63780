#include "obs/trace.hpp"

#include <sstream>

#include "util/check.hpp"
#include "util/json.hpp"

namespace dimmer::obs {

std::string TraceEvent::to_jsonl() const {
  std::ostringstream os;
  os << "{\"event\": " << util::json_quote(kind) << ", \"round\": " << round
     << ", \"t_us\": " << t_us << ", \"node\": " << node;
  if (!fields.empty()) {
    os << ", \"fields\": {";
    for (std::size_t i = 0; i < fields.size(); ++i)
      os << (i ? ", " : "") << util::json_quote(fields[i].first) << ": "
         << util::json_number(fields[i].second);
    os << "}";
  }
  if (!tags.empty()) {
    os << ", \"tags\": {";
    for (std::size_t i = 0; i < tags.size(); ++i)
      os << (i ? ", " : "") << util::json_quote(tags[i].first) << ": "
         << util::json_quote(tags[i].second);
    os << "}";
  }
  os << "}";
  return os.str();
}

// ---- RingBufferSink --------------------------------------------------------

RingBufferSink::RingBufferSink(std::size_t capacity) : cap_(capacity) {
  DIMMER_REQUIRE(capacity > 0, "ring buffer capacity must be positive");
  buf_.reserve(capacity);
}

void RingBufferSink::emit(const TraceEvent& e) {
  ++total_;
  if (buf_.size() < cap_) {
    buf_.push_back(e);
    return;
  }
  buf_[head_] = e;
  head_ = (head_ + 1) % cap_;
}

std::vector<TraceEvent> RingBufferSink::events() const {
  std::vector<TraceEvent> out;
  out.reserve(buf_.size());
  for (std::size_t i = 0; i < buf_.size(); ++i)
    out.push_back(buf_[(head_ + i) % buf_.size()]);
  return out;
}

void RingBufferSink::clear() {
  buf_.clear();
  head_ = 0;
  total_ = 0;
}

// ---- JsonlFileSink ---------------------------------------------------------

JsonlFileSink::JsonlFileSink(const std::string& path)
    : path_(path), file_(path, std::ios::out | std::ios::trunc) {
  DIMMER_REQUIRE(file_.good(), "cannot open trace file for writing: " + path);
  out_ = &file_;
}

JsonlFileSink::JsonlFileSink(std::unique_ptr<std::ostream> out,
                             std::string label)
    : path_(std::move(label)), owned_(std::move(out)) {
  DIMMER_REQUIRE(owned_ != nullptr, "JsonlFileSink needs a stream");
  out_ = owned_.get();
}

void JsonlFileSink::emit(const TraceEvent& e) {
  // Serialize outside the lock; only the write itself is serialized so that
  // parallel trials sharing this sink never tear a line.
  std::string line = e.to_jsonl();
  line += '\n';
  std::lock_guard<std::mutex> lock(mu_);
  if (failed_) {
    ++dropped_;
    return;
  }
  *out_ << line;
  if (out_->fail()) {
    // First failed write: latch the failure and stop touching the stream.
    // The half-written line (if any) is the last output this sink produces.
    failed_ = true;
    ++dropped_;
    return;
  }
  ++lines_;
}

// ---- TaggedSink ------------------------------------------------------------

TaggedSink::TaggedSink(TraceSink* parent, std::string key, std::string value)
    : parent_(parent), key_(std::move(key)), value_(std::move(value)) {
  DIMMER_REQUIRE(parent != nullptr, "TaggedSink needs a parent sink");
}

void TaggedSink::emit(const TraceEvent& e) {
  TraceEvent tagged = e;
  tagged.tag(key_, value_);
  parent_->emit(tagged);
}

}  // namespace dimmer::obs
