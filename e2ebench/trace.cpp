// Span recorder of the traced run and its Chrome trace-event writer.
#include <cstdio>

#include "e2ebench/e2e.hpp"

namespace e2e {

int Tracer::begin(const std::string& name, int parent, std::uint64_t request, int tid) {
  const double now = seconds_between(epoch_, Clock::now());
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, now, now, parent, request, tid});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int span) {
  const double now = seconds_between(epoch_, Clock::now());
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(span)].end_s = now;
}

int Tracer::add(const std::string& name, int parent, std::uint64_t request, int tid,
                Clock::time_point start, Clock::time_point end) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, seconds_between(epoch_, start), seconds_between(epoch_, end),
                        parent, request, tid});
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0) child_s[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double dur = spans_[i].end_s - spans_[i].start_s;
    Totals& t = out[spans_[i].name];
    ++t.count;
    t.total_s += dur;
    t.self_s += dur - child_s[i];
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path, const std::string& meta) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"otherData\": %s,\n\"traceEvents\": [\n",
               meta.c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, "
                 "\"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": %d, \"request\": %llu}}%s\n",
                 s.name.c_str(), s.tid, 1e6 * s.start_s, 1e6 * (s.end_s - s.start_s), i,
                 s.parent, static_cast<unsigned long long>(s.request),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace e2e
