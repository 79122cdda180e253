#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <thread>

namespace perfbench {

Tracer::Tracer() : epoch_(Clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

int Tracer::thread_index() {
  const std::size_t h = std::hash<std::thread::id>{}(std::this_thread::get_id());
  const auto [it, fresh] = tids_.emplace(h, static_cast<int>(tids_.size()) + 1);
  (void)fresh;
  return it->second;
}

std::uint64_t Tracer::begin(const char* name, std::uint64_t parent,
                            std::uint64_t request) {
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.name = name;
  s.start_ns = t;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.request = request;
  s.tid = thread_index();
  spans_.push_back(s);
  open_.emplace(s.id, spans_.size() - 1);
  return s.id;
}

void Tracer::end(std::uint64_t id) {
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = open_.find(id);
  if (it == open_.end()) return;
  spans_[it->second].end_ns = t;
  open_.erase(it);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> closed;
  closed.reserve(spans_.size());
  for (const Span& s : spans_)
    if (open_.count(s.id) == 0) closed.push_back(s);
  return closed;
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    const auto p = index.find(s.parent);
    if (s.parent == 0 || p == index.end()) continue;
    const Span& parent = spans[p->second];
    const std::int64_t a = std::max(s.start_ns, parent.start_ns);
    const std::int64_t b = std::min(s.end_ns, parent.end_ns);
    if (b > a) children[p->second].emplace_back(a, b);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_a = 0, cur_b = -1;
    for (const auto& [a, b] : iv) {
      if (a > cur_b) {
        if (cur_b > cur_a) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (cur_b > cur_a) covered += cur_b - cur_a;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

std::map<std::string, Tracer::LayerTotals> Tracer::totals() const {
  const std::vector<Span> all = spans();
  const std::vector<std::int64_t> self = self_times_ns(all);
  std::map<std::string, LayerTotals> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    LayerTotals& t = out[all[i].name];
    t.self_s += static_cast<double>(self[i]) * 1e-9;
    t.total_s += static_cast<double>(all[i].end_ns - all[i].start_ns) * 1e-9;
    ++t.count;
  }
  return out;
}

bool Tracer::write_chrome_json(
    const std::string& path,
    const std::map<std::string, std::string>& metadata) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<Span> all = spans();
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{";
  bool first_meta = true;
  for (const auto& [k, v] : metadata) {
    out << (first_meta ? "\"" : ",\"") << k << "\":\"" << v << "\"";
    first_meta = false;
  }
  out << "},\"traceEvents\":[\n";
  char buf[512];
  bool first = true;
  for (const Span& s : all) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                  "\"args\":{\"id\":%llu,\"parent\":%llu,\"request\":%llu}}",
                  first ? "" : ",\n", s.name,
                  static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.tid,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request));
    out << buf;
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
