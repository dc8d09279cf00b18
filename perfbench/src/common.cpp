#include "common.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace perfbench {

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n <= 10) return {v.back(), 100.0};
  return {v[n - 11], 100.0 * static_cast<double>(n - 10) / n};
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof(esc), "\\u%04x", c);
      out += esc;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

double Tracer::now_us() const { return 1e6 * seconds_since(origin_); }

Tracer::Span Tracer::span(std::string name) {
  if (!enabled_) return Span(nullptr, 0);
  const std::size_t parent = open_.empty() ? 0 : open_.back();
  records_.push_back({std::move(name), now_us(), 0.0, parent});
  const std::size_t id = records_.size();
  open_.push_back(id);
  return Span(this, id);
}

void Tracer::close(std::size_t id) {
  records_[id - 1].end_us = now_us();
  // Spans close in reverse order of opening: they are scoped objects.
  open_.pop_back();
}

bool Tracer::write(const std::string& path, const std::string& workload) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [", f);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    const std::string parent =
        r.parent == 0 ? "null" : json_string(records_[r.parent - 1].name);
    std::fprintf(f,
                 "%s\n{\"name\": %s, \"cat\": \"perfbench\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %s, \"dur\": %s, \"args\": "
                 "{\"id\": %zu, \"parent_id\": %zu, \"parent\": %s, "
                 "\"workload\": %s}}",
                 i == 0 ? "" : ",", json_string(r.name).c_str(),
                 json_number(r.start_us).c_str(),
                 json_number(r.end_us - r.start_us).c_str(), i + 1, r.parent,
                 parent.c_str(), json_string(workload).c_str());
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
