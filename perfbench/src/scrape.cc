#include "scrape.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "topkpkg/obs/metrics.h"

namespace perfbench {

using topkpkg::Result;
using topkpkg::Status;

Snapshot ParseExposition(const std::string& text) {
  Snapshot out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    // Label values never contain a space, so the sample value follows the
    // last one.
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    const std::string key = line.substr(0, space);
    if (key.find("_bucket{") != std::string::npos) continue;
    out[key] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return out;
}

Snapshot TakeSnapshot() {
  return ParseExposition(
      topkpkg::obs::MetricsRegistry::Global().RenderPrometheusText());
}

namespace {

double SumFamily(const Snapshot& snap, const std::string& name) {
  double total = 0.0;
  for (auto it = snap.lower_bound(name); it != snap.end(); ++it) {
    const std::string& key = it->first;
    if (key.compare(0, name.size(), name) != 0) break;
    if (key.size() == name.size() || key[name.size()] == '{') {
      total += it->second;
    }
  }
  return total;
}

// Minimal field readers for the tracer's fixed JSON layout.
bool ReadString(const std::string& s, std::size_t& pos, const char* field,
                std::string* out) {
  const std::string tag = std::string("\"") + field + "\":\"";
  const std::size_t at = s.find(tag, pos);
  if (at == std::string::npos) return false;
  std::size_t i = at + tag.size();
  out->clear();
  while (i < s.size() && s[i] != '"') {
    if (s[i] == '\\' && i + 1 < s.size()) ++i;
    out->push_back(s[i++]);
  }
  pos = i;
  return i < s.size();
}

bool ReadNumber(const std::string& s, std::size_t& pos, const char* field,
                std::uint64_t* out) {
  const std::string tag = std::string("\"") + field + "\":";
  const std::size_t at = s.find(tag, pos);
  if (at == std::string::npos) return false;
  char* end = nullptr;
  *out = std::strtoull(s.c_str() + at + tag.size(), &end, 10);
  pos = static_cast<std::size_t>(end - s.c_str());
  return true;
}

struct Span {
  std::string name;
  std::uint64_t start = 0;
  std::uint64_t dur = 0;
  std::uint64_t depth = 0;
  std::uint64_t child_ns = 0;
};

}  // namespace

double Delta(const Snapshot& before, const Snapshot& after,
             const std::string& name) {
  return SumFamily(after, name) - SumFamily(before, name);
}

Result<SpanProfile> ProfileTraceFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("no trace file at " + path);
  SpanProfile profile;
  std::string line;
  std::vector<Span> spans;
  std::vector<std::size_t> order;
  std::vector<std::size_t> stack;
  while (std::getline(in, line)) {
    spans.clear();
    std::size_t pos = 0;
    Span sp;
    while (ReadString(line, pos, "name", &sp.name)) {
      if (!ReadNumber(line, pos, "start_ns", &sp.start) ||
          !ReadNumber(line, pos, "dur_ns", &sp.dur) ||
          !ReadNumber(line, pos, "depth", &sp.depth)) {
        return Status::InvalidArgument("malformed span in " + path);
      }
      spans.push_back(sp);
    }
    // Spans are written as they close (children first); walk them in start
    // order with a stack of open ancestors to find each one's parent.
    order.resize(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (spans[a].start != spans[b].start) {
        return spans[a].start < spans[b].start;
      }
      return spans[a].depth < spans[b].depth;
    });
    stack.clear();
    for (std::size_t i : order) {
      while (!stack.empty() && spans[stack.back()].depth >= spans[i].depth) {
        stack.pop_back();
      }
      if (!stack.empty()) spans[stack.back()].child_ns += spans[i].dur;
      stack.push_back(i);
    }
    for (const Span& s : spans) {
      SpanTotals& t = profile[s.name];
      ++t.count;
      t.total_ms += static_cast<double>(s.dur) * 1e-6;
      const std::uint64_t self = s.dur > s.child_ns ? s.dur - s.child_ns : 0;
      t.self_ms += static_cast<double>(self) * 1e-6;
    }
  }
  return profile;
}

}  // namespace perfbench
