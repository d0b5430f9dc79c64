#include "trace.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench {

namespace detail {

struct ThreadBuf {
  std::vector<SpanRecord> spans;
  std::vector<std::uint64_t> stack;  ///< ids of the open spans
  std::array<long, kLayers> calls{};
  std::uint64_t next_local = 0;
  std::uint16_t tid = 0;
};

namespace {

std::atomic<bool> g_enabled{false};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadBuf>> bufs;  ///< guarded by mu
};

Registry& registry() {
  static Registry r;
  return r;
}

const std::chrono::steady_clock::time_point g_epoch =
    std::chrono::steady_clock::now();

}  // namespace

ThreadBuf& thread_buf() {
  // Buffers are owned by the registry, so a thread's spans outlive it.
  thread_local ThreadBuf* buf = [] {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    auto b = std::make_unique<ThreadBuf>();
    b->tid = static_cast<std::uint16_t>(r.bufs.size());
    r.bufs.push_back(std::move(b));
    return r.bufs.back().get();
  }();
  return *buf;
}

bool enabled_fast() { return g_enabled.load(std::memory_order_relaxed); }

void count_call(ThreadBuf& b, Layer l) { ++b.calls[static_cast<std::size_t>(l)]; }

void span_begin(ThreadBuf& b, SpanRecord& r) {
  r.id = (static_cast<std::uint64_t>(b.tid) + 1) << 40 | ++b.next_local;
  r.parent = b.stack.empty() ? 0 : b.stack.back();
  r.tid = b.tid;
  b.stack.push_back(r.id);
  r.start = now_ns();
}

void span_end(ThreadBuf& b, SpanRecord& r) {
  r.end = now_ns();
  b.stack.pop_back();
  b.spans.push_back(r);
}

}  // namespace detail

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::Driver: return "driver";
    case Layer::Context: return "context";
    case Layer::Runtime: return "runtime";
    case Layer::Tenant: return "tenant";
    case Layer::Submission: return "submission";
    case Layer::Engine: return "engine";
    case Layer::Report: return "report";
    case Layer::Ingest: return "ingest";
    case Layer::Qos: return "qos";
    case Layer::kCount: break;
  }
  return "?";
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - detail::g_epoch)
      .count();
}

namespace tracing {

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

bool enabled() { return detail::enabled_fast(); }

void reset() {
  detail::Registry& r = detail::registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& b : r.bufs) {
    b->spans.clear();
    b->calls.fill(0);
  }
}

std::array<long, kLayers> calls() {
  std::array<long, kLayers> out{};
  detail::Registry& r = detail::registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& b : r.bufs) {
    for (std::size_t i = 0; i < kLayers; ++i) out[i] += b->calls[i];
  }
  return out;
}

std::map<std::string, SpanAgg> aggregate() {
  std::map<std::string, SpanAgg> out;
  detail::Registry& r = detail::registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& b : r.bufs) {
    // Spans of one call site share the literal, so aggregate by pointer
    // first and only build a string per distinct site.
    std::map<const char*, SpanAgg> by_site;
    for (const SpanRecord& s : b->spans) {
      SpanAgg& a = by_site[s.name];
      ++a.count;
      a.total_ns += static_cast<double>(s.end - s.start);
    }
    for (const auto& [name, a] : by_site) {
      SpanAgg& dst = out[name];
      dst.count += a.count;
      dst.total_ns += a.total_ns;
    }
  }
  return out;
}

long span_count() {
  long n = 0;
  detail::Registry& r = detail::registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& b : r.bufs) n += static_cast<long>(b->spans.size());
  return n;
}

bool write_chrome_json(const std::string& path, const std::string& extra) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  static char iobuf[1 << 20];
  std::setvbuf(f, iobuf, _IOFBF, sizeof iobuf);
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
  bool first = true;
  const auto per_layer = calls();
  detail::Registry& r = detail::registry();
  {
    std::lock_guard<std::mutex> lock(r.mu);
    for (const auto& b : r.bufs) {
      for (const SpanRecord& s : b->spans) {
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                     "\"args\":{\"id\":%llu,\"parent\":%llu}}",
                     first ? "" : ",", s.name, layer_name(s.layer),
                     static_cast<double>(s.start) / 1e3,
                     static_cast<double>(s.end - s.start) / 1e3,
                     static_cast<unsigned>(s.tid),
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent));
        first = false;
      }
    }
  }
  std::fputs("\n],\"otherData\":{\"calls\":{", f);
  for (std::size_t i = 0; i < kLayers; ++i) {
    std::fprintf(f, "%s\"%s\":%ld", i == 0 ? "" : ",",
                 layer_name(static_cast<Layer>(i)), per_layer[i]);
  }
  std::fputs("}", f);
  if (!extra.empty()) std::fprintf(f, ",%s", extra.c_str());
  std::fputs("}}\n", f);
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace tracing

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double current_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long pages = 0;
  long resident = 0;
  const int n = std::fscanf(f, "%ld %ld", &pages, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE));
}

}  // namespace perfbench
