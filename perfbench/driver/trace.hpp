// Span recording and call counting around every call the benchmark driver
// makes into a layer of the runtime.
//
// A Span is a scoped guard placed at a call site in the driver. It always
// bumps its layer's call counter (one thread-local increment); while
// tracing is enabled it also records {name, layer, start, end, parent} in
// a thread-local buffer. Spans stay in memory and are written out at exit
// as Chrome trace-event JSON (opens in Perfetto / chrome://tracing).
//
// Spans measure a call including every layer below the one called; self
// time inside the runtime needs spans inside src/ and is out of scope here.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// The layers the driver calls into. `Driver` marks the driver's own
/// phases (set-up, one program, one wave), which parent the layer calls.
enum class Layer : std::uint8_t {
  Driver,
  Context,     ///< rt::Context, rt::Kernel, rt::DeviceArray
  Runtime,     ///< sim::GpuRuntime (with MemoryManager / ResidencyPlanner)
  Tenant,      ///< sim::Tenant handles of sim::TenantManager
  Submission,  ///< sim::Submission
  Engine,      ///< sim::Engine
  Report,      ///< Timeline::overlap_metrics, Profiler, DagRecorder
  Ingest,      ///< sim::IngestService
  Qos,         ///< sim::QosManager
  kCount
};
constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);

[[nodiscard]] const char* layer_name(Layer l);

/// Nanoseconds on the steady clock since process start.
[[nodiscard]] std::int64_t now_ns();

struct SpanRecord {
  std::int64_t start = 0;
  std::int64_t end = 0;
  const char* name = nullptr;  ///< string literal at the call site
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  Layer layer = Layer::Driver;
  std::uint16_t tid = 0;
};

/// Totals of one span name over the recorded spans.
struct SpanAgg {
  long count = 0;
  double total_ns = 0;
  [[nodiscard]] double mean_ns() const {
    return count > 0 ? total_ns / static_cast<double>(count) : 0;
  }
};

namespace tracing {

/// Turn span recording on or off (call counting is always on). Only
/// toggle while no other thread is making traced calls.
void set_enabled(bool on);
/// Whether span recording is on.
[[nodiscard]] bool enabled();
/// Drop every recorded span and zero every call counter. Same threading
/// rule as set_enabled.
void reset();
/// Calls per layer since the last reset, summed over threads.
[[nodiscard]] std::array<long, kLayers> calls();
/// Per-name totals of the spans recorded since the last reset.
[[nodiscard]] std::map<std::string, SpanAgg> aggregate();
[[nodiscard]] long span_count();
/// Write the recorded spans as Chrome trace-event JSON; the per-layer
/// call counts and `extra` (JSON members, may be empty) go into
/// "otherData".
/// Returns false if the file could not be written.
bool write_chrome_json(const std::string& path, const std::string& extra);

}  // namespace tracing

namespace detail {
struct ThreadBuf;
ThreadBuf& thread_buf();
void span_begin(ThreadBuf& b, SpanRecord& r);
void span_end(ThreadBuf& b, SpanRecord& r);
void count_call(ThreadBuf& b, Layer l);
bool enabled_fast();
}  // namespace detail

/// Scoped span around one driver call into `layer`.
class Span {
 public:
  Span(Layer layer, const char* name) : buf_(&detail::thread_buf()) {
    detail::count_call(*buf_, layer);
    active_ = detail::enabled_fast();
    if (active_) {
      rec_.name = name;
      rec_.layer = layer;
      detail::span_begin(*buf_, rec_);
    }
  }
  ~Span() {
    if (active_) detail::span_end(*buf_, rec_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  detail::ThreadBuf* buf_;
  SpanRecord rec_;
  bool active_ = false;
};

// --- process-wide heap accounting (counting operator new) ---
struct AllocCounts {
  long allocs = 0;
  long bytes = 0;
};
[[nodiscard]] AllocCounts alloc_counts();

// --- resident memory ---
/// Peak resident set of the process in MB (getrusage).
[[nodiscard]] double peak_rss_mb();
/// Current resident set in bytes (/proc/self/statm).
[[nodiscard]] double current_rss_bytes();

}  // namespace perfbench
