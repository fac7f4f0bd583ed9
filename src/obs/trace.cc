#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>

#include "common/logging.h"

namespace sesemi::obs {

namespace trace_internal {
std::atomic<uint32_t> g_enabled{0};
}  // namespace trace_internal

namespace {

// One per-thread span buffer. Single writer (the owning thread); concurrent
// snapshot readers see a consistent prefix via the release/acquire head.
// Fill-once semantics: slots [0, min(head, capacity)) are written exactly
// once and never mutated afterwards, so readers never race a rewrite. When
// the ring fills, the newest span is dropped and counted — recording never
// blocks and never allocates.
struct SpanRing {
  explicit SpanRing(size_t cap) : capacity(cap), slots(new SpanRecord[cap]) {}

  void Push(const SpanRecord& record) {
    const size_t index = head.load(std::memory_order_relaxed);
    if (index >= capacity) {
      dropped.fetch_add(1, std::memory_order_relaxed);
      if (!warned.exchange(true, std::memory_order_relaxed)) {
        SESEMI_WLOG << "obs: span ring full (capacity " << capacity
                    << "), dropping newest spans on this thread";
      }
      return;
    }
    slots[index] = record;
    head.store(index + 1, std::memory_order_release);
  }

  const size_t capacity;
  std::unique_ptr<SpanRecord[]> slots;
  std::atomic<size_t> head{0};
  std::atomic<uint64_t> dropped{0};
  std::atomic<bool> warned{false};
  uint32_t thread_index = 0;
};

// Registry of every ring ever created. Rings are retired (not freed) on
// Reset so a stale thread-local pointer can never dangle; threads notice the
// generation bump and re-register lazily.
struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<SpanRing>> rings;   // live generation
  std::vector<std::unique_ptr<SpanRing>> retired;  // kept for TLS safety
  size_t ring_capacity = Tracer::kDefaultRingCapacity;
  std::atomic<uint64_t> generation{1};  // relaxed-readable on the hot path
  uint32_t next_thread_index = 0;
};

Registry& GetRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

struct ThreadSlot {
  uint64_t generation = 0;
  SpanRing* ring = nullptr;
};
thread_local ThreadSlot t_slot;
thread_local TraceContext t_current;

std::atomic<uint64_t> g_next_id{1};

SpanRing* RingForThisThread() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  const uint64_t generation =
      registry.generation.load(std::memory_order_relaxed);
  if (t_slot.generation == generation && t_slot.ring != nullptr) {
    return t_slot.ring;
  }
  auto ring = std::make_unique<SpanRing>(registry.ring_capacity);
  ring->thread_index = registry.next_thread_index++;
  t_slot.ring = ring.get();
  t_slot.generation = generation;
  registry.rings.push_back(std::move(ring));
  return t_slot.ring;
}

}  // namespace

void Tracer::Enable() {
  trace_internal::g_enabled.store(1, std::memory_order_release);
}

void Tracer::Disable() {
  trace_internal::g_enabled.store(0, std::memory_order_release);
}

TimeMicros Tracer::Now() {
  // One process-wide origin: spans from every component share a time base.
  static const std::chrono::steady_clock::time_point origin =
      std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

void Tracer::Reset(size_t ring_capacity) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  registry.generation.fetch_add(1, std::memory_order_relaxed);
  registry.ring_capacity = ring_capacity == 0 ? 1 : ring_capacity;
  for (auto& ring : registry.rings) registry.retired.push_back(std::move(ring));
  registry.rings.clear();
}

TraceContext Tracer::NewContext() {
  TraceContext context;
  context.trace_id = NextId();
  context.span_id = NextId();
  return context;
}

TraceContext Tracer::EmitSpan(TraceContext parent, const char* name,
                              TimeMicros start, TimeMicros end,
                              const char* arg_name, int64_t arg, int priority) {
  if (!Enabled()) return {};
  SpanRecord record;
  record.trace_id = parent.valid() ? parent.trace_id : NextId();
  record.span_id = NextId();
  record.parent_id = parent.span_id;
  record.name = name;
  record.start = start;
  record.end = end;
  record.arg_name = arg_name;
  record.arg = arg;
  record.priority = static_cast<int32_t>(priority);
  Record(record);
  TraceContext context;
  context.trace_id = record.trace_id;
  context.span_id = record.span_id;
  return context;
}

void Tracer::EmitInstant(TraceContext parent, const char* name,
                         const char* arg_name, int64_t arg) {
  if (!Enabled()) return;
  const TimeMicros now = Now();
  (void)EmitSpan(parent, name, now, now, arg_name, arg);
}

void Tracer::EmitRoot(TraceContext context, const char* name, TimeMicros start,
                      TimeMicros end, const char* arg_name, int64_t arg) {
  if (!Enabled() || !context.valid()) return;
  SpanRecord record;
  record.trace_id = context.trace_id;
  record.span_id = context.span_id;
  record.parent_id = 0;
  record.name = name;
  record.start = start;
  record.end = end;
  record.arg_name = arg_name;
  record.arg = arg;
  Record(record);
}

TraceContext Tracer::Current() { return t_current; }

void Tracer::SetCurrent(TraceContext context) { t_current = context; }

TraceSnapshot Tracer::Snap() {
  TraceSnapshot snapshot;
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  auto collect = [&snapshot](const std::vector<std::unique_ptr<SpanRing>>& rings,
                             bool count_drops) {
    for (const auto& ring : rings) {
      const size_t published =
          std::min(ring->head.load(std::memory_order_acquire), ring->capacity);
      for (size_t i = 0; i < published; ++i) {
        SpanRecord record = ring->slots[i];
        record.thread_index = ring->thread_index;
        snapshot.spans.push_back(record);
      }
      if (count_drops) {
        snapshot.dropped += ring->dropped.load(std::memory_order_relaxed);
      }
    }
  };
  collect(registry.rings, /*count_drops=*/true);
  return snapshot;
}

void Tracer::Record(const SpanRecord& record) {
  // Fast path: the cached ring, validated by a relaxed generation probe. A
  // span recorded into a ring retired concurrently by Reset is lost (never
  // corrupted): retired rings stay allocated and are excluded from Snap.
  SpanRing* ring = t_slot.ring;
  if (ring == nullptr ||
      t_slot.generation !=
          GetRegistry().generation.load(std::memory_order_relaxed)) {
    ring = RingForThisThread();
  }
  ring->Push(record);
}

uint64_t Tracer::NextId() {
  return g_next_id.fetch_add(1, std::memory_order_relaxed);
}

std::vector<StageRollup> Tracer::Rollup(const TraceSnapshot& snapshot) {
  std::map<std::string, StageRollup> by_name;
  for (const SpanRecord& span : snapshot.spans) {
    if (span.name == nullptr) continue;
    const TimeMicros duration = span.end >= span.start ? span.end - span.start : 0;
    StageRollup& entry = by_name[span.name];
    if (entry.count == 0) {
      entry.name = span.name;
      entry.min = duration;
      entry.max = duration;
    }
    entry.count++;
    entry.total += duration;
    entry.min = std::min(entry.min, duration);
    entry.max = std::max(entry.max, duration);
  }
  std::vector<StageRollup> rollup;
  rollup.reserve(by_name.size());
  for (auto& [name, entry] : by_name) rollup.push_back(entry);
  return rollup;
}

std::vector<StageRollup> Tracer::Rollup() { return Rollup(Snap()); }

namespace {

void AppendEscaped(std::string* out, const char* text) {
  for (const char* p = text; *p != '\0'; ++p) {
    const char c = *p;
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
}

}  // namespace

std::string ToChromeTraceJson(const TraceSnapshot& snapshot) {
  std::string out;
  out.reserve(128 + snapshot.spans.size() * 160);
  out += "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_spans\":";
  char buf[192];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, snapshot.dropped);
  out += buf;
  out += "},\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& span : snapshot.spans) {
    if (span.name == nullptr) continue;
    if (!first) out += ",";
    first = false;
    const TimeMicros duration =
        span.end >= span.start ? span.end - span.start : 0;
    out += "{\"name\":\"";
    AppendEscaped(&out, span.name);
    std::snprintf(buf, sizeof(buf),
                  "\",\"ph\":\"X\",\"ts\":%" PRId64 ",\"dur\":%" PRId64
                  ",\"pid\":1,\"tid\":%u,\"args\":{\"trace\":\"%" PRIx64
                  "\",\"span\":\"%" PRIx64 "\",\"parent\":\"%" PRIx64 "\"",
                  static_cast<int64_t>(span.start),
                  static_cast<int64_t>(duration), span.thread_index,
                  span.trace_id, span.span_id, span.parent_id);
    out += buf;
    if (span.arg_name != nullptr) {
      out += ",\"";
      AppendEscaped(&out, span.arg_name);
      std::snprintf(buf, sizeof(buf), "\":%lld",
                    static_cast<long long>(span.arg));
      out += buf;
    }
    if (span.priority >= 0) {
      std::snprintf(buf, sizeof(buf), ",\"priority\":%d", span.priority);
      out += buf;
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

Status WriteChromeTraceJson(const TraceSnapshot& snapshot,
                            const std::string& path) {
  const std::string json = ToChromeTraceJson(snapshot);
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::Unavailable("obs: cannot open trace file " + path);
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), file);
  std::fclose(file);
  if (written != json.size()) {
    return Status::Internal("obs: short write to trace file " + path);
  }
  return Status::OK();
}

}  // namespace sesemi::obs
