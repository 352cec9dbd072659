#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>

#include "common/str_util.h"

namespace wsv {
namespace obs {

namespace {

std::atomic<bool> g_tracing_enabled{false};

struct TraceBuffer {
  std::mutex mu;
  std::vector<TraceEvent> events;
};

// Tracks live per-thread buffers and the folded events of exited
// threads. Leaked on purpose, like the metrics registry, so thread_local
// destructors can retire into it during process teardown.
class TraceRegistry {
 public:
  static TraceRegistry& Get() {
    static TraceRegistry* r = new TraceRegistry;
    return *r;
  }

  TraceBuffer* LocalBuffer() {
    thread_local BufferHandle handle(*this);
    return handle.buffer.get();
  }

  uint32_t LocalTid() {
    thread_local uint32_t tid = next_tid_.fetch_add(1) + 1;
    return tid;
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    retired_.clear();
    for (const std::shared_ptr<TraceBuffer>& b : buffers_) {
      std::lock_guard<std::mutex> buffer_lock(b->mu);
      b->events.clear();
    }
  }

  std::vector<TraceEvent> Collect() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<TraceEvent> out = retired_;
    for (const std::shared_ptr<TraceBuffer>& b : buffers_) {
      std::lock_guard<std::mutex> buffer_lock(b->mu);
      out.insert(out.end(), b->events.begin(), b->events.end());
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                       return a.start_ns < b.start_ns;
                     });
    return out;
  }

 private:
  struct BufferHandle {
    explicit BufferHandle(TraceRegistry& registry)
        : registry(registry), buffer(std::make_shared<TraceBuffer>()) {
      std::lock_guard<std::mutex> lock(registry.mu_);
      registry.buffers_.push_back(buffer);
    }
    ~BufferHandle() { registry.Retire(buffer); }
    TraceRegistry& registry;
    std::shared_ptr<TraceBuffer> buffer;
  };

  void Retire(const std::shared_ptr<TraceBuffer>& buffer) {
    std::lock_guard<std::mutex> lock(mu_);
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    retired_.insert(retired_.end(), buffer->events.begin(),
                    buffer->events.end());
    for (size_t i = 0; i < buffers_.size(); ++i) {
      if (buffers_[i] == buffer) {
        buffers_.erase(buffers_.begin() + static_cast<long>(i));
        break;
      }
    }
  }

  std::mutex mu_;
  std::vector<std::shared_ptr<TraceBuffer>> buffers_;
  std::vector<TraceEvent> retired_;
  std::atomic<uint32_t> next_tid_{0};
};

// Per-thread stack of in-flight spans, sampled by the watchdog. Single
// writer (the owner thread) pushes/pops with release stores on `depth`;
// the sampler reads depth with acquire then the slots relaxed. A sample
// racing a pop+push can mix two spans' fields in one entry — tolerated:
// both values are real span data and the next sample self-corrects.
constexpr size_t kMaxOpenSpanDepth = 64;

struct OpenSpanStack {
  struct Slot {
    std::atomic<const char*> name{nullptr};
    std::atomic<uint64_t> start_ns{0};
    std::atomic<RequestId> request{kNoRequest};
  };
  Slot slots[kMaxOpenSpanDepth];
  std::atomic<uint32_t> depth{0};
  uint32_t tid = 0;
};

class OpenSpanRegistry {
 public:
  static OpenSpanRegistry& Get() {
    static OpenSpanRegistry* r = new OpenSpanRegistry;
    return *r;
  }

  OpenSpanStack* LocalStack(uint32_t tid) {
    thread_local StackHandle handle(*this, tid);
    return handle.stack.get();
  }

  std::vector<OpenSpan> Snapshot() {
    std::vector<OpenSpan> out;
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::shared_ptr<OpenSpanStack>& stack : stacks_) {
      const uint32_t depth = std::min<uint32_t>(
          stack->depth.load(std::memory_order_acquire), kMaxOpenSpanDepth);
      for (uint32_t i = 0; i < depth; ++i) {
        const char* name =
            stack->slots[i].name.load(std::memory_order_relaxed);
        if (name == nullptr) continue;
        OpenSpan span;
        span.name = name;
        span.tid = stack->tid;
        span.start_ns = stack->slots[i].start_ns.load(std::memory_order_relaxed);
        span.request = stack->slots[i].request.load(std::memory_order_relaxed);
        out.push_back(std::move(span));
      }
    }
    return out;
  }

 private:
  struct StackHandle {
    StackHandle(OpenSpanRegistry& registry, uint32_t tid)
        : registry(registry), stack(std::make_shared<OpenSpanStack>()) {
      stack->tid = tid;
      std::lock_guard<std::mutex> lock(registry.mu_);
      registry.stacks_.push_back(stack);
    }
    // Thread exit: every span on this thread has closed, so just drop
    // the stack (nothing to fold, unlike trace buffers).
    ~StackHandle() {
      std::lock_guard<std::mutex> lock(registry.mu_);
      for (size_t i = 0; i < registry.stacks_.size(); ++i) {
        if (registry.stacks_[i] == stack) {
          registry.stacks_.erase(registry.stacks_.begin() +
                                 static_cast<long>(i));
          break;
        }
      }
    }
    OpenSpanRegistry& registry;
    std::shared_ptr<OpenSpanStack> stack;
  };

  std::mutex mu_;
  std::vector<std::shared_ptr<OpenSpanStack>> stacks_;
};

}  // namespace

void StartTracing() {
  TraceRegistry::Get().Clear();
  g_tracing_enabled.store(true, std::memory_order_release);
}

void StopTracing() {
  g_tracing_enabled.store(false, std::memory_order_release);
}

bool TracingEnabled() {
  return g_tracing_enabled.load(std::memory_order_acquire);
}

void RecordTraceEvent(const char* name, uint64_t start_ns, uint64_t end_ns) {
  TraceRegistry& registry = TraceRegistry::Get();
  TraceEvent event;
  event.name = name;
  event.tid = registry.LocalTid();
  event.start_ns = start_ns;
  event.end_ns = end_ns;
  TraceBuffer* buffer = registry.LocalBuffer();
  std::lock_guard<std::mutex> lock(buffer->mu);
  buffer->events.push_back(std::move(event));
}

void PushOpenSpan(const char* name, uint64_t start_ns) {
  OpenSpanStack* stack =
      OpenSpanRegistry::Get().LocalStack(TraceRegistry::Get().LocalTid());
  const uint32_t d = stack->depth.load(std::memory_order_relaxed);
  if (d < kMaxOpenSpanDepth) {
    OpenSpanStack::Slot& slot = stack->slots[d];
    slot.name.store(name, std::memory_order_relaxed);
    slot.start_ns.store(start_ns, std::memory_order_relaxed);
    slot.request.store(CurrentRequestId(), std::memory_order_relaxed);
  }
  // Deeper-than-kMax spans keep counting depth so pops stay balanced;
  // the sampler simply cannot see past the cap.
  stack->depth.store(d + 1, std::memory_order_release);
}

void PopOpenSpan() {
  OpenSpanStack* stack =
      OpenSpanRegistry::Get().LocalStack(TraceRegistry::Get().LocalTid());
  const uint32_t d = stack->depth.load(std::memory_order_relaxed);
  if (d > 0) stack->depth.store(d - 1, std::memory_order_release);
}

std::vector<OpenSpan> SnapshotOpenSpans() {
  return OpenSpanRegistry::Get().Snapshot();
}

std::vector<TraceEvent> CollectTraceEvents() {
  return TraceRegistry::Get().Collect();
}

void WriteChromeTrace(std::ostream& out) {
  std::vector<TraceEvent> events = CollectTraceEvents();
  uint64_t epoch = UINT64_MAX;
  for (const TraceEvent& e : events) epoch = std::min(epoch, e.start_ns);
  if (epoch == UINT64_MAX) epoch = 0;

  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\"wsv-verifier\"}}";
  char buf[64];
  for (const TraceEvent& e : events) {
    std::string name;
    AppendJsonEscaped(e.name, &name);
    out << ",\n{\"name\":\"" << name << "\",\"cat\":\"wsv\",\"ph\":\"X\",\"pid\":1,\"tid\":" << e.tid;
    // Microsecond timestamps relative to the first span, 3 decimals.
    std::snprintf(buf, sizeof(buf), "%.3f",
                  double(e.start_ns - epoch) / 1000.0);
    out << ",\"ts\":" << buf;
    const uint64_t dur = e.end_ns >= e.start_ns ? e.end_ns - e.start_ns : 0;
    std::snprintf(buf, sizeof(buf), "%.3f", double(dur) / 1000.0);
    out << ",\"dur\":" << buf << "}";
  }
  out << "\n]}\n";
}

}  // namespace obs
}  // namespace wsv
