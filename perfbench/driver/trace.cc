#include "driver/trace.h"

#include <chrono>
#include <cstdio>
#include <utility>

namespace cloudjoin::perfbench {
namespace {

int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

thread_local int64_t tls_open_span = 0;
thread_local int64_t tls_op = -1;

}  // namespace

Tracer::Tracer() : origin_ns_(SteadyNs()) {}

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

int64_t Tracer::NowNs() const { return SteadyNs() - origin_ns_; }

int64_t Tracer::NextId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

int64_t Tracer::Record(int64_t parent, int64_t op, std::string name,
                       int64_t start_ns, int64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t id = next_id_++;
  spans_.push_back(
      SpanRecord{id, parent, op, std::move(name), start_ns, end_ns});
  return id;
}

void Tracer::RecordPhase(int64_t parent, int64_t op, const std::string& name,
                         double seconds, int64_t* cursor_ns) {
  if (!enabled_ || seconds <= 0.0) return;
  const int64_t start = *cursor_ns;
  *cursor_ns += static_cast<int64_t>(seconds * 1e9);
  Record(parent, op, name, start, *cursor_ns);
}

void Tracer::Store(SpanRecord span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<SpanRecord> Tracer::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(spans_, {});
}

bool Tracer::WriteTsv(const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const SpanRecord& s : Take()) {
    std::fprintf(out, "%lld\t%lld\t%lld\t%s\t%lld\t%lld\n",
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.op), s.name.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(out) == 0;
}

OpScope::OpScope(int64_t op) : saved_(tls_op) { tls_op = op; }
OpScope::~OpScope() { tls_op = saved_; }
int64_t OpScope::Current() { return tls_op; }

Span::Span(const char* name) : name_(name) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  id_ = tracer.NextId();
  parent_ = tls_open_span;
  tls_open_span = id_;
  start_ns_ = tracer.NowNs();
}

Span::~Span() {
  if (id_ == 0) return;
  Tracer& tracer = Tracer::Get();
  const int64_t end = tracer.NowNs();
  tls_open_span = parent_;
  tracer.Store(SpanRecord{id_, parent_, tls_op, name_, start_ns_, end});
}

}  // namespace cloudjoin::perfbench
