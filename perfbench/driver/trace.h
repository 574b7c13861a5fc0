#ifndef CLOUDJOIN_PERFBENCH_TRACE_H_
#define CLOUDJOIN_PERFBENCH_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace cloudjoin::perfbench {

/// One recorded interval. `name` is "<layer>.<call>"; `parent` is the id of
/// the enclosing span (0 for a root); `op` is the op the span belongs to
/// (-1 for set-up). Times are nanoseconds since the tracer started.
struct SpanRecord {
  int64_t id = 0;
  int64_t parent = 0;
  int64_t op = -1;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span store. Recording is off until `set_enabled(true)`; while
/// off, `Span` costs one relaxed load. Spans are written out only at the
/// end of the run (`WriteTsv`).
class Tracer {
 public:
  static Tracer& Get();

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Nanoseconds since the tracer was created.
  int64_t NowNs() const;

  /// Stores a finished span and returns its id.
  int64_t Record(int64_t parent, int64_t op, std::string name,
                 int64_t start_ns, int64_t end_ns);

  /// Reserves an id for a span that is still open.
  int64_t NextId();

  /// Stores a finished span whose id came from `NextId`.
  void Store(SpanRecord span);

  /// Records a program-reported sub-phase of `parent` as a child span laid
  /// end to end from `*cursor_ns` (advanced by `seconds`). Used for
  /// durations the program returns without timestamps, e.g.
  /// `QueryMetrics::frontend_seconds`.
  void RecordPhase(int64_t parent, int64_t op, const std::string& name,
                   double seconds, int64_t* cursor_ns);

  std::vector<SpanRecord> Take();

  /// "id parent op name start_ns end_ns" per line, tab-separated.
  bool WriteTsv(const std::string& path);

 private:
  Tracer();

  bool enabled_ = false;
  int64_t origin_ns_ = 0;
  std::mutex mu_;
  int64_t next_id_ = 1;
  std::vector<SpanRecord> spans_;
};

/// Sets the op id for spans opened on this thread (RAII, restores on exit).
class OpScope {
 public:
  explicit OpScope(int64_t op);
  ~OpScope();
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

  static int64_t Current();

 private:
  int64_t saved_;
};

/// RAII span around one call into a layer. Nested spans on the same thread
/// become children of the innermost open span.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// 0 when tracing is off.
  int64_t id() const { return id_; }
  int64_t start_ns() const { return start_ns_; }

 private:
  const char* name_;
  int64_t id_ = 0;
  int64_t parent_ = 0;
  int64_t start_ns_ = 0;
};

}  // namespace cloudjoin::perfbench

#endif  // CLOUDJOIN_PERFBENCH_TRACE_H_
