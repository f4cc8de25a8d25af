// In-memory span recorder of the traced run.
//
// Spans are recorded by the benchmark around its own calls into each
// module (name, module, start, end, parent span, run id); they stay in
// memory and are written out once, when the run ends, as Chrome
// trace-event JSON (viewable offline in Perfetto or chrome://tracing).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"

namespace perfbench {

class span_recorder {
public:
    struct span {
        std::string name;
        std::string module;
        std::int64_t start_ns = 0;
        std::int64_t end_ns = -1;  ///< -1 while open
        std::ptrdiff_t parent = -1;
        bool instant = false;
    };

    explicit span_recorder(std::string run_id);

    /// Opens a span on the calling thread's stack (the benchmark's main
    /// thread); its parent is the innermost open span.
    std::size_t open(const std::string& name, const std::string& module);

    /// Closes span `id` (must be the innermost open span); returns its
    /// duration in milliseconds.
    double close(std::size_t id);

    /// Records a zero-length event from any thread (progress hooks).
    void mark(const std::string& name, const std::string& module);

    /// Self time per module, in ms: each span's duration minus the time its
    /// child spans cover, summed by module.
    std::map<std::string, double> self_ms_by_module() const;

    /// Writes every span as Chrome trace-event JSON.
    void write_chrome(const std::string& path, const reduce::json_value& metadata) const;

    std::size_t size() const;

private:
    std::int64_t now_ns() const;

    std::string run_id_;
    bench_clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<span> spans_;      ///< guarded by mutex_
    std::vector<std::size_t> stack_;  ///< open spans of the main thread
};

/// Runs `fn` inside a span and returns the span's duration in ms.
template <typename Fn>
double timed_span(span_recorder& rec, const std::string& name, const std::string& module,
                  Fn&& fn) {
    const std::size_t id = rec.open(name, module);
    std::forward<Fn>(fn)();
    return rec.close(id);
}

}  // namespace perfbench
