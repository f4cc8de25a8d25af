// Intra-op thread budget of the micro_* harnesses. A --gemm-threads request
// above the machine's hardware threads measures contention, not the
// kernels, so it is clamped to hardware_concurrency with a warning on
// stderr, and the bench JSON records the requested and the used count next
// to the host's thread count.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iostream>

#include "util/cli.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace reduce {

struct bench_threads {
    std::size_t requested = 1;  ///< --gemm-threads as asked (0 resolved to all)
    std::size_t used = 1;       ///< the budget the bench runs
};

/// Resolves --gemm-threads (default `fallback`) and clamps it to the
/// hardware thread count, warning when the clamp bites.
inline bench_threads resolve_bench_threads(const cli_args& args, std::size_t fallback) {
    bench_threads t;
    const std::int64_t asked = args.get_int("gemm-threads", static_cast<std::int64_t>(fallback));
    t.requested = resolve_thread_count(static_cast<std::size_t>(asked));
    const std::size_t hardware = resolve_thread_count(0);
    t.used = std::min(t.requested, hardware);
    if (t.used < t.requested) {
        std::cerr << "warning: --gemm-threads " << t.requested << " exceeds the " << hardware
                  << " hardware threads; running " << t.used << '\n';
    }
    return t;
}

/// Records the host's thread count and the budget in a bench JSON root.
inline void record_bench_threads(json_object& root, const bench_threads& t) {
    root.set("hardware_concurrency", json_value(resolve_thread_count(0)));
    root.set("gemm_threads_requested", json_value(t.requested));
    root.set("gemm_threads", json_value(t.used));
}

}  // namespace reduce
