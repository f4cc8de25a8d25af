// Span recorder: bookkeeping, self time, Chrome trace-event export.

#include "trace.h"

#include <stdexcept>

namespace perfbench {

using namespace reduce;

span_recorder::span_recorder(std::string run_id)
    : run_id_(std::move(run_id)), origin_(bench_clock::now()) {}

std::int64_t span_recorder::now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(bench_clock::now() - origin_)
        .count();
}

std::size_t span_recorder::open(const std::string& name, const std::string& module) {
    std::lock_guard<std::mutex> lock(mutex_);
    span s;
    s.name = name;
    s.module = module;
    s.parent = stack_.empty() ? -1 : static_cast<std::ptrdiff_t>(stack_.back());
    s.start_ns = now_ns();
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
}

double span_recorder::close(std::size_t id) {
    const std::int64_t end = now_ns();
    std::lock_guard<std::mutex> lock(mutex_);
    if (stack_.empty() || stack_.back() != id) {
        throw std::logic_error("span '" + spans_.at(id).name + "' closed out of order");
    }
    stack_.pop_back();
    spans_[id].end_ns = end;
    return static_cast<double>(end - spans_[id].start_ns) / 1e6;
}

void span_recorder::mark(const std::string& name, const std::string& module) {
    const std::int64_t t = now_ns();
    std::lock_guard<std::mutex> lock(mutex_);
    span s;
    s.name = name;
    s.module = module;
    s.start_ns = t;
    s.end_ns = t;
    s.instant = true;
    spans_.push_back(std::move(s));
}

std::size_t span_recorder::size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

std::map<std::string, double> span_recorder::self_ms_by_module() const {
    std::lock_guard<std::mutex> lock(mutex_);
    // Children of one parent run one after another on the main thread, so
    // the time they cover is the sum of their durations.
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const span& s : spans_) {
        if (s.parent >= 0 && s.end_ns >= 0) {
            child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
        }
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const span& s = spans_[i];
        if (s.end_ns < 0 || s.instant) { continue; }
        self[s.module] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e6;
    }
    return self;
}

void span_recorder::write_chrome(const std::string& path, const json_value& metadata) const {
    std::lock_guard<std::mutex> lock(mutex_);
    json_array events;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const span& s = spans_[i];
        json_object e;
        e.set("name", json_value(s.name));
        e.set("cat", json_value(s.module));
        e.set("pid", json_value(1));
        e.set("tid", json_value(s.instant ? 2 : 1));
        e.set("ts", json_value(static_cast<double>(s.start_ns) / 1e3));
        if (s.instant) {
            e.set("ph", json_value("i"));
            e.set("s", json_value("t"));
        } else {
            e.set("ph", json_value("X"));
            const std::int64_t end = s.end_ns >= 0 ? s.end_ns : s.start_ns;
            e.set("dur", json_value(static_cast<double>(end - s.start_ns) / 1e3));
        }
        json_object args;
        args.set("span", json_value(i));
        args.set("parent", json_value(static_cast<double>(s.parent)));
        args.set("run", json_value(run_id_));
        e.set("args", json_value(std::move(args)));
        events.push_back(json_value(std::move(e)));
    }
    json_object root;
    root.set("traceEvents", json_value(std::move(events)));
    root.set("displayTimeUnit", json_value("ms"));
    root.set("otherData", metadata);
    json_save_file(path, json_value(std::move(root)));
}

}  // namespace perfbench
