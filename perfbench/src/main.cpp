// reduce_bench — end-to-end benchmark of the Reduce pipeline.
//
//   reduce_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                [--out-dir DIR]
//
// Workloads: mlp_lot, vgg_lot, dist_timeline (see ../METRICS.md). With
// --trace 0 the run measures the end-to-end metrics; with --trace 1 it
// measures the per-module metrics and writes a Chrome trace-event file.
// Either way the output gate compares output digests against a reference
// path and the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Reports and traces go to --out-dir (default .bench_build/perfbench-out).
// Exit codes: 0 on a completed run (even a mismatching one: "correct" says
// so), 1 on an error, 3 when the workload's threads exceed the CPUs this
// process may use.

#include <cmath>
#include <cstdlib>
#include <iostream>

#include "bench.h"
#include "util/cli.h"
#include "util/log.h"

using namespace reduce;
using namespace perfbench;

namespace {

void print_metrics(const std::string& workload, const std::vector<metric>& metrics) {
    for (const metric& m : metrics) {
        std::cout << workload << "  " << m.name << " = " << m.value << ' ' << m.unit << '\n';
    }
}

json_value result_line(const run_result& res) {
    json_object metrics;
    for (const metric& m : res.metrics) {
        json_object entry;
        entry.set("value", json_value(std::isfinite(m.value) ? m.value : 0.0));
        entry.set("unit", json_value(m.unit));
        metrics.set(m.name, json_value(std::move(entry)));
    }
    json_object line;
    line.set("correct", json_value(res.correct));
    line.set("attempted", json_value(res.attempted));
    line.set("failed", json_value(res.failed));
    line.set("metrics", json_value(std::move(metrics)));
    return json_value(std::move(line));
}

}  // namespace

int main(int argc, char** argv) {
    try {
        const cli_args args(argc, argv);
        set_log_level(log_level::error);
        run_options opts;
        opts.workload = args.get("workload", "");
        const std::string seed_text = args.get("seed", std::to_string(default_seed));
        char* end = nullptr;
        opts.seed = std::strtoull(seed_text.c_str(), &end, 10);
        if (seed_text.empty() || *end != '\0') {
            throw std::invalid_argument("--seed expects a non-negative integer");
        }
        opts.seconds = args.get_double("seconds", 16.0);
        opts.trace = args.get_int("trace", 0) != 0;
        opts.out_dir = ensure_dir(args.get("out-dir", ".bench_build/perfbench-out"));
        if (!(opts.seconds > 0.0)) { throw std::invalid_argument("--seconds must be > 0"); }

        const host_info host = probe_host();
        const workload_spec spec = make_spec(opts.workload, opts.seed, host);
        const std::size_t threads =
            std::max(spec.timed.compute_threads(), spec.reference.compute_threads());
        std::cout << "host nproc=" << host.nproc
                  << " hardware_concurrency=" << host.hardware_concurrency
                  << " avx2=" << host.avx2 << " fma=" << host.fma
                  << " avx512f=" << host.avx512f << " micro_kernel=" << host.micro_kernel
                  << " REDUCE_NATIVE=" << host.native << " build=" << host.build_type << '\n'
                  << "budget " << spec.name << ": sweep " << spec.timed.sweep_threads << "x"
                  << spec.timed.sweep_gemm_threads << ", fleet " << spec.timed.fleet_threads
                  << "x" << spec.timed.fleet_gemm_threads << ", dist workers "
                  << spec.timed.dist_workers << ", compute threads " << threads << '\n';
        if (threads > host.nproc) {
            std::cerr << "error: workload " << spec.name << " needs " << threads
                      << " compute threads but only " << host.nproc
                      << " CPUs are available; refusing an oversubscribed run\n";
            return 3;
        }

        run_result res = opts.trace ? run_traced(opts, spec) : run_end_to_end(opts, spec);

        json_object report = std::move(res.report);
        report.set("host", host_to_json(host));
        report.set("workload", spec_to_json(spec));
        report.set("trace", json_value(opts.trace));
        report.set("seconds", json_value(opts.seconds));
        report.set("result", result_line(res));
        const std::string report_path = opts.out_dir + "/" + spec.name + "-seed" +
                                        std::to_string(opts.seed) +
                                        (opts.trace ? "-trace" : "") + ".report.json";
        json_save_file(report_path, json_value(std::move(report)));

        print_metrics(spec.name, res.metrics);
        std::cout << "report " << report_path << '\n';
        std::cout << result_line(res).dump() << std::endl;
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
}
