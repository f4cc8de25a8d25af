// Host probe, the three workloads, and one pass through Steps 1-3.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "core/policy.h"
#include "data/synthetic.h"
#include "dist/protocol.h"
#include "dist/worker.h"
#include "nn/models.h"
#include "nn/serialize.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace perfbench {

using namespace reduce;

double seconds_since(bench_clock::time_point start) {
    return std::chrono::duration<double>(bench_clock::now() - start).count();
}

double median(const std::vector<double>& values) { return percentile_of(values, 50.0); }

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string ensure_dir(const std::string& dir) {
    std::filesystem::create_directories(dir);
    return dir;
}

// ---- host ------------------------------------------------------------------

host_info probe_host() {
    host_info host;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        host.nproc = static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
    }
    host.hardware_concurrency =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
#if defined(__x86_64__)
    __builtin_cpu_init();
    host.avx2 = __builtin_cpu_supports("avx2");
    host.fma = __builtin_cpu_supports("fma");
    host.avx512f = __builtin_cpu_supports("avx512f");
    // The rule of select_micro_kernel in src/tensor/gemm.cpp.
    host.micro_kernel = host.avx2 && host.fma ? "avx2_fma" : "portable";
#else
    host.micro_kernel = "portable";
#endif
#ifdef REDUCE_NATIVE
    host.native = true;
#endif
    host.build_type = PERFBENCH_BUILD_TYPE;
    return host;
}

json_value host_to_json(const host_info& host) {
    json_object o;
    o.set("nproc", json_value(host.nproc));
    o.set("hardware_concurrency", json_value(host.hardware_concurrency));
    o.set("avx2", json_value(host.avx2));
    o.set("fma", json_value(host.fma));
    o.set("avx512f", json_value(host.avx512f));
    o.set("micro_kernel", json_value(host.micro_kernel));
    o.set("reduce_native", json_value(host.native));
    o.set("build_type", json_value(host.build_type));
    return json_value(std::move(o));
}

// ---- workloads -------------------------------------------------------------

std::size_t exec_knobs::compute_threads() const {
    if (dist_workers > 0) { return dist_workers * fleet_gemm_threads; }
    return std::max(sweep_threads * sweep_gemm_threads, fleet_threads * fleet_gemm_threads);
}

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names{"mlp_lot", "vgg_lot", "dist_timeline"};
    return names;
}

namespace {

// Lot sizes: each lot pass must last long enough that a median over a few
// passes is steady (see METRICS.md, "Sizing").
constexpr std::size_t mlp_lot_chips = 600;
constexpr std::size_t vgg_lot_chips = 64;
constexpr std::size_t dist_lot_chips = 64;

/// The fig3 Step-1 grid (7 rates).
const std::vector<double> fig3_rates{0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3};

/// VGG11 at width 0.125 on 8x8 synthetic images: the vgg_pipeline /
/// micro_training Step-3 geometry.
synthetic_images_config vgg_data_config() {
    synthetic_images_config cfg;
    cfg.shape = {3, 8, 8};
    cfg.num_classes = 4;
    cfg.samples_per_class = 100;
    cfg.noise_stddev = 0.35;
    return cfg;
}
constexpr double vgg_width = 0.125;
constexpr double vgg_pretrain_epochs = 15.0;

fat_config vgg_trainer_config() {
    fat_config cfg;
    cfg.batch_size = 32;
    cfg.learning_rate = 0.05;
    return cfg;
}

array_config vgg_array() {
    array_config array;
    array.rows = 64;
    array.cols = 64;
    return array;
}

std::string vgg_context() {
    const fat_config t = vgg_trainer_config();
    const array_config a = vgg_array();
    std::ostringstream context;
    context << "vgg11-w" << vgg_width << "|img8x8x3-c4|pe" << vgg_pretrain_epochs << "|bs"
            << t.batch_size << "-lr" << t.learning_rate << "-m" << t.momentum << "|arr"
            << a.rows << 'x' << a.cols;
    return context.str();
}

workload build_vgg_workload() {
    workload w;
    const dataset full = make_synthetic_images(vgg_data_config());
    dataset_split split = split_dataset(full, 0.75, 1);
    w.train_data = std::move(split.train);
    w.test_data = std::move(split.test);
    vgg11_config model_cfg;
    model_cfg.input = vgg_data_config().shape;
    model_cfg.num_classes = vgg_data_config().num_classes;
    model_cfg.width_multiplier = vgg_width;
    rng gen(2);
    w.model = make_vgg11(model_cfg, gen);
    w.trainer_cfg = vgg_trainer_config();
    w.array = vgg_array();
    fault_aware_trainer trainer(*w.model, w.train_data, w.test_data, w.trainer_cfg);
    w.clean_accuracy = trainer.train(vgg_pretrain_epochs).final_accuracy;
    w.pretrained = snapshot_parameters(w.model->parameters());
    w.context = vgg_context();
    return w;
}

}  // namespace

workload_spec make_spec(const std::string& name, std::uint64_t seed, const host_info& host) {
    workload_spec spec;
    spec.name = name;
    spec.seed = seed;
    spec.sweep.seed = seed;
    spec.fleet.seed = seed + 1;
    spec.fleet.distribution = rate_distribution::uniform;
    const std::size_t cores = host.nproc;
    if (name == "mlp_lot") {
        spec.model = "mlp";
        spec.sweep.fault_rates = fig3_rates;
        spec.sweep.repeats = 5;
        spec.sweep.max_epochs = 6.0;
        spec.sweep.context = workload_context();
        spec.fleet.num_chips = mlp_lot_chips;
        spec.fleet.rate_lo = 0.01;
        spec.fleet.rate_hi = 0.30;
        spec.constraint = 0.91;
        spec.timed = {.sweep_threads = cores,
                      .sweep_gemm_threads = 1,
                      .fleet_threads = cores,
                      .fleet_gemm_threads = 1};
        spec.reference_name = "serial (threads 1, gemm 1, K=1)";
    } else if (name == "vgg_lot") {
        spec.model = "vgg11";
        spec.sweep.fault_rates = {0.0, 0.1, 0.2, 0.3};
        spec.sweep.repeats = 3;
        spec.sweep.max_epochs = 1.5;
        spec.sweep.context = vgg_context();
        spec.fleet.num_chips = vgg_lot_chips;
        spec.fleet.rate_lo = 0.05;
        spec.fleet.rate_hi = 0.25;
        spec.constraint = 0.70;
        spec.policy = "fixed";
        spec.fixed_epochs = 1.5;
        spec.timed = {.sweep_threads = 1,
                      .sweep_gemm_threads = cores,
                      .fleet_threads = 1,
                      .fleet_gemm_threads = cores,
                      .eval_batch_chips = 8,
                      .train_batch_chips = 8};
        spec.reference_name = "serial (threads 1, gemm 1, K=1)";
    } else if (name == "dist_timeline") {
        spec.model = "mlp";
        spec.sweep.fault_rates = fig3_rates;
        spec.sweep.repeats = 3;
        spec.sweep.max_epochs = 2.0;
        spec.sweep.context = workload_context();
        spec.sweep.scenario = parse_scenario("strike@0.25:0.05;mode=recover;rollback=2");
        spec.sweep.scenario.seed = seed + 2;
        spec.fleet.num_chips = dist_lot_chips;
        spec.fleet.rate_lo = 0.01;
        spec.fleet.rate_hi = 0.30;
        spec.constraint = 0.91;
        spec.policy = "fixed";
        spec.fixed_epochs = 1.0;
        spec.timed = {.fleet_gemm_threads = 1, .dist_workers = 2};
        spec.reference = {.sweep_threads = 2, .fleet_threads = 2};
        spec.reference_name = "in-process local engines, same scenario (threads 2)";
    } else {
        std::string known;
        for (const std::string& n : workload_names()) { known += " " + n; }
        throw std::invalid_argument("unknown workload '" + name + "'; known:" + known);
    }
    return spec;
}

workload build_workload(const workload_spec& spec) {
    // Pretraining runs on the workload's own GEMM budget, as its sweep does.
    const scoped_intra_op_threads intra(spec.timed.sweep_gemm_threads);
    return spec.model == "vgg11" ? build_vgg_workload() : make_standard_workload();
}

lot_inputs build_inputs(const workload_spec& spec) {
    lot_inputs in;
    in.w = build_workload(spec);
    in.fleet = make_fleet(in.w.array, spec.fleet);
    return in;
}

json_value spec_to_json(const workload_spec& spec) {
    auto knobs = [](const exec_knobs& k) {
        json_object o;
        o.set("sweep_threads", json_value(k.sweep_threads));
        o.set("sweep_gemm_threads", json_value(k.sweep_gemm_threads));
        o.set("fleet_threads", json_value(k.fleet_threads));
        o.set("fleet_gemm_threads", json_value(k.fleet_gemm_threads));
        o.set("eval_batch_chips", json_value(k.eval_batch_chips));
        o.set("train_batch_chips", json_value(k.train_batch_chips));
        o.set("dist_workers", json_value(k.dist_workers));
        o.set("compute_threads", json_value(k.compute_threads()));
        return json_value(std::move(o));
    };
    json_array rates;
    for (const double r : spec.sweep.fault_rates) { rates.push_back(json_value(r)); }
    json_object o;
    o.set("name", json_value(spec.name));
    o.set("workload_seed", json_value(static_cast<double>(spec.seed)));
    o.set("sweep_seed", json_value(static_cast<double>(spec.sweep.seed)));
    o.set("fleet_seed", json_value(static_cast<double>(spec.fleet.seed)));
    o.set("scenario", json_value(scenario_to_string(spec.sweep.scenario)));
    o.set("model", json_value(spec.model));
    o.set("sweep_rates", json_value(std::move(rates)));
    o.set("sweep_repeats", json_value(spec.sweep.repeats));
    o.set("sweep_budget_epochs", json_value(spec.sweep.max_epochs));
    o.set("chips", json_value(spec.fleet.num_chips));
    o.set("rate_lo", json_value(spec.fleet.rate_lo));
    o.set("rate_hi", json_value(spec.fleet.rate_hi));
    o.set("policy", json_value(spec.policy));
    o.set("fixed_epochs", json_value(spec.fixed_epochs));
    o.set("constraint", json_value(spec.constraint));
    o.set("timed", knobs(spec.timed));
    o.set("reference", knobs(spec.reference));
    o.set("reference_path", json_value(spec.reference_name));
    return json_value(std::move(o));
}

// ---- digests ---------------------------------------------------------------

void digest::add(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
        state_ ^= bytes[i];
        state_ *= 1099511628211ull;
    }
}

std::string digest::hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(state_));
    return buf;
}

std::string outcomes_digest(const std::vector<chip_outcome>& chips) {
    digest d;
    for (const chip_outcome& c : chips) { d.add(dist::chip_outcome_to_json(c).dump()); }
    return d.hex();
}

std::size_t raw_bit_differences(const std::vector<chip_outcome>& a,
                                const std::vector<chip_outcome>& b) {
    auto raw = [](const chip_outcome& c) {
        digest d;
        for (const double v : {c.nominal_fault_rate, c.effective_fault_rate,
                               c.masked_weight_fraction, c.epochs_allocated, c.epochs_run,
                               c.accuracy_before, c.final_accuracy}) {
            d.add_value(v);
        }
        return d.hex();
    };
    std::size_t differing = std::max(a.size(), b.size()) - std::min(a.size(), b.size());
    for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
        if (raw(a[i]) != raw(b[i])) { ++differing; }
    }
    return differing;
}

std::string table_digest(const resilience_table& table) {
    digest d;
    d.add(table.to_json().dump());
    return d.hex();
}

json_value digests_to_json(const pass_digests& d) {
    json_object o;
    o.set("step1_table", json_value(d.table));
    o.set("chip_outcomes", json_value(d.outcomes));
    o.set("tuned_snapshots", json_value(d.snapshots));
    return json_value(std::move(o));
}

// ---- one pass --------------------------------------------------------------

namespace {

/// Runs the knobs' loopback workers against a started coordinator while
/// `wait` blocks on the job, and joins every worker before returning. On a
/// failed job the coordinator is stopped first, so the workers end too.
template <typename Wait>
auto with_workers(const workload_spec& spec, lot_inputs& in, const exec_knobs& knobs,
                  dist::coordinator& coord, Wait&& wait) {
    std::vector<std::thread> threads;
    std::vector<std::exception_ptr> errors(knobs.dist_workers);
    threads.reserve(knobs.dist_workers);
    for (std::size_t i = 0; i < knobs.dist_workers; ++i) {
        threads.emplace_back([&, i] {
            try {
                dist::worker_config wc;
                wc.port = coord.port();
                wc.name = "bench-w" + std::to_string(i);
                wc.gemm_threads = knobs.fleet_gemm_threads;
                wc.reconnect_deadline_ms = 2000;
                dist::worker node(wc, *in.w.model, in.w.pretrained, in.w.train_data,
                                  in.w.test_data, in.w.array, in.w.trainer_cfg, spec.sweep);
                (void)node.run();
            } catch (...) {
                errors[i] = std::current_exception();
            }
        });
    }
    auto join_all = [&] {
        for (std::thread& t : threads) { t.join(); }
        for (const std::exception_ptr& e : errors) {
            if (e) { std::rethrow_exception(e); }
        }
    };
    try {
        auto result = wait();
        join_all();
        return result;
    } catch (...) {
        coord.stop();
        for (std::thread& t : threads) {
            if (t.joinable()) { t.join(); }
        }
        throw;
    }
}

dist::coordinator_config coordinator_config_for(const workload_spec& spec,
                                                const std::string& journal_dir) {
    dist::coordinator_config cc;
    cc.fingerprint = resilience_fingerprint(spec.sweep);
    cc.journal_dir = journal_dir;
    return cc;
}

std::string fresh_dir(const std::string& scratch_dir, const std::string& leaf) {
    const std::string dir = scratch_dir + "/" + leaf;
    std::filesystem::remove_all(dir);
    return ensure_dir(dir);
}

}  // namespace

std::unique_ptr<retraining_policy> make_policy(const workload_spec& spec,
                                               const resilience_table& table) {
    policy_context ctx;
    ctx.table = &table;
    ctx.selector.stat = statistic::max;
    ctx.selector.accuracy_target = spec.constraint;
    ctx.fixed_epochs = spec.fixed_epochs;
    return policy_registry::global().make(spec.policy, ctx);
}

resilience_table run_step1(const workload_spec& spec, lot_inputs& in, const exec_knobs& knobs,
                           const std::string& scratch_dir, pass_counters& counters) {
    if (knobs.dist_workers == 0) {
        resilience_analyzer analyzer(*in.w.model, in.w.pretrained, in.w.train_data,
                                     in.w.test_data, in.w.array, in.w.trainer_cfg);
        sweep_options opts;
        opts.threads = knobs.sweep_threads;
        opts.gemm_threads = knobs.sweep_gemm_threads;
        opts.eval_group = knobs.eval_batch_chips;
        return analyzer.analyze(spec.sweep, opts);
    }
    const std::string journal_dir = fresh_dir(scratch_dir, "sweep-journal");
    dist::coordinator coord(coordinator_config_for(spec, journal_dir),
                            dist::sweep_job{spec.sweep, ""});
    coord.start();
    resilience_table table =
        with_workers(spec, in, knobs, coord, [&] { return coord.wait_table(); });
    counters.sweep_coordinator = coord.stats();
    std::filesystem::remove_all(journal_dir);
    return table;
}

policy_outcome run_lot(const workload_spec& spec, lot_inputs& in, const resilience_table& table,
                       const exec_knobs& knobs, const std::string& scratch_dir,
                       pass_counters& counters, std::string& snapshots,
                       const progress_sink& progress) {
    const std::unique_ptr<retraining_policy> owned = make_policy(spec, table);
    const retraining_policy& policy = *owned;
    digest sink_digest;
    const model_sink sink = [&](const chip&, const model_snapshot& snap) {
        sink_digest.add(snapshot_to_bytes(snap));
    };
    if (knobs.dist_workers == 0) {
        fleet_executor executor(*in.w.model, in.w.pretrained, in.w.train_data, in.w.test_data,
                                in.w.array, in.w.trainer_cfg,
                                fleet_executor_config{.threads = knobs.fleet_threads,
                                                      .gemm_threads = knobs.fleet_gemm_threads,
                                                      .eval_batch_chips = knobs.eval_batch_chips,
                                                      .train_batch_chips = knobs.train_batch_chips,
                                                      .scenario = spec.sweep.scenario});
        executor.set_model_sink(sink);
        executor.set_progress_sink(progress);
        policy_outcome outcome = executor.run(policy, in.fleet);
        counters.fleet = executor.last_run_stats();
        snapshots = sink_digest.hex();
        return outcome;
    }
    dist::fleet_job job = dist::plan_fleet_job(*in.w.model, in.w.array, policy, in.fleet);
    job.collect_snapshots = true;
    const std::string journal_dir = fresh_dir(scratch_dir, "fleet-journal");
    dist::coordinator coord(coordinator_config_for(spec, journal_dir), std::move(job));
    coord.set_model_sink(sink);
    coord.start();
    policy_outcome outcome =
        with_workers(spec, in, knobs, coord, [&] { return coord.wait_fleet(); });
    counters.fleet_coordinator = coord.stats();
    std::filesystem::remove_all(journal_dir);
    snapshots = sink_digest.hex();
    return outcome;
}

}  // namespace perfbench
