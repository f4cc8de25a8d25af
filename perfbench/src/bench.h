// Shared declarations of the end-to-end Reduce benchmark (see ../METRICS.md).
//
// The benchmark drives only the public API of the library: workloads are
// generated here from one seed, the library sees nothing but the generated
// inputs, and every timing is taken from outside the library's calls.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/fleet_executor.h"
#include "core/policy.h"
#include "core/resilience.h"
#include "core/workload.h"
#include "dist/coordinator.h"
#include "fault/chip.h"
#include "fault/scenario.h"
#include "util/json.h"

namespace perfbench {

using bench_clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
double seconds_since(bench_clock::time_point start);

/// Median of a non-empty sample.
double median(const std::vector<double>& values);

// ---- host and thread budget ------------------------------------------------

/// What the numbers were measured on: cores, ISA, the GEMM micro-kernel the
/// library dispatches to, and how the library was built.
struct host_info {
    std::size_t nproc = 1;                 ///< CPUs this process may run on
    std::size_t hardware_concurrency = 1;  ///< CPUs the machine reports
    bool avx2 = false;
    bool fma = false;
    bool avx512f = false;
    std::string micro_kernel;  ///< "avx2_fma" or "portable"
    bool native = false;       ///< built with REDUCE_NATIVE (-march=native)
    std::string build_type;
};

host_info probe_host();
reduce::json_value host_to_json(const host_info& host);

// ---- workloads -------------------------------------------------------------

/// Execution knobs of one pass through the pipeline. None of them may change
/// an output byte; the output gate checks exactly that.
struct exec_knobs {
    std::size_t sweep_threads = 1;
    std::size_t sweep_gemm_threads = 1;
    std::size_t fleet_threads = 1;
    std::size_t fleet_gemm_threads = 1;
    std::size_t eval_batch_chips = 1;
    std::size_t train_batch_chips = 1;
    std::size_t dist_workers = 0;  ///< 0 → in-process engines, else TCP workers

    /// Largest number of threads computing at once under these knobs.
    std::size_t compute_threads() const;
};

/// One named workload: what it builds, the Step-1 grid, the lot, the policy,
/// and the knobs of its timed and reference passes.
struct workload_spec {
    std::string name;
    std::uint64_t seed = 0;  ///< the workload seed every other seed derives from
    std::string model;       ///< "mlp" or "vgg11"
    reduce::resilience_config sweep;
    reduce::fleet_config fleet;
    double constraint = 0.91;
    std::string policy = "reduce";  ///< policy_registry name (max statistic)
    double fixed_epochs = 1.0;      ///< allocation of the "fixed" policy
    exec_knobs timed;
    exec_knobs reference;  ///< knobs of the output gate's reference pass
    std::string reference_name;
};

/// Default workload seed: the fig3 harness's sweep seed.
inline constexpr std::uint64_t default_seed = 20230309;

/// The names accepted by make_spec.
const std::vector<std::string>& workload_names();

/// Builds a workload's spec from its name and seed: sweep seed = seed, fleet
/// seed = seed + 1 (the fig3 pairing) and scenario seed = seed + 2.
workload_spec make_spec(const std::string& name, std::uint64_t seed, const host_info& host);

/// The generated inputs of one workload: pretrained model, data and lot.
struct lot_inputs {
    reduce::workload w;
    std::vector<reduce::chip> fleet;
};

/// Dataset synthesis and pretraining to the golden snapshot.
reduce::workload build_workload(const workload_spec& spec);

/// Set-up: build_workload plus fleet generation. Deterministic given the
/// spec.
lot_inputs build_inputs(const workload_spec& spec);

reduce::json_value spec_to_json(const workload_spec& spec);

// ---- one pass through the pipeline ---------------------------------------

/// 64-bit FNV-1a over the bytes fed to it.
class digest {
public:
    void add(const void* data, std::size_t size);
    void add(const std::string& bytes) { add(bytes.data(), bytes.size()); }
    template <typename T>
    void add_value(const T& value) { add(&value, sizeof value); }
    std::string hex() const;

private:
    std::uint64_t state_ = 14695981039346656037ull;
};

/// Digest of the outcomes in fleet order, each in its canonical JSON form
/// (dist::chip_outcome_to_json: every field at full precision — the form
/// the service ships and journals outcomes in, as the Step-1 table is
/// digested in its JSON form).
std::string outcomes_digest(const std::vector<reduce::chip_outcome>& chips);

/// Chips whose floating-point fields differ in any bit between two outcome
/// lists (a signed zero counts), plus any length difference. Reported next
/// to the gate; see METRICS.md, "Known finding".
std::size_t raw_bit_differences(const std::vector<reduce::chip_outcome>& a,
                                const std::vector<reduce::chip_outcome>& b);

/// Digest of a Step-1 table's JSON artifact.
std::string table_digest(const reduce::resilience_table& table);

/// Output digests of one pass; the gate compares them across passes.
struct pass_digests {
    std::string table;
    std::string outcomes;
    std::string snapshots;

    bool operator==(const pass_digests&) const = default;
};

reduce::json_value digests_to_json(const pass_digests& d);

/// Counters a pass reports besides its outputs.
struct pass_counters {
    reduce::fleet_run_stats fleet;            ///< in-process lot runs
    reduce::dist::coordinator_stats sweep_coordinator;
    reduce::dist::coordinator_stats fleet_coordinator;
};

/// Step 1 under `knobs` (cold: no cache). Dist knobs run a coordinator and
/// loopback workers; `scratch_dir` holds the coordinator journal.
reduce::resilience_table run_step1(const workload_spec& spec, lot_inputs& in,
                                   const exec_knobs& knobs, const std::string& scratch_dir,
                                   pass_counters& counters);

/// The workload's retraining policy over a Step-1 table.
std::unique_ptr<reduce::retraining_policy> make_policy(const workload_spec& spec,
                                                       const reduce::resilience_table& table);

/// Steps 2+3 under `knobs`: plan, accuracy_before, retraining, and delivery
/// of every tuned snapshot to a sink that digests it (in `snapshots`).
reduce::policy_outcome run_lot(const workload_spec& spec, lot_inputs& in,
                               const reduce::resilience_table& table, const exec_knobs& knobs,
                               const std::string& scratch_dir, pass_counters& counters,
                               std::string& snapshots,
                               const reduce::progress_sink& progress = nullptr);

// ---- results ---------------------------------------------------------------

struct metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct run_result {
    bool correct = true;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<metric> metrics;          ///< what the result line carries
    reduce::json_object report;           ///< everything else, for the report file
};

struct run_options {
    std::string workload;
    std::uint64_t seed = default_seed;
    double seconds = 16.0;
    bool trace = false;
    std::string out_dir;
};

/// Untraced run: the end-to-end metrics and the output gate.
run_result run_end_to_end(const run_options& opts, const workload_spec& spec);

/// Traced run: per-module metrics, self time per module, trace overhead and
/// a Chrome trace-event file.
run_result run_traced(const run_options& opts, const workload_spec& spec);

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// Creates `dir` (and parents); returns it.
std::string ensure_dir(const std::string& dir);

}  // namespace perfbench
