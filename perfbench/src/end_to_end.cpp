// Untraced run: end-to-end metrics of one workload plus the output gate.
//
// Shape of a run:
//   1. set-up, repeated `setup_reps` times (setup_s is their median);
//   2. one untimed warm-up Step-1 pass and lot pass (the first pass of a
//      process pays heap growth and page faults), then timed Step-1 and
//      lot passes, alternating, until --seconds is spent and each stage
//      has at least min_reps timed passes. Alternating lets both stages
//      sample the same stretch of machine time; throughputs are medians
//      over the timed passes. Warm-up passes count as attempts and are
//      gated like the others;
//   3. outside the timed region, the output gate: every pass must produce
//      the same digests, and those must equal the reference path's.

#include <iostream>

#include "bench.h"
#include "util/log.h"

namespace perfbench {

using namespace reduce;

namespace {

constexpr int setup_reps = 5;
constexpr std::size_t min_reps = 3;

json_value samples_json(const std::vector<double>& values) {
    json_array a;
    for (const double v : values) { a.push_back(json_value(v)); }
    return json_value(std::move(a));
}

}  // namespace

run_result run_end_to_end(const run_options& opts, const workload_spec& spec) {
    run_result res;
    const std::string scratch = ensure_dir(opts.out_dir + "/scratch-" + spec.name);

    std::vector<double> setup_s;
    std::optional<lot_inputs> in;
    for (int i = 0; i < setup_reps; ++i) {
        in.reset();
        const bench_clock::time_point t0 = bench_clock::now();
        in.emplace(build_inputs(spec));
        setup_s.push_back(seconds_since(t0));
    }
    std::cerr << "[perfbench] " << spec.name << ": set-up median " << median(setup_s)
              << " s (clean accuracy " << in->w.clean_accuracy * 100.0 << "%)\n";

    const std::size_t cells = spec.sweep.fault_rates.size() * spec.sweep.repeats;
    const std::size_t chips = in->fleet.size();
    pass_counters counters;

    // ---- timed region ------------------------------------------------------
    std::vector<double> cells_per_s;
    std::vector<std::string> table_digests;
    std::optional<resilience_table> table;
    auto step1_pass = [&](bool warmup) {
        res.attempted += cells;
        try {
            const bench_clock::time_point t0 = bench_clock::now();
            resilience_table t = run_step1(spec, *in, spec.timed, scratch, counters);
            if (!warmup) {
                cells_per_s.push_back(static_cast<double>(cells) / seconds_since(t0));
            }
            table_digests.push_back(table_digest(t));
            if (!table) { table.emplace(std::move(t)); }
            return true;
        } catch (const std::exception& e) {
            std::cerr << "[perfbench] Step-1 pass failed: " << e.what() << '\n';
            res.failed += cells;
            return false;
        }
    };

    std::vector<double> chips_per_s;
    std::vector<pass_digests> lot_digests;
    std::optional<policy_outcome> outcome;
    auto lot_pass = [&](bool warmup) {
        if (!table) { return false; }
        res.attempted += chips;
        try {
            std::string snapshots;
            const bench_clock::time_point t0 = bench_clock::now();
            policy_outcome o = run_lot(spec, *in, *table, spec.timed, scratch, counters, snapshots);
            if (!warmup) {
                chips_per_s.push_back(static_cast<double>(chips) / seconds_since(t0));
            }
            for (const chip_outcome& c : o.chips) {
                if (c.hit_nonfinite) { ++res.failed; }
            }
            res.failed += chips - std::min(chips, o.chips.size());
            lot_digests.push_back({table_digests.front(), outcomes_digest(o.chips), snapshots});
            if (!outcome) { outcome.emplace(std::move(o)); }
            return true;
        } catch (const std::exception& e) {
            std::cerr << "[perfbench] lot pass failed: " << e.what() << '\n';
            res.failed += chips;
            return false;
        }
    };

    bool ok = step1_pass(true) && lot_pass(true);
    const bench_clock::time_point start = bench_clock::now();
    // The high-water mark is read after a fixed number of passes, so it
    // does not grow with how many passes the machine's speed allows.
    double rss_mb = 0.0;
    for (std::size_t pass = 0; pass < min_reps || (ok && seconds_since(start) < opts.seconds);
         ++pass) {
        ok = step1_pass(false) && ok;
        ok = lot_pass(false) && ok;
        if (pass == 0) { rss_mb = peak_rss_mb(); }
    }

    // ---- output gate (never looks at timing) -------------------------------
    bool repeatable = !table_digests.empty() && !lot_digests.empty();
    for (const std::string& d : table_digests) { repeatable = repeatable && d == table_digests[0]; }
    for (const pass_digests& d : lot_digests) { repeatable = repeatable && d == lot_digests[0]; }

    pass_digests reference;
    bool reference_ok = false;
    std::size_t bit_differences = 0;
    try {
        pass_counters ref_counters;
        const resilience_table ref_table =
            run_step1(spec, *in, spec.reference, scratch, ref_counters);
        const policy_outcome ref_outcome = run_lot(spec, *in, ref_table, spec.reference,
                                                   scratch, ref_counters, reference.snapshots);
        reference.table = table_digest(ref_table);
        reference.outcomes = outcomes_digest(ref_outcome.chips);
        bit_differences = outcome ? raw_bit_differences(outcome->chips, ref_outcome.chips) : 0;
        reference_ok = true;
    } catch (const std::exception& e) {
        std::cerr << "[perfbench] reference pass failed: " << e.what() << '\n';
    }
    const pass_digests timed = lot_digests.empty() ? pass_digests{} : lot_digests[0];
    res.correct = repeatable && reference_ok && timed == reference;

    std::cout << "gate " << spec.name << ": timed   table " << timed.table << " outcomes "
              << timed.outcomes << " snapshots " << timed.snapshots << '\n'
              << "gate " << spec.name << ": reference table " << reference.table
              << " outcomes " << reference.outcomes << " snapshots " << reference.snapshots
              << "  [" << spec.reference_name << "]\n"
              << "gate " << spec.name << ": "
              << (res.correct ? "PASS" : repeatable ? "*** MISMATCH vs reference ***"
                                                    : "*** passes disagree ***")
              << " (" << bit_differences
              << " chips differ from the reference in some raw bit, e.g. a signed zero)\n";

    // ---- metrics -----------------------------------------------------------
    const double succeeded =
        res.attempted == 0 ? 0.0
                           : 100.0 * static_cast<double>(res.attempted - res.failed) /
                                 static_cast<double>(res.attempted);
    res.metrics.push_back({"setup_s", median(setup_s), "s"});
    res.metrics.push_back(
        {"step1_cells_per_s", cells_per_s.empty() ? 0.0 : median(cells_per_s), "cells/s"});
    res.metrics.push_back(
        {"fleet_chips_per_s", chips_per_s.empty() ? 0.0 : median(chips_per_s), "chips/s"});
    res.metrics.push_back({"peak_rss_mb", rss_mb, "MB"});
    res.metrics.push_back({"total_epochs", outcome ? outcome->total_epochs() : 0.0, "epochs"});
    res.metrics.push_back(
        {"pct_meeting", outcome ? outcome->fraction_meeting() * 100.0 : 0.0, "%"});
    res.metrics.push_back({"succeeded_ops_pct", succeeded, "%"});

    json_object samples;
    samples.set("setup_s", samples_json(setup_s));
    samples.set("step1_cells_per_s", samples_json(cells_per_s));
    samples.set("fleet_chips_per_s", samples_json(chips_per_s));
    res.report.set("samples", json_value(std::move(samples)));
    res.report.set("digests_timed", digests_to_json(timed));
    res.report.set("digests_reference", digests_to_json(reference));
    res.report.set("outcome_raw_bit_differences", json_value(bit_differences));
    res.report.set("clean_accuracy", json_value(in->w.clean_accuracy));

    json_object waste;
    waste.set("failed_ops", json_value(res.failed));
    waste.set("attempted_ops", json_value(res.attempted));
    waste.set("cells_per_pass", json_value(cells));
    waste.set("chips_per_pass", json_value(chips));
    const fleet_run_stats& fs = counters.fleet;
    waste.set("grouped_train_chips", json_value(fs.grouped_train_chips));
    waste.set("grouped_train_groups", json_value(fs.grouped_train_groups));
    waste.set("serial_train_chips", json_value(fs.serial_train_chips));
    waste.set("alloc_downgrades", json_value(fs.alloc_downgrades));
    waste.set("nonfinite_downgrades", json_value(fs.nonfinite_downgrades));
    waste.set("scenario_downgrades", json_value(fs.scenario_downgrades));
    const std::size_t granted =
        counters.sweep_coordinator.leases_granted + counters.fleet_coordinator.leases_granted;
    const std::size_t reassigned = counters.sweep_coordinator.leases_reassigned +
                                   counters.fleet_coordinator.leases_reassigned;
    waste.set("leases_granted", json_value(granted));
    waste.set("leases_reassigned", json_value(reassigned));
    res.report.set("waste", json_value(std::move(waste)));
    return res;
}

}  // namespace perfbench
