// Tests for Step 2: resilience-driven retraining-amount selection.
#include <gtest/gtest.h>

#include <cmath>

#include "core/selector.h"
#include "core/workload.h"
#include "fault/models.h"
#include "util/error.h"

namespace reduce {
namespace {

/// Table where epochs-to-target(rate) = 10*rate exactly (single repeat,
/// fine checkpoints) and the budget is 5 epochs.
resilience_table linear_table() {
    std::vector<resilience_run> runs;
    for (const double rate : {0.0, 0.1, 0.2, 0.3, 0.4, 0.5}) {
        resilience_run run;
        run.fault_rate = rate;
        run.repeat = 0;
        // Accuracy ramps from 0.5 to 0.95 exactly at epoch 10*rate, with a
        // dense grid so the crossing is sharp.
        for (double e = 0.0; e <= 5.0 + 1e-9; e += 0.01) {
            run.trajectory.push_back({e, e + 1e-12 >= 10.0 * rate ? 0.95 : 0.5});
        }
        runs.push_back(std::move(run));
    }
    return resilience_table(std::move(runs), 5.0);
}

TEST(Selector, LooksUpLinearRelation) {
    const resilience_table table = linear_table();
    selector_config cfg;
    cfg.accuracy_target = 0.9;
    cfg.rounding_quantum = 0.0;
    const retraining_selector selector(table, cfg);
    EXPECT_NEAR(selector.select_for_rate(0.2).epochs.value(), 2.0, 0.02);
    EXPECT_NEAR(selector.select_for_rate(0.35).epochs.value(), 3.5, 0.02);
    EXPECT_NEAR(selector.select_for_rate(0.0).epochs.value(), 0.0, 1e-9);
}

TEST(Selector, RoundingQuantumCeils) {
    const resilience_table table = linear_table();
    selector_config cfg;
    cfg.accuracy_target = 0.9;
    cfg.rounding_quantum = 0.5;
    const retraining_selector selector(table, cfg);
    const double epochs = selector.select_for_rate(0.23).epochs.value();
    EXPECT_DOUBLE_EQ(epochs, 2.5);  // 2.3 → ceil to 0.5 grid
}

TEST(Selector, ZeroEpochAllocationIsPositiveZero) {
    // ceil(0 / q - 1e-9) is -0.0; the rounded zero allocation must carry no
    // sign bit, so local and wire-decoded outcomes agree bit for bit.
    const resilience_table table = linear_table();
    selector_config cfg;
    cfg.accuracy_target = 0.9;
    cfg.rounding_quantum = 0.5;
    const retraining_selector selector(table, cfg);
    const double epochs = selector.select_for_rate(0.0).epochs.value();
    EXPECT_EQ(epochs, 0.0);
    EXPECT_FALSE(std::signbit(epochs));
}

TEST(Selector, SafetyFactorAndMargin) {
    const resilience_table table = linear_table();
    selector_config cfg;
    cfg.accuracy_target = 0.9;
    cfg.rounding_quantum = 0.0;
    cfg.safety_factor = 1.5;
    cfg.safety_margin = 0.25;
    const retraining_selector selector(table, cfg);
    EXPECT_NEAR(selector.select_for_rate(0.2).epochs.value(), 2.0 * 1.5 + 0.25, 0.05);
}

TEST(Selector, ClampsToBudget) {
    const resilience_table table = linear_table();
    selector_config cfg;
    cfg.accuracy_target = 0.9;
    cfg.rounding_quantum = 0.0;
    cfg.safety_factor = 10.0;
    const retraining_selector selector(table, cfg);
    const selection sel = selector.select_for_rate(0.5);
    EXPECT_TRUE(sel.clamped_to_budget);
    EXPECT_DOUBLE_EQ(sel.epochs.value(), 5.0);
}

TEST(Selector, UnreachableTargetPropagates) {
    const resilience_table table = linear_table();
    selector_config cfg;
    cfg.accuracy_target = 0.99;  // above every trajectory
    const retraining_selector selector(table, cfg);
    EXPECT_FALSE(selector.select_for_rate(0.2).epochs.has_value());
}

TEST(Selector, MonotoneInFaultRate) {
    const resilience_table table = linear_table();
    selector_config cfg;
    cfg.accuracy_target = 0.9;
    cfg.rounding_quantum = 0.05;
    const retraining_selector selector(table, cfg);
    double prev = -1.0;
    for (double rate = 0.0; rate <= 0.5; rate += 0.05) {
        const double epochs = selector.select_for_rate(rate).epochs.value();
        EXPECT_GE(epochs, prev - 1e-9) << "rate " << rate;
        prev = epochs;
    }
}

TEST(Selector, ValidatesConfig) {
    const resilience_table table = linear_table();
    selector_config cfg;
    cfg.accuracy_target = 0.0;
    EXPECT_THROW(retraining_selector(table, cfg), error);
    cfg.accuracy_target = 1.5;
    EXPECT_THROW(retraining_selector(table, cfg), error);
    cfg.accuracy_target = 0.9;
    cfg.safety_factor = 0.5;
    EXPECT_THROW(retraining_selector(table, cfg), error);
    cfg.safety_factor = 1.0;
    cfg.safety_margin = -0.1;
    EXPECT_THROW(retraining_selector(table, cfg), error);
}

TEST(Selector, SelectUsesEffectiveRateOfChip) {
    workload w = make_standard_workload(make_test_workload_config());
    const resilience_table table = linear_table();
    selector_config cfg;
    cfg.accuracy_target = 0.9;
    cfg.rate_kind = effective_rate_kind::whole_array;
    cfg.rounding_quantum = 0.0;
    const retraining_selector selector(table, cfg);

    random_fault_config fc;
    fc.fault_rate = 0.3;
    const fault_grid faults = generate_random_faults(w.array, fc, 9);
    const selection sel = selector.select(*w.model, w.array, faults);
    EXPECT_NEAR(sel.effective_fault_rate, 0.3, 0.01);
    EXPECT_NEAR(sel.epochs.value(), 3.0, 0.1);
}

TEST(Selector, MaxStatIsMoreConservativeThanMean) {
    // Two repeats with different crossing points: the max statistic must
    // select at least as many epochs as the mean.
    std::vector<resilience_run> runs;
    for (std::size_t rep = 0; rep < 2; ++rep) {
        resilience_run run;
        run.fault_rate = 0.1;
        run.repeat = rep;
        const double cross = rep == 0 ? 1.0 : 3.0;
        for (double e = 0.0; e <= 4.0 + 1e-9; e += 0.5) {
            run.trajectory.push_back({e, e + 1e-12 >= cross ? 0.95 : 0.5});
        }
        runs.push_back(std::move(run));
    }
    const resilience_table table(std::move(runs), 4.0);

    selector_config cfg;
    cfg.accuracy_target = 0.9;
    cfg.rounding_quantum = 0.0;
    cfg.stat = statistic::mean;
    const double mean_epochs =
        retraining_selector(table, cfg).select_for_rate(0.1).epochs.value();
    cfg.stat = statistic::max;
    const double max_epochs =
        retraining_selector(table, cfg).select_for_rate(0.1).epochs.value();
    EXPECT_DOUBLE_EQ(mean_epochs, 2.0);
    EXPECT_DOUBLE_EQ(max_epochs, 3.0);
    EXPECT_GT(max_epochs, mean_epochs);
}

}  // namespace
}  // namespace reduce
