#include "core/selector.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace reduce {

retraining_selector::retraining_selector(const resilience_table& table, selector_config cfg)
    : table_(table), cfg_(cfg) {
    REDUCE_CHECK(cfg_.accuracy_target > 0.0 && cfg_.accuracy_target < 1.0,
                 "accuracy target must be a fraction in (0,1), got " << cfg_.accuracy_target);
    REDUCE_CHECK(cfg_.safety_factor >= 1.0, "safety factor must be >= 1");
    REDUCE_CHECK(cfg_.safety_margin >= 0.0, "safety margin must be >= 0");
    REDUCE_CHECK(cfg_.rounding_quantum >= 0.0, "rounding quantum must be >= 0");
}

selection retraining_selector::select_for_rate(double effective_rate) const {
    selection result;
    result.effective_fault_rate = effective_rate;
    std::optional<double> epochs =
        table_.epochs_for(effective_rate, cfg_.accuracy_target, cfg_.stat, cfg_.interp);
    if (!epochs.has_value()) {
        result.epochs = std::nullopt;
        return result;
    }
    double amount = *epochs * cfg_.safety_factor + cfg_.safety_margin;
    if (cfg_.rounding_quantum > 0.0) {
        amount = std::ceil(amount / cfg_.rounding_quantum - 1e-9) * cfg_.rounding_quantum;
        // ceil of a value in (-1, 0) is -0.0: a zero-epoch allocation must
        // read +0.0, as it does after any wire round-trip.
        if (amount == 0.0) { amount = 0.0; }
    }
    if (amount > table_.max_epochs()) {
        amount = table_.max_epochs();
        result.clamped_to_budget = true;
    }
    result.epochs = amount;
    return result;
}

selection retraining_selector::select(sequential& model, const array_config& array,
                                      const fault_grid& faults) const {
    return select_for_rate(effective_fault_rate(model, array, faults, cfg_.rate_kind));
}

}  // namespace reduce
