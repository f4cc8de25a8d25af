// Traced run: per-module costs of one workload, timed from outside.
//
// Shape of a run:
//   1. set-up, with spans around workload building and fleet generation;
//   2. engine passes through the same entry points as the untraced run: a
//      warm-up, an untraced pass and a traced pass (stage spans plus a
//      progress mark per chip); their wall-time difference is
//      trace.overhead_pct;
//   3. the replay: the same Step 1 -> Step 2 -> Step 3 work, issued one
//      public call at a time (analyze_cells per cell, effective_fault_rate
//      and plan, evaluate, tune / tune_group per chip or group, in the
//      executor's block order) with a span around each call;
//   4. module probes at the workload's batch with a chip's masks attached:
//      training step phases, each layer's own forward/backward, every
//      distinct GEMM of the model, im2col, the loader, snapshot encoding
//      and journal appends.
// The output gate: both engine passes and the replay must produce the same
// Step-1 table, chip outcomes and tuned snapshots.

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>

#include "bench.h"
#include "core/grouped_fat_trainer.h"
#include "core/multi_mask_eval.h"
#include "core/policy.h"
#include "data/loader.h"
#include "dist/journal.h"
#include "dist/protocol.h"
#include "fault/mask_builder.h"
#include "nn/conv_layers.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/optim.h"
#include "tensor/conv.h"
#include "tensor/gemm.h"
#include "tensor/workspace.h"
#include "trace.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace perfbench {

using namespace reduce;

namespace {

/// Calls `fn` until `budget_s` has elapsed, at least `min_calls` and at
/// most `max_calls` times.
template <typename Fn>
void repeat_probe(double budget_s, std::size_t min_calls, std::size_t max_calls, Fn&& fn) {
    const bench_clock::time_point start = bench_clock::now();
    for (std::size_t i = 0; i < max_calls; ++i) {
        if (i >= min_calls && seconds_since(start) >= budget_s) { break; }
        fn();
    }
}

/// One engine pass (the untraced run's entry points). Returns wall seconds
/// of Step 1 and of the lot.
struct engine_pass {
    pass_digests digests;
    std::vector<chip_outcome> chips;
    double step1_s = 0.0;
    double lot_s = 0.0;
};

engine_pass run_engine(const workload_spec& spec, lot_inputs& in, const std::string& scratch,
                       pass_counters& counters, span_recorder* rec) {
    engine_pass p;
    const std::size_t s1 = rec != nullptr ? rec->open("engine.step1", "engine") : 0;
    bench_clock::time_point t0 = bench_clock::now();
    const resilience_table table = run_step1(spec, in, spec.timed, scratch, counters);
    p.step1_s = seconds_since(t0);
    if (rec != nullptr) { rec->close(s1); }
    p.digests.table = table_digest(table);

    progress_sink progress;
    if (rec != nullptr) {
        progress = [rec](std::size_t, std::size_t, const chip_outcome&) {
            rec->mark("engine.chip_done", "engine");
        };
    }
    const std::size_t s2 = rec != nullptr ? rec->open("engine.lot", "engine") : 0;
    t0 = bench_clock::now();
    policy_outcome outcome =
        run_lot(spec, in, table, spec.timed, scratch, counters, p.digests.snapshots, progress);
    p.lot_s = seconds_since(t0);
    if (rec != nullptr) { rec->close(s2); }
    p.digests.outcomes = outcomes_digest(outcome.chips);
    p.chips = std::move(outcome.chips);
    return p;
}

/// Products of one mapped layer at the workload batch, as the canonical
/// forward / backward-data / backward-weight GEMMs.
struct gemm_case {
    std::string layer;  ///< e.g. "conv2d3"
    std::string pass;   ///< fwd, bwd_data, bwd_weight
    char form;          ///< 'n' = gemm_nn, 't' = gemm_nt, 'T' = gemm_tn
    std::size_t m, n, k;
};

struct layer_geometry {
    std::string kind;
    shape_t input;
    conv2d_spec conv;          ///< conv2d layers
    std::size_t in_features = 0, out_features = 0;  ///< linear layers
};

/// Shapes of every mapped layer's input at the workload batch, found by one
/// layer-by-layer forward pass.
std::vector<layer_geometry> mapped_geometry(sequential& model, const tensor& batch) {
    std::vector<layer_geometry> out;
    tensor x = batch;
    for (std::size_t i = 0; i < model.size(); ++i) {
        module& layer = model.layer(i);
        if (auto* conv = dynamic_cast<conv2d_layer*>(&layer)) {
            out.push_back({"conv2d", x.shape(), conv->spec(), 0, 0});
        } else if (auto* lin = dynamic_cast<linear*>(&layer)) {
            out.push_back({"linear", x.shape(), {}, lin->in_features(), lin->out_features()});
        }
        x = layer.forward(x);
    }
    return out;
}

std::vector<gemm_case> gemm_cases(const std::vector<layer_geometry>& layers) {
    std::vector<gemm_case> cases;
    std::size_t index = 0;
    for (const layer_geometry& g : layers) {
        const std::string name = g.kind + std::to_string(index++);
        if (g.kind == "linear") {
            const std::size_t batch = g.input[0];
            // Y[N,out] = X[N,in] W^T ; dX = dY W ; dW = dY^T X
            cases.push_back({name, "fwd", 't', batch, g.out_features, g.in_features});
            cases.push_back({name, "bwd_data", 'n', batch, g.in_features, g.out_features});
            cases.push_back({name, "bwd_weight", 'T', g.out_features, g.in_features, batch});
        } else {
            const std::size_t cols =
                g.input[0] * g.conv.out_h(g.input[2]) * g.conv.out_w(g.input[3]);
            const std::size_t patch = g.conv.patch_size();
            const std::size_t oc = g.conv.out_channels;
            // Y[oc,P] = W[oc,ps] C[ps,P] ; dC = W^T dY ; dW = dY C^T
            cases.push_back({name, "fwd", 'n', oc, cols, patch});
            cases.push_back({name, "bwd_data", 'T', patch, cols, oc});
            cases.push_back({name, "bwd_weight", 't', oc, patch, cols});
        }
    }
    return cases;
}

std::vector<float> filled(std::size_t n, std::uint64_t seed) {
    rng gen(seed);
    std::vector<float> v(n);
    for (float& x : v) { x = static_cast<float>(gen.uniform(-1.0, 1.0)); }
    return v;
}

/// Median milliseconds of one call of the GEMM `c`, sampled for `budget_s`.
double time_gemm(span_recorder& rec, const gemm_case& c, double budget_s) {
    const std::vector<float> a = filled(c.m * c.k, 1);
    const std::vector<float> b = filled(c.k * c.n, 2);
    std::vector<float> out(c.m * c.n);
    workspace& ws = workspace::local();
    std::vector<double> ms;
    repeat_probe(budget_s, 3, 200, [&] {
        ms.push_back(timed_span(rec, "tensor.gemm." + c.layer + "." + c.pass, "tensor", [&] {
            switch (c.form) {
                case 'n':  // A[m,k] B[k,n]
                    gemm_nn(c.m, c.n, c.k, a.data(), c.k, b.data(), c.n, out.data(), c.n,
                            false, ws);
                    break;
                case 't':  // A[m,k] B[n,k]^T
                    gemm_nt(c.m, c.n, c.k, a.data(), c.k, b.data(), c.k, out.data(), c.n,
                            false, ws);
                    break;
                default:   // A[k,m]^T B[k,n]
                    gemm_tn(c.m, c.n, c.k, a.data(), c.m, b.data(), c.n, out.data(), c.n,
                            false, ws);
                    break;
            }
        }));
    });
    return median(ms);
}

}  // namespace

run_result run_traced(const run_options& opts, const workload_spec& spec) {
    run_result res;
    const std::string scratch = ensure_dir(opts.out_dir + "/scratch-" + spec.name);
    const std::string run_id = spec.name + "-seed" + std::to_string(opts.seed);
    span_recorder rec(run_id);
    json_object extra;  // per-layer numbers that only some models have
    // Each repeated module probe samples for a fixed share of --seconds.
    const double probe_budget_s = opts.seconds / 40.0;

    // ---- 1. set-up ---------------------------------------------------------
    lot_inputs in;
    double make_fleet_ms = 0.0;
    {
        const std::size_t s = rec.open("setup", "bench");
        timed_span(rec, "setup.workload", "setup", [&] { in.w = build_workload(spec); });
        make_fleet_ms = timed_span(rec, "fault.make_fleet", "fault",
                                   [&] { in.fleet = make_fleet(in.w.array, spec.fleet); });
        rec.close(s);
    }
    const std::size_t chips = in.fleet.size();
    const std::size_t cells = spec.sweep.fault_rates.size() * spec.sweep.repeats;

    // ---- 2. engine passes --------------------------------------------------
    pass_counters counters;
    (void)run_engine(spec, in, scratch, counters, nullptr);  // warm-up
    const engine_pass untraced = run_engine(spec, in, scratch, counters, nullptr);
    const std::size_t engine_span = rec.open("engine", "bench");
    const engine_pass traced = run_engine(spec, in, scratch, counters, &rec);
    rec.close(engine_span);
    const double overhead_pct =
        100.0 * ((traced.step1_s + traced.lot_s) / (untraced.step1_s + untraced.lot_s) - 1.0);
    res.attempted += 3 * (cells + chips);

    // ---- 3. replay, one public call at a time ------------------------------
    const std::size_t replay_span = rec.open("replay", "bench");
    resilience_analyzer analyzer(*in.w.model, in.w.pretrained, in.w.train_data, in.w.test_data,
                                 in.w.array, in.w.trainer_cfg);
    sweep_options cell_opts;
    cell_opts.gemm_threads = spec.timed.sweep_gemm_threads;
    std::vector<resilience_table> shards;
    std::vector<double> cell_ms;
    for (const sweep_cell& cell : enumerate_sweep_cells(spec.sweep)) {
        cell_ms.push_back(timed_span(rec, "core.sweep.cell", "core", [&] {
            shards.push_back(analyzer.analyze_cells(spec.sweep, {cell}, cell_opts));
        }));
    }
    const resilience_table table = resilience_table::merge(shards);
    shards.clear();

    const std::unique_ptr<retraining_policy> owned_policy = make_policy(spec, table);
    const retraining_policy& policy = *owned_policy;
    const std::size_t fleet_gemm = spec.timed.fleet_gemm_threads;
    const scoped_intra_op_threads intra(fleet_gemm);

    std::vector<chip_view> views(chips);
    std::vector<double> rate_ms;
    for (std::size_t i = 0; i < chips; ++i) {
        views[i].index = i;
        views[i].device = &in.fleet[i];
        views[i].table = &table;
        views[i].epoch_budget = table.max_epochs();
        rate_ms.push_back(timed_span(rec, "fault.effective_rate", "fault", [&] {
            views[i].effective_fault_rate = effective_fault_rate(
                *in.w.model, in.w.array, in.fleet[i].faults, policy.rate_kind());
        }));
    }
    std::vector<epoch_allocation> allocations;
    const double plan_ms = timed_span(rec, "core.policy.plan", "core",
                                      [&] { allocations = policy.plan(views); });

    // Step 3 in the executor's block order under the timed knobs.
    const exec_knobs& k = spec.timed;
    const std::size_t workers =
        k.dist_workers > 0 ? k.dist_workers
                           : resolve_thread_budget(k.fleet_threads, k.fleet_gemm_threads, chips)
                                 .fleet_workers;
    const std::size_t group = cap_group_at_fair_share(
        std::max({k.eval_batch_chips, k.train_batch_chips, std::size_t{1}}), chips, workers);
    const bool grouped_train = k.train_batch_chips > 1 && spec.sweep.scenario.empty();

    // How much of the lot the lockstep engine could group under the paper's
    // reduce plan (chips in same-allocation runs of >= 2 inside a block).
    std::size_t reduce_groupable = 0;
    {
        workload_spec reduce_spec = spec;
        reduce_spec.policy = "reduce";
        const std::vector<epoch_allocation> plan = make_policy(reduce_spec, table)->plan(views);
        for (std::size_t begin = 0; begin < chips; begin += group) {
            const std::size_t end = std::min(chips, begin + group);
            for (std::size_t s = begin; s < end;) {
                std::size_t e = s + 1;
                while (e < end && plan[e].epochs == plan[s].epochs) { ++e; }
                if (e - s >= 2) { reduce_groupable += e - s; }
                s = e;
            }
        }
    }

    chip_tuner tuner(*in.w.model, in.w.pretrained, in.w.train_data, in.w.test_data, in.w.array,
                     in.w.trainer_cfg);
    tuner.set_capture_tuned(true);
    tuner.set_scenario(spec.sweep.scenario);
    grouped_chip_tuner gtuner(*in.w.model, in.w.pretrained, in.w.train_data, in.w.test_data,
                              in.w.array, in.w.trainer_cfg);
    gtuner.set_capture_tuned(true);
    std::unique_ptr<multi_mask_evaluator> evaluator;
    std::unique_ptr<sequential> eval_model = clone_model(*in.w.model);
    restore_parameters(eval_model->parameters(), in.w.pretrained);
    fault_aware_trainer eval_trainer(*eval_model, in.w.train_data, in.w.test_data,
                                     in.w.trainer_cfg);

    std::vector<chip_outcome> outcomes(chips);
    digest snapshots;
    model_snapshot first_snapshot;
    std::vector<double> before_ms_per_chip, attach_ms, restore_ms, tune_ms, group_ms;
    double chip_compute_ms = 0.0;
    std::size_t groups_run = 0, grouped_chips = 0, alloc_downgrades = 0;
    auto deliver = [&](std::size_t i, model_snapshot snap) {
        timed_span(rec, "core.sink", "core", [&] { snapshots.add(snapshot_to_bytes(snap)); });
        if (i == 0) { first_snapshot = std::move(snap); }
    };
    auto tune_serial = [&](std::size_t i, std::optional<double> before) {
        const double ms = timed_span(rec, "core.tune.chip", "core", [&] {
            outcomes[i] = tuner.tune(in.fleet[i], allocations[i], spec.constraint,
                                     views[i].effective_fault_rate, before);
        });
        tune_ms.push_back(ms);
        chip_compute_ms += ms;
        deliver(i, tuner.take_tuned());
    };
    for (std::size_t begin = 0; begin < chips; begin += group) {
        const std::size_t end = std::min(chips, begin + group);
        std::vector<double> before(end - begin);
        if (end - begin > 1 && k.eval_batch_chips > 1) {
            if (!evaluator) {
                evaluator = std::make_unique<multi_mask_evaluator>(
                    *in.w.model, in.w.pretrained, in.w.test_data, in.w.array,
                    in.w.trainer_cfg);
            }
            std::vector<const fault_grid*> grids;
            for (std::size_t i = begin; i < end; ++i) { grids.push_back(&in.fleet[i].faults); }
            const double ms = timed_span(rec, "core.eval.before", "core",
                                         [&] { before = evaluator->evaluate(grids); });
            before_ms_per_chip.push_back(ms / static_cast<double>(end - begin));
            chip_compute_ms += ms;
        } else {
            for (std::size_t i = begin; i < end; ++i) {
                double ms = timed_span(rec, "fault.attach_masks", "fault", [&] {
                    attach_fault_masks(*eval_model, in.w.array, in.fleet[i].faults);
                });
                attach_ms.push_back(ms);
                const double eval_ms = timed_span(rec, "core.eval.before", "core", [&] {
                    before[i - begin] = eval_trainer.evaluate();
                });
                before_ms_per_chip.push_back(eval_ms);
                const double rms = timed_span(rec, "nn.restore", "nn", [&] {
                    clear_fault_masks(*eval_model);
                    restore_parameters(eval_model->parameters(), in.w.pretrained);
                });
                restore_ms.push_back(rms);
                chip_compute_ms += ms + eval_ms + rms;
            }
        }
        if (!(grouped_train && end - begin > 1)) {
            for (std::size_t i = begin; i < end; ++i) { tune_serial(i, before[i - begin]); }
            continue;
        }
        // Maximal same-allocation runs, as the executor carves them.
        for (std::size_t s = begin; s < end;) {
            std::size_t run_end = s + 1;
            while (run_end < end && allocations[run_end].epochs == allocations[s].epochs &&
                   allocations[run_end].train_to_target == allocations[s].train_to_target) {
                ++run_end;
            }
            if (run_end - s == 1) {
                ++alloc_downgrades;
                tune_serial(s, before[s - begin]);
                s = run_end;
                continue;
            }
            for (std::size_t c = s; c < run_end;) {
                const std::size_t ce = std::min(run_end, c + k.train_batch_chips);
                bool grouped_ok = false;
                if (ce - c >= 2) {
                    std::vector<const chip*> gchips;
                    std::vector<const epoch_allocation*> gallocs;
                    std::vector<double> grates, gbefore;
                    for (std::size_t i = c; i < ce; ++i) {
                        gchips.push_back(&in.fleet[i]);
                        gallocs.push_back(&allocations[i]);
                        grates.push_back(views[i].effective_fault_rate);
                        gbefore.push_back(before[i - begin]);
                    }
                    try {
                        std::vector<chip_outcome> results;
                        const double ms = timed_span(rec, "core.grouped.group", "core", [&] {
                            results = gtuner.tune_group(gchips, gallocs, spec.constraint,
                                                        grates, gbefore);
                        });
                        group_ms.push_back(ms);
                        chip_compute_ms += ms;
                        for (std::size_t i = c; i < ce; ++i) {
                            outcomes[i] = results[i - c];
                            deliver(i, gtuner.take_tuned(i - c));
                        }
                        ++groups_run;
                        grouped_chips += ce - c;
                        grouped_ok = true;
                    } catch (const grouped_nonfinite_error&) {
                        grouped_ok = false;
                    }
                }
                if (!grouped_ok) {
                    for (std::size_t i = c; i < ce; ++i) { tune_serial(i, before[i - begin]); }
                }
                c = ce;
            }
            s = run_end;
        }
    }
    rec.close(replay_span);
    pass_digests replay{table_digest(table), outcomes_digest(outcomes), snapshots.hex()};
    res.attempted += cells + chips;

    // ---- output gate -------------------------------------------------------
    res.correct = untraced.digests == traced.digests && replay == untraced.digests;
    for (const chip_outcome& c : untraced.chips) {
        if (c.hit_nonfinite) { ++res.failed; }
    }
    std::cout << "gate " << spec.name << ": engine  table " << untraced.digests.table
              << " outcomes " << untraced.digests.outcomes << " snapshots "
              << untraced.digests.snapshots << '\n'
              << "gate " << spec.name << ": replay  table " << replay.table << " outcomes "
              << replay.outcomes << " snapshots " << replay.snapshots
              << "  [one public call at a time]\n"
              << "gate " << spec.name << ": " << (res.correct ? "PASS" : "*** MISMATCH ***")
              << '\n';

    // ---- what-if group on lots that never group ----------------------------
    bool group_what_if = false;
    if (group_ms.empty()) {
        // The most common positive allocation, on up to 8 chips.
        std::map<double, std::size_t> counts;
        for (const epoch_allocation& a : allocations) {
            if (a.epochs > 0.0) { ++counts[a.epochs]; }
        }
        epoch_allocation what_if;
        what_if.epochs = 0.5;
        std::size_t best = 0;
        for (const auto& [epochs, n] : counts) {
            if (n > best) { best = n, what_if.epochs = epochs; }
        }
        std::vector<const chip*> gchips;
        std::vector<const epoch_allocation*> gallocs;
        std::vector<double> grates;
        for (std::size_t i = 0; i < std::min<std::size_t>(8, chips); ++i) {
            gchips.push_back(&in.fleet[i]);
            gallocs.push_back(&what_if);
            grates.push_back(views[i].effective_fault_rate);
        }
        gtuner.set_capture_tuned(false);
        group_ms.push_back(timed_span(rec, "core.grouped.group_what_if", "core", [&] {
            (void)gtuner.tune_group(gchips, gallocs, spec.constraint, grates, {});
        }));
        group_what_if = true;
    }

    // ---- what-if serial tunes on lots where every chip grouped -------------
    bool tune_what_if = false;
    if (tune_ms.empty()) {
        tuner.set_capture_tuned(false);
        for (std::size_t i = 0; i < std::min<std::size_t>(4, chips); ++i) {
            tune_ms.push_back(timed_span(rec, "core.tune.chip_what_if", "core", [&] {
                (void)tuner.tune(in.fleet[i], allocations[i], spec.constraint,
                                 views[i].effective_fault_rate);
            }));
        }
        tune_what_if = true;
    }

    // ---- 4. module probes --------------------------------------------------
    std::unique_ptr<sequential> model = clone_model(*in.w.model);
    restore_parameters(model->parameters(), in.w.pretrained);
    for (std::size_t i = 0; i < std::min<std::size_t>(16, chips); ++i) {
        attach_ms.push_back(timed_span(rec, "fault.attach_masks", "fault", [&] {
            attach_fault_masks(*model, in.w.array, in.fleet[i].faults);
        }));
        restore_ms.push_back(timed_span(rec, "nn.restore", "nn", [&] {
            clear_fault_masks(*model);
            restore_parameters(model->parameters(), in.w.pretrained);
        }));
    }
    attach_fault_masks(*model, in.w.array, in.fleet[0].faults);
    reseed_stochastic_layers(*model, in.fleet[0].seed);

    // Training step phases through the model (the scheduled, fused path).
    const fat_config& tc = in.w.trainer_cfg;
    data_loader loader(in.w.train_data, tc.batch_size, tc.shuffle_seed);
    sgd opt(model->parameters(), {.learning_rate = tc.learning_rate,
                                  .momentum = tc.momentum,
                                  .weight_decay = tc.weight_decay});
    model->set_training(true);
    std::vector<double> batch_ms, fwd_ms, bwd_ms, optim_ms;
    batch probe_batch;
    repeat_probe(probe_budget_s, 10, 2000, [&] {
        batch_ms.push_back(
            timed_span(rec, "data.batch", "data", [&] { probe_batch = loader.next_batch(); }));
        tensor logits;
        fwd_ms.push_back(timed_span(rec, "nn.step.fwd", "nn", [&] {
            logits = model->forward(probe_batch.features);
        }));
        const loss_result loss = cross_entropy_loss(logits, probe_batch.labels);
        opt.zero_grad();
        bwd_ms.push_back(
            timed_span(rec, "nn.step.bwd", "nn", [&] { (void)model->backward(loss.grad); }));
        optim_ms.push_back(timed_span(rec, "nn.step.optim", "nn", [&] { opt.step(); }));
    });

    // Each layer's own forward/backward in model order (the unfused path).
    std::map<std::string, std::vector<double>> kind_fwd, kind_bwd;
    std::vector<double> unfused_fwd, unfused_bwd;
    repeat_probe(probe_budget_s, 10, 2000, [&] {
        std::map<std::string, double> f, b;
        tensor x = probe_batch.features;
        for (std::size_t i = 0; i < model->size(); ++i) {
            module& layer = model->layer(i);
            f[layer.name()] += timed_span(rec, "nn." + layer.name() + ".fwd", "nn",
                                          [&] { x = layer.forward(x); });
        }
        tensor g = cross_entropy_loss(x, probe_batch.labels).grad;
        for (std::size_t i = model->size(); i-- > 0;) {
            module& layer = model->layer(i);
            b[layer.name()] += timed_span(rec, "nn." + layer.name() + ".bwd", "nn",
                                          [&] { g = layer.backward(g); });
        }
        double total_f = 0.0, total_b = 0.0;
        for (const auto& [kind, ms] : f) { kind_fwd[kind].push_back(ms), total_f += ms; }
        for (const auto& [kind, ms] : b) { kind_bwd[kind].push_back(ms), total_b += ms; }
        unfused_fwd.push_back(total_f);
        unfused_bwd.push_back(total_b);
    });
    opt.zero_grad();

    std::vector<double> eval_ms;
    {
        fault_aware_trainer probe_trainer(*model, in.w.train_data, in.w.test_data, tc);
        repeat_probe(probe_budget_s, 3, 200, [&] {
            eval_ms.push_back(timed_span(rec, "nn.eval", "nn",
                                         [&] { (void)probe_trainer.evaluate(); }));
        });
    }

    // Every distinct GEMM of the model at the workload batch.
    const std::vector<layer_geometry> geometry =
        mapped_geometry(*model, probe_batch.features);
    double flops_fwd = 0.0, ms_fwd = 0.0, flops_bwd = 0.0, ms_bwd = 0.0;
    json_array gemm_rows;
    for (const gemm_case& c : gemm_cases(geometry)) {
        const double ms = time_gemm(rec, c, probe_budget_s / 8.0);
        const double flops = 2.0 * static_cast<double>(c.m * c.n * c.k);
        const double bytes = 4.0 * static_cast<double>(c.m * c.k + c.k * c.n + c.m * c.n);
        (c.pass == "fwd" ? flops_fwd : flops_bwd) += flops;
        (c.pass == "fwd" ? ms_fwd : ms_bwd) += ms;
        json_object row;
        row.set("name", json_value("tensor.gemm." + c.layer + "." + c.pass));
        row.set("form", json_value(std::string(c.form == 'n'   ? "gemm_nn"
                                               : c.form == 't' ? "gemm_nt"
                                                               : "gemm_tn")));
        row.set("m", json_value(c.m));
        row.set("n", json_value(c.n));
        row.set("k", json_value(c.k));
        row.set("flops", json_value(flops));
        row.set("computed_bytes", json_value(bytes));
        row.set("ms", json_value(ms));
        row.set("gflops", json_value(flops / ms / 1e6));
        gemm_rows.push_back(json_value(std::move(row)));
    }
    extra.set("tensor.gemm", json_value(std::move(gemm_rows)));

    // Grouped (shared-B) GEMM at K=8 on the first mapped layer's forward.
    double multi_gflops = 0.0;
    {
        const layer_geometry& g = geometry.front();
        std::size_t m, n, kk;
        if (g.kind == "linear") {
            m = g.out_features, n = g.input[0], kk = g.in_features;
        } else {
            m = g.conv.out_channels, kk = g.conv.patch_size();
            n = g.input[0] * g.conv.out_h(g.input[2]) * g.conv.out_w(g.input[3]);
        }
        constexpr std::size_t variants = 8;
        std::vector<std::vector<float>> as, cs;
        std::vector<const float*> a_ptrs;
        std::vector<float*> c_ptrs;
        for (std::size_t v = 0; v < variants; ++v) {
            as.push_back(filled(m * kk, 10 + v));
            cs.emplace_back(m * n);
        }
        for (std::size_t v = 0; v < variants; ++v) {
            a_ptrs.push_back(as[v].data());
            c_ptrs.push_back(cs[v].data());
        }
        const std::vector<float> b = filled(kk * n, 3);
        std::vector<double> ms;
        repeat_probe(probe_budget_s / 4.0, 3, 200, [&] {
            ms.push_back(timed_span(rec, "tensor.gemm_multi.k8", "tensor", [&] {
                gemm_nn_multi(m, n, kk, a_ptrs.data(), variants, kk, b.data(), n,
                              c_ptrs.data(), n, false, workspace::local());
            }));
        });
        multi_gflops = 2.0 * variants * static_cast<double>(m * n * kk) / median(ms) / 1e6;
    }

    // Whole-batch conv lowering (models with conv layers only).
    std::vector<double> im2col_ms;
    {
        std::vector<const layer_geometry*> convs;
        for (const layer_geometry& g : geometry) {
            if (g.kind == "conv2d") { convs.push_back(&g); }
        }
        if (!convs.empty()) {
            repeat_probe(probe_budget_s / 4.0, 3, 500, [&] {
                double total = 0.0;
                for (const layer_geometry* g : convs) {
                    const std::size_t batch = g->input[0];
                    const std::vector<float> input =
                        filled(batch * g->input[1] * g->input[2] * g->input[3], 4);
                    std::vector<float> dst(g->conv.patch_size() * batch *
                                           g->conv.out_h(g->input[2]) *
                                           g->conv.out_w(g->input[3]));
                    total += timed_span(rec, "tensor.im2col", "tensor", [&] {
                        im2col_batch(input.data(), batch, g->input[2], g->input[3], g->conv,
                                     dst.data());
                    });
                }
                im2col_ms.push_back(total);
            });
        }
    }

    // What the service does with a tuned chip: encode and journal it.
    std::vector<double> encode_ms, journal_ms;
    std::string snapshot_bytes = snapshot_to_bytes(first_snapshot);
    repeat_probe(probe_budget_s / 4.0, 5, 200, [&] {
        encode_ms.push_back(timed_span(rec, "dist.encode", "dist", [&] {
            const std::string bytes = snapshot_to_bytes(first_snapshot);
            const std::string frame =
                dist::encode_frame(dist::make_chip_result(1, outcomes[0], bytes));
            (void)frame;
        }));
    });
    {
        const std::string dir = scratch + "/probe-journal";
        std::filesystem::remove_all(dir);
        ensure_dir(dir);
        constexpr std::size_t appends = 16;
        dist::journal journal;
        (void)journal.open(dir, dist::job_kind::fleet, "perfbench-" + spec.name, appends);
        for (std::size_t u = 0; u < appends; ++u) {
            json_object record;
            record.set("type", json_value("unit"));
            record.set("unit", json_value(u));
            record.set("outcome", dist::chip_outcome_to_json(outcomes[0]));
            record.set("snapshot", json_value(dist::base64_encode(snapshot_bytes)));
            const json_value value(std::move(record));
            journal_ms.push_back(timed_span(rec, "dist.journal_append", "dist",
                                            [&] { journal.append(value); }));
        }
        journal.close();
        std::filesystem::remove_all(dir);
    }

    // ---- metrics -----------------------------------------------------------
    std::size_t events = 0, rollbacks = 0, nonfinite = 0;
    double epochs_run = 0.0;
    for (const chip_outcome& c : untraced.chips) {
        events += c.events_applied;
        rollbacks += c.rollbacks;
        nonfinite += c.hit_nonfinite ? 1 : 0;
        epochs_run += c.epochs_run;
    }
    const fleet_run_stats& fs = counters.fleet;
    const dist::coordinator_stats& cs1 = counters.sweep_coordinator;
    const dist::coordinator_stats& cs2 = counters.fleet_coordinator;
    // Time the lot spent beyond the compute its chips need: engine lot wall
    // minus the serial part (rates + plan) minus the replayed per-chip
    // compute spread over the lot's workers. For dist_timeline this is the
    // coordinator's wait on round trips, frames and journal appends.
    double rates_total = 0.0;
    for (const double ms : rate_ms) { rates_total += ms; }
    const double wait_ms = untraced.lot_s * 1e3 - rates_total - plan_ms -
                           chip_compute_ms / static_cast<double>(workers);
    const auto self = rec.self_ms_by_module();
    auto self_of = [&](const std::string& module) {
        const auto it = self.find(module);
        return it == self.end() ? 0.0 : it->second;
    };
    auto kind_median = [](const std::map<std::string, std::vector<double>>& m,
                          const std::string& kind) {
        const auto it = m.find(kind);
        return it == m.end() ? 0.0 : median(it->second);
    };

    std::vector<metric>& out = res.metrics;
    out.push_back({"core.sweep.cell_ms.p50", percentile_of(cell_ms, 50), "ms"});
    out.push_back({"core.sweep.cell_ms.p90", percentile_of(cell_ms, 90), "ms"});
    out.push_back({"core.sweep.cells", static_cast<double>(cell_ms.size()), "count"});
    out.push_back({"core.eval.before_ms_per_chip", median(before_ms_per_chip), "ms"});
    out.push_back({"core.tune.chip_ms.p50", median(tune_ms), "ms"});
    out.push_back({"core.tune.chip_ms.p90", percentile_of(tune_ms, 90), "ms"});
    out.push_back({"core.epochs_run", epochs_run, "epochs"});
    out.push_back({"core.grouped.group_ms", median(group_ms), "ms"});
    out.push_back({"core.grouped.chip_ratio",
                   static_cast<double>(k.dist_workers > 0 ? 0 : fs.grouped_train_chips) /
                       static_cast<double>(chips),
                   "ratio"});
    out.push_back({"core.grouped.alloc_downgrades", static_cast<double>(fs.alloc_downgrades),
                   "count"});
    out.push_back({"core.policy.plan_ms", plan_ms, "ms"});
    out.push_back({"core.timeline.events", static_cast<double>(events), "count"});
    out.push_back({"core.timeline.rollbacks", static_cast<double>(rollbacks), "count"});
    out.push_back({"core.scenario_downgrades", static_cast<double>(fs.scenario_downgrades),
                   "count"});
    out.push_back({"core.nonfinite_chips", static_cast<double>(nonfinite), "count"});
    out.push_back({"fault.attach_masks_ms", median(attach_ms), "ms"});
    out.push_back({"fault.effective_rate_ms", median(rate_ms), "ms"});
    out.push_back({"fault.make_fleet_ms", make_fleet_ms / static_cast<double>(chips), "ms"});
    out.push_back({"nn.step.fwd_ms", median(fwd_ms), "ms"});
    out.push_back({"nn.step.bwd_ms", median(bwd_ms), "ms"});
    out.push_back({"nn.step.optim_ms", median(optim_ms), "ms"});
    out.push_back({"nn.eval_ms", median(eval_ms), "ms"});
    out.push_back({"nn.restore_ms", median(restore_ms), "ms"});
    out.push_back({"nn.linear.fwd_ms", kind_median(kind_fwd, "linear"), "ms"});
    out.push_back({"nn.linear.bwd_ms", kind_median(kind_bwd, "linear"), "ms"});
    out.push_back({"nn.relu.fwd_ms", kind_median(kind_fwd, "relu"), "ms"});
    out.push_back({"nn.relu.bwd_ms", kind_median(kind_bwd, "relu"), "ms"});
    out.push_back({"nn.unfused.fwd_ms", median(unfused_fwd), "ms"});
    out.push_back({"nn.unfused.bwd_ms", median(unfused_bwd), "ms"});
    out.push_back({"tensor.gemm.fwd.gflops", flops_fwd / ms_fwd / 1e6, "GFLOP/s"});
    out.push_back({"tensor.gemm.bwd.gflops", flops_bwd / ms_bwd / 1e6, "GFLOP/s"});
    out.push_back({"tensor.gemm_multi.k8.gflops", multi_gflops, "GFLOP/s"});
    out.push_back({"data.batch_ms", median(batch_ms), "ms"});
    out.push_back({"dist.leases_granted",
                   static_cast<double>(cs1.leases_granted + cs2.leases_granted), "count"});
    out.push_back({"dist.leases_reassigned",
                   static_cast<double>(cs1.leases_reassigned + cs2.leases_reassigned), "count"});
    out.push_back({"dist.frames_rejected",
                   static_cast<double>(cs1.frames_rejected + cs2.frames_rejected), "count"});
    out.push_back({"dist.snapshot_bytes", static_cast<double>(snapshot_bytes.size()), "bytes"});
    out.push_back({"dist.encode_ms", median(encode_ms), "ms"});
    out.push_back({"dist.journal_append_ms", median(journal_ms), "ms"});
    out.push_back({"lot.wait_ms", wait_ms, "ms"});
    for (const char* module : {"setup", "core", "fault", "nn", "tensor", "data", "dist"}) {
        out.push_back({std::string("self.") + module + "_ms", self_of(module), "ms"});
    }
    out.push_back({"trace.overhead_pct", overhead_pct, "%"});

    // Per-layer numbers only some models have, and the bases of the ratios.
    json_object kinds;
    for (const auto& [kind, v] : kind_fwd) {
        kinds.set("nn." + kind + ".fwd_ms", json_value(median(v)));
    }
    for (const auto& [kind, v] : kind_bwd) {
        kinds.set("nn." + kind + ".bwd_ms", json_value(median(v)));
    }
    extra.set("nn.layer_kinds", json_value(std::move(kinds)));
    if (!im2col_ms.empty()) { extra.set("tensor.im2col_ms", json_value(median(im2col_ms))); }
    extra.set("self_ms.engine", json_value(self_of("engine")));
    extra.set("self_ms.bench", json_value(self_of("bench")));
    json_object bases;
    bases.set("grouped_train_chips", json_value(fs.grouped_train_chips));
    bases.set("chips", json_value(chips));
    bases.set("grouped_train_groups", json_value(fs.grouped_train_groups));
    bases.set("alloc_downgrades", json_value(fs.alloc_downgrades));
    bases.set("nonfinite_downgrades", json_value(fs.nonfinite_downgrades));
    bases.set("scenario_downgrades", json_value(fs.scenario_downgrades));
    bases.set("replay_groups", json_value(groups_run));
    bases.set("replay_grouped_chips", json_value(grouped_chips));
    bases.set("replay_alloc_downgrades", json_value(alloc_downgrades));
    bases.set("group_what_if", json_value(group_what_if));
    bases.set("tune_what_if", json_value(tune_what_if));
    bases.set("reduce_plan_groupable_chips", json_value(reduce_groupable));
    bases.set("leases_granted", json_value(cs1.leases_granted + cs2.leases_granted));
    bases.set("leases_reassigned", json_value(cs1.leases_reassigned + cs2.leases_reassigned));
    bases.set("sweep_cells", json_value(cell_ms.size()));
    bases.set("tune_samples", json_value(tune_ms.size()));
    bases.set("step_samples", json_value(fwd_ms.size()));
    bases.set("lot_workers", json_value(workers));
    bases.set("untraced_engine_s", json_value(untraced.step1_s + untraced.lot_s));
    bases.set("traced_engine_s", json_value(traced.step1_s + traced.lot_s));
    extra.set("bases", json_value(std::move(bases)));
    extra.set("digests_engine", digests_to_json(untraced.digests));
    extra.set("digests_replay", digests_to_json(replay));

    const std::string trace_path =
        opts.out_dir + "/" + spec.name + "-seed" + std::to_string(opts.seed) + ".trace.json";
    json_object meta;
    meta.set("run", json_value(run_id));
    meta.set("workload", spec_to_json(spec));
    rec.write_chrome(trace_path, json_value(std::move(meta)));
    extra.set("chrome_trace", json_value(trace_path));
    extra.set("spans", json_value(rec.size()));
    std::cout << "trace " << trace_path << " (" << rec.size() << " spans)\n";
    std::cerr << "[perfbench] " << spec.name << " per-layer extras:\n"
              << json_value(extra).dump(2) << '\n';
    res.report.set("per_layer_extra", json_value(std::move(extra)));
    return res;
}

}  // namespace perfbench
