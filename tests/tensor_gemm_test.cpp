// Tests for the blocked GEMM backend and the workspace arena: kernels vs a
// double-precision naive reference across tile-boundary shapes, NaN/Inf
// propagation (the seed kernel's zero-skip branch dropped it), workspace
// reuse safety, and whole-batch conv lowering equivalence (including the
// chunked path).
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "tensor/conv.h"
#include "tensor/gemm.h"
#include "tensor/init.h"
#include "tensor/ops.h"
#include "tensor/workspace.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace reduce {
namespace {

tensor random_tensor(shape_t shape, rng& gen) {
    tensor t(std::move(shape));
    uniform_init(t, -1.0f, 1.0f, gen);
    return t;
}

// Double-precision references; `op` picks the operand layouts used by
// matmul (nn), matmul_nt (nt), and matmul_tn (tn).
tensor reference_gemm(const std::string& op, const tensor& a, const tensor& b, std::size_t m,
                      std::size_t k, std::size_t n) {
    tensor c({m, n});
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (std::size_t p = 0; p < k; ++p) {
                const double av = op == "tn" ? a.raw()[p * m + i] : a.raw()[i * k + p];
                const double bv = op == "nt" ? b.raw()[j * k + p] : b.raw()[p * n + j];
                acc += av * bv;
            }
            c.raw()[i * n + j] = static_cast<float>(acc);
        }
    }
    return c;
}

// Shapes straddling every tile boundary: micro-tile (4x16), cache blocks
// (MC=64, NC=64, KC=256), and degenerate 1-extent cases.
const std::vector<std::array<std::size_t, 3>> kShapes = {
    {1, 1, 1},   {1, 7, 1},    {7, 13, 5},   {4, 16, 16},  {5, 17, 15},
    {64, 64, 64}, {65, 64, 63}, {63, 65, 64}, {127, 255, 65}, {3, 300, 2},
    {68, 257, 70},
};

float tol_for(std::size_t k) {
    // Order-of-summation rounding ~ k * eps * |partials|; generous band.
    return 1e-5f + 1e-6f * static_cast<float>(k);
}

TEST(BlockedGemm, MatmulMatchesReferenceAcrossTileEdges) {
    rng gen(11);
    for (const auto& [m, k, n] : kShapes) {
        const tensor a = random_tensor({m, k}, gen);
        const tensor b = random_tensor({k, n}, gen);
        EXPECT_TRUE(matmul(a, b).allclose(reference_gemm("nn", a, b, m, k, n), tol_for(k)))
            << m << "x" << k << "x" << n;
    }
}

TEST(BlockedGemm, MatmulNtMatchesReferenceAcrossTileEdges) {
    rng gen(13);
    for (const auto& [m, k, n] : kShapes) {
        const tensor a = random_tensor({m, k}, gen);
        const tensor b = random_tensor({n, k}, gen);
        EXPECT_TRUE(matmul_nt(a, b).allclose(reference_gemm("nt", a, b, m, k, n), tol_for(k)))
            << m << "x" << k << "x" << n;
    }
}

TEST(BlockedGemm, MatmulTnMatchesReferenceAcrossTileEdges) {
    rng gen(17);
    for (const auto& [m, k, n] : kShapes) {
        const tensor a = random_tensor({k, m}, gen);
        const tensor b = random_tensor({k, n}, gen);
        EXPECT_TRUE(matmul_tn(a, b).allclose(reference_gemm("tn", a, b, m, k, n), tol_for(k)))
            << m << "x" << k << "x" << n;
    }
}

TEST(BlockedGemm, MatmulTnAccAccumulatesInPlace) {
    rng gen(19);
    const tensor a = random_tensor({6, 5}, gen);  // [k, m]
    const tensor b = random_tensor({6, 9}, gen);  // [k, n]
    tensor c = random_tensor({5, 9}, gen);
    tensor expected = add(c, matmul_tn(a, b));
    matmul_tn_acc(a, b, c);
    EXPECT_TRUE(c.allclose(expected, 1e-6f));
}

TEST(BlockedGemm, PropagatesNanFromBThroughZeroInA) {
    // Seed kernel skipped a == 0 rows, silently converting NaN/Inf in B to
    // 0 in C. 0 * NaN must stay NaN.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    tensor a({1, 2});
    a[0] = 0.0f;
    a[1] = 0.0f;
    tensor b({2, 1});
    b[0] = nan;
    b[1] = 1.0f;
    EXPECT_TRUE(std::isnan(matmul(a, b)[0]));

    tensor at({2, 1});  // [k, m] for the tn variant
    at[0] = 0.0f;
    at[1] = 0.0f;
    tensor bt({2, 1});
    bt[0] = nan;
    bt[1] = 2.0f;
    EXPECT_TRUE(std::isnan(matmul_tn(at, bt)[0]));
}

TEST(BlockedGemm, PropagatesInfinity) {
    const float inf = std::numeric_limits<float>::infinity();
    tensor a({1, 1});
    a[0] = 0.0f;
    tensor b({1, 1});
    b[0] = inf;
    EXPECT_TRUE(std::isnan(matmul(a, b)[0]));  // 0 * inf = NaN per IEEE
}

TEST(BlockedGemm, DeterministicAcrossRepeatedCalls) {
    rng gen(23);
    const tensor a = random_tensor({37, 129}, gen);
    const tensor b = random_tensor({129, 41}, gen);
    const tensor first = matmul(a, b);
    for (int i = 0; i < 3; ++i) { EXPECT_TRUE(matmul(a, b) == first); }
}

// ---- workspace arena --------------------------------------------------------

TEST(Workspace, ReusesSlabsAfterRelease) {
    workspace ws;
    const float* first = nullptr;
    {
        workspace::buffer b = ws.acquire(1024);
        first = b.data();
        EXPECT_EQ(ws.outstanding(), 1u);
    }
    EXPECT_EQ(ws.outstanding(), 0u);
    workspace::buffer again = ws.acquire(1000);  // fits in the pooled slab
    EXPECT_EQ(again.data(), first);
}

TEST(Workspace, BestFitPrefersSmallestSlab) {
    workspace ws;
    const float* small = nullptr;
    const float* big = nullptr;
    {
        workspace::buffer a = ws.acquire(64);
        workspace::buffer b = ws.acquire(4096);
        small = a.data();
        big = b.data();
    }
    workspace::buffer c = ws.acquire(60);
    EXPECT_EQ(c.data(), small);
    workspace::buffer d = ws.acquire(3000);
    EXPECT_EQ(d.data(), big);
}

TEST(Workspace, NestedLeasesDoNotAlias) {
    workspace ws;
    workspace::buffer a = ws.acquire(128);
    workspace::buffer b = ws.acquire(128);
    EXPECT_NE(a.data(), b.data());
    EXPECT_EQ(ws.outstanding(), 2u);
}

TEST(Workspace, AcquireZeroedZeroesTheLease) {
    workspace ws;
    {
        workspace::buffer dirty = ws.acquire(256);
        for (std::size_t i = 0; i < 256; ++i) { dirty.data()[i] = 1.0f; }
    }
    workspace::buffer clean = ws.acquire_zeroed(256);
    for (std::size_t i = 0; i < 256; ++i) { ASSERT_EQ(clean.data()[i], 0.0f); }
}

TEST(Workspace, TrimReleasesPooledMemory) {
    workspace ws;
    { workspace::buffer b = ws.acquire(1 << 16); }
    EXPECT_GT(ws.pooled_bytes(), 0u);
    ws.trim();
    EXPECT_EQ(ws.pooled_bytes(), 0u);
    // Leased slabs survive a trim and are dropped (not pooled) on return.
    workspace::buffer live = ws.acquire(512);
    ws.trim();
    live.data()[0] = 1.0f;
}

TEST(Workspace, LocalArenaIsPerThread) {
    workspace* main_arena = &workspace::local();
    workspace* worker_arena = nullptr;
    std::thread t([&]() { worker_arena = &workspace::local(); });
    t.join();
    EXPECT_NE(main_arena, worker_arena);
}

// ---- whole-batch conv lowering ----------------------------------------------

/// RAII guard for the lowering budget so a failing test cannot leak a tiny
/// budget into later tests.
class budget_guard {
public:
    explicit budget_guard(std::size_t bytes)
        : previous_(set_conv_lowering_budget_bytes(bytes)) {}
    ~budget_guard() { set_conv_lowering_budget_bytes(previous_); }

private:
    std::size_t previous_;
};

/// The seed algorithm: per-image im2col + GEMM, kept as the equivalence
/// reference for the whole-batch path.
tensor per_image_conv_forward(const tensor& input, const tensor& weight, const tensor& bias,
                              const conv2d_spec& spec) {
    const std::size_t batch = input.extent(0);
    const std::size_t in_h = input.extent(2);
    const std::size_t in_w = input.extent(3);
    const std::size_t oh = spec.out_h(in_h);
    const std::size_t ow = spec.out_w(in_w);
    const tensor weight2d = weight.reshaped({spec.out_channels, spec.patch_size()});
    tensor output({batch, spec.out_channels, oh, ow});
    const std::size_t image_elems = spec.in_channels * in_h * in_w;
    const std::size_t plane = oh * ow;
    for (std::size_t n = 0; n < batch; ++n) {
        tensor image({spec.in_channels, in_h, in_w},
                     std::vector<float>(input.raw() + n * image_elems,
                                        input.raw() + (n + 1) * image_elems));
        const tensor result = matmul(weight2d, im2col(image, spec));
        for (std::size_t oc = 0; oc < spec.out_channels; ++oc) {
            const float b = bias.empty() ? 0.0f : bias[oc];
            for (std::size_t i = 0; i < plane; ++i) {
                output.raw()[(n * spec.out_channels + oc) * plane + i] =
                    result.raw()[oc * plane + i] + b;
            }
        }
    }
    return output;
}

TEST(BatchConv, ForwardEqualsPerImagePath) {
    rng gen(29);
    const conv2d_spec spec{3, 5, 3, 3, 1, 1};
    const tensor input = random_tensor({4, 3, 6, 7}, gen);
    const tensor weight = random_tensor({5, 3, 3, 3}, gen);
    const tensor bias = random_tensor({5}, gen);
    const tensor batch_out = conv2d_forward(input, weight, bias, spec);
    const tensor ref = per_image_conv_forward(input, weight, bias, spec);
    EXPECT_TRUE(batch_out.allclose(ref, 1e-5f));
}

TEST(BatchConv, ForwardStridedNoPadding) {
    rng gen(31);
    const conv2d_spec spec{2, 4, 3, 2, 2, 0};
    const tensor input = random_tensor({3, 2, 9, 8}, gen);
    const tensor weight = random_tensor({4, 2, 3, 2}, gen);
    const tensor batch_out = conv2d_forward(input, weight, tensor(), spec);
    const tensor ref = per_image_conv_forward(input, weight, tensor(), spec);
    EXPECT_TRUE(batch_out.allclose(ref, 1e-5f));
}

TEST(BatchConv, ChunkedPathMatchesWholeBatch) {
    rng gen(37);
    const conv2d_spec spec{3, 6, 3, 3, 1, 1};
    const tensor input = random_tensor({5, 3, 8, 8}, gen);
    const tensor weight = random_tensor({6, 3, 3, 3}, gen);
    const tensor bias = random_tensor({6}, gen);
    const tensor grad_out = random_tensor({5, 6, 8, 8}, gen);

    const tensor whole_fwd = conv2d_forward(input, weight, bias, spec);
    const conv2d_grads whole_bwd = conv2d_backward(input, weight, grad_out, spec);

    // A 1-byte-per-image budget forces chunk = 1 image.
    budget_guard guard(1);
    const tensor chunked_fwd = conv2d_forward(input, weight, bias, spec);
    const conv2d_grads chunked_bwd = conv2d_backward(input, weight, grad_out, spec);

    // Forward columns are independent, so chunking cannot change them.
    EXPECT_TRUE(chunked_fwd == whole_fwd);
    // dW/db sum over the batch in chunk order — same values up to rounding.
    EXPECT_TRUE(chunked_bwd.grad_weight.allclose(whole_bwd.grad_weight, 1e-4f));
    EXPECT_TRUE(chunked_bwd.grad_bias.allclose(whole_bwd.grad_bias, 1e-4f));
    EXPECT_TRUE(chunked_bwd.grad_input.allclose(whole_bwd.grad_input, 1e-5f));
}

TEST(BatchConv, BackwardAccAccumulates) {
    rng gen(41);
    const conv2d_spec spec{2, 3, 3, 3, 1, 1};
    const tensor input = random_tensor({2, 2, 5, 5}, gen);
    const tensor weight = random_tensor({3, 2, 3, 3}, gen);
    const tensor grad_out = random_tensor({2, 3, 5, 5}, gen);

    const conv2d_grads fresh = conv2d_backward(input, weight, grad_out, spec);
    tensor gi(input.shape());
    tensor gw(weight.shape());
    tensor gb({3});
    conv2d_backward_acc(input, weight, grad_out, spec, gi, gw, gb);
    conv2d_backward_acc(input, weight, grad_out, spec, gi, gw, gb);
    EXPECT_TRUE(gw.allclose(scale(fresh.grad_weight, 2.0f), 1e-4f));
    EXPECT_TRUE(gb.allclose(scale(fresh.grad_bias, 2.0f), 1e-4f));
    EXPECT_TRUE(gi.allclose(scale(fresh.grad_input, 2.0f), 1e-4f));
}

TEST(BatchConv, BackwardDeterministicAcrossCalls) {
    rng gen(43);
    const conv2d_spec spec{3, 4, 3, 3, 1, 1};
    const tensor input = random_tensor({3, 3, 7, 7}, gen);
    const tensor weight = random_tensor({4, 3, 3, 3}, gen);
    const tensor grad_out = random_tensor({3, 4, 7, 7}, gen);
    const conv2d_grads first = conv2d_backward(input, weight, grad_out, spec);
    const conv2d_grads second = conv2d_backward(input, weight, grad_out, spec);
    EXPECT_TRUE(first.grad_input == second.grad_input);
    EXPECT_TRUE(first.grad_weight == second.grad_weight);
    EXPECT_TRUE(first.grad_bias == second.grad_bias);
}

// ---- grouped (multi-A, shared-B) drivers: the masked-group eval path -------

/// Applies a {0,1} mask to a weight the way parameter::apply_mask does
/// (float multiply, so -0/NaN semantics match the serial FAP path).
tensor masked_copy(const tensor& w, rng& gen, double drop_p) {
    tensor m = w;
    for (std::size_t i = 0; i < m.numel(); ++i) {
        m.raw()[i] *= gen.uniform() < drop_p ? 0.0f : 1.0f;
    }
    return m;
}

TEST(GroupedGemm, NnMultiMatchesSerialBitwiseAndReferenceAcrossK) {
    rng gen(301);
    // Tile-edge group sizes around the micro/cache tiles, plus K=1, over a
    // k spanning two KC panels.
    for (const std::size_t groups : {1u, 2u, 3u, 5u, 16u, 17u}) {
        const std::size_t m = 13, k = 300, n = 37;
        const tensor b = random_tensor({k, n}, gen);  // shared B operand
        std::vector<tensor> weights;
        std::vector<const float*> a_list;
        for (std::size_t g = 0; g < groups; ++g) {
            weights.push_back(masked_copy(random_tensor({m, k}, gen), gen, 0.2));
        }
        for (const tensor& w : weights) { a_list.push_back(w.raw()); }
        std::vector<tensor> outs(groups, tensor({m, n}));
        std::vector<float*> c_list;
        for (tensor& c : outs) { c_list.push_back(c.raw()); }
        gemm_nn_multi(m, n, k, a_list.data(), groups, k, b.raw(), n, c_list.data(), n,
                      /*accumulate=*/false, workspace::local());
        for (std::size_t g = 0; g < groups; ++g) {
            // Bitwise vs the serial driver...
            tensor serial({m, n});
            gemm_nn(m, n, k, weights[g].raw(), k, b.raw(), n, serial.raw(), n, false,
                    workspace::local());
            EXPECT_TRUE(outs[g] == serial) << "K=" << groups << " g=" << g;
            // ...and near the double-precision reference.
            const tensor ref = reference_gemm("nn", weights[g], b, m, k, n);
            for (std::size_t i = 0; i < ref.numel(); ++i) {
                ASSERT_NEAR(outs[g].raw()[i], ref.raw()[i], tol_for(k))
                    << "K=" << groups << " g=" << g << " i=" << i;
            }
        }
    }
}

TEST(GroupedGemm, KSubsetEqualsFullGemmWithZeroRows) {
    // The structural-zero skip: a compact B missing rows that are exactly
    // zero must reproduce the full-k result bit for bit, with kept rows
    // spread across several KC panels (k = 600 spans three).
    rng gen(303);
    const std::size_t m = 21, k = 600, n = 33;
    std::vector<std::size_t> kept;
    for (std::size_t p = 0; p < k; ++p) {
        if (p % 9 == 4 || p % 151 == 0) { kept.push_back(p); }
    }
    const tensor a = masked_copy(random_tensor({m, k}, gen), gen, 0.3);
    tensor b_full({k, n});  // zero except the kept rows
    tensor b_compact({kept.size(), n});
    for (std::size_t j = 0; j < kept.size(); ++j) {
        for (std::size_t q = 0; q < n; ++q) {
            const float v = static_cast<float>(gen.uniform(-1.0, 1.0));
            b_full.raw()[kept[j] * n + q] = v;
            b_compact.raw()[j * n + q] = v;
        }
    }
    tensor full({m, n});
    gemm_nn(m, n, k, a.raw(), k, b_full.raw(), n, full.raw(), n, false, workspace::local());

    gemm_k_subset subset;
    subset.rows = kept.data();
    subset.count = kept.size();
    subset.original_k = k;
    const float* a_ptr = a.raw();
    tensor skipped({m, n});
    float* c_ptr = skipped.raw();
    gemm_nn_multi(m, n, k, &a_ptr, 1, k, b_compact.raw(), n, &c_ptr, n, false,
                  workspace::local(), &subset);
    EXPECT_TRUE(full == skipped);
}

TEST(GroupedGemm, KSubsetValidates) {
    const std::size_t rows_bad[] = {3, 2};   // not ascending
    const std::size_t rows_oob[] = {3, 99};  // out of range
    const tensor a({4, 8});
    const tensor b({2, 4});
    tensor c({4, 4});
    const float* a_ptr = a.raw();
    float* c_ptr = c.raw();
    gemm_k_subset subset;
    subset.count = 2;
    subset.original_k = 8;
    subset.rows = rows_bad;
    EXPECT_ANY_THROW(gemm_nn_multi(4, 4, 8, &a_ptr, 1, 8, b.raw(), 4, &c_ptr, 4, false,
                                   workspace::local(), &subset));
    subset.rows = rows_oob;
    EXPECT_ANY_THROW(gemm_nn_multi(4, 4, 8, &a_ptr, 1, 8, b.raw(), 4, &c_ptr, 4, false,
                                   workspace::local(), &subset));
}

TEST(GroupedGemm, PropagatesNanAndInfThroughMaskedOperands) {
    // The full-k multi driver makes no data-dependent shortcut: a NaN/Inf
    // in ANY variant's masked A operand must reach that variant's output —
    // and only that variant's.
    rng gen(304);
    const std::size_t m = 8, k = 32, n = 16;
    const tensor b = random_tensor({k, n}, gen);
    tensor w0 = masked_copy(random_tensor({m, k}, gen), gen, 0.2);
    tensor w1 = w0;
    tensor w2 = w0;
    w1.raw()[5] = std::numeric_limits<float>::quiet_NaN();
    w2.raw()[7] = std::numeric_limits<float>::infinity();
    const float* a_list[] = {w0.raw(), w1.raw(), w2.raw()};
    tensor c0({m, n}), c1({m, n}), c2({m, n});
    float* c_list[] = {c0.raw(), c1.raw(), c2.raw()};
    gemm_nn_multi(m, n, k, a_list, 3, k, b.raw(), n, c_list, n, false, workspace::local());
    bool c1_nan = false;
    for (std::size_t i = 0; i < c1.numel(); ++i) { c1_nan |= std::isnan(c1.raw()[i]); }
    EXPECT_TRUE(c1_nan);
    bool c2_nonfinite = false;
    for (std::size_t i = 0; i < c2.numel(); ++i) {
        c2_nonfinite |= !std::isfinite(c2.raw()[i]);
    }
    EXPECT_TRUE(c2_nonfinite);
    for (std::size_t i = 0; i < c0.numel(); ++i) {
        ASSERT_TRUE(std::isfinite(c0.raw()[i])) << "variant 0 polluted at " << i;
    }
}

TEST(GroupedGemm, OpsFanoutAndGroupedMatchMatmulNtBitwise) {
    rng gen(305);
    const std::size_t rows = 19, in = 70, out = 11, groups = 4;
    const tensor x = random_tensor({rows, in}, gen);
    std::vector<tensor> weights;
    std::vector<const tensor*> ptrs;
    for (std::size_t g = 0; g < groups; ++g) {
        weights.push_back(masked_copy(random_tensor({out, in}, gen), gen, 0.25));
    }
    for (const tensor& w : weights) { ptrs.push_back(&w); }

    const tensor fanout = matmul_nt_fanout(x, ptrs);
    ASSERT_EQ(fanout.extent(0), rows * groups);
    // Stacked input for the grouped form: x replicated per variant.
    tensor x_stacked({rows * groups, in});
    for (std::size_t g = 0; g < groups; ++g) {
        std::copy(x.raw(), x.raw() + x.numel(), x_stacked.raw() + g * x.numel());
    }
    const tensor grouped = matmul_nt_grouped(x_stacked, groups, ptrs);
    for (std::size_t g = 0; g < groups; ++g) {
        const tensor serial = matmul_nt(x, weights[g]);
        for (std::size_t r = 0; r < rows; ++r) {
            for (std::size_t o = 0; o < out; ++o) {
                ASSERT_EQ(serial.at2(r, o), fanout.at2(g * rows + r, o))
                    << "fanout g=" << g;
                ASSERT_EQ(serial.at2(r, o), grouped.at2(g * rows + r, o))
                    << "grouped g=" << g;
            }
        }
    }
}

TEST(GroupedConv, FanoutAndGroupedMatchSerialConvBitwise) {
    rng gen(306);
    // 1x1 spatial with 3x3 kernel + padding: 8 of 9 patch rows lower to
    // structural zeros — the skip path — while 4x4 exercises the full path.
    for (const auto& [h, w] : std::vector<std::pair<std::size_t, std::size_t>>{{1, 1},
                                                                              {4, 4},
                                                                              {1, 5}}) {
        const conv2d_spec spec{3, 6, 3, 3, 1, 1};
        const std::size_t batch = 5, groups = 3;
        const tensor input = random_tensor({batch, 3, h, w}, gen);
        const tensor bias = random_tensor({6}, gen);
        std::vector<tensor> weights;
        std::vector<const tensor*> ptrs;
        for (std::size_t g = 0; g < groups; ++g) {
            weights.push_back(masked_copy(random_tensor({6, 3, 3, 3}, gen), gen, 0.2));
        }
        for (const tensor& t : weights) { ptrs.push_back(&t); }

        const tensor fanout = conv2d_forward_fanout(input, ptrs, bias, spec);
        tensor stacked_in({groups * batch, 3, h, w});
        for (std::size_t g = 0; g < groups; ++g) {
            std::copy(input.raw(), input.raw() + input.numel(),
                      stacked_in.raw() + g * input.numel());
        }
        const tensor grouped = conv2d_forward_grouped(stacked_in, groups, ptrs, bias, spec);
        const std::size_t block = batch * 6 * spec.out_h(h) * spec.out_w(w);
        for (std::size_t g = 0; g < groups; ++g) {
            const tensor serial = conv2d_forward(input, weights[g], bias, spec);
            for (std::size_t i = 0; i < block; ++i) {
                ASSERT_EQ(serial.raw()[i], fanout.raw()[g * block + i])
                    << h << "x" << w << " fanout g=" << g << " i=" << i;
                ASSERT_EQ(serial.raw()[i], grouped.raw()[g * block + i])
                    << h << "x" << w << " grouped g=" << g << " i=" << i;
            }
        }
    }
}

TEST(GroupedConv, ChunkedLoweringStaysBitwiseIdentical) {
    // A 1-byte budget forces one image per lowered chunk, driving the
    // n0 > 0 chunk offsets of conv2d_forward_fanout and the
    // chunk-starting-mid-variant splits of conv2d_forward_grouped — with
    // the k-subset active (1x1 spatial). Chunking must never move a bit.
    rng gen(307);
    const conv2d_spec spec{3, 6, 3, 3, 1, 1};
    const std::size_t batch = 5, groups = 3;
    for (const auto& [h, w] :
         std::vector<std::pair<std::size_t, std::size_t>>{{1, 1}, {4, 4}}) {
        const tensor input = random_tensor({batch, 3, h, w}, gen);
        const tensor bias = random_tensor({6}, gen);
        std::vector<tensor> weights;
        std::vector<const tensor*> ptrs;
        for (std::size_t g = 0; g < groups; ++g) {
            weights.push_back(masked_copy(random_tensor({6, 3, 3, 3}, gen), gen, 0.2));
        }
        for (const tensor& t : weights) { ptrs.push_back(&t); }
        tensor stacked_in({groups * batch, 3, h, w});
        for (std::size_t g = 0; g < groups; ++g) {
            std::copy(input.raw(), input.raw() + input.numel(),
                      stacked_in.raw() + g * input.numel());
        }

        const tensor fanout_whole = conv2d_forward_fanout(input, ptrs, bias, spec);
        const tensor grouped_whole =
            conv2d_forward_grouped(stacked_in, groups, ptrs, bias, spec);
        {
            budget_guard tiny(1);
            EXPECT_TRUE(conv2d_forward_fanout(input, ptrs, bias, spec) == fanout_whole)
                << h << "x" << w;
            EXPECT_TRUE(conv2d_forward_grouped(stacked_in, groups, ptrs, bias, spec) ==
                        grouped_whole)
                << h << "x" << w;
        }
        const std::size_t block = batch * 6 * spec.out_h(h) * spec.out_w(w);
        for (std::size_t g = 0; g < groups; ++g) {
            const tensor serial = conv2d_forward(input, weights[g], bias, spec);
            for (std::size_t i = 0; i < block; ++i) {
                ASSERT_EQ(serial.raw()[i], fanout_whole.raw()[g * block + i]);
                ASSERT_EQ(serial.raw()[i], grouped_whole.raw()[g * block + i]);
            }
        }
    }
}

TEST(GroupedConv, ActivePatchRowsGeometry) {
    // 3x3 kernel, padding 1: at 1x1 spatial only the center tap survives;
    // at 4x4 every tap is live somewhere.
    const conv2d_spec spec{2, 4, 3, 3, 1, 1};
    const std::vector<std::size_t> tiny = conv_active_patch_rows(spec, 1, 1);
    ASSERT_EQ(tiny.size(), 2u);  // one center tap per input channel
    EXPECT_EQ(tiny[0], 4u);
    EXPECT_EQ(tiny[1], 13u);
    EXPECT_EQ(conv_active_patch_rows(spec, 4, 4).size(), spec.patch_size());
    // 1x5: rows with out-of-bounds ky die, kx taps all live.
    EXPECT_EQ(conv_active_patch_rows(spec, 1, 5).size(), 2u * 3u);
}

TEST(BatchConv, Im2colBatchMatchesPerImage) {
    rng gen(47);
    const conv2d_spec spec{2, 3, 2, 2, 1, 1};
    const tensor input = random_tensor({3, 2, 4, 5}, gen);
    const std::size_t oh = spec.out_h(4);
    const std::size_t ow = spec.out_w(5);
    std::vector<float> batch_cols(spec.patch_size() * 3 * oh * ow);
    im2col_batch(input.raw(), 3, 4, 5, spec, batch_cols.data());
    const std::size_t image_elems = 2 * 4 * 5;
    for (std::size_t n = 0; n < 3; ++n) {
        tensor image({2, 4, 5},
                     std::vector<float>(input.raw() + n * image_elems,
                                        input.raw() + (n + 1) * image_elems));
        const tensor cols = im2col(image, spec);
        for (std::size_t r = 0; r < spec.patch_size(); ++r) {
            for (std::size_t q = 0; q < oh * ow; ++q) {
                ASSERT_EQ(batch_cols[r * (3 * oh * ow) + n * oh * ow + q], cols.at2(r, q))
                    << "n=" << n << " r=" << r << " q=" << q;
            }
        }
    }
}

// ---- intra-op parallel backend ----------------------------------------------
//
// The deterministic contract of the parallel tensor backend: for ANY
// intra-op budget, every kernel produces the serial result bit for bit
// (memcmp, so NaN payloads count too). The shapes below cross the parallel
// thresholds on both partition axes, plus tile-edge and NaN/Inf cases.

bool bitwise_equal(const tensor& a, const tensor& b) {
    return a.shape() == b.shape() &&
           std::memcmp(a.raw(), b.raw(), a.numel() * sizeof(float)) == 0;
}

TEST(ParallelGemm, BitwiseIdenticalAcrossThreadBudgets) {
    rng gen(101);
    // Wide (N-major partition), tall-skinny (M-major partition), conv-like
    // (tiny m, huge n), and the tile-edge shapes of the serial suite.
    std::vector<std::array<std::size_t, 3>> shapes(kShapes.begin(), kShapes.end());
    shapes.push_back({96, 300, 512});
    shapes.push_back({8, 27, 4096});
    shapes.push_back({300, 500, 40});
    for (const auto& [m, k, n] : shapes) {
        const tensor a = random_tensor({m, k}, gen);
        const tensor b_nn = random_tensor({k, n}, gen);
        const tensor b_nt = random_tensor({n, k}, gen);
        const tensor a_tn = random_tensor({k, m}, gen);
        set_intra_op_threads(1);
        const tensor nn1 = matmul(a, b_nn);
        const tensor nt1 = matmul_nt(a, b_nt);
        const tensor tn1 = matmul_tn(a_tn, b_nn);
        for (const std::size_t threads : {2u, 8u}) {
            const scoped_intra_op_threads budget(threads);
            EXPECT_TRUE(bitwise_equal(nn1, matmul(a, b_nn)))
                << "nn " << m << "x" << k << "x" << n << " @" << threads;
            EXPECT_TRUE(bitwise_equal(nt1, matmul_nt(a, b_nt)))
                << "nt " << m << "x" << k << "x" << n << " @" << threads;
            EXPECT_TRUE(bitwise_equal(tn1, matmul_tn(a_tn, b_nn)))
                << "tn " << m << "x" << k << "x" << n << " @" << threads;
        }
    }
}

TEST(ParallelGemm, AccumulatingDriversBitwiseAcrossThreadBudgets) {
    rng gen(103);
    const tensor a = random_tensor({300, 96}, gen);   // [k, m]
    const tensor b = random_tensor({300, 640}, gen);  // [k, n]
    const tensor seed_c = random_tensor({96, 640}, gen);
    const tensor wide = random_tensor({600, 512}, gen);
    set_intra_op_threads(1);
    tensor c1 = seed_c;
    matmul_tn_acc(a, b, c1);
    tensor sums1({512});
    column_sums_acc(wide, sums1);
    for (const std::size_t threads : {2u, 8u}) {
        const scoped_intra_op_threads budget(threads);
        tensor cn = seed_c;
        matmul_tn_acc(a, b, cn);
        EXPECT_TRUE(bitwise_equal(c1, cn)) << "tn_acc @" << threads;
        tensor sums_n({512});
        column_sums_acc(wide, sums_n);
        EXPECT_TRUE(bitwise_equal(sums1, sums_n)) << "column_sums_acc @" << threads;
    }
}

TEST(ParallelGemm, PropagatesNanInfIdenticallyAtAnyBudget) {
    rng gen(107);
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    tensor a = random_tensor({64, 128}, gen);
    tensor b = random_tensor({128, 1024}, gen);
    // Poison scattered entries in both operands, including a 0 * inf pair.
    a.raw()[5 * 128 + 7] = nan;
    a.raw()[40 * 128 + 100] = inf;
    b.raw()[7 * 1024 + 900] = inf;
    b.raw()[100 * 1024 + 3] = 0.0f;
    set_intra_op_threads(1);
    const tensor serial = matmul(a, b);
    for (const std::size_t threads : {2u, 8u}) {
        const scoped_intra_op_threads budget(threads);
        EXPECT_TRUE(bitwise_equal(serial, matmul(a, b))) << "@" << threads;
    }
    bool saw_nan = false;
    for (std::size_t i = 0; i < serial.numel(); ++i) {
        if (std::isnan(serial.raw()[i])) { saw_nan = true; }
    }
    EXPECT_TRUE(saw_nan);  // the poison actually reached the output
}

TEST(ParallelConv, ForwardBackwardAndLoweringBitwiseAcrossBudgets) {
    rng gen(109);
    const conv2d_spec spec{8, 16, 3, 3, 1, 1};
    const tensor input = random_tensor({12, 8, 16, 16}, gen);
    const tensor weight = random_tensor({16, 8, 3, 3}, gen);
    const tensor bias = random_tensor({16}, gen);
    set_intra_op_threads(1);
    const tensor fwd1 = conv2d_forward(input, weight, bias, spec);
    const conv2d_grads grads1 = conv2d_backward(input, weight, fwd1, spec);
    const std::size_t cols = 12 * 16 * 16;
    std::vector<float> lower1(spec.patch_size() * cols);
    im2col_batch(input.raw(), 12, 16, 16, spec, lower1.data());
    std::vector<float> scatter1(input.numel(), 0.0f);
    col2im_batch(lower1.data(), 12, 16, 16, spec, scatter1.data());
    for (const std::size_t threads : {2u, 8u}) {
        const scoped_intra_op_threads budget(threads);
        EXPECT_TRUE(bitwise_equal(fwd1, conv2d_forward(input, weight, bias, spec)))
            << "forward @" << threads;
        const conv2d_grads grads_n = conv2d_backward(input, weight, fwd1, spec);
        EXPECT_TRUE(bitwise_equal(grads1.grad_input, grads_n.grad_input))
            << "dX @" << threads;
        EXPECT_TRUE(bitwise_equal(grads1.grad_weight, grads_n.grad_weight))
            << "dW @" << threads;
        EXPECT_TRUE(bitwise_equal(grads1.grad_bias, grads_n.grad_bias))
            << "db @" << threads;
        std::vector<float> lower_n(lower1.size());
        im2col_batch(input.raw(), 12, 16, 16, spec, lower_n.data());
        EXPECT_EQ(0, std::memcmp(lower1.data(), lower_n.data(),
                                 lower1.size() * sizeof(float)))
            << "im2col @" << threads;
        std::vector<float> scatter_n(scatter1.size(), 0.0f);
        col2im_batch(lower_n.data(), 12, 16, 16, spec, scatter_n.data());
        EXPECT_EQ(0, std::memcmp(scatter1.data(), scatter_n.data(),
                                 scatter1.size() * sizeof(float)))
            << "col2im @" << threads;
    }
}

TEST(ParallelGemm, GroupedEvalDriversBitwiseAcrossBudgets) {
    rng gen(113);
    const conv2d_spec spec{4, 8, 3, 3, 1, 1};
    const tensor input = random_tensor({6, 4, 12, 12}, gen);
    const tensor bias = random_tensor({8}, gen);
    std::vector<tensor> weights;
    std::vector<const tensor*> weight_ptrs;
    for (int g = 0; g < 3; ++g) { weights.push_back(random_tensor({8, 4, 3, 3}, gen)); }
    for (const tensor& w : weights) { weight_ptrs.push_back(&w); }
    const tensor x = random_tensor({48, 256}, gen);
    std::vector<tensor> dense;
    std::vector<const tensor*> dense_ptrs;
    for (int g = 0; g < 3; ++g) { dense.push_back(random_tensor({64, 256}, gen)); }
    for (const tensor& w : dense) { dense_ptrs.push_back(&w); }
    const tensor stacked = random_tensor({144, 256}, gen);  // [G*N, in]
    set_intra_op_threads(1);
    const tensor fan1 = conv2d_forward_fanout(input, weight_ptrs, bias, spec);
    const tensor fanx1 = matmul_nt_fanout(x, dense_ptrs);
    const tensor grouped1 = matmul_nt_grouped(stacked, 3, dense_ptrs);
    for (const std::size_t threads : {2u, 8u}) {
        const scoped_intra_op_threads budget(threads);
        EXPECT_TRUE(
            bitwise_equal(fan1, conv2d_forward_fanout(input, weight_ptrs, bias, spec)))
            << "conv fanout @" << threads;
        EXPECT_TRUE(bitwise_equal(fanx1, matmul_nt_fanout(x, dense_ptrs)))
            << "nt fanout @" << threads;
        EXPECT_TRUE(bitwise_equal(grouped1, matmul_nt_grouped(stacked, 3, dense_ptrs)))
            << "nt grouped @" << threads;
    }
}

// ---- fused epilogues --------------------------------------------------------
//
// The GEMM epilogue applies bias (+ ReLU, + keep-mask) at the tile store of
// the last KC panel. Contract: bit-identical to the unfused store → bias
// pass → relu pass at any thread budget, NaN/Inf included, and the
// keep-mask reproduces relu_backward's predicate exactly.

// Every legal epilogue flag set — bias on rows, on columns or none, ReLU
// off/on, keep-mask with ReLU — is its own compile-time specialization of
// the tile store, picked once per call. A flag set routed to the wrong
// specialization would still produce plausible numbers, so each one is
// compared bitwise against the plain GEMM followed by the unfused passes.
struct epilogue_flags {
    int bias;  // 0 none, 1 row, 2 column
    bool relu;
    bool keep;
};

std::vector<epilogue_flags> legal_epilogue_flags() {
    std::vector<epilogue_flags> out;
    for (int bias = 0; bias < 3; ++bias) {
        for (const bool relu : {false, true}) {
            for (const bool keep : {false, true}) {
                if (!keep || relu) { out.push_back({bias, relu, keep}); }
            }
        }
    }
    return out;
}

std::string describe(const epilogue_flags& f) {
    static const char* const axes[] = {"none", "row", "col"};
    return std::string("bias=") + axes[f.bias] + (f.relu ? " relu" : "") +
           (f.keep ? " keep" : "");
}

/// The unfused passes over a plain GEMM result: bias add, then ReLU with
/// relu_backward's keep predicate.
void unfused_passes(const epilogue_flags& f, const std::vector<float>& row_bias,
                    const std::vector<float>& col_bias, std::size_t m, std::size_t n,
                    float* c, std::uint8_t* keep) {
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            float z = c[i * n + j];
            if (f.bias == 1) { z += row_bias[i]; }
            if (f.bias == 2) { z += col_bias[j]; }
            if (f.relu) {
                if (f.keep) { keep[i * n + j] = !(z <= 0.0f) ? 1 : 0; }
                z = z > 0.0f ? z : 0.0f;
            }
            c[i * n + j] = z;
        }
    }
}

gemm_epilogue make_epilogue(const epilogue_flags& f, const std::vector<float>& row_bias,
                            const std::vector<float>& col_bias, std::uint8_t* keep,
                            std::size_t keep_ld) {
    gemm_epilogue epi;
    if (f.bias == 1) { epi.row_bias = row_bias.data(); }
    if (f.bias == 2) { epi.col_bias = col_bias.data(); }
    epi.relu = f.relu;
    if (f.keep) {
        epi.relu_keep = keep;
        epi.keep_ld = keep_ld;
    }
    return epi;
}

/// Edge shapes {m, k, n}: m % 4 != 0, n % 16 != 0, k over one and two KC
/// panels, k == 0, full 4x16 tiles, and sizes past MC/NC and the parallel
/// threshold (so threads 2 and 8 really split the grid).
const std::vector<std::array<std::size_t, 3>> kEpilogueShapes = {
    {5, 13, 19}, {8, 40, 32}, {7, 300, 33}, {66, 520, 70}, {6, 0, 17}, {130, 260, 150},
};

/// Random operands poisoned with NaN/Inf, an all-zero A row (exact-zero
/// pre-activations) and a -0 bias entry.
struct epilogue_operands {
    std::vector<float> a, b, row_bias, col_bias;
};

epilogue_operands make_epilogue_operands(std::size_t m, std::size_t k, std::size_t n,
                                         std::size_t a_rows, rng& gen) {
    epilogue_operands ops;
    const auto fill = [&gen](std::vector<float>& v, std::size_t count) {
        tensor t({count == 0 ? 1 : count});
        uniform_init(t, -1.0f, 1.0f, gen);
        v.assign(t.raw(), t.raw() + count);
    };
    fill(ops.a, a_rows * k);
    fill(ops.b, k * n);
    fill(ops.row_bias, m);
    fill(ops.col_bias, n);
    if (k > 0) {
        ops.a[0] = std::numeric_limits<float>::quiet_NaN();
        ops.b[k * n - 1] = std::numeric_limits<float>::infinity();
        for (std::size_t p = 0; p < k; ++p) { ops.a[(a_rows - 1) * k + p] = 0.0f; }
    }
    ops.row_bias[m - 1] = -0.0f;
    ops.col_bias[0] = -0.0f;
    return ops;
}

TEST(FusedEpilogue, EverySpecializationMatchesUnfusedThroughGemmDrivers) {
    rng gen(257);
    for (const auto& [m, k, n] : kEpilogueShapes) {
        const epilogue_operands ops = make_epilogue_operands(m, k, n, m, gen);
        // B for gemm_nt is the transpose of the nn operand.
        std::vector<float> bt(n * k);
        for (std::size_t p = 0; p < k; ++p) {
            for (std::size_t j = 0; j < n; ++j) { bt[j * k + p] = ops.b[p * n + j]; }
        }
        set_intra_op_threads(1);
        std::vector<float> plain_nn(m * n), plain_nt(m * n);
        gemm_nn(m, n, k, ops.a.data(), k, ops.b.data(), n, plain_nn.data(), n, false,
                workspace::local());
        gemm_nt(m, n, k, ops.a.data(), k, bt.data(), k, plain_nt.data(), n, false,
                workspace::local());
        for (const epilogue_flags& f : legal_epilogue_flags()) {
            std::vector<float> want_nn = plain_nn, want_nt = plain_nt;
            std::vector<std::uint8_t> want_keep(m * n, 0xEE), scratch_keep(m * n, 0xEE);
            unfused_passes(f, ops.row_bias, ops.col_bias, m, n, want_nn.data(),
                           want_keep.data());
            unfused_passes(f, ops.row_bias, ops.col_bias, m, n, want_nt.data(),
                           scratch_keep.data());
            for (const std::size_t threads : {1u, 2u, 8u}) {
                const scoped_intra_op_threads budget(threads);
                const std::string where = describe(f) + " " + std::to_string(m) + "x" +
                                          std::to_string(k) + "x" + std::to_string(n) +
                                          " @" + std::to_string(threads);
                std::vector<std::uint8_t> keep(m * n, 0xEE);
                gemm_epilogue epi = make_epilogue(f, ops.row_bias, ops.col_bias, keep.data(), n);
                std::vector<float> got(m * n, -7.0f);
                gemm_nn(m, n, k, ops.a.data(), k, ops.b.data(), n, got.data(), n, false,
                        workspace::local(), &epi);
                EXPECT_EQ(0, std::memcmp(want_nn.data(), got.data(), got.size() * sizeof(float)))
                    << "gemm_nn " << where;
                EXPECT_EQ(want_keep, keep) << "gemm_nn keep " << where;

                std::fill(keep.begin(), keep.end(), 0xEE);
                std::fill(got.begin(), got.end(), -7.0f);
                gemm_nt(m, n, k, ops.a.data(), k, bt.data(), k, got.data(), n, false,
                        workspace::local(), &epi);
                EXPECT_EQ(0, std::memcmp(want_nt.data(), got.data(), got.size() * sizeof(float)))
                    << "gemm_nt " << where;
                EXPECT_EQ(scratch_keep, keep) << "gemm_nt keep " << where;
            }
        }
    }
}

TEST(FusedEpilogue, EverySpecializationMatchesUnfusedThroughGroupedDriver) {
    // gemm_nn_multi has no keep-mask; every other flag set runs over three
    // A variants, with the full k and with a k-subset (every other row).
    rng gen(263);
    constexpr std::size_t count = 3;
    for (const auto& [m, k, n] : kEpilogueShapes) {
        const epilogue_operands ops = make_epilogue_operands(m, k, n, count * m, gen);
        std::vector<std::size_t> rows;
        for (std::size_t p = 0; p < k; p += 2) { rows.push_back(p); }
        std::vector<float> compact_b(rows.size() * n);
        for (std::size_t r = 0; r < rows.size(); ++r) {
            for (std::size_t j = 0; j < n; ++j) {
                compact_b[r * n + j] = ops.b[rows[r] * n + j];
            }
        }
        const gemm_k_subset subset{rows.data(), rows.size(), k};
        std::vector<const float*> a_list;
        for (std::size_t g = 0; g < count; ++g) { a_list.push_back(ops.a.data() + g * m * k); }

        for (const bool use_subset : {false, true}) {
            const float* b = use_subset ? compact_b.data() : ops.b.data();
            const gemm_k_subset* sub = use_subset ? &subset : nullptr;
            set_intra_op_threads(1);
            std::vector<float> plain(count * m * n);
            std::vector<float*> plain_list;
            for (std::size_t g = 0; g < count; ++g) {
                plain_list.push_back(plain.data() + g * m * n);
            }
            gemm_nn_multi(m, n, k, a_list.data(), count, k, b, n, plain_list.data(), n, false,
                          workspace::local(), sub);
            for (const epilogue_flags& f : legal_epilogue_flags()) {
                if (f.keep) { continue; }
                std::vector<float> want = plain;
                for (std::size_t g = 0; g < count; ++g) {
                    unfused_passes(f, ops.row_bias, ops.col_bias, m, n, want.data() + g * m * n,
                                   nullptr);
                }
                const gemm_epilogue epi = make_epilogue(f, ops.row_bias, ops.col_bias, nullptr, 0);
                for (const std::size_t threads : {1u, 2u, 8u}) {
                    const scoped_intra_op_threads budget(threads);
                    std::vector<float> got(count * m * n, -7.0f);
                    std::vector<float*> got_list;
                    for (std::size_t g = 0; g < count; ++g) {
                        got_list.push_back(got.data() + g * m * n);
                    }
                    gemm_nn_multi(m, n, k, a_list.data(), count, k, b, n, got_list.data(), n,
                                  false, workspace::local(), sub, &epi);
                    EXPECT_EQ(0, std::memcmp(want.data(), got.data(), got.size() * sizeof(float)))
                        << "gemm_nn_multi " << describe(f) << (use_subset ? " subset " : " ")
                        << m << "x" << k << "x" << n << " @" << threads;
                }
            }
        }
    }
}

TEST(FusedEpilogue, MatmulNtBiasMatchesUnfusedBitwiseAcrossTileEdges) {
    rng gen(211);
    for (const auto& [m, k, n] : kShapes) {
        const tensor a = random_tensor({m, k}, gen);
        const tensor b = random_tensor({n, k}, gen);
        const tensor bias = random_tensor({n}, gen);
        set_intra_op_threads(1);
        tensor unfused = matmul_nt(a, b);
        add_row_bias_inplace(unfused, bias);
        const tensor unfused_relu = relu(unfused);
        for (const std::size_t threads : {1u, 2u, 8u}) {
            const scoped_intra_op_threads budget(threads);
            EXPECT_TRUE(bitwise_equal(unfused, matmul_nt_bias(a, b, bias)))
                << "bias " << m << "x" << k << "x" << n << " @" << threads;
            EXPECT_TRUE(bitwise_equal(unfused_relu, matmul_nt_bias(a, b, bias, true)))
                << "bias+relu " << m << "x" << k << "x" << n << " @" << threads;
        }
    }
}

TEST(FusedEpilogue, MultiPanelKAppliesEpilogueExactlyOnce) {
    // k spans several KC=256 panels; the epilogue must fire only after the
    // LAST panel's accumulation (a per-panel application would add bias
    // repeatedly and relu partial sums).
    rng gen(223);
    const tensor a = random_tensor({65, 700}, gen);
    const tensor b = random_tensor({63, 700}, gen);
    const tensor bias = random_tensor({63}, gen);
    set_intra_op_threads(1);
    tensor unfused = matmul_nt(a, b);
    add_row_bias_inplace(unfused, bias);
    const tensor unfused_relu = relu(unfused);
    for (const std::size_t threads : {1u, 2u, 8u}) {
        const scoped_intra_op_threads budget(threads);
        EXPECT_TRUE(bitwise_equal(unfused, matmul_nt_bias(a, b, bias))) << "@" << threads;
        EXPECT_TRUE(bitwise_equal(unfused_relu, matmul_nt_bias(a, b, bias, true)))
            << "relu @" << threads;
    }
}

TEST(FusedEpilogue, KeepMaskReproducesReluBackwardWithNanInf) {
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    rng gen(227);
    tensor a = random_tensor({33, 80}, gen);
    tensor b = random_tensor({37, 80}, gen);
    tensor bias = random_tensor({37}, gen);
    // Poison pre-activations: NaN and ±inf rows/columns, plus a bias that
    // forces exact zeros (z <= 0 must NOT keep gradient; NaN must).
    a.raw()[5 * 80 + 7] = nan;
    a.raw()[12 * 80 + 3] = inf;
    b.raw()[20 * 80 + 9] = -inf;
    for (std::size_t i = 0; i < 80; ++i) { a.raw()[30 * 80 + i] = 0.0f; }
    bias.raw()[17] = 0.0f;  // row 30 gets z == 0 at column 17

    set_intra_op_threads(1);
    tensor pre = matmul_nt(a, b);
    add_row_bias_inplace(pre, bias);
    const tensor grad = random_tensor({33, 37}, gen);
    const tensor expected_grad = relu_backward(grad, pre);
    const tensor expected_out = relu(pre);

    for (const std::size_t threads : {1u, 2u, 8u}) {
        const scoped_intra_op_threads budget(threads);
        std::vector<std::uint8_t> keep(33 * 37, 0xEE);
        const tensor fused = matmul_nt_bias(a, b, bias, true, keep.data());
        EXPECT_TRUE(bitwise_equal(expected_out, fused)) << "@" << threads;
        EXPECT_TRUE(bitwise_equal(expected_grad, relu_keep_backward(grad, keep.data())))
            << "@" << threads;
    }
    // Sanity: the poison reached a kept NaN (mask must treat NaN as keep).
    bool nan_kept = false;
    for (std::size_t i = 0; i < pre.numel(); ++i) {
        if (std::isnan(pre.raw()[i])) {
            std::vector<std::uint8_t> keep(33 * 37);
            matmul_nt_bias(a, b, bias, true, keep.data());
            EXPECT_EQ(1, keep[i]) << "NaN pre-activation must keep gradient";
            nan_kept = true;
            break;
        }
    }
    EXPECT_TRUE(nan_kept);
}

TEST(FusedEpilogue, KZeroPathStillAppliesBiasAndRelu) {
    // gemm with k == 0 short-circuits to a zero (or untouched) C; the fused
    // path must still run the epilogue over the zero output.
    const std::size_t m = 5;
    const std::size_t n = 19;
    std::vector<float> c(m * n, -42.0f);
    gemm_epilogue epi;
    tensor bias({n});
    for (std::size_t j = 0; j < n; ++j) { bias.raw()[j] = static_cast<float>(j) - 9.0f; }
    epi.col_bias = bias.raw();
    epi.relu = true;
    std::vector<std::uint8_t> keep(m * n, 0xEE);
    epi.relu_keep = keep.data();
    epi.keep_ld = n;
    gemm_nn(m, n, 0, nullptr, 0, nullptr, 0, c.data(), n, /*accumulate=*/false,
            workspace::local(), &epi);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            const float z = bias.raw()[j];
            EXPECT_EQ(z > 0.0f ? z : 0.0f, c[i * n + j]) << i << "," << j;
            EXPECT_EQ(z > 0.0f ? 1 : 0, keep[i * n + j]) << i << "," << j;
        }
    }
}

TEST(FusedEpilogue, RejectsInvalidCombinations) {
    rng gen(229);
    const tensor a = random_tensor({4, 8}, gen);
    const tensor b = random_tensor({8, 4}, gen);
    tensor c({4, 4});
    const tensor bias = random_tensor({4}, gen);
    std::vector<std::uint8_t> keep(16);

    gemm_epilogue epi;
    epi.col_bias = bias.raw();
    // Epilogues require accumulate == false (the tail assumes the chain is
    // complete at the store).
    EXPECT_ANY_THROW(gemm_nn(4, 4, 8, a.raw(), 8, b.raw(), 4, c.raw(), 4, true,
                             workspace::local(), &epi));
    // At most one bias axis.
    epi.row_bias = bias.raw();
    EXPECT_ANY_THROW(gemm_nn(4, 4, 8, a.raw(), 8, b.raw(), 4, c.raw(), 4, false,
                             workspace::local(), &epi));
    // Keep-mask requires relu.
    gemm_epilogue mask_only;
    mask_only.relu_keep = keep.data();
    mask_only.keep_ld = 4;
    EXPECT_ANY_THROW(gemm_nn(4, 4, 8, a.raw(), 8, b.raw(), 4, c.raw(), 4, false,
                             workspace::local(), &mask_only));
    // The grouped driver cannot record a keep-mask (one mask per variant
    // would be needed); it must reject rather than silently mis-record.
    gemm_epilogue grouped_mask;
    grouped_mask.relu = true;
    grouped_mask.relu_keep = keep.data();
    grouped_mask.keep_ld = 4;
    const float* a_ptr = a.raw();
    float* c_ptr = c.raw();
    EXPECT_ANY_THROW(gemm_nn_multi(4, 4, 8, &a_ptr, 1, 8, b.raw(), 4, &c_ptr, 4, false,
                                   workspace::local(), nullptr, &grouped_mask));
}

TEST(FusedEpilogue, GroupedLinearDriversMatchUnfusedBitwise) {
    rng gen(233);
    std::vector<tensor> dense;
    std::vector<const tensor*> dense_ptrs;
    for (int g = 0; g < 3; ++g) { dense.push_back(random_tensor({64, 256}, gen)); }
    for (const tensor& w : dense) { dense_ptrs.push_back(&w); }
    const tensor x = random_tensor({48, 256}, gen);
    const tensor stacked = random_tensor({144, 256}, gen);
    const tensor bias = random_tensor({64}, gen);

    set_intra_op_threads(1);
    tensor fan_ref = matmul_nt_fanout(x, dense_ptrs);
    add_row_bias_inplace(fan_ref, bias);
    const tensor fan_relu_ref = relu(fan_ref);
    tensor grp_ref = matmul_nt_grouped(stacked, 3, dense_ptrs);
    add_row_bias_inplace(grp_ref, bias);
    const tensor grp_relu_ref = relu(grp_ref);

    for (const std::size_t threads : {1u, 2u, 8u}) {
        const scoped_intra_op_threads budget(threads);
        EXPECT_TRUE(bitwise_equal(fan_ref, matmul_nt_fanout(x, dense_ptrs, &bias)))
            << "fanout bias @" << threads;
        EXPECT_TRUE(
            bitwise_equal(fan_relu_ref, matmul_nt_fanout(x, dense_ptrs, &bias, true)))
            << "fanout bias+relu @" << threads;
        EXPECT_TRUE(
            bitwise_equal(grp_ref, matmul_nt_grouped(stacked, 3, dense_ptrs, &bias)))
            << "grouped bias @" << threads;
        EXPECT_TRUE(bitwise_equal(grp_relu_ref,
                                  matmul_nt_grouped(stacked, 3, dense_ptrs, &bias, true)))
            << "grouped bias+relu @" << threads;
    }
}

TEST(FusedEpilogue, ConvFusedBiasReluMatchesUnfusedBitwise) {
    rng gen(239);
    const conv2d_spec spec{8, 16, 3, 3, 1, 1};
    tensor input = random_tensor({6, 8, 12, 12}, gen);
    tensor weight = random_tensor({16, 8, 3, 3}, gen);
    const tensor bias = random_tensor({16}, gen);
    input.raw()[3 * 8 * 144 + 100] = std::numeric_limits<float>::quiet_NaN();

    set_intra_op_threads(1);
    const tensor pre = conv2d_forward(input, weight, bias, spec);
    const tensor expected = relu(pre);
    const tensor grad = random_tensor(pre.shape(), gen);
    const tensor expected_grad = relu_backward(grad, pre);

    for (const std::size_t threads : {1u, 2u, 8u}) {
        const scoped_intra_op_threads budget(threads);
        // Bias-only fusion (the training conv path).
        conv_fusion bias_only;
        EXPECT_TRUE(
            bitwise_equal(pre, conv2d_forward(input, weight, bias, spec, &bias_only)))
            << "bias-only @" << threads;
        // Full bias+relu+mask fusion (the scheduler path).
        std::vector<std::uint8_t> keep(pre.numel(), 0xEE);
        conv_fusion fused;
        fused.relu = true;
        fused.relu_keep = keep.data();
        EXPECT_TRUE(bitwise_equal(expected, conv2d_forward(input, weight, bias, spec, &fused)))
            << "bias+relu @" << threads;
        EXPECT_TRUE(bitwise_equal(expected_grad, relu_keep_backward(grad, keep.data())))
            << "keep-mask @" << threads;
    }
}

TEST(FusedEpilogue, ConvFusedMatchesUnfusedThroughChunkedLowering) {
    // Shrink the lowering budget so the batch splits into chunks; the
    // epilogue and the NCHW keep-mask must line up across chunk seams.
    rng gen(241);
    const conv2d_spec spec{4, 8, 3, 3, 1, 1};
    const tensor input = random_tensor({10, 4, 10, 10}, gen);
    const tensor weight = random_tensor({8, 4, 3, 3}, gen);
    const tensor bias = random_tensor({8}, gen);
    set_intra_op_threads(1);
    const tensor pre = conv2d_forward(input, weight, bias, spec);
    const tensor expected = relu(pre);
    const std::size_t old_budget = set_conv_lowering_budget_bytes(64 * 1024);
    std::vector<std::uint8_t> keep(pre.numel(), 0xEE);
    conv_fusion fused;
    fused.relu = true;
    fused.relu_keep = keep.data();
    const tensor chunked = conv2d_forward(input, weight, bias, spec, &fused);
    set_conv_lowering_budget_bytes(old_budget);
    EXPECT_TRUE(bitwise_equal(expected, chunked));
    for (std::size_t i = 0; i < pre.numel(); ++i) {
        ASSERT_EQ(pre.raw()[i] > 0.0f ? 1 : 0, keep[i]) << "keep " << i;
    }
}

TEST(FusedEpilogue, GroupedConvDriversMatchUnfusedBitwise) {
    rng gen(251);
    const conv2d_spec spec{4, 8, 3, 3, 1, 1};
    const tensor input = random_tensor({6, 4, 12, 12}, gen);
    const tensor stacked = random_tensor({18, 4, 12, 12}, gen);
    const tensor bias = random_tensor({8}, gen);
    std::vector<tensor> weights;
    std::vector<const tensor*> weight_ptrs;
    for (int g = 0; g < 3; ++g) { weights.push_back(random_tensor({8, 4, 3, 3}, gen)); }
    for (const tensor& w : weights) { weight_ptrs.push_back(&w); }

    set_intra_op_threads(1);
    const tensor fan_ref = relu(conv2d_forward_fanout(input, weight_ptrs, bias, spec));
    const tensor grp_ref =
        relu(conv2d_forward_grouped(stacked, 3, weight_ptrs, bias, spec));
    for (const std::size_t threads : {1u, 2u, 8u}) {
        const scoped_intra_op_threads budget(threads);
        EXPECT_TRUE(bitwise_equal(
            fan_ref, conv2d_forward_fanout(input, weight_ptrs, bias, spec, true)))
            << "conv fanout fused @" << threads;
        EXPECT_TRUE(bitwise_equal(
            grp_ref, conv2d_forward_grouped(stacked, 3, weight_ptrs, bias, spec, true)))
            << "conv grouped fused @" << threads;
    }
}

}  // namespace
}  // namespace reduce
