// Fused-epilogue tests below the zoo level:
//  * the per-channel vector requant, driven through the public KernelSet
//    entry points with a hand-built Epilogue whose shift table straddles
//    zero (lanes at -3, 0, 1 and 30) and accumulators placed exactly on
//    rounding ties and at the v + half headroom limit;
//  * the plan's worst-channel vec32 proof and its per-lane tables;
//  * the plan's structural validation of deserialized programs (epilogue
//    length, per-channel table length), through build_exec_plan and load().
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "fixedpoint/engine.h"
#include "fixedpoint/kernels/kernels.h"
#include "fixedpoint/plan.h"
#include "runtime/parallel.h"

namespace tqt {
namespace {

constexpr int64_t kI32Min = std::numeric_limits<int32_t>::min();
constexpr int64_t kI32Max = std::numeric_limits<int32_t>::max();

// ---- Kernel level: per-channel requant in 8 lanes ---------------------------

/// Channel c's requant shift: the table straddles zero, each 8-lane vector
/// holds every kind twice, and the pattern rotates by one from one vector
/// to the next, so a table load at the wrong channel offset shows.
int shift_of(int64_t c) {
  static constexpr int kShifts[4] = {-3, 0, 1, 30};
  return kShifts[(c + c / 8) % 4];
}

/// Accumulator values per shift kind. The wide set needs int32 reach (the
/// int16-activation GEMM); the narrow one stays within what int8 operands
/// reach in a handful of terms. Every value satisfies its own lane's int32
/// proof: v << 3 fits at shift -3, v + 2^(s-1) fits at s = 1 and 30 (the
/// vector kernels trust the plan's proof; the plan's worst-channel form is
/// tested separately below).
const std::vector<int64_t>& targets(int shift, bool wide) {
  static const std::vector<int64_t> wide_sets[4] = {
      // -3: both ends of the left-shift headroom.
      {(int64_t{1} << 28) - 1, -(int64_t{1} << 28), 1, -1, 0, 123456},
      // 0: saturates at both requant bounds.
      {kI32Max, kI32Min, 7, -7},
      // 1: ties with even and odd quotients, and the headroom limit
      // (v + 1 <= INT32_MAX).
      {1, 3, -1, -3, kI32Max - 2, kI32Max - 1, kI32Min + 1, kI32Min},
      // 30: ties 2^29 (q 0, even), -2^29 (q -1, odd), -3*2^29 (q -2, even),
      // the limit 2^31 - 1 - 2^29, and the neighbours of a tie.
      {int64_t{1} << 29, -(int64_t{1} << 29), -3 * (int64_t{1} << 29),
       kI32Max - (int64_t{1} << 29), kI32Min, (int64_t{1} << 29) - 1,
       (int64_t{1} << 29) + 1, -(int64_t{1} << 29) - 1},
  };
  static const std::vector<int64_t> narrow_sets[4] = {
      {1, -1, 12345, -12345, 99999, -99999, 0},
      {0, 7, -7, 12345, -12345},
      {1, 3, -1, -3, 5, 6, -6, 99999, -99998, 0},
      {3, -3, 0, 99999, -99999},
  };
  const int kind = shift == -3 ? 0 : shift == 0 ? 1 : shift == 1 ? 2 : 3;
  return wide ? wide_sets[kind] : narrow_sets[kind];
}

/// Accumulator value the test places at (row/pixel i, channel c).
int64_t target(int64_t i, int64_t c, bool wide) {
  const auto& t = targets(shift_of(c), wide);
  return t[static_cast<size_t>((i + c / 4) % static_cast<int64_t>(t.size()))];
}

/// Split `v` into n digits d with v = big * (d[0] + ... + d[n-2]) + d[n-1]
/// and |d| <= dmax: a block of weights {big, ..., big, 1} against these
/// digits accumulates exactly v.
std::vector<int64_t> digits(int64_t v, int64_t big, int64_t dmax, int n) {
  std::vector<int64_t> d(static_cast<size_t>(n), 0);
  const int64_t r = v % big;
  int64_t s = (v - r) / big;
  for (int k = 0; k < n - 1; ++k) {
    d[static_cast<size_t>(k)] = std::clamp(s, -dmax, dmax);
    s -= d[static_cast<size_t>(k)];
  }
  EXPECT_EQ(s, 0) << "target " << v << " out of reach";
  d[static_cast<size_t>(n - 1)] = r;
  return d;
}

/// A hand-built per-channel epilogue: requant (per-channel shift, clamp to
/// [lo, hi]) then bias, declared vec32, with the plan's table layout.
struct ChanEpi {
  std::vector<fpk::EpiStep> steps;
  std::vector<int64_t> bias;
  std::vector<int32_t> bias32, shift, rshift, lshift, halfm1;

  ChanEpi(int64_t channels, int64_t lo, int64_t hi) {
    fpk::EpiStep rq;
    rq.op = 0;
    rq.per_channel = true;
    rq.lo = lo;
    rq.hi = hi;
    fpk::EpiStep b;
    b.op = 1;
    steps = {rq, b};
    const size_t lanes = static_cast<size_t>(fpk::packed_n(channels));
    bias32.assign(lanes + 8, 0);
    rshift.assign(lanes, 0);
    lshift.assign(lanes, 0);
    halfm1.assign(lanes, 0);
    for (int64_t c = 0; c < channels; ++c) {
      const int s = shift_of(c);
      bias.push_back(c % 5 - 2);
      bias32[static_cast<size_t>(c)] = static_cast<int32_t>(c % 5 - 2);
      shift.push_back(s);
      if (s > 0) {
        rshift[static_cast<size_t>(c)] = s;
        halfm1[static_cast<size_t>(c)] = static_cast<int32_t>((int64_t{1} << (s - 1)) - 1);
      } else {
        lshift[static_cast<size_t>(c)] = -s;
      }
    }
  }

  fpk::Epilogue make(int32_t* y) const {
    fpk::Epilogue e;
    e.steps = steps.data();
    e.n_steps = static_cast<int>(steps.size());
    e.bias = bias.data();
    e.y = y;
    e.out_bytes = 4;
    e.vec32 = true;
    e.bias32 = bias32.data();
    e.chan_shift = shift.data();
    e.chan_rshift = rshift.data();
    e.chan_lshift = lshift.data();
    e.chan_halfm1 = halfm1.data();
    return e;
  }
};

// Wide requant bounds leave room for the +-2 bias after saturation.
constexpr int64_t kWideLo = kI32Min + 16, kWideHi = kI32Max - 16;
constexpr int64_t kNarrowLo = -500000, kNarrowHi = 500000;

// Channels and rows that are not multiples of 8 (nor of the GEMM's 2-row
// tile): full 16-column groups, a masked partial tail, an odd last row.
constexpr int64_t kC = 21;
constexpr int64_t kRows = 9;

// The scalar int64 walk itself, pinned on hand-computed values so the
// comparisons below rest on a checked reference.
TEST(ChanRequantVec, ScalarReferenceRoundsHalfToEven) {
  const ChanEpi ce(kC, kWideLo, kWideHi);
  const fpk::Epilogue e = ce.make(nullptr);
  // Channel 3: shift 30, bias 1. Channel 2: shift 1, bias 0. Channel 0:
  // shift -3, bias -2. Channel 1: shift 0, bias -1.
  EXPECT_EQ(fpk::epi_apply(e, int64_t{1} << 29, 3), 0 + 1);
  EXPECT_EQ(fpk::epi_apply(e, -(int64_t{1} << 29), 3), 0 + 1);
  EXPECT_EQ(fpk::epi_apply(e, -3 * (int64_t{1} << 29), 3), -2 + 1);
  EXPECT_EQ(fpk::epi_apply(e, kI32Max - (int64_t{1} << 29), 3), 1 + 1);
  EXPECT_EQ(fpk::epi_apply(e, 3, 2), 2);
  EXPECT_EQ(fpk::epi_apply(e, 1, 2), 0);
  EXPECT_EQ(fpk::epi_apply(e, -3, 2), -2);
  EXPECT_EQ(fpk::epi_apply(e, 123456, 0), 123456 * 8 - 2);
  EXPECT_EQ(fpk::epi_apply(e, (int64_t{1} << 28) - 1, 0), kWideHi - 2);  // saturated
  EXPECT_EQ(fpk::epi_apply(e, kI32Max, 1), kWideHi - 1);
}

// int16-activation packed GEMM (the only operand pair with int32 reach):
// every lane kind at its ties and headroom limits. The scalar set has no
// packed entry point, so the reference is epi_apply on the exact target.
TEST(ChanRequantVec, GemmS16P16MatchesScalarWalk) {
  const fpk::KernelSet* avx2 = fpk::avx2_kernels();
  if (!avx2) GTEST_SKIP() << "no AVX2 kernel set on this machine";
  constexpr int L = 520;  // 127 * 32767 * 519 > 2^31
  const int64_t K = kC * L;
  std::vector<int16_t> A(static_cast<size_t>(kRows * K + 16), 0);  // + 32 B slack
  std::vector<int8_t> B(static_cast<size_t>(K * kC), 0);
  for (int64_t c = 0; c < kC; ++c) {
    for (int k = 0; k < L; ++k) B[static_cast<size_t>((c * L + k) * kC + c)] = k < L - 1 ? 127 : 1;
    for (int64_t i = 0; i < kRows; ++i) {
      const auto d = digits(target(i, c, true), 127, 32767, L);
      for (int k = 0; k < L; ++k) {
        A[static_cast<size_t>(i * K + c * L + k)] = static_cast<int16_t>(d[static_cast<size_t>(k)]);
      }
    }
  }
  const std::vector<int16_t> Bp = fpk::pack_b_pair16(B.data(), K, kC);
  const ChanEpi ce(kC, kWideLo, kWideHi);
  for (int threads : {1, 4}) {
    set_num_threads(threads);
    std::vector<int32_t> y(static_cast<size_t>(kRows * kC), 0x5a5a5a5a);
    avx2->gemm_s16p16_epi(A.data(), Bp.data(), kRows, kC, K, ce.make(y.data()));
    const fpk::Epilogue e = ce.make(nullptr);
    for (int64_t i = 0; i < kRows; ++i) {
      for (int64_t c = 0; c < kC; ++c) {
        ASSERT_EQ(y[static_cast<size_t>(i * kC + c)], fpk::epi_apply(e, target(i, c, true), c))
            << "row " << i << " channel " << c << " shift " << shift_of(c) << " acc "
            << target(i, c, true) << " @" << threads;
      }
    }
  }
  set_num_threads(0);
}

// Nibble-packed GEMM: AVX2 against the scalar set's kernel and the exact
// reference.
TEST(ChanRequantVec, GemmS8N4MatchesScalarSet) {
  const fpk::KernelSet* avx2 = fpk::avx2_kernels();
  if (!avx2) GTEST_SKIP() << "no AVX2 kernel set on this machine";
  constexpr int L = 150;  // 7 * 127 * 149 > 99999
  const int64_t K = kC * L;
  std::vector<int8_t> A(static_cast<size_t>(kRows * K + 32), 0);
  std::vector<int8_t> B(static_cast<size_t>(K * kC), 0);
  for (int64_t c = 0; c < kC; ++c) {
    for (int k = 0; k < L; ++k) B[static_cast<size_t>((c * L + k) * kC + c)] = k < L - 1 ? 7 : 1;
    for (int64_t i = 0; i < kRows; ++i) {
      const auto d = digits(target(i, c, false), 7, 127, L);
      for (int k = 0; k < L; ++k) {
        A[static_cast<size_t>(i * K + c * L + k)] = static_cast<int8_t>(d[static_cast<size_t>(k)]);
      }
    }
  }
  const std::vector<uint8_t> Bn = fpk::pack_b_nib4(B.data(), K, kC);
  const ChanEpi ce(kC, kNarrowLo, kNarrowHi);
  std::vector<int32_t> ys(static_cast<size_t>(kRows * kC), 0);
  fpk::scalar_kernels().gemm_s8n4_epi(A.data(), Bn.data(), kRows, kC, K, ce.make(ys.data()));
  const fpk::Epilogue e = ce.make(nullptr);
  for (int64_t i = 0; i < kRows; ++i) {
    for (int64_t c = 0; c < kC; ++c) {
      ASSERT_EQ(ys[static_cast<size_t>(i * kC + c)], fpk::epi_apply(e, target(i, c, false), c));
    }
  }
  for (int threads : {1, 4}) {
    set_num_threads(threads);
    std::vector<int32_t> y(static_cast<size_t>(kRows * kC), 0x5a5a5a5a);
    avx2->gemm_s8n4_epi(A.data(), Bn.data(), kRows, kC, K, ce.make(y.data()));
    EXPECT_EQ(y, ys) << "@" << threads;
  }
  set_num_threads(0);
}

// Direct depthwise: 3x3 stride-3 windows never overlap, so each output
// pixel's 9 taps spell its own target. Channels 0..15 retire through the
// vector epilogue (tiles at channel 0 and 8), 16..20 through the tail walk.
TEST(ChanRequantVec, DepthwiseS8MatchesScalarSet) {
  const fpk::KernelSet* avx2 = fpk::avx2_kernels();
  if (!avx2) GTEST_SKIP() << "no AVX2 kernel set on this machine";
  fpk::DepthwiseArgs a;
  a.batch = 1;
  a.h = a.w = 9;
  a.c = kC;
  a.oh = a.ow = 3;
  a.geom.kh = a.geom.kw = 3;
  a.geom.stride_h = a.geom.stride_w = 3;
  std::vector<int8_t> w(static_cast<size_t>(9 * kC));
  for (int t = 0; t < 9; ++t) {
    for (int64_t c = 0; c < kC; ++c) w[static_cast<size_t>(t * kC + c)] = t < 8 ? 127 : 1;
  }
  std::vector<int8_t> x(static_cast<size_t>(a.h * a.w * kC), 0);
  for (int64_t p = 0; p < a.oh * a.ow; ++p) {
    const int64_t oy = p / a.ow, ox = p % a.ow;
    for (int64_t c = 0; c < kC; ++c) {
      const auto d = digits(target(p, c, false), 127, 127, 9);
      for (int t = 0; t < 9; ++t) {
        const int64_t iy = oy * 3 + t / 3, ix = ox * 3 + t % 3;
        x[static_cast<size_t>((iy * a.w + ix) * kC + c)] =
            static_cast<int8_t>(d[static_cast<size_t>(t)]);
      }
    }
  }
  const ChanEpi ce(kC, kNarrowLo, kNarrowHi);
  const int64_t yn = a.oh * a.ow * kC;
  std::vector<int32_t> ys(static_cast<size_t>(yn), 0);
  fpk::scalar_kernels().depthwise_s8_epi(x.data(), w.data(), a, ce.make(ys.data()));
  const fpk::Epilogue e = ce.make(nullptr);
  for (int64_t p = 0; p < a.oh * a.ow; ++p) {
    for (int64_t c = 0; c < kC; ++c) {
      ASSERT_EQ(ys[static_cast<size_t>(p * kC + c)], fpk::epi_apply(e, target(p, c, false), c));
    }
  }
  for (int threads : {1, 4}) {
    set_num_threads(threads);
    std::vector<int32_t> y(static_cast<size_t>(yn), 0x5a5a5a5a);
    avx2->depthwise_s8_epi(x.data(), w.data(), a, ce.make(y.data()));
    EXPECT_EQ(y, ys) << "@" << threads;
  }
  set_num_threads(0);
}

// NC8HW8 blocked 1x1 conv: channel o reads its own block of 9 input
// channels. The three padded output lanes of the last block hold shift 0
// and bias 0, so the AVX2 epilogue(0) equals the scalar kernel's stored 0 —
// the whole blocked buffer, padding included, must match.
TEST(ChanRequantVec, ConvBlockedMatchesScalarSet) {
  const fpk::KernelSet* avx2 = fpk::avx2_kernels();
  if (!avx2) GTEST_SKIP() << "no AVX2 kernel set on this machine";
  constexpr int L = 9;
  fpk::ConvBlkArgs a;
  a.batch = 1;
  a.h = a.w = 3;
  a.cin = kC * L;
  a.cout = kC;
  a.oh = a.ow = 3;
  a.geom.kh = a.geom.kw = 1;
  a.geom.stride_h = a.geom.stride_w = 1;
  std::vector<int8_t> w(static_cast<size_t>(a.cin * a.cout), 0);
  for (int64_t ci = 0; ci < a.cin; ++ci) {
    w[static_cast<size_t>(ci * a.cout + ci / L)] = ci % L < L - 1 ? 127 : 1;
  }
  const std::vector<int16_t> wblk = fpk::pack_conv_wblk16(w.data(), 1, 1, a.cin, a.cout);
  const int64_t cbi = fpk::blocked_c(a.cin) / fpk::kChanBlock;
  const int64_t pixels = a.h * a.w;
  std::vector<int8_t> xb(static_cast<size_t>(cbi * pixels * fpk::kChanBlock), 0);
  for (int64_t p = 0; p < pixels; ++p) {
    for (int64_t o = 0; o < a.cout; ++o) {
      const auto d = digits(target(p, o, false), 127, 127, L);
      for (int k = 0; k < L; ++k) {
        const int64_t ci = o * L + k;
        xb[static_cast<size_t>(((ci / 8) * pixels + p) * 8 + ci % 8)] =
            static_cast<int8_t>(d[static_cast<size_t>(k)]);
      }
    }
  }
  const ChanEpi ce(kC, kNarrowLo, kNarrowHi);
  const int64_t ob = fpk::blocked_c(a.cout) / fpk::kChanBlock;
  const int64_t yn = ob * pixels * fpk::kChanBlock;
  std::vector<int32_t> ys(static_cast<size_t>(yn), 0x5a5a5a5a);
  fpk::scalar_kernels().conv_s8blk_epi(xb.data(), wblk.data(), a, ce.make(ys.data()));
  const fpk::Epilogue e = ce.make(nullptr);
  for (int64_t p = 0; p < pixels; ++p) {
    for (int64_t o = 0; o < a.cout; ++o) {
      ASSERT_EQ(ys[static_cast<size_t>(((o / 8) * pixels + p) * 8 + o % 8)],
                fpk::epi_apply(e, target(p, o, false), o));
    }
  }
  for (int threads : {1, 4}) {
    set_num_threads(threads);
    std::vector<int32_t> y(static_cast<size_t>(yn), 0x5a5a5a5a);
    avx2->conv_s8blk_epi(xb.data(), wblk.data(), a, ce.make(y.data()));
    EXPECT_EQ(y, ys) << "@" << threads;
  }
  set_num_threads(0);
}

// ---- Plan level --------------------------------------------------------------

FpInstr quantize_input() {
  FpInstr in;
  in.kind = FpInstr::Kind::kQuantizeInput;
  in.inputs = {0};
  in.output = 1;
  in.out_exponent = -4;
  in.clamp_lo = -128;
  in.clamp_hi = 127;
  return in;
}

void push_step(FpInstr& in, FpInstr::EpiOp op, int64_t a, int64_t b, int64_t c) {
  in.epi_data.insert(in.epi_data.end(), {static_cast<int64_t>(op), a, b, c});
}

/// reg1 (int8 input at exponent -4) -> fused dense [k, n] of all-one weights
/// -> reg2, opening with a requant to `target_exp` clamped to int8.
FpInstr dense_fused(int64_t k, int64_t n, int target_exp, std::vector<int64_t> chan) {
  FpInstr in;
  in.kind = FpInstr::Kind::kDenseFused;
  in.inputs = {1};
  in.output = 2;
  in.const_shape = {k, n};
  in.const_data.assign(static_cast<size_t>(k * n), 1);
  in.chan_data = std::move(chan);
  push_step(in, FpInstr::EpiOp::kRequant, target_exp, -128, 127);
  return in;
}

ExecPlan plan_of(const FpInstr& dense) {
  return build_exec_plan({quantize_input(), dense}, 3, 0, 2);
}

// The per-lane tables split each channel's signed shift; the proof sizes
// them to whole vectors.
TEST(ChanRequantPlan, TablesSplitSignedShifts) {
  // Accumulator exponent -4; target -2 => base shift 2; deltas {0, 2, 5}
  // => channel shifts {2, 0, -3}.
  const ExecPlan plan = plan_of(dense_fused(4, 3, -2, {0, 2, 5}));
  const ExecPlan::Const& c = plan.consts[1];
  ASSERT_TRUE(c.epi_vec32);
  EXPECT_EQ(c.chan_shifts, (std::vector<int32_t>{2, 0, -3}));
  EXPECT_EQ(c.chan_rshift, (std::vector<int32_t>{2, 0, 0, 0, 0, 0, 0, 0}));
  EXPECT_EQ(c.chan_lshift, (std::vector<int32_t>{0, 0, 3, 0, 0, 0, 0, 0}));
  EXPECT_EQ(c.chan_halfm1, (std::vector<int32_t>{1, 0, 0, 0, 0, 0, 0, 0}));
}

// One channel whose left shift would overflow int32 turns vec32 off for the
// whole instruction; one bit less and every channel fits.
TEST(ChanRequantPlan, WorstChannelLeftShiftDecidesVec32) {
  // |acc| <= 4 * 128 = 2^9 at exponent -4; target -4 => base shift 0.
  const ExecPlan fits = plan_of(dense_fused(4, 3, -4, {0, 0, 21}));  // 2^9 << 21 = 2^30
  EXPECT_TRUE(fits.consts[1].epi_vec32);
  EXPECT_EQ(fits.consts[1].chan_lshift[2], 21);
  const ExecPlan over = plan_of(dense_fused(4, 3, -4, {0, 0, 22}));  // 2^31 overflows
  EXPECT_FALSE(over.consts[1].epi_vec32);
  EXPECT_TRUE(over.consts[1].chan_rshift.empty());
  EXPECT_EQ(over.consts[1].chan_shifts.size(), 3u);  // the scalar walk's table stays
}

// ... and the largest right shift must stay under 31 bits.
TEST(ChanRequantPlan, WorstChannelRightShiftDecidesVec32) {
  EXPECT_TRUE(plan_of(dense_fused(4, 3, 26, {0, 1, 3})).consts[1].epi_vec32);   // max 30
  EXPECT_FALSE(plan_of(dense_fused(4, 3, 27, {0, 1, 3})).consts[1].epi_vec32);  // max 31
}

// ---- Plan validation: the trust boundary for deserialized programs ----------

TEST(PlanValidation, RejectsEpilogueLongerThanTheStepLimit) {
  FpInstr ok = dense_fused(4, 8, -4, {});
  while (epi_step_count(ok) < fpk::kMaxEpiSteps) push_step(ok, FpInstr::EpiOp::kRelu, 0, 0, 0);
  EXPECT_NO_THROW(plan_of(ok));
  FpInstr bad = ok;
  push_step(bad, FpInstr::EpiOp::kRelu, 0, 0, 0);
  EXPECT_THROW(plan_of(bad), ProgramFormatError);
}

TEST(PlanValidation, RejectsChannelTableOfTheWrongLength) {
  EXPECT_NO_THROW(plan_of(dense_fused(4, 8, -4, std::vector<int64_t>(8, 0))));
  EXPECT_THROW(plan_of(dense_fused(4, 8, -4, {0, 1})), ProgramFormatError);
  EXPECT_THROW(plan_of(dense_fused(4, 8, -4, std::vector<int64_t>(9, 0))), ProgramFormatError);
}

// The length check above reads the weight shape, so its rank is checked
// first.
TEST(PlanValidation, RejectsMatmulWeightShapeOfTheWrongRank) {
  FpInstr flat = dense_fused(4, 8, -4, {});
  flat.const_shape = {32};
  EXPECT_THROW(plan_of(flat), ProgramFormatError);
}

/// Writes the serializer's version-3 layout for a hand-built stream.
void write_v3(const std::string& path, const std::vector<FpInstr>& instrs, int n_regs,
              int input, int output) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  const auto put = [&](const auto& v) {
    os.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  const auto put_vec = [&](const auto& v) {
    put(static_cast<uint64_t>(v.size()));
    os.write(reinterpret_cast<const char*>(v.data()),
             static_cast<std::streamsize>(v.size() * sizeof(v[0])));
  };
  os.write("TQTP", 4);
  put(uint32_t{3});
  put(n_regs);
  put(input);
  put(output);
  put(static_cast<uint64_t>(instrs.size()));
  for (const FpInstr& in : instrs) {
    put(static_cast<uint32_t>(in.kind));
    put_vec(in.inputs);
    put(in.output);
    for (int64_t g : {in.geom.kh, in.geom.kw, in.geom.stride_h, in.geom.stride_w,
                      in.geom.pad_top, in.geom.pad_bottom, in.geom.pad_left, in.geom.pad_right}) {
      put(g);
    }
    put_vec(in.const_data);
    put_vec(in.const_shape);
    put(in.const_exponent);
    put(in.out_exponent);
    put(in.clamp_lo);
    put(in.clamp_hi);
    put(in.alpha_q);
    put(in.alpha_exponent);
    put_vec(in.epi_data);
    put_vec(in.bias_data);
    put_vec(in.chan_data);
    put_vec(in.debug_name);
  }
}

// load() propagates the plan's typed error, which is what lets a hot-swap
// or the admin plane's kSwapFile answer kCorruptModel instead of running
// kernels past their tables.
TEST(PlanValidation, LoadRejectsMalformedPerChannelProgram) {
  const std::string path = ::testing::TempDir() + "/short_chan_table.tqtp";
  write_v3(path, {quantize_input(), dense_fused(4, 8, -4, std::vector<int64_t>(8, 0))}, 3, 0, 2);
  EXPECT_NO_THROW(FixedPointProgram::load(path));
  write_v3(path, {quantize_input(), dense_fused(4, 8, -4, {0, 1})}, 3, 0, 2);
  EXPECT_THROW(FixedPointProgram::load(path), ProgramFormatError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tqt
