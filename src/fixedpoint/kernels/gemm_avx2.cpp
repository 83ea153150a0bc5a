// AVX2 variants of the narrow-width kernels, compile-time gated: the file
// always builds, but the vector bodies exist only when the compiler targets
// AVX2 (e.g. -march=native on an AVX2 machine), and avx2_kernels() further
// checks the running CPU. Everything here is exact integer arithmetic —
// int8 operands widened to int32 lanes, multiplied and added in int32 — so
// results are bit-identical to the scalar set (asserted in tests).
//
// A NEON set would slot in the same way behind fpk::KernelSet; this repo's
// CI targets x86, so only the AVX2 instance is provided.
#include <algorithm>
#include <type_traits>

#include "fixedpoint/kernels/kernels.h"
#include "runtime/parallel.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace tqt::fpk {

#if defined(__AVX2__)

namespace {

constexpr int64_t kKBlock = 256;

// C row tile: 16 int32 lanes (two 256-bit accumulators) per (i, j0) panel.
void gemm_s8_avx2(const int8_t* A, const int8_t* B, int32_t* C, int64_t M, int64_t N,
                  int64_t K) {
  parallel_for(0, M, grain_for(M, 2 * K * N, kGemmTargetOps), [&](int64_t m0, int64_t m1) {
    const int64_t n16 = N - (N % 16);
    for (int64_t i = m0; i < m1; ++i) {
      const int8_t* a = A + i * K;
      int32_t* c = C + i * N;
      for (int64_t j0 = 0; j0 < n16; j0 += 16) {
        __m256i acc0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c + j0));
        __m256i acc1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c + j0 + 8));
        for (int64_t k = 0; k < K; ++k) {
          const int32_t av = a[k];
          if (av == 0) continue;
          const __m256i va = _mm256_set1_epi32(av);
          const int8_t* b = B + k * N + j0;
          const __m256i vb0 = _mm256_cvtepi8_epi32(
              _mm_loadl_epi64(reinterpret_cast<const __m128i*>(b)));
          const __m256i vb1 = _mm256_cvtepi8_epi32(
              _mm_loadl_epi64(reinterpret_cast<const __m128i*>(b + 8)));
          acc0 = _mm256_add_epi32(acc0, _mm256_mullo_epi32(va, vb0));
          acc1 = _mm256_add_epi32(acc1, _mm256_mullo_epi32(va, vb1));
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + j0), acc0);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + j0 + 8), acc1);
      }
      // Scalar tail for N % 16 columns, K-blocked like the scalar kernel.
      if (n16 < N) {
        for (int64_t k0 = 0; k0 < K; k0 += kKBlock) {
          const int64_t k1 = std::min(K, k0 + kKBlock);
          for (int64_t k = k0; k < k1; ++k) {
            const int32_t av = a[k];
            if (av == 0) continue;
            const int8_t* b = B + k * N;
            for (int64_t j = n16; j < N; ++j) c[j] += av * b[j];
          }
        }
      }
    }
  });
}

// Bit p*2 set when A-row pair p of this 8-pair block (bytes 2p, 2p+1 of
// `av`) has any nonzero byte.
inline uint32_t nonzero_pair_mask8(const __m128i av) {
  const uint32_t nz =
      0xFFFFu ^ static_cast<uint32_t>(_mm_movemask_epi8(_mm_cmpeq_epi8(av, _mm_setzero_si128())));
  return (nz | (nz >> 1)) & 0x5555u;
}

// The eight (a0, a1) int16 pair-broadcasts of one 16-byte A block, built with
// vector shuffles only: sign-extend the block to int16 (one 32-bit lane per
// pair), mirror its 128-bit halves, then broadcast each lane with an
// immediate-index shuffle. ~2 uops per broadcast, vs ~6 for rebuilding
// (a1 << 16) | a0 through scalar registers each pair.
struct PairBroadcast8 {
  __m256i va[8];
  explicit PairBroadcast8(const __m128i a8) {
    const __m256i a16 = _mm256_cvtepi8_epi16(a8);
    const __m256i lo = _mm256_permute2x128_si256(a16, a16, 0x00);
    const __m256i hi = _mm256_permute2x128_si256(a16, a16, 0x11);
    va[0] = _mm256_shuffle_epi32(lo, 0x00);
    va[1] = _mm256_shuffle_epi32(lo, 0x55);
    va[2] = _mm256_shuffle_epi32(lo, 0xAA);
    va[3] = _mm256_shuffle_epi32(lo, 0xFF);
    va[4] = _mm256_shuffle_epi32(hi, 0x00);
    va[5] = _mm256_shuffle_epi32(hi, 0x55);
    va[6] = _mm256_shuffle_epi32(hi, 0xAA);
    va[7] = _mm256_shuffle_epi32(hi, 0xFF);
  }
};

// Below this many nonzero pairs (of 8) the tzcnt-driven sparse walk beats
// processing the whole block; post-ReLU activation rows sit on both sides.
constexpr int kDensePairThreshold = 3;

// Store policies: the packed GEMM loop bodies below are templates over how a
// finished accumulator tile leaves the registers. RawStore writes int32 C
// exactly as the pre-fusion kernels did; EpiStore runs the fused epilogue on
// each lane and stores narrow. Accumulation is the SAME instruction sequence
// either way, so fused and unfused results agree bit-for-bit by construction.

// Plain int32 stores into C; the last partial column group maskstores so
// packed-layout padding columns are never written.
struct RawStore {
  int32_t* C;
  int64_t N, n8;
  __m256i tail_mask;
  RawStore(int32_t* c, int64_t n) : C(c), N(n), n8(n - (n % 8)) {
    // Lane mask for the final partial group: lane l live iff n8 + l < N.
    tail_mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int32_t>(N - n8)),
                                   _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
  void store16(int64_t i, int64_t j0, __m256i acc0, __m256i acc1) const {
    int32_t* c = C + i * N + j0;
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(c), acc0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + 8), acc1);
  }
  void store8(int64_t i, int64_t j0, __m256i acc) const {
    int32_t* c = C + i * N + j0;
    if (j0 < n8) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(c), acc);
    } else {
      _mm256_maskstore_epi32(c, tail_mask, acc);
    }
  }
};

// ---- Vectorized epilogue ---------------------------------------------------
// epi_apply in 8 int32 lanes. Legal only when the plan set Epilogue::vec32
// (every intermediate step value provably fits int32 — including the
// v + half rounding headroom below); then it is bit-identical to the int64
// scalar walk: the requant rounding uses the add-bias form of
// shift_round_half_to_even — v + (half - 1) + LSB-of-floor-quotient, one
// arithmetic shift — which equals the quotient/remainder rule lane for lane,
// and every other step is pure add/shift/min/max.
//
// The per-step broadcast constants are materialized ONCE per kernel call
// (EpiVec) rather than per tile: a depthwise pixel retires a tile every ~9
// multiply-adds, so rebuilding half a dozen set1s per tile would rival the
// convolution work itself.
//
// A per-channel requant retires through its own instantiation (kChan): the
// per-tensor one keeps its exact instruction sequence, and the per-channel
// one resolves the flagged step once, at construction, into kChanRequant —
// per-lane counts loaded from the plan's shift tables at the tile's first
// channel, shifted with the variable-count vpsravd / vpsllvd.
template <bool kChan>
struct EpiVecT {
  /// Op past the EpiStep opcodes: per-channel requant (kChan only).
  static constexpr int kChanRequant = 5;
  struct Step {
    int op = 0;
    int shift = 0;
    __m256i halfm1, lo, hi, alpha;  ///< halfm1: requant rounding bias, half - 1
    __m128i cnt;
  };
  Step steps[kMaxEpiSteps];
  int n = 0;
  const int32_t* bias32 = nullptr;
  /// Epilogue::chan_rshift / chan_lshift / chan_halfm1 (kChan only).
  const int32_t* rshift = nullptr;
  const int32_t* lshift = nullptr;
  const int32_t* halfm1 = nullptr;

  explicit EpiVecT(const Epilogue& e) : n(e.n_steps), bias32(e.bias32) {
    if constexpr (kChan) {
      rshift = e.chan_rshift;
      lshift = e.chan_lshift;
      halfm1 = e.chan_halfm1;
    }
    for (int s = 0; s < n; ++s) {
      const EpiStep& st = e.steps[s];
      Step& d = steps[s];
      d.op = kChan && st.op == 0 && st.per_channel ? kChanRequant : st.op;
      d.shift = st.shift;
      switch (d.op) {
        case 0:
          if (st.shift > 0) {
            d.halfm1 =
                _mm256_set1_epi32(static_cast<int32_t>((uint32_t{1} << (st.shift - 1)) - 1));
            d.cnt = _mm_cvtsi32_si128(st.shift);
          } else if (st.shift < 0) {
            d.cnt = _mm_cvtsi32_si128(-st.shift);
          }
          [[fallthrough]];
        case 3:
        case kChanRequant:
          d.lo = _mm256_set1_epi32(static_cast<int32_t>(st.lo));
          d.hi = _mm256_set1_epi32(static_cast<int32_t>(st.hi));
          break;
        case 4:
          d.cnt = _mm_cvtsi32_si128(st.lift);
          d.alpha = _mm256_set1_epi32(static_cast<int32_t>(st.alpha_q));
          break;
        default:
          break;
      }
    }
  }

  /// `j0` is the channel of lane 0; bias lanes load from the plan's padded
  /// int32 bias copy, per-channel shift lanes from its padded tables.
  [[gnu::always_inline]] __m256i apply(__m256i v, int64_t j0) const {
    for (int s = 0; s < n; ++s) {
      const Step& st = steps[s];
      switch (st.op) {
        case 0: {  // requant: round-half-to-even shift, then saturate
          if (st.shift > 0) {
            // v + (half - 1 + LSB of the floor quotient), one arithmetic
            // shift: rounds up exactly when remainder > half, or == half
            // with an odd quotient — shift_round_half_to_even in 5 ops.
            // The plan's vec32 proof reserved the v + half headroom.
            const __m256i qbit =
                _mm256_and_si256(_mm256_sra_epi32(v, st.cnt), _mm256_set1_epi32(1));
            v = _mm256_sra_epi32(
                _mm256_add_epi32(_mm256_add_epi32(v, st.halfm1), qbit), st.cnt);
          } else if (st.shift < 0) {
            v = _mm256_sll_epi32(v, st.cnt);
          }
          v = _mm256_min_epi32(_mm256_max_epi32(v, st.lo), st.hi);
          break;
        }
        case 1:
          v = _mm256_add_epi32(
              v, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bias32 + j0)));
          break;
        case 2:
          v = _mm256_max_epi32(v, _mm256_setzero_si256());
          break;
        case 3:
          v = _mm256_min_epi32(_mm256_max_epi32(v, st.lo), st.hi);
          break;
        case 4: {  // leaky: max(v << lift, v * alpha_q)
          const __m256i a = _mm256_sll_epi32(v, st.cnt);
          const __m256i m = _mm256_mullo_epi32(v, st.alpha);
          v = _mm256_max_epi32(a, m);
          break;
        }
        default:  // kChanRequant
          if constexpr (kChan) {
            // The requant above with per-lane counts. A lane with a right
            // shift has lshift 0; a lane with a left shift (or none) has
            // rshift 0 and halfm1 0, and min(rshift, 1) zeroes its qbit, so
            // it passes the rounding step unchanged.
            const __m256i rs =
                _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rshift + j0));
            const __m256i qbit = _mm256_and_si256(
                _mm256_srav_epi32(v, rs), _mm256_min_epu32(rs, _mm256_set1_epi32(1)));
            const __m256i hm =
                _mm256_loadu_si256(reinterpret_cast<const __m256i*>(halfm1 + j0));
            v = _mm256_srav_epi32(_mm256_add_epi32(_mm256_add_epi32(v, hm), qbit), rs);
            v = _mm256_sllv_epi32(
                v, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lshift + j0)));
            v = _mm256_min_epi32(_mm256_max_epi32(v, st.lo), st.hi);
          }
          break;
      }
    }
    return v;
  }
};
using EpiVec = EpiVecT<false>;
using EpiVecChan = EpiVecT<true>;

/// Call f(ev) with the prepared vector epilogue (precondition: e.vec32) —
/// the per-channel instantiation when the plan supplied shift tables.
template <class F>
void with_epi_vec(const Epilogue& e, F&& f) {
  if (e.chan_rshift) {
    const EpiVecChan ev(e);
    f(ev);
  } else {
    const EpiVec ev(e);
    f(ev);
  }
}

/// Store 8 post-epilogue lanes at flat output index `idx`, narrowed to the
/// plan's width. The saturating packs are exact: the epilogue's final clamp
/// interval fits the output width by construction.
[[gnu::always_inline]] inline void epi_store_vec(const Epilogue& e, int64_t idx, __m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  switch (e.out_bytes) {
    case 1: {
      const __m128i w16 = _mm_packs_epi32(lo, hi);
      _mm_storel_epi64(reinterpret_cast<__m128i*>(static_cast<int8_t*>(e.y) + idx),
                       _mm_packs_epi16(w16, w16));
      break;
    }
    case 2:
      _mm_storeu_si128(reinterpret_cast<__m128i*>(static_cast<int16_t*>(e.y) + idx),
                       _mm_packs_epi32(lo, hi));
      break;
    case 4:
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(static_cast<int32_t*>(e.y) + idx),
                          v);
      break;
    default: {
      int64_t* y = static_cast<int64_t*>(e.y) + idx;
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(y), _mm256_cvtepi32_epi64(lo));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(y + 4), _mm256_cvtepi32_epi64(hi));
      break;
    }
  }
}

// Fused retire: run the epilogue on the accumulator tile while it is still in
// registers (vec32), or spill to the stack and walk the int64 scalar epilogue
// per lane otherwise. Lanes at column >= N are packed-layout padding —
// computed against zero B columns but never written (epi_store would index
// bias and the output out of range).
//
// The retire chain (store16/store8 -> flush8 -> apply -> epi_store_vec) is
// forced inline: it must compile into each GEMM body, and with two EpiVec
// instantiations GCC's unit-growth limits otherwise outline it and pay a
// call per 8-lane tile (measured ~3% of offline W8A8 throughput).
template <class EV>
struct EpiStore {
  const Epilogue* e;
  const EV* v;  ///< prepared vector steps; null when !e->vec32
  int64_t N;
  [[gnu::always_inline]] void flush8(int64_t i, int64_t j0, __m256i acc) const {
    const int64_t nvalid = std::min<int64_t>(8, N - j0);
    if (v) {
      const __m256i r = v->apply(acc, j0);
      if (nvalid == 8) {
        epi_store_vec(*e, i * N + j0, r);
      } else {
        alignas(32) int32_t t[8];
        _mm256_store_si256(reinterpret_cast<__m256i*>(t), r);
        for (int64_t l = 0; l < nvalid; ++l) epi_store(*e, i * N + j0 + l, t[l]);
      }
      return;
    }
    alignas(32) int32_t t[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(t), acc);
    for (int64_t l = 0; l < nvalid; ++l) {
      epi_store(*e, i * N + j0 + l, epi_apply(*e, t[l], j0 + l));
    }
  }
  [[gnu::always_inline]] void store16(int64_t i, int64_t j0, __m256i acc0,
                                      __m256i acc1) const {
    flush8(i, j0, acc0);
    flush8(i, j0 + 8, acc1);
  }
  [[gnu::always_inline]] void store8(int64_t i, int64_t j0, __m256i acc) const {
    flush8(i, j0, acc);
  }
};

// Packed-B GEMM: B comes k-pair-interleaved as int16 (pack_b_pair16), so one
// vpmaddwd computes a0*B[2p][n] + a1*B[2p+1][n] for 8 columns at once — 16
// exact int16*int16 multiply-adds per instruction, with the pair sum and the
// running accumulation both in int32 (the plan's bounds prove no partial sum
// can overflow). K runs in a single pass, so the output is overwritten from
// zero-initialized registers — the caller skips its memset entirely.
//
// The packed layout pads columns to packed_n(N) (zoo conv layers run 8-16
// channels wide, frequently not a multiple of 8), so every column group is a
// full 8-lane vector; the last partial group computes all 8 lanes against
// zero-padded B columns and retires through the store policy's tail path.
//
// A rows are walked in 8-pair (16-byte) blocks. One vector compare finds the
// block's nonzero pairs; near-dense blocks (LeakyReLU activations, im2col
// interiors) take an unrolled path whose pair broadcasts come from
// PairBroadcast8 shuffles, while sparse blocks (post-ReLU zeros) visit only
// their nonzero pairs via a count-trailing-zeros loop. Both read A through
// the 32-byte slack the caller guarantees; any beyond-K byte of the final
// pair multiplies the zero-padded tail of packed B.
// This is the engine's hot conv/dense path.
template <class Store>
void gemm_s8p16_body(const int8_t* A, const int16_t* Bp, int64_t M, int64_t N,
                     int64_t K, const Store& st) {
  const int64_t pairs = (K + 1) / 2;
  const int64_t np = packed_n(N);
  const int64_t n16 = N - (N % 16);
  parallel_for(0, M, grain_for(M, 2 * K * N, kGemmTargetOps), [&](int64_t m0, int64_t m1) {
    for (int64_t i = m0; i < m1; ++i) {
      const int8_t* a = A + i * K;
      for (int64_t j0 = 0; j0 < n16; j0 += 16) {
        __m256i acc0 = _mm256_setzero_si256();
        __m256i acc1 = _mm256_setzero_si256();
        for (int64_t pb = 0; pb < pairs; pb += 8) {
          const __m128i a8 =
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + 2 * pb));
          uint32_t pm = nonzero_pair_mask8(a8);
          const int64_t rem = pairs - pb;
          if (rem < 8) pm &= (uint32_t{1} << (2 * rem)) - 1;
          if (rem >= 8 && __builtin_popcount(pm) >= kDensePairThreshold) {
            const PairBroadcast8 bc(a8);
            const int16_t* b = Bp + (pb * np + j0) * 2;
            for (int j = 0; j < 8; ++j, b += 2 * np) {
              acc0 = _mm256_add_epi32(
                  acc0, _mm256_madd_epi16(bc.va[j],
                                          _mm256_loadu_si256(
                                              reinterpret_cast<const __m256i*>(b))));
              acc1 = _mm256_add_epi32(
                  acc1, _mm256_madd_epi16(bc.va[j],
                                          _mm256_loadu_si256(
                                              reinterpret_cast<const __m256i*>(b + 16))));
            }
            continue;
          }
          while (pm) {
            const int64_t p = pb + (__builtin_ctz(pm) >> 1);
            pm &= pm - 1;
            const int32_t a0 = a[2 * p];
            const int32_t a1 = a[2 * p + 1];  // odd-K slack multiplies zero B
            const __m256i va = _mm256_set1_epi32((a1 << 16) | (a0 & 0xFFFF));
            const int16_t* b = Bp + (p * np + j0) * 2;
            acc0 = _mm256_add_epi32(
                acc0, _mm256_madd_epi16(va, _mm256_loadu_si256(
                                                reinterpret_cast<const __m256i*>(b))));
            acc1 = _mm256_add_epi32(
                acc1, _mm256_madd_epi16(va, _mm256_loadu_si256(
                                                reinterpret_cast<const __m256i*>(b + 16))));
          }
        }
        st.store16(i, j0, acc0, acc1);
      }
      for (int64_t j0 = n16; j0 < np; j0 += 8) {
        __m256i acc = _mm256_setzero_si256();
        for (int64_t pb = 0; pb < pairs; pb += 8) {
          const __m128i a8 =
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + 2 * pb));
          uint32_t pm = nonzero_pair_mask8(a8);
          const int64_t rem = pairs - pb;
          if (rem < 8) pm &= (uint32_t{1} << (2 * rem)) - 1;
          if (rem >= 8 && __builtin_popcount(pm) >= kDensePairThreshold) {
            const PairBroadcast8 bc(a8);
            const int16_t* b = Bp + (pb * np + j0) * 2;
            for (int j = 0; j < 8; ++j, b += 2 * np) {
              acc = _mm256_add_epi32(
                  acc, _mm256_madd_epi16(bc.va[j],
                                         _mm256_loadu_si256(
                                             reinterpret_cast<const __m256i*>(b))));
            }
            continue;
          }
          while (pm) {
            const int64_t p = pb + (__builtin_ctz(pm) >> 1);
            pm &= pm - 1;
            const int32_t a0 = a[2 * p];
            const int32_t a1 = a[2 * p + 1];
            const __m256i va = _mm256_set1_epi32((a1 << 16) | (a0 & 0xFFFF));
            const int16_t* b = Bp + (p * np + j0) * 2;
            acc = _mm256_add_epi32(
                acc, _mm256_madd_epi16(va, _mm256_loadu_si256(
                                               reinterpret_cast<const __m256i*>(b))));
          }
        }
        st.store8(i, j0, acc);
      }
    }
  });
}

// int16-activation variant of the packed-B GEMM. Identical structure; the
// 8-pair block is one 32-byte load whose 32-bit lanes already hold the
// (a0, a1) int16 pairs, so no widening shuffle is needed and the nonzero-pair
// mask is a single epi32 compare. Pair products are bounded by
// 2 * 2^15 * 2^7 < 2^23, and the plan's int32 output width certifies the
// |x| * sum|w| bound that dominates every partial sum.
template <class Store>
void gemm_s16p16_body(const int16_t* A, const int16_t* Bp, int64_t M, int64_t N,
                      int64_t K, const Store& st) {
  const int64_t pairs = (K + 1) / 2;
  const int64_t np = packed_n(N);
  const int64_t n16 = N - (N % 16);
  parallel_for(0, M, grain_for(M, 2 * K * N, kGemmTargetOps), [&](int64_t m0, int64_t m1) {
    for (int64_t i = m0; i < m1; ++i) {
      const int16_t* a = A + i * K;
      for (int64_t j0 = 0; j0 < n16; j0 += 16) {
        __m256i acc0 = _mm256_setzero_si256();
        __m256i acc1 = _mm256_setzero_si256();
        for (int64_t pb = 0; pb < pairs; pb += 8) {
          const __m256i av =
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + 2 * pb));
          uint32_t pm = 0xFFu ^ static_cast<uint32_t>(_mm256_movemask_ps(
              _mm256_castsi256_ps(_mm256_cmpeq_epi32(av, _mm256_setzero_si256()))));
          const int64_t rem = pairs - pb;
          if (rem < 8) pm &= (uint32_t{1} << rem) - 1;
          if (rem >= 8 && __builtin_popcount(pm) >= kDensePairThreshold) {
            const __m256i lo = _mm256_permute2x128_si256(av, av, 0x00);
            const __m256i hi = _mm256_permute2x128_si256(av, av, 0x11);
            const __m256i va[8] = {
                _mm256_shuffle_epi32(lo, 0x00), _mm256_shuffle_epi32(lo, 0x55),
                _mm256_shuffle_epi32(lo, 0xAA), _mm256_shuffle_epi32(lo, 0xFF),
                _mm256_shuffle_epi32(hi, 0x00), _mm256_shuffle_epi32(hi, 0x55),
                _mm256_shuffle_epi32(hi, 0xAA), _mm256_shuffle_epi32(hi, 0xFF)};
            const int16_t* b = Bp + (pb * np + j0) * 2;
            for (int j = 0; j < 8; ++j, b += 2 * np) {
              acc0 = _mm256_add_epi32(
                  acc0, _mm256_madd_epi16(va[j],
                                          _mm256_loadu_si256(
                                              reinterpret_cast<const __m256i*>(b))));
              acc1 = _mm256_add_epi32(
                  acc1, _mm256_madd_epi16(va[j],
                                          _mm256_loadu_si256(
                                              reinterpret_cast<const __m256i*>(b + 16))));
            }
            continue;
          }
          while (pm) {
            const int64_t p = pb + __builtin_ctz(pm);
            pm &= pm - 1;
            const int32_t a0 = a[2 * p];
            const int32_t a1 = a[2 * p + 1];  // odd-K slack multiplies zero B
            const __m256i va = _mm256_set1_epi32((a1 << 16) | (a0 & 0xFFFF));
            const int16_t* b = Bp + (p * np + j0) * 2;
            acc0 = _mm256_add_epi32(
                acc0, _mm256_madd_epi16(va, _mm256_loadu_si256(
                                                reinterpret_cast<const __m256i*>(b))));
            acc1 = _mm256_add_epi32(
                acc1, _mm256_madd_epi16(va, _mm256_loadu_si256(
                                                reinterpret_cast<const __m256i*>(b + 16))));
          }
        }
        st.store16(i, j0, acc0, acc1);
      }
      for (int64_t j0 = n16; j0 < np; j0 += 8) {
        __m256i acc = _mm256_setzero_si256();
        for (int64_t pb = 0; pb < pairs; pb += 8) {
          const __m256i av =
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + 2 * pb));
          uint32_t pm = 0xFFu ^ static_cast<uint32_t>(_mm256_movemask_ps(
              _mm256_castsi256_ps(_mm256_cmpeq_epi32(av, _mm256_setzero_si256()))));
          const int64_t rem = pairs - pb;
          if (rem < 8) pm &= (uint32_t{1} << rem) - 1;
          if (rem >= 8 && __builtin_popcount(pm) >= kDensePairThreshold) {
            const __m256i lo = _mm256_permute2x128_si256(av, av, 0x00);
            const __m256i hi = _mm256_permute2x128_si256(av, av, 0x11);
            const __m256i va[8] = {
                _mm256_shuffle_epi32(lo, 0x00), _mm256_shuffle_epi32(lo, 0x55),
                _mm256_shuffle_epi32(lo, 0xAA), _mm256_shuffle_epi32(lo, 0xFF),
                _mm256_shuffle_epi32(hi, 0x00), _mm256_shuffle_epi32(hi, 0x55),
                _mm256_shuffle_epi32(hi, 0xAA), _mm256_shuffle_epi32(hi, 0xFF)};
            const int16_t* b = Bp + (pb * np + j0) * 2;
            for (int j = 0; j < 8; ++j, b += 2 * np) {
              acc = _mm256_add_epi32(
                  acc, _mm256_madd_epi16(va[j],
                                         _mm256_loadu_si256(
                                             reinterpret_cast<const __m256i*>(b))));
            }
            continue;
          }
          while (pm) {
            const int64_t p = pb + __builtin_ctz(pm);
            pm &= pm - 1;
            const int32_t a0 = a[2 * p];
            const int32_t a1 = a[2 * p + 1];
            const __m256i va = _mm256_set1_epi32((a1 << 16) | (a0 & 0xFFFF));
            const int16_t* b = Bp + (p * np + j0) * 2;
            acc = _mm256_add_epi32(
                acc, _mm256_madd_epi16(va, _mm256_loadu_si256(
                                               reinterpret_cast<const __m256i*>(b))));
          }
        }
        st.store8(i, j0, acc);
      }
    }
  });
}

// ---- Two-row register tile for the FUSED packed-B GEMM --------------------
// The single-row bodies above are load-bound: every vpmaddwd consumes a fresh
// B vector, so the multiply ports sit half idle waiting on loads. Re-using
// each B vector against a second A row doubles the multiply-accumulate work
// per byte loaded — the win that makes fusion a net speedup on compute-bound
// conv layers, not just on the arena-traffic-bound ones. Only the fused entry
// points take this path; the unfused body stays untouched so the pre-fusion
// engine's measured behavior is preserved exactly as the comparison baseline.
//
// Bit-exactness: each row's accumulator sees the same pair-products as the
// single-row walk, and int32 adds are associative/commutative under the
// plan's no-overflow bound, so any accumulation order yields the same sums.
// The sparsity skip uses the OR of both rows' nonzero-pair masks: a pair
// zero in one row contributes a zero product there, never a wrong one.

/// One 8-pair A block as 8 int16 (a0, a1) pairs in 32-bit lanes.
inline __m256i pair_block16(const int8_t* a) {
  return _mm256_cvtepi8_epi16(_mm_loadu_si128(reinterpret_cast<const __m128i*>(a)));
}
inline __m256i pair_block16(const int16_t* a) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a));
}

/// Bit p set when pair p of the block has any nonzero half.
inline uint32_t pair_mask8(const __m256i a16) {
  return 0xFFu ^ static_cast<uint32_t>(_mm256_movemask_ps(
      _mm256_castsi256_ps(_mm256_cmpeq_epi32(a16, _mm256_setzero_si256()))));
}

/// The eight pair-broadcasts of an already-widened 8-pair block register
/// (PairBroadcast8's shuffle tail without the int8 load/widen head).
struct PairShuffle8 {
  __m256i va[8];
  explicit PairShuffle8(const __m256i a16) {
    const __m256i lo = _mm256_permute2x128_si256(a16, a16, 0x00);
    const __m256i hi = _mm256_permute2x128_si256(a16, a16, 0x11);
    va[0] = _mm256_shuffle_epi32(lo, 0x00);
    va[1] = _mm256_shuffle_epi32(lo, 0x55);
    va[2] = _mm256_shuffle_epi32(lo, 0xAA);
    va[3] = _mm256_shuffle_epi32(lo, 0xFF);
    va[4] = _mm256_shuffle_epi32(hi, 0x00);
    va[5] = _mm256_shuffle_epi32(hi, 0x55);
    va[6] = _mm256_shuffle_epi32(hi, 0xAA);
    va[7] = _mm256_shuffle_epi32(hi, 0xFF);
  }
};

/// Store adapter shifting row indices: the 2-row body delegates an odd final
/// row to the single-row body over a shifted A operand.
template <class Store>
struct RowShift {
  const Store& inner;
  int64_t row0;
  [[gnu::always_inline]] void store16(int64_t i, int64_t j0, __m256i acc0,
                                      __m256i acc1) const {
    inner.store16(i + row0, j0, acc0, acc1);
  }
  [[gnu::always_inline]] void store8(int64_t i, int64_t j0, __m256i acc) const {
    inner.store8(i + row0, j0, acc);
  }
};

/// 2 rows x 16 columns (M must be even; entry points peel the tail row).
template <typename AT, class Store>
void gemm_pair16_epi2_body(const AT* A, const int16_t* Bp, int64_t M, int64_t N,
                           int64_t K, const Store& st) {
  const int64_t pairs = (K + 1) / 2;
  const int64_t np = packed_n(N);
  const int64_t n16 = N - (N % 16);
  const int64_t nt = M / 2;
  parallel_for(0, nt, grain_for(nt, 4 * K * N, kGemmTargetOps), [&](int64_t t0, int64_t t1) {
    for (int64_t t = t0; t < t1; ++t) {
      const int64_t i = 2 * t;
      const AT* a0r = A + i * K;
      const AT* a1r = a0r + K;
      for (int64_t j0 = 0; j0 < n16; j0 += 16) {
        __m256i acc00 = _mm256_setzero_si256();
        __m256i acc01 = _mm256_setzero_si256();
        __m256i acc10 = _mm256_setzero_si256();
        __m256i acc11 = _mm256_setzero_si256();
        for (int64_t pb = 0; pb < pairs; pb += 8) {
          const __m256i blk0 = pair_block16(a0r + 2 * pb);
          const __m256i blk1 = pair_block16(a1r + 2 * pb);
          uint32_t pm = pair_mask8(blk0) | pair_mask8(blk1);
          const int64_t rem = pairs - pb;
          if (rem < 8) pm &= (uint32_t{1} << rem) - 1;
          if (rem >= 8 && __builtin_popcount(pm) >= kDensePairThreshold) {
            const PairShuffle8 bc0(blk0);
            const PairShuffle8 bc1(blk1);
            const int16_t* b = Bp + (pb * np + j0) * 2;
            for (int j = 0; j < 8; ++j, b += 2 * np) {
              const __m256i b0 =
                  _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b));
              const __m256i b1 =
                  _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + 16));
              acc00 = _mm256_add_epi32(acc00, _mm256_madd_epi16(bc0.va[j], b0));
              acc01 = _mm256_add_epi32(acc01, _mm256_madd_epi16(bc0.va[j], b1));
              acc10 = _mm256_add_epi32(acc10, _mm256_madd_epi16(bc1.va[j], b0));
              acc11 = _mm256_add_epi32(acc11, _mm256_madd_epi16(bc1.va[j], b1));
            }
            continue;
          }
          while (pm) {
            const int64_t p = pb + __builtin_ctz(pm);
            pm &= pm - 1;
            const int16_t* bp = Bp + (p * np + j0) * 2;
            const __m256i b0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp));
            const __m256i b1 =
                _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp + 16));
            const int32_t r0a0 = a0r[2 * p];
            const int32_t r0a1 = a0r[2 * p + 1];  // odd-K slack multiplies zero B
            const int32_t r1a0 = a1r[2 * p];
            const int32_t r1a1 = a1r[2 * p + 1];
            const __m256i v0 = _mm256_set1_epi32((r0a1 << 16) | (r0a0 & 0xFFFF));
            const __m256i v1 = _mm256_set1_epi32((r1a1 << 16) | (r1a0 & 0xFFFF));
            acc00 = _mm256_add_epi32(acc00, _mm256_madd_epi16(v0, b0));
            acc01 = _mm256_add_epi32(acc01, _mm256_madd_epi16(v0, b1));
            acc10 = _mm256_add_epi32(acc10, _mm256_madd_epi16(v1, b0));
            acc11 = _mm256_add_epi32(acc11, _mm256_madd_epi16(v1, b1));
          }
        }
        st.store16(i, j0, acc00, acc01);
        st.store16(i + 1, j0, acc10, acc11);
      }
      for (int64_t j0 = n16; j0 < np; j0 += 8) {
        __m256i acc0 = _mm256_setzero_si256();
        __m256i acc1 = _mm256_setzero_si256();
        for (int64_t pb = 0; pb < pairs; pb += 8) {
          const __m256i blk0 = pair_block16(a0r + 2 * pb);
          const __m256i blk1 = pair_block16(a1r + 2 * pb);
          uint32_t pm = pair_mask8(blk0) | pair_mask8(blk1);
          const int64_t rem = pairs - pb;
          if (rem < 8) pm &= (uint32_t{1} << rem) - 1;
          if (rem >= 8 && __builtin_popcount(pm) >= kDensePairThreshold) {
            const PairShuffle8 bc0(blk0);
            const PairShuffle8 bc1(blk1);
            const int16_t* b = Bp + (pb * np + j0) * 2;
            for (int j = 0; j < 8; ++j, b += 2 * np) {
              const __m256i b0 =
                  _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b));
              acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(bc0.va[j], b0));
              acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(bc1.va[j], b0));
            }
            continue;
          }
          while (pm) {
            const int64_t p = pb + __builtin_ctz(pm);
            pm &= pm - 1;
            const int16_t* bp = Bp + (p * np + j0) * 2;
            const __m256i b0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp));
            const int32_t r0a0 = a0r[2 * p];
            const int32_t r0a1 = a0r[2 * p + 1];
            const int32_t r1a0 = a1r[2 * p];
            const int32_t r1a1 = a1r[2 * p + 1];
            acc0 = _mm256_add_epi32(
                acc0, _mm256_madd_epi16(
                          _mm256_set1_epi32((r0a1 << 16) | (r0a0 & 0xFFFF)), b0));
            acc1 = _mm256_add_epi32(
                acc1, _mm256_madd_epi16(
                          _mm256_set1_epi32((r1a1 << 16) | (r1a0 & 0xFFFF)), b0));
          }
        }
        st.store8(i, j0, acc0);
        st.store8(i + 1, j0, acc1);
      }
    }
  });
}

// ---- Nibble-packed (int4) B GEMM -------------------------------------------
// The pair16 walk with the 32-byte packed-B vector load replaced by an 8-byte
// nibble load and an in-register sign-extend: widen the packed bytes to
// int16, take the high nibbles with one arithmetic >> 4 (the low nibble is a
// non-negative sub-value, so the shift is an exact floor division) and the
// low nibbles with << 12 then >> 12, then interleave low/high back into the
// (even, odd) int16 pair order vpmaddwd expects — the exact vector a pair16
// load of the same weights would produce, so accumulation (and therefore the
// result) is bit-identical to every other algo. Six unpack ops buy a 4x
// smaller B working set than the int16 pair copy.
inline __m256i nib_load8(const uint8_t* b) {
  const __m128i s =
      _mm_cvtepi8_epi16(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(b)));
  const __m128i hi = _mm_srai_epi16(s, 4);
  const __m128i lo = _mm_srai_epi16(_mm_slli_epi16(s, 12), 12);
  return _mm256_set_m128i(_mm_unpackhi_epi16(lo, hi), _mm_unpacklo_epi16(lo, hi));
}

/// 2 rows x 16 columns, nibble B (M must be even; entry points peel the tail
/// row through the single-row body below).
template <typename AT, class Store>
void gemm_nib4_epi2_body(const AT* A, const uint8_t* Bn, int64_t M, int64_t N,
                         int64_t K, const Store& st) {
  const int64_t pairs = (K + 1) / 2;
  const int64_t np = packed_n(N);
  const int64_t n16 = N - (N % 16);
  const int64_t nt = M / 2;
  parallel_for(0, nt, grain_for(nt, 4 * K * N, kGemmTargetOps), [&](int64_t t0, int64_t t1) {
    for (int64_t t = t0; t < t1; ++t) {
      const int64_t i = 2 * t;
      const AT* a0r = A + i * K;
      const AT* a1r = a0r + K;
      for (int64_t j0 = 0; j0 < n16; j0 += 16) {
        __m256i acc00 = _mm256_setzero_si256();
        __m256i acc01 = _mm256_setzero_si256();
        __m256i acc10 = _mm256_setzero_si256();
        __m256i acc11 = _mm256_setzero_si256();
        for (int64_t pb = 0; pb < pairs; pb += 8) {
          const __m256i blk0 = pair_block16(a0r + 2 * pb);
          const __m256i blk1 = pair_block16(a1r + 2 * pb);
          uint32_t pm = pair_mask8(blk0) | pair_mask8(blk1);
          const int64_t rem = pairs - pb;
          if (rem < 8) pm &= (uint32_t{1} << rem) - 1;
          if (rem >= 8 && __builtin_popcount(pm) >= kDensePairThreshold) {
            const PairShuffle8 bc0(blk0);
            const PairShuffle8 bc1(blk1);
            const uint8_t* b = Bn + pb * np + j0;
            for (int j = 0; j < 8; ++j, b += np) {
              const __m256i b0 = nib_load8(b);
              const __m256i b1 = nib_load8(b + 8);
              acc00 = _mm256_add_epi32(acc00, _mm256_madd_epi16(bc0.va[j], b0));
              acc01 = _mm256_add_epi32(acc01, _mm256_madd_epi16(bc0.va[j], b1));
              acc10 = _mm256_add_epi32(acc10, _mm256_madd_epi16(bc1.va[j], b0));
              acc11 = _mm256_add_epi32(acc11, _mm256_madd_epi16(bc1.va[j], b1));
            }
            continue;
          }
          while (pm) {
            const int64_t p = pb + __builtin_ctz(pm);
            pm &= pm - 1;
            const uint8_t* bp = Bn + p * np + j0;
            const __m256i b0 = nib_load8(bp);
            const __m256i b1 = nib_load8(bp + 8);
            const int32_t r0a0 = a0r[2 * p];
            const int32_t r0a1 = a0r[2 * p + 1];  // odd-K slack multiplies zero nibble
            const int32_t r1a0 = a1r[2 * p];
            const int32_t r1a1 = a1r[2 * p + 1];
            const __m256i v0 = _mm256_set1_epi32((r0a1 << 16) | (r0a0 & 0xFFFF));
            const __m256i v1 = _mm256_set1_epi32((r1a1 << 16) | (r1a0 & 0xFFFF));
            acc00 = _mm256_add_epi32(acc00, _mm256_madd_epi16(v0, b0));
            acc01 = _mm256_add_epi32(acc01, _mm256_madd_epi16(v0, b1));
            acc10 = _mm256_add_epi32(acc10, _mm256_madd_epi16(v1, b0));
            acc11 = _mm256_add_epi32(acc11, _mm256_madd_epi16(v1, b1));
          }
        }
        st.store16(i, j0, acc00, acc01);
        st.store16(i + 1, j0, acc10, acc11);
      }
      for (int64_t j0 = n16; j0 < np; j0 += 8) {
        __m256i acc0 = _mm256_setzero_si256();
        __m256i acc1 = _mm256_setzero_si256();
        for (int64_t pb = 0; pb < pairs; pb += 8) {
          const __m256i blk0 = pair_block16(a0r + 2 * pb);
          const __m256i blk1 = pair_block16(a1r + 2 * pb);
          uint32_t pm = pair_mask8(blk0) | pair_mask8(blk1);
          const int64_t rem = pairs - pb;
          if (rem < 8) pm &= (uint32_t{1} << rem) - 1;
          if (rem >= 8 && __builtin_popcount(pm) >= kDensePairThreshold) {
            const PairShuffle8 bc0(blk0);
            const PairShuffle8 bc1(blk1);
            const uint8_t* b = Bn + pb * np + j0;
            for (int j = 0; j < 8; ++j, b += np) {
              const __m256i b0 = nib_load8(b);
              acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(bc0.va[j], b0));
              acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(bc1.va[j], b0));
            }
            continue;
          }
          while (pm) {
            const int64_t p = pb + __builtin_ctz(pm);
            pm &= pm - 1;
            const __m256i b0 = nib_load8(Bn + p * np + j0);
            const int32_t r0a0 = a0r[2 * p];
            const int32_t r0a1 = a0r[2 * p + 1];
            const int32_t r1a0 = a1r[2 * p];
            const int32_t r1a1 = a1r[2 * p + 1];
            acc0 = _mm256_add_epi32(
                acc0, _mm256_madd_epi16(
                          _mm256_set1_epi32((r0a1 << 16) | (r0a0 & 0xFFFF)), b0));
            acc1 = _mm256_add_epi32(
                acc1, _mm256_madd_epi16(
                          _mm256_set1_epi32((r1a1 << 16) | (r1a0 & 0xFFFF)), b0));
          }
        }
        st.store8(i, j0, acc0);
        st.store8(i + 1, j0, acc1);
      }
    }
  });
}

/// Single-row nibble-B body (the odd tail row of the 2-row walk).
template <typename AT, class Store>
void gemm_nib4_epi1_body(const AT* A, const uint8_t* Bn, int64_t M, int64_t N,
                         int64_t K, const Store& st) {
  const int64_t pairs = (K + 1) / 2;
  const int64_t np = packed_n(N);
  parallel_for(0, M, grain_for(M, 2 * K * N, kGemmTargetOps), [&](int64_t m0, int64_t m1) {
    for (int64_t i = m0; i < m1; ++i) {
      const AT* a = A + i * K;
      for (int64_t j0 = 0; j0 < np; j0 += 8) {
        __m256i acc = _mm256_setzero_si256();
        for (int64_t pb = 0; pb < pairs; pb += 8) {
          const __m256i blk = pair_block16(a + 2 * pb);
          uint32_t pm = pair_mask8(blk);
          const int64_t rem = pairs - pb;
          if (rem < 8) pm &= (uint32_t{1} << rem) - 1;
          if (rem >= 8 && __builtin_popcount(pm) >= kDensePairThreshold) {
            const PairShuffle8 bc(blk);
            const uint8_t* b = Bn + pb * np + j0;
            for (int j = 0; j < 8; ++j, b += np) {
              acc = _mm256_add_epi32(acc, _mm256_madd_epi16(bc.va[j], nib_load8(b)));
            }
            continue;
          }
          while (pm) {
            const int64_t p = pb + __builtin_ctz(pm);
            pm &= pm - 1;
            const int32_t a0 = a[2 * p];
            const int32_t a1 = a[2 * p + 1];  // odd-K slack multiplies zero nibble
            acc = _mm256_add_epi32(
                acc, _mm256_madd_epi16(_mm256_set1_epi32((a1 << 16) | (a0 & 0xFFFF)),
                                       nib_load8(Bn + p * np + j0)));
          }
        }
        st.store8(i, j0, acc);
      }
    }
  });
}

/// Call f(store) with the fused retire policy for `e`: vector epilogue
/// (per-tensor or per-channel instantiation) under vec32, else the scalar
/// per-lane walk.
template <class F>
void with_epi_store(const Epilogue& e, int64_t N, F&& f) {
  if (!e.vec32) {
    f(EpiStore<EpiVec>{&e, nullptr, N});
    return;
  }
  with_epi_vec(e, [&](const auto& ev) {
    f(EpiStore<std::decay_t<decltype(ev)>>{&e, &ev, N});
  });
}

// Non-template entry points matching the KernelSet signatures.
void gemm_s8p16_avx2(const int8_t* A, const int16_t* Bp, int32_t* C, int64_t M,
                     int64_t N, int64_t K) {
  gemm_s8p16_body(A, Bp, M, N, K, RawStore(C, N));
}

void gemm_s16p16_avx2(const int16_t* A, const int16_t* Bp, int32_t* C, int64_t M,
                      int64_t N, int64_t K) {
  gemm_s16p16_body(A, Bp, M, N, K, RawStore(C, N));
}

void gemm_s8p16_epi_avx2(const int8_t* A, const int16_t* Bp, int64_t M, int64_t N,
                         int64_t K, const Epilogue& e) {
  with_epi_store(e, N, [&](const auto& st) {
    const int64_t m2 = M - (M % 2);
    if (m2 > 0) gemm_pair16_epi2_body(A, Bp, m2, N, K, st);
    if (m2 < M) {
      gemm_s8p16_body(A + m2 * K, Bp, M - m2, N, K,
                      RowShift<std::decay_t<decltype(st)>>{st, m2});
    }
  });
}

void gemm_s16p16_epi_avx2(const int16_t* A, const int16_t* Bp, int64_t M, int64_t N,
                          int64_t K, const Epilogue& e) {
  with_epi_store(e, N, [&](const auto& st) {
    const int64_t m2 = M - (M % 2);
    if (m2 > 0) gemm_pair16_epi2_body(A, Bp, m2, N, K, st);
    if (m2 < M) {
      gemm_s16p16_body(A + m2 * K, Bp, M - m2, N, K,
                       RowShift<std::decay_t<decltype(st)>>{st, m2});
    }
  });
}

void gemm_s8n4_epi_avx2(const int8_t* A, const uint8_t* Bn, int64_t M, int64_t N,
                        int64_t K, const Epilogue& e) {
  with_epi_store(e, N, [&](const auto& st) {
    const int64_t m2 = M - (M % 2);
    if (m2 > 0) gemm_nib4_epi2_body(A, Bn, m2, N, K, st);
    if (m2 < M) {
      gemm_nib4_epi1_body(A + m2 * K, Bn, M - m2, N, K,
                          RowShift<std::decay_t<decltype(st)>>{st, m2});
    }
  });
}

void gemm_s16n4_epi_avx2(const int16_t* A, const uint8_t* Bn, int64_t M, int64_t N,
                         int64_t K, const Epilogue& e) {
  with_epi_store(e, N, [&](const auto& st) {
    const int64_t m2 = M - (M % 2);
    if (m2 > 0) gemm_nib4_epi2_body(A, Bn, m2, N, K, st);
    if (m2 < M) {
      gemm_nib4_epi1_body(A + m2 * K, Bn, M - m2, N, K,
                          RowShift<std::decay_t<decltype(st)>>{st, m2});
    }
  });
}

// Fused depthwise: channels in chunks of up to 32 (four int32 vectors), taps
// accumulated in registers, retired through the prepared vector epilogue
// without the int32 tile ever reaching memory. Four independent accumulators
// amortize the per-tap bounds checks and hide the vpmulld latency chain. The
// 8-byte channel loads stay inside the row (whole-vector blocks only); the
// sub-vector channel tail and the rare non-vec32 epilogue fall back to the
// scalar walk.
/// Sign-extend 8 activation lanes to int32 (int8 and int16 sources).
inline __m256i dw_load8(const int8_t* p) {
  return _mm256_cvtepi8_epi32(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
}
inline __m256i dw_load8(const int16_t* p) {
  return _mm256_cvtepi16_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}
inline void dw_scalar_fallback(const int8_t* x, const int8_t* w, const DepthwiseArgs& a,
                               const Epilogue& e) {
  scalar_kernels().depthwise_s8_epi(x, w, a, e);
}
inline void dw_scalar_fallback(const int16_t* x, const int8_t* w, const DepthwiseArgs& a,
                               const Epilogue& e) {
  scalar_kernels().depthwise_s16_epi(x, w, a, e);
}

template <typename XT, class EV>
void depthwise_epi_avx2_vec(const XT* x, const int8_t* w, const DepthwiseArgs& a,
                            const Epilogue& e, const EV& ev) {
  const Conv2dGeom& g = a.geom;
  const int64_t rows = a.batch * a.oh;
  const int64_t c8 = a.c - (a.c % 8);
  parallel_for(0, rows, grain_for(rows, a.ow * g.kh * g.kw * a.c * 2, kGemmTargetOps),
               [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const int64_t b = r / a.oh;
      const int64_t oy = r % a.oh;
      for (int64_t ox = 0; ox < a.ow; ++ox) {
        const int64_t out_base = (r * a.ow + ox) * a.c;
        const int64_t iy0 = oy * g.stride_h - g.pad_top;
        const int64_t ix0 = ox * g.stride_w - g.pad_left;
        for (int64_t c0 = 0; c0 < c8; c0 += 32) {
          const int64_t nv = std::min<int64_t>(4, (c8 - c0) / 8);
          __m256i acc[4] = {_mm256_setzero_si256(), _mm256_setzero_si256(),
                            _mm256_setzero_si256(), _mm256_setzero_si256()};
          for (int64_t ky = 0; ky < g.kh; ++ky) {
            const int64_t iy = iy0 + ky;
            if (iy < 0 || iy >= a.h) continue;
            for (int64_t kx = 0; kx < g.kw; ++kx) {
              const int64_t ix = ix0 + kx;
              if (ix < 0 || ix >= a.w) continue;
              const XT* xi = x + ((b * a.h + iy) * a.w + ix) * a.c + c0;
              const int8_t* wk = w + (ky * g.kw + kx) * a.c + c0;
              for (int64_t v = 0; v < nv; ++v) {
                const __m256i xv = dw_load8(xi + 8 * v);
                const __m256i wv = dw_load8(wk + 8 * v);
                acc[v] = _mm256_add_epi32(acc[v], _mm256_mullo_epi32(xv, wv));
              }
            }
          }
          for (int64_t v = 0; v < nv; ++v) {
            epi_store_vec(e, out_base + c0 + 8 * v, ev.apply(acc[v], c0 + 8 * v));
          }
        }
        for (int64_t ch = c8; ch < a.c; ++ch) {
          int32_t acc = 0;
          for (int64_t ky = 0; ky < g.kh; ++ky) {
            const int64_t iy = iy0 + ky;
            if (iy < 0 || iy >= a.h) continue;
            for (int64_t kx = 0; kx < g.kw; ++kx) {
              const int64_t ix = ix0 + kx;
              if (ix < 0 || ix >= a.w) continue;
              acc += static_cast<int32_t>(
                         x[((b * a.h + iy) * a.w + ix) * a.c + ch]) *
                     w[(ky * g.kw + kx) * a.c + ch];
            }
          }
          epi_store(e, out_base + ch, epi_apply(e, acc, ch));
        }
      }
    }
  });
}

template <typename XT>
void depthwise_epi_avx2(const XT* x, const int8_t* w, const DepthwiseArgs& a,
                        const Epilogue& e) {
  if (!e.vec32) {
    dw_scalar_fallback(x, w, a, e);
    return;
  }
  with_epi_vec(e, [&](const auto& ev) { depthwise_epi_avx2_vec(x, w, a, e, ev); });
}

void depthwise_s8_epi_avx2(const int8_t* x, const int8_t* w, const DepthwiseArgs& a,
                           const Epilogue& e) {
  depthwise_epi_avx2(x, w, a, e);
}

void depthwise_s16_epi_avx2(const int16_t* x, const int8_t* w, const DepthwiseArgs& a,
                            const Epilogue& e) {
  depthwise_epi_avx2(x, w, a, e);
}

// ---- Channel-blocked (NC8HW8) direct kernels -------------------------------
// The blocked conv reads one pixel's 8-channel group as a single 8-byte load
// and retires 8 output channels per 256-bit accumulator, no im2col. Tiling is
// 4 output pixels wide: each 32-byte weight vector (one input-channel pair x
// 8 output channels, pack_conv_wblk16 layout) is loaded once and vpmaddwd'd
// against all 4 pixels' broadcast activation pairs — 4 multiply-adds per
// weight load, vs. 2 for the packed GEMM. Padding pixels contribute zero
// activation vectors (never a wrong product); output lanes past a.cout store
// epilogue(0), which the following layout_unpack (or the next blocked
// kernel's zero weight lanes) discards. Bit-exact vs. the scalar blocked
// kernel: identical pair products, int32 adds reassociated under the plan's
// no-overflow bound.

/// One pixel's 8 channels widened to 8 int16 lanes (4 pairs), broadcast to
/// both 128-bit halves so _mm256_shuffle_epi32 can splat any pair to all 8
/// int32 lanes.
inline __m256i blk_pixel16(const int8_t* p) {
  return _mm256_broadcastsi128_si256(
      _mm256_castsi256_si128(_mm256_cvtepi8_epi16(_mm_loadl_epi64(
          reinterpret_cast<const __m128i*>(p)))));
}

template <class EV>
void conv_s8blk_epi_avx2_vec(const int8_t* x, const int16_t* wblk, const ConvBlkArgs& a,
                             const Epilogue& e, const EV& ev) {
  const Conv2dGeom& g = a.geom;
  const int64_t CBi = blocked_c(a.cin) / kChanBlock;
  const int64_t PP = blocked_c(a.cin) / 2;
  const int64_t OB = blocked_c(a.cout) / kChanBlock;
  const int64_t T = g.kh * g.kw;
  const int64_t rows = a.batch * a.oh;
  parallel_for(0, rows, grain_for(rows, a.ow * T * a.cin * a.cout * 2, kGemmTargetOps),
               [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const int64_t b = r / a.oh;
      const int64_t oy = r % a.oh;
      // 8-output-pixel tiles with the tap's 4 weight-pair vectors held in
      // registers: each weight load feeds up to 8 vpmaddwd, and a zero input
      // pixel (padding or sparse post-ReLU data) skips its 4 madds outright.
      for (int64_t ox0 = 0; ox0 < a.ow; ox0 += 8) {
        const int64_t nq = std::min<int64_t>(8, a.ow - ox0);
        const int64_t iy0 = oy * g.stride_h - g.pad_top;
        for (int64_t ob = 0; ob < OB; ++ob) {
          __m256i acc[8];
          for (int64_t q = 0; q < 8; ++q) acc[q] = _mm256_setzero_si256();
          for (int64_t ky = 0; ky < g.kh; ++ky) {
            const int64_t iy = iy0 + ky;
            if (iy < 0 || iy >= a.h) continue;
            for (int64_t kx = 0; kx < g.kw; ++kx) {
              const int64_t t = ky * g.kw + kx;
              const int16_t* wt = wblk + ((ob * T + t) * PP) * 2 * kChanBlock;
              for (int64_t cb = 0; cb < CBi; ++cb) {
                // Channel pairs beyond cin in the last input block carry
                // all-zero weights (the packer zero-fills padded lanes), so
                // their madds contribute exactly 0 — skip them. Stems with
                // cin=3 drop from 4 pair-vectors to 2.
                const int64_t np =
                    (cb == CBi - 1) ? (a.cin - cb * kChanBlock + 1) / 2 : 4;
                const int16_t* wp = wt + (cb * 4) * 2 * kChanBlock;
                const __m256i wv0 = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(wp + 0 * 2 * kChanBlock));
                const __m256i wv1 =
                    np > 1 ? _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                                 wp + 1 * 2 * kChanBlock))
                           : _mm256_setzero_si256();
                const __m256i wv2 =
                    np > 2 ? _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                                 wp + 2 * 2 * kChanBlock))
                           : _mm256_setzero_si256();
                const __m256i wv3 =
                    np > 3 ? _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                                 wp + 3 * 2 * kChanBlock))
                           : _mm256_setzero_si256();
                const int8_t* xrow =
                    x + (((b * CBi + cb) * a.h + iy) * a.w) * kChanBlock;
                for (int64_t q = 0; q < nq; ++q) {
                  const int64_t ix = (ox0 + q) * g.stride_w - g.pad_left + kx;
                  if (ix < 0 || ix >= a.w) continue;
                  const __m256i xa = blk_pixel16(xrow + ix * kChanBlock);
                  if (_mm256_testz_si256(xa, xa)) continue;
                  __m256i s = _mm256_madd_epi16(_mm256_shuffle_epi32(xa, 0x00), wv0);
                  if (np > 1)
                    s = _mm256_add_epi32(
                        s, _mm256_madd_epi16(_mm256_shuffle_epi32(xa, 0x55), wv1));
                  if (np > 2)
                    s = _mm256_add_epi32(
                        s, _mm256_madd_epi16(_mm256_shuffle_epi32(xa, 0xAA), wv2));
                  if (np > 3)
                    s = _mm256_add_epi32(
                        s, _mm256_madd_epi16(_mm256_shuffle_epi32(xa, 0xFF), wv3));
                  acc[q] = _mm256_add_epi32(acc[q], s);
                }
              }
            }
          }
          for (int64_t q = 0; q < nq; ++q) {
            const int64_t out_base =
                (((b * OB + ob) * a.oh + oy) * a.ow + (ox0 + q)) * kChanBlock;
            epi_store_vec(e, out_base, ev.apply(acc[q], ob * kChanBlock));
          }
        }
      }
    }
  });
}

void conv_s8blk_epi_avx2(const int8_t* x, const int16_t* wblk, const ConvBlkArgs& a,
                         const Epilogue& e) {
  if (!e.vec32) {
    scalar_kernels().conv_s8blk_epi(x, wblk, a, e);
    return;
  }
  with_epi_vec(e, [&](const auto& ev) { conv_s8blk_epi_avx2_vec(x, wblk, a, e, ev); });
}

template <class EV>
void depthwise_s8blk_epi_avx2_vec(const int8_t* x, const int8_t* wblk,
                                  const DepthwiseArgs& a, const Epilogue& e,
                                  const EV& ev) {
  const Conv2dGeom& g = a.geom;
  const int64_t CB = blocked_c(a.c) / kChanBlock;
  const int64_t T = g.kh * g.kw;
  const int64_t rows = a.batch * a.oh;
  parallel_for(0, rows, grain_for(rows, a.ow * T * a.c * 2, kGemmTargetOps),
               [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const int64_t b = r / a.oh;
      const int64_t oy = r % a.oh;
      for (int64_t ox = 0; ox < a.ow; ++ox) {
        const int64_t iy0 = oy * g.stride_h - g.pad_top;
        const int64_t ix0 = ox * g.stride_w - g.pad_left;
        for (int64_t cb = 0; cb < CB; ++cb) {
          __m256i acc = _mm256_setzero_si256();
          for (int64_t ky = 0; ky < g.kh; ++ky) {
            const int64_t iy = iy0 + ky;
            if (iy < 0 || iy >= a.h) continue;
            for (int64_t kx = 0; kx < g.kw; ++kx) {
              const int64_t ix = ix0 + kx;
              if (ix < 0 || ix >= a.w) continue;
              const __m256i xv = dw_load8(
                  x + (((b * CB + cb) * a.h + iy) * a.w + ix) * kChanBlock);
              const __m256i wv =
                  dw_load8(wblk + (cb * T + ky * g.kw + kx) * kChanBlock);
              acc = _mm256_add_epi32(acc, _mm256_mullo_epi32(xv, wv));
            }
          }
          const int64_t out_base = (((b * CB + cb) * a.oh + oy) * a.ow + ox) * kChanBlock;
          epi_store_vec(e, out_base, ev.apply(acc, cb * kChanBlock));
        }
      }
    }
  });
}

void depthwise_s8blk_epi_avx2(const int8_t* x, const int8_t* wblk,
                              const DepthwiseArgs& a, const Epilogue& e) {
  if (!e.vec32) {
    scalar_kernels().depthwise_s8blk_epi(x, wblk, a, e);
    return;
  }
  with_epi_vec(e, [&](const auto& ev) { depthwise_s8blk_epi_avx2_vec(x, wblk, a, e, ev); });
}

}  // namespace

const KernelSet* avx2_kernels() {
  if (!__builtin_cpu_supports("avx2")) return nullptr;
  // The unfused depthwise and the cold raw-B fused GEMM reuse the scalar
  // bodies: those inner loops are already memory-bound at int8 widths and
  // keeping one definition keeps the registry honest about what the SIMD set
  // actually accelerates. The hot fused paths are the packed-B epilogue
  // GEMMs and the vector-epilogue depthwise.
  static const KernelSet ks{"avx2",
                            gemm_s8_avx2,
                            scalar_kernels().depthwise_s8s8s32,
                            gemm_s8p16_avx2,
                            gemm_s16p16_avx2,
                            scalar_kernels().gemm_s8_epi,
                            gemm_s8p16_epi_avx2,
                            gemm_s16p16_epi_avx2,
                            depthwise_s8_epi_avx2,
                            depthwise_s16_epi_avx2,
                            conv_s8blk_epi_avx2,
                            depthwise_s8blk_epi_avx2,
                            gemm_s8n4_epi_avx2,
                            gemm_s16n4_epi_avx2};
  return &ks;
}

#else  // !__AVX2__

const KernelSet* avx2_kernels() { return nullptr; }

#endif

}  // namespace tqt::fpk
