#include "src/sched/simd.h"

#include <cstdlib>

#if defined(__x86_64__)
#include <immintrin.h>
#elif defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace setlib::sched::simd {

namespace {

// ------------------------------------------------------------------
// Portable scalar table.

void scalar_or_into(std::uint64_t* out, const std::uint64_t* src,
                    std::int64_t words) {
  for (std::int64_t w = 0; w < words; ++w) out[w] |= src[w];
}

bool scalar_window_walk(const std::uint64_t* p, const std::uint64_t* q,
                        std::int64_t words, std::int64_t prune_q,
                        WalkState* state) {
  for (std::int64_t w = 0; w < words; ++w) {
    walk_word(p[w], q[w], *state);
    if (state->max_q >= prune_q) return true;
  }
  return false;
}

constexpr Kernels kScalar{"scalar", scalar_or_into, scalar_window_walk};

#if defined(__x86_64__)
// ------------------------------------------------------------------
// AVX2: 4 words per vector op. Compiled with a per-function target
// attribute so the translation unit stays portable; only dispatched
// when __builtin_cpu_supports("avx2") says the host has it.

__attribute__((target("avx2"))) void avx2_or_into(std::uint64_t* out,
                                                  const std::uint64_t* src,
                                                  std::int64_t words) {
  std::int64_t w = 0;
  for (; w + 4 <= words; w += 4) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(out + w));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + w));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + w),
                        _mm256_or_si256(a, b));
  }
  for (; w < words; ++w) out[w] |= src[w];
}

__attribute__((target("avx2"))) bool avx2_window_walk(
    const std::uint64_t* p, const std::uint64_t* q, std::int64_t words,
    std::int64_t prune_q, WalkState* state) {
  // 4-word chunks: one vector test finds the no-P-boundary fast case,
  // where the walk degenerates to a popcount sum. Both halves of the
  // win matter: the chunk test skips the per-word branch cascade, and
  // target("avx2") lets std::popcount compile to the popcnt
  // instruction. The default (no -mpopcnt) build compiles the scalar
  // kernel's and the analyzer's std::popcount to libgcc
  // __popcountdi2 calls, and most of this kernel's end-to-end
  // advantage over SETLIB_FORCE_SCALAR=1 comes from that, not from
  // the vector test (ROADMAP item 4 records the census measurement).
  // The prune check runs per chunk: max_q is monotone, so the walk
  // aborts at chunk granularity iff the scalar walk aborts at word
  // granularity (see the prune contract in the header).
  std::int64_t w = 0;
  for (; w + 4 <= words; w += 4) {
    const __m256i pv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + w));
    if (_mm256_testz_si256(pv, pv)) {
      state->current += std::popcount(q[w]) + std::popcount(q[w + 1]) +
                        std::popcount(q[w + 2]) + std::popcount(q[w + 3]);
      if (state->current > state->max_q) state->max_q = state->current;
    } else {
      walk_word(p[w], q[w], *state);
      walk_word(p[w + 1], q[w + 1], *state);
      walk_word(p[w + 2], q[w + 2], *state);
      walk_word(p[w + 3], q[w + 3], *state);
    }
    if (state->max_q >= prune_q) return true;
  }
  for (; w < words; ++w) {
    walk_word(p[w], q[w], *state);
    if (state->max_q >= prune_q) return true;
  }
  return false;
}

constexpr Kernels kAvx2{"avx2", avx2_or_into, avx2_window_walk};
#endif  // __x86_64__

#if defined(__aarch64__)
// ------------------------------------------------------------------
// NEON: 2 words per vector op; baseline on every aarch64.

void neon_or_into(std::uint64_t* out, const std::uint64_t* src,
                  std::int64_t words) {
  std::int64_t w = 0;
  for (; w + 2 <= words; w += 2) {
    vst1q_u64(out + w, vorrq_u64(vld1q_u64(out + w), vld1q_u64(src + w)));
  }
  for (; w < words; ++w) out[w] |= src[w];
}

bool neon_window_walk(const std::uint64_t* p, const std::uint64_t* q,
                      std::int64_t words, std::int64_t prune_q,
                      WalkState* state) {
  std::int64_t w = 0;
  for (; w + 2 <= words; w += 2) {
    const uint64x2_t pv = vld1q_u64(p + w);
    if (vmaxvq_u32(vreinterpretq_u32_u64(pv)) == 0) {
      state->current += std::popcount(q[w]) + std::popcount(q[w + 1]);
      if (state->current > state->max_q) state->max_q = state->current;
    } else {
      walk_word(p[w], q[w], *state);
      walk_word(p[w + 1], q[w + 1], *state);
    }
    if (state->max_q >= prune_q) return true;
  }
  for (; w < words; ++w) {
    walk_word(p[w], q[w], *state);
    if (state->max_q >= prune_q) return true;
  }
  return false;
}

constexpr Kernels kNeon{"neon", neon_or_into, neon_window_walk};
#endif  // __aarch64__

const Kernels& dispatch() noexcept {
  // The env check happens once (function-local static below): the
  // kernel choice is process-wide and integer-exact, so it is not a
  // determinism input — forced-scalar runs exist to prove exactly
  // that, bit for bit.
  if (std::getenv("SETLIB_FORCE_SCALAR") != nullptr) return kScalar;
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx2")) return kAvx2;
#elif defined(__aarch64__)
  return kNeon;
#endif
  return kScalar;
}

const Kernels* g_override = nullptr;

}  // namespace

const Kernels& scalar_kernels() noexcept { return kScalar; }

const Kernels& active_kernels() noexcept {
  if (g_override != nullptr) return *g_override;
  static const Kernels& chosen = dispatch();
  return chosen;
}

void set_kernels_for_testing(const Kernels* k) noexcept { g_override = k; }

}  // namespace setlib::sched::simd
