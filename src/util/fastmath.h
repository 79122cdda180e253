#pragma once
// Deterministic transcendentals for the batched integration path.
//
// The batch kernels (src/vgpu/integr_kernel.cpp) are pinned bitwise to the
// scalar reference, so the integrand math must produce identical bits whether
// it runs one abscissa at a time in scalar code or lane-parallel inside an
// AVX2+FMA loop. libm's exp/log cannot give that guarantee: the
// scalar call and any vectorized variant are different code with different
// rounding histories. These implementations can, because every operation is
// an elementwise IEEE op (+, -, *, /, compare/select) or an explicit
// std::fma — all of which round identically per element in scalar and SIMD
// form — and because the whole tree builds with -ffp-contract=off, so the
// compiler introduces no fusions of its own.
//
// Accuracy: both functions are within ~1 ulp of libm over the ranges the RRC
// integrand exercises (exp on [-708, 708]; log on normal positive inputs).
// exp() clamps its argument to +/-708 instead of descending into denormals or
// infinities — callers integrate Maxwellian tails where exp(-708) ~ 3e-308 is
// already zero emissivity.
//
// Vectorization notes (why the code looks the way it does):
//  * both functions build integer-valued doubles with the 2^52 magic-number
//    trick instead of lrint/static_cast: exp() extracts n with the
//    2^52+2^51 shifter, log() turns the biased exponent into a double by
//    OR-ing it into the mantissa of 2^52 and subtracting 2^52+1023. AVX2 has
//    no int64<->double converts (those need AVX-512DQ), so a single cast
//    would keep the whole loop scalar;
//  * the branchless clamp, the mantissa-range select and the bit-level scale
//    construction keep the loop body select-only, so GCC turns the whole
//    body into blends;
//  * both are [[gnu::always_inline]]: at -O2 GCC otherwise leaves them as
//    out-of-line calls, and a loop containing a call cannot vectorize.
//    Inlining changes no bits — every op still rounds once per element.

#include <bit>
#include <cstdint>
#include <cmath>

// HSPEC_VEC_TARGET marks a function containing a batch loop for runtime ISA
// dispatch: GCC/Clang emit an x86-64-v3 (AVX2+FMA) clone and a baseline
// clone behind an ifunc resolver that picks one per process from CPUID, so
// the same binary runs — with identical bits — on hosts with and without
// AVX2. Other targets and compilers get the baseline code only; GCC 12 and
// Clang 19 are the first releases whose resolvers test for the
// arch=x86-64-vN levels. ThreadSanitizer builds get it too: with GCC 12 a
// target_clones program built with -fsanitize=thread crashes at load (its
// ifunc resolver runs during relocation, before the TSan runtime is up).
#if defined(__x86_64__) && !defined(__SANITIZE_THREAD__) && \
    ((defined(__clang__) && __clang_major__ >= 19) ||       \
     (!defined(__clang__) && defined(__GNUC__) && __GNUC__ >= 12))
#define HSPEC_VEC_TARGET \
  __attribute__((target_clones("arch=x86-64-v3", "default")))
#else
#define HSPEC_VEC_TARGET
#endif

namespace hspec::util::fm {

/// Deterministic e^x (clamped to [-708, 708]; ~1 ulp).
[[gnu::always_inline]] inline double exp(double x) noexcept {
  constexpr double kLog2e = 1.4426950408889634074;
  constexpr double kLn2Hi = 6.93147180369123816490e-01;
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  constexpr double kShifter = 6755399441055744.0;  // 2^52 + 2^51
  const double xc = x < -708.0 ? -708.0 : (x > 708.0 ? 708.0 : x);
  // Cody-Waite reduction: n = round(x log2 e), r = x - n ln 2 (hi + lo).
  const double t = std::fma(xc, kLog2e, kShifter);
  const double n = t - kShifter;
  double r = std::fma(-n, kLn2Hi, xc);
  r = std::fma(-n, kLn2Lo, r);
  // Degree-13 Taylor polynomial of e^r on |r| <= ln2/2, Horner with fma.
  double p = 1.0 / 6227020800.0;
  p = std::fma(p, r, 1.0 / 479001600.0);
  p = std::fma(p, r, 1.0 / 39916800.0);
  p = std::fma(p, r, 1.0 / 3628800.0);
  p = std::fma(p, r, 1.0 / 362880.0);
  p = std::fma(p, r, 1.0 / 40320.0);
  p = std::fma(p, r, 1.0 / 5040.0);
  p = std::fma(p, r, 1.0 / 720.0);
  p = std::fma(p, r, 1.0 / 120.0);
  p = std::fma(p, r, 1.0 / 24.0);
  p = std::fma(p, r, 1.0 / 6.0);
  p = std::fma(p, r, 0.5);
  p = std::fma(p, r, 1.0);
  p = std::fma(p, r, 1.0);
  // 2^n via exponent bits: t still holds n in its low mantissa bits (the
  // shifter pins the rounding point), so (t << 52) adds n to the biased
  // exponent of 1.0.
  const std::uint64_t ti = std::bit_cast<std::uint64_t>(t);
  const double scale =
      std::bit_cast<double>((ti << 52) + std::bit_cast<std::uint64_t>(1.0));
  return p * scale;
}

/// Deterministic ln(x) for normal positive x (~1 ulp, fdlibm formulation).
[[gnu::always_inline]] inline double log(double x) noexcept {
  constexpr double kLn2Hi = 6.93147180369123816490e-01;
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
  // Normalize the mantissa into [sqrt(1/2), sqrt(2)): mantissas at or above
  // sqrt(2)'s get exponent -1, pushing m below sqrt(2).
  constexpr std::uint64_t kSqrt2Mant = 0x6A09E667F3BCDull;
  const std::uint64_t mant = bits & 0xFFFFFFFFFFFFFull;
  const std::uint64_t hi = mant >= kSqrt2Mant ? 1u : 0u;
  // ed = biased exponent - 1023 + hi, exactly: the sum fits in the low
  // mantissa bits, so OR-ing it into 2^52 gives 2^52 + sum with no
  // rounding, and the difference of two doubles in [2^52, 2^53) is exact.
  constexpr std::uint64_t kTwo52Bits = 0x4330000000000000ull;  // 2^52
  const double ed =
      std::bit_cast<double>(((bits >> 52) + hi) | kTwo52Bits) -
      (4503599627370496.0 + 1023.0);
  const double m = std::bit_cast<double>(mant | ((1023ull - hi) << 52));
  // log(m) via the atanh identity s = (m-1)/(m+1) with fdlibm's minimax
  // coefficients for the even remainder series.
  const double f = m - 1.0;
  const double s = f / (2.0 + f);
  const double z = s * s;
  double p = 1.479819860511658591e-01;           // Lg7
  p = std::fma(p, z, 1.531383769920937332e-01);  // Lg6
  p = std::fma(p, z, 1.818357216161805012e-01);  // Lg5
  p = std::fma(p, z, 2.222219843214978396e-01);  // Lg4
  p = std::fma(p, z, 2.857142874366239149e-01);  // Lg3
  p = std::fma(p, z, 3.999999999940941908e-01);  // Lg2
  p = std::fma(p, z, 6.666666666666735130e-01);  // Lg1
  const double r = z * p;
  const double hfsq = 0.5 * f * f;
  const double k1 = std::fma(s, hfsq + r, ed * kLn2Lo);
  return std::fma(ed, kLn2Hi, f - (hfsq - k1));
}

}  // namespace hspec::util::fm
