/**
 * @file
 * Runtime-dispatched dense complex kernels (the "dense-kernel layer").
 *
 * Every dense product in qpulse funnels through these raw row-major
 * kernels. Four dispatch tiers:
 *  - Scalar reproduces the original triple-loop implementations
 *    bit-for-bit (they ARE those loops, hoisted);
 *  - Sse2 is the FMA-free 128-bit tier (one complex double per lane,
 *    mul/add only — every x86-64 CPU qualifies);
 *  - Avx2 vectorizes two complex doubles per 256-bit lane with FMA;
 *  - Avx512 vectorizes four complex doubles per 512-bit lane.
 * Dispatch is resolved once per process from cpuid probes and the
 * QPULSE_SIMD environment knob (0 forces scalar, the escape hatch for
 * bit-exact reproduction of historical results; "sse2"/"avx2"/"avx512"
 * pin a tier; 1/"auto" picks the highest supported). Tests override it
 * with setActiveSimd().
 *
 * Numerics contract (docs/PERFORMANCE.md, "Kernel architecture"):
 *  - within one dispatch mode results are deterministic — the mode is
 *    process-wide, so thread count never changes output bits;
 *  - scalar mode is bit-identical to the pre-overhaul implementation;
 *  - every SIMD mode agrees with scalar to <= 1e-12 max-abs on every
 *    matrix this project produces (pinned by tests/test_kernels.cc).
 */
#ifndef QPULSE_LINALG_SIMD_H
#define QPULSE_LINALG_SIMD_H

#include <cstddef>

#include "common/constants.h"

namespace qpulse {
namespace kernels {

/**
 * Which GEMM/matvec implementation the dispatcher selects. Ordered by
 * width so call sites can gate features with comparisons
 * (e.g. `activeSimd() >= SimdMode::Avx2` for the fused Jacobi
 * row-rotation, which exists from the AVX2 tier up).
 */
enum class SimdMode
{
    Scalar, ///< Portable triple loops (bit-identical to the seed code).
    Sse2,   ///< SSE2, one complex double per 128-bit lane, no FMA.
    Avx2,   ///< AVX2+FMA, two complex doubles per 256-bit lane.
    Avx512, ///< AVX-512F+FMA, four complex doubles per 512-bit lane.
};

/** True when the CPU supports SSE2 (every x86-64; false elsewhere). */
bool sse2Supported();

/** True when the CPU supports AVX2 and FMA (false on non-x86). */
bool avx2Supported();

/** True when the CPU supports AVX-512F and FMA (false on non-x86). */
bool avx512Supported();

/**
 * True when the CPU supports carry-less multiply (PCLMULQDQ; false on
 * non-x86). Gate for the folding CRC-64 fast path in store/serde.cc.
 * Honours the QPULSE_SIMD escape hatch: forcing scalar disables this
 * probe too, so the table CRC stays reachable for differential tests.
 */
bool pclmulSupported();

/**
 * The active dispatch mode, resolved once on first use from
 * QPULSE_SIMD: 0/"scalar" forces Scalar; "sse2"/"avx2"/"avx512" pin a
 * tier (falling back to the highest supported one, with a warning,
 * when the CPU lacks it); 1/"auto"/unset picks the widest tier the CPU
 * supports.
 */
SimdMode activeSimd();

/**
 * Override the dispatch mode (test seam). Requesting a tier the CPU
 * lacks falls back to the widest supported tier below it, with a
 * warning.
 */
void setActiveSimd(SimdMode mode);

/** "scalar" / "sse2" / "avx2" / "avx512" (reports and bench JSON). */
const char *simdModeName(SimdMode mode);

// ---------------------------------------------------------------------
// Raw kernels on row-major Complex buffers. `out` must not alias `a`
// or `b`; every kernel fully (re)defines `out`.
// ---------------------------------------------------------------------

/** out[m x n] = a[m x k] * b[k x n]. */
void gemmScalar(Complex *out, const Complex *a, const Complex *b,
                std::size_t m, std::size_t k, std::size_t n);

/** out[m x n] = a[m x k] * b[n x k]^dagger (B conjugate-transposed). */
void gemmAdjBScalar(Complex *out, const Complex *a, const Complex *b,
                    std::size_t m, std::size_t k, std::size_t n);

/** out[m x n] = a[k x m]^dagger * b[k x n] (A conjugate-transposed). */
void gemmAdjAScalar(Complex *out, const Complex *a, const Complex *b,
                    std::size_t m, std::size_t k, std::size_t n);

/** out[m] = a[m x n] * x[n]. */
void matvecScalar(Complex *out, const Complex *a, const Complex *x,
                  std::size_t m, std::size_t n);

#if defined(__x86_64__) || defined(__i386__)
/** SSE2 counterparts (FMA-free; baseline for every x86-64 CPU). */
void gemmSse2(Complex *out, const Complex *a, const Complex *b,
              std::size_t m, std::size_t k, std::size_t n);
void gemmAdjBSse2(Complex *out, const Complex *a, const Complex *b,
                  std::size_t m, std::size_t k, std::size_t n);
void gemmAdjASse2(Complex *out, const Complex *a, const Complex *b,
                  std::size_t m, std::size_t k, std::size_t n);
void matvecSse2(Complex *out, const Complex *a, const Complex *x,
                std::size_t m, std::size_t n);

/** AVX2/FMA counterparts (defined only on x86; gate on avx2Supported). */
void gemmAvx2(Complex *out, const Complex *a, const Complex *b,
              std::size_t m, std::size_t k, std::size_t n);

/**
 * Fused in-place complex Givens update of two contiguous rows (the
 * Jacobi eigensolver's inner kernel). With r90(z) = i z elementwise:
 *
 *   xp' = c xp - spr xq - spi r90(xq)
 *   xq' = c xq + spr xp - spi r90(xp)
 *
 * which for (spr, spi) = s (Re phase, Im phase) is the row half of the
 * Hermitian Jacobi rotation a <- J^dag a J; the accumulator update
 * v <- v J on a row-major transposed accumulator is the same kernel
 * with spi negated. Rows must not overlap.
 */
void rotateRowPairAvx2(Complex *xp, Complex *xq, std::size_t n,
                       double c, double spr, double spi);
void gemmAdjBAvx2(Complex *out, const Complex *a, const Complex *b,
                  std::size_t m, std::size_t k, std::size_t n);
void gemmAdjAAvx2(Complex *out, const Complex *a, const Complex *b,
                  std::size_t m, std::size_t k, std::size_t n);
void matvecAvx2(Complex *out, const Complex *a, const Complex *x,
                std::size_t m, std::size_t n);

/**
 * AVX-512F streaming gemm (gate on avx512Supported). The Avx512 tier
 * has no reduction kernels of its own: its adjB / adjA / matvec
 * dispatch to the 256-bit forms, because 4-wide dot-product partial
 * sums round differently enough from scalar that full-length
 * schedules drift past the 1e-12 legacy-agreement budget.
 */
void gemmAvx512(Complex *out, const Complex *a, const Complex *b,
                std::size_t m, std::size_t k, std::size_t n);

// Strided accumulating tiles (gemmBlocked micro-kernels):
// out[i*ldo + j] += sum_kk a[i*lda + kk] * b[kk*ldb + j] over the
// m x kt x nt tile.
void gemmAccTileSse2(Complex *out, const Complex *a, const Complex *b,
                     std::size_t m, std::size_t kt, std::size_t nt,
                     std::size_t lda, std::size_t ldb, std::size_t ldo);
void gemmAccTileAvx2(Complex *out, const Complex *a, const Complex *b,
                     std::size_t m, std::size_t kt, std::size_t nt,
                     std::size_t lda, std::size_t ldb, std::size_t ldo);
void gemmAccTileAvx512(Complex *out, const Complex *a, const Complex *b,
                       std::size_t m, std::size_t kt, std::size_t nt,
                       std::size_t lda, std::size_t ldb,
                       std::size_t ldo);
#endif

/**
 * Cache-blocked gemm for Hilbert spaces whose operands overflow L1
 * (the 81-dim qutrit pairs): tiles the k and j loops so each B panel
 * is streamed from cache, delegating every tile to the active SIMD
 * tier's accumulating inner kernel. Only engaged by the dispatcher for
 * non-Scalar modes (scalar stays bit-identical to the seed loops) at
 * sizes past its threshold.
 */
void gemmBlocked(Complex *out, const Complex *a, const Complex *b,
                 std::size_t m, std::size_t k, std::size_t n,
                 SimdMode mode);

/** Dimension at/above which the dispatcher routes square-ish gemms to
 *  gemmBlocked (chosen so 3- and 9-dim transmons never tile but the
 *  81-dim pairs do). */
inline constexpr std::size_t kGemmBlockThreshold = 48;

// ---------------------------------------------------------------------
// Tier-routing entry points: select the active SimdMode's kernel (the
// blocked path for large gemms in SIMD modes). These do NOT touch the
// linalg.gemm.* counters — the Matrix/StatePanel wrappers own
// accounting.
// ---------------------------------------------------------------------
void gemmDispatch(Complex *out, const Complex *a, const Complex *b,
                  std::size_t m, std::size_t k, std::size_t n);
void gemmAdjBDispatch(Complex *out, const Complex *a, const Complex *b,
                      std::size_t m, std::size_t k, std::size_t n);
void gemmAdjADispatch(Complex *out, const Complex *a, const Complex *b,
                      std::size_t m, std::size_t k, std::size_t n);
void matvecDispatch(Complex *out, const Complex *a, const Complex *x,
                    std::size_t m, std::size_t n);

} // namespace kernels
} // namespace qpulse

#endif // QPULSE_LINALG_SIMD_H
