/**
 * @file
 * AVX-512F variants of the dense complex kernels.
 *
 * Same complex-arithmetic scheme as the AVX2 tier (see simd_avx2.cc)
 * widened to 512-bit registers: four complex doubles per vector
 * [re0, im0, re1, im1, re2, im2, re3, im3], a complex
 * multiply-accumulate is two broadcasts, one in-lane swap and one
 * fmaddsub. Only the streaming gemm and the blocked-gemm tile live
 * here; the reduction kernels (adjB / adjA / matvec) stay 256-bit
 * under this tier (see simd.h).
 *
 * Compiled with per-function target attributes so the translation unit
 * stays buildable with a baseline -march: the dispatcher only routes
 * here after a cpuid probe (avx512Supported).
 */
#if defined(__x86_64__) || defined(__i386__)

#include "linalg/simd.h"

#include <immintrin.h>

namespace qpulse {
namespace kernels {

namespace {

#define QPULSE_AVX512 __attribute__((target("avx512f,fma")))

QPULSE_AVX512 inline const double *
dp(const Complex *z)
{
    return reinterpret_cast<const double *>(z);
}

QPULSE_AVX512 inline double *
dp(Complex *z)
{
    return reinterpret_cast<double *>(z);
}

/** Swap re/im within each complex: lanes [1,0,3,2,5,4,7,6]. */
QPULSE_AVX512 inline __m512d
swapPairs(__m512d v)
{
    return _mm512_permute_pd(v, 0x55);
}

} // namespace

QPULSE_AVX512 void
gemmAvx512(Complex *out, const Complex *a, const Complex *b,
           std::size_t m, std::size_t k, std::size_t n)
{
    for (std::size_t i = 0; i < m; ++i) {
        const Complex *arow = a + i * k;
        Complex *orow = out + i * n;
        std::size_t j = 0;
        for (; j + 4 <= n; j += 4) {
            __m512d acc = _mm512_setzero_pd();
            for (std::size_t kk = 0; kk < k; ++kk) {
                const double *az = dp(arow + kk);
                const __m512d are = _mm512_set1_pd(az[0]);
                const __m512d aim = _mm512_set1_pd(az[1]);
                const __m512d bv =
                    _mm512_loadu_pd(dp(b + kk * n + j));
                const __m512d t = _mm512_mul_pd(aim, swapPairs(bv));
                acc = _mm512_add_pd(acc,
                                    _mm512_fmaddsub_pd(are, bv, t));
            }
            _mm512_storeu_pd(dp(orow + j), acc);
        }
        for (; j < n; ++j) {
            Complex sum{0.0, 0.0};
            for (std::size_t kk = 0; kk < k; ++kk)
                sum += arow[kk] * b[kk * n + j];
            orow[j] = sum;
        }
    }
}

QPULSE_AVX512 void
gemmAccTileAvx512(Complex *out, const Complex *a, const Complex *b,
                  std::size_t m, std::size_t kt, std::size_t nt,
                  std::size_t lda, std::size_t ldb, std::size_t ldo)
{
    for (std::size_t i = 0; i < m; ++i) {
        const Complex *arow = a + i * lda;
        Complex *orow = out + i * ldo;
        for (std::size_t kk = 0; kk < kt; ++kk) {
            const double *az = dp(arow + kk);
            const __m512d are = _mm512_set1_pd(az[0]);
            const __m512d aim = _mm512_set1_pd(az[1]);
            const Complex *brow = b + kk * ldb;
            std::size_t j = 0;
            for (; j + 4 <= nt; j += 4) {
                const __m512d bv = _mm512_loadu_pd(dp(brow + j));
                const __m512d t = _mm512_mul_pd(aim, swapPairs(bv));
                const __m512d acc = _mm512_add_pd(
                    _mm512_loadu_pd(dp(orow + j)),
                    _mm512_fmaddsub_pd(are, bv, t));
                _mm512_storeu_pd(dp(orow + j), acc);
            }
            const Complex aik = arow[kk];
            for (; j < nt; ++j)
                orow[j] += aik * brow[j];
        }
    }
}

#undef QPULSE_AVX512

} // namespace kernels
} // namespace qpulse

#endif // x86
