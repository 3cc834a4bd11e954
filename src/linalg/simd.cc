#include "linalg/simd.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <string>

#include "common/env.h"

namespace qpulse {
namespace kernels {

bool
sse2Supported()
{
#if defined(__x86_64__)
    return true; // SSE2 is part of the x86-64 baseline.
#elif defined(__i386__)
    return __builtin_cpu_supports("sse2") != 0;
#else
    return false;
#endif
}

bool
avx2Supported()
{
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("avx2") != 0 &&
           __builtin_cpu_supports("fma") != 0;
#else
    return false;
#endif
}

bool
avx512Supported()
{
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("avx512f") != 0 &&
           __builtin_cpu_supports("fma") != 0;
#else
    return false;
#endif
}

bool
pclmulSupported()
{
#if defined(__x86_64__) || defined(__i386__)
    // Tied to the active dispatch mode so QPULSE_SIMD=0 (or
    // setActiveSimd(Scalar)) forces the table CRC path as well.
    return activeSimd() != SimdMode::Scalar &&
           __builtin_cpu_supports("pclmul") != 0 &&
           __builtin_cpu_supports("sse2") != 0;
#else
    return false;
#endif
}

namespace {

/** -1 = unresolved; otherwise a SimdMode value. */
std::atomic<int> g_mode{-1};

bool
modeSupported(SimdMode mode)
{
    switch (mode) {
    case SimdMode::Scalar:
        return true;
    case SimdMode::Sse2:
        return sse2Supported();
    case SimdMode::Avx2:
        return avx2Supported();
    case SimdMode::Avx512:
        return avx512Supported();
    }
    return false;
}

/** Widest supported tier at or below `mode`. */
SimdMode
clampToSupported(SimdMode mode)
{
    int m = static_cast<int>(mode);
    while (m > 0 && !modeSupported(static_cast<SimdMode>(m)))
        --m;
    return static_cast<SimdMode>(m);
}

SimdMode
highestSupported()
{
    return clampToSupported(SimdMode::Avx512);
}

SimdMode
resolveMode()
{
    std::string raw = envString("QPULSE_SIMD").value_or("");
    std::transform(raw.begin(), raw.end(), raw.begin(), [](char c) {
        return static_cast<char>(std::tolower(
            static_cast<unsigned char>(c)));
    });
    if (raw.empty() || raw == "1" || raw == "auto")
        return highestSupported();
    if (raw == "0" || raw == "scalar")
        return SimdMode::Scalar;
    SimdMode requested;
    if (raw == "sse2") {
        requested = SimdMode::Sse2;
    } else if (raw == "avx2") {
        requested = SimdMode::Avx2;
    } else if (raw == "avx512") {
        requested = SimdMode::Avx512;
    } else {
        envWarn("QPULSE_SIMD",
                "expected 0/scalar, 1/auto, sse2, avx2 or avx512; "
                "using auto");
        return highestSupported();
    }
    const SimdMode actual = clampToSupported(requested);
    if (actual != requested)
        envWarn("QPULSE_SIMD",
                "requested tier unsupported by this CPU; falling back "
                "to the widest supported tier below it");
    return actual;
}

} // namespace

SimdMode
activeSimd()
{
    int mode = g_mode.load(std::memory_order_relaxed);
    if (mode < 0) {
        // A racing first call resolves to the same value, so the
        // blind store is benign.
        mode = static_cast<int>(resolveMode());
        g_mode.store(mode, std::memory_order_relaxed);
    }
    return static_cast<SimdMode>(mode);
}

void
setActiveSimd(SimdMode mode)
{
    const SimdMode actual = clampToSupported(mode);
    if (actual != mode)
        envWarn("QPULSE_SIMD",
                "requested tier unsupported by this CPU; falling back "
                "to the widest supported tier below it");
    g_mode.store(static_cast<int>(actual), std::memory_order_relaxed);
}

const char *
simdModeName(SimdMode mode)
{
    switch (mode) {
    case SimdMode::Sse2:
        return "sse2";
    case SimdMode::Avx2:
        return "avx2";
    case SimdMode::Avx512:
        return "avx512";
    case SimdMode::Scalar:
        break;
    }
    return "scalar";
}

void
gemmScalar(Complex *out, const Complex *a, const Complex *b,
           std::size_t m, std::size_t k, std::size_t n)
{
    // Bit-identical to the historical Matrix::operator* triple loop:
    // zero-initialize, then accumulate row-by-row skipping exact-zero
    // A entries (the skip preserves signed-zero behaviour of the
    // original, so scalar results never drift from the seed code).
    for (std::size_t i = 0; i < m * n; ++i)
        out[i] = Complex{0.0, 0.0};
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t kk = 0; kk < k; ++kk) {
            const Complex aik = a[i * k + kk];
            if (aik == Complex{0.0, 0.0})
                continue;
            const Complex *brow = b + kk * n;
            Complex *orow = out + i * n;
            for (std::size_t j = 0; j < n; ++j)
                orow[j] += aik * brow[j];
        }
    }
}

void
gemmAdjBScalar(Complex *out, const Complex *a, const Complex *b,
               std::size_t m, std::size_t k, std::size_t n)
{
    for (std::size_t i = 0; i < m; ++i) {
        const Complex *arow = a + i * k;
        for (std::size_t j = 0; j < n; ++j) {
            const Complex *brow = b + j * k;
            Complex sum{0.0, 0.0};
            for (std::size_t kk = 0; kk < k; ++kk)
                sum += arow[kk] * std::conj(brow[kk]);
            out[i * n + j] = sum;
        }
    }
}

void
gemmAdjAScalar(Complex *out, const Complex *a, const Complex *b,
               std::size_t m, std::size_t k, std::size_t n)
{
    for (std::size_t i = 0; i < m * n; ++i)
        out[i] = Complex{0.0, 0.0};
    for (std::size_t kk = 0; kk < k; ++kk) {
        const Complex *arow = a + kk * m;
        const Complex *brow = b + kk * n;
        for (std::size_t i = 0; i < m; ++i) {
            const Complex s = std::conj(arow[i]);
            if (s == Complex{0.0, 0.0})
                continue;
            Complex *orow = out + i * n;
            for (std::size_t j = 0; j < n; ++j)
                orow[j] += s * brow[j];
        }
    }
}

void
matvecScalar(Complex *out, const Complex *a, const Complex *x,
             std::size_t m, std::size_t n)
{
    // Bit-identical to the historical Matrix::apply loop.
    for (std::size_t i = 0; i < m; ++i) {
        Complex total{0.0, 0.0};
        const Complex *arow = a + i * n;
        for (std::size_t j = 0; j < n; ++j)
            total += arow[j] * x[j];
        out[i] = total;
    }
}

namespace {

/** Portable strided accumulating tile (the gemmBlocked fallback when
 *  a tier-specific micro-kernel is unavailable). */
void
gemmAccTileScalar(Complex *out, const Complex *a, const Complex *b,
                  std::size_t m, std::size_t kt, std::size_t nt,
                  std::size_t lda, std::size_t ldb, std::size_t ldo)
{
    for (std::size_t i = 0; i < m; ++i) {
        const Complex *arow = a + i * lda;
        Complex *orow = out + i * ldo;
        for (std::size_t kk = 0; kk < kt; ++kk) {
            const Complex aik = arow[kk];
            const Complex *brow = b + kk * ldb;
            for (std::size_t j = 0; j < nt; ++j)
                orow[j] += aik * brow[j];
        }
    }
}

} // namespace

void
gemmBlocked(Complex *out, const Complex *a, const Complex *b,
            std::size_t m, std::size_t k, std::size_t n, SimdMode mode)
{
    // Tile the reduction (k) and output-column (j) loops so each B
    // panel of kt x nt complex doubles (<= 24 KiB) stays L1-resident
    // while every row of A streams against it. Accumulation order
    // inside a column is still ascending in k, so results match the
    // unblocked SIMD kernels' tail-loop ordering to within the usual
    // reassociation budget (<= 1e-12, pinned in tests).
    constexpr std::size_t kTileK = 32;
    constexpr std::size_t kTileN = 48;
    for (std::size_t i = 0; i < m * n; ++i)
        out[i] = Complex{0.0, 0.0};
    for (std::size_t jj = 0; jj < n; jj += kTileN) {
        const std::size_t nt = std::min(kTileN, n - jj);
        for (std::size_t kk = 0; kk < k; kk += kTileK) {
            const std::size_t kt = std::min(kTileK, k - kk);
            Complex *otile = out + jj;
            const Complex *atile = a + kk;
            const Complex *btile = b + kk * n + jj;
#if defined(__x86_64__) || defined(__i386__)
            switch (mode) {
            case SimdMode::Avx512:
                gemmAccTileAvx512(otile, atile, btile, m, kt, nt, k, n,
                                  n);
                continue;
            case SimdMode::Avx2:
                gemmAccTileAvx2(otile, atile, btile, m, kt, nt, k, n,
                                n);
                continue;
            case SimdMode::Sse2:
                gemmAccTileSse2(otile, atile, btile, m, kt, nt, k, n,
                                n);
                continue;
            case SimdMode::Scalar:
                break;
            }
#else
            (void)mode;
#endif
            gemmAccTileScalar(otile, atile, btile, m, kt, nt, k, n, n);
        }
    }
}

void
gemmDispatch(Complex *out, const Complex *a, const Complex *b,
             std::size_t m, std::size_t k, std::size_t n)
{
    const SimdMode mode = activeSimd();
    // The blocked path only engages for SIMD tiers: Scalar mode stays
    // bit-identical to the seed triple loop at every size.
    if (mode != SimdMode::Scalar && k >= kGemmBlockThreshold &&
        n >= kGemmBlockThreshold) {
        gemmBlocked(out, a, b, m, k, n, mode);
        return;
    }
#if defined(__x86_64__) || defined(__i386__)
    switch (mode) {
    case SimdMode::Avx512:
        gemmAvx512(out, a, b, m, k, n);
        return;
    case SimdMode::Avx2:
        gemmAvx2(out, a, b, m, k, n);
        return;
    case SimdMode::Sse2:
        gemmSse2(out, a, b, m, k, n);
        return;
    case SimdMode::Scalar:
        break;
    }
#endif
    gemmScalar(out, a, b, m, k, n);
}

void
gemmAdjBDispatch(Complex *out, const Complex *a, const Complex *b,
                 std::size_t m, std::size_t k, std::size_t n)
{
#if defined(__x86_64__) || defined(__i386__)
    switch (activeSimd()) {
    // The Avx512 tier routes the REDUCTION kernels (adjB / adjA /
    // matvec) to the 256-bit implementations: 4-wide dot-product
    // partial sums round differently enough from the scalar reference
    // that full-length CNOT propagators drift past the 1e-12
    // legacy-agreement budget (BENCH_pulsesim.json, `uncached` gate),
    // while the streaming gemm — whose per-column fma order is
    // width-independent — gets the full 512-bit width. There are no
    // 512-bit reduction kernels.
    case SimdMode::Avx512:
        gemmAdjBAvx2(out, a, b, m, k, n);
        return;
    case SimdMode::Avx2:
        gemmAdjBAvx2(out, a, b, m, k, n);
        return;
    case SimdMode::Sse2:
        gemmAdjBSse2(out, a, b, m, k, n);
        return;
    case SimdMode::Scalar:
        break;
    }
#endif
    gemmAdjBScalar(out, a, b, m, k, n);
}

void
gemmAdjADispatch(Complex *out, const Complex *a, const Complex *b,
                 std::size_t m, std::size_t k, std::size_t n)
{
#if defined(__x86_64__) || defined(__i386__)
    switch (activeSimd()) {
    case SimdMode::Avx512: // 256-bit reduction: see gemmAdjBDispatch.
        gemmAdjAAvx2(out, a, b, m, k, n);
        return;
    case SimdMode::Avx2:
        gemmAdjAAvx2(out, a, b, m, k, n);
        return;
    case SimdMode::Sse2:
        gemmAdjASse2(out, a, b, m, k, n);
        return;
    case SimdMode::Scalar:
        break;
    }
#endif
    gemmAdjAScalar(out, a, b, m, k, n);
}

void
matvecDispatch(Complex *out, const Complex *a, const Complex *x,
               std::size_t m, std::size_t n)
{
#if defined(__x86_64__) || defined(__i386__)
    switch (activeSimd()) {
    case SimdMode::Avx512: // 256-bit reduction: see gemmAdjBDispatch.
        matvecAvx2(out, a, x, m, n);
        return;
    case SimdMode::Avx2:
        matvecAvx2(out, a, x, m, n);
        return;
    case SimdMode::Sse2:
        matvecSse2(out, a, x, m, n);
        return;
    case SimdMode::Scalar:
        break;
    }
#endif
    matvecScalar(out, a, x, m, n);
}

} // namespace kernels
} // namespace qpulse
