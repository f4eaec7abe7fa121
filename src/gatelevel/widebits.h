// The SIMD instruction set a build was compiled for.
//
// The fault-simulation kernels are portable C++ on 64-lane `Bits` words
// (netlist.h); nothing dispatches on the ISA. The end-to-end benchmark
// prints it on its host line, because the compiler may auto-vectorize the
// whole binary when the build passes ISA flags, and results from
// differently compiled builds are not comparable.
#pragma once

namespace tsyn::gl {

enum class SimdBackend { kScalar, kAvx2, kAvx512 };

/// Widest SIMD ISA this translation unit was compiled for; kScalar on the
/// default portable build.
constexpr SimdBackend active_simd_backend() {
#if defined(__AVX512F__)
  return SimdBackend::kAvx512;
#elif defined(__AVX2__)
  return SimdBackend::kAvx2;
#else
  return SimdBackend::kScalar;
#endif
}

constexpr const char* to_string(SimdBackend b) {
  switch (b) {
    case SimdBackend::kScalar: return "scalar";
    case SimdBackend::kAvx2: return "avx2";
    case SimdBackend::kAvx512: return "avx512";
  }
  return "?";
}

}  // namespace tsyn::gl
