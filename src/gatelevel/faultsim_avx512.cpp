// AVX-512F instantiation of the W=8 detection-matrix engine. Compiled with
// -mavx512f when the compiler accepts it; called only after runtime CPU
// detection. Same comdat caveat as faultsim_avx2.cpp: nothing but the
// instantiation lives here.
#include "gatelevel/faultsim_wide.h"

namespace tsyn::gl::wide_detail {

void wide_matrix_avx512_w8(const Netlist& n,
                           const std::vector<std::vector<Bits>>& blocks,
                           const std::vector<Fault>& faults, int threads,
                           std::uint64_t* matrix) {
  wide_matrix<8, Avx512Words>(n, blocks, faults, threads, matrix);
}

}  // namespace tsyn::gl::wide_detail
