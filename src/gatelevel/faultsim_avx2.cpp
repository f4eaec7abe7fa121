// AVX2 instantiation of the W=8 detection-matrix engine. This translation
// unit is compiled with -mavx2 (see CMakeLists.txt) and added to the build
// only when the compiler accepts the flag; run_wide_matrix calls in here
// only after runtime CPU detection says AVX2 exists. Keep the TU to this
// instantiation — any other code compiled here may pick up AVX encodings
// and leak into the portable build through comdat folding.
#include "gatelevel/faultsim_wide.h"

namespace tsyn::gl::wide_detail {

void wide_matrix_avx2_w8(const Netlist& n,
                         const std::vector<std::vector<Bits>>& blocks,
                         const std::vector<Fault>& faults, int threads,
                         std::uint64_t* matrix) {
  wide_matrix<8, Avx2Words>(n, blocks, faults, threads, matrix);
}

}  // namespace tsyn::gl::wide_detail
