// Compile shim: the parallel engine is LtlVerifier with `jobs` > 1
// (verify/ltl_verifier.h). Kept only for callers that still spell the
// old name; delete together with the other compile shims.

#ifndef WSV_VERIFY_PARALLEL_H_
#define WSV_VERIFY_PARALLEL_H_

#include "verify/ltl_verifier.h"

namespace wsv {

using ParallelLtlVerifier = LtlVerifier;

}  // namespace wsv

#endif  // WSV_VERIFY_PARALLEL_H_
