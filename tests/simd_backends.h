// Test helper: run a body once on every SIMD backend this CPU supports
// (core/simd.h), so one test binary checks each backend against the
// scalar reference and against the others.

#ifndef IPS_TESTS_SIMD_BACKENDS_H_
#define IPS_TESTS_SIMD_BACKENDS_H_

#include <string>

#include <gtest/gtest.h>

#include "core/simd.h"

namespace ips {

/// Calls `body()` once per supported backend, narrowest first, with that
/// backend active and its name in the failure trace. The start-up backend
/// is active again afterwards, also when an assertion cut a body short.
template <typename Body>
void ForEachSimdBackend(Body&& body) {
  struct Restore {
    simd::Backend backend = simd::ActiveBackend();
    ~Restore() { (void)simd::UseBackend(backend); }
  } restore;
  for (const simd::Backend backend : simd::SupportedBackends()) {
    ASSERT_TRUE(simd::UseBackend(backend));
    SCOPED_TRACE(std::string("backend=") + simd::BackendName(backend));
    body();
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace ips

#endif  // IPS_TESTS_SIMD_BACKENDS_H_
