// A fixed reference kernel, independent of the library, whose wall time
// tracks how fast the shared host runs code at the moment.  Other jobs on
// the host slow the processor by up to a third for minutes at a time; the
// end-to-end pass samples this kernel between its cycles and scales its
// timing metrics by the kernel's median time (see perfbench/README.md).
#pragma once

#include <cstdint>

namespace perfbench {

class HostSpeed {
 public:
  /// Runs the kernel once, untimed, to warm it up.
  HostSpeed();

  /// Runs the kernel once and returns its wall time in seconds.
  double sample();

 private:
  void kernel();

  std::uint64_t sink_ = 0;  ///< keeps the kernel's result live
};

}  // namespace perfbench
