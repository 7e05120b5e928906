// The value type every certified lower bound in lpsolve returns: the MCMF
// dual certificate (flowtime_lp.h), the exact trivial bound (lower_bounds.h)
// and the dense simplex oracle's exact re-solve (certify.h).
#pragma once

namespace tempofair::lpsolve {

/// A lower bound together with its verification status.  When `certified`
/// is true, `value` has been checked in exact rational arithmetic and
/// rounded toward the safe side; when false, `value` is whatever float
/// estimate was available (possibly 0) and must not be presented as exact.
struct CertifiedBound {
  double value = 0.0;
  bool certified = false;
};

}  // namespace tempofair::lpsolve
