#include "lpsolve/lp_fuzz.h"

#include <cmath>
#include <random>
#include <sstream>
#include <utility>

#include "core/instance.h"
#include "lpsolve/certify.h"
#include "lpsolve/flowtime_lp.h"
#include "lpsolve/simplex.h"

namespace tempofair::lpsolve {

namespace {

const char* status_name(SolveStatus s) {
  switch (s) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kUnbounded: return "unbounded";
    case SolveStatus::kIterLimit: return "iter_limit";
  }
  return "?";
}

/// Random LP over half-integer coefficients (exactly representable, so the
/// float and exact solvers see literally the same program).
LinearProgram random_lp(std::mt19937_64& rng, const LpFuzzOptions& opt) {
  std::uniform_int_distribution<int> nv(1, static_cast<int>(opt.max_vars));
  std::uniform_int_distribution<int> nr(1, static_cast<int>(opt.max_rows));
  std::uniform_int_distribution<int> coeff(-8, 8);   // halves: [-4, 4]
  std::uniform_int_distribution<int> rhs(-12, 12);   // halves: [-6, 6]
  std::uniform_int_distribution<int> rel(0, 5);

  LinearProgram lp;
  const int n = nv(rng);
  const int m = nr(rng);
  lp.objective.resize(n);
  for (double& c : lp.objective) c = coeff(rng) / 2.0;
  lp.rows.resize(m);
  for (auto& row : lp.rows) {
    row.coeffs.resize(n);
    for (double& a : row.coeffs) a = coeff(rng) / 2.0;
    const int r = rel(rng);
    // Bias toward inequalities; random equality rows (including negative
    // rhs ones) keep the sign-normalization path honest.
    row.rel = r < 3 ? LinearProgram::Rel::kLe
                    : (r < 5 ? LinearProgram::Rel::kGe : LinearProgram::Rel::kEq);
    row.rhs = rhs(rng) / 2.0;
  }
  return lp;
}

Instance random_instance(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> nj(1, 4);
  std::uniform_int_distribution<int> rel(0, 6);   // halves: [0, 3]
  std::uniform_int_distribution<int> size(1, 6);  // halves: [0.5, 3]
  const int n = nj(rng);
  std::vector<std::pair<Time, Work>> pairs;
  pairs.reserve(n);
  for (int j = 0; j < n; ++j) {
    pairs.emplace_back(rel(rng) / 2.0, size(rng) / 2.0);
  }
  return Instance::from_pairs(pairs);
}

}  // namespace

LpFuzzReport run_lp_fuzz(const LpFuzzOptions& options) {
  LpFuzzReport rep;
  rep.seed = options.seed;
  std::mt19937_64 rng(options.seed);

  const auto fail = [&rep](std::size_t index, std::string what) {
    rep.disagreements.push_back(LpFuzzDisagreement{index, std::move(what)});
  };

  for (std::size_t i = 0; i < options.count; ++i) {
    const LinearProgram lp = random_lp(rng, options);
    const LpSolution fl = solve_lp(lp);
    const CertifyResult ex =
        solve_lp_exact(lp, fl.status == SolveStatus::kOptimal ? &fl : nullptr);

    switch (fl.status) {
      case SolveStatus::kOptimal: ++rep.optimal; break;
      case SolveStatus::kInfeasible: ++rep.infeasible; break;
      case SolveStatus::kUnbounded: ++rep.unbounded; break;
      case SolveStatus::kIterLimit: ++rep.iter_limit; break;
    }
    if (ex.warm_start_used) ++rep.warm_starts;

    // A pivot-budget exhaustion or 128-bit overflow on either side is a
    // capacity miss, not a disagreement.
    if (fl.status == SolveStatus::kIterLimit ||
        ex.exact_status == SolveStatus::kIterLimit) {
      if (fl.status != SolveStatus::kIterLimit) ++rep.iter_limit;
      continue;
    }

    if (fl.status != ex.exact_status) {
      std::ostringstream os;
      os << "status: float=" << status_name(fl.status)
         << " exact=" << status_name(ex.exact_status);
      fail(i, os.str());
      continue;
    }
    if (fl.status != SolveStatus::kOptimal) continue;

    const double exact = ex.exact_objective.to_double();
    const double flo = fl.objective.value_or(0.0);
    if (std::fabs(flo - exact) > 1e-6 * (1.0 + std::fabs(exact))) {
      std::ostringstream os;
      os << "objective: float=" << flo << " exact=" << exact;
      fail(i, os.str());
      continue;
    }

    const CertifiedBound cert = verify_certificate(lp, fl);
    if (cert.certified) {
      ++rep.certified;
      // A certificate must never claim more than the exact optimum.
      if (cert.value > ex.exact_objective.upper_double()) {
        std::ostringstream os;
        os << "certificate above exact optimum: cert=" << cert.value
           << " exact=" << exact;
        fail(i, os.str());
      }
    }
  }
  rep.count = options.count;

  if (options.flow_every > 0) {
    for (std::size_t i = 0; i < options.count; i += options.flow_every) {
      const Instance inst = random_instance(rng);
      FlowtimeLpOptions fopts;
      fopts.k = 2.0;
      fopts.machines = 1;
      fopts.slot = 0.5;
      const FlowtimeLpResult mcmf = solve_flowtime_lp(inst, fopts);
      const LinearProgram lp = build_flowtime_lp(inst, fopts);
      const LpSolution sx = solve_lp(lp);
      ++rep.flow_cases;
      if (mcmf.job_classes + mcmf.skipped_jobs < inst.n()) {
        ++rep.flow_merged_cases;
      }

      if (sx.status != SolveStatus::kOptimal) {
        std::ostringstream os;
        os << "flow: simplex status=" << status_name(sx.status) << " on "
           << inst.summary();
        fail(options.count + i, os.str());
        continue;
      }
      const double sxo = *sx.objective;
      if (std::fabs(sxo - mcmf.lp_value) > 1e-6 * (1.0 + mcmf.lp_value)) {
        std::ostringstream os;
        os << "flow: simplex=" << sxo << " mcmf=" << mcmf.lp_value;
        fail(options.count + i, os.str());
        continue;
      }
      if (!mcmf.certificate.certified) {
        fail(options.count + i, "flow: MCMF dual certificate uncertified");
        continue;
      }
      if (mcmf.certificate.value > mcmf.lp_value + 1e-6 * (1.0 + mcmf.lp_value)) {
        std::ostringstream os;
        os << "flow: certificate=" << mcmf.certificate.value
           << " above lp_value=" << mcmf.lp_value;
        fail(options.count + i, os.str());
        continue;
      }
      // The exact verifier certifies the *simplex* side too; both
      // certificates bound the same LP, so they must sit below it.
      const CertifiedBound cert = verify_certificate(lp, sx);
      if (cert.certified &&
          cert.value > mcmf.lp_value + 1e-6 * (1.0 + mcmf.lp_value)) {
        std::ostringstream os;
        os << "flow: simplex certificate=" << cert.value
           << " above lp_value=" << mcmf.lp_value;
        fail(options.count + i, os.str());
      }
    }
  }
  return rep;
}

}  // namespace tempofair::lpsolve
