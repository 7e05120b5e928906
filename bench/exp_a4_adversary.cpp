// A4 -- adversary search for instances where RR's l_k cost is large
// against a certified lower bound on OPT.  For each k in {1, 2, 3} the
// optimizer (src/search/) perturbs the hard families and reports the best
// instance by (cost / certified_lb)^(1/k), where certified_lb <= OPT^k is
// machine-checked in exact rational arithmetic.  Each number in the table
// is therefore a certified *upper* bound on RR's ratio on that instance, not
// a lower bound on its competitive ratio (that would need a certified upper
// bound on OPT).  The check: the k=2 search must match or beat the
// hand-built Bansal-Pruhs batch+stream baseline (it starts from it, so
// falling below would mean a certification regression).
#include <string>
#include <vector>

#include "common.h"
#include "registry.h"
#include "search/adversary.h"

using namespace tempofair;

namespace {

int run(bench::RunContext& ctx) {
  ctx.banner("A4 (adversary search)",
             "searched instances certify upper bounds on RR's l_k ratio",
             "k=2 search >= batch+stream baseline; ratios certified exactly");

  const std::string policy = ctx.string_param("policy", "rr");
  const double speed = ctx.double_param("speed", 1.0);
  const std::uint64_t seed = ctx.seed_param(1);
  const std::size_t budget = ctx.size_param("budget", 400, 40);
  const std::size_t max_jobs = ctx.size_param("max-jobs", 12, 8);
  const std::vector<double> ks{1.0, 2.0, 3.0};

  struct Row {
    search::SearchResult result;
    search::CertifiedEval baseline;
  };
  std::vector<Row> rows(ks.size());
  ctx.pool().parallel_for(ks.size(), [&](std::size_t i) {
    search::SearchOptions so;
    so.policy = policy;
    so.k = ks[i];
    so.speed = speed;
    so.seed = seed;
    so.budget = budget;
    so.max_jobs = max_jobs;
    rows[i] = Row{search::search_adversary(so),
                  search::baseline_hard_family(so)};
  });

  analysis::Table table(
      "A4: searched instances (certified upper bounds on RR's ratio, " +
          policy + " at speed " + analysis::Table::num(speed, 2) + ")",
      {"k", "family", "jobs", "evals", "certs", "baseline", "best ratio"});
  bool ok = true;
  for (std::size_t i = 0; i < ks.size(); ++i) {
    const Row& r = rows[i];
    if (!r.result.found) {
      ok = false;
      continue;
    }
    table.add_row({analysis::Table::num(ks[i], 0), r.result.best.family,
                   std::to_string(r.result.best.sizes.size()),
                   std::to_string(r.result.stats.evals),
                   std::to_string(r.result.stats.certifications),
                   analysis::Table::num(r.baseline.ratio, 4),
                   analysis::Table::num(r.result.best.ratio, 4)});
  }
  ctx.emit(table);

  // The acceptance check: seeds are certified before mutation, so the k=2
  // result can only fall below the baseline if certification broke.
  const Row& k2 = rows[1];
  if (!k2.result.found || !k2.baseline.ok ||
      k2.result.best.ratio < k2.baseline.ratio * (1.0 - 1e-9)) {
    ctx.out() << "  CHECK FAILED: k=2 search below the hand-built baseline\n";
    ok = false;
  }
  return ok ? 0 : 1;
}

const bench::Registration reg{{
    "a4",
    "A4 (adversary search)",
    "searched instances certify upper bounds on RR's l_k ratio",
    "--policy rr --speed 1.0 --seed 1 --budget 400 --max-jobs 12",
    run,
}};

}  // namespace
