#include "search/adversary.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "lpsolve/certify.h"
#include "lpsolve/flowtime_lp.h"
#include "lpsolve/lower_bounds.h"
#include "lpsolve/simplex.h"
#include "obs/obs.h"
#include "search/record.h"

namespace tempofair::search {
namespace {

// Small budgets keep the LP certifications (the expensive stage)
// test-sized; the search semantics are identical at every budget.
SearchOptions tiny_options() {
  SearchOptions so;
  so.policy = "rr";
  so.k = 2.0;
  so.seed = 42;
  so.budget = 40;
  so.max_jobs = 8;
  return so;
}

TEST(AdversaryRecordJson, RoundTripsExactly) {
  AdversaryRecord rec;
  rec.policy = "qrr:0.25,0.01";
  rec.k = 3.0;
  rec.machines = 2;
  rec.speed = 1.5;
  rec.seed = 123456789012345ull;
  rec.budget = 4000;
  rec.evals = 1234;
  rec.family = "search";
  rec.releases = {0.0, 0.1 + 0.2, 1e-9};  // 0.30000000000000004: needs %.17g
  rec.sizes = {1.0, 1e6, 3.0000000000000004};
  rec.lp_slot = 0.017857142857142856;
  rec.cost_power = 398.56520140625003;
  rec.certified_lb = 43.85499999999999;
  rec.ratio = 3.0146724443224073;

  const std::string json = record_to_json(rec);
  const AdversaryRecord back = record_from_json(json);
  EXPECT_EQ(back.policy, rec.policy);
  EXPECT_EQ(back.seed, rec.seed);
  EXPECT_EQ(back.budget, rec.budget);
  EXPECT_EQ(back.evals, rec.evals);
  EXPECT_EQ(back.family, rec.family);
  EXPECT_EQ(back.machines, rec.machines);
  EXPECT_EQ(back.releases, rec.releases);  // bitwise: %.17g round-trips
  EXPECT_EQ(back.sizes, rec.sizes);
  EXPECT_EQ(back.lp_slot, rec.lp_slot);
  EXPECT_EQ(back.cost_power, rec.cost_power);
  EXPECT_EQ(back.certified_lb, rec.certified_lb);
  EXPECT_EQ(back.ratio, rec.ratio);
  // And the serialization itself is a fixed point.
  EXPECT_EQ(record_to_json(back), json);
}

TEST(AdversaryRecordJson, RejectsMalformedInput) {
  AdversaryRecord rec;
  rec.releases = {0.0};
  rec.sizes = {1.0};
  const std::string good = record_to_json(rec);

  EXPECT_THROW((void)record_from_json(""), std::invalid_argument);
  EXPECT_THROW((void)record_from_json("{}"), std::invalid_argument);
  EXPECT_THROW((void)record_from_json(good + "x"), std::invalid_argument);

  std::string wrong_format = good;
  const auto pos = wrong_format.find("adversary-v1");
  wrong_format.replace(pos, 12, "adversary-v9");
  EXPECT_THROW((void)record_from_json(wrong_format), std::invalid_argument);

  std::string uneven = good;
  const auto sizes_pos = uneven.find("\"sizes\": [");
  uneven.replace(sizes_pos, 11, "\"sizes\": [2, ");
  EXPECT_THROW((void)record_from_json(uneven), std::invalid_argument);
}

TEST(AdversarySearch, DeterministicUnderFixedSeed) {
  const SearchOptions so = tiny_options();
  const SearchResult a = search_adversary(so);
  const SearchResult b = search_adversary(so);
  ASSERT_TRUE(a.found);
  ASSERT_TRUE(b.found);
  // Byte-identical archived records, not just close ratios.
  EXPECT_EQ(record_to_json(a.best), record_to_json(b.best));
  EXPECT_EQ(a.stats.evals, b.stats.evals);
  EXPECT_EQ(a.stats.certifications, b.stats.certifications);
  EXPECT_EQ(a.stats.improvements, b.stats.improvements);
}

TEST(AdversarySearch, SearchOutputReVerifies) {
  const SearchResult res = search_adversary(tiny_options());
  ASSERT_TRUE(res.found);
  const VerifyReport rep = verify_record(res.best);
  EXPECT_TRUE(rep.ok) << rep.error;

  // And survives the JSON round trip (what the nightly job re-verifies).
  const AdversaryRecord back = record_from_json(record_to_json(res.best));
  const VerifyReport rep2 = verify_record(back);
  EXPECT_TRUE(rep2.ok) << rep2.error;
}

TEST(AdversarySearch, TamperedRecordFailsVerification) {
  const SearchResult res = search_adversary(tiny_options());
  ASSERT_TRUE(res.found);

  AdversaryRecord inflated = res.best;
  inflated.ratio *= 1.01;  // claim a better ratio than the instance yields
  EXPECT_FALSE(verify_record(inflated).ok);

  AdversaryRecord wrong_lb = res.best;
  wrong_lb.certified_lb *= 0.5;  // understate the certified denominator
  EXPECT_FALSE(verify_record(wrong_lb).ok);

  AdversaryRecord wrong_instance = res.best;
  wrong_instance.sizes.front() *= 2.0;  // different instance, same claims
  EXPECT_FALSE(verify_record(wrong_instance).ok);

  AdversaryRecord bad_slot = res.best;
  bad_slot.lp_slot = 0.0;  // cannot rebuild the certificate's grid
  EXPECT_FALSE(verify_record(bad_slot).ok);

  // A fine lp_slot asks for a grid far finer than any the search builds: it
  // must be refused from the grid alone, before any node or arc is
  // allocated, leaving the trivial bound (whose ratio does not match the
  // record's).
  AdversaryRecord fine_slot = res.best;
  fine_slot.lp_slot = 0.01;
  obs::Sink counters;
  {
    const obs::ScopedSink scope(&counters);
    EXPECT_FALSE(verify_record(fine_slot).ok);
  }
  EXPECT_EQ(counters.value("search.certify.oversized_lp"), 1u);

  // The grid starts at the first release even when that job is too small
  // for the LP: a leading tiny job and a far later release ask for about
  // 1e8 slots but only a few hundred job->slot arcs, so the slot count
  // alone must refuse it.
  AdversaryRecord long_grid = res.best;
  long_grid.releases = {0.0, 1e6};
  long_grid.sizes = {lpsolve::kMinLpJobSize / 10.0, 1.0};
  long_grid.lp_slot = 0.01;
  lpsolve::FlowtimeLpOptions lp;
  lp.k = long_grid.k;
  lp.machines = long_grid.machines;
  lp.slot = long_grid.lp_slot;
  const std::vector<std::pair<Time, Work>> long_pairs{
      {0.0, long_grid.sizes[0]}, {1e6, 1.0}};
  const Instance long_inst = Instance::from_pairs(long_pairs);
  EXPECT_GT(lpsolve::flowtime_lp_num_slots(long_inst, lp), 100'000'000u);
  EXPECT_LT(lpsolve::flowtime_lp_num_vars(long_inst, lp), 1000u);
  counters.clear();
  {
    const obs::ScopedSink scope(&counters);
    EXPECT_FALSE(verify_record(long_grid).ok);
  }
  EXPECT_EQ(counters.value("search.certify.oversized_lp"), 1u);

  // A slot count beyond 2^53 cannot even be converted to an integer.
  AdversaryRecord absurd_slot = res.best;
  absurd_slot.lp_slot = 1e-300;
  EXPECT_FALSE(verify_record(absurd_slot).ok);
}

TEST(AdversarySearch, MatchesOrBeatsHandBuiltBaseline) {
  // The acceptance bar: the k=2 search starts from the certified
  // Bansal-Pruhs batch+stream seed, so its best ratio can only fall below
  // the baseline if certification regressed.
  const SearchOptions so = tiny_options();
  const CertifiedEval baseline = baseline_hard_family(so);
  ASSERT_TRUE(baseline.ok);
  EXPECT_GT(baseline.ratio, 1.0);

  const SearchResult res = search_adversary(so);
  ASSERT_TRUE(res.found);
  EXPECT_GE(res.best.ratio, baseline.ratio * (1.0 - 1e-9));
}

TEST(AdversarySearch, TwentyJobSearchCertifiesThroughTheLp) {
  // Every certification of a max_jobs = 20 search goes through the LP.
  SearchOptions so = tiny_options();
  so.max_jobs = 20;
  obs::Sink counters;
  SearchResult res;
  {
    const obs::ScopedSink scope(&counters);
    res = search_adversary(so);
  }
  ASSERT_TRUE(res.found);
  EXPECT_EQ(counters.value("search.certify.oversized_lp"), 0u);
  EXPECT_EQ(counters.value("lpcert.flow.certified"), res.stats.certifications);
  EXPECT_EQ(counters.value("lpcert.flow.uncertified"), 0u);
  EXPECT_TRUE(verify_record(res.best).ok);

  // One small job pins the grid at its 600-slot cap: 20 jobs then need
  // about 12k LP variables, more than a dense tableau could hold, and the
  // MCMF certificate must still carry the denominator.
  const auto seeds = seed_instances(so);
  std::vector<std::pair<Time, Work>> pairs;
  for (const Job& j : seeds.front().second.jobs()) {
    pairs.emplace_back(j.release, j.size);
  }
  ASSERT_EQ(pairs.size(), 20u);
  pairs.front().second = 0.01;
  const Instance pinned = Instance::from_pairs(pairs);
  counters.clear();
  CertifiedEval eval;
  {
    const obs::ScopedSink scope(&counters);
    eval = evaluate_certified(pinned, so);
  }
  ASSERT_TRUE(eval.ok);
  lpsolve::FlowtimeLpOptions lp;
  lp.k = so.k;
  lp.slot = eval.lp_slot;
  EXPECT_GT(lpsolve::flowtime_lp_num_vars(pinned, lp), 8000u);
  EXPECT_EQ(counters.value("search.certify.oversized_lp"), 0u);
  EXPECT_EQ(counters.value("lpcert.flow.certified"), 1u);
  EXPECT_GT(eval.certified_lb,
            lpsolve::certified_trivial_bound(pinned, so.k).value);
}

TEST(AdversarySearch, CertifiedLbIsTheMcmfCertificateWithinTheDenseOptimum) {
  // Differential check with the dense path as the oracle: the search's
  // denominator is exactly max(certified trivial bound, MCMF certificate /
  // 2), and the MCMF certificate sits within 1e-7 (relative) below the
  // dense exact optimum on the same grid.
  for (const int m : {1, 2}) {
    for (const double k : {1.0, 2.0, 3.0}) {
      SearchOptions so = tiny_options();
      so.max_jobs = 6;
      so.machines = m;
      so.k = k;
      for (const auto& [family, inst] : seed_instances(so)) {
        SCOPED_TRACE(family + " m=" + std::to_string(m) +
                     " k=" + std::to_string(k));
        const CertifiedEval eval = evaluate_certified(inst, so);
        ASSERT_TRUE(eval.ok);

        lpsolve::FlowtimeLpOptions lp;
        lp.k = k;
        lp.machines = m;
        lp.slot = eval.lp_slot;
        EXPECT_EQ(eval.lp_slot, lpsolve::auto_lp_slot(inst, m));
        const lpsolve::CertifiedBound mcmf =
            lpsolve::solve_flowtime_lp(inst, lp).certificate;
        const lpsolve::CertifiedBound trivial =
            lpsolve::certified_trivial_bound(inst, k);
        ASSERT_TRUE(mcmf.certified);
        ASSERT_TRUE(trivial.certified);
        EXPECT_EQ(eval.certified_lb, std::max(trivial.value, mcmf.value / 2.0));

        const lpsolve::LinearProgram dense =
            lpsolve::build_flowtime_lp(inst, lp);
        const lpsolve::CertifiedBound exact =
            lpsolve::verify_certificate(dense, lpsolve::solve_lp(dense));
        ASSERT_TRUE(exact.certified);
        const double d = exact.value / 2.0;
        EXPECT_LE(mcmf.value / 2.0, d);
        EXPECT_GE(mcmf.value / 2.0, (1.0 - 1e-7) * d);
        const double oracle = std::max(trivial.value, d);
        EXPECT_LE(eval.certified_lb, oracle);
        EXPECT_GE(eval.certified_lb, (1.0 - 1e-7) * oracle);
      }
    }
  }
}

TEST(AdversarySearch, DegenerateInstancesDoNotCertify) {
  // Denormal sizes give an lb below DBL_MIN: the evaluation must refuse to
  // form a ratio (the search skips such candidates, never archives them).
  std::vector<std::pair<Time, Work>> pairs;
  for (int i = 0; i < 4; ++i) pairs.emplace_back(0.0, 1e-170);
  const Instance inst = Instance::from_pairs(pairs);
  const CertifiedEval eval = evaluate_certified(inst, tiny_options());
  EXPECT_FALSE(eval.ok);
  EXPECT_DOUBLE_EQ(eval.ratio, 0.0);
}

TEST(AdversarySearch, SeedFamiliesRespectJobCap) {
  SearchOptions so = tiny_options();
  so.max_jobs = 10;
  for (const auto& [family, inst] : seed_instances(so)) {
    EXPECT_GE(inst.n(), 2u) << family;
    EXPECT_LE(inst.n(), so.max_jobs) << family;
  }
}

TEST(AdversarySearch, RejectsInvalidOptions) {
  SearchOptions so = tiny_options();
  so.policy = "no-such-policy";
  EXPECT_THROW((void)search_adversary(so), std::invalid_argument);
  so = tiny_options();
  so.k = 0.5;
  EXPECT_THROW((void)search_adversary(so), std::invalid_argument);
  so = tiny_options();
  so.budget = 0;
  EXPECT_THROW((void)search_adversary(so), std::invalid_argument);
  so = tiny_options();
  so.max_jobs = 2;
  EXPECT_THROW((void)search_adversary(so), std::invalid_argument);
}

TEST(AdversarySearch, RecordCarriesItsProvenance) {
  const SearchOptions so = tiny_options();
  const SearchResult res = search_adversary(so);
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.best.policy, so.policy);
  EXPECT_DOUBLE_EQ(res.best.k, so.k);
  EXPECT_EQ(res.best.seed, so.seed);
  EXPECT_EQ(res.best.budget, so.budget);
  EXPECT_LE(res.best.sizes.size(), so.max_jobs);
  EXPECT_GT(res.best.certified_lb, 0.0);
  EXPECT_GT(res.best.cost_power, 0.0);
  EXPECT_NEAR(res.best.ratio,
              std::pow(res.best.cost_power / res.best.certified_lb, 0.5),
              1e-12);
}

}  // namespace
}  // namespace tempofair::search
