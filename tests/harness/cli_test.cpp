#include "harness/cli.h"

#include <gtest/gtest.h>

#include <sstream>

namespace tempofair::harness {
namespace {

// ---------------------------------------------------------------------------
// Options / Parsed -- the typed registration API.

Options standard_options() {
  Options opt("prog", "test program");
  opt.flag("csv", "emit CSV")
      .value("seed", 42, "rng seed")
      .value("speed", 4.4, "processor speed")
      .value("name", std::string("rr"), "policy name");
  return opt;
}

Parsed parse(const Options& opt, std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return opt.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Options, TypedDefaults) {
  const Parsed p = parse(standard_options(), {});
  EXPECT_FALSE(p.flag("csv"));
  EXPECT_EQ(p.get_int("seed"), 42);
  EXPECT_DOUBLE_EQ(p.get_double("speed"), 4.4);
  EXPECT_EQ(p.get_string("name"), "rr");
  EXPECT_FALSE(p.given("seed"));
}

TEST(Options, TypedValuesFromArgv) {
  const Parsed p = parse(standard_options(),
                         {"--csv", "--seed", "7", "--speed=2.5", "--name", "setf"});
  EXPECT_TRUE(p.flag("csv"));
  EXPECT_TRUE(p.given("seed"));
  EXPECT_EQ(p.get_int("seed"), 7);
  EXPECT_DOUBLE_EQ(p.get_double("speed"), 2.5);
  EXPECT_EQ(p.get_string("name"), "setf");
}

TEST(Options, UnknownFlagIsHardError) {
  EXPECT_THROW((void)parse(standard_options(), {"--sede", "7"}), CliError);
  try {
    (void)parse(standard_options(), {"--sede"});
  } catch (const CliError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--sede"), std::string::npos) << what;
  }
}

TEST(Options, FlagGivenValueIsError) {
  EXPECT_THROW((void)parse(standard_options(), {"--csv=yes"}), CliError);
}

TEST(Options, MissingValueIsError) {
  EXPECT_THROW((void)parse(standard_options(), {"--seed"}), CliError);
  EXPECT_THROW((void)parse(standard_options(), {"--seed", "--csv"}), CliError);
  // A valued option never swallows the next flag as its value, even when
  // the value would parse (a string option accepts any text).
  try {
    (void)parse(standard_options(), {"--name", "--csv", "x"});
    FAIL() << "expected CliError";
  } catch (const CliError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--name"), std::string::npos) << what;
    EXPECT_NE(what.find("missing value"), std::string::npos) << what;
  }
  // An inline value may start with "--"; a negative number is a value.
  const Parsed inline_value = parse(standard_options(), {"--name=--csv"});
  EXPECT_EQ(inline_value.get_string("name"), "--csv");
  EXPECT_FALSE(inline_value.flag("csv"));
  EXPECT_EQ(parse(standard_options(), {"--seed", "-5"}).get_int("seed"), -5);
}

TEST(Options, MalformedValueNamesFlag) {
  try {
    (void)parse(standard_options(), {"--seed", "42abc"});
    FAIL() << "expected CliError";
  } catch (const CliError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--seed"), std::string::npos) << what;
    EXPECT_NE(what.find("42abc"), std::string::npos) << what;
  }
  EXPECT_THROW((void)parse(standard_options(), {"--speed", "fast"}), CliError);
  // Strict doubles: the whole token must parse.
  for (const char* bad : {"1.2.3", "0.5x"}) {
    EXPECT_THROW((void)parse(standard_options(), {"--speed", bad}), CliError)
        << bad;
  }
}

TEST(Options, HelpRequested) {
  const Parsed p = parse(standard_options(), {"--help"});
  EXPECT_TRUE(p.help_requested());
}

TEST(Options, HelpTextListsRegistrations) {
  std::ostringstream out;
  standard_options().print_help(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("prog"), std::string::npos);
  EXPECT_NE(text.find("--csv"), std::string::npos);
  EXPECT_NE(text.find("--seed"), std::string::npos);
  EXPECT_NE(text.find("rng seed"), std::string::npos);
  EXPECT_NE(text.find("42"), std::string::npos);  // default shown
  EXPECT_NE(text.find("--help"), std::string::npos);
}

TEST(Options, PositionalsPassThrough) {
  const Parsed p = parse(standard_options(), {"a.trace", "--csv", "b.trace"});
  ASSERT_EQ(p.positional().size(), 2u);
  EXPECT_EQ(p.positional()[0], "a.trace");
  EXPECT_EQ(p.positional()[1], "b.trace");
}

TEST(Options, WrongTypeAccessThrows) {
  const Parsed p = parse(standard_options(), {});
  EXPECT_THROW((void)p.get_int("speed"), std::logic_error);
  EXPECT_THROW((void)p.get_double("unregistered"), std::logic_error);
}

// --- the shared run-flag vocabulary ----------------------------------------

Options run_options() {
  Options opt("prog", "run flags");
  add_run_flags(opt);
  return opt;
}

TEST(RunFlags, DefaultsMatchRunRequestDefaults) {
  const RunRequest request = run_request_from_flags(parse(run_options(), {}));
  const RunRequest defaults;
  EXPECT_EQ(request.policy, defaults.policy);
  EXPECT_EQ(request.machines, defaults.machines);
  EXPECT_EQ(request.speed, defaults.speed);
  EXPECT_EQ(request.record_trace, defaults.record_trace);
  EXPECT_EQ(request.hide_sizes, defaults.hide_sizes);
  EXPECT_EQ(request.max_time, defaults.max_time);
  EXPECT_EQ(request.max_steps, defaults.max_steps);
  EXPECT_EQ(request.use_fast_path, defaults.use_fast_path);
}

TEST(RunFlags, EveryFlagReachesTheRequest) {
  const RunRequest request = run_request_from_flags(
      parse(run_options(),
            {"--policy", "laps:0.5", "--machines", "4", "--speed=2.5",
             "--no-trace", "--hide-sizes", "--max-steps", "1000",
             "--max-time", "50", "--no-fast-path"}));
  EXPECT_EQ(request.policy, "laps:0.5");
  EXPECT_EQ(request.machines, 4);
  EXPECT_DOUBLE_EQ(request.speed, 2.5);
  EXPECT_FALSE(request.record_trace);
  EXPECT_TRUE(request.hide_sizes);
  EXPECT_EQ(request.max_steps, 1000u);
  EXPECT_DOUBLE_EQ(request.max_time, 50.0);
  EXPECT_FALSE(request.use_fast_path);
}

TEST(RunFlags, ZeroMaxTimeMeansUnbounded) {
  const RunRequest request =
      run_request_from_flags(parse(run_options(), {"--max-time", "0"}));
  EXPECT_EQ(request.max_time, kInfiniteTime);
}

TEST(RunFlags, RejectsOutOfRangeValues) {
  EXPECT_THROW(
      (void)run_request_from_flags(parse(run_options(), {"--machines", "0"})),
      CliError);
  EXPECT_THROW(
      (void)run_request_from_flags(parse(run_options(), {"--speed", "-1"})),
      CliError);
  EXPECT_THROW(
      (void)run_request_from_flags(parse(run_options(), {"--max-steps", "0"})),
      CliError);
  EXPECT_THROW(
      (void)run_request_from_flags(parse(run_options(), {"--max-time", "-2"})),
      CliError);
}

TEST(RunFlags, SharedGroupHelpersRegister) {
  Options opt("prog", "groups");
  add_jobs_flag(opt);
  add_quiet_flag(opt);
  add_smoke_flag(opt);
  add_seed_flag(opt, 7);
  const Parsed p =
      parse(opt, {"--jobs", "3", "--quiet", "--smoke"});
  EXPECT_EQ(p.get_int("jobs"), 3);
  EXPECT_TRUE(p.flag("quiet"));
  EXPECT_TRUE(p.flag("smoke"));
  EXPECT_EQ(p.get_int("seed"), 7);  // fallback honored
}

}  // namespace
}  // namespace tempofair::harness
