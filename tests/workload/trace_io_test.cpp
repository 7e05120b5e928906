#include "workload/trace_io.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "workload/generators.h"

namespace tempofair::workload {
namespace {

[[nodiscard]] std::filesystem::path temp_file(const std::string& name) {
  return std::filesystem::temp_directory_path() / name;
}

/// Hand-crafts a binary trace file so tests can produce headers and column
/// payloads write_binary() never emits (bad magic, cleared sorted flag,
/// truncated columns, non-finite values).
void craft_binary(const std::filesystem::path& path, const char* magic,
                  std::uint64_t n, std::uint8_t flags,
                  const std::vector<double>& columns) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << path;
  out.write(magic, 8);
  out.write(reinterpret_cast<const char*>(&n), sizeof n);
  out.write(reinterpret_cast<const char*>(&flags), sizeof flags);
  for (const double v : columns) {
    out.write(reinterpret_cast<const char*>(&v), sizeof v);
  }
}

void expect_same_jobs(const Instance& a, const Instance& b) {
  ASSERT_EQ(a.n(), b.n());
  for (JobId j = 0; j < static_cast<JobId>(a.n()); ++j) {
    EXPECT_EQ(a.job(j).release, b.job(j).release) << "job " << j;
    EXPECT_EQ(a.job(j).size, b.job(j).size) << "job " << j;
    EXPECT_EQ(a.job(j).weight, b.job(j).weight) << "job " << j;
  }
}

TEST(TraceIo, RoundTripThroughStream) {
  Rng rng(1);
  const Instance inst = detail::poisson_stream(
      25, 1.3, ExponentialSize{2.7}, rng);
  std::stringstream ss;
  write_csv(inst, ss);
  const Instance back = read_csv(ss);
  ASSERT_EQ(back.n(), inst.n());
  for (JobId j = 0; j < inst.n(); ++j) {
    EXPECT_DOUBLE_EQ(back.job(j).release, inst.job(j).release);
    EXPECT_DOUBLE_EQ(back.job(j).size, inst.job(j).size);
  }
}

TEST(TraceIo, HeaderIsWritten) {
  const Instance inst = Instance::batch(std::vector<Work>{1.0});
  std::stringstream ss;
  write_csv(inst, ss);
  std::string first_line;
  std::getline(ss, first_line);
  EXPECT_EQ(first_line, "id,release,size,weight");
}

TEST(TraceIo, WeightsRoundTrip) {
  const Instance inst = Instance::from_jobs(
      {Job{0, 0.0, 1.0, 2.5}, Job{1, 1.0, 2.0, 0.125}});
  std::stringstream ss;
  write_csv(inst, ss);
  const Instance back = read_csv(ss);
  EXPECT_DOUBLE_EQ(back.job(0).weight, 2.5);
  EXPECT_DOUBLE_EQ(back.job(1).weight, 0.125);
}

TEST(TraceIo, ThreeColumnInputDefaultsWeightToOne) {
  std::stringstream ss("id,release,size\n0,0.0,1.0\n");
  const Instance inst = read_csv(ss);
  EXPECT_DOUBLE_EQ(inst.job(0).weight, 1.0);
}

TEST(TraceIo, BadWeightRejected) {
  std::stringstream ss("id,release,size,weight\n0,0.0,1.0,-2\n");
  EXPECT_THROW((void)read_csv(ss), std::runtime_error);
}

TEST(TraceIo, MissingHeaderRejected) {
  std::stringstream ss("0,0.0,1.0\n");
  EXPECT_THROW((void)read_csv(ss), std::runtime_error);
}

TEST(TraceIo, MalformedLineRejected) {
  std::stringstream ss("id,release,size\n0,0.0\n");
  EXPECT_THROW((void)read_csv(ss), std::runtime_error);
}

TEST(TraceIo, NonNumericFieldRejected) {
  std::stringstream ss("id,release,size\n0,zero,1.0\n");
  EXPECT_THROW((void)read_csv(ss), std::runtime_error);
}

TEST(TraceIo, NegativeIdRejected) {
  std::stringstream ss("id,release,size\n-1,0.0,1.0\n");
  EXPECT_THROW((void)read_csv(ss), std::runtime_error);
}

TEST(TraceIo, DuplicateIdsRejected) {
  std::stringstream ss("id,release,size\n0,0.0,1.0\n0,1.0,1.0\n");
  EXPECT_THROW((void)read_csv(ss), std::runtime_error);
}

TEST(TraceIo, EmptyLinesSkipped) {
  std::stringstream ss("id,release,size\n0,0.0,1.0\n\n1,1.0,2.0\n");
  const Instance inst = read_csv(ss);
  EXPECT_EQ(inst.n(), 2u);
}

TEST(TraceIo, BadSizeSurfacesAsParseError) {
  std::stringstream ss("id,release,size\n0,0.0,-1.0\n");
  EXPECT_THROW((void)read_csv(ss), std::runtime_error);
}

TEST(TraceIo, FileRoundTrip) {
  const auto path =
      std::filesystem::temp_directory_path() / "tempofair_trace_test.csv";
  Rng rng(5);
  const Instance inst = detail::poisson_stream(
      10, 1.0, UniformSize{0.5, 2.0}, rng);
  write_csv_file(inst, path.string());
  const Instance back = read_csv_file(path.string());
  EXPECT_EQ(back.n(), inst.n());
  std::filesystem::remove(path);
}

TEST(TraceIo, MissingFileRejected) {
  EXPECT_THROW((void)read_csv_file("/nonexistent/path/trace.csv"),
               std::runtime_error);
}

TEST(TraceIo, UnwritablePathRejected) {
  const Instance inst = Instance::batch(std::vector<Work>{1.0});
  EXPECT_THROW(write_csv_file(inst, "/nonexistent/dir/out.csv"),
               std::runtime_error);
}

TEST(TraceIo, CsvNonFiniteFieldRejected) {
  std::stringstream nan_release("id,release,size\n0,nan,1.0\n");
  EXPECT_THROW((void)read_csv(nan_release), std::runtime_error);
  std::stringstream inf_size("id,release,size\n0,0.0,inf\n");
  EXPECT_THROW((void)read_csv(inf_size), std::runtime_error);
}

// --- binary columnar format --------------------------------------------------

TEST(TraceIoBinary, RoundTripThroughStream) {
  Rng rng(11);
  const Instance inst = detail::poisson_stream(
      40, 0.9, ParetoSize{1.8, 0.5}, rng);
  std::stringstream ss;
  write_binary(inst, ss);
  const Instance back = read_binary(ss);
  expect_same_jobs(inst, back);
}

TEST(TraceIoBinary, CsvAndBinaryRoundTripsAreByteIdentical) {
  // The acceptance path: instance -> CSV -> instance -> binary -> instance
  // with every field surviving both formats bitwise.
  Rng rng(12);
  Instance inst = detail::poisson_stream(
      60, 1.1, BimodalSize{0.8, 0.5, 4.0}, rng);
  inst = with_weights(inst, WeightScheme::kRandom, rng);
  std::stringstream csv;
  write_csv(inst, csv);
  const Instance via_csv = read_csv(csv);
  std::stringstream bin;
  write_binary(via_csv, bin);
  const Instance via_binary = read_binary(bin);
  expect_same_jobs(inst, via_csv);
  expect_same_jobs(inst, via_binary);
}

TEST(TraceIoBinary, FileSniffingDispatchesByMagic) {
  const auto csv_path = temp_file("tempofair_sniff.csv");
  const auto bin_path = temp_file("tempofair_sniff.bin");
  Rng rng(13);
  const Instance inst = detail::poisson_stream(
      10, 1.0, ExponentialSize{1.0}, rng);
  write_csv_file(inst, csv_path.string());
  write_binary_file(inst, bin_path.string());
  EXPECT_FALSE(is_binary_trace_file(csv_path.string()));
  EXPECT_TRUE(is_binary_trace_file(bin_path.string()));
  expect_same_jobs(read_trace_file(csv_path.string()),
                   read_trace_file(bin_path.string()));
  std::filesystem::remove(csv_path);
  std::filesystem::remove(bin_path);
}

TEST(TraceIoBinary, BadMagicRejected) {
  const auto path = temp_file("tempofair_bad_magic.bin");
  craft_binary(path, "TFTRACE9", 1, 0x02, {0.0, 1.0});
  EXPECT_THROW((void)read_binary_file(path.string()), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(TraceIoBinary, TruncatedColumnsRejected) {
  // Header promises 4 jobs but only one full column follows.
  const auto path = temp_file("tempofair_truncated.bin");
  craft_binary(path, "TFTRACE1", 4, 0x02, {0.0, 1.0, 2.0, 3.0, 1.0});
  EXPECT_THROW((void)read_binary_file(path.string()), std::runtime_error);
  EXPECT_THROW(BinaryTraceStream(path.string()), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(TraceIoBinary, NonFiniteValuesRejected) {
  const auto path = temp_file("tempofair_nan.bin");
  craft_binary(path, "TFTRACE1", 2, 0x02,
               {0.0, std::nan(""), 1.0, 1.0});  // NaN release in row 1
  EXPECT_THROW((void)read_binary_file(path.string()), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(TraceIoBinary, NonPositiveSizeRejected) {
  const auto path = temp_file("tempofair_zero_size.bin");
  craft_binary(path, "TFTRACE1", 1, 0x02, {0.0, 0.0});
  EXPECT_THROW((void)read_binary_file(path.string()), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(TraceIoBinary, ProbeReadsHeaderOnly) {
  const auto bin_path = temp_file("tempofair_probe.bin");
  const auto csv_path = temp_file("tempofair_probe.csv");
  Rng rng(14);
  const Instance inst = detail::poisson_stream(
      17, 1.0, ExponentialSize{1.0}, rng);
  write_binary_file(inst, bin_path.string());
  write_csv_file(inst, csv_path.string());

  const TraceInfo bin_info = probe_trace_file(bin_path.string());
  EXPECT_EQ(bin_info.n, 17u);
  EXPECT_TRUE(bin_info.binary);
  EXPECT_TRUE(bin_info.streamable);  // write_binary always sorts

  const TraceInfo csv_info = probe_trace_file(csv_path.string());
  EXPECT_EQ(csv_info.n, 17u);
  EXPECT_FALSE(csv_info.binary);
  EXPECT_TRUE(csv_info.streamable);  // write_csv emits release order
  std::filesystem::remove(bin_path);
  std::filesystem::remove(csv_path);
}

TEST(TraceIoBinary, HugeHeaderCountRejectedWithoutAllocating) {
  // A crafted n like 2^61 wraps the columns*n*sizeof(double) product in
  // uint64; the truncation check must reject the header up front instead
  // of passing and deferring failure to a giant column resize.
  const auto path = temp_file("tempofair_huge_n.bin");
  craft_binary(path, "TFTRACE1", std::uint64_t{1} << 61, 0x02, {0.0, 1.0});
  EXPECT_THROW((void)probe_trace_file(path.string()), std::runtime_error);
  EXPECT_THROW(BinaryTraceStream(path.string()), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(TraceIoStream, ProbeDetectsUnsortedCsv) {
  // A valid-but-unsorted CSV is not streamable: the counting pre-pass
  // discovers the row order, so probe-driven callers (TraceSource)
  // materialize instead of taking the streaming path and dying mid-replay.
  const auto path = temp_file("tempofair_probe_unsorted.csv");
  {
    std::ofstream out(path);
    out << "id,release,size\n0,5.0,1.0\n1,1.0,1.0\n";
  }
  const TraceInfo info = probe_trace_file(path.string());
  EXPECT_EQ(info.n, 2u);
  EXPECT_FALSE(info.streamable);
  EXPECT_FALSE(CsvTraceStream(path.string()).sequential());

  // Ids out of sequence are equally non-streamable, and the materializing
  // reader still accepts both spellings.
  {
    std::ofstream out(path);
    out << "id,release,size\n1,0.0,1.0\n0,1.0,1.0\n";
  }
  EXPECT_FALSE(probe_trace_file(path.string()).streamable);
  EXPECT_EQ(read_csv_file(path.string()).n(), 2u);
  std::filesystem::remove(path);
}

// --- streaming readers -------------------------------------------------------

TEST(TraceIoStream, CsvStreamMatchesMaterializedReader) {
  const auto path = temp_file("tempofair_stream.csv");
  Rng rng(15);
  const Instance inst = detail::poisson_stream(
      50, 1.2, ExponentialSize{2.0}, rng);
  write_csv_file(inst, path.string());

  CsvTraceStream stream(path.string());
  ASSERT_EQ(stream.n(), inst.n());
  for (JobId j = 0; j < static_cast<JobId>(inst.n()); ++j) {
    const Job job = stream.next();
    EXPECT_EQ(job.id, j);
    EXPECT_EQ(job.release, inst.job(j).release);
    EXPECT_EQ(job.size, inst.job(j).size);
    EXPECT_EQ(job.weight, inst.job(j).weight);
  }
  std::filesystem::remove(path);
}

TEST(TraceIoStream, BinaryStreamRefillsAcrossBlocks) {
  // More rows than one buffered block, so next() exercises refill().
  const std::size_t n = BinaryTraceStream::kBlock + 257;
  const auto path = temp_file("tempofair_blocks.bin");
  const Instance inst = detail::uniform_stream(n, 0.25, 1.0);
  write_binary_file(inst, path.string());

  BinaryTraceStream stream(path.string());
  ASSERT_EQ(stream.n(), n);
  for (JobId j = 0; j < static_cast<JobId>(n); ++j) {
    const Job job = stream.next();
    EXPECT_EQ(job.id, j);
    ASSERT_EQ(job.release, inst.job(j).release) << "job " << j;
    ASSERT_EQ(job.size, inst.job(j).size) << "job " << j;
  }
  std::filesystem::remove(path);
}

TEST(TraceIoStream, CsvStreamRejectsOutOfOrderRows) {
  const auto path = temp_file("tempofair_unsorted.csv");
  {
    std::ofstream out(path);
    out << "id,release,size\n0,5.0,1.0\n1,1.0,1.0\n";
  }
  CsvTraceStream stream(path.string());
  (void)stream.next();
  EXPECT_THROW((void)stream.next(), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(TraceIoStream, BinaryStreamRequiresSortedFlag) {
  const auto path = temp_file("tempofair_no_sorted_flag.bin");
  craft_binary(path, "TFTRACE1", 1, 0x00, {0.0, 1.0});
  EXPECT_THROW(BinaryTraceStream(path.string()), std::runtime_error);
  // The materializing reader still accepts it (it relabels).
  const Instance inst = read_binary_file(path.string());
  EXPECT_EQ(inst.n(), 1u);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace tempofair::workload
