// CLI error paths: a long campaign driven by scripts must get a nonzero
// exit code and ONE structured "caya: error: ..." line on stderr — never a
// bare exception/terminate — for unknown profiles, malformed strategy DSL,
// malformed or missing flag values, unknown options, and unwritable output
// paths. The tests exec the real `caya` binary
// (CAYA_CLI_PATH, injected by CMake) and capture its stderr + exit status.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <string>

namespace caya {
namespace {

struct CliResult {
  int exit_code = -1;
  std::string stderr_text;
};

CliResult run_cli(const std::string& args) {
  // Redirect stderr into the pipe; stdout is discarded.
  const std::string command =
      std::string(CAYA_CLI_PATH) + " " + args + " 2>&1 1>/dev/null";
  FILE* pipe = ::popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  CliResult result;
  std::array<char, 512> buffer;
  while (std::fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    result.stderr_text += buffer.data();
  }
  const int status = ::pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

void expect_structured_error(const CliResult& result,
                             const std::string& needle) {
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_EQ(result.stderr_text.rfind("caya: error: ", 0), 0u)
      << "stderr was: " << result.stderr_text;
  EXPECT_NE(result.stderr_text.find(needle), std::string::npos)
      << "stderr was: " << result.stderr_text;
  // One line only: exactly one trailing newline.
  EXPECT_EQ(result.stderr_text.find('\n'),
            result.stderr_text.size() - 1)
      << "stderr was: " << result.stderr_text;
}

TEST(CliErrors, UnknownProfileIsStructured) {
  expect_structured_error(
      run_cli("run --trials 1 --profile marshmallow"),
      "unknown profile \"marshmallow\"");
}

TEST(CliErrors, UnknownCountryIsStructured) {
  expect_structured_error(run_cli("run --trials 1 --country atlantis"),
                          "unknown country \"atlantis\"");
}

TEST(CliErrors, UnknownProtocolIsStructured) {
  expect_structured_error(run_cli("run --trials 1 --protocol gopher"),
                          "unknown protocol");
}

TEST(CliErrors, BadStrategyDslIsStructured) {
  expect_structured_error(
      run_cli("run --trials 1 --strategy \"[TCP:flags:\""),
      "bad strategy");
}

TEST(CliErrors, MalformedNumberIsStructured) {
  // Neither may be read as 0 trials or as a wrapped-around SIZE_MAX.
  expect_structured_error(run_cli("run --trials abc"),
                          "invalid value \"abc\" for --trials");
  expect_structured_error(run_cli("run --trials 1 --jobs -1"),
                          "invalid value \"-1\" for --jobs");
}

TEST(CliErrors, UnknownOptionIsStructured) {
  expect_structured_error(run_cli("run --trails 5"),
                          "unknown option \"--trails\"");
}

TEST(CliErrors, MissingFlagValueIsStructured) {
  expect_structured_error(run_cli("run --trials"), "--trials needs a value");
}

TEST(CliErrors, UnwritableHistoryOutIsStructured) {
  // The parent directory does not exist, so the ofstream open fails.
  expect_structured_error(
      run_cli("evolve --population 4 --gens 1 --jobs 1 "
              "--history-out /nonexistent-dir-xyzzy/h.tsv"),
      "cannot write history file");
}

TEST(CliErrors, UnwritableCheckpointDirIsStructured) {
  expect_structured_error(
      run_cli("sweep --trials 1 --checkpoint-dir /proc/zero/nope"),
      "cannot create checkpoint dir");
}

TEST(CliErrors, ResumeWithoutCheckpointDirIsStructured) {
  expect_structured_error(run_cli("evolve --resume"),
                          "--resume requires --checkpoint-dir");
}

TEST(CliErrors, SuccessPathStillExitsZero) {
  const CliResult result = run_cli("list");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_TRUE(result.stderr_text.empty()) << result.stderr_text;
}

TEST(CliErrors, ReplayMissingFileIsStructured) {
  expect_structured_error(
      run_cli("replay /nonexistent-dir-xyzzy/capture.pcap --country china"),
      "cannot open");
}

// A damaged capture: valid pcap global header, then a partial record
// header. Strict replay reports the file offset of the bad record; the
// --lenient flag skips it instead.
TEST(CliErrors, ReplayTruncatedPcapIsStructuredWithOffset) {
  const std::string path = ::testing::TempDir() + "/caya_cli_truncated.pcap";
  {
    // 24-byte little-endian usec pcap header + 10 stray bytes.
    const unsigned char header[] = {0xd4, 0xc3, 0xb2, 0xa1, 0x02, 0x00,
                                    0x04, 0x00, 0x00, 0x00, 0x00, 0x00,
                                    0x00, 0x00, 0x00, 0x00, 0xff, 0xff,
                                    0x00, 0x00, 0x65, 0x00, 0x00, 0x00};
    std::FILE* file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    std::fwrite(header, 1, sizeof(header), file);
    const unsigned char junk[10] = {};
    std::fwrite(junk, 1, sizeof(junk), file);
    std::fclose(file);
  }
  expect_structured_error(
      run_cli("replay " + path + " --country china"),
      "truncated pcap record at offset 24");
  const CliResult lenient =
      run_cli("replay " + path + " --country china --lenient");
  EXPECT_EQ(lenient.exit_code, 0);
  EXPECT_TRUE(lenient.stderr_text.empty()) << lenient.stderr_text;
  std::remove(path.c_str());
}

// Version-1 checkpoints hold the previous Rng engine's stream; resuming one
// would splice two streams into one result. The corpus files were written by
// the last version-1 build with
//   caya sweep --country china --protocol http --published 1 --trials 2
//     --seed 1 --jobs 1 --checkpoint-dir D   (D/sweep.ckpt.1: 11 of 12 cells)
//   caya evolve --country china --protocol http --population 4 --gens 1
//     --seed 1 --jobs 1 --checkpoint-dir D   (D/evolve.ckpt)
void expect_version1_resume_refused(const std::string& kind,
                                    const std::string& args,
                                    const std::string& output_flag) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / ("caya_v1_" + kind);
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path corpus = fs::path(CAYA_CORPUS_DIR) / "checkpoints";
  fs::copy_file(corpus / ("v1_" + kind + ".ckpt"), dir / (kind + ".ckpt"));
  const fs::path output = dir / "output.txt";
  expect_structured_error(
      run_cli(args + " --checkpoint-dir " + dir.string() + " --resume " +
              output_flag + " " + output.string()),
      "unsupported snapshot version 1");
  EXPECT_FALSE(fs::exists(output)) << output_flag << " was written";
  fs::remove_all(dir);
}

TEST(CliErrors, SweepResumeRefusesVersion1Checkpoint) {
  expect_version1_resume_refused(
      "sweep",
      "sweep --country china --protocol http --published 1 --trials 2 "
      "--seed 1 --jobs 1",
      "--table-out");
}

TEST(CliErrors, EvolveResumeRefusesVersion1Checkpoint) {
  expect_version1_resume_refused(
      "evolve",
      "evolve --country china --protocol http --population 4 --gens 1 "
      "--seed 1 --jobs 1",
      "--history-out");
}

TEST(CliErrors, FuzzUnknownCensorIsStructured) {
  expect_structured_error(run_cli("fuzz --censor atlantis --iters 1"),
                          "unknown country \"atlantis\"");
}

TEST(CliErrors, FuzzReproRequiresCensor) {
  expect_structured_error(run_cli("fuzz --repro some.pcap"),
                          "--repro needs --censor");
}

TEST(CliErrors, FuzzSmokeCampaignExitsZero) {
  const CliResult result =
      run_cli("fuzz --censor india --iters 20 --seed 1 --jobs 2");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_TRUE(result.stderr_text.empty()) << result.stderr_text;
}

}  // namespace
}  // namespace caya
