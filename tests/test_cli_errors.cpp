// The `caya` binary end to end. Error paths: a long campaign driven by
// scripts must get a nonzero exit code and ONE structured "caya: error: ..."
// line on stderr — never a bare exception/terminate — for unknown names,
// malformed strategy DSL, malformed or missing flag values, unknown options,
// and unwritable output paths. Resume: a checkpointed evolve, sweep or serve
// job resumed from a partial snapshot writes the uninterrupted run's output.
// The tests exec the real binary (CAYA_CLI_PATH, injected by CMake) and
// capture its stderr + exit status.
#include <gtest/gtest.h>

#include <array>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "eval/rates.h"
#include "eval/strategies.h"
#include "geneva/library.h"

namespace caya {
namespace {

struct CliResult {
  int exit_code = -1;
  std::string stderr_text;
};

CliResult run_cli(const std::string& args,
                  const std::string& stdout_path = "/dev/null") {
  // Redirect stderr into the pipe; stdout goes to `stdout_path`.
  const std::string command = std::string(CAYA_CLI_PATH) + " " + args +
                              " 2>&1 1>" + stdout_path;
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

// A one-entry library ("evolved") for the --from and `library` paths.
std::string write_library(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  StrategyLibrary library;
  library.add({.name = "evolved",
               .success = 0.5,
               .notes = "",
               .dsl = "[TCP:flags:SA]-tamper{TCP:window:replace:10}-|"});
  library.save(path);
  return path;
}

TEST(CliErrors, RunFromMissingLibraryIsStructured) {
  expect_structured_error(
      run_cli("run --trials 1 --from /nonexistent-dir-xyzzy/lib.txt --name x"),
      "cannot open /nonexistent-dir-xyzzy/lib.txt");
}

TEST(CliErrors, RunFromMissingEntryIsStructured) {
  const std::string path = write_library("caya_cli_from.lib");
  expect_structured_error(run_cli("run --trials 1 --from " + path +
                                  " --name nope"),
                          "no entry \"nope\" in " + path);
  // Without --name the entry looked up is "".
  expect_structured_error(run_cli("run --trials 1 --from " + path),
                          "no entry \"\" in " + path);
  std::remove(path.c_str());
}

TEST(CliErrors, LibraryLoadErrorIsStructured) {
  expect_structured_error(run_cli("library /nonexistent-dir-xyzzy/lib.txt"),
                          "cannot open /nonexistent-dir-xyzzy/lib.txt");
}

TEST(CliErrors, UnknownCommandIsStructured) {
  expect_structured_error(run_cli("frobnicate"),
                          "unknown command \"frobnicate\"");
}

TEST(CliErrors, TrailingArgumentsAreStructured) {
  const std::string path = write_library("caya_cli_trailing.lib");
  expect_structured_error(run_cli("list extra"), "unknown option \"extra\"");
  expect_structured_error(
      run_cli("parse '[TCP:flags:SA]-tamper{TCP:window:replace:10}-|' extra"),
      "unknown option \"extra\"");
  expect_structured_error(run_cli("library " + path + " extra"),
                          "unknown option \"extra\"");
  std::remove(path.c_str());
}

TEST(CliErrors, MissingOperandIsStructured) {
  expect_structured_error(run_cli("parse"), "missing strategy DSL");
  expect_structured_error(run_cli("library"), "missing library FILE");
  expect_structured_error(run_cli("replay"), "missing capture FILE");
}

TEST(CliErrors, EvolveEmptyPopulationIsStructured) {
  expect_structured_error(run_cli("evolve --population 0 --gens 1 --jobs 1"),
                          "population is empty");
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Runs `job ARGS` with checkpoints at --jobs 2, replaces its checkpoint
// with a genuinely partial snapshot (described by `progress`), resumes at
// --jobs 4 and expects the uninterrupted run's output file. The partial
// snapshot is `corpus_file` from tests/corpus/checkpoints when given, else
// the rotated last-good copy the run left behind.
void expect_resume_matches(const std::string& job, const std::string& args,
                           const std::string& output_flag,
                           const std::string& progress,
                           const std::string& corpus_file = "") {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) / ("caya_resume_" + job + corpus_file);
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string command = job + " " + args + " --checkpoint-dir " +
                              (dir / "ckpt").string() + " " + output_flag +
                              " ";
  const CliResult full =
      run_cli(command + (dir / "ref").string() + " --jobs 2");
  ASSERT_EQ(full.exit_code, 0) << full.stderr_text;
  const fs::path ckpt = dir / "ckpt" / (job + ".ckpt");
  const fs::path last_good = ckpt.string() + ".1";
  if (corpus_file.empty()) {
    fs::copy_file(last_good, ckpt, fs::copy_options::overwrite_existing);
  } else {
    fs::copy_file(fs::path(CAYA_CORPUS_DIR) / "checkpoints" / corpus_file,
                  ckpt, fs::copy_options::overwrite_existing);
    fs::remove(last_good);
  }

  const fs::path log = dir / "resume.log";
  const CliResult resumed = run_cli(
      command + (dir / "resumed").string() + " --jobs 4 --resume",
      log.string());
  ASSERT_EQ(resumed.exit_code, 0) << resumed.stderr_text;
  EXPECT_NE(read_file(log).find("resumed   : " + ckpt.string() + " (" +
                                progress + ")"),
            std::string::npos)
      << read_file(log);
  EXPECT_EQ(read_file(dir / "resumed"), read_file(dir / "ref"));
  fs::remove_all(dir);
}

TEST(CliResume, Evolve) {
  expect_resume_matches("evolve",
                        "--population 8 --gens 4 --checkpoint-every 3",
                        "--history-out", "history through generation 2");
}

TEST(CliResume, Sweep) {
  expect_resume_matches("sweep",
                        "--published 1 --trials 20 --checkpoint-every 1",
                        "--table-out", "11/12 cells");
}

TEST(CliResume, Serve) {
  expect_resume_matches("serve",
                        "--published 7 --published 6 --flows 2000 "
                        "--regime-flip-at 1000 --checkpoint-every 1",
                        "--report-out", "1984/2000 flows");
}

// Checkpoints written by the build before the GA breeding, health and
// breaker parameters became constants: the rotated last-good copy of
//   caya evolve --population 8 --gens 4 --seed 3 --checkpoint-every 3
//   caya serve --published 7 --published 6 --flows 2000
//     --regime-flip-at 1000 --seed 5 --checkpoint-every 1
// each run with --jobs 2 and --checkpoint-dir D. A change to what a config
// digest covers makes these resumes fail instead of refusing users'
// checkpoints.
TEST(CliResume, EvolveFromEarlierBuildCheckpoint) {
  expect_resume_matches("evolve",
                        "--population 8 --gens 4 --seed 3 "
                        "--checkpoint-every 3",
                        "--history-out", "history through generation 2",
                        "v2_evolve.ckpt");
}

TEST(CliResume, ServeFromEarlierBuildCheckpoint) {
  expect_resume_matches("serve",
                        "--published 7 --published 6 --flows 2000 "
                        "--regime-flip-at 1000 --seed 5 --checkpoint-every 1",
                        "--report-out", "1984/2000 flows", "v2_serve.ckpt");
}

TEST(CliResume, SweepRefusesDifferentConfig) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "caya_resume_config";
  fs::remove_all(dir);
  const std::string sweep =
      "sweep --published 1 --jobs 2 --checkpoint-dir " +
      (dir / "ckpt").string();
  ASSERT_EQ(run_cli(sweep + " --trials 2").exit_code, 0);
  const fs::path table = dir / "table.txt";
  expect_structured_error(
      run_cli(sweep + " --trials 3 --resume --table-out " + table.string()),
      "was taken under a different sweep configuration");
  EXPECT_FALSE(fs::exists(table));
  fs::remove_all(dir);
}

template <typename T>
std::string cli_name(T value) {
  std::string name(to_string(value));
  for (char& c : name) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return name;
}

TEST(CliChoices, EveryNameIsAccepted) {
  std::vector<std::string> commands;
  for (const Country country : all_countries()) {
    commands.push_back("run --trials 0 --country " + cli_name(country));
  }
  for (const AppProtocol protocol : all_protocols()) {
    commands.push_back("run --trials 0 --protocol " + cli_name(protocol));
  }
  for (const ImpairmentProfile profile : all_profiles()) {
    commands.push_back("run --trials 0 --profile " + cli_name(profile));
  }
  for (const SweepAxis axis :
       {SweepAxis::kLoss, SweepAxis::kBurst, SweepAxis::kReorder}) {
    commands.push_back("sweep --trials 0 --published 1 --axis " +
                       cli_name(axis));
  }
  for (const GfwRegime regime :
       {GfwRegime::kEra2019, GfwRegime::kEraHttpsResync}) {
    commands.push_back("serve --flows 0 --regime-before " + cli_name(regime));
  }
  ASSERT_EQ(commands.size(), 19u);
  for (const std::string& command : commands) {
    const CliResult result = run_cli(command);
    EXPECT_EQ(result.exit_code, 0) << command;
    EXPECT_TRUE(result.stderr_text.empty()) << command << ": "
                                            << result.stderr_text;
  }
}

}  // namespace
}  // namespace caya
