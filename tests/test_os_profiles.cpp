#include "tcpstack/os_profile.h"

#include <gtest/gtest.h>

#include <set>

#include "eval/rates.h"
#include "eval/strategies.h"

namespace caya {
namespace {

TEST(OsProfiles, SeventeenVersions) {
  EXPECT_EQ(all_os_profiles().size(), 17u);
}

TEST(OsProfiles, NamesAreUnique) {
  std::set<std::string> names;
  for (const auto& os : all_os_profiles()) names.insert(os.name);
  EXPECT_EQ(names.size(), all_os_profiles().size());
}

TEST(OsProfiles, OnlyWindowsAndMacAcceptSynAckPayload) {
  for (const auto& os : all_os_profiles()) {
    const bool windows_or_mac =
        os.family == OsFamily::kWindows || os.family == OsFamily::kMacOs;
    EXPECT_EQ(os.accepts_synack_payload, windows_or_mac) << os.name;
  }
}

// §7 as a property over all OS profiles: strategies 1 and 8 work
// everywhere; strategy 5 fails exactly on the SYN+ACK-payload stacks.
class OsCompat : public ::testing::TestWithParam<std::size_t> {};

TEST_P(OsCompat, Strategy1WorksOnEveryOs) {
  const OsProfile& os = all_os_profiles()[GetParam()];
  RateOptions options;
  options.trials = 40;
  options.base_seed = 4000 + 100 * GetParam();
  options.client_os = os;
  const double rate = measure_rate(Country::kChina, AppProtocol::kHttp,
                                   parsed_strategy(1), options)
                          .rate();
  EXPECT_GT(rate, 0.3) << os.name;
}

TEST_P(OsCompat, Strategy5FollowsSynAckPayloadHandling) {
  const OsProfile& os = all_os_profiles()[GetParam()];
  RateOptions options;
  options.trials = 40;
  options.base_seed = 5000 + 100 * GetParam();
  options.client_os = os;
  const double rate = measure_rate(Country::kChina, AppProtocol::kFtp,
                                   parsed_strategy(5), options)
                          .rate();
  if (os.accepts_synack_payload) {
    EXPECT_LT(rate, 0.3) << os.name;  // poisoned stream: evasion may happen
                                      // but the transfer cannot complete
  } else {
    EXPECT_GT(rate, 0.8) << os.name;
  }
}

INSTANTIATE_TEST_SUITE_P(All17, OsCompat,
                         ::testing::Range<std::size_t>(0, 17));

}  // namespace
}  // namespace caya
