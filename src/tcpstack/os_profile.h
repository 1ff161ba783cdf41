// Client operating-system behavioural profiles (§7 of the paper).
//
// The paper evaluated 17 versions of 6 OSes. The behaviours that mattered:
//   * Linux-lineage stacks ignore a payload on a SYN+ACK; Windows and macOS
//     stacks do not, which breaks Strategies 5, 9, and 10 untweaked.
//   * Every modern stack ignores a pre-synchronization RST without ACK
//     (what makes Strategy 1's injected RST inert).
//   * Every modern stack implements RFC 793 simultaneous open.
//   * Every stack verifies TCP checksums (censors often do not), enabling
//     the corrupt-checksum "insertion packet" fix.
#pragma once

#include <string>
#include <vector>

namespace caya {

enum class OsFamily { kWindows, kMacOs, kIos, kAndroid, kUbuntu, kCentOs };

[[nodiscard]] std::string_view to_string(OsFamily family) noexcept;

struct OsProfile {
  std::string name;       // e.g. "Windows 10 Enterprise (17134)"
  OsFamily family = OsFamily::kUbuntu;

  /// Windows/macOS stacks accept data carried on a SYN+ACK into the receive
  /// stream; Linux-lineage stacks discard it (while still ACKing). The
  /// behaviours every profiled stack shares (checksum verification, RFC 793
  /// simultaneous open, ignoring a RST without ACK in SYN-SENT) are not
  /// per-profile: TcpEndpoint always has them.
  bool accepts_synack_payload = false;

  /// The default profile used when a test doesn't care about OS: Linux.
  [[nodiscard]] static OsProfile linux_default();
  [[nodiscard]] static OsProfile windows_default();
  [[nodiscard]] static OsProfile macos_default();
};

/// The paper's 17-version client matrix (§7, "Experiment Setup").
[[nodiscard]] const std::vector<OsProfile>& all_os_profiles();

}  // namespace caya
