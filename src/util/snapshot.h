// Crash-safe, versioned, checksummed snapshots for long-running campaigns.
//
// A snapshot is a line-oriented text container:
//
//   caya-snapshot <version> <kind>\n
//   <key>\t<field>\t<field>...\n          (records, in write order)
//   ...
//   checksum\t<16-hex FNV-1a over everything above>\n
//
// Field bytes are escaped (\\, \t, \n) so arbitrary strings — strategy DSL,
// Rng state, cache keys — round-trip exactly; doubles are written as
// C hexfloats so they round-trip bit-for-bit. The trailing checksum makes
// torn writes (truncation) and bit flips detectable: SnapshotReader::parse
// refuses anything whose footer is missing or wrong.
//
// On disk, write_checkpoint() is crash-only: the encoding is written to a
// temporary file and atomically renamed over the target, after rotating the
// previous checkpoint to "<path>.1". load_checkpoint() returns the newest
// *valid* snapshot, falling back to the rotated copy when the current file
// is torn or corrupt — a crash mid-write never loses more than one
// checkpoint interval, and a corrupt file is never silently loaded.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/fnv.h"

namespace caya {

/// Raised on malformed, truncated, or checksum-mismatched snapshots, and on
/// snapshot/configuration mismatches discovered during restore.
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class SnapshotWriter {
 public:
  /// Appends one record: a key plus zero or more fields. Keys must be
  /// non-empty and free of tabs/newlines; field bytes are escaped.
  void record(std::string_view key,
              const std::vector<std::string_view>& fields);

  // Single-field conveniences.
  void put(std::string_view key, std::string_view value);
  void put_u64(std::string_view key, std::uint64_t value);
  void put_double(std::string_view key, double value);

  /// Serializes header + records + checksum footer.
  [[nodiscard]] std::string encode(std::string_view kind) const;

  /// 16-hex FNV-1a of encode(kind): a configuration digest that a
  /// checkpoint records and a resume compares.
  [[nodiscard]] std::string digest(std::string_view kind) const;

  /// Exact hexfloat rendering ("%a") — parses back bit-identically.
  [[nodiscard]] static std::string format_double(double value);

 private:
  std::string body_;
};

class SnapshotReader {
 public:
  struct Record {
    std::string key;
    std::vector<std::string> fields;
  };

  /// Parses and verifies an encoded snapshot; throws SnapshotError on a bad
  /// header, missing/mismatched checksum, or malformed record.
  [[nodiscard]] static SnapshotReader parse(std::string_view bytes);

  [[nodiscard]] const std::string& kind() const noexcept { return kind_; }
  [[nodiscard]] std::uint32_t version() const noexcept { return version_; }
  [[nodiscard]] const std::vector<Record>& records() const noexcept {
    return records_;
  }

  /// All records with the given key, in write order.
  [[nodiscard]] std::vector<const Record*> all(std::string_view key) const;

  /// The single-field value of a uniquely keyed record; throws SnapshotError
  /// when absent.
  [[nodiscard]] const std::string& get(std::string_view key) const;
  [[nodiscard]] std::uint64_t get_u64(std::string_view key) const;
  [[nodiscard]] double get_double(std::string_view key) const;

  [[nodiscard]] static std::uint64_t parse_u64(std::string_view text);
  [[nodiscard]] static double parse_double(std::string_view text);

 private:
  std::string kind_;
  std::uint32_t version_ = 0;
  std::vector<Record> records_;
};

// ---- Crash-only file IO ----------------------------------------------------

/// Writes `encoded` to a sibling temporary file and renames it over `path`
/// (atomic on POSIX). Throws std::runtime_error on IO failure.
void write_snapshot_file(const std::string& path, std::string_view encoded);

/// write_snapshot_file plus last-good retention: an existing `path` is first
/// rotated to `path + ".1"`, so one torn/corrupt write never loses the
/// previous checkpoint.
void write_checkpoint(const std::string& path, std::string_view encoded);

struct LoadedCheckpoint {
  std::string bytes;  // verified: SnapshotReader::parse(bytes) succeeds
  std::string path;   // which file was loaded
  bool fell_back = false;  // true when `path + ".1"` was used
};

/// Loads the newest valid checkpoint among `path` and `path + ".1"`.
/// Returns nullopt when neither file exists; throws SnapshotError when files
/// exist but every candidate is torn or corrupt (never silently loads one).
[[nodiscard]] std::optional<LoadedCheckpoint> load_checkpoint(
    const std::string& path);

}  // namespace caya
