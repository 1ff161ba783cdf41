// A persistent strategy library: named strategies with notes and measured
// rates, stored in a line-oriented text format that survives hand editing:
//
//   # comment
//   name <TAB> success <TAB> notes <TAB> dsl
//   # checksum <16-hex FNV-1a over everything above>   (written by save())
//
// Used to save GA discoveries and reload them in the CLI, and as the
// orchestrator's failover-chain source of truth. save() is crash-only
// (temp file + atomic rename) and appends the checksum footer; load()
// verifies the footer when present but accepts hand-edited files without
// one.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "geneva/strategy.h"

namespace caya {

struct LibraryEntry {
  std::string name;
  double success = 0.0;  // measured success fraction, in [0, 1]
  std::string notes;
  std::string dsl;  // canonical DSL (validated on load/save)
};

class StrategyLibrary {
 public:
  /// Adds (or replaces, by name) an entry; the DSL is canonicalized and
  /// validated. Throws ParseError on invalid DSL.
  void add(LibraryEntry entry);

  [[nodiscard]] const std::vector<LibraryEntry>& entries() const noexcept {
    return entries_;
  }
  [[nodiscard]] const LibraryEntry* find(std::string_view name) const;

  /// Refreshes the measured success rate of the named entry (the
  /// orchestrator calls this with live scoreboard rates before saving).
  /// Returns false when no entry has that name.
  bool update_success(std::string_view name, double success);

  /// Serializes to the text format.
  [[nodiscard]] std::string serialize() const;
  /// Parses the text format; throws std::invalid_argument on malformed
  /// lines (bad field count, unparseable DSL).
  static StrategyLibrary deserialize(std::string_view text);

  /// Crash-safe save: serialize + checksum footer, written to a sibling
  /// temporary file and atomically renamed over `path` — a crash mid-save
  /// never leaves a truncated library behind.
  void save(const std::string& path) const;
  /// Loads and, when the checksum footer is present, verifies it; throws
  /// std::runtime_error on a checksum mismatch (torn or corrupted file).
  static StrategyLibrary load(const std::string& path);

 private:
  std::vector<LibraryEntry> entries_;
};

}  // namespace caya
