#include "geneva/library.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "geneva/parser.h"
#include "util/snapshot.h"

namespace caya {

void StrategyLibrary::add(LibraryEntry entry) {
  entry.dsl = parse_strategy(entry.dsl).to_string();  // canonicalize
  for (auto& existing : entries_) {
    if (existing.name == entry.name) {
      existing = std::move(entry);
      return;
    }
  }
  entries_.push_back(std::move(entry));
}

const LibraryEntry* StrategyLibrary::find(std::string_view name) const {
  for (const auto& entry : entries_) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

bool StrategyLibrary::update_success(std::string_view name, double success) {
  for (auto& entry : entries_) {
    if (entry.name == name) {
      entry.success = success;
      return true;
    }
  }
  return false;
}

std::string StrategyLibrary::serialize() const {
  std::ostringstream os;
  os << "# caya strategy library: name\tsuccess\tnotes\tdsl\n";
  for (const auto& entry : entries_) {
    os << entry.name << "\t" << entry.success << "\t" << entry.notes << "\t"
       << entry.dsl << "\n";
  }
  return os.str();
}

StrategyLibrary StrategyLibrary::deserialize(std::string_view text) {
  StrategyLibrary library;
  std::size_t pos = 0;
  int line_number = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_number;
    if (line.empty() || line[0] == '#') continue;

    std::vector<std::string> fields;
    std::size_t start = 0;
    for (int i = 0; i < 3; ++i) {
      const std::size_t tab = line.find('\t', start);
      if (tab == std::string_view::npos) {
        throw std::invalid_argument("library line " +
                                    std::to_string(line_number) +
                                    ": expected 4 tab-separated fields");
      }
      fields.emplace_back(line.substr(start, tab - start));
      start = tab + 1;
    }
    fields.emplace_back(line.substr(start));

    LibraryEntry entry;
    entry.name = fields[0];
    // A success rate: the whole field must parse (`parsed` stays 0 when
    // nothing does), to a value in [0, 1], which NaN is not.
    std::size_t parsed = 0;
    try {
      entry.success = std::stod(fields[1], &parsed);
    } catch (const std::exception&) {
    }
    if (parsed == 0 || parsed != fields[1].size() ||
        !(entry.success >= 0.0 && entry.success <= 1.0)) {
      throw std::invalid_argument("library line " +
                                  std::to_string(line_number) +
                                  ": bad success value " + fields[1]);
    }
    entry.notes = fields[2];
    entry.dsl = fields[3];
    try {
      library.add(std::move(entry));  // validates the DSL
    } catch (const ParseError& e) {
      throw std::invalid_argument("library line " +
                                  std::to_string(line_number) + ": " +
                                  e.what());
    }
  }
  return library;
}

namespace {
constexpr std::string_view kChecksumPrefix = "# checksum ";
}  // namespace

void StrategyLibrary::save(const std::string& path) const {
  const std::string body = serialize();
  char footer[40];
  std::snprintf(footer, sizeof(footer), "%.*s%016llx\n",
                static_cast<int>(kChecksumPrefix.size()),
                kChecksumPrefix.data(),
                static_cast<unsigned long long>(fnv1a64(body)));
  write_snapshot_file(path, body + footer);
}

StrategyLibrary StrategyLibrary::load(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot open " + path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  const std::string text = buffer.str();

  // Verify the checksum footer when one is present (save() always writes
  // it; hand-edited files without one are accepted as-is).
  const std::size_t pos = text.rfind(kChecksumPrefix);
  if (pos != std::string::npos && (pos == 0 || text[pos - 1] == '\n')) {
    const std::size_t value_at = pos + kChecksumPrefix.size();
    std::size_t eol = text.find('\n', value_at);
    if (eol == std::string::npos) eol = text.size();
    std::uint64_t expected = 0;
    bool valid_hex = eol - value_at == 16;
    for (std::size_t i = value_at; valid_hex && i < eol; ++i) {
      const char c = text[i];
      int digit;
      if (c >= '0' && c <= '9') digit = c - '0';
      else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
      else { valid_hex = false; break; }
      expected = expected << 4 | static_cast<std::uint64_t>(digit);
    }
    if (!valid_hex) {
      throw std::runtime_error("malformed checksum footer in " + path);
    }
    if (fnv1a64(std::string_view(text).substr(0, pos)) != expected) {
      throw std::runtime_error("checksum mismatch in " + path +
                               " (torn write or corruption)");
    }
  }
  return deserialize(text);
}

}  // namespace caya
