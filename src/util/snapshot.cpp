#include "util/snapshot.h"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace caya {
namespace {

constexpr std::string_view kMagic = "caya-snapshot";
// 2: Rng state is four xoshiro256** words. Version-1 snapshots hold the old
// engine's stream, so resuming one would splice two streams; refuse them.
constexpr std::uint32_t kVersion = 2;
constexpr std::string_view kChecksumKey = "checksum";

// Escapes the three structural bytes so arbitrary field content survives the
// line/tab format.
std::string escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\t': out += "\\t"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string unescape(std::string_view escaped) {
  std::string out;
  out.reserve(escaped.size());
  for (std::size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] != '\\') {
      out += escaped[i];
      continue;
    }
    if (i + 1 >= escaped.size()) {
      throw SnapshotError("dangling escape in snapshot field");
    }
    switch (escaped[++i]) {
      case '\\': out += '\\'; break;
      case 't': out += '\t'; break;
      case 'n': out += '\n'; break;
      default: throw SnapshotError("unknown escape in snapshot field");
    }
  }
  return out;
}

std::vector<std::string_view> split_tabs(std::string_view line) {
  std::vector<std::string_view> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t tab = line.find('\t', start);
    if (tab == std::string_view::npos) {
      parts.push_back(line.substr(start));
      return parts;
    }
    parts.push_back(line.substr(start, tab - start));
    start = tab + 1;
  }
}

std::string checksum_hex(std::string_view bytes) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, fnv1a64(bytes));
  return buf;
}

}  // namespace

void SnapshotWriter::record(std::string_view key,
                            const std::vector<std::string_view>& fields) {
  if (key.empty() || key.find_first_of("\t\n\\") != std::string_view::npos ||
      key == kChecksumKey) {
    throw std::invalid_argument("bad snapshot record key");
  }
  body_ += key;
  for (const std::string_view field : fields) {
    body_ += '\t';
    body_ += escape(field);
  }
  body_ += '\n';
}

void SnapshotWriter::put(std::string_view key, std::string_view value) {
  record(key, {value});
}

void SnapshotWriter::put_u64(std::string_view key, std::uint64_t value) {
  put(key, std::to_string(value));
}

void SnapshotWriter::put_double(std::string_view key, double value) {
  put(key, format_double(value));
}

std::string SnapshotWriter::format_double(double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", value);
  return buf;
}

std::string SnapshotWriter::encode(std::string_view kind) const {
  std::string out;
  out.reserve(body_.size() + 64);
  out += kMagic;
  out += ' ';
  out += std::to_string(kVersion);
  out += ' ';
  out += kind;
  out += '\n';
  out += body_;
  // The footer hash covers everything before the footer line itself,
  // matching what parse() re-hashes.
  const std::string sum = checksum_hex(out);
  out += kChecksumKey;
  out += '\t';
  out += sum;
  out += '\n';
  return out;
}

std::string SnapshotWriter::digest(std::string_view kind) const {
  return checksum_hex(encode(kind));
}

SnapshotReader SnapshotReader::parse(std::string_view bytes) {
  // Footer first: the last line must be "checksum\t<hex>" over everything
  // before it. A torn write loses the footer; a bit flip breaks the hash.
  if (bytes.empty() || bytes.back() != '\n') {
    throw SnapshotError("snapshot truncated (no trailing newline)");
  }
  const std::size_t last_line_start = bytes.rfind('\n', bytes.size() - 2);
  const std::size_t footer_at =
      last_line_start == std::string_view::npos ? 0 : last_line_start + 1;
  const std::string_view footer =
      bytes.substr(footer_at, bytes.size() - footer_at - 1);
  const std::vector<std::string_view> footer_parts = split_tabs(footer);
  if (footer_parts.size() != 2 || footer_parts[0] != kChecksumKey) {
    throw SnapshotError("snapshot truncated (missing checksum footer)");
  }
  const std::string_view covered = bytes.substr(0, footer_at);
  if (checksum_hex(covered) != footer_parts[1]) {
    throw SnapshotError("snapshot checksum mismatch (corrupt or torn file)");
  }

  // Header.
  const std::size_t header_end = covered.find('\n');
  if (header_end == std::string_view::npos) {
    throw SnapshotError("snapshot missing header");
  }
  std::istringstream header(std::string(covered.substr(0, header_end)));
  std::string magic;
  std::uint32_t version = 0;
  SnapshotReader reader;
  if (!(header >> magic >> version >> reader.kind_) || magic != kMagic) {
    throw SnapshotError("not a caya snapshot");
  }
  if (version != kVersion) {
    throw SnapshotError("unsupported snapshot version " +
                        std::to_string(version));
  }
  reader.version_ = version;

  // Records.
  std::string_view rest = covered.substr(header_end + 1);
  while (!rest.empty()) {
    const std::size_t eol = rest.find('\n');
    if (eol == std::string_view::npos) {
      throw SnapshotError("snapshot record missing newline");
    }
    const std::vector<std::string_view> parts =
        split_tabs(rest.substr(0, eol));
    Record rec;
    rec.key = std::string(parts[0]);
    if (rec.key.empty()) throw SnapshotError("empty snapshot record key");
    for (std::size_t i = 1; i < parts.size(); ++i) {
      rec.fields.push_back(unescape(parts[i]));
    }
    reader.records_.push_back(std::move(rec));
    rest = rest.substr(eol + 1);
  }
  return reader;
}

std::vector<const SnapshotReader::Record*> SnapshotReader::all(
    std::string_view key) const {
  std::vector<const Record*> out;
  for (const Record& rec : records_) {
    if (rec.key == key) out.push_back(&rec);
  }
  return out;
}

const std::string& SnapshotReader::get(std::string_view key) const {
  for (const Record& rec : records_) {
    if (rec.key == key) {
      if (rec.fields.size() != 1) {
        throw SnapshotError("snapshot record \"" + std::string(key) +
                            "\" is not single-valued");
      }
      return rec.fields.front();
    }
  }
  throw SnapshotError("snapshot missing record \"" + std::string(key) + "\"");
}

std::uint64_t SnapshotReader::get_u64(std::string_view key) const {
  return parse_u64(get(key));
}

double SnapshotReader::get_double(std::string_view key) const {
  return parse_double(get(key));
}

std::uint64_t SnapshotReader::parse_u64(std::string_view text) {
  const std::string s(text);
  char* end = nullptr;
  errno = 0;
  const std::uint64_t v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end == s.c_str() || *end != '\0') {
    throw SnapshotError("bad integer in snapshot: \"" + s + "\"");
  }
  return v;
}

double SnapshotReader::parse_double(std::string_view text) {
  const std::string s(text);
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') {
    throw SnapshotError("bad double in snapshot: \"" + s + "\"");
  }
  return v;
}

// ---- Crash-only file IO ----------------------------------------------------

void write_snapshot_file(const std::string& path, std::string_view encoded) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("cannot open for writing: " + tmp);
    }
    out.write(encoded.data(),
              static_cast<std::streamsize>(encoded.size()));
    out.flush();
    if (!out) {
      throw std::runtime_error("short write to " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("rename " + tmp + " -> " + path + ": " +
                             std::strerror(errno));
  }
}

void write_checkpoint(const std::string& path, std::string_view encoded) {
  // Rotate the previous checkpoint to last-good before the atomic replace;
  // rename of a missing file is fine (first checkpoint).
  (void)std::rename(path.c_str(), (path + ".1").c_str());
  write_snapshot_file(path, encoded);
}

namespace {

std::optional<std::string> read_file_if_exists(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

std::optional<LoadedCheckpoint> load_checkpoint(const std::string& path) {
  bool any_file = false;
  std::string first_error;
  const std::string candidates[] = {path, path + ".1"};
  for (std::size_t i = 0; i < 2; ++i) {
    const std::optional<std::string> bytes =
        read_file_if_exists(candidates[i]);
    if (!bytes) continue;
    any_file = true;
    try {
      (void)SnapshotReader::parse(*bytes);  // verify before handing out
      return LoadedCheckpoint{*bytes, candidates[i], i > 0};
    } catch (const SnapshotError& e) {
      if (first_error.empty()) first_error = e.what();
    }
  }
  if (!any_file) return std::nullopt;
  throw SnapshotError("no valid checkpoint at " + path + " (" + first_error +
                      ")");
}

}  // namespace caya
