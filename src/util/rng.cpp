#include "util/rng.h"

#include <charconv>
#include <stdexcept>

namespace caya {

std::string Rng::save_state() const {
  std::string out;
  for (const std::uint64_t word : engine_.state()) {
    if (!out.empty()) out += ' ';
    out += std::to_string(word);
  }
  return out;
}

void Rng::restore_state(const std::string& state) {
  Xoshiro256ss::State words{};
  const char* cursor = state.data();
  const char* const end = cursor + state.size();
  for (std::size_t i = 0; i < words.size(); ++i) {
    if (i > 0 && (cursor == end || *cursor++ != ' ')) {
      throw std::invalid_argument("Rng state needs 4 words");
    }
    const auto [next, ec] = std::from_chars(cursor, end, words[i]);
    if (ec != std::errc{}) {
      throw std::invalid_argument("malformed Rng state word");
    }
    cursor = next;
  }
  if (cursor != end) {
    throw std::invalid_argument("trailing bytes after Rng state");
  }
  if (words == Xoshiro256ss::State{}) {
    throw std::invalid_argument("all-zero Rng state");
  }
  engine_.set_state(words);
}

}  // namespace caya
