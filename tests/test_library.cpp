#include "geneva/library.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>

#include "eval/strategies.h"
#include "geneva/parser.h"

namespace caya {
namespace {

LibraryEntry sample() {
  return {.name = "window-zero",
          .success = 1.0,
          .notes = "GA discovery vs Kazakhstan",
          .dsl = "[TCP:flags:SA]-tamper{TCP:window:replace:0}-| \\/"};
}

TEST(Library, AddCanonicalizesDsl) {
  StrategyLibrary library;
  LibraryEntry entry = sample();
  entry.dsl = "[TCP:flags:SA]- tamper{TCP:window:replace:0} -| \\/";
  library.add(entry);
  const LibraryEntry* found = library.find("window-zero");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->dsl, parse_strategy(entry.dsl).to_string());
}

TEST(Library, AddRejectsInvalidDsl) {
  StrategyLibrary library;
  LibraryEntry entry = sample();
  entry.dsl = "[TCP:flags:SA]-explode-|";
  EXPECT_THROW(library.add(entry), ParseError);
}

TEST(Library, AddReplacesByName) {
  StrategyLibrary library;
  library.add(sample());
  LibraryEntry updated = sample();
  updated.success = 0.5;
  library.add(updated);
  EXPECT_EQ(library.entries().size(), 1u);
  EXPECT_DOUBLE_EQ(library.find("window-zero")->success, 0.5);
}

TEST(Library, SerializeDeserializeRoundTrip) {
  StrategyLibrary library;
  library.add(sample());
  LibraryEntry second = sample();
  second.name = "null-flags";
  second.dsl = "[TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:},)-| \\/";
  second.notes = "with spaces, and punctuation!";
  library.add(second);

  const StrategyLibrary reloaded =
      StrategyLibrary::deserialize(library.serialize());
  ASSERT_EQ(reloaded.entries().size(), 2u);
  EXPECT_EQ(reloaded.find("null-flags")->notes,
            "with spaces, and punctuation!");
  EXPECT_EQ(reloaded.find("window-zero")->dsl,
            library.find("window-zero")->dsl);
}

TEST(Library, DeserializeSkipsCommentsAndBlankLines) {
  const StrategyLibrary library = StrategyLibrary::deserialize(
      "# header\n\nx\t0.5\tnote\t[TCP:flags:SA]-drop-| \\/\n");
  EXPECT_EQ(library.entries().size(), 1u);
}

TEST(Library, DeserializeRejectsMalformedLines) {
  EXPECT_THROW(StrategyLibrary::deserialize("too\tfew\tfields\n"),
               std::invalid_argument);
  EXPECT_THROW(
      StrategyLibrary::deserialize("x\tnot-a-number\tnote\tdrop\n"),
      std::invalid_argument);
  // A success value must parse completely, to a rate in [0, 1].
  for (const char* success : {"0.5abc", "nan", "-3"}) {
    EXPECT_THROW(StrategyLibrary::deserialize(
                     std::string("x\t") + success +
                     "\tnote\t[TCP:flags:SA]-drop-| \\/\n"),
                 std::invalid_argument)
        << success;
  }
  EXPECT_THROW(StrategyLibrary::deserialize(
                   "x\t0.5\tnote\t[TCP:flags:SA]-bad-|\n"),
               std::invalid_argument);
}

TEST(Library, SaveAndLoadFile) {
  const std::string path = ::testing::TempDir() + "/caya_lib_test.txt";
  StrategyLibrary library;
  library.add(sample());
  library.save(path);
  const StrategyLibrary loaded = StrategyLibrary::load(path);
  EXPECT_NE(loaded.find("window-zero"), nullptr);
  std::remove(path.c_str());
}

TEST(Library, SaveAppendsVerifiableChecksumFooter) {
  const std::string path = ::testing::TempDir() + "/caya_lib_footer.txt";
  StrategyLibrary library;
  library.add(sample());
  library.save(path);

  std::ifstream in(path, std::ios::binary);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("# checksum "), std::string::npos);

  // Corrupt one byte of the body: load must refuse the torn file.
  const std::size_t pos = text.find("window-zero");
  ASSERT_NE(pos, std::string::npos);
  text[pos] = 'W';
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
  }
  EXPECT_THROW((void)StrategyLibrary::load(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Library, LoadAcceptsHandEditedFileWithoutFooter) {
  const std::string path = ::testing::TempDir() + "/caya_lib_nofooter.txt";
  {
    std::ofstream out(path, std::ios::binary);
    out << "x\t0.5\tnote\t[TCP:flags:SA]-drop-| \\/\n";
  }
  const StrategyLibrary library = StrategyLibrary::load(path);
  EXPECT_NE(library.find("x"), nullptr);
  std::remove(path.c_str());
}

TEST(Library, UpdateSuccessRefreshesEntry) {
  StrategyLibrary library;
  library.add(sample());
  EXPECT_TRUE(library.update_success("window-zero", 0.25));
  EXPECT_DOUBLE_EQ(library.find("window-zero")->success, 0.25);
  EXPECT_FALSE(library.update_success("unknown", 0.9));
}

TEST(Library, PublishedLibraryHasAllEleven) {
  const StrategyLibrary library = published_library();
  EXPECT_EQ(library.entries().size(), 11u);
  const LibraryEntry* s8 = library.find("S8");
  ASSERT_NE(s8, nullptr);
  EXPECT_NE(s8->dsl.find("window"), std::string::npos);
  // Every stored DSL parses back to a working strategy.
  for (const auto& entry : library.entries()) {
    EXPECT_NO_THROW((void)parse_strategy(entry.dsl)) << entry.name;
  }
}

}  // namespace
}  // namespace caya
