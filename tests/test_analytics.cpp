// Tests for the analytics kernels and dataset generators backing the Spark
// workload models.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "spark/analytics.hpp"

namespace bsc::spark {
namespace {

TEST(Generators, TextIsDeterministicAndSized) {
  const Bytes a = generate_text(1, 10000);
  const Bytes b = generate_text(1, 10000);
  const Bytes c = generate_text(2, 10000);
  EXPECT_EQ(a.size(), 10000u);
  EXPECT_TRUE(equal(as_view(a), as_view(b)));
  EXPECT_FALSE(equal(as_view(a), as_view(c)));
  // Content is printable word/space/newline soup.
  for (std::byte ch : a) {
    const char x = static_cast<char>(ch);
    EXPECT_TRUE((x >= '0' && x <= '9') || x == 'w' || x == ' ' || x == '\n') << x;
  }
}

TEST(Generators, TextVocabularyIsSkewed) {
  const Bytes text = generate_text(3, 200000, 1024);
  auto freq = word_frequencies(as_view(text));
  ASSERT_GT(freq.size(), 50u);
  // Zipf: the most frequent word should dwarf the median.
  std::uint64_t max_count = 0;
  std::uint64_t total = 0;
  for (const auto& [w, c] : freq) {
    max_count = std::max(max_count, c);
    total += c;
  }
  EXPECT_GT(max_count, total / freq.size() * 10);
}

// The exact byte stream is part of the Spark workloads' contract: every
// simulated figure of the Spark apps reads these bytes. One digest per
// vocabulary folds the text's checksum over seeds and sizes, including sizes
// that cut the first word and vocabulary 0 (one word, "w0").
TEST(Generators, TextBytesArePinned) {
  const std::uint32_t vocabularies[] = {0, 1, 2, 10, 1024, 4096, 100000, 1u << 20};
  const std::uint64_t expected[] = {
      1512878337333780668ULL,  1512878337333780668ULL, 13569644137705147589ULL,
      18199504329009132553ULL, 6878790940491687661ULL, 7983391869268717426ULL,
      7671302548297693036ULL,  12623688925656551092ULL};
  const std::uint64_t seeds[] = {1, 7, 0x77};
  const std::uint64_t sizes[] = {0, 1, 2, 3, 7, 4096, 100003, 1u << 20};
  for (std::size_t v = 0; v < std::size(vocabularies); ++v) {
    std::uint64_t digest = 0;
    for (const std::uint64_t seed : seeds) {
      for (const std::uint64_t size : sizes) {
        const Bytes text = generate_text(seed, size, vocabularies[v]);
        ASSERT_EQ(text.size(), size);
        digest = hash_combine(digest, content_checksum(as_view(text)));
      }
    }
    EXPECT_EQ(digest, expected[v]) << "vocabulary " << vocabularies[v];
  }
}

TEST(Generators, EdgesShapeAndRange) {
  const Bytes edges = generate_edges(4, 1000, 500);
  ASSERT_EQ(edges.size(), 500u * 8);
  for (std::size_t off = 0; off < edges.size(); off += 4) {
    std::uint32_t v = 0;
    std::memcpy(&v, edges.data() + off, 4);
    EXPECT_LT(v, 1000u);
  }
}

TEST(Generators, FeaturesShape) {
  const Bytes rows = generate_features(5, 100, 8);
  EXPECT_EQ(rows.size(), 100u * 8 * 8);
  const auto stats = feature_stats(as_view(rows), 8);
  ASSERT_EQ(stats.size(), 8u);
  for (const auto& s : stats) {
    EXPECT_GE(s.min, 0.0);
    EXPECT_LE(s.max, 100.0);
    EXPECT_GT(s.mean, 20.0);  // uniform(0,100): mean ~50
    EXPECT_LT(s.mean, 80.0);
  }
}

TEST(Kernels, GrepCountExact) {
  const Bytes text = to_bytes("abc ab abc xabcx abc");
  EXPECT_EQ(grep_count(as_view(text), "abc"), 4u);
  EXPECT_EQ(grep_count(as_view(text), "ab"), 5u);
  EXPECT_EQ(grep_count(as_view(text), "zzz"), 0u);
  EXPECT_EQ(grep_count(as_view(text), ""), 0u);
  // Non-overlapping: "aaaa" contains 2 "aa", not 3.
  EXPECT_EQ(grep_count(as_view(to_bytes("aaaa")), "aa"), 2u);
}

TEST(Kernels, TokenizeCountsAndEmits) {
  const Bytes text = to_bytes("  one two\nthree\t\tfour ");
  Bytes out;
  EXPECT_EQ(tokenize(as_view(text), &out), 4u);
  EXPECT_EQ(to_string(as_view(out)), "one\ntwo\nthree\nfour\n");
  EXPECT_EQ(tokenize(as_view(to_bytes("   \n\t")), nullptr), 0u);
  EXPECT_EQ(tokenize({}, nullptr), 0u);
}

TEST(Kernels, WordFrequencies) {
  const Bytes text = to_bytes("a b a c a b");
  auto freq = word_frequencies(as_view(text));
  EXPECT_EQ(freq["a"], 3u);
  EXPECT_EQ(freq["b"], 2u);
  EXPECT_EQ(freq["c"], 1u);
}

TEST(Kernels, SampleSortKeysSortedAndStrided) {
  Bytes data(10 * 8);
  for (std::uint64_t i = 0; i < 10; ++i) {
    const std::uint64_t v = 100 - i;  // descending input
    std::memcpy(data.data() + i * 8, &v, 8);
  }
  auto keys = sample_sort_keys(as_view(data), 1);
  ASSERT_EQ(keys.size(), 10u);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(sample_sort_keys(as_view(data), 2).size(), 5u);
}

TEST(Kernels, ConnectedComponentsOnKnownGraph) {
  // 6 nodes: {0-1-2} chained, {3-4} paired, {5} isolated -> 3 components.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edge_list = {
      {0, 1}, {1, 2}, {3, 4}};
  Bytes edges(edge_list.size() * 8);
  for (std::size_t i = 0; i < edge_list.size(); ++i) {
    std::memcpy(edges.data() + i * 8, &edge_list[i].first, 4);
    std::memcpy(edges.data() + i * 8 + 4, &edge_list[i].second, 4);
  }
  EXPECT_EQ(connected_components(as_view(edges), 6), 3u);
  // A sweep on fresh labels reports changes, then converges to zero.
  std::vector<std::uint32_t> labels{0, 1, 2, 3, 4, 5};
  EXPECT_GT(label_propagation_sweep(as_view(edges), &labels), 0u);
  while (label_propagation_sweep(as_view(edges), &labels) != 0) {
  }
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[1], labels[2]);
  EXPECT_EQ(labels[3], labels[4]);
  EXPECT_NE(labels[0], labels[3]);
  EXPECT_EQ(labels[5], 5u);
}

TEST(Kernels, FeatureStatsExact) {
  // Two rows, two features: (1, 10), (3, 30).
  Bytes rows(2 * 2 * 8);
  const double vals[4] = {1.0, 10.0, 3.0, 30.0};
  std::memcpy(rows.data(), vals, sizeof(vals));
  auto stats = feature_stats(as_view(rows), 2);
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_DOUBLE_EQ(stats[0].min, 1.0);
  EXPECT_DOUBLE_EQ(stats[0].max, 3.0);
  EXPECT_DOUBLE_EQ(stats[0].mean, 2.0);
  EXPECT_DOUBLE_EQ(stats[1].min, 10.0);
  EXPECT_DOUBLE_EQ(stats[1].max, 30.0);
  EXPECT_DOUBLE_EQ(stats[1].mean, 20.0);
}

TEST(Kernels, GrepFindsRealWordsInGeneratedText) {
  const Bytes text = generate_text(7, 100000);
  // "w0" is the hottest Zipf word; it must occur (as a substring) often.
  EXPECT_GT(grep_count(as_view(text), "w0"), 100u);
  Bytes tokens;
  const std::uint64_t n = tokenize(as_view(text), &tokens);
  EXPECT_GT(n, 10000u);  // short words -> many tokens in 100 KB
}

// --- exactness of the word-at-a-time kernels -----------------------------
//
// The oracles are the byte-at-a-time loops the kernels replaced; the kernels
// must return exactly their counts on any input.

std::uint64_t grep_count_oracle(ByteView text, std::string_view pattern) {
  if (pattern.empty() || text.size() < pattern.size()) return 0;
  std::uint64_t count = 0;
  const char* hay = reinterpret_cast<const char*>(text.data());
  std::size_t pos = 0;
  while (pos + pattern.size() <= text.size()) {
    const void* hit = std::memchr(hay + pos, pattern.front(), text.size() - pos);
    if (!hit) break;
    pos = static_cast<std::size_t>(static_cast<const char*>(hit) - hay);
    if (pos + pattern.size() > text.size()) break;
    if (std::memcmp(hay + pos, pattern.data(), pattern.size()) == 0) {
      ++count;
      pos += pattern.size();
    } else {
      ++pos;
    }
  }
  return count;
}

bool oracle_is_space(std::byte b) {
  return b == std::byte{' '} || b == std::byte{'\n'} || b == std::byte{'\t'} ||
         b == std::byte{'\r'};
}

std::uint64_t tokenize_oracle(ByteView text, Bytes* out) {
  std::uint64_t tokens = 0;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && oracle_is_space(text[i])) ++i;
    const std::size_t start = i;
    while (i < text.size() && !oracle_is_space(text[i])) ++i;
    if (i > start) {
      ++tokens;
      if (out) {
        out->insert(out->end(), text.begin() + static_cast<std::ptrdiff_t>(start),
                    text.begin() + static_cast<std::ptrdiff_t>(i));
        out->push_back(std::byte{'\n'});
      }
    }
  }
  return tokens;
}

// Separators, word bytes, and high-bit bytes that differ from a separator or
// a word byte only in bit 7 (0xa0 = ' ' | 0x80, 0x8a = '\n' | 0x80): a
// carry or sign slip in the per-byte tests turns one into the other.
constexpr unsigned char kAlphabet[] = {' ', '\n', '\t', '\r', 'w', '7', 'a',
                                       0x80, 0xa0, 0x8a, 0xff};

void fill_random(Rng& rng, Bytes& buf) {
  for (std::byte& b : buf) {
    b = static_cast<std::byte>(kAlphabet[rng.next_below(std::size(kAlphabet))]);
  }
}

std::string as_string(ByteView v) {
  return {reinterpret_cast<const char*>(v.data()), v.size()};
}

TEST(KernelExactness, TokenizeMatchesByteLoopAtEveryLengthAndOffset) {
  Rng rng(0x70c);
  Bytes buf(8 + 80);
  for (std::size_t len = 0; len <= 80; ++len) {
    for (std::size_t offset = 0; offset < 8; ++offset) {
      for (int trial = 0; trial < 24; ++trial) {
        fill_random(rng, buf);
        const ByteView text = ByteView(buf).subspan(offset, len);
        Bytes want_out;
        const std::uint64_t want = tokenize_oracle(text, &want_out);
        ASSERT_EQ(tokenize(text, nullptr), want)
            << "len " << len << " offset " << offset << " text '" << as_string(text) << "'";
        Bytes out;
        ASSERT_EQ(tokenize(text, &out), want);
        ASSERT_EQ(as_string(as_view(out)), as_string(as_view(want_out)));
      }
    }
  }
}

TEST(KernelExactness, GrepCountMatchesByteLoopAtEveryLengthAndOffset) {
  Rng rng(0x9e7);
  Bytes buf(8 + 80);
  // Self-overlapping, high-bit and longer-than-most-texts patterns; the
  // loop below adds substrings of each text so that long patterns match too.
  const std::vector<std::string> fixed = {
      "w", "\xff", "\xa0", "aa", "aba", "w7", "\x80\xff", "aaa", " \n",
      "aaaaaaaa", "aaaaaaaaa", "abaabaaba", "aaaaaaaaaaaaaaaaa"};
  for (std::size_t len = 0; len <= 80; ++len) {
    for (std::size_t offset = 0; offset < 8; ++offset) {
      for (int trial = 0; trial < 12; ++trial) {
        // Every other text is 'a'/'b' only, so that self-overlapping and
        // long patterns occur many times in it.
        if (trial % 2 == 0) {
          fill_random(rng, buf);
        } else {
          for (std::byte& b : buf) b = rng.chance(0.7) ? std::byte{'a'} : std::byte{'b'};
        }
        const ByteView text = ByteView(buf).subspan(offset, len);
        std::vector<std::string> patterns = fixed;
        for (const std::size_t m : {1, 2, 3, 8, 9, 17}) {
          if (m <= len) patterns.push_back(as_string(text.subspan(rng.next_below(len - m + 1), m)));
        }
        for (const std::string& pat : patterns) {
          ASSERT_EQ(grep_count(text, pat), grep_count_oracle(text, pat))
              << "len " << len << " offset " << offset << " pattern '" << pat << "' text '"
              << as_string(text) << "'";
        }
      }
    }
  }
}

// The Spark Grep and Tokenizer tasks run the kernels over generate_text
// corpora; their counts feed the simulated compute charge, so they are
// pinned here as well as checked against the byte loops.
TEST(KernelExactness, GeneratedCorpusCountsArePinned) {
  struct Pin {
    std::uint64_t seed;
    std::uint64_t tokens;
    std::uint64_t w7;
  };
  const Pin pins[] = {{1, 1636531, 74105}, {2, 1636536, 74581}, {3, 1636405, 74345}};
  for (const Pin& pin : pins) {
    const Bytes text = generate_text(pin.seed, 7u << 20);
    const std::uint64_t tokens = tokenize(as_view(text), nullptr);
    const std::uint64_t w7 = grep_count(as_view(text), "w7");
    EXPECT_EQ(tokens, tokenize_oracle(as_view(text), nullptr)) << "seed " << pin.seed;
    EXPECT_EQ(w7, grep_count_oracle(as_view(text), "w7")) << "seed " << pin.seed;
    EXPECT_EQ(tokens, pin.tokens) << "seed " << pin.seed;
    EXPECT_EQ(w7, pin.w7) << "seed " << pin.seed;
  }
}

}  // namespace
}  // namespace bsc::spark
