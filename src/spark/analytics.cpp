#include "spark/analytics.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstring>

namespace bsc::spark {

Bytes generate_text(std::uint64_t seed, std::uint64_t bytes, std::uint32_t vocabulary) {
  Rng rng(seed);
  Zipf zipf(vocabulary, 0.9);  // natural-ish word frequency skew
  // Every word the sampler can return, "w<id>", rendered once into its own
  // 16-byte slot (at most 11 characters used): word `id` is the first
  // lengths[id] bytes of slot `id`.
  constexpr std::size_t kSlot = 16;
  std::vector<char> slots(zipf.domain() * kSlot);
  std::vector<std::uint8_t> lengths(zipf.domain());
  for (std::uint64_t id = 0; id < zipf.domain(); ++id) {
    char* word = slots.data() + id * kSlot;
    word[0] = 'w';
    lengths[id] = static_cast<std::uint8_t>(std::to_chars(word + 1, word + kSlot, id).ptr - word);
  }
  Bytes out(bytes);
  std::uint64_t pos = 0;
  // While a whole slot fits, copy all of it: the bytes past the word are
  // overwritten by the separator and the next word (or the tail loop below).
  // A word and its separator end before `bytes`, so the separator is always
  // written, as in the tail loop.
  while (bytes - pos >= kSlot) {
    const std::uint64_t id = zipf.sample(rng);
    std::memcpy(out.data() + pos, slots.data() + id * kSlot, kSlot);
    pos += lengths[id];
    out[pos++] = static_cast<std::byte>(rng.chance(0.1) ? '\n' : ' ');
  }
  while (pos < bytes) {
    const std::uint64_t id = zipf.sample(rng);
    const std::uint64_t len = std::min<std::uint64_t>(lengths[id], bytes - pos);
    std::memcpy(out.data() + pos, slots.data() + id * kSlot, len);
    pos += len;
    if (pos < bytes) out[pos++] = static_cast<std::byte>(rng.chance(0.1) ? '\n' : ' ');
  }
  return out;
}

Bytes generate_edges(std::uint64_t seed, std::uint32_t nodes, std::uint32_t edges) {
  Rng rng(seed);
  Bytes out(static_cast<std::size_t>(edges) * 8);
  for (std::uint32_t e = 0; e < edges; ++e) {
    const auto u = static_cast<std::uint32_t>(rng.next_below(nodes));
    const auto v = static_cast<std::uint32_t>(rng.next_below(nodes));
    std::memcpy(out.data() + e * 8ULL, &u, 4);
    std::memcpy(out.data() + e * 8ULL + 4, &v, 4);
  }
  return out;
}

Bytes generate_features(std::uint64_t seed, std::uint32_t rows, std::uint32_t features) {
  Rng rng(seed);
  Bytes out(static_cast<std::size_t>(rows) * features * 8);
  std::size_t off = 0;
  for (std::uint32_t r = 0; r < rows; ++r) {
    for (std::uint32_t f = 0; f < features; ++f) {
      const double v = rng.next_double() * 100.0;
      std::memcpy(out.data() + off, &v, 8);
      off += 8;
    }
  }
  return out;
}

namespace {
// Word-at-a-time (SWAR) helpers: eight text bytes in one little-endian
// 64-bit word, byte k of the text in bits 8k..8k+7.
constexpr std::uint64_t kLow7 = 0x7f7f7f7f7f7f7f7fULL;
constexpr std::uint64_t kHigh = 0x8080808080808080ULL;
constexpr std::uint64_t kOnes = 0x0101010101010101ULL;

std::uint64_t load8(const std::byte* p) noexcept {
  std::uint64_t v = 0;
  std::memcpy(&v, p, 8);
  if constexpr (std::endian::native == std::endian::big) return __builtin_bswap64(v);
  return v;
}

constexpr std::uint64_t broadcast(char c) noexcept {
  return kOnes * static_cast<unsigned char>(c);
}

/// Bit 7 of byte k is set iff byte k of `x` is zero. Exact: the masked add
/// cannot carry out of a byte, so no byte's verdict leaks into its neighbour.
constexpr std::uint64_t zero_bytes(std::uint64_t x) noexcept {
  return ~(((x & kLow7) + kLow7) | x) & kHigh;
}

constexpr bool is_space(std::byte b) noexcept {
  return b == std::byte{' '} || b == std::byte{'\n'} || b == std::byte{'\t'} ||
         b == std::byte{'\r'};
}

/// Bit 7 of byte k is set iff byte k of `v` is_space().
constexpr std::uint64_t space_bytes(std::uint64_t v) noexcept {
  return zero_bytes(v ^ broadcast(' ')) | zero_bytes(v ^ broadcast('\n')) |
         zero_bytes(v ^ broadcast('\t')) | zero_bytes(v ^ broadcast('\r'));
}

/// Calls `fn(start, end)` for every maximal run of non-space bytes.
template <typename Fn>
void for_each_token(ByteView text, Fn&& fn) {
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && is_space(text[i])) ++i;
    const std::size_t start = i;
    while (i < text.size() && !is_space(text[i])) ++i;
    if (i > start) fn(start, i);
  }
}
}  // namespace

std::uint64_t grep_count(ByteView text, std::string_view pattern) {
  const std::size_t m = pattern.size();
  const std::size_t n = text.size();
  if (m == 0 || n < m) return 0;
  const std::byte* hay = text.data();
  const std::uint64_t first = broadcast(pattern.front());
  const std::uint64_t last = broadcast(pattern.back());
  std::uint64_t count = 0;
  std::size_t next = 0;  // matches may not start before the last one's end
  const auto try_match = [&](std::size_t p) {
    if (p >= next && std::memcmp(hay + p, pattern.data(), m) == 0) {
      ++count;
      next = p + m;
    }
  };
  // Eight candidate starts per step: a start is a candidate when its byte
  // matches the pattern's first byte and the byte m-1 further its last.
  std::size_t p = 0;
  for (; p + m + 7 <= n; p += 8) {
    std::uint64_t hits =
        zero_bytes(load8(hay + p) ^ first) & zero_bytes(load8(hay + p + m - 1) ^ last);
    while (hits != 0) {
      try_match(p + static_cast<std::size_t>(std::countr_zero(hits)) / 8);
      hits &= hits - 1;
    }
  }
  for (; p + m <= n; ++p) try_match(p);
  return count;
}

std::uint64_t tokenize(ByteView text, Bytes* out) {
  if (out != nullptr) {
    std::uint64_t tokens = 0;
    for_each_token(text, [&](std::size_t start, std::size_t end) {
      ++tokens;
      out->insert(out->end(), text.begin() + static_cast<std::ptrdiff_t>(start),
                  text.begin() + static_cast<std::ptrdiff_t>(end));
      out->push_back(std::byte{'\n'});
    });
    return tokens;
  }
  // A token starts at a non-space byte whose predecessor is a space (or the
  // start of the text). The predecessors' space flags are the word's own
  // flags moved up one byte, with the previous word's last flag (`carry`)
  // in byte 0.
  std::uint64_t tokens = 0;
  std::uint64_t carry = 0x80;  // the text's start acts as a space
  std::size_t i = 0;
  for (; i + 8 <= text.size(); i += 8) {
    const std::uint64_t space = space_bytes(load8(text.data() + i));
    const std::uint64_t starts = ~space & ((space << 8) | carry) & kHigh;
    tokens += ((starts >> 7) * kOnes) >> 56;
    carry = space >> 56;
  }
  bool prev_space = carry != 0;
  for (; i < text.size(); ++i) {
    const bool space = is_space(text[i]);
    tokens += static_cast<std::uint64_t>(prev_space && !space);
    prev_space = space;
  }
  return tokens;
}

std::unordered_map<std::string, std::uint64_t> word_frequencies(ByteView text) {
  std::unordered_map<std::string, std::uint64_t> freq;
  for_each_token(text, [&](std::size_t start, std::size_t end) {
    ++freq[std::string(reinterpret_cast<const char*>(text.data()) + start, end - start)];
  });
  return freq;
}

std::vector<std::uint64_t> sample_sort_keys(ByteView data, std::uint32_t stride) {
  std::vector<std::uint64_t> keys;
  if (stride == 0) stride = 1;
  for (std::size_t off = 0; off + 8 <= data.size();
       off += static_cast<std::size_t>(stride) * 8) {
    std::uint64_t k = 0;
    std::memcpy(&k, data.data() + off, 8);
    keys.push_back(k);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::uint64_t label_propagation_sweep(ByteView edges, std::vector<std::uint32_t>* labels) {
  std::uint64_t changed = 0;
  auto& lab = *labels;
  for (std::size_t off = 0; off + 8 <= edges.size(); off += 8) {
    std::uint32_t u = 0;
    std::uint32_t v = 0;
    std::memcpy(&u, edges.data() + off, 4);
    std::memcpy(&v, edges.data() + off + 4, 4);
    if (u >= lab.size() || v >= lab.size()) continue;
    const std::uint32_t m = std::min(lab[u], lab[v]);
    if (lab[u] != m) {
      lab[u] = m;
      ++changed;
    }
    if (lab[v] != m) {
      lab[v] = m;
      ++changed;
    }
  }
  return changed;
}

std::uint32_t connected_components(ByteView edges, std::uint32_t nodes) {
  std::vector<std::uint32_t> labels(nodes);
  for (std::uint32_t i = 0; i < nodes; ++i) labels[i] = i;
  while (label_propagation_sweep(edges, &labels) != 0) {
  }
  std::vector<std::uint32_t> roots = labels;
  std::sort(roots.begin(), roots.end());
  roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
  return static_cast<std::uint32_t>(roots.size());
}

std::vector<FeatureStats> feature_stats(ByteView rows, std::uint32_t features) {
  std::vector<FeatureStats> stats(features);
  if (features == 0) return stats;
  std::vector<double> sums(features, 0.0);
  std::uint64_t nrows = 0;
  const std::size_t row_bytes = static_cast<std::size_t>(features) * 8;
  for (std::size_t off = 0; off + row_bytes <= rows.size(); off += row_bytes) {
    for (std::uint32_t f = 0; f < features; ++f) {
      double v = 0.0;
      std::memcpy(&v, rows.data() + off + f * 8ULL, 8);
      if (nrows == 0) {
        stats[f].min = stats[f].max = v;
      } else {
        stats[f].min = std::min(stats[f].min, v);
        stats[f].max = std::max(stats[f].max, v);
      }
      sums[f] += v;
    }
    ++nrows;
  }
  for (std::uint32_t f = 0; f < features; ++f) {
    stats[f].mean = nrows ? sums[f] / static_cast<double>(nrows) : 0.0;
  }
  return stats;
}

}  // namespace bsc::spark
