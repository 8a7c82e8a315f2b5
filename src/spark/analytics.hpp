// Analytics kernels and dataset generators for the Spark workload models.
//
// The traced applications come from SparkBench (§IV-A); their storage-call
// footprint is what the paper measures, but the *computation* between calls
// is real analytics. These kernels give the task bodies genuine work on the
// bytes they read: the text apps parse a generated corpus, CC runs label
// propagation over a generated edge list, DT aggregates feature statistics.
// All generators are deterministic in their seed.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"

namespace bsc::spark {

// --- dataset generators -------------------------------------------------

/// Whitespace/newline-separated text with a Zipf-distributed vocabulary
/// (natural-language-ish word frequencies). Exactly `bytes` long. The byte
/// stream for a given (seed, bytes, vocabulary) is fixed: tests pin its
/// digest, and every simulated Spark figure reads these bytes. Word ranks
/// come from Zipf's threshold table, which returns exactly the reference
/// formula's draws, so the digests are those of the per-word `pow` sampler.
[[nodiscard]] Bytes generate_text(std::uint64_t seed, std::uint64_t bytes,
                                  std::uint32_t vocabulary = 4096);

/// Edge list of a random graph over `nodes` vertices: little-endian
/// (u32 src, u32 dst) pairs, `edges` of them.
[[nodiscard]] Bytes generate_edges(std::uint64_t seed, std::uint32_t nodes,
                                   std::uint32_t edges);

/// Numeric feature rows: `rows` records of `features` little-endian doubles.
[[nodiscard]] Bytes generate_features(std::uint64_t seed, std::uint32_t rows,
                                      std::uint32_t features);

// --- kernels -------------------------------------------------------------

/// Count non-overlapping occurrences of `pattern`, leftmost first (Grep's
/// inner loop). Word-at-a-time: eight candidate starts per step are filtered
/// on the pattern's first and last byte, and each survivor is confirmed with
/// memcmp, so the count is exactly that of the byte-at-a-time scan.
[[nodiscard]] std::uint64_t grep_count(ByteView text, std::string_view pattern);

/// Split into tokens delimited by ' ', '\n', '\t' and '\r'; returns token
/// count and, via `out` (optional), the concatenated "token\n" stream
/// (Tokenizer's output). Without `out` the count is word-at-a-time (token
/// starts are found eight bytes per step) and equals the byte loop's exactly.
std::uint64_t tokenize(ByteView text, Bytes* out);

/// Word-frequency table over the text (the classic WordCount reducer state).
[[nodiscard]] std::unordered_map<std::string, std::uint64_t> word_frequencies(
    ByteView text);

/// Sample every `stride`-th 8-byte key and return them sorted (Sort's
/// range-partitioner sampling pass).
[[nodiscard]] std::vector<std::uint64_t> sample_sort_keys(ByteView data,
                                                          std::uint32_t stride);

/// One label-propagation sweep over an edge partition: labels[v] becomes
/// min(labels[v], labels[u]) for every edge (u,v) and (v,u). Returns the
/// number of labels that changed (CC iterates until this reaches 0).
std::uint64_t label_propagation_sweep(ByteView edges,
                                      std::vector<std::uint32_t>* labels);

/// Run CC to convergence on a full edge list over `nodes` vertices;
/// returns the number of connected components.
[[nodiscard]] std::uint32_t connected_components(ByteView edges, std::uint32_t nodes);

/// Per-feature mean/min/max over feature rows (DT's split-evaluation pass).
struct FeatureStats {
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
};
[[nodiscard]] std::vector<FeatureStats> feature_stats(ByteView rows,
                                                      std::uint32_t features);

}  // namespace bsc::spark
