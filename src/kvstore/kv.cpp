#include "kvstore/kv.hpp"

#include <algorithm>
#include <map>
#include <optional>

#include "common/hash.hpp"
#include "common/strings.hpp"
#include "rpc/wire.hpp"

namespace bsc::kvstore {

KvStore::KvStore(blob::BlobStore& store, std::string name, KvConfig cfg)
    : store_(&store), name_(std::move(name)), cfg_(cfg) {
  if (cfg_.buckets == 0) cfg_.buckets = 1;
}

std::string KvStore::bucket_key(std::uint32_t bucket) const {
  return strfmt("kv!%s!bucket-%04u", name_.c_str(), bucket);
}

std::uint32_t KvStore::bucket_of(std::string_view key) const {
  return static_cast<std::uint32_t>(fnv1a64(key) % cfg_.buckets);
}

Bytes KvStore::encode_bucket(const Entries& entries) {
  rpc::WireWriter w;
  w.put_u32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& [k, v] : entries) {
    w.put_string(k);
    w.put_string(v);
  }
  return std::move(w).take();
}

Result<KvStore::Entries> KvStore::load_bucket(blob::BlobClient& client,
                                              std::uint32_t bucket,
                                              blob::Version* version) {
  // stat and read are two separate blob ops: a commit landing between them
  // hands us the size of one bucket incarnation and the bytes of another,
  // and the truncated-or-padded encoding decodes as garbage. Such a torn
  // snapshot is indistinguishable from real corruption here, but unlike
  // corruption it heals on reload (each tear requires a fresh concurrent
  // commit), so retry before concluding the bucket is damaged. A same-size
  // overwrite decodes fine with a stale version and is caught later by the
  // transaction's expect_version.
  //
  // Each retry re-stats through a fresh client: `client`'s metadata cache
  // was primed by the torn attempt, and stat() answers from that cache in
  // zero rounds, so reusing it would re-read the same stale size forever.
  constexpr std::uint32_t kTornLoadRetries = 8;
  Error torn{Errc::io_error, "corrupt bucket"};
  for (std::uint32_t attempt = 0; attempt < kTornLoadRetries; ++attempt) {
    std::optional<blob::BlobClient> fresh;
    blob::BlobClient& c = attempt == 0 ? client : fresh.emplace(*store_, client.agent());
    auto st = c.stat(bucket_key(bucket));
    if (!st.ok()) {
      if (version) *version = 0;  // bucket blob not created yet
      return Entries{};
    }
    if (version) *version = st.value().version;
    auto data = c.read(bucket_key(bucket), 0, st.value().size);
    if (!data.ok()) return data.error();
    rpc::WireReader r(as_view(data.value()));
    auto count = r.get_u32();
    if (!count.ok()) {
      torn = {Errc::io_error, "corrupt bucket header"};
      continue;
    }
    Entries entries;
    entries.reserve(count.value());
    bool decoded = true;
    for (std::uint32_t i = 0; i < count.value(); ++i) {
      auto k = r.get_string();
      auto v = r.get_string();
      if (!k.ok() || !v.ok()) {
        torn = {Errc::io_error, "corrupt bucket entry"};
        decoded = false;
        break;
      }
      entries.emplace_back(std::move(k).take(), std::move(v).take());
    }
    if (decoded) return entries;
  }
  return {torn.code, std::move(torn.context)};
}

template <typename MutateFn>
Status KvStore::update_bucket(sim::SimAgent& agent, std::uint32_t bucket,
                              MutateFn&& mutate) {
  blob::BlobClient client(*store_, &agent);
  for (std::uint32_t attempt = 0; attempt < cfg_.max_txn_retries; ++attempt) {
    blob::Version version = 0;
    auto entries = load_bucket(client, bucket, &version);
    if (!entries.ok()) return entries.error();
    Status verdict = mutate(entries.value());
    if (!verdict.ok()) return verdict;  // e.g. erase of a missing key
    const Bytes encoded = encode_bucket(entries.value());
    auto txn = client.begin_transaction();
    txn.expect_version(bucket_key(bucket), version);
    // Replace content exactly: shrink first when the bucket got smaller.
    if (version != 0) txn.truncate(bucket_key(bucket), encoded.size());
    txn.write(bucket_key(bucket), 0, as_view(encoded));
    auto st = txn.commit();
    if (st.ok()) return Status::success();
    if (st.code() != Errc::conflict) return st;
    // Conflict: another writer landed first; reload and retry.
  }
  return {Errc::conflict, "bucket update retries exhausted"};
}

Status KvStore::put(sim::SimAgent& agent, std::string_view key, std::string_view value) {
  return update_bucket(agent, bucket_of(key), [&](Entries& entries) {
    for (auto& [k, v] : entries) {
      if (k == key) {
        v = std::string{value};
        return Status::success();
      }
    }
    entries.emplace_back(std::string{key}, std::string{value});
    return Status::success();
  });
}

Result<std::string> KvStore::get(sim::SimAgent& agent, std::string_view key) {
  blob::BlobClient client(*store_, &agent);
  auto entries = load_bucket(client, bucket_of(key), nullptr);
  if (!entries.ok()) return entries.error();
  for (const auto& [k, v] : entries.value()) {
    if (k == key) return v;
  }
  return {Errc::not_found, std::string{key}};
}

Status KvStore::erase(sim::SimAgent& agent, std::string_view key) {
  return update_bucket(agent, bucket_of(key), [&](Entries& entries) {
    const auto before = entries.size();
    entries.erase(std::remove_if(entries.begin(), entries.end(),
                                 [&](const auto& kv) { return kv.first == key; }),
                  entries.end());
    if (entries.size() == before) return Status{Errc::not_found, std::string{key}};
    return Status::success();
  });
}

bool KvStore::contains(sim::SimAgent& agent, std::string_view key) {
  return get(agent, key).ok();
}

Status KvStore::put_many(sim::SimAgent& agent,
                         const std::vector<std::pair<std::string, std::string>>& pairs) {
  if (pairs.empty()) return Status::success();
  blob::BlobClient client(*store_, &agent);
  for (std::uint32_t attempt = 0; attempt < cfg_.max_txn_retries; ++attempt) {
    // Group by bucket, load each involved bucket, apply all mutations, then
    // commit every bucket image in ONE transaction with version guards —
    // all-or-nothing across the whole batch.
    std::map<std::uint32_t, Entries> images;
    std::map<std::uint32_t, blob::Version> versions;
    bool load_failed = false;
    for (const auto& [key, value] : pairs) {
      const std::uint32_t b = bucket_of(key);
      if (!images.count(b)) {
        blob::Version ver = 0;
        auto entries = load_bucket(client, b, &ver);
        if (!entries.ok()) {
          load_failed = true;
          break;
        }
        images.emplace(b, std::move(entries).take());
        versions.emplace(b, ver);
      }
      Entries& entries = images[b];
      bool replaced = false;
      for (auto& [k, v] : entries) {
        if (k == key) {
          v = value;
          replaced = true;
          break;
        }
      }
      if (!replaced) entries.emplace_back(key, value);
    }
    if (load_failed) return {Errc::io_error, "bucket load failed"};

    auto txn = client.begin_transaction();
    for (const auto& [b, entries] : images) {
      const Bytes encoded = encode_bucket(entries);
      txn.expect_version(bucket_key(b), versions[b]);
      if (versions[b] != 0) txn.truncate(bucket_key(b), encoded.size());
      txn.write(bucket_key(b), 0, as_view(encoded));
    }
    auto st = txn.commit();
    if (st.ok()) return Status::success();
    if (st.code() != Errc::conflict) return st;
  }
  return {Errc::conflict, "put_many retries exhausted"};
}

Result<std::vector<std::pair<std::string, std::string>>> KvStore::items(
    sim::SimAgent& agent) {
  blob::BlobClient client(*store_, &agent);
  Entries all;
  for (std::uint32_t b = 0; b < cfg_.buckets; ++b) {
    auto entries = load_bucket(client, b, nullptr);
    if (!entries.ok()) return entries.error();
    for (auto& kv : entries.value()) all.push_back(std::move(kv));
  }
  std::sort(all.begin(), all.end());
  return all;
}

std::uint64_t KvStore::approximate_count(sim::SimAgent& agent) {
  auto all = items(agent);
  return all.ok() ? all.value().size() : 0;
}

}  // namespace bsc::kvstore
