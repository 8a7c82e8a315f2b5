#include "adapter/blobfs.hpp"

#include <algorithm>
#include <charconv>
#include <mutex>
#include <set>

#include "common/strings.hpp"
#include "rpc/wire.hpp"

namespace bsc::adapter {

namespace {
std::atomic<std::uint64_t> next_fs_id{1};

/// The client this thread used last, and the BlobFs it belongs to.
struct ThreadClient {
  std::uint64_t fs_id = 0;
  blob::BlobClient* client = nullptr;
};
thread_local ThreadClient last_client;
}  // namespace

BlobFs::BlobFs(blob::BlobStore& store, BlobFsConfig cfg)
    : store_(&store), cfg_(cfg), id_(next_fs_id.fetch_add(1, std::memory_order_relaxed)) {}

blob::BlobClient& BlobFs::thread_client() {
  if (last_client.fs_id != id_) {
    std::lock_guard<std::mutex> lk(clients_mu_);
    auto& c = clients_[std::this_thread::get_id()];
    if (!c) c = std::make_unique<blob::BlobClient>(*store_, nullptr);
    last_client = {id_, c.get()};
  }
  return *last_client.client;
}

blob::BlobClient& BlobFs::client_for(const vfs::IoCtx& ctx) {
  blob::BlobClient& c = thread_client();
  c.start_call(ctx.agent);
  return c;
}

std::string BlobFs::meta_key(std::string_view norm_path) {
  return "m!" + std::string{norm_path};
}

std::string BlobFs::chunk_key(std::string_view norm_path, std::uint64_t chunk) {
  // "d!<path>!" + the chunk index zero-padded to at least 8 digits. Built
  // directly: this runs once per chunk of every data call.
  char digits[20];  // UINT64_MAX has 20 decimal digits
  const auto len = static_cast<std::size_t>(
      std::to_chars(digits, digits + sizeof digits, chunk).ptr - digits);
  const std::size_t pad = len < 8 ? 8 - len : 0;
  std::string key;
  key.reserve(3 + norm_path.size() + pad + len);
  key.append("d!").append(norm_path).append(1, '!').append(pad, '0').append(digits, len);
  return key;
}

std::string BlobFs::child_meta_prefix(std::string_view norm_dir) {
  std::string p = "m!" + std::string{norm_dir};
  if (p.back() != '/') p.push_back('/');
  return p;
}

Bytes BlobFs::encode_meta(const Meta& m) {
  rpc::WireWriter w;
  w.put_u8(m.type == vfs::FileType::directory ? 1 : 0);
  w.put_u32(m.mode);
  w.put_u32(m.uid);
  w.put_u32(m.gid);
  w.put_u64(m.size);
  w.put_u32(static_cast<std::uint32_t>(m.xattrs.size()));
  for (const auto& [k, v] : m.xattrs) {
    w.put_string(k);
    w.put_string(v);
  }
  return std::move(w).take();
}

Result<BlobFs::Meta> BlobFs::decode_meta(ByteView data) {
  rpc::WireReader r(data);
  Meta m;
  auto type = r.get_u8();
  auto mode = r.get_u32();
  auto uid = r.get_u32();
  auto gid = r.get_u32();
  auto size = r.get_u64();
  auto nx = r.get_u32();
  if (!type.ok() || !mode.ok() || !uid.ok() || !gid.ok() || !size.ok() || !nx.ok()) {
    return {Errc::io_error, "corrupt metadata blob"};
  }
  m.type = type.value() ? vfs::FileType::directory : vfs::FileType::regular;
  m.mode = mode.value();
  m.uid = uid.value();
  m.gid = gid.value();
  m.size = size.value();
  for (std::uint32_t i = 0; i < nx.value(); ++i) {
    auto k = r.get_string();
    auto v = r.get_string();
    if (!k.ok() || !v.ok()) return {Errc::io_error, "corrupt xattr encoding"};
    m.xattrs.emplace_back(std::move(k).take(), std::move(v).take());
  }
  return m;
}

Result<BlobFs::Meta> BlobFs::load_meta(blob::BlobClient& client,
                                       std::string_view norm_path) {
  // One round trip: blob reads clip at the object's end, so an oversized
  // read returns exactly the encoded metadata.
  constexpr std::uint64_t kMetaReadCap = 64 * 1024;
  auto data = client.read(meta_key(norm_path), 0, kMetaReadCap);
  if (!data.ok()) return {Errc::not_found, std::string{norm_path}};
  return decode_meta(as_view(data.value()));
}

Status BlobFs::store_meta(blob::BlobClient& client, std::string_view norm_path,
                          const Meta& m) {
  const Bytes enc = encode_meta(m);
  const std::string key = meta_key(norm_path);
  // The metadata blob shrinks when xattrs are removed; truncate-then-write
  // keeps the stored object exactly the encoded length.
  auto sz = client.size(key);
  if (sz.ok() && sz.value() > enc.size()) {
    auto ts = client.truncate(key, enc.size());
    if (!ts.ok()) return ts;
  }
  auto w = client.write(key, 0, as_view(enc));
  return w.ok() ? Status::success() : Status{w.error()};
}

Result<BlobFs::OpenFile*> BlobFs::lookup_handle(vfs::FileHandle fh) {
  std::shared_lock lk(handles_mu_);
  auto it = handles_.find(fh);
  if (it == handles_.end()) return {Errc::closed, "bad handle"};
  return &it->second;
}

Status BlobFs::flush_size(blob::BlobClient& client, OpenFile& of) {
  if (!of.size_dirty) return Status::success();
  // Two ranks flushing at once would both read the old size, and the later
  // store would drop the larger one.
  std::lock_guard<std::mutex> lk(meta_mu_);
  auto current = load_meta(client, of.path);
  Meta merged = current.ok() ? current.value() : of.meta;
  merged.size = std::max(merged.size, of.meta.size);
  auto st = store_meta(client, of.path, merged);
  if (st.ok()) of.size_dirty = false;
  return st;
}

Result<vfs::FileHandle> BlobFs::open(const vfs::IoCtx& ctx, std::string_view path,
                                     vfs::OpenFlags flags, vfs::Mode mode) {
  if (!flags.read && !flags.write) return {Errc::invalid_argument, "open without r/w"};
  auto& client = client_for(ctx);
  const std::string norm = normalize_path(path);
  auto meta = load_meta(client, norm);
  Meta cached;
  if (!meta.ok()) {
    if (!(flags.write && flags.create)) return meta.error();
    cached.mode = mode;
    cached.uid = ctx.uid;
    cached.gid = ctx.gid;
    auto st = store_meta(client, norm, cached);
    if (!st.ok()) return st.error();
  } else {
    if (meta.value().type == vfs::FileType::directory) {
      if (flags.write) return {Errc::is_a_directory, norm};
    }
    if (flags.exclusive && flags.create) return {Errc::already_exists, norm};
    cached = std::move(meta).take();
  }
  if (flags.truncate && cached.size > 0) {
    // truncate() restarts this thread's client; `client` is not used again.
    auto ts = truncate(ctx, norm, 0);
    if (!ts.ok()) return ts.error();
    cached.size = 0;
  }
  const vfs::FileHandle fh = next_handle_.fetch_add(1, std::memory_order_relaxed);
  {
    std::unique_lock lk(handles_mu_);
    handles_.emplace(fh, OpenFile{norm, flags, std::move(cached), false});
  }
  return fh;
}

Status BlobFs::close(const vfs::IoCtx& ctx, vfs::FileHandle fh) {
  OpenFile of;
  {
    std::unique_lock lk(handles_mu_);
    auto it = handles_.find(fh);
    if (it == handles_.end()) return {Errc::closed, "bad handle"};
    of = std::move(it->second);
    handles_.erase(it);
  }
  auto& client = client_for(ctx);
  return flush_size(client, of);
}

Result<Bytes> BlobFs::read(const vfs::IoCtx& ctx, vfs::FileHandle fh, std::uint64_t offset,
                           std::uint64_t len) {
  auto h = lookup_handle(fh);
  if (!h.ok()) return h.error();
  OpenFile& of = *h.value();
  if (!of.flags.read) return {Errc::invalid_argument, "handle not open for read"};
  const std::uint64_t fsize = of.meta.size;  // capability-cached
  if (offset >= fsize || len == 0) return Bytes{};
  len = std::min(len, fsize - offset);

  // Chunk reads fan out in parallel: each chunk is an independent blob on
  // its own replica set, so we fork a sim agent per chunk and join on the
  // slowest one — the same overlap a striped CephFS read gets. The result
  // takes the first piece as-is and appends later ones; resize() zero-fills
  // missing chunks (holes) and pieces cut short by a chunk's end.
  Bytes out;
  const std::uint64_t cb = cfg_.chunk_bytes;
  blob::BlobClient& cc = thread_client();
  sim::SimAgent join_point = ctx.agent ? ctx.agent->fork() : sim::SimAgent{};
  std::uint64_t cur = offset;
  const std::uint64_t end = offset + len;
  while (cur < end) {
    const std::uint64_t chunk = cur / cb;
    const std::uint64_t in_chunk = cur % cb;
    const std::uint64_t n = std::min(cb - in_chunk, end - cur);
    sim::SimAgent worker = ctx.agent ? ctx.agent->fork() : sim::SimAgent{};
    cc.start_call(ctx.agent ? &worker : nullptr);
    auto piece = cc.read(chunk_key(of.path, chunk), in_chunk, n);
    if (piece.ok()) {
      if (cur == offset) {
        out = std::move(piece).take();
      } else {
        out.reserve(len);  // one allocation, however many chunks follow
        out.resize(cur - offset);
        append(out, as_view(piece.value()));
      }
    } else if (piece.error().code != Errc::not_found) {
      return piece.error();  // missing chunk = hole (reads as zeros)
    }
    join_point.join(worker);
    cur += n;
  }
  if (ctx.agent) ctx.agent->join(join_point);
  out.resize(len);
  return out;
}

Result<std::uint64_t> BlobFs::write(const vfs::IoCtx& ctx, vfs::FileHandle fh,
                                    std::uint64_t offset, ByteView data) {
  auto h = lookup_handle(fh);
  if (!h.ok()) return h.error();
  OpenFile& of = *h.value();
  if (!of.flags.write) return {Errc::invalid_argument, "handle not open for write"};
  if (of.flags.append) offset = of.meta.size;  // capability-cached

  // Parallel chunk writes (fork/join as in read()).
  const std::uint64_t cb = cfg_.chunk_bytes;
  blob::BlobClient& cc = thread_client();
  sim::SimAgent join_point = ctx.agent ? ctx.agent->fork() : sim::SimAgent{};
  std::uint64_t cur = offset;
  const std::uint64_t end = offset + data.size();
  while (cur < end) {
    const std::uint64_t chunk = cur / cb;
    const std::uint64_t in_chunk = cur % cb;
    const std::uint64_t n = std::min(cb - in_chunk, end - cur);
    sim::SimAgent worker = ctx.agent ? ctx.agent->fork() : sim::SimAgent{};
    cc.start_call(ctx.agent ? &worker : nullptr);
    auto w = cc.write(chunk_key(of.path, chunk), in_chunk,
                      subview(data, cur - offset, n));
    if (!w.ok()) return w.error();
    join_point.join(worker);
    cur += n;
  }
  if (ctx.agent) ctx.agent->join(join_point);

  if (end > of.meta.size) {
    // Capability-style: grow the cached size now, persist it on sync/close.
    of.meta.size = end;
    of.size_dirty = true;
  }
  return data.size();
}

Status BlobFs::sync(const vfs::IoCtx& ctx, vfs::FileHandle fh) {
  // Data writes are durable when acked; sync's job here is to publish the
  // cached size growth to the metadata blob (capability flush).
  auto h = lookup_handle(fh);
  if (!h.ok()) return h.error();
  auto& client = client_for(ctx);
  return flush_size(client, *h.value());
}

Status BlobFs::remove_file_blobs(blob::BlobClient& client, std::string_view norm_path,
                                 std::uint64_t size) {
  const std::uint64_t chunks = (size + cfg_.chunk_bytes - 1) / cfg_.chunk_bytes;
  auto st = client.remove(meta_key(norm_path));
  if (!st.ok()) return st;
  for (std::uint64_t c = 0; c < chunks; ++c) {
    auto cs = client.remove(chunk_key(norm_path, c));
    if (!cs.ok() && cs.code() != Errc::not_found) return cs;  // holes have no chunk
  }
  return Status::success();
}

Status BlobFs::truncate(const vfs::IoCtx& ctx, std::string_view path,
                        std::uint64_t new_size) {
  auto& client = client_for(ctx);
  const std::string norm = normalize_path(path);
  auto meta = load_meta(client, norm);
  if (!meta.ok()) return meta.error();
  if (meta.value().type == vfs::FileType::directory) return {Errc::is_a_directory, norm};
  const std::uint64_t old_size = meta.value().size;
  if (new_size < old_size) {
    const std::uint64_t cb = cfg_.chunk_bytes;
    const std::uint64_t first_dead = (new_size + cb - 1) / cb;
    const std::uint64_t old_chunks = (old_size + cb - 1) / cb;
    for (std::uint64_t c = first_dead; c < old_chunks; ++c) {
      auto st = client.remove(chunk_key(norm, c));
      if (!st.ok() && st.code() != Errc::not_found) return st;
    }
    if (new_size % cb != 0) {
      auto st = client.truncate(chunk_key(norm, new_size / cb), new_size % cb);
      if (!st.ok() && st.code() != Errc::not_found) return st;
    }
  }
  Meta updated = meta.value();
  updated.size = new_size;
  return store_meta(client, norm, updated);
}

Status BlobFs::unlink(const vfs::IoCtx& ctx, std::string_view path) {
  auto& client = client_for(ctx);
  const std::string norm = normalize_path(path);
  auto meta = load_meta(client, norm);
  if (!meta.ok()) return meta.error();
  if (meta.value().type == vfs::FileType::directory) return {Errc::is_a_directory, norm};
  return remove_file_blobs(client, norm, meta.value().size);
}

Status BlobFs::mkdir(const vfs::IoCtx& ctx, std::string_view path, vfs::Mode mode) {
  auto& client = client_for(ctx);
  const std::string norm = normalize_path(path);
  if (norm == "/") return {Errc::already_exists, "/"};
  if (load_meta(client, norm).ok()) return {Errc::already_exists, norm};
  const std::string parent = parent_path(norm);
  if (parent != "/") {
    auto pm = load_meta(client, parent);
    if (!pm.ok()) return {Errc::not_found, parent};
    if (pm.value().type != vfs::FileType::directory) return {Errc::not_a_directory, parent};
  }
  Meta m;
  m.type = vfs::FileType::directory;
  m.mode = mode;
  m.uid = ctx.uid;
  m.gid = ctx.gid;
  return store_meta(client, norm, m);
}

Status BlobFs::rmdir(const vfs::IoCtx& ctx, std::string_view path) {
  auto& client = client_for(ctx);
  const std::string norm = normalize_path(path);
  if (norm == "/") return {Errc::invalid_argument, "cannot remove /"};
  auto meta = load_meta(client, norm);
  if (!meta.ok()) return meta.error();
  if (meta.value().type != vfs::FileType::directory) return {Errc::not_a_directory, norm};
  // Emptiness check = namespace scan (§III: emulated, unoptimized, priced).
  auto children = client.scan(child_meta_prefix(norm));
  if (!children.ok()) return children.error();
  if (!children.value().empty()) return {Errc::not_empty, norm};
  return client.remove(meta_key(norm));
}

Result<std::vector<vfs::DirEntry>> BlobFs::readdir(const vfs::IoCtx& ctx,
                                                   std::string_view path) {
  auto& client = client_for(ctx);
  const std::string norm = normalize_path(path);
  if (norm != "/") {
    auto meta = load_meta(client, norm);
    if (!meta.ok()) return meta.error();
    if (meta.value().type != vfs::FileType::directory) {
      return {Errc::not_a_directory, norm};
    }
  }
  // Directory listing = namespace scan over metadata blobs, filtered to the
  // immediate children (deeper descendants share the prefix: cut at '/').
  const std::string prefix = child_meta_prefix(norm);
  auto keys = client.scan(prefix);
  if (!keys.ok()) return keys.error();
  std::set<std::string> names;
  std::vector<vfs::DirEntry> out;
  for (const auto& bs : keys.value()) {
    std::string_view rest{bs.key};
    rest.remove_prefix(prefix.size());
    const auto slash = rest.find('/');
    const bool direct_child = slash == std::string_view::npos;
    const std::string name{direct_child ? rest : rest.substr(0, slash)};
    if (name.empty() || !names.insert(name).second) continue;
    if (direct_child) {
      // Child's own marker: decode its type without another round-trip
      // (the scan already walked it; a real client would batch-stat).
      auto meta = load_meta(client, join_path(norm, name));
      out.push_back({name, meta.ok() ? meta.value().type : vfs::FileType::regular});
    } else {
      out.push_back({name, vfs::FileType::directory});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  return out;
}

Result<vfs::FileInfo> BlobFs::stat(const vfs::IoCtx& ctx, std::string_view path) {
  auto& client = client_for(ctx);
  const std::string norm = normalize_path(path);
  if (norm == "/") {
    return vfs::FileInfo{"/", vfs::FileType::directory, 0, 0777, 0, 0, 0};
  }
  auto meta = load_meta(client, norm);
  if (!meta.ok()) return meta.error();
  const Meta& m = meta.value();
  return vfs::FileInfo{norm, m.type, m.size, m.mode, m.uid, m.gid, 0};
}

Status BlobFs::rename(const vfs::IoCtx& ctx, std::string_view from, std::string_view to) {
  auto& client = client_for(ctx);
  const std::string nf = normalize_path(from);
  const std::string nt = normalize_path(to);
  auto meta = load_meta(client, nf);
  if (!meta.ok()) return meta.error();
  if (meta.value().type == vfs::FileType::directory) {
    return {Errc::unsupported, "directory rename on a flat namespace"};
  }
  if (load_meta(client, nt).ok()) return {Errc::already_exists, nt};
  // Flat namespaces have no rename primitive: copy every chunk, write the
  // new metadata, then delete the source. Deliberately expensive.
  const std::uint64_t cb = cfg_.chunk_bytes;
  const std::uint64_t chunks = (meta.value().size + cb - 1) / cb;
  for (std::uint64_t c = 0; c < chunks; ++c) {
    auto piece = client.read(chunk_key(nf, c), 0, cb);
    if (!piece.ok()) {
      if (piece.error().code == Errc::not_found) continue;  // hole
      return piece.error();
    }
    auto w = client.write(chunk_key(nt, c), 0, as_view(piece.value()));
    if (!w.ok()) return w.error();
  }
  auto st = store_meta(client, nt, meta.value());
  if (!st.ok()) return st;
  return remove_file_blobs(client, nf, meta.value().size);
}

Status BlobFs::chmod(const vfs::IoCtx& ctx, std::string_view path, vfs::Mode mode) {
  auto& client = client_for(ctx);
  const std::string norm = normalize_path(path);
  auto meta = load_meta(client, norm);
  if (!meta.ok()) return meta.error();
  Meta updated = meta.value();
  updated.mode = mode & 0777;
  return store_meta(client, norm, updated);
}

Result<std::string> BlobFs::getxattr(const vfs::IoCtx& ctx, std::string_view path,
                                     std::string_view name) {
  auto& client = client_for(ctx);
  auto meta = load_meta(client, normalize_path(path));
  if (!meta.ok()) return meta.error();
  for (const auto& [k, v] : meta.value().xattrs) {
    if (k == name) return v;
  }
  return {Errc::not_found, std::string{name}};
}

Status BlobFs::setxattr(const vfs::IoCtx& ctx, std::string_view path, std::string_view name,
                        std::string_view value) {
  auto& client = client_for(ctx);
  const std::string norm = normalize_path(path);
  auto meta = load_meta(client, norm);
  if (!meta.ok()) return meta.error();
  Meta updated = meta.value();
  bool replaced = false;
  for (auto& [k, v] : updated.xattrs) {
    if (k == name) {
      v = std::string{value};
      replaced = true;
      break;
    }
  }
  if (!replaced) updated.xattrs.emplace_back(std::string{name}, std::string{value});
  return store_meta(client, norm, updated);
}

}  // namespace bsc::adapter
