#include "apps/hpc_apps.hpp"

#include <algorithm>
#include <mutex>

#include "apps/app_spec.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "mpiio/mpi_file.hpp"
#include "trace/tracing_fs.hpp"
#include "vfs/helpers.hpp"

namespace bsc::apps {

namespace {

/// Untraced context for input staging (no agent: nothing is charged, and the
/// cluster queues are reset afterwards so the traced phase starts clean).
const vfs::IoCtx kStagingCtx{nullptr, 500, 500};

constexpr SimMicros kComputePerReqUs = 15;  ///< per-request application compute

/// Write `size` bytes of payload stream `seed` to `path` in 1 MiB calls,
/// generating each call's bytes into one reused buffer.
Status stage_file(vfs::FileSystem& fs, std::string_view path, std::uint64_t size,
                  std::uint64_t seed) {
  constexpr std::uint64_t kCall = 1 << 20;
  auto fh = fs.open(kStagingCtx, path, vfs::OpenFlags::wr());
  if (!fh.ok()) return fh.error();
  Bytes buf(std::min(size, kCall));
  for (std::uint64_t off = 0; off < size;) {
    const MutableByteView chunk(buf.data(), std::min(kCall, size - off));
    fill_payload(seed, off, chunk);
    auto w = fs.write(kStagingCtx, fh.value(), off, chunk);
    if (!w.ok()) {
      (void)fs.close(kStagingCtx, fh.value());
      return w.error();
    }
    off += w.value();
  }
  return fs.close(kStagingCtx, fh.value());
}

/// Sequentially read [off, off+len) of `fh` in `req`-sized calls, charging
/// per-request compute. Returns bytes read.
Result<std::uint64_t> read_range(mpiio::MpiIo& io, vfs::FileHandle fh, std::uint64_t off,
                                 std::uint64_t len, std::uint64_t req) {
  std::uint64_t done = 0;
  while (done < len) {
    const std::uint64_t n = std::min(req, len - done);
    auto r = io.read_at(fh, off + done, n);
    if (!r.ok()) return r.error();
    if (r.value().empty()) break;  // EOF
    done += r.value().size();
    io.ctx().charge(kComputePerReqUs);
  }
  return done;
}

/// Sequentially write [off, off+len) in `req`-sized calls of synthetic data.
Status write_range(mpiio::MpiIo& io, vfs::FileHandle fh, std::uint64_t off,
                   std::uint64_t len, std::uint64_t req, std::uint64_t seed) {
  Bytes buf(std::min(req, len));
  std::uint64_t done = 0;
  while (done < len) {
    const MutableByteView chunk(buf.data(), std::min(req, len - done));
    fill_payload(seed, off + done, chunk);
    auto w = io.write_at(fh, off + done, chunk);
    if (!w.ok()) return w.error();
    done += w.value();
    io.ctx().charge(kComputePerReqUs);
  }
  return Status::success();
}

/// Run `body(rank, io)` on `ranks` concurrent threads, each with its own
/// SimAgent forked from `driver`; driver joins the slowest rank.
Status run_ranks(vfs::FileSystem& fs, sim::Cluster& cluster, std::uint32_t ranks,
                 sim::SimAgent& driver,
                 const std::function<Status(std::uint32_t, mpiio::MpiIo&)>& body) {
  mpiio::Communicator comm(ranks, cluster.net());
  std::vector<sim::SimAgent> agents(ranks, driver.fork());
  std::mutex fail_mu;
  Status failure = Status::success();
  // Dedicated threads: MPI barriers require all ranks live simultaneously.
  ThreadPool rank_pool(ranks);
  rank_pool.parallel_for(ranks, [&](std::size_t r) {
    mpiio::MpiIo io(comm, static_cast<std::uint32_t>(r), fs,
                    vfs::IoCtx{&agents[r], 500, 500});
    auto st = body(static_cast<std::uint32_t>(r), io);
    if (!st.ok()) {
      std::scoped_lock lk(fail_mu);
      if (failure.ok()) failure = st;
    }
  });
  for (const auto& a : agents) driver.join(a);
  return failure;
}

// ------------------------------------------------------------- BLAST ----

Status stage_blast(vfs::FileSystem& fs, const HpcAppSpec& spec, std::uint64_t seed) {
  auto st = vfs::mkdir_recursive(fs, kStagingCtx, "/data/blastdb");
  if (!st.ok()) return st;
  st = vfs::mkdir_recursive(fs, kStagingCtx, "/out/blast");
  if (!st.ok()) return st;
  const std::uint64_t query = spec.read_total / (spec.ranks * 8);
  const std::uint64_t frag = spec.read_total / spec.ranks - query;
  for (std::uint32_t r = 0; r < spec.ranks; ++r) {
    st = stage_file(fs, strfmt("/data/blastdb/frag-%02u", r), frag, seed ^ r);
    if (!st.ok()) return st;
  }
  return stage_file(fs, "/data/queries.fasta", query, seed ^ 0xbeef);
}

Status run_blast(vfs::FileSystem& fs, sim::Cluster& cluster, const HpcAppSpec& spec,
                 sim::SimAgent& driver, std::uint64_t seed) {
  return run_ranks(fs, cluster, spec.ranks, driver,
                   [&](std::uint32_t rank, mpiio::MpiIo& io) -> Status {
    // Every rank scans the full query set against its own DB fragment.
    auto qf = io.file_open("/data/queries.fasta", mpiio::AccessMode::read_only());
    if (!qf.ok()) return qf.error();
    auto ff = io.file_open(strfmt("/data/blastdb/frag-%02u", rank),
                           mpiio::AccessMode::read_only());
    if (!ff.ok()) return ff.error();
    const std::uint64_t query = spec.read_total / (spec.ranks * 8);
    const std::uint64_t frag = spec.read_total / spec.ranks - query;
    auto r1 = read_range(io, qf.value(), 0, query, spec.read_req);
    if (!r1.ok()) return r1.error();
    auto r2 = read_range(io, ff.value(), 0, frag, spec.read_req);
    if (!r2.ok()) return r2.error();
    auto st = io.file_close(qf.value());
    if (!st.ok()) return st;
    st = io.file_close(ff.value());
    if (!st.ok()) return st;
    // Rank 0 writes the merged hit report.
    auto rf = io.file_open("/out/blast/results.txt", mpiio::AccessMode::write_create());
    if (!rf.ok()) return rf.error();
    if (rank == 0) {
      st = write_range(io, rf.value(), 0, spec.write_total, spec.write_req, seed ^ 0xcafe);
      if (!st.ok()) return st;
    }
    return io.file_close(rf.value());
  });
}

// --------------------------------------------------------------- MOM ----

Status stage_mom(vfs::FileSystem& fs, const HpcAppSpec& spec, std::uint64_t seed) {
  auto st = vfs::mkdir_recursive(fs, kStagingCtx, "/data/mom");
  if (!st.ok()) return st;
  st = vfs::mkdir_recursive(fs, kStagingCtx, "/out/mom");
  if (!st.ok()) return st;
  const std::uint64_t restart = spec.read_total / 4;
  const std::uint64_t forcing = spec.read_total - restart;
  st = stage_file(fs, "/data/mom/restart.nc", restart, seed ^ 1);
  if (!st.ok()) return st;
  return stage_file(fs, "/data/mom/forcing.nc", forcing, seed ^ 2);
}

Status run_mom(vfs::FileSystem& fs, sim::Cluster& cluster, const HpcAppSpec& spec,
               sim::SimAgent& driver, std::uint64_t seed) {
  constexpr std::uint32_t kSteps = 32;
  constexpr std::uint32_t kDiagInterval = 4;
  return run_ranks(fs, cluster, spec.ranks, driver,
                   [&](std::uint32_t rank, mpiio::MpiIo& io) -> Status {
    const std::uint64_t restart = spec.read_total / 4;
    const std::uint64_t forcing = spec.read_total - restart;
    // Restart: each rank reads its domain decomposition slice.
    auto rf = io.file_open("/data/mom/restart.nc", mpiio::AccessMode::read_only());
    if (!rf.ok()) return rf.error();
    const std::uint64_t rslice = restart / spec.ranks;
    auto rr = read_range(io, rf.value(), rank * rslice, rslice, spec.read_req);
    if (!rr.ok()) return rr.error();
    auto st = io.file_close(rf.value());
    if (!st.ok()) return st;

    auto ff = io.file_open("/data/mom/forcing.nc", mpiio::AccessMode::read_only());
    if (!ff.ok()) return ff.error();
    // Diagnostics: shared output file written collectively every interval;
    // a final restart dump takes the remainder of the write budget.
    const std::uint64_t dumps = kSteps / kDiagInterval;
    const std::uint64_t diag_budget = spec.write_total * 9 / 10;
    const std::uint64_t per_dump_per_rank = diag_budget / (dumps * spec.ranks);
    auto df = io.file_open("/out/mom/diag.nc", mpiio::AccessMode::write_create());
    if (!df.ok()) return df.error();

    const std::uint64_t fslice = forcing / (kSteps * spec.ranks);
    Bytes dump(per_dump_per_rank);
    std::uint64_t diag_off = 0;
    for (std::uint32_t step = 0; step < kSteps; ++step) {
      const std::uint64_t foff =
          (static_cast<std::uint64_t>(step) * spec.ranks + rank) * fslice;
      auto fr = read_range(io, ff.value(), foff, fslice, spec.read_req);
      if (!fr.ok()) return fr.error();
      io.ctx().charge(400);  // timestep compute
      if ((step + 1) % kDiagInterval == 0) {
        // Collective write: contiguous per-rank slices, aggregated by the
        // MPI-IO layer into large sequential storage calls.
        fill_payload(seed ^ step, rank * per_dump_per_rank, dump);
        auto w = io.write_at_all(df.value(), diag_off + rank * per_dump_per_rank,
                                 as_view(dump));
        if (!w.ok()) return w.error();
        diag_off += per_dump_per_rank * spec.ranks;
      }
    }
    auto stc = io.file_close(ff.value());
    if (!stc.ok()) return stc;
    stc = io.file_sync(df.value());
    if (!stc.ok()) return stc;
    stc = io.file_close(df.value());
    if (!stc.ok()) return stc;

    // Final restart dump: independent per-rank writes.
    const std::uint64_t dump_budget = spec.write_total - diag_budget;
    const std::uint64_t dslice = dump_budget / spec.ranks;
    auto of = io.file_open("/out/mom/restart.out.nc", mpiio::AccessMode::write_create());
    if (!of.ok()) return of.error();
    auto ws = write_range(io, of.value(), rank * dslice, dslice, spec.write_req,
                          seed ^ 0xd00d);
    if (!ws.ok()) return ws;
    return io.file_close(of.value());
  });
}

// ------------------------------------------------------------ ECOHAM ----

Status stage_ecoham(vfs::FileSystem& fs, const HpcAppSpec& spec, std::uint64_t seed) {
  auto st = vfs::mkdir_recursive(fs, kStagingCtx, "/data/eh/forcing");
  if (!st.ok()) return st;
  st = vfs::mkdir_recursive(fs, kStagingCtx, "/out/eh");
  if (!st.ok()) return st;
  st = stage_file(fs, "/data/eh/init.nc", spec.read_total * 9 / 10, seed ^ 11);
  if (!st.ok()) return st;
  st = stage_file(fs, "/data/eh/namelist", 2048, seed ^ 12);
  if (!st.ok()) return st;
  // Small per-station forcing files; the prep script inspects their xattrs.
  for (std::uint32_t i = 0; i < 60; ++i) {
    const std::string p = strfmt("/data/eh/forcing/station-%02u.dat", i);
    st = stage_file(fs, p, 512, seed ^ i);
    if (!st.ok()) return st;
    st = fs.setxattr(kStagingCtx, p, "user.station", strfmt("st-%02u", i));
    if (!st.ok()) return st;
  }
  return Status::success();
}

/// The ECOHAM run-preparation script: directory listings, xattr reads,
/// config reads and a small run-configuration write — the non-read/write
/// calls visible in the EH bar of Figure 1.
Status ecoham_prep_script(vfs::FileSystem& fs, sim::SimAgent& driver) {
  vfs::IoCtx ctx{&driver, 500, 500};
  auto top = fs.readdir(ctx, "/data/eh");
  if (!top.ok()) return top.error();
  auto forcing = fs.readdir(ctx, "/data/eh/forcing");
  if (!forcing.ok()) return forcing.error();
  for (const auto& e : forcing.value()) {
    const std::string p = join_path("/data/eh/forcing", e.name);
    auto info = fs.stat(ctx, p);
    if (!info.ok()) return info.error();
    auto xa = fs.getxattr(ctx, p, "user.station");
    if (!xa.ok()) return xa.error();
  }
  auto nl = vfs::read_file(fs, ctx, "/data/eh/namelist");
  if (!nl.ok()) return nl.error();
  return vfs::write_file(fs, ctx, "/out/eh/run.cfg", as_view(to_bytes("run=eh\n")));
}

/// The post-run collection script: list outputs, stat them, write a summary.
Status ecoham_collect_script(vfs::FileSystem& fs, sim::SimAgent& driver) {
  vfs::IoCtx ctx{&driver, 500, 500};
  auto out = fs.readdir(ctx, "/out/eh");
  if (!out.ok()) return out.error();
  std::uint64_t total = 0;
  for (const auto& e : out.value()) {
    if (e.type != vfs::FileType::regular) continue;
    auto info = fs.stat(ctx, join_path("/out/eh", e.name));
    if (!info.ok()) return info.error();
    total += info.value().size;
  }
  return vfs::write_file(fs, ctx, "/out/eh/summary.txt",
                         as_view(to_bytes(strfmt("bytes=%llu\n",
                                                 static_cast<unsigned long long>(total)))));
}

Status run_ecoham(vfs::FileSystem& fs, sim::Cluster& cluster, const HpcAppSpec& spec,
                  sim::SimAgent& driver, std::uint64_t seed) {
  constexpr std::uint32_t kSteps = 16;
  return run_ranks(fs, cluster, spec.ranks, driver,
                   [&](std::uint32_t rank, mpiio::MpiIo& io) -> Status {
    const std::uint64_t init_sz = spec.read_total * 9 / 10;
    auto inf = io.file_open("/data/eh/init.nc", mpiio::AccessMode::read_only());
    if (!inf.ok()) return inf.error();
    const std::uint64_t slice = init_sz / spec.ranks;
    auto rr = read_range(io, inf.value(), rank * slice, slice, spec.read_req);
    if (!rr.ok()) return rr.error();
    // Remainder of the read budget: every rank re-reads boundary strips.
    const std::uint64_t boundary = (spec.read_total - init_sz) / spec.ranks;
    auto br = read_range(io, inf.value(), 0, boundary, spec.read_req);
    if (!br.ok()) return br.error();
    auto st = io.file_close(inf.value());
    if (!st.ok()) return st;

    // Sediment outputs: one file per rank, appended every timestep.
    auto of = io.file_open(strfmt("/out/eh/sed-%02u.nc", rank),
                           mpiio::AccessMode::write_create());
    if (!of.ok()) return of.error();
    const std::uint64_t per_step = spec.write_total / (kSteps * spec.ranks);
    std::uint64_t off = 0;
    for (std::uint32_t step = 0; step < kSteps; ++step) {
      io.ctx().charge(300);  // biogeochemistry compute
      auto ws = write_range(io, of.value(), off, per_step, spec.write_req,
                            seed ^ (rank * 131 + step));
      if (!ws.ok()) return ws;
      off += per_step;
    }
    return io.file_close(of.value());
  });
}

// -------------------------------------------------------- Ray Tracing ----

Status stage_raytracing(vfs::FileSystem& fs, const HpcAppSpec& spec, std::uint64_t seed) {
  auto st = vfs::mkdir_recursive(fs, kStagingCtx, "/data/rt/frames");
  if (!st.ok()) return st;
  st = vfs::mkdir_recursive(fs, kStagingCtx, "/out/rt");
  if (!st.ok()) return st;
  constexpr std::uint32_t kFrames = 48;
  const std::uint64_t frame = spec.read_total / kFrames;
  for (std::uint32_t f = 0; f < kFrames; ++f) {
    st = stage_file(fs, strfmt("/data/rt/frames/frame-%04u.raw", f), frame, seed ^ f);
    if (!st.ok()) return st;
  }
  return Status::success();
}

Status run_raytracing(vfs::FileSystem& fs, sim::Cluster& cluster, const HpcAppSpec& spec,
                      sim::SimAgent& driver, std::uint64_t seed) {
  constexpr std::uint32_t kFrames = 48;
  return run_ranks(fs, cluster, spec.ranks, driver,
                   [&](std::uint32_t rank, mpiio::MpiIo& io) -> Status {
    const std::uint64_t in_frame = spec.read_total / kFrames;
    const std::uint64_t out_frame = spec.write_total / kFrames;
    for (std::uint32_t f = rank; f < kFrames; f += spec.ranks) {
      auto inf = io.file_open(strfmt("/data/rt/frames/frame-%04u.raw", f),
                              mpiio::AccessMode::read_only());
      if (!inf.ok()) return inf.error();
      auto rr = read_range(io, inf.value(), 0, in_frame, spec.read_req);
      if (!rr.ok()) return rr.error();
      auto st = io.file_close(inf.value());
      if (!st.ok()) return st;
      io.ctx().charge(2000);  // render

      auto of = io.file_open(strfmt("/out/rt/frame-%04u.out", f),
                             mpiio::AccessMode::write_create());
      if (!of.ok()) return of.error();
      auto ws = write_range(io, of.value(), 0, out_frame, spec.write_req, seed ^ (f * 7));
      if (!ws.ok()) return ws;
      st = io.file_close(of.value());
      if (!st.ok()) return st;
    }
    return Status::success();
  });
}

}  // namespace

std::string hpc_app_name(HpcAppKind kind, bool with_prep_script) {
  switch (kind) {
    case HpcAppKind::blast: return "BLAST";
    case HpcAppKind::mom: return "MOM";
    case HpcAppKind::ecoham: return with_prep_script ? "EH" : "EH/MPI";
    case HpcAppKind::raytracing: return "RT";
  }
  return "?";
}

HpcRunResult run_hpc_app(HpcAppKind kind, vfs::FileSystem& backing_fs,
                         sim::Cluster& cluster, const HpcRunOptions& opts) {
  HpcRunResult result;
  HpcAppSpec spec;
  switch (kind) {
    case HpcAppKind::blast: spec = blast_spec(); break;
    case HpcAppKind::mom: spec = mom_spec(); break;
    case HpcAppKind::ecoham: spec = ecoham_spec(); break;
    case HpcAppKind::raytracing: spec = raytracing_spec(); break;
  }
  spec.ranks = opts.ranks ? opts.ranks : spec.ranks;

  // Untraced input staging, then a clean simulated cluster.
  Status st = Status::success();
  switch (kind) {
    case HpcAppKind::blast: st = stage_blast(backing_fs, spec, opts.seed); break;
    case HpcAppKind::mom: st = stage_mom(backing_fs, spec, opts.seed); break;
    case HpcAppKind::ecoham: st = stage_ecoham(backing_fs, spec, opts.seed); break;
    case HpcAppKind::raytracing: st = stage_raytracing(backing_fs, spec, opts.seed); break;
  }
  if (!st.ok()) {
    result.error = "staging: " + st.message();
    return result;
  }
  cluster.reset();

  // Traced phase.
  trace::TraceRecorder recorder;
  trace::TracingFs traced(backing_fs, recorder);
  sim::SimAgent driver;

  if (kind == HpcAppKind::ecoham && opts.with_prep_script) {
    st = ecoham_prep_script(traced, driver);
    if (!st.ok()) {
      result.error = "prep script: " + st.message();
      return result;
    }
  }
  switch (kind) {
    case HpcAppKind::blast: st = run_blast(traced, cluster, spec, driver, opts.seed); break;
    case HpcAppKind::mom: st = run_mom(traced, cluster, spec, driver, opts.seed); break;
    case HpcAppKind::ecoham: st = run_ecoham(traced, cluster, spec, driver, opts.seed); break;
    case HpcAppKind::raytracing:
      st = run_raytracing(traced, cluster, spec, driver, opts.seed);
      break;
  }
  if (!st.ok()) {
    result.error = "run: " + st.message();
    return result;
  }
  if (kind == HpcAppKind::ecoham && opts.with_prep_script) {
    st = ecoham_collect_script(traced, driver);
    if (!st.ok()) {
      result.error = "collect script: " + st.message();
      return result;
    }
  }

  result.census.name = hpc_app_name(kind, opts.with_prep_script);
  result.census.platform = "HPC / MPI";
  result.census.usage = spec.usage;
  result.census.census = recorder.census();
  result.census.sim_time = driver.now();
  result.sim_time = driver.now();
  result.ok = true;
  return result;
}

}  // namespace bsc::apps
