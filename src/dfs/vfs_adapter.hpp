// FUSE-like virtual-file-system facade (§III.A.1).
//
// The paper implements the DFSC as a FUSE user-space file system: the VFS
// callbacks map onto the protocol — readdir performs the MM resource-list
// query, open runs CFP + resource selection, read/write drive the transfer
// against the selected RM, release frees the allocation. This adapter
// reproduces that callback surface over DfsClient for the example programs.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dfs/dfs_client.hpp"
#include "dfs/file_types.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"

namespace sqos::dfs {

class Cluster;

class VfsAdapter {
 public:
  VfsAdapter(DfsClient& client, MetadataDirectory& mm, const FileDirectory& directory,
             sim::Simulator& simulator)
      : client_{client}, mm_{mm}, directory_{directory}, sim_{simulator} {}

  /// getattr: file metadata by path. Fails with kNotFound for unknown paths.
  [[nodiscard]] Result<FileMeta> getattr(const std::string& path) const;

  /// readdir: the names of every file the MM knows a replica for. Performs
  /// the MM resource-list round trip like the paper's readdir.
  void readdir(std::function<void(std::vector<std::string>)> reply);

  /// open: negotiate + allocate bandwidth for `path`; yields a descriptor.
  void open(const std::string& path, std::function<void(Result<std::uint64_t>)> opened);

  /// read: consume up to `amount` bytes from the descriptor, paced at the
  /// allocated bandwidth; yields the bytes actually read (0 at EOF).
  void read(std::uint64_t fd, Bytes amount, std::function<void(Result<Bytes>)> done);

  /// create: register a new file (duration-derived size) and negotiate a
  /// write session for it. Requires attach_cluster() for namespace access.
  void create(const std::string& path, Bandwidth bitrate, SimTime duration,
              std::function<void(Result<std::uint64_t>)> opened);

  /// write: append up to `amount` bytes, paced at the session bandwidth;
  /// yields the bytes actually written (clamped at the declared size).
  void write(std::uint64_t fd, Bytes amount, std::function<void(Result<Bytes>)> done);

  /// release: free the allocation. A write session commits if and only if
  /// every declared byte was written; otherwise the reservation rolls back
  /// (the torn-file semantics a crashed writer would get).
  void release(std::uint64_t fd);

  /// destroy: unmount — release every open descriptor (write sessions roll
  /// back unless fully written, like any close).
  void destroy();

  /// Wire the cluster for namespace mutation (create). Read-only usage does
  /// not need it.
  void attach_cluster(Cluster* cluster) { cluster_ = cluster; }

  [[nodiscard]] std::size_t open_descriptors() const { return sessions_.size(); }

 private:
  struct Session {
    FileId file = 0;
    std::int64_t offset = 0;
    Bandwidth rate;
    bool write = false;
  };

  DfsClient& client_;
  MetadataDirectory& mm_;
  const FileDirectory& directory_;
  sim::Simulator& sim_;
  Cluster* cluster_ = nullptr;  // optional; required only by create()
  std::unordered_map<std::uint64_t, Session> sessions_;
};

}  // namespace sqos::dfs
