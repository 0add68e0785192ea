// File identity and metadata shared across the DFS components.
//
// The system distributes data at *file granularity* (§III.A.1): a replica is
// a whole file, and a request streams one file at its bitrate.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/error.hpp"
#include "util/sim_time.hpp"
#include "util/units.hpp"

namespace sqos::dfs {

using FileId = std::uint64_t;

struct FileMeta {
  FileId id = 0;
  std::string name;
  Bytes size;
  Bandwidth bitrate;     // B_req for accessing this file
  double popularity = 0; // relative access weight (workload input)

  /// Streaming duration = size / bitrate — also the occupation time T_ocp.
  [[nodiscard]] SimTime duration() const { return bitrate.time_to_transfer(size); }
};

/// Catalog of every file in the namespace. Shared by the MM, the RMs
/// (occupation times) and the clients (B_req lookup on open). Grows when
/// clients create files through the write path; existing entries are
/// immutable.
class FileDirectory {
 public:
  FileDirectory() = default;
  explicit FileDirectory(std::vector<FileMeta> files);

  /// Register a new file (write path). Fails on duplicate id or name.
  [[nodiscard]] Status add(FileMeta meta);

  [[nodiscard]] const FileMeta& get(FileId id) const;
  [[nodiscard]] const FileMeta* find_by_name(const std::string& name) const;
  [[nodiscard]] const std::vector<FileMeta>& files() const { return files_; }
  [[nodiscard]] std::size_t size() const { return files_.size(); }
  [[nodiscard]] bool contains(FileId id) const {
    return id < by_id_.size() && by_id_[id] != kNoFile;
  }

  /// A fresh id for a created file: one past the largest registered id.
  [[nodiscard]] FileId next_id() const;

 private:
  static constexpr std::size_t kNoFile = static_cast<std::size_t>(-1);

  std::vector<FileMeta> files_;
  /// FileId -> files_ index. Ids are dense (catalog ids 0..n-1, created
  /// files get next_id()), so a flat table turns the per-open metadata
  /// lookup — one of the hottest map probes in the simulator — into a
  /// bounds check and an index.
  std::vector<std::size_t> by_id_;
  std::unordered_map<std::string, std::size_t> by_name_;
};

}  // namespace sqos::dfs
