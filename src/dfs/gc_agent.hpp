// Replica garbage collector — the §III.B deletion mechanism.
//
// Runs a periodic scan on every RM: replicas that are (a) surplus above the
// static floor, (b) idle past the configured threshold, (c) older than the
// anti-thrash minimum age and (d) not currently streaming or being copied
// are offered to the MM for deletion. The MM arbitrates so concurrent
// requests can never drop a file below the floor; an approved request is
// followed by the local disk delete.
#pragma once

#include <cstdint>
#include <vector>

#include "core/deletion_policy.hpp"
#include "dfs/mm_directory.hpp"
#include "dfs/resource_manager.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace sqos::dfs {

class GarbageCollector {
 public:
  GarbageCollector(sim::Simulator& simulator, net::Network& network, MetadataDirectory& mm,
                   const core::DeletionConfig& config)
      : sim_{simulator}, net_{network}, mm_{mm}, cfg_{config} {}

  GarbageCollector(const GarbageCollector&) = delete;
  GarbageCollector& operator=(const GarbageCollector&) = delete;

  void attach_rms(std::vector<ResourceManager*> rms) { rms_ = std::move(rms); }

  /// Schedule periodic scans from now until `until`. No-op when disabled.
  void start(SimTime until);

  /// One scan over every RM (also callable directly from tests).
  void scan_once();

  struct Counters {
    std::uint64_t scans = 0;
    std::uint64_t candidates = 0;       // local checks passed, MM asked
    std::uint64_t deletes_approved = 0;
    std::uint64_t deletes_denied = 0;   // MM said the floor would be broken
    std::uint64_t bytes_reclaimed = 0;
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }
  [[nodiscard]] const core::DeletionConfig& config() const { return cfg_; }

 private:
  void scan_rm(ResourceManager& rm);
  void offer_candidates(ResourceManager& rm, const std::vector<FileId>& surplus);

  sim::Simulator& sim_;
  net::Network& net_;
  MetadataDirectory& mm_;
  core::DeletionConfig cfg_;
  std::vector<ResourceManager*> rms_;
  Counters counters_;
};

}  // namespace sqos::dfs
