// Physical block device shared by co-located VMs.
//
// Each of the paper's 5 physical machines exposes one local disk with
// 16 MB/s sustained bandwidth, dispatched to VMs via blkio caps. The device
// validates that dispatched caps stay within the sustained bandwidth and
// reports physical-level utilization.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "storage/blkio_throttle.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace sqos::storage {

class BlockDevice {
 public:
  BlockDevice(std::string name, Bandwidth sustained)
      : name_{std::move(name)}, sustained_{sustained} {}

  BlockDevice(const BlockDevice&) = delete;
  BlockDevice& operator=(const BlockDevice&) = delete;

  /// Carve a throttle group (one VM) with the given bps cap. Fails when the
  /// cap would push the dispatched total beyond the sustained bandwidth.
  [[nodiscard]] Result<ThrottleGroup*> create_group(std::string group_name, Bandwidth cap);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Bandwidth sustained() const { return sustained_; }

  /// Sum of the caps dispatched to groups.
  [[nodiscard]] Bandwidth dispatched() const;

  /// Sum of the *delivered* (post-throttle) rates across groups. Never
  /// exceeds dispatched(), hence never exceeds sustained().
  [[nodiscard]] Bandwidth delivered() const;

  [[nodiscard]] std::size_t group_count() const { return groups_.size(); }
  [[nodiscard]] const ThrottleGroup& group(std::size_t i) const { return *groups_[i]; }

 private:
  std::string name_;
  Bandwidth sustained_;
  std::vector<std::unique_ptr<ThrottleGroup>> groups_;
};

}  // namespace sqos::storage
