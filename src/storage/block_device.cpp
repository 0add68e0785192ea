#include "storage/block_device.hpp"

#include <algorithm>

namespace sqos::storage {

Result<ThrottleGroup*> BlockDevice::create_group(std::string group_name, Bandwidth cap) {
  const Bandwidth next_total = dispatched() + cap;
  if (next_total > sustained_) {
    return Status::resource_exhausted("device '" + name_ + "': dispatching " +
                                      next_total.to_string() + " exceeds sustained " +
                                      sustained_.to_string());
  }
  groups_.push_back(std::make_unique<ThrottleGroup>(std::move(group_name), cap));
  return groups_.back().get();
}

Bandwidth BlockDevice::dispatched() const {
  Bandwidth total;
  for (const auto& g : groups_) total += g->cap();
  return total;
}

Bandwidth BlockDevice::delivered() const {
  Bandwidth total;
  for (const auto& g : groups_) total += std::min(g->allocated(), g->cap());
  return total;
}

}  // namespace sqos::storage
