// Capture fixture for the series entry point: a global-domain Replayer
// passing rm-domain Shard state by reference into a schedule_series closure.
#include "dfs/domain_series.hpp"

namespace fix {

void Replayer::replay() {
  schedule_series(3, [](int i) { return i; }, [&shard_](int) { rounds_ = 1; });  // line 8
  schedule_series(2, [](int i) { return i; }, [this](int) { rounds_ = 2; });  // own state: allowed
}

}  // namespace fix
