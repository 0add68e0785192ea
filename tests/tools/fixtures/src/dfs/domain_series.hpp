// Paired header for the series-capture fixture: the foreign-domain member
// binding is declared here and merged into the .cpp's scan.
#pragma once

namespace fix {

class SQOS_DOMAIN(global) Replayer {
 public:
  void replay();

 private:
  Shard& shard_;
  int rounds_ = 0;
};

}  // namespace fix
