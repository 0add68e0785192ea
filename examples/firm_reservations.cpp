// Firm real-time reservations with client-side retry: a latency-critical
// tenant opens streams under firm admission (every accepted stream keeps its
// full bandwidth for its whole duration — no RM is ever over-committed),
// and rejected opens are retried with exponential backoff, a pattern the
// paper's firm scenario leaves to the application.
//
// Usage: firm_reservations [requests=60] [max_retries=5] [seed=1]
#include <cstdio>
#include <memory>

#include "dfs/cluster.hpp"
#include "exp/paper_setup.hpp"
#include "util/config.hpp"
#include "util/table.hpp"
#include "workload/access_pattern.hpp"
#include "workload/placement.hpp"
#include "workload/video_catalog.hpp"

namespace {

using namespace sqos;

/// Retries a rejected open with exponential backoff on the cluster clock.
class RetryingStreamer {
 public:
  RetryingStreamer(dfs::Cluster& cluster, int max_retries)
      : cluster_{cluster}, max_retries_{max_retries} {}

  void stream(std::size_t client, dfs::FileId file) { attempt(client, file, 0); }

  [[nodiscard]] int first_try() const { return first_try_; }
  [[nodiscard]] int after_retry() const { return after_retry_; }
  [[nodiscard]] int gave_up() const { return gave_up_; }

 private:
  void attempt(std::size_t client, dfs::FileId file, int tries) {
    cluster_.client(client).stream_file(file, [this, client, file, tries](const Status& s) {
      if (s.is_ok()) {
        (tries == 0 ? first_try_ : after_retry_) += 1;
        return;
      }
      if (tries >= max_retries_) {
        ++gave_up_;
        return;
      }
      const SimTime backoff = SimTime::seconds(5.0 * static_cast<double>(1 << tries));
      cluster_.simulator().schedule_after(
          backoff, [this, client, file, tries] { attempt(client, file, tries + 1); });
    });
  }

  dfs::Cluster& cluster_;
  int max_retries_;
  int first_try_ = 0;
  int after_retry_ = 0;
  int gave_up_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  auto parsed = Config::from_args(argc, argv);
  if (!parsed.is_ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().to_string().c_str());
    return 1;
  }
  const Config cfg = std::move(parsed).take();
  if (const Status known = cfg.require_known({"requests", "max_retries", "seed"}); !known.is_ok()) {
    std::fprintf(stderr, "%s\n", known.to_string().c_str());
    return 1;
  }
  const int requests = static_cast<int>(cfg.get_count("requests", 60));
  const int max_retries = static_cast<int>(cfg.get_count("max_retries", 5));
  const auto seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));

  Rng rng{seed};
  workload::CatalogParams catalog_params;
  catalog_params.file_count = 50;
  Rng catalog_rng = rng.fork("catalog");
  dfs::FileDirectory directory = workload::generate_catalog(catalog_params, catalog_rng);

  // A deliberately tight cluster: only the small RMs, so admission actually
  // pushes back during the burst.
  dfs::ClusterConfig cluster_cfg;
  cluster_cfg.machines.push_back(dfs::MachineSpec{"pm1", Bandwidth::mbps(128.0)});
  for (int i = 1; i <= 4; ++i) {
    cluster_cfg.rms.push_back(
        dfs::RmSpec{"RM" + std::to_string(i), Bandwidth::mbps(18.0), Bytes::gib(32.0), 0});
  }
  cluster_cfg.client_count = 2;
  cluster_cfg.mode = core::AllocationMode::kFirm;
  cluster_cfg.policy = core::PolicyWeights::p100();
  cluster_cfg.seed = seed;

  auto built = dfs::Cluster::build(std::move(cluster_cfg), std::move(directory));
  if (!built.is_ok()) {
    std::fprintf(stderr, "cluster build failed: %s\n", built.status().to_string().c_str());
    return 1;
  }
  dfs::Cluster& cluster = *built.value();
  Rng placement_rng = rng.fork("placement");
  workload::PlacementParams placement;
  placement.replicas = 2;
  if (const Status s = workload::place_static_replicas(cluster, placement, placement_rng);
      !s.is_ok()) {
    std::fprintf(stderr, "placement failed: %s\n", s.to_string().c_str());
    return 1;
  }
  cluster.start();

  std::printf("firm_reservations: %d requests bursting into 4x18 Mbit/s RMs, "
              "retry<=%d with backoff\n\n", requests, max_retries);

  RetryingStreamer streamer{cluster, max_retries};
  const workload::PopularitySampler sampler{cluster.directory()};
  Rng arrivals = rng.fork("arrivals");
  for (int i = 0; i < requests; ++i) {
    const SimTime at = SimTime::seconds(arrivals.uniform(1.0, 120.0));  // a 2-minute burst
    const dfs::FileId file = sampler.sample(arrivals);
    const std::size_t client = static_cast<std::size_t>(i) % cluster.client_count();
    cluster.simulator().schedule_at(
        at, [&streamer, client, file] { streamer.stream(client, file); });
  }
  cluster.simulator().run();

  AsciiTable outcome{"Admission outcome"};
  outcome.set_header({"result", "count"});
  outcome.add_row({"accepted first try", std::to_string(streamer.first_try())});
  outcome.add_row({"accepted after retry", std::to_string(streamer.after_retry())});
  outcome.add_row({"gave up", std::to_string(streamer.gave_up())});
  outcome.print();

  // The firm guarantee: no RM ever held allocations above its cap.
  bool violated = false;
  for (std::size_t i = 0; i < cluster.rm_count(); ++i) {
    cluster.rm(i).ledger().advance_to(cluster.simulator().now());
    violated |= cluster.rm(i).ledger().overallocated_bytes() > 0.0;
  }
  std::printf("\nbandwidth assurance held on every RM: %s\n", violated ? "NO (bug!)" : "yes");
  return violated ? 1 : 0;
}
