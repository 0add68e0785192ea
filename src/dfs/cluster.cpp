#include "dfs/cluster.hpp"

#include <cassert>
#include <utility>

#include "obs/recorder.hpp"
#include "util/logging.hpp"

// GCC 12's basic_string::_M_replace emits a bogus -Wrestrict at -O2+ when the
// string operations in build() get inlined (GCC PR105329). Nothing here
// aliases; silence the false positive for this TU.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wrestrict"
#endif

namespace sqos::dfs {

Cluster::Cluster(ClusterConfig config, FileDirectory directory)
    : config_{std::move(config)}, directory_{std::move(directory)} {}

Result<std::unique_ptr<Cluster>> Cluster::build(ClusterConfig config, FileDirectory directory) {
  if (config.machines.empty()) return Status::invalid_argument("no machines configured");
  if (config.rms.empty()) return Status::invalid_argument("no RMs configured");
  if (config.client_count == 0) return Status::invalid_argument("no clients configured");
  if (config.exec_shards != 1) {
    return Status::invalid_argument("exec_shards must be 1 (the event loop is serial), got " +
                                    std::to_string(config.exec_shards));
  }
  for (const RmSpec& rm : config.rms) {
    if (rm.machine >= config.machines.size()) {
      return Status::invalid_argument("RM '" + rm.name + "' placed on unknown machine");
    }
    if (!rm.bandwidth.is_positive()) {
      return Status::invalid_argument("RM '" + rm.name + "' has no bandwidth");
    }
  }
  if (!config.tenants.empty()) {
    std::size_t tenant_clients = 0;
    for (std::size_t t = 0; t < config.tenants.size(); ++t) {
      qos::TenantSlo& slo = config.tenants[t];
      if (slo.clients == 0) {
        return Status::invalid_argument("tenant " + std::to_string(t) + " has no clients");
      }
      if (slo.ceiling < slo.floor) {
        return Status::invalid_argument("tenant " + std::to_string(t) + " ceiling below floor");
      }
      if (slo.name.empty()) slo.name = "T" + std::to_string(t + 1);
      tenant_clients += slo.clients;
    }
    if (tenant_clients != config.client_count) {
      return Status::invalid_argument("tenant client counts must sum to client_count");
    }
  }

  auto cluster = std::unique_ptr<Cluster>(new Cluster(std::move(config), std::move(directory)));
  const Status s = cluster->construct();
  if (!s.is_ok()) return s;
  return cluster;
}

Status Cluster::construct() {
  sim_ = std::make_unique<sim::Simulator>();
  const Rng root{config_.seed};
  net_ = std::make_unique<net::Network>(
      *sim_, net::LatencyModel{config_.latency, root.fork("latency")});

  // Physical machines.
  devices_.reserve(config_.machines.size());
  for (const MachineSpec& m : config_.machines) {
    devices_.push_back(std::make_unique<storage::BlockDevice>(m.name, m.sustained));
  }

  // Initialization order (§III.B): the MM comes up first (one shard per
  // configured DHT partition)...
  if (config_.mm_shards == 0) return Status::invalid_argument("mm_shards must be >= 1");
  mm_ = std::make_unique<MetadataDirectory>(*net_, config_.mm_shards);

  // ...then the RMs come up (their registration messages are scheduled by
  // start())...
  rms_.reserve(config_.rms.size());
  for (const RmSpec& spec : config_.rms) {
    auto group = devices_[spec.machine]->create_group(spec.name, spec.bandwidth);
    if (!group.is_ok()) return group.status();

    ResourceManager::Params params;
    params.name = spec.name;
    params.disk_capacity = spec.disk_capacity;
    params.history = config_.history;
    rms_.push_back(std::make_unique<ResourceManager>(net_->register_node(spec.name), params,
                                                     *group.value(), *sim_, *net_, directory_,
                                                     config_.replication));
  }

  std::vector<ResourceManager*> rm_ptrs;
  rm_ptrs.reserve(rms_.size());
  for (auto& rm : rms_) {
    rm_ptrs.push_back(rm.get());
    rm_index_.add(rm->node_id(), rm.get());
  }

  agent_ = std::make_unique<ReplicationAgent>(*sim_, *net_, *mm_, directory_,
                                              config_.replication, root);
  agent_->attach_rms(rm_index_);

  gc_ = std::make_unique<GarbageCollector>(*sim_, *net_, *mm_, config_.deletion);
  gc_->attach_rms(rm_ptrs);

  // Multi-tenant QoS (opt-in): one manager for the whole cluster, a
  // token-bucket column per RM, a utilization probe reading each RM's live
  // allocated/cap ratio in index order.
  if (!config_.tenants.empty()) {
    qos_ = std::make_unique<qos::QosManager>(config_.tenants, config_.qos_controller, rms_.size());
    qos_->set_utilization_probe([this](std::size_t r) {
      const ResourceManager& rm = *rms_[r];
      const Bandwidth cap = rm.cap();
      return cap.is_positive() ? rm.allocated() / cap : 0.0;
    });
    qos_->set_tenant_rate_probe([this](qos::TenantId t) {
      // RM index order, then flow insertion order: a deterministic fold.
      double sum = 0.0;
      for (const auto& rm : rms_) {
        for (const storage::Flow& f : rm->throttle_group().flows().active()) {
          if (f.tenant == t) sum += f.rate.bps();
        }
      }
      return sum;
    });
    for (std::size_t r = 0; r < rms_.size(); ++r) rms_[r]->set_qos(qos_.get(), r);
  }

  // ...and the DFSCs are launched last to take over the storage system.
  clients_.reserve(config_.client_count);
  for (std::size_t i = 0; i < config_.client_count; ++i) {
    DfsClient::Params params;
    params.name = "DFSC" + std::to_string(i + 1);
    if (qos_ != nullptr) {
      params.tenant = qos_->tenant_of_client(i);
      params.qos = qos_.get();
    }
    params.mode = config_.mode;
    params.policy = config_.policy;
    params.negotiation = config_.negotiation;
    params.bid_timeout = config_.bid_timeout;
    params.holder_cache_ttl = config_.holder_cache_ttl;
    params.layout = config_.layout;
    auto client = std::make_unique<DfsClient>(net_->register_node(params.name), params, *sim_,
                                              *net_, *mm_, directory_,
                                              root.fork("client-" + std::to_string(i)));
    client->attach_rms(rm_index_);
    clients_.push_back(std::move(client));
  }

  return Status::ok();
}

void Cluster::start() {
  // Each RM registers its managed resources with every MM shard, in
  // arbitrary order (§III.B); the fabric's latency jitter provides the
  // arbitrariness. Shards need the full resource list; per-file replica
  // entries are only stored on the owning shard.
  for (auto& rm : rms_) {
    const RegisterMsg msg = rm->make_register_msg();
    for (std::size_t s = 0; s < mm_->shard_count(); ++s) {
      MetadataManager& shard = mm_->shard(s);
      net_->send(rm->node_id(), shard.node_id(), net::MessageKind::kRegister,
                 msg.estimated_size(), [this, &shard, msg] {
                   RegisterMsg scoped = msg;
                   if (mm_->shard_count() > 1) {
                     // Keep only the files this shard owns.
                     std::erase_if(scoped.stored_files, [this, &shard](FileId f) {
                       return &mm_->shard_for(f) != &shard;
                     });
                   }
                   shard.handle_register(scoped);
                   net_->send(shard.node_id(), msg.rm, net::MessageKind::kRegisterAck,
                              message_size(1), [] { /* ack received */ });
                 });
    }
  }
}

void Cluster::start_resource_refresh(SimTime interval, SimTime until) {
  assert(interval > SimTime::zero());
  const sim::Periodic refreshes{sim_->now() + interval, interval};
  sim_->schedule_series(refreshes.count_through(until), refreshes, [this](std::size_t) {
    for (auto& rm : rms_) {
      if (!rm->is_online()) continue;
      const RegisterMsg msg = rm->make_register_msg();
      for (std::size_t s = 0; s < mm_->shard_count(); ++s) {
        MetadataManager& shard = mm_->shard(s);
        net_->send(rm->node_id(), shard.node_id(), net::MessageKind::kResourceUpdate,
                   msg.estimated_size(), [this, &shard, msg] {
                     RegisterMsg scoped = msg;
                     if (mm_->shard_count() > 1) {
                       std::erase_if(scoped.stored_files, [this, &shard](FileId f) {
                         return &mm_->shard_for(f) != &shard;
                       });
                     }
                     shard.handle_resource_update(scoped);
                   });
      }
    }
  });
}

void Cluster::start_qos_controller(SimTime until) {
  if (qos_ == nullptr) return;
  const SimTime period = config_.qos_controller.period;
  assert(period > SimTime::zero());
  // Ticks are pre-planned like start_resource_refresh: the controller's
  // cadence is part of the experiment definition, not discovered at runtime.
  const sim::Periodic ticks{sim_->now() + period, period};
  sim_->schedule_series(ticks.count_through(until), ticks,
                        [this](std::size_t) { qos_->tick(sim_->now()); });
}

void Cluster::fail_rm(std::size_t rm_index) {
  assert(rm_index < rms_.size());
  rms_[rm_index]->fail();
}

void Cluster::recover_rm(std::size_t rm_index) {
  assert(rm_index < rms_.size());
  ResourceManager& rm = *rms_[rm_index];
  rm.recover();
  const RegisterMsg msg = rm.make_register_msg();
  for (std::size_t s = 0; s < mm_->shard_count(); ++s) {
    MetadataManager& shard = mm_->shard(s);
    net_->send(rm.node_id(), shard.node_id(), net::MessageKind::kRegister, msg.estimated_size(),
               [this, &shard, msg] {
                 RegisterMsg scoped = msg;
                 if (mm_->shard_count() > 1) {
                   std::erase_if(scoped.stored_files, [this, &shard](FileId f) {
                     return &mm_->shard_for(f) != &shard;
                   });
                 }
                 shard.handle_register(scoped);
                 net_->send(shard.node_id(), msg.rm, net::MessageKind::kRegisterAck,
                            message_size(1), [] {});
               });
  }
}

Status Cluster::place_replica(std::size_t rm_index, FileId file) {
  assert(rm_index < rms_.size());
  const Status s = rms_[rm_index]->place_replica(file);
  if (!s.is_ok()) return s;
  mm_->bootstrap_replica(rms_[rm_index]->node_id(), file);
  return Status::ok();
}

Status Cluster::place_shard(std::size_t rm_index, FileId shard_key) {
  assert(rm_index < rms_.size());
  assert(storage::shard_key::is_shard(shard_key));
  const Status s = rms_[rm_index]->place_replica(shard_key);
  if (!s.is_ok()) return s;
  mm_->bootstrap_shard(rms_[rm_index]->node_id(), shard_key);
  return Status::ok();
}

Status Cluster::place_stripe(FileId file, std::uint8_t k, std::uint8_t m,
                             const std::vector<std::size_t>& rms) {
  if (rms.size() != static_cast<std::size_t>(k) + m) {
    return Status::invalid_argument("place_stripe: need exactly k+m RM indices");
  }
  for (std::size_t s = 0; s < rms.size(); ++s) {
    const Status st = place_shard(rms[s], storage::shard_key::pack(file, s, k, m));
    if (!st.is_ok()) return st;
  }
  return Status::ok();
}

Bandwidth Cluster::total_allocated() const {
  Bandwidth total;
  for (const auto& rm : rms_) total += rm->allocated();
  return total;
}

void Cluster::attach_observability(obs::Recorder& recorder) {
  // Fixed registration order — clients, RMs, replication agent, MM shards —
  // makes track ids (Chrome tids) a pure function of the configuration, so
  // rendered traces are comparable byte for byte across runs.
  for (auto& client : clients_) {
    client->set_observer(&recorder, recorder.trace.register_track(client->name()));
  }
  for (auto& rm : rms_) {
    rm->set_observer(&recorder, recorder.trace.register_track(rm->name()));
  }
  agent_->set_observer(&recorder, recorder.trace.register_track("replication"));
  for (std::size_t s = 0; s < mm_->shard_count(); ++s) {
    mm_->shard(s).set_observer(&recorder, recorder.trace.register_track("MM" + std::to_string(s + 1)));
  }
}

}  // namespace sqos::dfs
