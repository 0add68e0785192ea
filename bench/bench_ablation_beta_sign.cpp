// Ablation A8 — the sign of the β (trend) term. §IV states the historical
// trend enters the bid "with a plus sign", i.e. a *rising* utilization
// raises an RM's priority. On our calibrated workload that convention hurts
// (Tables I/III: (1,1,*) trails (1,0,*)); this ablation sweeps β through
// negative values — where a rising trend *penalizes* the RM — to quantify
// how much the convention costs and whether the reverse sign would help.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace sqos;
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::print_preamble("Ablation A8 — β-term sign sweep, α = 1, γ = 0",
                        "QoS metrics vs β weight (256 users, static replication)", args);

  AsciiTable table{"β sweep (Bid = B_rem + β·trend)"};
  table.set_header({"beta", "soft R_OA", "firm fail"});
  CsvWriter csv = bench::open_csv(args, {"beta", "soft_roa", "firm_fail"});

  const std::vector<double> betas =
      args.quick ? std::vector<double>{-1.0, 0.0, 1.0}
                 : std::vector<double>{-4.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 4.0};
  bench::CellSweep sweep{args};
  for (const double beta : betas) {
    exp::ExperimentParams params;
    params.users = args.cfg.get_count("users", 256);
    params.policy = core::PolicyWeights{1.0, beta, 0.0};

    params.mode = core::AllocationMode::kSoft;
    sweep.submit(params);
    params.mode = core::AllocationMode::kFirm;
    sweep.submit(params);
  }
  sweep.run();

  std::size_t cell = 0;
  for (const double beta : betas) {
    const exp::ExperimentResult& soft = sweep.result(cell++);
    const exp::ExperimentResult& firm = sweep.result(cell++);

    table.add_row({format_double(beta, 1), format_percent(soft.overallocate_ratio, 3),
                   format_percent(firm.fail_rate, 3)});
    csv.row({format_double(beta, 2), format_double(soft.overallocate_ratio, 6),
             format_double(firm.fail_rate, 6)});
  }
  table.print();
  std::printf("\nReading: β = 0 is policy (1,0,0); positive β is the paper's §IV convention\n"
              "(rising utilization raises the bid); negative β inverts it. On this workload\n"
              "the trend term mostly adds noise to the dominant B_rem factor — consistent\n"
              "with the paper finding no noticeable improvement from (1,1,0) over (1,0,0).\n");
  return 0;
}
