#include "sweep/report.h"

#include <cstdio>
#include <sstream>

namespace wolt::sweep {
namespace {

// %.17g round-trips doubles exactly (same convention as model/io).
std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string TaskCsvString(const SweepResult& result, ReportOptions options) {
  std::ostringstream out;
  out << "index,seed,users,extenders,sharing,channels,mobility,churn,load,"
         "budget,policy,completed,aggregate_mbps,jain,oracle_mbps,regret,"
         "reassoc_rate,quarantine_trips";
  if (options.include_timing) out << ",elapsed_us";
  out << "\n";
  for (const TaskResult& task : result.tasks) {
    const TaskSpec& spec = task.spec;
    out << spec.index << ',' << spec.seed << ',' << spec.num_users << ','
        << spec.num_extenders << ',' << model::ToString(spec.sharing) << ','
        << spec.num_channels << ',' << sim::ToString(spec.mobility) << ','
        << Num(spec.churn_rate) << ',' << sim::ToString(spec.load) << ','
        << spec.reopt_budget << ','
        << ToString(spec.policy) << ',' << (task.completed ? 1 : 0) << ','
        << Num(task.aggregate_mbps) << ',' << Num(task.jain_fairness) << ','
        << Num(task.oracle_mbps) << ',' << Num(task.regret) << ','
        << Num(task.reassoc_per_user_epoch) << ',' << task.quarantine_trips;
    if (options.include_timing) out << ',' << Num(task.elapsed_us);
    out << "\n";
  }
  return out.str();
}

std::string GroupCsvString(const SweepResult& result, ReportOptions) {
  std::ostringstream out;
  out << "users,extenders,sharing,channels,mobility,churn,load,budget,"
         "policy,trials,mean_mbps,stddev_mbps,min_mbps,p10_mbps,p50_mbps,"
         "p90_mbps,max_mbps,mean_jain,user_jain,mean_oracle_mbps,"
         "mean_regret,mean_reassoc_rate\n";
  for (const GroupStats& g : result.groups) {
    const util::Accumulator& a = g.aggregate_mbps;
    out << g.num_users << ',' << g.num_extenders << ','
        << model::ToString(g.sharing) << ',' << g.num_channels << ','
        << sim::ToString(g.mobility) << ',' << Num(g.churn_rate) << ','
        << sim::ToString(g.load) << ',' << g.reopt_budget << ','
        << ToString(g.policy) << ','
        << a.Count() << ',' << Num(a.Mean()) << ',' << Num(a.StdDev()) << ','
        << Num(a.Min()) << ',' << Num(a.Percentile(10)) << ','
        << Num(a.Percentile(50)) << ',' << Num(a.Percentile(90)) << ','
        << Num(a.Max()) << ',' << Num(g.jain.Mean()) << ','
        << Num(g.user_throughput.Jain()) << ',' << Num(g.oracle_mbps.Mean())
        << ',' << Num(g.regret.Mean()) << ',' << Num(g.reassoc.Mean())
        << "\n";
  }
  return out.str();
}

std::string JsonString(const SweepResult& result, ReportOptions options) {
  std::ostringstream out;
  out << "{\n  \"cancelled\": " << (result.cancelled ? "true" : "false")
      << ",\n  \"groups\": [";
  for (std::size_t g = 0; g < result.groups.size(); ++g) {
    const GroupStats& group = result.groups[g];
    const util::Accumulator& a = group.aggregate_mbps;
    out << (g ? ",\n    {" : "\n    {") << "\"users\": " << group.num_users
        << ", \"extenders\": " << group.num_extenders << ", \"sharing\": \""
        << model::ToString(group.sharing)
        << "\", \"channels\": " << group.num_channels << ", \"mobility\": \""
        << sim::ToString(group.mobility) << "\", \"churn\": "
        << Num(group.churn_rate) << ", \"load\": \""
        << sim::ToString(group.load) << "\", \"budget\": "
        << group.reopt_budget << ", \"policy\": \""
        << ToString(group.policy) << "\", \"trials\": " << a.Count()
        << ", \"mean_mbps\": " << Num(a.Mean())
        << ", \"stddev_mbps\": " << Num(a.StdDev())
        << ", \"p50_mbps\": " << Num(a.Percentile(50))
        << ", \"mean_jain\": " << Num(group.jain.Mean())
        << ", \"user_jain\": " << Num(group.user_throughput.Jain())
        << ", \"mean_oracle_mbps\": " << Num(group.oracle_mbps.Mean())
        << ", \"mean_regret\": " << Num(group.regret.Mean())
        << ", \"mean_reassoc_rate\": " << Num(group.reassoc.Mean()) << "}";
  }
  out << "\n  ],\n  \"tasks\": [";
  for (std::size_t t = 0; t < result.tasks.size(); ++t) {
    const TaskResult& task = result.tasks[t];
    const TaskSpec& spec = task.spec;
    out << (t ? ",\n    {" : "\n    {") << "\"index\": " << spec.index
        << ", \"seed\": " << spec.seed << ", \"users\": " << spec.num_users
        << ", \"extenders\": " << spec.num_extenders << ", \"sharing\": \""
        << model::ToString(spec.sharing)
        << "\", \"channels\": " << spec.num_channels << ", \"mobility\": \""
        << sim::ToString(spec.mobility) << "\", \"churn\": "
        << Num(spec.churn_rate) << ", \"load\": \""
        << sim::ToString(spec.load) << "\", \"budget\": "
        << spec.reopt_budget << ", \"policy\": \""
        << ToString(spec.policy)
        << "\", \"completed\": " << (task.completed ? "true" : "false")
        << ", \"aggregate_mbps\": " << Num(task.aggregate_mbps)
        << ", \"jain\": " << Num(task.jain_fairness)
        << ", \"oracle_mbps\": " << Num(task.oracle_mbps)
        << ", \"regret\": " << Num(task.regret)
        << ", \"reassoc_rate\": " << Num(task.reassoc_per_user_epoch)
        << ", \"quarantine_trips\": " << task.quarantine_trips;
    if (options.include_timing) {
      out << ", \"elapsed_us\": " << Num(task.elapsed_us);
    }
    out << "}";
  }
  out << "\n  ]\n}\n";
  return out.str();
}

}  // namespace wolt::sweep
