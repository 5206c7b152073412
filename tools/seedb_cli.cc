// seedb_cli — the library's stand-in for the SeeDB thin-client frontend
// (§3.2). Supports all three input mechanisms the paper lists:
//   (a) raw SQL:       SELECT * FROM orders WHERE category = 'Furniture'
//   (b) query builder: \where orders category = Furniture   (form-style)
//   (c) templates:     \template outliers orders profit
//
// Plus data management: \load <name> <file.csv>, \demo, \tables,
// \schema <t>, \bin <t> <measure> <bins>, \set k/metric/prune/parallel.
//
// Run interactively, or pipe a script:  echo '\demo orders' | seedb_cli

#include <cmath>
#include <cstdio>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "core/seedb.h"
#include "core/session.h"
#include "core/templates.h"
#include "data/elections.h"
#include "data/medical.h"
#include "data/store_orders.h"
#include "db/binning.h"
#include "db/csv.h"
#include "db/engine.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "util/string_util.h"
#include "viz/ascii_renderer.h"
#include "viz/metadata.h"

namespace {

using namespace seedb;  // NOLINT

class Cli {
 public:
  Cli() : engine_(&catalog_), seedb_(&engine_) {}

  int Run() {
    std::printf("SeeDB CLI — type \\help for commands, \\q to quit.\n");
    std::string line;
    while (true) {
      std::printf("seedb> ");
      std::fflush(stdout);
      if (!std::getline(std::cin, line)) break;
      std::string trimmed(Trim(line));
      if (trimmed.empty()) continue;
      if (trimmed == "\\q" || trimmed == "\\quit") break;
      Status s = Dispatch(trimmed);
      if (!s.ok()) std::printf("error: %s\n", s.ToString().c_str());
    }
    return 0;
  }

 private:
  Status Dispatch(const std::string& line) {
    if (line[0] != '\\') return RunQuery(line);
    std::istringstream in(line.substr(1));
    std::string cmd;
    in >> cmd;
    if (cmd == "help") return Help();
    if (cmd == "load") return Load(in);
    if (cmd == "demo") return Demo(in);
    if (cmd == "tables") return Tables();
    if (cmd == "schema") return SchemaOf(in);
    if (cmd == "bin") return Bin(in);
    if (cmd == "set") return Set(in);
    if (cmd == "cancel") return ArmCancel(in);
    if (cmd == "where") return Builder(in);
    if (cmd == "template") return Template(in);
    if (cmd == "connect") return Connect(in);
    if (cmd == "disconnect") return Disconnect();
    if (cmd == "stats") return Stats(in);
    if (cmd == "metrics") return Metrics();
    return Status::InvalidArgument("unknown command \\" + cmd +
                                   " (try \\help)");
  }

  Status Help() {
    std::printf(
        "  SELECT * FROM t WHERE ...        recommend views for a query\n"
        "  \\where <t> <col> = <value>       query-builder form of the same\n"
        "  \\template outliers <t> <m> [s]   outlier-selection template\n"
        "  \\template top <t> <dim>          dominant-value template\n"
        "  \\template high <t> <m> [frac]    high-end-slice template\n"
        "  \\load <name> <file.csv>          load a CSV (schema inferred)\n"
        "  \\demo [orders|elections|medical] load demo dataset(s)\n"
        "  \\tables / \\schema <t>            catalog inspection\n"
        "  \\bin <t> <measure> <bins>        derive a binned dimension\n"
        "  \\set k <n> | metric <name> | parallel <n> | prune on|off\n"
        "  \\set strategy perquery|phased\n"
        "                                   per-query passes, or the fused\n"
        "                                   scan in phases (online pruning)\n"
        "  \\set phases <n>                  phase count for strategy phased\n"
        "  \\set online_pruner none|ci|mab   mid-scan view pruner (phased)\n"
        "  \\set early_stop <n>              stop once top-k is CI-stable for\n"
        "                                   n boundaries (0 = off; phased)\n"
        "  \\cancel [n]                      cancel the NEXT query's scan\n"
        "                                   after n phases (default 1)\n"
        "  \\set budget <bytes>              per-session memory budget\n"
        "                                   (0 = unlimited)\n"
        "  \\stats                           engine counters (scans, rows,\n"
        "                                   vectorized morsels, ...)\n"
        "  \\stats reset                     zero the engine counters and\n"
        "                                   the obs metrics registry\n"
        "  \\metrics                         obs registry snapshot (latency\n"
        "                                   histograms; server's if remote)\n"
        "  \\connect <socket|host:port|port> route queries to a seedb_server\n"
        "  \\disconnect                      back to in-process execution\n"
        "  \\q                               quit\n"
        "Under strategy phased, queries stream: one progress line per phase\n"
        "(provisional top view, CI half-width, views pruned, rows).\n");
    return Status::OK();
  }

  Status Load(std::istringstream& in) {
    std::string name, path;
    in >> name >> path;
    if (name.empty() || path.empty()) {
      return Status::InvalidArgument("usage: \\load <name> <file.csv>");
    }
    SEEDB_ASSIGN_OR_RETURN(db::Table table, db::ReadCsvInferSchema(path));
    size_t rows = table.num_rows();
    catalog_.PutTable(name, std::move(table));
    std::printf("loaded '%s': %zu rows, schema: %s\n", name.c_str(), rows,
                (*catalog_.GetTable(name))->schema().ToString().c_str());
    return Status::OK();
  }

  Status Demo(std::istringstream& in) {
    std::string which;
    in >> which;
    auto add = [&](data::DemoDataset dataset) {
      std::string name = dataset.table_name;
      size_t rows = dataset.table.num_rows();
      catalog_.PutTable(name, std::move(dataset.table));
      std::printf("loaded demo '%s' (%zu rows); try:\n", name.c_str(), rows);
      for (const auto& trend : dataset.trends) {
        std::printf("  %s\n", trend.query_sql.c_str());
      }
    };
    if (which.empty() || which == "orders") {
      SEEDB_ASSIGN_OR_RETURN(auto d, data::MakeStoreOrders({}));
      add(std::move(d));
    }
    if (which.empty() || which == "elections") {
      SEEDB_ASSIGN_OR_RETURN(auto d, data::MakeElections({}));
      add(std::move(d));
    }
    if (which.empty() || which == "medical") {
      SEEDB_ASSIGN_OR_RETURN(auto d, data::MakeMedical({}));
      add(std::move(d));
    }
    return Status::OK();
  }

  Status Tables() {
    for (const auto& name : catalog_.TableNames()) {
      SEEDB_ASSIGN_OR_RETURN(const db::Table* t, catalog_.GetTable(name));
      std::printf("  %-20s %zu rows, %zu columns\n", name.c_str(),
                  t->num_rows(), t->num_columns());
    }
    return Status::OK();
  }

  Status SchemaOf(std::istringstream& in) {
    std::string name;
    in >> name;
    SEEDB_ASSIGN_OR_RETURN(const db::Table* t, catalog_.GetTable(name));
    std::printf("%s\n", t->schema().ToString().c_str());
    return Status::OK();
  }

  Status Bin(std::istringstream& in) {
    std::string table, measure;
    size_t bins = 10;
    in >> table >> measure >> bins;
    SEEDB_ASSIGN_OR_RETURN(const db::Table* t, catalog_.GetTable(table));
    SEEDB_ASSIGN_OR_RETURN(db::Table binned,
                           db::WithBinnedColumn(*t, measure,
                                                {.num_bins = bins}));
    catalog_.PutTable(table, std::move(binned));
    std::printf("added dimension '%s_bin' (%zu buckets) to '%s'\n",
                measure.c_str(), bins, table.c_str());
    return Status::OK();
  }

  Status Set(std::istringstream& in) {
    std::string key;
    in >> key;
    if (key == "k") {
      in >> options_.k;
    } else if (key == "metric") {
      std::string name;
      in >> name;
      SEEDB_ASSIGN_OR_RETURN(options_.metric,
                             core::ParseDistanceMetric(name));
    } else if (key == "parallel") {
      in >> options_.parallelism;
    } else if (key == "strategy") {
      std::string name;
      in >> name;
      if (name == "perquery") {
        options_.strategy = core::ExecutionStrategy::kPerQuery;
      } else if (name == "phased") {
        options_.strategy = core::ExecutionStrategy::kPhasedSharedScan;
      } else {
        return Status::InvalidArgument(
            "usage: \\set strategy perquery|phased");
      }
    } else if (key == "phases") {
      size_t phases = 0;
      in >> phases;
      if (phases == 0) {
        return Status::InvalidArgument("usage: \\set phases <n >= 1>");
      }
      options_.online_pruning.num_phases = phases;
    } else if (key == "early_stop") {
      size_t stable = 0;
      in >> stable;
      options_.online_pruning.early_stop_stable_phases = stable;
      if (stable > 0) {
        options_.strategy = core::ExecutionStrategy::kPhasedSharedScan;
      }
    } else if (key == "online_pruner") {
      std::string name;
      in >> name;
      SEEDB_ASSIGN_OR_RETURN(options_.online_pruning.pruner,
                             core::ParseOnlinePruner(name));
      // The pruner only runs under the phased strategy; switch implicitly
      // so the knob does something without a second command.
      if (options_.online_pruning.pruner != core::OnlinePruner::kNone) {
        options_.strategy = core::ExecutionStrategy::kPhasedSharedScan;
      }
    } else if (key == "budget") {
      in >> options_.memory_budget_bytes;
    } else if (key == "prune") {
      std::string state;
      in >> state;
      options_.pruning = state == "on" ? core::PruningOptions::All()
                                       : core::PruningOptions::None();
    } else {
      return Status::InvalidArgument(
          "usage: \\set k <n> | metric <name> | parallel <n> | "
          "strategy perquery|phased | phases <n> | "
          "online_pruner none|ci|mab | early_stop <n> | budget <bytes> | "
          "prune on|off");
    }
    std::printf(
        "ok (k=%zu metric=%s parallel=%zu strategy=%s phases=%zu "
        "online_pruner=%s)\n",
        options_.k, core::DistanceMetricToString(options_.metric),
        options_.parallelism,
        core::ExecutionStrategyToString(options_.strategy),
        options_.online_pruning.num_phases,
        core::OnlinePrunerToString(options_.online_pruning.pruner));
    return Status::OK();
  }

  Status Builder(std::istringstream& in) {
    // \where <table> <column> <op> <value...>  — the form-based mechanism.
    std::string table, column, op;
    in >> table >> column >> op;
    std::string value;
    std::getline(in, value);
    value = std::string(Trim(value));
    if (table.empty() || column.empty() || op.empty() || value.empty()) {
      return Status::InvalidArgument(
          "usage: \\where <table> <column> <op> <value>");
    }
    // Quote non-numeric values for the SQL form.
    bool numeric = !value.empty() &&
                   value.find_first_not_of("0123456789.-") == std::string::npos;
    std::string literal = numeric ? value : "'" + value + "'";
    std::string sql = "SELECT * FROM " + table + " WHERE " + column + " " +
                      op + " " + literal;
    std::printf("query: %s\n", sql.c_str());
    return RunQuery(sql);
  }

  Status Template(std::istringstream& in) {
    std::string kind, table, column;
    in >> kind >> table >> column;
    core::TemplateQuery q;
    if (kind == "outliers") {
      double sigmas = 2.0;
      in >> sigmas;
      SEEDB_ASSIGN_OR_RETURN(q, core::OutlierTemplate(&engine_, table, column,
                                                      sigmas > 0 ? sigmas
                                                                 : 2.0));
    } else if (kind == "top") {
      SEEDB_ASSIGN_OR_RETURN(q, core::TopValueTemplate(&engine_, table,
                                                       column));
    } else if (kind == "high") {
      double fraction = 0.25;
      in >> fraction;
      SEEDB_ASSIGN_OR_RETURN(
          q, core::HighValueTemplate(&engine_, table, column,
                                     fraction > 0 && fraction < 1 ? fraction
                                                                  : 0.25));
    } else {
      return Status::InvalidArgument(
          "usage: \\template outliers|top|high <table> <column>");
    }
    std::printf("template: %s\nquery: %s\n", q.description.c_str(),
                q.sql.c_str());
    return RunQuery(q.sql);
  }

  Status ArmCancel(std::istringstream& in) {
    if (options_.strategy != core::ExecutionStrategy::kPhasedSharedScan) {
      return Status::InvalidArgument(
          "\\cancel applies to the streaming strategy only — run "
          "\\set strategy phased first (per-query runs are one phase, so "
          "there is no phase boundary to cancel at)");
    }
    size_t phases = 1;
    in >> phases;
    cancel_after_phases_ = phases == 0 ? 1 : phases;
    std::printf("armed: the next query's scan cancels after phase %zu "
                "(partial results will be shown)\n",
                cancel_after_phases_);
    return Status::OK();
  }

  Status Connect(std::istringstream& in) {
    std::string target;
    in >> target;
    if (target.empty()) {
      return Status::InvalidArgument(
          "usage: \\connect <unix-socket-path | host:port | port>");
    }
    Result<server::Client> client = Status::InvalidArgument("unreachable");
    if (target.find('/') != std::string::npos) {
      client = server::Client::ConnectUnix(target);
    } else if (size_t colon = target.find(':'); colon != std::string::npos) {
      client = server::Client::ConnectTcp(target.substr(0, colon),
                                          std::atoi(target.c_str() + colon +
                                                    1));
    } else {
      client = server::Client::ConnectTcp("127.0.0.1", std::atoi(
                                                           target.c_str()));
    }
    SEEDB_RETURN_IF_ERROR(client.status());
    remote_.emplace(std::move(*client));
    // Negotiate push: the server then drives every session opened here and
    // the drive loop below consumes the frames it pushes.
    SEEDB_RETURN_IF_ERROR(remote_->Hello());
    SEEDB_ASSIGN_OR_RETURN(server::RemoteStatus status,
                           remote_->GetStatus());
    std::printf("connected to %s (%zu open sessions, protocol v%d%s); "
                "queries now run remotely — \\disconnect to go back\n",
                target.c_str(), status.sessions,
                remote_->handshake().version,
                remote_->push_enabled() ? ", push" : "");
    if (status.cache_enabled) {
      std::printf("server result cache: %llu hits, %llu misses, %llu bytes, "
                  "%llu evictions\n",
                  static_cast<unsigned long long>(status.cache_hits),
                  static_cast<unsigned long long>(status.cache_misses),
                  static_cast<unsigned long long>(status.cache_bytes),
                  static_cast<unsigned long long>(status.cache_evictions));
    }
    return Status::OK();
  }

  Status Disconnect() {
    if (!remote_.has_value()) {
      return Status::InvalidArgument("not connected");
    }
    remote_.reset();
    std::printf("disconnected; queries run in-process again\n");
    return Status::OK();
  }

  // Engine-wide execution counters, cumulative over this CLI session —
  // vec_morsels shows whether the fused scans actually took the vectorized
  // inner loop or fell back to the hash path. In remote mode the queries
  // ran on the server's engine, whose counters these are NOT.
  // `\stats reset` zeroes both the engine counters and the in-process obs
  // registry, so back-to-back experiments measure from a clean slate.
  Status Stats(std::istringstream& in) {
    std::string arg;
    in >> arg;
    if (arg == "reset") {
      engine_.ResetStats();
      obs::Registry::Global().Reset();
      std::printf("engine counters and metrics registry reset\n");
      return Status::OK();
    }
    if (!arg.empty()) {
      return Status::InvalidArgument("usage: \\stats [reset]");
    }
    if (remote_.has_value()) {
      std::printf("note: connected to a server — queries ran on the "
                  "server's engine; the counters below cover only this "
                  "CLI's in-process engine\n");
    }
    std::printf("%s\n", engine_.stats().ToString().c_str());
    return Status::OK();
  }

  // The obs registry snapshot: latency histograms (engine phases, server
  // request types) plus counters/gauges. Remote mode asks the server for
  // ITS registry — that is where the queries ran.
  Status Metrics() {
    if (remote_.has_value()) {
      SEEDB_ASSIGN_OR_RETURN(server::JsonValue frame, remote_->Metrics());
      std::printf("%s\n", frame.Dump().c_str());
      return Status::OK();
    }
    std::printf("%s", obs::Registry::Global().TakeSnapshot().ToString().c_str());
    return Status::OK();
  }

  /// Remote execution: same streaming shape as the in-process path, driven
  /// over the wire. Results print as a compact table — the raw view data
  /// needed for ASCII charts stays server-side.
  Status RunRemoteQuery(const std::string& sql) {
    server::OpenSpec spec;
    spec.sql = sql;
    spec.k = options_.k;
    spec.bottom_k = options_.bottom_k;
    spec.metric = core::DistanceMetricToString(options_.metric);
    spec.strategy = core::ExecutionStrategyToString(options_.strategy);
    spec.parallelism = options_.parallelism;
    spec.memory_budget = options_.memory_budget_bytes;
    if (options_.strategy == core::ExecutionStrategy::kPhasedSharedScan) {
      spec.phases = options_.online_pruning.num_phases;
      spec.pruner =
          core::OnlinePrunerToString(options_.online_pruning.pruner);
      spec.early_stop = options_.online_pruning.early_stop_stable_phases;
    }
    const std::string id = "cli-" + std::to_string(next_remote_id_++);
    Status opened = remote_->Open(id, spec);
    if (!opened.ok()) {
      // Admission control sheds with busy + a retry hint; surface the hint
      // so the analyst knows when capacity comes back instead of guessing.
      if (opened.code() == StatusCode::kUnavailable &&
          remote_->last_retry_after_ms() > 0) {
        std::printf("server busy — retry in %d ms\n",
                    remote_->last_retry_after_ms());
      }
      return opened;
    }

    // From here on the session exists server-side: every early exit must
    // still finish it, or failed queries would pile sessions up in the
    // server registry until its cap refuses everyone.
    Status drive = DriveRemoteSession(id);
    if (!drive.ok() && drive.code() != StatusCode::kOutOfRange) {
      (void)remote_->Finish(id);  // best-effort release
      return drive;
    }
    if (!drive.ok()) {
      // Budget breach: report it, then show the partial results Finish()
      // assembles — the same contract as the in-process session.
      std::printf("  %s\n", drive.ToString().c_str());
    }

    SEEDB_ASSIGN_OR_RETURN(server::RemoteResult result, remote_->Finish(id));
    for (const server::RemoteRecommendation& rec : result.top) {
      std::printf("%zu. %-40s utility %.6f\n   %s\n", rec.rank,
                  rec.view_id.c_str(), rec.utility, rec.target_sql.c_str());
    }
    if (!result.pruned_online.empty()) {
      std::printf("views not examined (pruned mid-scan):\n");
      for (const server::RemotePrunedView& pv : result.pruned_online) {
        std::printf("  %-40s ~%.4f (phase %zu)\n", pv.view_id.c_str(),
                    pv.partial_utility, pv.pruned_at_phase);
      }
    }
    std::printf("remote: %zu phases, %zu table scans, %llu rows%s%s%s\n",
                result.profile.phases_executed, result.profile.table_scans,
                static_cast<unsigned long long>(result.profile.rows_scanned),
                result.profile.early_stopped ? ", early-stopped" : "",
                result.profile.cancelled ? ", CANCELLED" : "",
                result.profile.budget_exceeded ? ", BUDGET EXCEEDED" : "");
    if (result.profile.cache_hits + result.profile.cache_misses > 0) {
      std::printf("remote result cache: %llu hits, %llu misses\n",
                  static_cast<unsigned long long>(result.profile.cache_hits),
                  static_cast<unsigned long long>(result.profile.cache_misses));
    }
    return Status::OK();
  }

  /// The streaming loop of one remote query: one printed line per progress
  /// frame, with the armed \cancel applied. Finishing (and thus releasing)
  /// the session stays with the caller. Next() consumes server-pushed
  /// frames — each loop turn pops a frame that already arrived (or blocks
  /// for the next push); no request goes over the wire.
  Status DriveRemoteSession(const std::string& id) {
    const size_t cancel_after = cancel_after_phases_;
    cancel_after_phases_ = 0;  // one-shot
    while (true) {
      SEEDB_ASSIGN_OR_RETURN(std::optional<server::RemoteProgress> progress,
                             remote_->Next(id));
      if (!progress.has_value()) break;
      std::printf("  phase %zu/%zu  %6.1fms  rows %llu/%llu  active %zu  "
                  "pruned %zu  mem %llu B",
                  progress->phase, progress->total_phases,
                  progress->phase_seconds * 1e3,
                  static_cast<unsigned long long>(progress->rows_scanned),
                  static_cast<unsigned long long>(progress->total_rows),
                  progress->views_active, progress->views_pruned,
                  static_cast<unsigned long long>(progress->memory_bytes));
      if (!progress->top.empty()) {
        std::printf("  top: %s ~%.4f", progress->top[0].id.c_str(),
                    progress->top[0].utility);
      }
      if (progress->early_stopped) std::printf("  [early stop]");
      if (progress->cancelled) std::printf("  [cancelled]");
      std::printf("\n");
      if (progress->cancelled || progress->early_stopped) break;
      if (cancel_after > 0 && progress->phase >= cancel_after) {
        SEEDB_RETURN_IF_ERROR(remote_->Cancel(id));
        std::printf("  \\cancel: scan cancelled after phase %zu\n",
                    progress->phase);
        break;
      }
    }
    return Status::OK();
  }

  Status RunQuery(const std::string& sql) {
    if (remote_.has_value()) return RunRemoteQuery(sql);
    SEEDB_ASSIGN_OR_RETURN(core::SeeDBRequest request,
                           core::SeeDBRequest::FromSql(sql));
    request.WithOptions(options_);
    SEEDB_ASSIGN_OR_RETURN(core::RecommendationSession session,
                           seedb_.Open(request));

    // Stream the phased scan: one progress line per phase, so a long scan
    // shows the provisional top view tightening instead of a frozen prompt.
    // A per-query run is one phase, run silently inside Finish().
    const bool streaming =
        options_.strategy == core::ExecutionStrategy::kPhasedSharedScan;
    const size_t cancel_after = cancel_after_phases_;
    cancel_after_phases_ = 0;  // one-shot
    while (streaming) {
      SEEDB_ASSIGN_OR_RETURN(std::optional<core::ProgressUpdate> update,
                             session.Next());
      if (!update.has_value()) break;
      PrintProgress(*update);
      if (update->cancelled || update->early_stopped) break;
      if (cancel_after > 0 && update->phase >= cancel_after) {
        session.Cancel();
        std::printf("  \\cancel: scan cancelled after phase %zu\n",
                    update->phase);
        break;
      }
    }

    SEEDB_ASSIGN_OR_RETURN(core::RecommendationSet result, session.Finish());
    for (const auto& rec : result.top_views) {
      std::printf("%s", viz::RenderRecommendation(rec).c_str());
      std::printf("    metadata: %s\n\n",
                  viz::ComputeViewMetadata(rec.result).ToString().c_str());
    }
    if (!result.online_pruned_views.empty()) {
      std::printf("views not examined (pruned mid-scan, est. utility at "
                  "retirement):\n");
      for (const auto& pv : result.online_pruned_views) {
        std::printf("  %-40s ~%.4f (phase %zu)\n", pv.view.Id().c_str(),
                    pv.partial_utility, pv.pruned_at_phase);
      }
    }
    std::printf("%s\n", result.profile.ToString().c_str());
    return Status::OK();
  }

  void PrintProgress(const core::ProgressUpdate& u) {
    std::printf("  phase %zu/%zu  %6.1fms  rows %llu/%llu  active %zu  "
                "pruned %zu",
                u.phase, u.total_phases, u.phase_seconds * 1e3,
                static_cast<unsigned long long>(u.rows_scanned),
                static_cast<unsigned long long>(u.total_rows), u.views_active,
                u.views_pruned_online);
    if (!u.top_views.empty()) {
      const auto& top = u.top_views[0];
      std::printf("  top: %s ~%.4f", top.view.Id().c_str(), top.utility);
      if (std::isfinite(u.ci_half_width)) {
        std::printf(" ±%.4f", u.ci_half_width);
      }
    }
    if (u.early_stopped) std::printf("  [early stop: top-k CI-stable]");
    if (u.cancelled) std::printf("  [cancelled]");
    std::printf("\n");
  }

  db::Catalog catalog_;
  db::Engine engine_;
  core::SeeDB seedb_;
  core::SeeDBOptions options_;
  /// Armed by \cancel: auto-cancel the next query's scan after this phase
  /// (0 = not armed). Lets scripted runs exercise mid-scan cancellation.
  size_t cancel_after_phases_ = 0;
  /// Engaged by \connect: queries stream through this wire connection
  /// instead of the in-process engine.
  std::optional<server::Client> remote_;
  size_t next_remote_id_ = 1;
};

}  // namespace

int main() {
  Cli cli;
  return cli.Run();
}
