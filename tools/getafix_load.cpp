//===- getafix_load.cpp - Load driver for the getafixd server -------------===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replays a mixed multi-program query workload against a running
/// `getafixd` and reports client-side latency percentiles, throughput,
/// and the server's pool counters (hits, reopens, cache-clears,
/// evictions).
///
///   getafix_load --port N [--host H] | --socket PATH
///     --program FILE=L1,L2,...  program + its target labels (repeatable)
///     --clients N        concurrent client connections (default 4)
///     --requests M       requests per client (default 16)
///     --rate R           open-loop arrival rate in req/s across all
///                        clients (default: closed loop, back-to-back)
///     --engine NAME      per-request engine override
///     --witness          request counterexample traces
///     --timeout-ms N     per-request `timeout_ms` deadline; rows the
///                        server stops at the limit are counted as
///                        timeouts (not errors, not drift) and reported
///     --retries N        bounded retry budget per connect/request
///                        failure, with exponential backoff (default 3)
///     --json PATH        write a BENCH_server.json report (bench row
///                        schema: per-target verdict rows keyed
///                        section/case/variant plus summary rows)
///     --verdicts PATH    write sorted "program label verdict" lines (CI
///                        diffs these against the offline getafix tool)
///     --witnesses PATH   write every served trace, sorted by program and
///                        label, each under a "== program label" line
///                        (CI diffs these against `getafix --witness`)
///     --emit-workloads DIR
///                        generate the labeled serving workloads
///                        (terminator + bluetooth) into DIR, print one
///                        "path label,label,..." manifest line per
///                        program, and exit — no server needed
///
/// Each client cycles through the programs; every fourth request sends
/// the program's full target batch (exercising the server's `solveAll`
/// path), the others a single rotating target. Verdicts and traces
/// observed by different clients for the same (program, target) are
/// checked for consistency — any disagreement is a pooling bug and exits
/// nonzero.
///
//===----------------------------------------------------------------------===//

#include "gen/Workloads.h"
#include "server/Protocol.h"
#include "support/Socket.h"
#include "support/Strings.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

using namespace getafix;

namespace {

struct ProgramSpec {
  std::string Path;
  std::vector<std::string> Targets;
};

struct CliOptions {
  std::string Host = "127.0.0.1";
  unsigned Port = 0;
  std::string UnixPath;
  std::vector<ProgramSpec> Programs;
  unsigned Clients = 4;
  unsigned Requests = 16;
  double Rate = 0.0; ///< 0 = closed loop.
  std::string Engine;
  bool Witness = false;
  uint64_t TimeoutMs = 0; ///< Per-request deadline; 0 = none.
  unsigned Retries = 3;   ///< Retry budget per failed connect/request.
  std::string JsonPath;
  std::string VerdictsPath;
  std::string WitnessesPath;
  std::string EmitDir;
};

int usage() {
  std::fprintf(
      stderr,
      "usage: getafix_load (--port N [--host H] | --socket PATH)\n"
      "                    --program FILE=L1,L2,... [--program ...]\n"
      "                    [--clients N] [--requests M] [--rate R]\n"
      "                    [--engine NAME] [--witness]\n"
      "                    [--timeout-ms N] [--retries N]\n"
      "                    [--json PATH] [--verdicts PATH]\n"
      "                    [--witnesses PATH]\n"
      "       getafix_load --emit-workloads DIR\n");
  return 2;
}

/// One observed verdict and trace (empty without one), with the
/// solver-side seconds of the first observation (for the bench report).
struct Observation {
  std::string Verdict;
  std::string Witness;
  double SolverSeconds = 0.0;
  uint64_t Count = 0;
};

struct SharedResults {
  std::mutex Mu;
  std::vector<double> LatenciesMs;
  std::map<std::pair<std::string, std::string>, Observation> Verdicts;
  uint64_t Requests = 0;
  uint64_t TargetRows = 0;
  uint64_t Errors = 0;
  uint64_t Retries = 0;     ///< Connect/request attempts that were retried.
  uint64_t TimeoutRows = 0; ///< Rows the server stopped at a resource limit.
  bool Inconsistent = false;
  std::string FirstError;

  void noteError(const std::string &E) {
    std::lock_guard<std::mutex> G(Mu);
    ++Errors;
    if (FirstError.empty())
      FirstError = E;
  }

  void noteRetry() {
    std::lock_guard<std::mutex> G(Mu);
    ++Retries;
  }
};

/// A row the server stopped at its resource envelope rather than solved.
/// Expected under deadline-driven load, so excluded from the cross-client
/// verdict-drift check (whether a given row trips is timing-dependent).
bool isLimitRow(const server::Json &Row) {
  const server::Json *Status = Row.find("status");
  if (!Status || !Status->isString())
    return false;
  const std::string &S = Status->asString();
  return S == "hit_deadline" || S == "hit_node_budget" || S == "cancelled";
}

server::Json buildSolveRequest(const CliOptions &Opts, const ProgramSpec &P,
                               const std::vector<std::string> &Targets) {
  server::Json Req = server::Json::object()
                         .set("op", server::Json::str("solve"))
                         .set("program", server::Json::str(P.Path));
  server::Json Ts = server::Json::array();
  for (const std::string &T : Targets)
    Ts.add(server::Json::str(T));
  Req.set("targets", std::move(Ts));
  if (Opts.Witness)
    Req.set("witness", server::Json::boolean(true));
  if (!Opts.Engine.empty())
    Req.set("engine", server::Json::str(Opts.Engine));
  if (Opts.TimeoutMs != 0)
    Req.set("timeout_ms", server::Json::number(double(Opts.TimeoutMs)));
  return Req;
}

support::Socket connectServer(const CliOptions &Opts, std::string &Error) {
  if (!Opts.UnixPath.empty())
    return support::connectUnix(Opts.UnixPath, &Error);
  return support::connectTcp(Opts.Host, Opts.Port, &Error);
}

/// Sends one request line and decodes the one response line.
bool roundTrip(support::Socket &Conn, support::LineReader &Reader,
               const server::Json &Req, server::Json &Resp,
               std::string &Error) {
  if (!support::writeAll(Conn.fd(), Req.dump() + "\n", &Error))
    return false;
  std::string Line;
  support::LineReader::Status St = Reader.readLine(Line, -1);
  if (St != support::LineReader::Status::Line) {
    Error = "connection closed mid-request";
    return false;
  }
  if (!server::Json::parse(Line, Resp, Error)) {
    Error = "bad response JSON: " + Error;
    return false;
  }
  return true;
}

void clientLoop(const CliOptions &Opts, unsigned ClientIdx,
                SharedResults &Results) {
  std::string Error;
  support::Socket Conn;
  std::unique_ptr<support::LineReader> Reader;

  // Bounded exponential backoff: 50ms doubling per attempt. A daemon
  // mid-restart or a dropped connection is a retry, not a run failure.
  auto backoff = [](unsigned Attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50u << Attempt));
  };
  auto connectWithRetry = [&]() -> bool {
    for (unsigned A = 0;; ++A) {
      Conn = connectServer(Opts, Error);
      if (Conn.valid()) {
        Reader.reset(new support::LineReader(Conn.fd()));
        return true;
      }
      if (A >= Opts.Retries)
        return false;
      Results.noteRetry();
      backoff(A);
    }
  };

  if (!connectWithRetry()) {
    Results.noteError("client " + std::to_string(ClientIdx) +
                      ": " + Error);
    return;
  }

  auto Start = std::chrono::steady_clock::now();
  for (unsigned R = 0; R < Opts.Requests; ++R) {
    // Open loop: pace request R of this client at its scheduled arrival
    // time; closed loop sends back-to-back.
    if (Opts.Rate > 0.0) {
      double PerClientRate = Opts.Rate / double(Opts.Clients);
      auto Due = Start + std::chrono::duration_cast<
                             std::chrono::steady_clock::duration>(
                             std::chrono::duration<double>(
                                 double(R) / PerClientRate));
      std::this_thread::sleep_until(Due);
    }

    // Program rotation is offset per client so concurrent clients hit
    // both the same and different programs over the run.
    const ProgramSpec &P =
        Opts.Programs[(R + ClientIdx) % Opts.Programs.size()];
    std::vector<std::string> Targets;
    if (R % 4 == 0) {
      Targets = P.Targets; // Full batch through the server's solveAll.
    } else {
      Targets.push_back(
          P.Targets[(R + ClientIdx) % P.Targets.size()]);
    }

    server::Json Req = buildSolveRequest(Opts, P, Targets);
    server::Json Resp;
    auto T0 = std::chrono::steady_clock::now();
    bool Sent = false;
    for (unsigned A = 0;; ++A) {
      if (roundTrip(Conn, *Reader, Req, Resp, Error)) {
        Sent = true;
        break;
      }
      if (A >= Opts.Retries)
        break;
      Results.noteRetry();
      backoff(A);
      // The connection may be dead (daemon restart, dropped peer);
      // reconnect before the next attempt, spending the same budget.
      if (!connectWithRetry())
        break;
    }
    if (!Sent) {
      Results.noteError("client " + std::to_string(ClientIdx) + ": " +
                        Error);
      return;
    }
    double Ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - T0)
                    .count();

    const server::Json *Ok = Resp.find("ok");
    if (!Ok || !Ok->isBool() || !Ok->asBool()) {
      const server::Json *E = Resp.find("error");
      Results.noteError("server error: " +
                        (E && E->isString() ? E->asString()
                                            : std::string("(unknown)")));
      continue;
    }

    std::lock_guard<std::mutex> G(Results.Mu);
    Results.LatenciesMs.push_back(Ms);
    ++Results.Requests;
    const server::Json *Rows = Resp.find("rows");
    if (!Rows || !Rows->isArray())
      continue;
    for (const server::Json &Row : Rows->items()) {
      const server::Json *Target = Row.find("target");
      if (!Target || !Target->isString())
        continue;
      ++Results.TargetRows;
      if (isLimitRow(Row)) {
        ++Results.TimeoutRows;
        continue;
      }
      const server::Json *Verdict = Row.find("verdict");
      const server::Json *RowErr = Row.find("error");
      const server::Json *Trace = Row.find("witness");
      std::string V = Verdict && Verdict->isString()
                          ? Verdict->asString()
                          : "ERROR:" + (RowErr && RowErr->isString()
                                            ? RowErr->asString()
                                            : std::string("?"));
      std::string W =
          Trace && Trace->isString() ? Trace->asString() : std::string();
      auto Key = std::make_pair(P.Path, Target->asString());
      auto It = Results.Verdicts.find(Key);
      if (It == Results.Verdicts.end()) {
        Observation O;
        O.Verdict = V;
        O.Witness = std::move(W);
        const server::Json *Secs = Row.find("seconds");
        O.SolverSeconds = Secs && Secs->isNumber() ? Secs->asNumber() : 0.0;
        O.Count = 1;
        Results.Verdicts.emplace(std::move(Key), std::move(O));
      } else {
        ++It->second.Count;
        // Two clients saw different answers for the same target — the
        // pooled session leaked state between programs or queries.
        std::string Where = P.Path + " " + Target->asString();
        std::string Drift;
        if (It->second.Verdict != V)
          Drift = "verdict drift on " + Where + ": '" + It->second.Verdict +
                  "' vs '" + V + "'";
        else if (It->second.Witness != W)
          Drift = "witness drift on " + Where + ": two different traces";
        if (!Drift.empty()) {
          Results.Inconsistent = true;
          if (Results.FirstError.empty())
            Results.FirstError = std::move(Drift);
        }
      }
    }
  }
}

double percentile(std::vector<double> Sorted, double Q) {
  if (Sorted.empty())
    return 0.0;
  size_t Idx = size_t(Q * double(Sorted.size() - 1) + 0.5);
  return Sorted[std::min(Idx, Sorted.size() - 1)];
}

std::string baseName(const std::string &Path) {
  size_t Slash = Path.find_last_of('/');
  return Slash == std::string::npos ? Path : Path.substr(Slash + 1);
}

/// Final `stats` verb on a fresh connection; best-effort (zeros on
/// failure).
bool fetchServerStats(const CliOptions &Opts, server::Json &Out) {
  std::string Error;
  support::Socket Conn = connectServer(Opts, Error);
  if (!Conn.valid())
    return false;
  support::LineReader Reader(Conn.fd());
  server::Json Req =
      server::Json::object().set("op", server::Json::str("stats"));
  return roundTrip(Conn, Reader, Req, Out, Error);
}

double poolCounter(const server::Json &Stats, const char *Name) {
  const server::Json *Pool = Stats.find("pool");
  if (!Pool)
    return 0.0;
  const server::Json *V = Pool->find(Name);
  return V && V->isNumber() ? V->asNumber() : 0.0;
}

int emitWorkloads(const std::string &Dir) {
  // The serving workload pair: one sequential TERMINATOR-shaped program
  // and one concurrent bluetooth model, each with >= 8 target labels of
  // mixed verdicts. Kept small enough for CI smoke runs.
  gen::TerminatorParams TP;
  TP.CounterBits = 6;
  TP.NumDeadVars = 4;
  TP.Style = gen::DeadVarStyle::Schoose;
  TP.Reachable = false;
  TP.LabeledCheckpoints = 4;
  gen::Workload T = gen::terminatorProgram(TP);

  std::string Bt = gen::bluetoothModel(1, 1, /*Labeled=*/true);

  struct Out {
    const char *File;
    const std::string &Source;
    std::vector<std::string> Targets;
  } Outs[] = {
      {"terminator.bp", T.Source,
       {"CP0", "CP1", "CP2", "CP3", "DEAD0", "DEAD1", "DEAD2", "DEAD3",
        "ERR"}},
      {"bluetooth.bp", Bt,
       {"INIT_A0", "OK_A0", "DEC_A0", "DEAD_A0", "STOP_S0", "DONE_S0",
        "DEAD_S0", "ERR"}},
  };

  for (const Out &O : Outs) {
    std::string Path = Dir + "/" + O.File;
    std::ofstream F(Path);
    if (!F) {
      std::fprintf(stderr, "error: cannot write '%s'\n", Path.c_str());
      return 2;
    }
    F << O.Source;
    F.close();
    std::string Labels;
    for (const std::string &L : O.Targets)
      Labels += (Labels.empty() ? "" : ",") + L;
    std::printf("%s %s\n", Path.c_str(), Labels.c_str());
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions Opts;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V;
    if (Arg == "--host") {
      if (!(V = Next()))
        return usage();
      Opts.Host = V;
    } else if (Arg == "--port") {
      if (!parseUnsigned(Next(), Opts.Port, 0, 65535))
        return usage();
    } else if (Arg == "--socket") {
      if (!(V = Next()))
        return usage();
      Opts.UnixPath = V;
    } else if (Arg == "--program") {
      if (!(V = Next()))
        return usage();
      std::string Spec = V;
      size_t Eq = Spec.find('=');
      if (Eq == std::string::npos || Eq == 0 || Eq + 1 >= Spec.size())
        return usage();
      ProgramSpec P;
      P.Path = Spec.substr(0, Eq);
      std::string Labels = Spec.substr(Eq + 1);
      size_t Pos = 0;
      while (Pos <= Labels.size()) {
        size_t Comma = Labels.find(',', Pos);
        if (Comma == std::string::npos)
          Comma = Labels.size();
        if (Comma > Pos)
          P.Targets.push_back(Labels.substr(Pos, Comma - Pos));
        Pos = Comma + 1;
      }
      if (P.Targets.empty())
        return usage();
      Opts.Programs.push_back(std::move(P));
    } else if (Arg == "--clients") {
      if (!parseUnsigned(Next(), Opts.Clients, 1, 256))
        return usage();
    } else if (Arg == "--requests") {
      if (!parseUnsigned(Next(), Opts.Requests, 1))
        return usage();
    } else if (Arg == "--rate") {
      if (!(V = Next()))
        return usage();
      Opts.Rate = std::atof(V);
    } else if (Arg == "--engine") {
      if (!(V = Next()))
        return usage();
      Opts.Engine = V;
    } else if (Arg == "--witness") {
      Opts.Witness = true;
    } else if (Arg == "--timeout-ms") {
      if (!parseUnsigned(Next(), Opts.TimeoutMs))
        return usage();
    } else if (Arg == "--retries") {
      if (!parseUnsigned(Next(), Opts.Retries, 0, 16))
        return usage();
    } else if (Arg == "--json") {
      if (!(V = Next()))
        return usage();
      Opts.JsonPath = V;
    } else if (Arg == "--verdicts") {
      if (!(V = Next()))
        return usage();
      Opts.VerdictsPath = V;
    } else if (Arg == "--witnesses") {
      if (!(V = Next()))
        return usage();
      Opts.WitnessesPath = V;
    } else if (Arg == "--emit-workloads") {
      if (!(V = Next()))
        return usage();
      Opts.EmitDir = V;
    } else {
      return usage();
    }
  }

  if (!Opts.EmitDir.empty())
    return emitWorkloads(Opts.EmitDir);
  if (Opts.Programs.empty() || (Opts.Port == 0 && Opts.UnixPath.empty()))
    return usage();

  SharedResults Results;
  auto Start = std::chrono::steady_clock::now();
  std::vector<std::thread> Clients;
  Clients.reserve(Opts.Clients);
  for (unsigned C = 0; C < Opts.Clients; ++C)
    Clients.emplace_back(
        [&Opts, C, &Results] { clientLoop(Opts, C, Results); });
  for (std::thread &T : Clients)
    T.join();
  double WallSeconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - Start)
                           .count();

  std::sort(Results.LatenciesMs.begin(), Results.LatenciesMs.end());
  double P50 = percentile(Results.LatenciesMs, 0.50);
  double P95 = percentile(Results.LatenciesMs, 0.95);
  double P99 = percentile(Results.LatenciesMs, 0.99);
  double Throughput =
      WallSeconds > 0.0 ? double(Results.Requests) / WallSeconds : 0.0;

  server::Json ServerStats;
  bool HaveStats = fetchServerStats(Opts, ServerStats);

  std::printf("requests %llu  targets %llu  errors %llu  retries %llu  "
              "timeouts %llu\n",
              (unsigned long long)Results.Requests,
              (unsigned long long)Results.TargetRows,
              (unsigned long long)Results.Errors,
              (unsigned long long)Results.Retries,
              (unsigned long long)Results.TimeoutRows);
  std::printf("latency ms  p50 %.3f  p95 %.3f  p99 %.3f\n", P50, P95, P99);
  std::printf("throughput %.1f req/s over %.2f s\n", Throughput,
              WallSeconds);
  if (HaveStats)
    std::printf("pool  hits %.0f  opens %.0f  reopens %.0f  "
                "cache-clears %.0f  evictions %.0f  resident %.0f\n",
                poolCounter(ServerStats, "hits"),
                poolCounter(ServerStats, "opens"),
                poolCounter(ServerStats, "reopens"),
                poolCounter(ServerStats, "cache_clears"),
                poolCounter(ServerStats, "evictions"),
                poolCounter(ServerStats, "resident_sessions"));

  // "program label verdict" lines, sorted (std::map iteration), for the
  // CI diff against the offline tool.
  if (!Opts.VerdictsPath.empty()) {
    std::ofstream VF(Opts.VerdictsPath);
    if (!VF) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   Opts.VerdictsPath.c_str());
      return 2;
    }
    for (const auto &KV : Results.Verdicts)
      VF << baseName(KV.first.first) << " " << KV.first.second << " "
         << KV.second.Verdict << "\n";
  }

  // Every served trace under a "== program label" line, sorted the same
  // way, for the CI diff against `getafix --witness`.
  if (!Opts.WitnessesPath.empty()) {
    std::ofstream WF(Opts.WitnessesPath);
    if (!WF) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   Opts.WitnessesPath.c_str());
      return 2;
    }
    for (const auto &KV : Results.Verdicts)
      if (!KV.second.Witness.empty())
        WF << "== " << baseName(KV.first.first) << " " << KV.first.second
           << "\n"
           << KV.second.Witness;
  }

  if (!Opts.JsonPath.empty()) {
    // Hand-rolled flat-row report matching bench/BenchUtil.h's JsonReport
    // format ({"rows": [...]}) so bench/check_trajectory.py can ingest
    // it: per-target verdict rows plus latency/pool summary rows.
    std::ofstream JF(Opts.JsonPath);
    if (!JF) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   Opts.JsonPath.c_str());
      return 2;
    }
    std::string Rows;
    auto AddRow = [&Rows](const server::Json &Row) {
      Rows += Rows.empty() ? "  " : ",\n  ";
      Rows += Row.dump();
    };
    for (const auto &KV : Results.Verdicts) {
      bool IsError = KV.second.Verdict.rfind("ERROR:", 0) == 0;
      server::Json Row =
          server::Json::object()
              .set("section", server::Json::str("server"))
              .set("case", server::Json::str(baseName(KV.first.first)))
              .set("variant", server::Json::str(KV.first.second))
              .set("verdict", server::Json::str(KV.second.Verdict))
              .set("reachable",
                   server::Json::boolean(KV.second.Verdict == "YES"))
              .set("error", server::Json::boolean(IsError))
              .set("observations",
                   server::Json::number(double(KV.second.Count)))
              .set("seconds",
                   server::Json::number(KV.second.SolverSeconds));
      AddRow(Row);
    }
    server::Json Latency =
        server::Json::object()
            .set("section", server::Json::str("server"))
            .set("case", server::Json::str("summary"))
            .set("variant", server::Json::str("latency"))
            .set("clients", server::Json::number(double(Opts.Clients)))
            .set("requests", server::Json::number(double(Results.Requests)))
            .set("errors", server::Json::number(double(Results.Errors)))
            .set("retries", server::Json::number(double(Results.Retries)))
            .set("timeout_rows",
                 server::Json::number(double(Results.TimeoutRows)))
            .set("timeout_ms",
                 server::Json::number(double(Opts.TimeoutMs)))
            .set("p50_ms", server::Json::number(P50))
            .set("p95_ms", server::Json::number(P95))
            .set("p99_ms", server::Json::number(P99))
            .set("throughput_rps", server::Json::number(Throughput))
            .set("seconds", server::Json::number(WallSeconds));
    AddRow(Latency);
    if (HaveStats) {
      server::Json Pool =
          server::Json::object()
              .set("section", server::Json::str("server"))
              .set("case", server::Json::str("summary"))
              .set("variant", server::Json::str("pool"))
              .set("lookups",
                   server::Json::number(poolCounter(ServerStats, "lookups")))
              .set("hits",
                   server::Json::number(poolCounter(ServerStats, "hits")))
              .set("opens",
                   server::Json::number(poolCounter(ServerStats, "opens")))
              .set("reopens",
                   server::Json::number(poolCounter(ServerStats, "reopens")))
              .set("cache_clears",
                   server::Json::number(
                       poolCounter(ServerStats, "cache_clears")))
              .set("evictions",
                   server::Json::number(
                       poolCounter(ServerStats, "evictions")))
              .set("footprint_bytes",
                   server::Json::number(
                       poolCounter(ServerStats, "footprint_bytes")))
              .set("seconds", server::Json::number(0.0));
      AddRow(Pool);
    }
    JF << "{\"rows\": [\n" << Rows << "\n]}\n";
  }

  if (Results.Inconsistent || !Results.FirstError.empty()) {
    std::fprintf(stderr, "error: %s\n", Results.FirstError.c_str());
    return 2;
  }
  return 0;
}
