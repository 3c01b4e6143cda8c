//===- getafixd.cpp - The Getafix query-server daemon ---------------------===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Long-lived multi-program reachability server. Accepts the line-oriented
/// JSON protocol of src/server/Protocol.h on a loopback TCP port or a
/// Unix-domain socket and answers `solve` requests through a
/// memory-budgeted pool of `SolverSession`s, so repeated queries against
/// the same program reuse its compiled calculus and solved summaries.
///
///   getafixd [options]
///     --port N           TCP port (default 0 = kernel-assigned; the bound
///                        port is printed on stdout as "listening PORT")
///     --host H           bind address (default 127.0.0.1)
///     --socket PATH      serve a Unix-domain socket instead of TCP
///     --port-file PATH   also write the bound port to PATH (for scripts)
///     --workers N        connection worker threads (default 4)
///     --budget-mb N      session-pool memory budget; over it, LRU
///                        sessions first get their computed cache cleared,
///                        then are evicted (0 = unbounded, the default)
///     --max-sessions N   hard cap on resident sessions (0 = unbounded)
///     --no-inline        reject requests with inline 'source' text
///     --default-timeout-ms N
///                        deadline for solve requests that carry no
///                        `timeout_ms` field (0 = none, the default)
///     --max-timeout-ms N upper bound on any request's deadline; binds
///                        even requests that asked for none, so no client
///                        can pin a session forever (0 = uncapped)
///     --node-budget N    BDD node budget per solve request; a client's
///                        `node_budget` may only lower it (0 = unlimited).
///                        A tripped limit yields a structured error row
///                        (`hit_deadline` / `hit_node_budget` /
///                        `cancelled`); the session stays valid and a
///                        retry with a larger budget resumes exactly
///     --algo NAME        default engine for every session (default:
///                        summary-scc for sequential programs, conc for
///                        concurrent)
///     --threads N        evaluator worker threads per solve (parallel
///                        SCC scheduling: `summary-scc` sessions solve
///                        their independent SCCs on a pool of N threads
///                        that lives for one solve); the `stats` response
///                        reports the setting
///     --context-bound K / --rounds R / --round-robin
///                        concurrent-program knobs (as in getafix)
///
/// SIGINT/SIGTERM shut down gracefully: stop accepting, drain in-flight
/// requests, print final statistics, exit 0.
///
//===----------------------------------------------------------------------===//

#include "server/Server.h"
#include "support/Strings.h"

#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

using namespace getafix;

namespace {

server::Server *ActiveServer = nullptr;

void onSignal(int) {
  // Async-signal-safe: one write to the server's self-pipe.
  if (ActiveServer)
    ActiveServer->notifyShutdownFromSignal();
}

int usage() {
  std::fprintf(
      stderr,
      "usage: getafixd [--port N] [--host H] [--socket PATH] "
      "[--port-file PATH]\n"
      "                [--workers N] [--budget-mb N] [--max-sessions N] "
      "[--no-inline]\n"
      "                [--default-timeout-ms N] [--max-timeout-ms N] "
      "[--node-budget N]\n"
      "                [--algo NAME] [--threads N]\n"
      "                [--context-bound K] [--rounds R] [--round-robin]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  server::ServerOptions Opts;
  std::string PortFile;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V;
    if (Arg == "--port") {
      if (!parseUnsigned(Next(), Opts.Port, 0, 65535))
        return usage();
    } else if (Arg == "--host") {
      if (!(V = Next()))
        return usage();
      Opts.Host = V;
    } else if (Arg == "--socket") {
      if (!(V = Next()))
        return usage();
      Opts.UnixPath = V;
    } else if (Arg == "--port-file") {
      if (!(V = Next()))
        return usage();
      PortFile = V;
    } else if (Arg == "--workers") {
      if (!parseUnsigned(Next(), Opts.Workers, 1, 256))
        return usage();
    } else if (Arg == "--budget-mb") {
      size_t Mb = 0;
      if (!parseUnsigned(Next(), Mb, 0, SIZE_MAX >> 20))
        return usage();
      Opts.Pool.MemoryBudgetBytes = Mb << 20;
    } else if (Arg == "--budget-bytes") {
      // Undocumented fine-grained knob for tests/CI (small budgets that
      // force the valve and eviction on tiny programs).
      if (!parseUnsigned(Next(), Opts.Pool.MemoryBudgetBytes))
        return usage();
    } else if (Arg == "--max-sessions") {
      if (!parseUnsigned(Next(), Opts.Pool.MaxResidentSessions))
        return usage();
    } else if (Arg == "--no-inline") {
      Opts.AllowInlineSource = false;
    } else if (Arg == "--default-timeout-ms") {
      if (!parseUnsigned(Next(), Opts.DefaultTimeoutMs))
        return usage();
    } else if (Arg == "--max-timeout-ms") {
      if (!parseUnsigned(Next(), Opts.MaxTimeoutMs))
        return usage();
    } else if (Arg == "--node-budget") {
      if (!parseUnsigned(Next(), Opts.NodeBudgetCap))
        return usage();
    } else if (Arg == "--algo") {
      if (!(V = Next()))
        return usage();
      Opts.Pool.Solver.Engine = V;
    } else if (Arg == "--threads") {
      if (!parseUnsigned(Next(), Opts.Pool.Solver.Threads, 1, 256))
        return usage();
    } else if (Arg == "--context-bound") {
      if (!parseUnsigned(Next(), Opts.Pool.Solver.ContextBound))
        return usage();
    } else if (Arg == "--rounds") {
      if (!parseUnsigned(Next(), Opts.Pool.Solver.Rounds))
        return usage();
      Opts.Pool.Solver.RoundRobin = true;
    } else if (Arg == "--round-robin") {
      Opts.Pool.Solver.RoundRobin = true;
    } else {
      return usage();
    }
  }

  server::Server S(Opts);
  std::string Error;
  if (!S.start(&Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 2;
  }

  ActiveServer = &S;
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = onSignal;
  sigaction(SIGINT, &SA, nullptr);
  sigaction(SIGTERM, &SA, nullptr);
  signal(SIGPIPE, SIG_IGN);

  if (Opts.UnixPath.empty()) {
    std::printf("listening %u\n", S.port());
    if (!PortFile.empty()) {
      std::ofstream PF(PortFile);
      PF << S.port() << "\n";
    }
  } else {
    std::printf("listening %s\n", Opts.UnixPath.c_str());
  }
  std::fflush(stdout);

  S.wait(); // Returns after graceful drain.
  ActiveServer = nullptr;

  server::ServerStats SS = S.stats();
  server::PoolStats PS = S.pool().stats();
  std::printf("shutdown: %llu connections, %llu requests, %llu solves, "
              "%llu targets, %llu limit-stops, %llu watchdog-cancels, "
              "%llu contained-faults; pool: %llu opens, %llu reopens, "
              "%llu cache-clears, %llu evictions, %llu poisoned\n",
              (unsigned long long)SS.Connections,
              (unsigned long long)SS.Requests,
              (unsigned long long)SS.SolveRequests,
              (unsigned long long)SS.TargetsSolved,
              (unsigned long long)SS.LimitStops,
              (unsigned long long)SS.WatchdogCancels,
              (unsigned long long)SS.ContainedFaults,
              (unsigned long long)PS.Opens, (unsigned long long)PS.Reopens,
              (unsigned long long)PS.CacheClears,
              (unsigned long long)PS.Evictions,
              (unsigned long long)PS.PoisonedEvictions);
  return 0;
}
