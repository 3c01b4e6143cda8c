//===- Server.cpp - The getafixd query server -----------------------------===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "server/Server.h"

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <fcntl.h>
#include <fstream>
#include <poll.h>
#include <sstream>
#include <sys/socket.h>
#include <unistd.h>

namespace getafix {
namespace server {

namespace {

/// FNV-1a over program text — the session key for inline-source solves.
std::string fnv1aHex(const std::string &S) {
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  char B[32];
  std::snprintf(B, sizeof(B), "%016llx", static_cast<unsigned long long>(H));
  return B;
}

bool readFile(const std::string &Path, std::string &Out, std::string &Error) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    Error = "cannot open program file '" + Path + "'";
    return false;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

// Matches the offline `getafix` tool.
const char *verdictString(const api::SolveResult &R) {
  return R.Reachable ? "YES" : "NO";
}

const char *statusName(api::SolveStatus S) {
  switch (S) {
  case api::SolveStatus::Ok:
    return "ok";
  case api::SolveStatus::ParseError:
    return "parse-error";
  case api::SolveStatus::UnknownEngine:
    return "unknown-engine";
  case api::SolveStatus::TargetNotFound:
    return "target-not-found";
  case api::SolveStatus::BadQuery:
    return "bad-query";
  case api::SolveStatus::HitDeadline:
    return "hit_deadline";
  case api::SolveStatus::HitNodeBudget:
    return "hit_node_budget";
  case api::SolveStatus::Cancelled:
    return "cancelled";
  }
  return "error";
}

/// How long past its deadline a request may run before the watchdog trips
/// its cancel latch. The in-band deadline probe normally fires first;
/// the watchdog is the backstop for a solve stuck between probes.
constexpr int64_t WatchdogGraceMs = 250;

} // namespace

Server::Server(ServerOptions O) : Opts(std::move(O)), Pool(Opts.Pool) {
  if (::pipe(WakePipe) == 0) {
    ::fcntl(WakePipe[0], F_SETFL, O_NONBLOCK);
    ::fcntl(WakePipe[1], F_SETFL, O_NONBLOCK);
  }
}

Server::~Server() {
  requestShutdown();
  for (std::thread &T : Threads)
    if (T.joinable())
      T.join();
  if (WatchThread.joinable())
    WatchThread.join();
  for (int &Fd : WakePipe)
    if (Fd >= 0) {
      ::close(Fd);
      Fd = -1;
    }
}

bool Server::start(std::string *Error) {
  if (Opts.UnixPath.empty()) {
    Listener = support::listenTcp(Opts.Host, Opts.Port, &BoundPort, Error);
  } else {
    Listener = support::listenUnix(Opts.UnixPath, Error);
    BoundPort = 0;
  }
  if (!Listener.valid())
    return false;
  unsigned N = Opts.Workers ? Opts.Workers : 1;
  Threads.reserve(N);
  for (unsigned I = 0; I < N; ++I)
    Threads.emplace_back([this] { workerLoop(); });
  WatchThread = std::thread([this] { watchdogLoop(); });
  return true;
}

void Server::requestShutdown() {
  if (Stopping.exchange(true, std::memory_order_acq_rel))
    return;
  // Wake workers blocked in accept(). shutdown() (not close()) so the fd
  // stays valid for any worker mid-call.
  if (Listener.valid())
    ::shutdown(Listener.fd(), SHUT_RDWR);
  WatchCv.notify_all();
  notifyShutdownFromSignal();
}

void Server::notifyShutdownFromSignal() {
  // Async-signal-safe: a single write to a non-blocking pipe.
  if (WakePipe[1] >= 0) {
    char B = 1;
    ssize_t Ignored = ::write(WakePipe[1], &B, 1);
    (void)Ignored;
  }
}

void Server::wait() {
  // Wake on the self-pipe (signal handlers and requestShutdown both
  // write it); the timeout covers the pipe-creation-failed fallback.
  while (!stopping()) {
    pollfd Pfd;
    Pfd.fd = WakePipe[0];
    Pfd.events = POLLIN;
    Pfd.revents = 0;
    int R = ::poll(&Pfd, 1, 200);
    if (R > 0) {
      char Buf[16];
      while (::read(WakePipe[0], Buf, sizeof(Buf)) > 0)
        ;
      // A signal-handler notify bypasses requestShutdown; run it now.
      requestShutdown();
    }
  }
  requestShutdown();
  for (std::thread &T : Threads)
    if (T.joinable())
      T.join();
  Threads.clear();
  if (WatchThread.joinable())
    WatchThread.join();
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> G(StatsMu);
  return Stats;
}

//===----------------------------------------------------------------------===//
// Watchdog
//===----------------------------------------------------------------------===//

uint64_t Server::registerWatch(support::ResourceGovernor *Gov,
                               uint64_t TimeoutMs) {
  if (!Gov || TimeoutMs == 0)
    return 0;
  std::lock_guard<std::mutex> G(WatchMu);
  uint64_t Id = ++NextWatchId;
  WatchEntry &W = WatchMap[Id];
  W.Gov = Gov;
  W.CancelAt = std::chrono::steady_clock::now() +
               std::chrono::milliseconds(
                   static_cast<int64_t>(TimeoutMs) + WatchdogGraceMs);
  WatchCv.notify_all();
  return Id;
}

void Server::unregisterWatch(uint64_t Id) {
  if (Id == 0)
    return;
  std::lock_guard<std::mutex> G(WatchMu);
  WatchMap.erase(Id);
}

void Server::watchdogLoop() {
  std::unique_lock<std::mutex> L(WatchMu);
  while (!stopping()) {
    auto Now = std::chrono::steady_clock::now();
    auto Next = Now + std::chrono::milliseconds(200);
    unsigned Fired = 0;
    for (auto It = WatchMap.begin(); It != WatchMap.end();) {
      if (It->second.CancelAt <= Now) {
        // The governor lives on the worker's stack but stays valid while
        // registered (the worker unregisters before destroying it).
        It->second.Gov->cancel();
        ++Fired;
        It = WatchMap.erase(It);
      } else {
        if (It->second.CancelAt < Next)
          Next = It->second.CancelAt;
        ++It;
      }
    }
    if (Fired) {
      std::lock_guard<std::mutex> G(StatsMu);
      Stats.WatchdogCancels += Fired;
    }
    WatchCv.wait_until(L, Next);
  }
}

//===----------------------------------------------------------------------===//
// Connection handling
//===----------------------------------------------------------------------===//

void Server::workerLoop() {
  while (!stopping()) {
    support::Socket Conn = support::acceptOn(Listener.fd(), nullptr);
    if (!Conn.valid()) {
      if (stopping())
        return;
      continue; // Transient accept failure.
    }
    {
      std::lock_guard<std::mutex> G(StatsMu);
      ++Stats.Connections;
    }
    serveConnection(std::move(Conn));
  }
}

void Server::serveConnection(support::Socket Conn) {
  support::LineReader Reader(Conn.fd());
  std::string Line;
  for (;;) {
    // Short poll timeout so a shutdown request is observed between
    // requests; an in-flight request always completes and its response
    // flushes before the connection closes (the drain guarantee).
    support::LineReader::Status St = Reader.readLine(Line, 200);
    if (St == support::LineReader::Status::Timeout) {
      if (stopping())
        return;
      continue;
    }
    if (St != support::LineReader::Status::Line)
      return; // Closed or error.

    {
      std::lock_guard<std::mutex> G(StatsMu);
      ++Stats.Requests;
    }

    Request R;
    std::string Err;
    Json Resp;
    bool ShutdownRequested = false;
    if (!parseRequest(Line, R, Err)) {
      Resp = errorResponse(Err);
    } else {
      // Last line of defense: no request — however it fails — may take
      // the daemon down. handleSolve contains solver faults itself (so
      // it can poison the session); this catches everything else.
      try {
        Resp = handle(R, ShutdownRequested);
      } catch (const std::exception &Ex) {
        Resp = errorResponse(std::string("internal error: ") + Ex.what());
      } catch (...) {
        Resp = errorResponse("internal error: unknown exception");
      }
    }
    const Json *Ok = Resp.find("ok");
    if (Ok && Ok->isBool() && !Ok->asBool()) {
      std::lock_guard<std::mutex> G(StatsMu);
      ++Stats.Errors;
    }
    if (!support::writeAll(Conn.fd(), Resp.dump() + "\n"))
      return; // Peer went away.
    if (ShutdownRequested) {
      requestShutdown();
      return;
    }
    if (stopping())
      return;
  }
}

//===----------------------------------------------------------------------===//
// Verbs
//===----------------------------------------------------------------------===//

Json Server::handle(const Request &R, bool &ShutdownRequested) {
  switch (R.Op) {
  case Verb::Ping:
    return Json::object()
        .set("ok", Json::boolean(true))
        .set("pong", Json::boolean(true));
  case Verb::Solve:
    return handleSolve(R);
  case Verb::Stats:
    return handleStats();
  case Verb::Evict:
    return handleEvict(R);
  case Verb::Shutdown:
    ShutdownRequested = true;
    return Json::object()
        .set("ok", Json::boolean(true))
        .set("stopping", Json::boolean(true));
  }
  return errorResponse("unhandled verb");
}

Json Server::handleSolve(const Request &R) {
  // The session key: path or content-hash, plus the engine override (the
  // same program under two engines is two sessions — options are fixed
  // at open).
  std::string Key;
  SessionPool::SourceLoader Loader;
  if (!R.Program.empty()) {
    Key = "file:" + R.Program;
    const std::string Path = R.Program;
    Loader = [Path](std::string &Src, std::string &Err) {
      return readFile(Path, Src, Err);
    };
  } else {
    if (!Opts.AllowInlineSource)
      return errorResponse("inline 'source' is disabled on this server");
    Key = "src:" + fnv1aHex(R.Source);
    const std::string Text = R.Source;
    Loader = [Text](std::string &Src, std::string &) {
      Src = Text;
      return true;
    };
  }
  if (!R.Engine.empty())
    Key += "#engine=" + R.Engine;

  SessionPool::Lease Lease = Pool.acquire(Key, Loader, R.Engine);
  if (!Lease.ok())
    return errorResponse(Lease.error());
  api::SolverSession &S = Lease.session();
  if (!S.ok())
    return errorResponse(std::string("open failed (") +
                         statusName(S.status()) + "): " + S.error());

  std::vector<api::Query> Qs;
  Qs.reserve(R.Targets.size());
  for (const std::string &T : R.Targets) {
    api::Query Q;
    Q.target(T).witness(R.Witness);
    Qs.push_back(std::move(Q));
  }

  // Resolve this request's resource envelope: the client's limits,
  // defaulted and clamped by the server-wide caps. MaxTimeoutMs binds
  // even a request that asked for no deadline at all.
  uint64_t TimeoutMs = R.TimeoutMs ? R.TimeoutMs : Opts.DefaultTimeoutMs;
  if (Opts.MaxTimeoutMs != 0 &&
      (TimeoutMs == 0 || TimeoutMs > Opts.MaxTimeoutMs))
    TimeoutMs = Opts.MaxTimeoutMs;
  uint64_t NodeBudget = R.NodeBudget ? R.NodeBudget : Opts.NodeBudgetCap;
  if (Opts.NodeBudgetCap != 0 && NodeBudget > Opts.NodeBudgetCap)
    NodeBudget = Opts.NodeBudgetCap;

  // One governor covers the whole batch (the deadline is absolute, the
  // budget request-wide); once tripped, remaining targets report the
  // same limit immediately. The watchdog is the out-of-band backstop.
  support::ResourceGovernor Gov;
  if (TimeoutMs != 0)
    Gov.setDeadlineIn(static_cast<int64_t>(TimeoutMs));
  if (NodeBudget != 0)
    Gov.setNodeBudget(NodeBudget);
  bool Governed = TimeoutMs != 0 || NodeBudget != 0;
  if (Governed)
    S.setResourceGovernor(&Gov);
  uint64_t WatchId = registerWatch(Governed ? &Gov : nullptr, TimeoutMs);

  // A real fault (injected or genuine OOM, broken invariant) escaping
  // the engines is contained to this request: detach the governor,
  // poison the session so its state is never reused, and keep serving.
  auto containFault = [&](const std::string &What) {
    unregisterWatch(WatchId);
    if (Governed)
      S.setResourceGovernor(nullptr);
    Lease.markPoisoned();
    {
      std::lock_guard<std::mutex> G(StatsMu);
      ++Stats.SolveRequests;
      ++Stats.ContainedFaults;
    }
    return errorResponse("solve failed: " + What + " (session evicted)");
  };

  auto T0 = std::chrono::steady_clock::now();
  std::vector<api::SolveResult> Results;
  try {
    Results = S.solveAll(Qs);
  } catch (const std::exception &Ex) {
    return containFault(Ex.what());
  } catch (...) {
    return containFault("unknown fault");
  }
  unregisterWatch(WatchId);
  if (Governed)
    S.setResourceGovernor(nullptr);
  double Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
          .count();

  uint64_t LimitRows = 0;
  Json Rows = Json::array();
  for (size_t I = 0; I < Results.size(); ++I) {
    const api::SolveResult &Res = Results[I];
    Json Row = Json::object().set("target", Json::str(R.Targets[I]));
    if (api::isResourceLimit(Res.Status)) {
      // A limit stop is structured data, not a failure: the session
      // halted at a completed round boundary and a retry with a larger
      // budget resumes bit-identically.
      ++LimitRows;
      Row.set("error", Json::str(Res.Error))
          .set("status", Json::str(statusName(Res.Status)))
          .set("iterations", Json::number(double(Res.Iterations)))
          .set("seconds", Json::number(Res.Seconds));
    } else if (!Res.ok()) {
      // A bad target is an error row, not a dead connection — the rest
      // of the batch still gets verdicts.
      Row.set("error", Json::str(Res.Error))
          .set("status", Json::str(statusName(Res.Status)));
    } else {
      Row.set("verdict", Json::str(verdictString(Res)))
          .set("reachable", Json::boolean(Res.Reachable))
          .set("iterations", Json::number(double(Res.Iterations)))
          .set("summary_nodes", Json::number(double(Res.SummaryNodes)))
          .set("reused", Json::number(double(Res.SummariesReused)))
          .set("seconds", Json::number(Res.Seconds));
      if (Res.HasWitness)
        Row.set("witness", Json::str(Res.WitnessText));
    }
    Rows.add(std::move(Row));
  }

  {
    std::lock_guard<std::mutex> G(StatsMu);
    ++Stats.SolveRequests;
    Stats.TargetsSolved += Results.size();
    Stats.LimitStops += LimitRows;
    for (const api::SolveResult &Res : Results)
      if (Res.CondensationWidth != 0) {
        Stats.CondensationWidth = Res.CondensationWidth;
        Stats.SummaryRelations = Res.SummaryRelations;
      }
  }

  return Json::object()
      .set("ok", Json::boolean(true))
      .set("program", Json::str(Key))
      .set("reopened", Json::boolean(Lease.reopened()))
      .set("seconds", Json::number(Seconds))
      .set("rows", std::move(Rows))
      .set("session",
           Json::object()
               .set("live_nodes", Json::number(double(S.liveNodes())))
               .set("peak_live_nodes",
                    Json::number(double(S.peakLiveNodes())))
               .set("footprint_bytes",
                    Json::number(double(S.memoryFootprint()))));
}

Json Server::handleStats() {
  ServerStats SS = stats();
  PoolStats PS = Pool.stats();
  return Json::object()
      .set("ok", Json::boolean(true))
      .set("server",
           Json::object()
               .set("connections", Json::number(double(SS.Connections)))
               .set("requests", Json::number(double(SS.Requests)))
               .set("solves", Json::number(double(SS.SolveRequests)))
               .set("targets", Json::number(double(SS.TargetsSolved)))
               .set("errors", Json::number(double(SS.Errors)))
               .set("limit_stops", Json::number(double(SS.LimitStops)))
               .set("watchdog_cancels",
                    Json::number(double(SS.WatchdogCancels)))
               .set("contained_faults",
                    Json::number(double(SS.ContainedFaults)))
               .set("default_timeout_ms",
                    Json::number(double(Opts.DefaultTimeoutMs)))
               .set("max_timeout_ms",
                    Json::number(double(Opts.MaxTimeoutMs)))
               .set("node_budget",
                    Json::number(double(Opts.NodeBudgetCap)))
               // The per-solve evaluator parallelism every pooled session
               // is opened with (`getafixd --threads`); clients use it to
               // tell a sequential deployment from a parallel one.
               .set("threads",
                    Json::number(double(Opts.Pool.Solver.Threads)))
               // Summary compilation shape: the width / relation count
               // of the most recent fixed-point solve (0 until one runs).
               .set("condensation_width",
                    Json::number(double(SS.CondensationWidth)))
               .set("summary_relations",
                    Json::number(double(SS.SummaryRelations))))
      .set("pool",
           Json::object()
               .set("lookups", Json::number(double(PS.Lookups)))
               .set("hits", Json::number(double(PS.Hits)))
               .set("opens", Json::number(double(PS.Opens)))
               .set("reopens", Json::number(double(PS.Reopens)))
               .set("evictions", Json::number(double(PS.Evictions)))
               .set("cache_clears", Json::number(double(PS.CacheClears)))
               .set("poisoned_evictions",
                    Json::number(double(PS.PoisonedEvictions)))
               .set("resident_sessions",
                    Json::number(double(PS.ResidentSessions)))
               .set("total_programs",
                    Json::number(double(PS.TotalPrograms)))
               .set("footprint_bytes",
                    Json::number(double(PS.FootprintBytes)))
               .set("budget_bytes",
                    Json::number(double(Opts.Pool.MemoryBudgetBytes))));
}

Json Server::handleEvict(const Request &R) {
  if (R.Program.empty()) {
    size_t N = Pool.evictAll();
    return Json::object()
        .set("ok", Json::boolean(true))
        .set("evicted", Json::number(double(N)));
  }
  std::string Key = "file:" + R.Program;
  if (!R.Engine.empty())
    Key += "#engine=" + R.Engine;
  bool Evicted = Pool.evict(Key);
  return Json::object()
      .set("ok", Json::boolean(true))
      .set("evicted", Json::number(Evicted ? 1.0 : 0.0));
}

} // namespace server
} // namespace getafix
