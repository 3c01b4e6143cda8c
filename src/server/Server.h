//===- Server.h - The getafixd query server ---------------------*- C++ -*-===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-lived multi-program query server: a small pool of worker
/// threads accepts connections on a TCP (loopback) or Unix-domain socket
/// and serves the line-oriented JSON protocol of Protocol.h, answering
/// `solve` requests through a memory-budgeted `SessionPool` so repeated
/// queries against the same program reuse its solved summaries. One
/// worker owns a connection end-to-end (the protocol is strictly
/// request/response, so multiplexing buys nothing); concurrency across
/// programs comes from multiple workers, and concurrent clients of the
/// same program serialize on its pooled session.
///
/// Every solve request runs under a `ResourceGovernor`: its deadline and
/// node budget come from the request's `timeout_ms`/`node_budget` fields
/// clamped by the server-wide caps (`DefaultTimeoutMs`, `MaxTimeoutMs`,
/// `NodeBudgetCap`), and a watchdog thread cancels any request still in
/// flight past its deadline plus a grace period — an overdue lease is
/// stopped at the next governor probe instead of pinning the pool. A
/// limit stop is a structured error row (`hit_deadline` /
/// `hit_node_budget` / `cancelled`) and leaves the session valid at a
/// completed round boundary; a solve that escapes with a *real*
/// exception (e.g. an allocation failure) is contained per-request —
/// error response, poisoned-session eviction, daemon keeps serving.
///
/// Shutdown is graceful by design: `requestShutdown()` (or the `shutdown`
/// protocol verb, or a signal via `notifyShutdownFromSignal`) stops the
/// accept loop, lets every in-flight request finish and its response
/// flush, then closes connections. `wait()` blocks until the workers are
/// drained and joined.
///
//===----------------------------------------------------------------------===//

#ifndef GETAFIX_SERVER_SERVER_H
#define GETAFIX_SERVER_SERVER_H

#include "server/Protocol.h"
#include "server/SessionPool.h"
#include "support/ResourceGovernor.h"
#include "support/Socket.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace getafix {
namespace server {

struct ServerOptions {
  std::string Host = "127.0.0.1";
  /// TCP port; 0 = kernel-assigned (read the result from `port()`).
  unsigned Port = 0;
  /// Non-empty: serve a Unix-domain socket at this path instead of TCP.
  std::string UnixPath;
  unsigned Workers = 4;
  /// Accept `source` (inline program text) requests. Off restricts
  /// clients to server-side program paths.
  bool AllowInlineSource = true;
  /// Deadline applied to solve requests that carry no `timeout_ms`;
  /// 0 = none.
  uint64_t DefaultTimeoutMs = 0;
  /// Upper bound on any request's effective deadline (client-supplied or
  /// defaulted); 0 = uncapped. When set, even a request with no timeout
  /// is clamped to this, so no request can pin a session forever.
  uint64_t MaxTimeoutMs = 0;
  /// BDD node budget applied to every solve request; a client's
  /// `node_budget` may only lower it. 0 = unlimited.
  uint64_t NodeBudgetCap = 0;
  PoolOptions Pool;
};

/// Monotonic request counters (snapshot via `stats()`).
struct ServerStats {
  uint64_t Connections = 0;
  uint64_t Requests = 0;      ///< Request lines parsed (well- or mal-formed).
  uint64_t SolveRequests = 0; ///< `solve` verbs served.
  uint64_t TargetsSolved = 0; ///< Verdict rows produced.
  uint64_t Errors = 0;        ///< `{"ok":false}` responses sent.
  uint64_t LimitStops = 0;    ///< Rows stopped by deadline/budget/cancel.
  uint64_t WatchdogCancels = 0; ///< Overdue requests cancelled by the watchdog.
  uint64_t ContainedFaults = 0; ///< Solves that escaped with a real exception.
  /// Dependency-condensation width / summary-relation count of the most
  /// recent fixed-point solve (0 until one runs). Under the default
  /// sequential engine, `summary-scc`, both equal the program's call-graph
  /// SCC count; the paper's engines report one summary relation.
  unsigned CondensationWidth = 0;
  unsigned SummaryRelations = 0;
};

class Server {
public:
  explicit Server(ServerOptions Opts);
  ~Server();
  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds the listener and starts the workers. False + \p Error when the
  /// socket cannot be bound.
  bool start(std::string *Error);

  /// The bound TCP port (after `start`); 0 for Unix-domain servers.
  unsigned port() const { return BoundPort; }

  /// Initiates graceful shutdown: stop accepting, drain in-flight
  /// requests, close connections. Thread-safe, idempotent.
  void requestShutdown();

  /// Async-signal-safe shutdown trigger for SIGINT/SIGTERM handlers:
  /// writes one byte to a self-pipe; the waiter turns that into
  /// `requestShutdown()`.
  void notifyShutdownFromSignal();

  /// Blocks until shutdown is requested, then joins the workers. Call
  /// exactly once after a successful `start`.
  void wait();

  bool stopping() const { return Stopping.load(std::memory_order_acquire); }
  ServerStats stats() const;
  SessionPool &pool() { return Pool; }

private:
  void workerLoop();
  void serveConnection(support::Socket Conn);
  /// Dispatches one decoded request; the `shutdown` verb sets
  /// \p ShutdownRequested so the connection loop can respond first and
  /// initiate shutdown after.
  Json handle(const Request &R, bool &ShutdownRequested);
  Json handleSolve(const Request &R);
  Json handleStats();
  Json handleEvict(const Request &R);

  /// Registers an in-flight governor with the watchdog: if still
  /// registered past its deadline plus a grace period, the watchdog
  /// trips its cancel latch so the lease cannot pin the pool. Returns a
  /// handle for unregisterWatch; 0 when \p TimeoutMs is 0.
  uint64_t registerWatch(support::ResourceGovernor *Gov, uint64_t TimeoutMs);
  void unregisterWatch(uint64_t Id);
  void watchdogLoop();

  ServerOptions Opts;
  SessionPool Pool;
  support::Socket Listener;
  unsigned BoundPort = 0;
  std::vector<std::thread> Threads;
  std::thread WatchThread;
  std::atomic<bool> Stopping{false};
  int WakePipe[2] = {-1, -1}; ///< Self-pipe; [1] written by signal handler.

  /// One watched in-flight request: cancel its governor at CancelAt if
  /// the worker has not unregistered it by then.
  struct WatchEntry {
    support::ResourceGovernor *Gov = nullptr;
    std::chrono::steady_clock::time_point CancelAt;
  };
  std::mutex WatchMu; ///< Guards WatchMap/NextWatchId; never under StatsMu.
  std::condition_variable WatchCv;
  std::map<uint64_t, WatchEntry> WatchMap;
  uint64_t NextWatchId = 0;

  mutable std::mutex StatsMu;
  ServerStats Stats;
};

} // namespace server
} // namespace getafix

#endif // GETAFIX_SERVER_SERVER_H
