//===- ServerTest.cpp - getafixd server + protocol tests ------------------===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// In-process tests of the query server: protocol round-trips on an
/// ephemeral loopback port, malformed input surviving as error responses
/// (never a dead connection), per-target error rows, concurrent clients
/// receiving identical verdicts, the evict/stats verbs, and graceful
/// shutdown via both the protocol verb and the (signal-handler) self-pipe
/// path.
///
//===----------------------------------------------------------------------===//

#include "server/Server.h"

#include "gen/Workloads.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

using namespace getafix;
using server::Json;
using server::Server;
using server::ServerOptions;

namespace {

/// The lock-discipline fixture: ERR reachable, SAFE not.
const char *Fixture = R"(decl locked;
main() begin
  locked := F;
  call work(F);
end
work(nested) begin
  if (locked) then
    ERR: skip;
  else
    locked := T;
  fi
  if (!nested) then
    call work(T);
  fi
  if (locked & !locked) then
    SAFE: skip;
  fi
  locked := F;
end
)";

/// One client connection with line-level send/receive.
class Client {
public:
  explicit Client(unsigned Port) : Conn(connect(Port)), Reader(Conn.fd()) {}

  bool connected() const { return Conn.valid(); }

  /// Sends \p Line (newline appended) and returns the parsed response.
  Json call(const std::string &Line) {
    EXPECT_TRUE(support::writeAll(Conn.fd(), Line + "\n"));
    std::string RespLine;
    EXPECT_EQ(Reader.readLine(RespLine, 10000),
              support::LineReader::Status::Line);
    Json Resp;
    std::string Err;
    EXPECT_TRUE(Json::parse(RespLine, Resp, Err)) << Err << ": " << RespLine;
    return Resp;
  }

private:
  static support::Socket connect(unsigned Port) {
    std::string Err;
    support::Socket S = support::connectTcp("127.0.0.1", Port, &Err);
    EXPECT_TRUE(S.valid()) << Err;
    return S;
  }
  support::Socket Conn;
  support::LineReader Reader;
};

std::string solveRequest(const std::string &Source,
                         const std::vector<std::string> &Targets,
                         bool Witness = false) {
  Json Req = Json::object()
                 .set("op", Json::str("solve"))
                 .set("source", Json::str(Source));
  Json Ts = Json::array();
  for (const std::string &T : Targets)
    Ts.add(Json::str(T));
  Req.set("targets", std::move(Ts));
  if (Witness)
    Req.set("witness", Json::boolean(true));
  return Req.dump();
}

bool okOf(const Json &Resp) {
  const Json *Ok = Resp.find("ok");
  return Ok && Ok->isBool() && Ok->asBool();
}

std::string errorOf(const Json &Resp) {
  const Json *E = Resp.find("error");
  return E && E->isString() ? E->asString() : "";
}

/// The verdict of row \p I, or "<missing>".
std::string verdictOf(const Json &Resp, size_t I) {
  const Json *Rows = Resp.find("rows");
  if (!Rows || !Rows->isArray() || I >= Rows->items().size())
    return "<missing>";
  const Json *V = Rows->items()[I].find("verdict");
  return V && V->isString() ? V->asString() : "<missing>";
}

/// RAII server on an ephemeral loopback port.
struct TestServer {
  explicit TestServer(ServerOptions Opts = {}) : S(std::move(Opts)) {
    std::string Err;
    Started = S.start(&Err);
    EXPECT_TRUE(Started) << Err;
  }
  ~TestServer() {
    S.requestShutdown();
    S.wait();
  }
  Server S;
  bool Started = false;
};

} // namespace

//===----------------------------------------------------------------------===//
// Protocol round-trips
//===----------------------------------------------------------------------===//

TEST(ServerTest, PingAndStats) {
  TestServer T;
  Client C(T.S.port());
  ASSERT_TRUE(C.connected());

  Json Pong = C.call(R"({"op":"ping"})");
  EXPECT_TRUE(okOf(Pong));

  Json Stats = C.call(R"({"op":"stats"})");
  ASSERT_TRUE(okOf(Stats));
  const Json *Pool = Stats.find("pool");
  ASSERT_NE(Pool, nullptr);
  const Json *Resident = Pool->find("resident_sessions");
  ASSERT_NE(Resident, nullptr);
  EXPECT_EQ(Resident->asNumber(), 0.0);
}

TEST(ServerTest, SolveInlineSourceWithPerTargetErrorRows) {
  TestServer T;
  Client C(T.S.port());

  Json Resp = C.call(solveRequest(Fixture, {"ERR", "SAFE", "NO_SUCH"}));
  ASSERT_TRUE(okOf(Resp)) << errorOf(Resp);
  EXPECT_EQ(verdictOf(Resp, 0), "YES");
  EXPECT_EQ(verdictOf(Resp, 1), "NO");
  // The unknown label is an error ROW; the batch (and connection) live on.
  const Json *Rows = Resp.find("rows");
  ASSERT_TRUE(Rows && Rows->isArray() && Rows->items().size() == 3);
  const Json *RowErr = Rows->items()[2].find("error");
  ASSERT_NE(RowErr, nullptr);
  EXPECT_NE(RowErr->asString(), "");

  // Second batch on the same connection reuses the pooled session.
  Json Again = C.call(solveRequest(Fixture, {"ERR"}));
  ASSERT_TRUE(okOf(Again));
  EXPECT_EQ(verdictOf(Again, 0), "YES");
  Json Stats = C.call(R"({"op":"stats"})");
  const Json *Pool = Stats.find("pool");
  ASSERT_NE(Pool, nullptr);
  EXPECT_EQ(Pool->find("opens")->asNumber(), 1.0);
  EXPECT_EQ(Pool->find("hits")->asNumber(), 1.0);
}

TEST(ServerTest, WitnessComesBackWithTheVerdict) {
  TestServer T;
  Client C(T.S.port());
  Json Resp = C.call(solveRequest(Fixture, {"ERR"}, /*Witness=*/true));
  ASSERT_TRUE(okOf(Resp)) << errorOf(Resp);
  EXPECT_EQ(verdictOf(Resp, 0), "YES");
  const Json *Rows = Resp.find("rows");
  ASSERT_TRUE(Rows && Rows->isArray() && !Rows->items().empty());
  const Json *W = Rows->items()[0].find("witness");
  ASSERT_NE(W, nullptr);
  EXPECT_NE(W->asString(), "");
}

TEST(ServerTest, MalformedInputIsAnErrorResponseNotACrash) {
  TestServer T;
  Client C(T.S.port());

  // Each bad line gets {"ok":false}; the connection must stay usable.
  for (const char *Bad :
       {"this is not json", "{\"op\":\"frobnicate\"}", "{\"op\":42}",
        "{\"op\":\"solve\"}",
        "{\"op\":\"solve\",\"program\":\"x\",\"source\":\"y\","
        "\"targets\":[\"ERR\"]}",
        "{\"op\":\"solve\",\"source\":\"main() begin end\","
        "\"targets\":\"ERR\"}",
        "[1,2,3]", "{\"op\":\"solve\",\"source\":\"x\",\"targets\":[]}"}) {
    Json Resp = C.call(Bad);
    EXPECT_FALSE(okOf(Resp)) << Bad;
    EXPECT_NE(errorOf(Resp), "") << Bad;
  }
  EXPECT_TRUE(okOf(C.call(R"({"op":"ping"})")));
}

TEST(ServerTest, UnparsableProgramAndMissingFileAreErrors) {
  TestServer T;
  Client C(T.S.port());

  Json Resp = C.call(solveRequest("not a boolean program", {"ERR"}));
  EXPECT_FALSE(okOf(Resp));
  EXPECT_NE(errorOf(Resp).find("open failed"), std::string::npos);

  Json Missing = C.call(R"({"op":"solve","program":"/nonexistent/x.bp",)"
                        R"("targets":["ERR"]})");
  EXPECT_FALSE(okOf(Missing));
  EXPECT_NE(errorOf(Missing), "");

  // Failures must not poison the server.
  EXPECT_EQ(verdictOf(C.call(solveRequest(Fixture, {"ERR"})), 0), "YES");
}

//===----------------------------------------------------------------------===//
// Pooling across connections, evict verb
//===----------------------------------------------------------------------===//

TEST(ServerTest, FileProgramsPoolAndEvictByPath) {
  // A real file, so the evict verb can address the session by path.
  std::string Path =
      ::testing::TempDir() + "/getafixd_server_test_fixture.bp";
  {
    std::ofstream F(Path);
    ASSERT_TRUE(F.good());
    F << Fixture;
  }

  TestServer T;
  Client C(T.S.port());
  std::string Solve = std::string(R"({"op":"solve","program":")") + Path +
                      R"(","targets":["ERR","SAFE"]})";

  Json First = C.call(Solve);
  ASSERT_TRUE(okOf(First)) << errorOf(First);
  EXPECT_EQ(verdictOf(First, 0), "YES");
  EXPECT_EQ(verdictOf(First, 1), "NO");
  EXPECT_FALSE(First.find("reopened")->asBool());

  Json Evict = C.call(std::string(R"({"op":"evict","program":")") + Path +
                      R"("})");
  ASSERT_TRUE(okOf(Evict));
  EXPECT_EQ(Evict.find("evicted")->asNumber(), 1.0);

  // Same path solves again, transparently reopened, same verdicts.
  Json Second = C.call(Solve);
  ASSERT_TRUE(okOf(Second));
  EXPECT_TRUE(Second.find("reopened")->asBool());
  EXPECT_EQ(verdictOf(Second, 0), "YES");
  EXPECT_EQ(verdictOf(Second, 1), "NO");

  std::remove(Path.c_str());
}

TEST(ServerTest, WarmRequestMarksOnlyItsOwnSessionOnce) {
  // What a served request costs must follow its answer, not the pool: a
  // warm single-target request samples its own session's gauges once —
  // one mark pass per manager the session owns, and the fixture's
  // sequential session owns one — and walks no other session's node
  // table. The response's session fields, the lease release, and the
  // budget scan over every resident session all read that sample.
  ServerOptions Opts;
  Opts.Pool.MemoryBudgetBytes = size_t(1) << 30; // Scanned, never tripped.
  TestServer T(Opts);
  Client C(T.S.port());
  gen::DriverParams P;
  P.NumProcs = 6;
  P.Reachable = true;
  std::string Other = gen::driverProgram(P).Source;
  ASSERT_TRUE(okOf(C.call(solveRequest(Fixture, {"ERR", "SAFE"}))));
  ASSERT_TRUE(okOf(C.call(solveRequest(Other, {"ERR"}))));

  uint64_t Before = BddManager::markPasses();
  Json Resp = C.call(solveRequest(Fixture, {"ERR"}));
  uint64_t Marks = BddManager::markPasses() - Before;
  ASSERT_TRUE(okOf(Resp)) << errorOf(Resp);
  EXPECT_EQ(verdictOf(Resp, 0), "YES");
  EXPECT_LE(Marks, 1u);

  // The sample the fields read is the session's current state.
  const Json *Session = Resp.find("session");
  ASSERT_NE(Session, nullptr);
  EXPECT_GT(Session->find("live_nodes")->asNumber(), 0.0);
  EXPECT_GE(Session->find("peak_live_nodes")->asNumber(),
            Session->find("live_nodes")->asNumber());
  EXPECT_GT(Session->find("footprint_bytes")->asNumber(), 0.0);
  Json Stats = C.call(R"({"op":"stats"})");
  const Json *Pool = Stats.find("pool");
  ASSERT_NE(Pool, nullptr);
  EXPECT_EQ(Pool->find("resident_sessions")->asNumber(), 2.0);
  EXPECT_GT(Pool->find("footprint_bytes")->asNumber(),
            Session->find("footprint_bytes")->asNumber());
}

//===----------------------------------------------------------------------===//
// Concurrency
//===----------------------------------------------------------------------===//

TEST(ServerTest, ConcurrentClientsGetIdenticalVerdicts) {
  ServerOptions Opts;
  Opts.Workers = 4;
  TestServer T(Opts);

  const unsigned NumClients = 4, Rounds = 3;
  std::vector<std::thread> Threads;
  std::vector<int> Failures(NumClients, 0);
  for (unsigned I = 0; I < NumClients; ++I)
    Threads.emplace_back([&T, &Failures, I] {
      Client C(T.S.port());
      if (!C.connected()) {
        ++Failures[I];
        return;
      }
      for (unsigned R = 0; R < Rounds; ++R) {
        Json Resp = C.call(solveRequest(Fixture, {"ERR", "SAFE"}));
        if (!okOf(Resp) || verdictOf(Resp, 0) != "YES" ||
            verdictOf(Resp, 1) != "NO")
          ++Failures[I];
      }
    });
  for (std::thread &Th : Threads)
    Th.join();
  for (unsigned I = 0; I < NumClients; ++I)
    EXPECT_EQ(Failures[I], 0) << "client " << I;

  // All clients shared one pooled session of the one program.
  Client C(T.S.port());
  Json Stats = C.call(R"({"op":"stats"})");
  const Json *Pool = Stats.find("pool");
  ASSERT_NE(Pool, nullptr);
  EXPECT_EQ(Pool->find("opens")->asNumber(), 1.0);
  EXPECT_EQ(Pool->find("resident_sessions")->asNumber(), 1.0);
}

//===----------------------------------------------------------------------===//
// Shutdown
//===----------------------------------------------------------------------===//

TEST(ServerTest, ShutdownVerbStopsTheServer) {
  Server S((ServerOptions()));
  std::string Err;
  ASSERT_TRUE(S.start(&Err)) << Err;

  {
    Client C(S.port());
    Json Resp = C.call(R"({"op":"shutdown"})");
    EXPECT_TRUE(okOf(Resp)); // The response flushes before the stop.
  }
  S.wait(); // Must return: workers drain and exit.
  EXPECT_TRUE(S.stopping());

  // New connections are refused once the listener is down.
  std::string ConnErr;
  support::Socket Refused =
      support::connectTcp("127.0.0.1", S.port(), &ConnErr);
  EXPECT_FALSE(Refused.valid());
}

TEST(ServerTest, SignalNotifyDrainsAndStops) {
  // The SIGINT/SIGTERM path minus the actual signal: the handler's only
  // action is notifyShutdownFromSignal(), so driving that directly
  // exercises the self-pipe wakeup, the drain, and the join.
  Server S((ServerOptions()));
  std::string Err;
  ASSERT_TRUE(S.start(&Err)) << Err;

  Client C(S.port());
  ASSERT_TRUE(okOf(C.call(solveRequest(Fixture, {"ERR"}))));

  std::thread Waiter([&S] { S.wait(); });
  S.notifyShutdownFromSignal();
  Waiter.join(); // Must return promptly; a hang here fails via timeout.
  EXPECT_TRUE(S.stopping());
}

//===----------------------------------------------------------------------===//
// Resource limits and fault containment
//===----------------------------------------------------------------------===//

TEST(ServerTest, TimeoutRequestYieldsStructuredLimitRowThenResumes) {
  TestServer T;
  Client C(T.S.port());
  ASSERT_TRUE(C.connected());

  // The bluetooth model takes well over a millisecond to solve, so a 1ms
  // per-request deadline deterministically stops at a round boundary.
  std::string Src = gen::bluetoothModel(2, 2);
  Json Req = Json::object()
                 .set("op", Json::str("solve"))
                 .set("source", Json::str(Src))
                 .set("timeout_ms", Json::number(1));
  Json Ts = Json::array();
  Ts.add(Json::str("ERR"));
  Req.set("targets", std::move(Ts));

  Json Resp = C.call(Req.dump());
  ASSERT_TRUE(okOf(Resp)) << errorOf(Resp);
  const Json *Rows = Resp.find("rows");
  ASSERT_NE(Rows, nullptr);
  ASSERT_EQ(Rows->items().size(), 1u);
  const Json *Status = Rows->items()[0].find("status");
  ASSERT_NE(Status, nullptr);
  EXPECT_EQ(Status->asString(), "hit_deadline");
  EXPECT_NE(Rows->items()[0].find("error"), nullptr);
  // A limit stop is a row, never a verdict.
  EXPECT_EQ(verdictOf(Resp, 0), "<missing>");

  // The same session retried without a deadline resumes and answers.
  Json Retry = C.call(solveRequest(Src, {"ERR"}));
  ASSERT_TRUE(okOf(Retry)) << errorOf(Retry);
  EXPECT_EQ(verdictOf(Retry, 0), "NO");

  Json Stats = C.call(R"({"op":"stats"})");
  ASSERT_TRUE(okOf(Stats));
  const Json *Srv = Stats.find("server");
  ASSERT_NE(Srv, nullptr);
  const Json *LimitStops = Srv->find("limit_stops");
  ASSERT_NE(LimitStops, nullptr);
  EXPECT_GE(LimitStops->asNumber(), 1.0);
}

TEST(ServerTest, InjectedOomIsContainedSessionEvictedDaemonServesOn) {
  TestServer T;
  Client C(T.S.port());
  ASSERT_TRUE(C.connected());

  // Arm deterministic allocation failure; the session's BddManager reads
  // the variable when the pool opens it during this request.
  ::setenv("GETAFIX_FAULT_ALLOC_AFTER", "50", 1);
  Json Resp = C.call(solveRequest(Fixture, {"ERR"}));
  ::unsetenv("GETAFIX_FAULT_ALLOC_AFTER");

  EXPECT_FALSE(okOf(Resp));
  EXPECT_NE(errorOf(Resp).find("session evicted"), std::string::npos)
      << errorOf(Resp);

  // The daemon is still serving: ping answers, and the same program
  // reopens cleanly now that the fault is unarmed.
  EXPECT_TRUE(okOf(C.call(R"({"op":"ping"})")));
  Json Retry = C.call(solveRequest(Fixture, {"ERR"}));
  ASSERT_TRUE(okOf(Retry)) << errorOf(Retry);
  EXPECT_EQ(verdictOf(Retry, 0), "YES");

  Json Stats = C.call(R"({"op":"stats"})");
  ASSERT_TRUE(okOf(Stats));
  const Json *Srv = Stats.find("server");
  ASSERT_NE(Srv, nullptr);
  const Json *Contained = Srv->find("contained_faults");
  ASSERT_NE(Contained, nullptr);
  EXPECT_GE(Contained->asNumber(), 1.0);
  const Json *Pool = Stats.find("pool");
  ASSERT_NE(Pool, nullptr);
  const Json *Poisoned = Pool->find("poisoned_evictions");
  ASSERT_NE(Poisoned, nullptr);
  EXPECT_GE(Poisoned->asNumber(), 1.0);
}
