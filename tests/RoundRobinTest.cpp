//===- RoundRobinTest.cpp - Round-robin scheduling tests ------------------===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the round-robin variant of bounded context-switching (the
/// Section-5 closing remark's setting, also Lal–Reps'): the symbolic
/// engine under the fixed schedule must agree with the explicit oracle
/// restricted the same way, round-robin reachability must imply
/// free-schedule reachability, and schedules that free switching exploits
/// but round-robin forbids must separate the two.
///
//===----------------------------------------------------------------------===//

#include "api/Solver.h"
#include "bp/Parser.h"
#include "concurrent/ConcReach.h"
#include "interp/ConcurrentOracle.h"

#include <gtest/gtest.h>

using namespace getafix;

namespace {

struct ParsedConc {
  std::unique_ptr<bp::ConcurrentProgram> Conc;
  std::vector<bp::ProgramCfg> Cfgs;
};

ParsedConc parseConc(const std::string &Src) {
  DiagnosticEngine Diags;
  ParsedConc P;
  P.Conc = bp::parseConcurrentProgram(Src, Diags);
  EXPECT_TRUE(P.Conc != nullptr) << Diags.str() << "\nsource:\n" << Src;
  if (P.Conc)
    P.Cfgs = conc::buildThreadCfgs(*P.Conc);
  return P;
}

/// Two threads passing a token: thread 0 raises h0 and hands the turn to
/// thread 1, which acknowledges with h1; thread 0 reports ERR once it sees
/// the acknowledgement. Thread 0 must be active again after thread 1 ran,
/// so round-robin needs two switches (t0, t1, t0).
const char *TokenRing = R"(
shared decl turn, h0, h1;
thread
main() begin
  while (T) do
    if (!turn) then
      h0 := T;
      turn := T;
    else
      skip;
    fi
    if (h1) then
      ERR: skip;
    else
      skip;
    fi
  od
end
end
thread
main() begin
  while (T) do
    if (turn & h0) then
      h1 := T;
      turn := F;
    else
      skip;
    fi
  od
end
end
)";

/// Three threads: thread 0 raises a flag, thread 2 reports it. Free
/// scheduling reaches ERR with one switch (0 -> 2); round-robin needs two
/// (0 -> 1 -> 2).
const char *ThreeHop = R"(
shared decl flag;
thread
main() begin
  flag := T;
end
end
thread
main() begin
  skip;
end
end
thread
main() begin
  if (flag) then ERR: skip; else skip; fi
end
end
)";

bool symbolic(const ParsedConc &P, const std::string &Label, unsigned K,
              bool RoundRobin) {
  SolverOptions Opts;
  Opts.Engine = "conc";
  Opts.ContextBound = K;
  Opts.RoundRobin = RoundRobin;
  SolveResult R = Solver::solve(
      Query::fromConcurrent(*P.Conc, &P.Cfgs).target(Label), Opts);
  EXPECT_TRUE(R.ok()) << R.Error;
  return R.Reachable;
}

bool oracle(const ParsedConc &P, const std::string &Label, unsigned K,
            bool RoundRobin) {
  for (unsigned T = 0; T < P.Conc->numThreads(); ++T) {
    interp::ConcurrentQuery Q;
    if (!P.Cfgs[T].findLabelPc(Label, Q.ProcId, Q.Pc))
      continue;
    Q.Thread = T;
    Q.MaxContextSwitches = K;
    Q.RoundRobin = RoundRobin;
    auto R = interp::concurrentReachability(*P.Conc, P.Cfgs, Q);
    EXPECT_TRUE(R.Exhaustive) << "oracle hit a bound";
    return R.Reachable;
  }
  ADD_FAILURE() << "label not found: " << Label;
  return false;
}

} // namespace

TEST(RoundRobinTest, ContextSwitchesForRounds) {
  EXPECT_EQ(conc::contextSwitchesForRounds(1, 2), 1u);
  EXPECT_EQ(conc::contextSwitchesForRounds(2, 2), 3u);
  EXPECT_EQ(conc::contextSwitchesForRounds(1, 4), 3u);
  EXPECT_EQ(conc::contextSwitchesForRounds(3, 3), 8u);
  EXPECT_EQ(conc::contextSwitchesForRounds(5, 1), 4u);
  // Zero arguments clamp to one round/thread instead of underflowing to
  // ~4 billion context switches (the old NDEBUG behavior).
  EXPECT_EQ(conc::contextSwitchesForRounds(0, 2), 1u);
  EXPECT_EQ(conc::contextSwitchesForRounds(2, 0), 1u);
  EXPECT_EQ(conc::contextSwitchesForRounds(0, 0), 0u);
}

TEST(RoundRobinTest, ThreeHopSeparatesSchedules) {
  auto P = parseConc(ThreeHop);
  ASSERT_TRUE(P.Conc != nullptr);

  // Free scheduling: switch straight from thread 0 to thread 2.
  EXPECT_TRUE(symbolic(P, "ERR", 1, /*RoundRobin=*/false));
  // Round-robin must pass through thread 1 first.
  EXPECT_FALSE(symbolic(P, "ERR", 1, /*RoundRobin=*/true));
  EXPECT_TRUE(symbolic(P, "ERR", 2, /*RoundRobin=*/true));
}

TEST(RoundRobinTest, TokenRingThreshold) {
  auto P = parseConc(TokenRing);
  ASSERT_TRUE(P.Conc != nullptr);

  EXPECT_FALSE(symbolic(P, "ERR", 1, /*RoundRobin=*/true));
  EXPECT_TRUE(symbolic(P, "ERR", 2, /*RoundRobin=*/true));
}

namespace {

/// (source, label, k) sweep comparing the round-robin symbolic engine to
/// the round-robin explicit oracle.
class RoundRobinDifferentialTest
    : public ::testing::TestWithParam<std::tuple<const char *, unsigned>> {};

} // namespace

TEST_P(RoundRobinDifferentialTest, SymbolicMatchesOracle) {
  auto [Src, K] = GetParam();
  auto P = parseConc(Src);
  ASSERT_TRUE(P.Conc != nullptr);

  bool Symbolic = symbolic(P, "ERR", K, /*RoundRobin=*/true);
  bool Explicit = oracle(P, "ERR", K, /*RoundRobin=*/true);
  EXPECT_EQ(Symbolic, Explicit) << "k=" << K;

  // Round-robin runs are a subset of free-schedule runs.
  if (Symbolic) {
    EXPECT_TRUE(symbolic(P, "ERR", K, /*RoundRobin=*/false));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Programs, RoundRobinDifferentialTest,
    ::testing::Combine(::testing::Values(TokenRing, ThreeHop),
                       ::testing::Values(0u, 1u, 2u, 3u, 4u)));

TEST(RoundRobinTest, SingleThreadRoundRobinEqualsSequential) {
  auto P = parseConc(R"(
shared decl g;
thread
main() begin
  g := T;
  if (g) then ERR: skip; else skip; fi
end
end
)");
  ASSERT_TRUE(P.Conc != nullptr);
  // One thread: every schedule is round-robin; switches are impossible.
  for (unsigned K = 0; K <= 2; ++K) {
    EXPECT_TRUE(symbolic(P, "ERR", K, /*RoundRobin=*/true)) << K;
    EXPECT_TRUE(symbolic(P, "ERR", K, /*RoundRobin=*/false)) << K;
  }
}

TEST(RoundRobinTest, FinishedThreadPassesItsContextThrough) {
  // Thread 0 finishes immediately; threads 1 and 2 must exchange two
  // messages (t1 raises a, t2 acknowledges with b, t1 reports ERR). The
  // second round-robin round must route through the finished thread 0:
  // t0(c0) t1(c1: a:=T) t2(c2: b:=T) t0(c3: finished no-op) t1(c4: ERR).
  auto P = parseConc(R"(
shared decl a, b;
thread
main() begin
  skip;
end
end
thread
main() begin
  while (T) do
    a := T;
    if (b) then ERR: skip; else skip; fi
  od
end
end
thread
main() begin
  while (T) do
    if (a) then b := T; else skip; fi
  od
end
end
)");
  ASSERT_TRUE(P.Conc != nullptr);
  EXPECT_FALSE(symbolic(P, "ERR", 3, /*RoundRobin=*/true));
  EXPECT_TRUE(symbolic(P, "ERR", 4, /*RoundRobin=*/true));
  EXPECT_EQ(oracle(P, "ERR", 4, /*RoundRobin=*/true), true);
  EXPECT_EQ(oracle(P, "ERR", 3, /*RoundRobin=*/true), false);
  // Free scheduling needs only two switches (t1, t2, t1).
  EXPECT_TRUE(symbolic(P, "ERR", 2, /*RoundRobin=*/false));
}
