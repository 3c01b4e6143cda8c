//===- WitnessTest.cpp - Counterexample extraction tests ------------------===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for witness (counterexample) extraction: every reachable target
/// must yield a trace that the *explicit* replay verifier accepts, across
/// hand-written programs, the regression suite, and random driver-shaped
/// programs. The verifier itself is pinned by tamper tests: corrupted
/// traces must be rejected with a useful message.
///
//===----------------------------------------------------------------------===//

#include "bp/Cfg.h"
#include "bp/Parser.h"
#include "gen/Workloads.h"
#include "reach/Witness.h"

#include <gtest/gtest.h>

using namespace getafix;
using namespace getafix::reach;

namespace {

struct Parsed {
  std::unique_ptr<bp::Program> Prog;
  bp::ProgramCfg Cfg;
};

Parsed parse(const std::string &Src) {
  DiagnosticEngine Diags;
  Parsed P;
  P.Prog = bp::parseProgram(Src, Diags);
  EXPECT_TRUE(P.Prog != nullptr) << Diags.str() << "\nsource:\n" << Src;
  if (!P.Prog)
    P.Prog = bp::parseProgram("main() begin end", Diags);
  P.Cfg = bp::buildCfg(*P.Prog);
  return P;
}

/// Runs extraction for `Label` under the default configuration.
WitnessResult extract(const Parsed &P, const std::string &Label) {
  unsigned ProcId = 0, Pc = 0;
  EXPECT_TRUE(P.Cfg.findLabelPc(Label, ProcId, Pc)) << Label;
  return checkReachabilityWithWitness(P.Cfg, ProcId, Pc, sym::SolveConfig());
}

/// Runs extraction for `Label` and, when reachable, demands a verified
/// trace. Returns the result for additional assertions.
WitnessResult extractAndVerify(const Parsed &P, const std::string &Label) {
  WitnessResult R = extract(P, Label);
  if (!R.Reachable)
    return R;
  unsigned ProcId = 0, Pc = 0;
  EXPECT_TRUE(P.Cfg.findLabelPc(Label, ProcId, Pc));
  std::string Error;
  EXPECT_TRUE(verifyWitness(P.Cfg, R.Steps, ProcId, Pc, &Error))
      << Error << "\n"
      << formatWitness(P.Cfg, R.Steps);
  return R;
}

} // namespace

//===----------------------------------------------------------------------===//
// Hand-written programs
//===----------------------------------------------------------------------===//

TEST(WitnessTest, StraightLineTrace) {
  auto P = parse(R"(
decl g;
main() begin
  g := T;
  g := !g;
  ERR: skip;
  return;
end
)");
  WitnessResult R = extractAndVerify(P, "ERR");
  ASSERT_TRUE(R.Reachable);
  // Init plus one step per statement before the label.
  ASSERT_GE(R.Steps.size(), 3u);
  EXPECT_EQ(R.Steps.front().Kind, WitnessStepKind::Init);
  for (size_t I = 1; I < R.Steps.size(); ++I)
    EXPECT_EQ(R.Steps[I].Kind, WitnessStepKind::Internal);
  // g := T; g := !g leaves g == false at the target.
  EXPECT_EQ(R.Steps.back().Globals & 1, 0u);
}

TEST(WitnessTest, UnreachableTargetYieldsNoTrace) {
  auto P = parse(R"(
decl g;
main() begin
  g := T;
  if (!g) then ERR: skip; else skip; fi
  return;
end
)");
  WitnessResult R = extract(P, "ERR");
  EXPECT_FALSE(R.Reachable);
  EXPECT_TRUE(R.Steps.empty());
}

TEST(WitnessTest, CallAndReturnStructure) {
  auto P = parse(R"(
decl g;
main() begin
  decl a;
  a := flip(g);
  if (a) then ERR: skip; else skip; fi
  return;
end
flip(x) begin
  return !x;
end
)");
  WitnessResult R = extractAndVerify(P, "ERR");
  ASSERT_TRUE(R.Reachable);
  unsigned Calls = 0, Returns = 0;
  for (const WitnessStep &S : R.Steps) {
    Calls += S.Kind == WitnessStepKind::Call;
    Returns += S.Kind == WitnessStepKind::Return;
  }
  EXPECT_EQ(Calls, 1u);
  EXPECT_EQ(Returns, 1u);
}

TEST(WitnessTest, RecursiveDescentTrace) {
  // parity(n) over a 3-bit counter encoded with booleans: the target needs
  // recursion three levels deep.
  auto P = parse(R"(
decl g0, g1;
main() begin
  g0, g1 := T, T;
  call down();
  return;
end
down() begin
  if (g0) then
    g0 := F;
    call down();
  else
    if (g1) then
      g0, g1 := T, F;
      call down();
    else
      ERR: skip;
    fi
  fi
  return;
end
)");
  WitnessResult R = extractAndVerify(P, "ERR");
  ASSERT_TRUE(R.Reachable);
  unsigned Calls = 0;
  for (const WitnessStep &S : R.Steps)
    Calls += S.Kind == WitnessStepKind::Call;
  EXPECT_GE(Calls, 3u) << formatWitness(P.Cfg, R.Steps);
}

TEST(WitnessTest, TargetInsideCalleeNeedsEntryChain) {
  // The target label is inside a callee two calls deep; the extractor must
  // reconstruct the call chain from main.
  auto P = parse(R"(
decl g;
main() begin
  call outer();
  return;
end
outer() begin
  call inner();
  return;
end
inner() begin
  skip;
  ERR: skip;
  return;
end
)");
  WitnessResult R = extractAndVerify(P, "ERR");
  ASSERT_TRUE(R.Reachable);
  unsigned Calls = 0;
  for (const WitnessStep &S : R.Steps)
    Calls += S.Kind == WitnessStepKind::Call;
  EXPECT_EQ(Calls, 2u);
  // The trace ends inside `inner` without returning.
  EXPECT_EQ(R.Steps.back().Kind, WitnessStepKind::Internal);
}

TEST(WitnessTest, TargetAtCalleeEntryEndsWithCallStep) {
  auto P = parse(R"(
decl g;
main() begin
  call sub();
  return;
end
sub() begin
  ERR: skip;
  return;
end
)");
  WitnessResult R = extractAndVerify(P, "ERR");
  ASSERT_TRUE(R.Reachable);
  EXPECT_EQ(R.Steps.back().Kind, WitnessStepKind::Call);
  EXPECT_EQ(R.Steps.back().Pc, 0u);
}

TEST(WitnessTest, NondeterministicChoicesAreResolved) {
  auto P = parse(R"(
decl g;
main() begin
  decl a, b;
  a := *;
  b := *;
  if (a & !b) then ERR: skip; else skip; fi
  return;
end
)");
  WitnessResult R = extractAndVerify(P, "ERR");
  ASSERT_TRUE(R.Reachable);
  // The verified trace must have picked a=1, b=0 before the branch.
  const WitnessStep &Last = R.Steps.back();
  EXPECT_EQ(Last.Locals & 0b11, 0b01u);
}

TEST(WitnessTest, MultiValueReturnsInTrace) {
  auto P = parse(R"(
decl g;
main() begin
  decl a, b;
  a, b := pair(T);
  if (a & b) then ERR: skip; else skip; fi
  return;
end
pair(x) begin
  return x, x;
end
)");
  WitnessResult R = extractAndVerify(P, "ERR");
  ASSERT_TRUE(R.Reachable);
}

TEST(WitnessTest, WhileLoopUnrollsInTrace) {
  // The loop must run until the nondeterministic exit; the witness picks
  // a concrete number of iterations.
  auto P = parse(R"(
decl g;
main() begin
  decl stop;
  stop := F;
  g := F;
  while (!stop) do
    g := !g;
    stop := *;
  od
  if (g) then ERR: skip; else skip; fi
  return;
end
)");
  WitnessResult R = extractAndVerify(P, "ERR");
  ASSERT_TRUE(R.Reachable);
}

//===----------------------------------------------------------------------===//
// Verifier tamper tests
//===----------------------------------------------------------------------===//

namespace {

/// Fixture providing one known-good trace to corrupt.
class TamperTest : public ::testing::Test {
protected:
  void SetUp() override {
    // flip(T) returns false, so the !a branch is the reachable one.
    P = parse(R"(
decl g;
main() begin
  decl a;
  g := T;
  a := flip(g);
  if (!a) then ERR: skip; else skip; fi
  return;
end
flip(x) begin
  return !x;
end
)");
    Result = extract(P, "ERR");
    ASSERT_TRUE(Result.Reachable);
    ASSERT_TRUE(P.Cfg.findLabelPc("ERR", TargetProc, TargetPc));
    std::string Error;
    ASSERT_TRUE(
        verifyWitness(P.Cfg, Result.Steps, TargetProc, TargetPc, &Error))
        << Error;
  }

  Parsed P;
  WitnessResult Result;
  unsigned TargetProc = 0, TargetPc = 0;
};

} // namespace

TEST_F(TamperTest, RejectsCorruptedValuation) {
  auto Steps = Result.Steps;
  Steps.back().Globals ^= 1;
  std::string Error;
  EXPECT_FALSE(verifyWitness(P.Cfg, Steps, TargetProc, TargetPc, &Error));
  EXPECT_FALSE(Error.empty());
}

TEST_F(TamperTest, RejectsDroppedStep) {
  ASSERT_GE(Result.Steps.size(), 3u);
  auto Steps = Result.Steps;
  Steps.erase(Steps.begin() + 1);
  EXPECT_FALSE(verifyWitness(P.Cfg, Steps, TargetProc, TargetPc));
}

TEST_F(TamperTest, RejectsWrongTarget) {
  EXPECT_FALSE(
      verifyWitness(P.Cfg, Result.Steps, TargetProc, TargetPc + 1));
}

TEST_F(TamperTest, RejectsEmptyTrace) {
  EXPECT_FALSE(verifyWitness(P.Cfg, {}, TargetProc, TargetPc));
}

TEST_F(TamperTest, RejectsTraceNotStartingAtInit) {
  auto Steps = Result.Steps;
  Steps.front().Kind = WitnessStepKind::Internal;
  EXPECT_FALSE(verifyWitness(P.Cfg, Steps, TargetProc, TargetPc));
}

TEST_F(TamperTest, RejectsReturnWithoutCall) {
  auto Steps = Result.Steps;
  for (WitnessStep &S : Steps)
    if (S.Kind == WitnessStepKind::Call)
      S.Kind = WitnessStepKind::Internal;
  EXPECT_FALSE(verifyWitness(P.Cfg, Steps, TargetProc, TargetPc));
}

//===----------------------------------------------------------------------===//
// Formatting
//===----------------------------------------------------------------------===//

TEST(WitnessTest, FormatMentionsLabelsAndProcedures) {
  auto P = parse(R"(
decl g;
main() begin
  call sub();
  return;
end
sub() begin
  ERR: skip;
  return;
end
)");
  WitnessResult R = extractAndVerify(P, "ERR");
  ASSERT_TRUE(R.Reachable);
  std::string Text = formatWitness(P.Cfg, R.Steps);
  EXPECT_NE(Text.find("main"), std::string::npos);
  EXPECT_NE(Text.find("sub"), std::string::npos);
  EXPECT_NE(Text.find("(ERR)"), std::string::npos);
  EXPECT_NE(Text.find("init"), std::string::npos);
  EXPECT_NE(Text.find("call"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Sweeps: regression suite and random drivers
//===----------------------------------------------------------------------===//

namespace {

class RegressionWitnessTest : public ::testing::TestWithParam<size_t> {};
class DriverWitnessTest : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(RegressionWitnessTest, EveryReachableCaseHasAVerifiedTrace) {
  gen::Workload W = gen::regressionSuite()[GetParam()];
  auto P = parse(W.Source);
  WitnessResult R = extractAndVerify(P, W.TargetLabel);
  if (W.ExpectKnown) {
    EXPECT_EQ(R.Reachable, W.ExpectReachable) << W.Name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Suite, RegressionWitnessTest,
    ::testing::Range(size_t(0), gen::regressionSuite().size()));

TEST_P(DriverWitnessTest, RandomDriversYieldVerifiedTraces) {
  gen::DriverParams DP;
  DP.NumProcs = 5;
  DP.NumGlobals = 3;
  DP.LocalsPerProc = 2;
  DP.StmtsPerProc = 6;
  DP.Reachable = true;
  DP.Seed = GetParam();
  gen::Workload W = gen::driverProgram(DP);
  auto P = parse(W.Source);
  WitnessResult R = extractAndVerify(P, W.TargetLabel);
  EXPECT_TRUE(R.Reachable) << W.Name;
  EXPECT_FALSE(R.Steps.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DriverWitnessTest,
                         ::testing::Range(uint64_t(1), uint64_t(9)));

//===----------------------------------------------------------------------===//
// Pinned trace: the served terminator witness
//===----------------------------------------------------------------------===//

namespace {

/// FNV-1a over every field of every step.
uint64_t stepsHash(const std::vector<WitnessStep> &Steps) {
  uint64_t H = 0xcbf29ce484222325ull;
  auto Mix = [&H](uint64_t V) {
    for (unsigned B = 0; B < 8; ++B) {
      H ^= (V >> (8 * B)) & 0xff;
      H *= 0x100000001b3ull;
    }
  };
  for (const WitnessStep &S : Steps) {
    Mix(uint64_t(S.Kind));
    Mix(S.ProcId);
    Mix(S.Pc);
    Mix(S.Locals);
    Mix(S.Globals);
  }
  return H;
}

} // namespace

TEST(WitnessTest, ServedTerminatorTraceIsPinned) {
  // The 5-bit reachable terminator's ERR trace, the witness the serving
  // benchmark requests, walks back through about a thousand rings, so it
  // runs the rank query at every step. Length and step hash were taken
  // with the rank query still conjoining each ring piece with the tuple;
  // a rank lookup that answered differently would pick other
  // predecessors and move the hash.
  gen::TerminatorParams TP;
  TP.CounterBits = 5;
  TP.Reachable = true;
  gen::Workload W = gen::terminatorProgram(TP);
  auto P = parse(W.Source);
  WitnessResult R = extractAndVerify(P, "ERR");
  ASSERT_TRUE(R.Reachable);
  EXPECT_EQ(R.Steps.size(), 1079u);
  EXPECT_EQ(stepsHash(R.Steps), 0xd91d722d327e2452ull);
}
