//===- tests/InterpreterTest.cpp - execution semantics tests -------------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//

#include "aos/AdaptiveSystem.h"
#include "bytecode/Builder.h"
#include "bytecode/Verifier.h"
#include "experiments/Experiments.h"
#include "opt/InlineOracle.h"
#include "profiling/ProfileCodec.h"
#include "vm/VirtualMachine.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <set>

using namespace cbs;
using namespace cbs::bc;

namespace {

Program buildMain(const std::function<void(ProgramBuilder &, MethodBuilder &)>
                      &Fill) {
  ProgramBuilder PB;
  MethodId Main = PB.declareStatic("main");
  {
    MethodBuilder MB = PB.defineMethod(Main);
    Fill(PB, MB);
    MB.finish();
  }
  return PB.finish(Main);
}

/// Runs a verified program and returns its Print output.
std::vector<int64_t> runProgram(const Program &P,
                                vm::RunState Expected = vm::RunState::Finished) {
  VerifyResult V = verifyProgram(P);
  EXPECT_TRUE(V.ok()) << V.str();
  vm::VMConfig Config;
  Config.MaxCycles = 500'000'000;
  vm::VirtualMachine VM(P, Config);
  vm::RunState State = VM.run();
  EXPECT_EQ(State, Expected) << VM.trapMessage();
  return VM.output();
}

} // namespace

//===----------------------------------------------------------------------===//
// Arithmetic semantics (parameterized)
//===----------------------------------------------------------------------===//

struct BinopCase {
  BinopCase(Opcode Op, int64_t L, int64_t R, int64_t Expected)
      : Op(Op), L(L), R(R), Expected(Expected) {}

  Opcode Op;
  // gtest cannot print a BinopCase, so it names each case after the
  // parameter's raw bytes. Implicit padding after Op is copied as whatever
  // the stack held (at times a stack address, new on every run); spelled
  // out as zeroed bytes it keeps every case's name the same from run to run.
  uint8_t Pad[7] = {};
  int64_t L, R, Expected;
};
static_assert(sizeof(BinopCase) == 32, "BinopCase must have no padding");

class BinopTest : public ::testing::TestWithParam<BinopCase> {};

TEST_P(BinopTest, Evaluates) {
  const BinopCase &C = GetParam();
  Program P = buildMain([&](ProgramBuilder &, MethodBuilder &MB) {
    MB.iconst(C.L).iconst(C.R);
    switch (C.Op) {
    case Opcode::IAdd:
      MB.iadd();
      break;
    case Opcode::ISub:
      MB.isub();
      break;
    case Opcode::IMul:
      MB.imul();
      break;
    case Opcode::IDiv:
      MB.idiv();
      break;
    case Opcode::IRem:
      MB.irem();
      break;
    case Opcode::IAnd:
      MB.iand();
      break;
    case Opcode::IOr:
      MB.ior();
      break;
    case Opcode::IXor:
      MB.ixor();
      break;
    case Opcode::IShl:
      MB.ishl();
      break;
    case Opcode::IShr:
      MB.ishr();
      break;
    default:
      FAIL() << "unexpected opcode";
    }
    MB.print();
  });
  std::vector<int64_t> Out = runProgram(P);
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0], C.Expected);
}

INSTANTIATE_TEST_SUITE_P(
    Arithmetic, BinopTest,
    ::testing::Values(
        BinopCase{Opcode::IAdd, 2, 3, 5},
        BinopCase{Opcode::IAdd, INT32_MAX, 1, int64_t(INT32_MAX) + 1},
        BinopCase{Opcode::ISub, 2, 3, -1},
        BinopCase{Opcode::IMul, -4, 6, -24},
        BinopCase{Opcode::IDiv, 7, 2, 3},
        BinopCase{Opcode::IDiv, -7, 2, -3},
        BinopCase{Opcode::IRem, 7, 3, 1},
        BinopCase{Opcode::IRem, -7, 3, -1},
        BinopCase{Opcode::IAnd, 0b1100, 0b1010, 0b1000},
        BinopCase{Opcode::IOr, 0b1100, 0b1010, 0b1110},
        BinopCase{Opcode::IXor, 0b1100, 0b1010, 0b0110},
        BinopCase{Opcode::IShl, 3, 4, 48},
        BinopCase{Opcode::IShl, 1, 64, 1},   // count masked to 63
        BinopCase{Opcode::IShr, -16, 2, -4}, // arithmetic shift
        BinopCase{Opcode::IShr, 1024, 3, 128}));

TEST(Interpreter, NegationAndIncrement) {
  Program P = buildMain([](ProgramBuilder &, MethodBuilder &MB) {
    MB.iconst(5).ineg().print();
    MB.iconst(10).istore(0).iinc(0, -3).iload(0).print();
  });
  EXPECT_EQ(runProgram(P), (std::vector<int64_t>{-5, 7}));
}

//===----------------------------------------------------------------------===//
// Control flow
//===----------------------------------------------------------------------===//

TEST(Interpreter, CountedLoopSumsCorrectly) {
  Program P = buildMain([](ProgramBuilder &, MethodBuilder &MB) {
    // sum 1..100 == 5050
    MB.iconst(0).istore(1);
    MB.iconst(100).istore(0);
    Label Head = MB.newLabel(), Exit = MB.newLabel();
    MB.bind(Head).iload(0).ifLe(Exit);
    MB.iload(1).iload(0).iadd().istore(1);
    MB.iinc(0, -1).jump(Head);
    MB.bind(Exit).iload(1).print();
  });
  EXPECT_EQ(runProgram(P), (std::vector<int64_t>{5050}));
}

TEST(Interpreter, ConditionalFamiliesBranchCorrectly) {
  // For each condition opcode, print 1 when taken with operand -1, 0, 1.
  struct Case {
    std::function<MethodBuilder &(MethodBuilder &, Label)> Emit;
    int64_t Operand;
    bool Taken;
  };
  auto run = [&](auto EmitBranch, int64_t V) {
    Program P = buildMain([&](ProgramBuilder &, MethodBuilder &MB) {
      Label L = MB.newLabel();
      MB.iconst(V);
      EmitBranch(MB, L);
      MB.iconst(0).print().ret();
      MB.bind(L).iconst(1).print();
    });
    return runProgram(P)[0] == 1;
  };
  EXPECT_TRUE(run([](MethodBuilder &MB, Label L) { MB.ifEq(L); }, 0));
  EXPECT_FALSE(run([](MethodBuilder &MB, Label L) { MB.ifEq(L); }, 2));
  EXPECT_TRUE(run([](MethodBuilder &MB, Label L) { MB.ifNe(L); }, 2));
  EXPECT_TRUE(run([](MethodBuilder &MB, Label L) { MB.ifLt(L); }, -1));
  EXPECT_FALSE(run([](MethodBuilder &MB, Label L) { MB.ifLt(L); }, 0));
  EXPECT_TRUE(run([](MethodBuilder &MB, Label L) { MB.ifLe(L); }, 0));
  EXPECT_TRUE(run([](MethodBuilder &MB, Label L) { MB.ifGt(L); }, 1));
  EXPECT_TRUE(run([](MethodBuilder &MB, Label L) { MB.ifGe(L); }, 0));
}

TEST(Interpreter, CompareBranches) {
  auto run = [&](auto EmitBranch, int64_t L0, int64_t R0) {
    Program P = buildMain([&](ProgramBuilder &, MethodBuilder &MB) {
      Label L = MB.newLabel();
      MB.iconst(L0).iconst(R0);
      EmitBranch(MB, L);
      MB.iconst(0).print().ret();
      MB.bind(L).iconst(1).print();
    });
    return runProgram(P)[0] == 1;
  };
  EXPECT_TRUE(run([](MethodBuilder &MB, Label L) { MB.ifICmpEq(L); }, 4, 4));
  EXPECT_TRUE(run([](MethodBuilder &MB, Label L) { MB.ifICmpNe(L); }, 4, 5));
  EXPECT_TRUE(run([](MethodBuilder &MB, Label L) { MB.ifICmpLt(L); }, 3, 5));
  EXPECT_FALSE(run([](MethodBuilder &MB, Label L) { MB.ifICmpLt(L); }, 5, 5));
  EXPECT_TRUE(run([](MethodBuilder &MB, Label L) { MB.ifICmpGe(L); }, 5, 5));
}

//===----------------------------------------------------------------------===//
// Objects and fields
//===----------------------------------------------------------------------===//

TEST(Interpreter, FieldsStoreAndLoad) {
  Program P = buildMain([](ProgramBuilder &PB, MethodBuilder &MB) {
    ClassId C = PB.addClass("C", InvalidClassId, 2);
    MB.newObject(C).astore(0);
    MB.aload(0);
    MB.iconst(42);
    MB.putField(1);
    MB.aload(0).getField(1).print();
    MB.aload(0).getField(0).print(); // untouched field is zero
  });
  EXPECT_EQ(runProgram(P), (std::vector<int64_t>{42, 0}));
}

TEST(Interpreter, ClassEqIsExact) {
  Program P = buildMain([](ProgramBuilder &PB, MethodBuilder &MB) {
    ClassId Base = PB.addClass("Base", InvalidClassId, 0);
    ClassId Sub = PB.addClass("Sub", Base, 0);
    MB.newObject(Sub).classEq(Sub).print();  // 1
    MB.newObject(Sub).classEq(Base).print(); // 0: exact match only
    MB.aconstNull().classEq(Base).print();   // 0: null matches nothing
  });
  EXPECT_EQ(runProgram(P), (std::vector<int64_t>{1, 0, 0}));
}

//===----------------------------------------------------------------------===//
// Calls and dispatch
//===----------------------------------------------------------------------===//

TEST(Interpreter, StaticCallPassesArgsAndReturns) {
  ProgramBuilder PB;
  MethodId F = PB.declareStatic("f", {ValKind::Int, ValKind::Int},
                                /*HasResult=*/true);
  {
    MethodBuilder MB = PB.defineMethod(F);
    MB.iload(0).iload(1).isub().iret();
    MB.finish();
  }
  MethodId Main = PB.declareStatic("main");
  {
    MethodBuilder MB = PB.defineMethod(Main);
    MB.iconst(10).iconst(3).invokeStatic(F).print();
    MB.finish();
  }
  Program P = PB.finish(Main);
  EXPECT_EQ(runProgram(P), (std::vector<int64_t>{7}));
}

TEST(Interpreter, VirtualDispatchSelectsByReceiverClass) {
  ProgramBuilder PB;
  ClassId A = PB.addClass("A", InvalidClassId, 0);
  ClassId B = PB.addClass("B", A, 0);
  SelectorId Sel = PB.addSelector("tag", 1);
  MethodId MA = PB.declareVirtual(A, Sel, "", {}, /*HasResult=*/true);
  {
    MethodBuilder MB = PB.defineMethod(MA);
    MB.iconst(100).iret();
    MB.finish();
  }
  MethodId MB2 = PB.declareVirtual(B, Sel, "", {}, /*HasResult=*/true);
  {
    MethodBuilder MB = PB.defineMethod(MB2);
    MB.iconst(200).iret();
    MB.finish();
  }
  MethodId Main = PB.declareStatic("main");
  {
    MethodBuilder MB = PB.defineMethod(Main);
    MB.newObject(A).invokeVirtual(Sel).print();
    MB.newObject(B).invokeVirtual(Sel).print();
    MB.finish();
  }
  Program P = PB.finish(Main);
  EXPECT_EQ(runProgram(P), (std::vector<int64_t>{100, 200}));
}

TEST(Interpreter, InheritedMethodReceivesSubclassInstance) {
  ProgramBuilder PB;
  ClassId A = PB.addClass("A", InvalidClassId, 1);
  ClassId B = PB.addClass("B", A, 1);
  SelectorId Sel = PB.addSelector("firstField", 1);
  MethodId MA = PB.declareVirtual(A, Sel, "", {}, /*HasResult=*/true);
  {
    MethodBuilder MB = PB.defineMethod(MA);
    MB.aload(0).getField(0).iret();
    MB.finish();
  }
  MethodId Main = PB.declareStatic("main");
  {
    MethodBuilder MB = PB.defineMethod(Main);
    MB.newObject(B).astore(0);
    MB.aload(0).iconst(9).putField(0);
    MB.aload(0).invokeVirtual(Sel).print();
    MB.finish();
  }
  Program P = PB.finish(Main);
  EXPECT_EQ(runProgram(P), (std::vector<int64_t>{9}));
}

TEST(Interpreter, RecursionComputesFactorial) {
  ProgramBuilder PB;
  MethodId Fact = PB.declareStatic("fact", {ValKind::Int},
                                   /*HasResult=*/true);
  {
    MethodBuilder MB = PB.defineMethod(Fact);
    Label Base = MB.newLabel();
    MB.iload(0).iconst(1).ifICmpLt(Base);
    MB.iload(0).iload(0).iconst(1).isub().invokeStatic(Fact).imul().iret();
    MB.bind(Base).iconst(1).iret();
    MB.finish();
  }
  MethodId Main = PB.declareStatic("main");
  {
    MethodBuilder MB = PB.defineMethod(Main);
    MB.iconst(10).invokeStatic(Fact).print();
    MB.finish();
  }
  Program P = PB.finish(Main);
  EXPECT_EQ(runProgram(P), (std::vector<int64_t>{3628800}));
}

//===----------------------------------------------------------------------===//
// Traps
//===----------------------------------------------------------------------===//

TEST(Interpreter, DivisionByZeroTraps) {
  Program P = buildMain([](ProgramBuilder &, MethodBuilder &MB) {
    MB.iconst(1).iconst(0).idiv().print();
  });
  vm::VMConfig Config;
  vm::VirtualMachine VM(P, Config);
  EXPECT_EQ(VM.run(), vm::RunState::Trapped);
  EXPECT_NE(VM.trapMessage().find("division by zero"), std::string::npos);
}

TEST(Interpreter, RemainderByZeroTraps) {
  Program P = buildMain([](ProgramBuilder &, MethodBuilder &MB) {
    MB.iconst(1).iconst(0).irem().print();
  });
  vm::VMConfig Config;
  vm::VirtualMachine VM(P, Config);
  EXPECT_EQ(VM.run(), vm::RunState::Trapped);
}

TEST(Interpreter, NullFieldAccessTraps) {
  Program P = buildMain([](ProgramBuilder &PB, MethodBuilder &MB) {
    PB.addClass("C", InvalidClassId, 1);
    MB.aconstNull().getField(0).print();
  });
  vm::VMConfig Config;
  vm::VirtualMachine VM(P, Config);
  EXPECT_EQ(VM.run(), vm::RunState::Trapped);
  EXPECT_NE(VM.trapMessage().find("null"), std::string::npos);
}

TEST(Interpreter, FieldIndexOutOfRangeTraps) {
  Program P = buildMain([](ProgramBuilder &PB, MethodBuilder &MB) {
    ClassId C = PB.addClass("C", InvalidClassId, 1);
    MB.newObject(C).getField(5).print();
  });
  vm::VMConfig Config;
  vm::VirtualMachine VM(P, Config);
  EXPECT_EQ(VM.run(), vm::RunState::Trapped);
}

TEST(Interpreter, NullReceiverTraps) {
  ProgramBuilder PB;
  ClassId A = PB.addClass("A", InvalidClassId, 0);
  SelectorId Sel = PB.addSelector("m", 1);
  MethodId MA = PB.declareVirtual(A, Sel);
  {
    MethodBuilder MB = PB.defineMethod(MA);
    MB.finish();
  }
  MethodId Main = PB.declareStatic("main");
  {
    MethodBuilder MB = PB.defineMethod(Main);
    MB.aconstNull().invokeVirtual(Sel);
    MB.finish();
  }
  Program P = PB.finish(Main);
  vm::VMConfig Config;
  vm::VirtualMachine VM(P, Config);
  EXPECT_EQ(VM.run(), vm::RunState::Trapped);
}

TEST(Interpreter, DoesNotUnderstandTraps) {
  ProgramBuilder PB;
  ClassId A = PB.addClass("A", InvalidClassId, 0);
  ClassId B = PB.addClass("B", InvalidClassId, 0);
  SelectorId Sel = PB.addSelector("m", 1);
  MethodId MA = PB.declareVirtual(A, Sel);
  {
    MethodBuilder MB = PB.defineMethod(MA);
    MB.finish();
  }
  MethodId Main = PB.declareStatic("main");
  {
    MethodBuilder MB = PB.defineMethod(Main);
    MB.newObject(B).invokeVirtual(Sel); // B does not implement m.
    MB.finish();
  }
  Program P = PB.finish(Main);
  vm::VMConfig Config;
  vm::VirtualMachine VM(P, Config);
  EXPECT_EQ(VM.run(), vm::RunState::Trapped);
  EXPECT_NE(VM.trapMessage().find("does not understand"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Halting, limits, stats
//===----------------------------------------------------------------------===//

TEST(Interpreter, HaltStopsTheMachine) {
  Program P = buildMain([](ProgramBuilder &, MethodBuilder &MB) {
    MB.iconst(1).print().halt();
    MB.iconst(2).print(); // Unreachable.
  });
  vm::VMConfig Config;
  vm::VirtualMachine VM(P, Config);
  EXPECT_EQ(VM.run(), vm::RunState::Halted);
  EXPECT_EQ(VM.output(), (std::vector<int64_t>{1}));
}

TEST(Interpreter, MaxCyclesStopsInfiniteLoop) {
  Program P = buildMain([](ProgramBuilder &, MethodBuilder &MB) {
    Label Head = MB.newLabel();
    MB.bind(Head).work(100).jump(Head);
  });
  vm::VMConfig Config;
  Config.MaxCycles = 1'000'000;
  vm::VirtualMachine VM(P, Config);
  EXPECT_EQ(VM.run(), vm::RunState::CycleLimit);
  EXPECT_GE(VM.stats().Cycles, Config.MaxCycles);
}

TEST(Interpreter, CycleBudgetIsResumable) {
  Program P = buildMain([](ProgramBuilder &, MethodBuilder &MB) {
    MB.iconst(1000000).istore(0);
    Label Head = MB.newLabel(), Exit = MB.newLabel();
    MB.bind(Head).iload(0).ifLe(Exit);
    MB.work(50).iinc(0, -1).jump(Head);
    MB.bind(Exit).iconst(7).print();
  });
  vm::VMConfig Config;
  vm::VirtualMachine VM(P, Config);
  EXPECT_EQ(VM.run(1'000'000), vm::RunState::Running);
  while (VM.run(10'000'000) == vm::RunState::Running)
    ;
  EXPECT_EQ(VM.state(), vm::RunState::Finished);
  EXPECT_EQ(VM.output(), (std::vector<int64_t>{7}));
}

namespace {

/// Everything a run reports: the metrics registry and the encoded
/// profile.
struct RunOutputs {
  vm::RunState State = vm::RunState::Running;
  std::string Metrics;
  std::string Profile;
  uint64_t Recompiles = 0;
};

/// Runs \p P to completion under \p Config in slices of \p Slice
/// cycles (0: one unbounded run() call), with a fresh new-jikes
/// adaptive system attached when \p Adaptive.
RunOutputs runInSlices(const Program &P, const vm::VMConfig &Config,
                       bool Adaptive, uint64_t Slice) {
  opt::NewJikesOracle Oracle;
  std::optional<aos::AdaptiveSystem> AOS;
  vm::VirtualMachine VM(P, Config);
  if (Adaptive) {
    AOS.emplace(&Oracle);
    VM.setClient(&*AOS);
  }
  RunOutputs R;
  if (Slice == 0)
    R.State = VM.run();
  else
    while ((R.State = VM.run(Slice)) == vm::RunState::Running)
      ;
  R.Metrics = VM.metrics().toJson();
  R.Profile = prof::ProfileCodec::encode(VM.profile());
  R.Recompiles = VM.codeCache().numRecompiles();
  return R;
}

/// Checks that slices of 1, 7, 997 and 200000 cycles report exactly
/// what one run() call does; returns the whole run's outputs.
RunOutputs expectSlicingInvariant(const Program &P,
                                  const vm::VMConfig &Config, bool Adaptive) {
  RunOutputs Whole = runInSlices(P, Config, Adaptive, 0);
  EXPECT_EQ(Whole.State, vm::RunState::Finished);
  for (uint64_t Slice : {1ull, 7ull, 997ull, 200'000ull}) {
    RunOutputs Sliced = runInSlices(P, Config, Adaptive, Slice);
    EXPECT_EQ(Sliced.State, Whole.State) << "slice " << Slice;
    EXPECT_EQ(Sliced.Metrics, Whole.Metrics) << "slice " << Slice;
    EXPECT_EQ(Sliced.Profile, Whole.Profile) << "slice " << Slice;
  }
  return Whole;
}

} // namespace

// A budget break must leave the VM exactly where the next run() call
// picks up: the next-event compare, the counters held in locals and
// their write-back at every exit all sit on this path, so any drift
// shows up as a metrics or profile difference between a whole run and
// the same run cut into slices.
TEST(Interpreter, BudgetSlicingMatchesOneRun) {
  Program P = wl::buildJess(wl::InputSize::Small, 1);
  vm::VMConfig Config = exp::jitOnlyConfig(P, vm::Personality::JikesRVM, 1);
  Config.Profiler = exp::chosenCBS(vm::Personality::JikesRVM);
  expectSlicingInvariant(P, Config, /*Adaptive=*/false);
}

TEST(Interpreter, BudgetSlicingMatchesOneRunUnderAdaptiveSystem) {
  // Installs, deopt reconciliation and OSR transfers all charge cycles
  // inside out-of-line calls made from the dispatch loop.
  Program P = wl::buildJess(wl::InputSize::Large, 1);
  vm::VMConfig Config = exp::jitOnlyConfig(P, vm::Personality::JikesRVM, 1);
  Config.Profiler = exp::chosenCBS(vm::Personality::JikesRVM);
  Config.EnableOSR = true;
  RunOutputs Whole = expectSlicingInvariant(P, Config, /*Adaptive=*/true);
  EXPECT_GE(Whole.Recompiles, 10u)
      << "the run must recompile for the slices to cross installs";
}

namespace {

/// Forwards every hook to an adaptive system and, before and after each
/// one, checks the cost table of every active version against the cost
/// model. A version the VM compiles between two hooks is checked at the
/// next one; a version the adaptive system installs, right after.
class CostTableAudit : public vm::VMClient {
public:
  explicit CostTableAudit(vm::VMClient &Inner) : Inner(Inner) {}

  void onStartup(vm::VirtualMachine &VM) override {
    audit(VM);
    Inner.onStartup(VM);
    audit(VM);
  }
  void onTimerTick(vm::VirtualMachine &VM, MethodId Top) override {
    audit(VM);
    Inner.onTimerTick(VM, Top);
    audit(VM);
  }
  void onYieldpoint(vm::VirtualMachine &VM) override {
    audit(VM);
    Inner.onYieldpoint(VM);
    audit(VM);
  }

  /// Checks every active version whenever the compile count has moved.
  void audit(vm::VirtualMachine &VM) {
    if (VM.codeCache().numCompiles() == LastCompiles)
      return;
    LastCompiles = VM.codeCache().numCompiles();
    const vm::CostModel &Costs = VM.config().Costs;
    for (MethodId M = 0; M != VM.program().numMethods(); ++M) {
      const vm::CompiledMethod *CM = VM.codeCache().active(M);
      if (!CM)
        continue;
      Levels.insert(CM->Level);
      ASSERT_EQ(CM->Costs.size(), CM->Code.size()) << "method " << M;
      for (size_t PC = 0; PC != CM->Code.size(); ++PC) {
        const Instruction &I = CM->Code[PC];
        SawWork |= I.Op == Opcode::Work;
        if (CM->Costs[PC] != CM->scaledCost(Costs.cost(I)))
          ++Mismatches;
      }
      ++VersionsChecked;
    }
  }

  std::set<int> Levels;
  bool SawWork = false;
  uint64_t VersionsChecked = 0;
  uint64_t Mismatches = 0;

private:
  vm::VMClient &Inner;
  uint64_t LastCompiles = UINT64_MAX;
};

} // namespace

// Every version the interpreter can run carries Costs[PC] ==
// scaledCost(cost(Code[PC])): baseline compiles, compile-hook compiles
// and the adaptive system's optimized recompiles alike.
TEST(Interpreter, CostTablesHoldTheScaledCostOfEveryInstruction) {
  Program P = wl::buildJess(wl::InputSize::Small, 1);
  vm::VMConfig Baseline; // no hook: CodeCache::compileBaseline
  vm::VMConfig Hooked = exp::jitOnlyConfig(P, vm::Personality::JikesRVM, 1);
  ASSERT_TRUE(Hooked.CompileHook);
  for (vm::VMConfig *Config : {&Baseline, &Hooked}) {
    Config->Profiler = exp::chosenCBS(vm::Personality::JikesRVM);
    opt::NewJikesOracle Oracle;
    aos::AdaptiveSystem AOS(&Oracle);
    CostTableAudit Audit(AOS);
    vm::VirtualMachine VM(P, *Config);
    VM.setClient(&Audit);
    ASSERT_EQ(VM.run(), vm::RunState::Finished) << VM.trapMessage();
    Audit.audit(VM);
    EXPECT_EQ(Audit.Mismatches, 0u);
    EXPECT_GT(Audit.VersionsChecked, 0u);
    EXPECT_TRUE(Audit.Levels.count(0)) << "no baseline version checked";
    EXPECT_TRUE(Audit.Levels.count(1) || Audit.Levels.count(2))
        << "no optimized recompile checked";
    EXPECT_TRUE(Audit.SawWork) << "no Work instruction checked";
  }
}

namespace {

/// Deoptimizes \p Method at the first timer tick and records where the
/// next taken yieldpoint (the deopt reconciliation point) finds the run.
class DeoptAtFirstTick : public vm::VMClient {
public:
  explicit DeoptAtFirstTick(MethodId Method) : Method(Method) {}
  void onTimerTick(vm::VirtualMachine &VM, MethodId) override {
    if (!Deopted)
      Deopted = VM.deoptimize(Method);
  }
  void onYieldpoint(vm::VirtualMachine &VM) override {
    if (Deopted && !Reconciled) {
      Reconciled = true;
      CyclesAtReconcile = VM.cycles();
      IterationsAtReconcile = VM.output().size();
    }
  }

  MethodId Method;
  bool Deopted = false;
  bool Reconciled = false;
  uint64_t CyclesAtReconcile = 0;
  uint64_t IterationsAtReconcile = 0;
};

} // namespace

// A level-2 frame is charged its version's scaled costs while it runs,
// and exactly the unscaled costs from the taken yieldpoint after
// deoptimize() on, plus one DeoptCost for the transition.
TEST(Interpreter, DeoptedFrameIsChargedUnscaledCosts) {
  constexpr int64_t Iterations = 400;
  Program P = buildMain([&](ProgramBuilder &, MethodBuilder &MB) {
    MB.iconst(Iterations).istore(0);
    Label Head = MB.newLabel();
    MB.bind(Head).iload(0).print().work(100).iinc(0, -1);
    MB.iload(0).ifGt(Head);
  });
  ASSERT_TRUE(verifyProgram(P).ok());
  const std::vector<Instruction> &Code = P.method(P.entryMethod()).Code;
  ASSERT_EQ(Code.back().Op, Opcode::Return);

  vm::VMConfig Config;
  Config.JITLevel = 2;
  Config.TimerPeriodCycles = 10'000;
  const vm::CostModel &Costs = Config.Costs;

  // Cycles charged for Code[From, To) at \p CM's scaled or unscaled
  // costs. Code[0, 2) is iconst/istore, the loop body runs up to the
  // final return.
  auto charge = [&](const vm::CompiledMethod &CM, size_t From, size_t To,
                    bool Scaled) {
    uint64_t Sum = 0;
    for (size_t PC = From; PC != To; ++PC) {
      uint64_t Cost = Costs.cost(Code[PC]);
      Sum += Scaled ? CM.scaledCost(Cost) : Cost;
    }
    return Sum;
  };
  size_t Body = 2, Ret = Code.size() - 1;
  uint64_t TickCost = Costs.TimerInterrupt + Costs.TickService;

  // Undisturbed: every instruction at the level-2 scaled cost.
  {
    vm::VirtualMachine VM(P, Config);
    ASSERT_EQ(VM.run(), vm::RunState::Finished);
    const vm::CompiledMethod &CM = *VM.codeCache().active(P.entryMethod());
    ASSERT_EQ(CM.Level, 2);
    ASSERT_NE(CM.ScaleQ8, 256) << "level 2 must run faster than baseline";
    uint64_t Ticks = VM.metrics().findCounter("vm.timer_ticks")->Value;
    EXPECT_GE(Ticks, 1u);
    EXPECT_EQ(VM.cycles(), charge(CM, 0, Body, true) +
                               Iterations * charge(CM, Body, Ret, true) +
                               charge(CM, Ret, Code.size(), true) +
                               Ticks * TickCost);
  }

  // Deoptimized at the first tick: scaled up to the reconciling
  // backedge yieldpoint, unscaled after it.
  vm::VirtualMachine VM(P, Config);
  DeoptAtFirstTick Client(P.entryMethod());
  VM.setClient(&Client);
  ASSERT_EQ(VM.run(), vm::RunState::Finished);
  ASSERT_TRUE(Client.Reconciled);
  EXPECT_EQ(VM.metrics().findCounter("vm.frames_deopted")->Value, 1u);
  // The retired version is gone; a fresh level-2 compile of the same
  // code has the same costs.
  vm::CompiledMethod Level2 =
      vm::CodeCache::compileBaseline(P, P.entryMethod(), 2, Costs);
  uint64_t Prologue = charge(Level2, 0, Body, true);
  uint64_t ScaledIteration = charge(Level2, Body, Ret, true);
  uint64_t BaseIteration = charge(Level2, Body, Ret, false);
  ASSERT_NE(ScaledIteration, BaseIteration);

  // The first tick interrupts an iteration; the backedge that ends it is
  // the reconciliation point, so every iteration printed by then was
  // charged at the scaled cost.
  uint64_t Scaled = Client.IterationsAtReconcile;
  EXPECT_EQ(Client.CyclesAtReconcile,
            Prologue + Scaled * ScaledIteration + Costs.TimerInterrupt);
  uint64_t Ticks = VM.metrics().findCounter("vm.timer_ticks")->Value;
  EXPECT_EQ(VM.cycles(), Prologue + Scaled * ScaledIteration +
                             (Iterations - Scaled) * BaseIteration +
                             charge(Level2, Ret, Code.size(), false) +
                             Costs.DeoptCost + Ticks * TickCost);
}

TEST(Interpreter, StatsCountCallsAndInstructions) {
  ProgramBuilder PB;
  MethodId F = PB.declareStatic("f");
  {
    MethodBuilder MB = PB.defineMethod(F);
    MB.work(10);
    MB.finish();
  }
  MethodId Main = PB.declareStatic("main");
  {
    MethodBuilder MB = PB.defineMethod(Main);
    MB.invokeStatic(F).invokeStatic(F).invokeStatic(F);
    MB.finish();
  }
  Program P = PB.finish(Main);
  vm::VMConfig Config;
  vm::VirtualMachine VM(P, Config);
  VM.run();
  EXPECT_EQ(VM.stats().CallsExecuted, 3u);
  // Work counts its modelled cycles as instructions.
  EXPECT_GE(VM.stats().Instructions, 30u);
  EXPECT_EQ(VM.methodsExecuted(), 2u);
  EXPECT_EQ(VM.invocationCounts()[F], 3u);
}

TEST(Interpreter, DeterministicAcrossRuns) {
  auto Run = [] {
    Program P = buildMain([](ProgramBuilder &, MethodBuilder &MB) {
      MB.iconst(12345).istore(0);
      MB.iconst(0).istore(1);
      Label Head = MB.newLabel(), Exit = MB.newLabel();
      MB.bind(Head).iload(0).ifLe(Exit);
      MB.iload(1).iload(0).ixor().istore(1);
      MB.iinc(0, -7).jump(Head);
      MB.bind(Exit).iload(1).print();
    });
    vm::VMConfig Config;
    vm::VirtualMachine VM(P, Config);
    VM.run();
    return std::pair(VM.output(), VM.stats().Cycles);
  };
  auto A = Run();
  auto B = Run();
  EXPECT_EQ(A.first, B.first);
  EXPECT_EQ(A.second, B.second);
}
