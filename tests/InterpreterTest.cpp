//===- tests/InterpreterTest.cpp - execution semantics tests -------------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Builder.h"
#include "bytecode/Verifier.h"
#include "vm/VirtualMachine.h"

#include <gtest/gtest.h>

#include <functional>

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
