// JIR: assembler, verifier and interpreter over the cluster JVM.
#include <gtest/gtest.h>

#include "jir/assembler.hpp"
#include "jir/interp.hpp"

namespace hyp::jir {
namespace {

hyperion::VmConfig vm_config(dsm::ProtocolKind kind, int nodes) {
  hyperion::VmConfig cfg;
  cfg.cluster = cluster::ClusterParams::myrinet200();
  cfg.nodes = nodes;
  cfg.protocol = kind;
  cfg.region_bytes = std::size_t{16} << 20;
  return cfg;
}

// Assembles (must succeed), runs `main` on a fresh VM, returns the result.
std::int64_t run_program(const std::string& source, dsm::ProtocolKind kind, int nodes,
                         std::vector<std::int64_t> args = {}) {
  auto assembled = assemble(source);
  EXPECT_TRUE(assembled.ok()) << assembled.error;
  hyperion::HyperionVM vm(vm_config(kind, nodes));
  std::int64_t result = 0;
  vm.run_main([&](hyperion::JavaEnv& main) {
    Interpreter interp(&assembled.program, &main);
    result = interp.run("main", std::move(args));
  });
  return result;
}

// --- assembler -------------------------------------------------------------

TEST(JirAssembler, MinimalProgram) {
  auto r = assemble("func main args=0 locals=0\n lconst 42\n ret\nend\n");
  ASSERT_TRUE(r.ok()) << r.error;
  ASSERT_EQ(r.program.functions.size(), 1u);
  EXPECT_EQ(r.program.functions[0].code.size(), 2u);
  EXPECT_EQ(r.program.functions[0].code[0].operand, 42);
}

TEST(JirAssembler, LabelsAndBranches) {
  auto r = assemble(R"(
func main args=0 locals=1
  lconst 3
  store 0
loop:
  load 0
  ifeq done
  load 0
  lconst 1
  lsub
  store 0
  goto loop
done:
  lconst 7
  ret
end
)");
  ASSERT_TRUE(r.ok()) << r.error;
}

TEST(JirAssembler, CommentsAndBlanksIgnored) {
  auto r = assemble("# header\nfunc main args=0 locals=0\n\n  lconst 1 # inline\n  ret\nend\n");
  EXPECT_TRUE(r.ok()) << r.error;
}

TEST(JirAssembler, ForwardFunctionReference) {
  auto r = assemble(R"(
func main args=0 locals=0
  lconst 20
  call double_it
  ret
end
func double_it args=1 locals=1
  load 0
  lconst 2
  lmul
  ret
end
)");
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.program.functions[0].code[1].operand, 1);  // resolved index
}

TEST(JirAssembler, Errors) {
  EXPECT_NE(assemble("lconst 1\n").error.find("outside func"), std::string::npos);
  EXPECT_NE(assemble("func main args=0 locals=0\n bogus\nend\n").error.find("unknown opcode"),
            std::string::npos);
  EXPECT_NE(assemble("func main args=0 locals=0\n goto nowhere\n ret\nend\n")
                .error.find("unknown label"),
            std::string::npos);
  EXPECT_NE(assemble("func main args=0 locals=0\n lconst 1\n ret\n").error.find("missing end"),
            std::string::npos);
  EXPECT_NE(assemble("func main args=0 locals=0\n call ghost\n ret\nend\n")
                .error.find("unknown function"),
            std::string::npos);
}

TEST(JirDisassembler, RoundTripsPrograms) {
  const std::string src = R"(
func main args=0 locals=2
  lconst 10
  store 0
loop:
  load 0
  ifeq done
  load 0
  lconst 1
  lsub
  store 0
  dconst 2.5
  pop
  goto loop
done:
  lconst 1
  call helper
  ret
end
func helper args=1 locals=1
  load 0
  ret
end
)";
  auto first = assemble(src);
  ASSERT_TRUE(first.ok()) << first.error;
  const std::string text = disassemble(first.program);
  auto second = assemble(text);
  ASSERT_TRUE(second.ok()) << second.error << "\n" << text;
  ASSERT_EQ(second.program.functions.size(), first.program.functions.size());
  for (std::size_t f = 0; f < first.program.functions.size(); ++f) {
    const auto& a = first.program.functions[f];
    const auto& b = second.program.functions[f];
    EXPECT_EQ(a.name, b.name);
    ASSERT_EQ(a.code.size(), b.code.size());
    for (std::size_t i = 0; i < a.code.size(); ++i) {
      EXPECT_EQ(a.code[i].op, b.code[i].op) << "insn " << i;
      EXPECT_EQ(a.code[i].operand, b.code[i].operand) << "insn " << i;
    }
  }
}

// --- verifier ---------------------------------------------------------------

TEST(JirVerifier, CatchesStackUnderflow) {
  auto r = assemble("func main args=0 locals=0\n ladd\n ret\nend\n");
  EXPECT_NE(r.error.find("underflow"), std::string::npos);
}

TEST(JirVerifier, CatchesFallOffEnd) {
  auto r = assemble("func main args=0 locals=0\n lconst 1\nend\n");
  EXPECT_NE(r.error.find("falls off"), std::string::npos);
}

TEST(JirVerifier, CatchesInconsistentDepths) {
  // One path pushes before the join point, the other does not.
  auto r = assemble(R"(
func main args=1 locals=1
  load 0
  ifeq push_one
  goto join
push_one:
  lconst 5
join:
  lconst 0
  ret
end
)");
  EXPECT_NE(r.error.find("inconsistent stack depth"), std::string::npos);
}

TEST(JirVerifier, CatchesBadLocalIndex) {
  auto r = assemble("func main args=0 locals=1\n load 3\n ret\nend\n");
  EXPECT_NE(r.error.find("local index"), std::string::npos);
}

// --- interpreter ------------------------------------------------------------

class JirInterpTest : public ::testing::TestWithParam<dsm::ProtocolKind> {};
INSTANTIATE_TEST_SUITE_P(BothProtocols, JirInterpTest,
                         ::testing::Values(dsm::ProtocolKind::kJavaIc,
                                           dsm::ProtocolKind::kJavaPf),
                         [](const auto& param_info) { return dsm::protocol_name(param_info.param); });

TEST_P(JirInterpTest, ArithmeticAndControlFlow) {
  // 10! via a loop.
  const std::string src = R"(
func main args=0 locals=2
  lconst 1
  store 0      # acc
  lconst 10
  store 1      # i
loop:
  load 1
  ifeq done
  load 0
  load 1
  lmul
  store 0
  load 1
  lconst 1
  lsub
  store 1
  goto loop
done:
  load 0
  ret
end
)";
  EXPECT_EQ(run_program(src, GetParam(), 2), 3628800);
}

TEST_P(JirInterpTest, DoubleArithmetic) {
  const std::string src = R"(
func main args=0 locals=0
  dconst 1.5
  dconst 2.5
  dadd
  dconst 4.0
  dmul
  d2l
  ret
end
)";
  EXPECT_EQ(run_program(src, GetParam(), 1), 16);
}

TEST_P(JirInterpTest, CallsAndRecursion) {
  const std::string src = R"(
func main args=0 locals=0
  lconst 12
  call fib
  ret
end
func fib args=1 locals=1
  load 0
  lconst 2
  lcmp
  ifge recurse
  load 0
  ret
recurse:
  load 0
  lconst 1
  lsub
  call fib
  load 0
  lconst 2
  lsub
  call fib
  ladd
  ret
end
)";
  EXPECT_EQ(run_program(src, GetParam(), 2), 144);
}

TEST_P(JirInterpTest, SharedArraysAcrossTheDsm) {
  const std::string src = R"(
func main args=0 locals=2
  lconst 100
  newarray_l
  store 0
  lconst 0
  store 1
fill:
  load 1
  lconst 100
  lcmp
  ifge sum
  load 0
  load 1
  load 1
  load 1
  lmul
  astore_l
  load 1
  lconst 1
  ladd
  store 1
  goto fill
sum:
  load 0
  lconst 99
  aload_l
  load 0
  arraylen
  ladd
  ret
end
)";
  EXPECT_EQ(run_program(src, GetParam(), 2), 99 * 99 + 100);
}

TEST_P(JirInterpTest, MonitorSynchronizedThreads) {
  // 4 interpreted threads each add 1..50 into cell[0] under the array's
  // monitor; main joins and returns the total.
  const std::string src = R"(
func main args=0 locals=1
  lconst 1
  newarray_l
  store 0
  load 0
  spawn worker
  load 0
  spawn worker
  load 0
  spawn worker
  load 0
  spawn worker
  joinall
  load 0
  lconst 0
  aload_l
  ret
end
func worker args=1 locals=2
  lconst 50
  store 1
loop:
  load 1
  ifeq done
  load 0
  monitorenter
  load 0
  lconst 0
  load 0
  lconst 0
  aload_l
  load 1
  ladd
  astore_l
  load 0
  monitorexit
  load 1
  lconst 1
  lsub
  store 1
  goto loop
done:
  retvoid
end
)";
  const std::int64_t per_thread = 50 * 51 / 2;
  EXPECT_EQ(run_program(src, GetParam(), 4), 4 * per_thread);
}

TEST_P(JirInterpTest, InterpretedRiemannPi) {
  // The paper's Pi program, as bytecode, on the cluster JVM.
  const std::string src = R"(
func main args=1 locals=4
  dconst 0.0
  store 1          # sum
  lconst 0
  store 2          # i
loop:
  load 2
  load 0
  lcmp
  ifge done
  load 2
  l2d
  dconst 0.5
  dadd
  load 0
  l2d
  ddiv
  store 3          # x
  dconst 4.0
  dconst 1.0
  load 3
  load 3
  dmul
  dadd
  ddiv
  load 1
  dadd
  store 1
  load 2
  lconst 1
  ladd
  store 2
  goto loop
done:
  load 1
  load 0
  l2d
  ddiv
  d2l             # floor(pi) == 3
  ret
end
)";
  EXPECT_EQ(run_program(src, GetParam(), 1, {20000}), 3);
}

TEST(JirInterp, InterpretedCodePaysProtocolCosts) {
  // Interpreted array sweeps must show the same protocol signature as
  // compiled code: checks under java_ic, none under java_pf.
  const std::string src = R"(
func main args=0 locals=1
  lconst 64
  newarray_l
  store 0
  load 0
  lconst 5
  lconst 7
  astore_l
  load 0
  lconst 5
  aload_l
  ret
end
)";
  auto assembled = assemble(src);
  ASSERT_TRUE(assembled.ok()) << assembled.error;
  for (auto kind : {dsm::ProtocolKind::kJavaIc, dsm::ProtocolKind::kJavaPf}) {
    hyperion::HyperionVM vm(vm_config(kind, 2));
    vm.run_main([&](hyperion::JavaEnv& main) {
      Interpreter interp(&assembled.program, &main);
      EXPECT_EQ(interp.run("main"), 7);
    });
    if (kind == dsm::ProtocolKind::kJavaIc) {
      EXPECT_GT(vm.stats().get(Counter::kInlineChecks), 0u);
    } else {
      EXPECT_EQ(vm.stats().get(Counter::kInlineChecks), 0u);
    }
  }
}

TEST(JirInterpDeath, ArrayIndexOutOfBoundsAborts) {
  // Java semantics: runtime bounds check on every array access (the
  // verifier cannot prove indices).
  const std::string src = R"(
func main args=0 locals=1
  lconst 4
  newarray_l
  store 0
  load 0
  lconst 9
  aload_l
  ret
end
)";
  auto assembled = assemble(src);
  ASSERT_TRUE(assembled.ok());
  hyperion::HyperionVM vm(vm_config(dsm::ProtocolKind::kJavaPf, 1));
  EXPECT_DEATH(vm.run_main([&](hyperion::JavaEnv& main) {
                 Interpreter interp(&assembled.program, &main);
                 interp.run("main");
               }),
               "out of bounds");
}

TEST(JirInterpDeath, NegativeIndexAborts) {
  const std::string src = R"(
func main args=0 locals=1
  lconst 4
  newarray_l
  store 0
  load 0
  lconst -1
  lconst 5
  astore_l
  lconst 0
  ret
end
)";
  auto assembled = assemble(src);
  ASSERT_TRUE(assembled.ok());
  hyperion::HyperionVM vm(vm_config(dsm::ProtocolKind::kJavaIc, 1));
  EXPECT_DEATH(vm.run_main([&](hyperion::JavaEnv& main) {
                 Interpreter interp(&assembled.program, &main);
                 interp.run("main");
               }),
               "out of bounds");
}

TEST(JirInterpDeath, DivisionByZeroAborts) {
  const std::string src =
      "func main args=0 locals=0\n lconst 1\n lconst 0\n ldiv\n ret\nend\n";
  auto assembled = assemble(src);
  ASSERT_TRUE(assembled.ok());
  hyperion::HyperionVM vm(vm_config(dsm::ProtocolKind::kJavaPf, 1));
  EXPECT_DEATH(vm.run_main([&](hyperion::JavaEnv& main) {
                 Interpreter interp(&assembled.program, &main);
                 interp.run("main");
               }),
               "division by zero");
}

TEST(JirInterpDeath, WrongArgumentCountAborts) {
  auto assembled = assemble("func main args=2 locals=2\n lconst 0\n ret\nend\n");
  ASSERT_TRUE(assembled.ok());
  hyperion::HyperionVM vm(vm_config(dsm::ProtocolKind::kJavaPf, 1));
  EXPECT_DEATH(vm.run_main([&](hyperion::JavaEnv& main) {
                 Interpreter interp(&assembled.program, &main);
                 interp.run("main", {1});
               }),
               "argument count");
}

}  // namespace
}  // namespace hyp::jir
