#include "jir/assembler.hpp"

#include <cstring>
#include <map>
#include <sstream>
#include <vector>

namespace hyp::jir {

namespace {

// Reverse op table built once from op_name.
const std::map<std::string, Op>& mnemonic_table() {
  static const std::map<std::string, Op>* table = [] {
    auto* t = new std::map<std::string, Op>;
    for (int i = 0; i <= static_cast<int>(Op::kChargeCycles); ++i) {
      const Op op = static_cast<Op>(i);
      (*t)[op_name(op)] = op;
    }
    return t;
  }();
  return *table;
}

bool needs_label(Op op) {
  return op == Op::kGoto || op == Op::kIfEq || op == Op::kIfNe || op == Op::kIfLt ||
         op == Op::kIfGe;
}

bool needs_function(Op op) { return op == Op::kCall || op == Op::kSpawn; }

bool needs_int(Op op) {
  return op == Op::kLConst || op == Op::kLoad || op == Op::kStore || op == Op::kChargeCycles;
}

struct Fixup {
  std::size_t function;
  std::size_t insn;
  std::string symbol;  // label or function name
  bool is_function;
  int line;
};

}  // namespace

AssembleResult assemble(const std::string& source) {
  AssembleResult result;
  Program& program = result.program;
  std::vector<Fixup> fixups;
  std::map<std::string, std::int64_t> labels;  // current function's labels
  bool in_function = false;

  auto fail = [&](int line, const std::string& message) {
    result.error = "line " + std::to_string(line) + ": " + message;
    return result;
  };

  std::istringstream in(source);
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    if (auto hash = raw.find('#'); hash != std::string::npos) raw.resize(hash);
    std::istringstream line(raw);
    std::string word;
    if (!(line >> word)) continue;  // blank

    if (word == "func") {
      if (in_function) return fail(line_no, "nested func");
      std::string name, args_kv, locals_kv;
      if (!(line >> name >> args_kv >> locals_kv)) {
        return fail(line_no, "expected: func <name> args=<n> locals=<n>");
      }
      Function fn;
      fn.name = name;
      if (std::sscanf(args_kv.c_str(), "args=%d", &fn.args) != 1 ||
          std::sscanf(locals_kv.c_str(), "locals=%d", &fn.locals) != 1) {
        return fail(line_no, "bad args=/locals=");
      }
      if (program.find(name) >= 0) return fail(line_no, "duplicate function " + name);
      program.functions.push_back(std::move(fn));
      labels.clear();
      in_function = true;
      continue;
    }
    if (word == "end") {
      if (!in_function) return fail(line_no, "end outside func");
      // Resolve this function's label fixups now (labels are local).
      Function& fn = program.functions.back();
      for (auto it = fixups.begin(); it != fixups.end();) {
        if (it->is_function || it->function != program.functions.size() - 1) {
          ++it;
          continue;
        }
        auto label = labels.find(it->symbol);
        if (label == labels.end()) return fail(it->line, "unknown label " + it->symbol);
        fn.code[it->insn].operand = label->second;
        it = fixups.erase(it);
      }
      in_function = false;
      continue;
    }
    if (!in_function) return fail(line_no, "instruction outside func");

    Function& fn = program.functions.back();
    if (word.size() > 1 && word.back() == ':') {
      const std::string label = word.substr(0, word.size() - 1);
      if (!labels.emplace(label, static_cast<std::int64_t>(fn.code.size())).second) {
        return fail(line_no, "duplicate label " + label);
      }
      // A label line may also carry an instruction; re-read.
      if (!(line >> word)) continue;
    }

    auto op_it = mnemonic_table().find(word);
    if (op_it == mnemonic_table().end()) return fail(line_no, "unknown opcode " + word);
    Insn insn{op_it->second, 0};

    if (needs_label(insn.op) || needs_function(insn.op)) {
      std::string symbol;
      if (!(line >> symbol)) return fail(line_no, word + " needs an operand");
      fixups.push_back({program.functions.size() - 1, fn.code.size(), symbol,
                        needs_function(insn.op), line_no});
    } else if (insn.op == Op::kDConst) {
      double value;
      if (!(line >> value)) return fail(line_no, "dconst needs a number");
      std::memcpy(&insn.operand, &value, sizeof(value));
    } else if (needs_int(insn.op)) {
      if (!(line >> insn.operand)) return fail(line_no, word + " needs an integer");
    }
    std::string extra;
    if (line >> extra) return fail(line_no, "trailing junk: " + extra);
    fn.code.push_back(insn);
  }
  if (in_function) return fail(line_no, "missing end");

  // Resolve function-name fixups (forward references allowed).
  for (const Fixup& fixup : fixups) {
    HYP_CHECK(fixup.is_function);
    const int idx = program.find(fixup.symbol);
    if (idx < 0) {
      result.error = "line " + std::to_string(fixup.line) + ": unknown function " + fixup.symbol;
      return result;
    }
    program.functions[fixup.function].code[fixup.insn].operand = idx;
  }

  if (auto err = verify(program); !err.empty()) {
    result.error = "verify: " + err;
  }
  return result;
}

std::string disassemble(const Program& program) {
  std::ostringstream out;
  for (const Function& fn : program.functions) {
    out << "func " << fn.name << " args=" << fn.args << " locals=" << fn.locals << "\n";
    // Collect branch targets so labels can be emitted.
    std::map<std::int64_t, std::string> labels;
    for (const Insn& insn : fn.code) {
      if (needs_label(insn.op) && labels.find(insn.operand) == labels.end()) {
        // Appended rather than "L" + std::to_string(...), whose inlined
        // insert GCC 12 flags with a false -Wrestrict (GCC bug 105329).
        labels[insn.operand] = std::string("L").append(std::to_string(insn.operand));
      }
    }
    for (std::size_t pc = 0; pc < fn.code.size(); ++pc) {
      if (auto it = labels.find(static_cast<std::int64_t>(pc)); it != labels.end()) {
        out << it->second << ":\n";
      }
      const Insn& insn = fn.code[pc];
      out << "  " << op_name(insn.op);
      if (needs_label(insn.op)) {
        out << " " << labels.at(insn.operand);
      } else if (needs_function(insn.op)) {
        out << " " << program.functions[static_cast<std::size_t>(insn.operand)].name;
      } else if (insn.op == Op::kDConst) {
        double value;
        std::memcpy(&value, &insn.operand, sizeof(value));
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        out << " " << buf;
      } else if (needs_int(insn.op)) {
        out << " " << insn.operand;
      }
      out << "\n";
    }
    out << "end\n";
  }
  return out.str();
}

}  // namespace hyp::jir
