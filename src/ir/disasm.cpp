/**
 * @file
 * Bytecode disassembly. Output is deterministic: instruction order is
 * code order, pools and call sites print by index, and floats use the
 * same showpoint/precision(17) format as ir::Operand::toString so the
 * goldens under tests/golden/ stay byte-stable across platforms.
 */

#include "ir/disasm.hpp"

#include <iomanip>
#include <sstream>

namespace stats::ir::bc {

namespace {

void
printFloat(std::ostringstream &out, double v)
{
    out.setf(std::ios::showpoint);
    const auto old_precision = out.precision(17);
    out << v;
    out.precision(old_precision);
    out.unsetf(std::ios::showpoint);
}

std::string
regName(std::uint16_t reg)
{
    if (reg == kNoReg)
        return "_";
    std::string name = "r";
    name += std::to_string(reg);
    return name;
}

const char *
typeShort(Type type)
{
    switch (type) {
      case Type::Void: return "void";
      case Type::I64: return "i64";
      case Type::F64: return "f64";
      case Type::F32: return "f32";
    }
    return "?";
}

} // namespace

std::string
disassemble(const BcFunction &fn)
{
    std::ostringstream out;
    out << "func @" << fn.name << "(";
    for (std::size_t p = 0; p < fn.paramRegs.size(); ++p) {
        if (p)
            out << ", ";
        out << regName(fn.paramRegs[p]) << ":"
            << (fn.paramClasses[p] == RegClass::Float ? "f" : "i");
    }
    out << ") -> " << typeShort(fn.retType);
    if (!fn.compiled) {
        out << "\n  ; fallback: " << fn.fallbackReason << "\n";
        return out.str();
    }
    out << "  ; regs=" << fn.numRegs << " fused=" << fn.fusedCount
        << (fn.batchable ? " batchable" : "") << "\n";

    for (std::size_t k = 0; k < fn.ipool.size(); ++k)
        out << "  .ipool[" << k << "] = " << fn.ipool[k] << "\n";
    for (std::size_t k = 0; k < fn.fpool.size(); ++k) {
        out << "  .fpool[" << k << "] = ";
        printFloat(out, fn.fpool[k]);
        out << "\n";
    }
    for (std::size_t k = 0; k < fn.calls.size(); ++k) {
        const BcCallSite &site = fn.calls[k];
        out << "  .call[" << k << "] = @" << site.callee;
        if (site.calleeIndex < 0)
            out << " [external]";
        out << "(";
        for (std::size_t j = 0; j < site.args.size(); ++j) {
            if (j)
                out << ", ";
            out << regName(site.args[j].first) << ":"
                << typeShort(site.args[j].second);
        }
        out << ") -> " << typeShort(site.retType) << "\n";
    }

    for (std::size_t ip = 0; ip < fn.code.size(); ++ip) {
        const BcInst &inst = fn.code[ip];
        out << std::setw(4) << ip << ": ";
        out << std::left << std::setw(10) << opcodeMnemonic(inst.op)
            << std::right;
        switch (opcodeFormat(inst.op)) {
          case BcFormat::RegPoolI:
            out << regName(inst.a) << ", ipool[" << inst.imm << "]";
            break;
          case BcFormat::RegPoolF:
            out << regName(inst.a) << ", fpool[" << inst.imm << "]";
            break;
          case BcFormat::TwoReg:
            out << regName(inst.a) << ", " << regName(inst.b);
            break;
          case BcFormat::ThreeReg:
            out << regName(inst.a) << ", " << regName(inst.b) << ", "
                << regName(inst.c);
            break;
          case BcFormat::FourReg:
            out << regName(inst.a) << ", " << regName(inst.b) << ", "
                << regName(inst.c) << ", "
                << regName(static_cast<std::uint16_t>(inst.imm));
            break;
          case BcFormat::Branch:
            out << regName(inst.b) << ", -> " << inst.imm;
            break;
          case BcFormat::Target:
            out << "-> " << inst.imm;
            break;
          case BcFormat::CallFmt:
            out << regName(inst.a) << ", call[" << inst.imm << "]";
            break;
          case BcFormat::RetReg:
            out << regName(inst.a);
            break;
          case BcFormat::None:
            break;
        }
        out << "\n";
    }
    return out.str();
}

std::string
disassemble(const BcModule &module)
{
    std::ostringstream out;
    bool first = true;
    for (const BcFunction &fn : module.functions) {
        if (!first)
            out << "\n";
        first = false;
        out << disassemble(fn);
    }
    return out.str();
}

} // namespace stats::ir::bc
