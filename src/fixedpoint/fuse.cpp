// Instruction fusion for the typed fixed-point engine (see fuse.h).
//
// The central rewrite: a matmul whose result flows through a single-use
// chain of requant / bias-add / activation instructions becomes one fused
// instruction carrying the chain as an ordered epilogue step list
// (FpInstr::epi_data). No algebra is performed on the chain — each step IS
// the absorbed instruction's per-lane function, replayed in order on the
// int64 accumulator — so the fused program is bit-exact against the unfused
// one by construction. That matters because requant composition does NOT
// commute in general: round-half-to-even applied twice is not one wider
// shift (rhe(rhe(11, 2), 1) = 2 but rhe(11, 3) = 1), which is also why the
// standalone requant-pair collapse below only fires for the provably exact
// zero-net-shift case.
#include "fixedpoint/fuse.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

namespace tqt {

namespace {

// -1 = automatic (TQT_FUSE env, default on), 0 = off, 1 = on.
int g_fuse_mode = -1;

/// Instruction kinds a fused epilogue can absorb. All are single-input
/// elementwise ops whose per-lane function the epilogue replays exactly.
bool is_epi_kind(FpInstr::Kind k) {
  return k == FpInstr::Kind::kRequant || k == FpInstr::Kind::kBiasAdd ||
         k == FpInstr::Kind::kRelu || k == FpInstr::Kind::kRelu6 ||
         k == FpInstr::Kind::kLeakyRelu;
}

struct UseInfo {
  std::vector<int> uses;      ///< reads per register
  std::vector<int> consumer;  ///< sole reading instr, -1 none, -2 many
  std::vector<int> producer;  ///< writing instr, -1 none
};

UseInfo build_uses(const std::vector<FpInstr>& instrs, const std::vector<char>& dead,
                   int n_registers) {
  UseInfo u;
  u.uses.assign(static_cast<size_t>(n_registers), 0);
  u.consumer.assign(static_cast<size_t>(n_registers), -1);
  u.producer.assign(static_cast<size_t>(n_registers), -1);
  for (size_t i = 0; i < instrs.size(); ++i) {
    if (dead[i]) continue;
    for (int r : instrs[i].inputs) {
      const auto ri = static_cast<size_t>(r);
      u.consumer[ri] = ++u.uses[ri] == 1 ? static_cast<int>(i) : -2;
    }
    u.producer[static_cast<size_t>(instrs[i].output)] = static_cast<int>(i);
  }
  return u;
}

void push_step(std::vector<int64_t>& epi, FpInstr::EpiOp op, int64_t a, int64_t b,
               int64_t c) {
  epi.push_back(static_cast<int64_t>(op));
  epi.push_back(a);
  epi.push_back(b);
  epi.push_back(c);
}

}  // namespace

bool fusion_enabled() {
  if (g_fuse_mode >= 0) return g_fuse_mode != 0;
  const char* env = std::getenv("TQT_FUSE");
  return !(env && std::strcmp(env, "0") == 0);
}

void set_fusion_enabled(int mode) { g_fuse_mode = mode; }

FuseStats fuse_program(std::vector<FpInstr>& instrs, int n_registers,
                       int input_register, int output_register) {
  (void)input_register;
  FuseStats st;
  st.instrs_before = static_cast<int>(instrs.size());
  std::vector<char> dead(instrs.size(), 0);

  // ---- 1. Matmul epilogue chains ---------------------------------------
  // Chains never overlap (every absorbed intermediate is single-use), so one
  // use map built up front stays valid across rewrites.
  {
    const UseInfo u = build_uses(instrs, dead, n_registers);
    for (size_t i = 0; i < instrs.size(); ++i) {
      FpInstr& mm = instrs[i];
      if (mm.kind != FpInstr::Kind::kConv2d && mm.kind != FpInstr::Kind::kDepthwise &&
          mm.kind != FpInstr::Kind::kDense) {
        continue;
      }
      std::vector<int64_t> epi;
      std::vector<int64_t> bias;
      std::vector<size_t> absorbed;
      int tail = mm.output;
      while (static_cast<int>(absorbed.size()) < fpk::kMaxEpiSteps) {
        // The program output must stay where downstream consumers (and the
        // executor's final dequantize) expect it, and an intermediate read
        // more than once cannot vanish into a register-resident epilogue.
        if (tail == output_register) break;
        if (u.uses[static_cast<size_t>(tail)] != 1) break;
        const int ci = u.consumer[static_cast<size_t>(tail)];
        if (ci < 0) break;
        const FpInstr& nx = instrs[static_cast<size_t>(ci)];
        if (!is_epi_kind(nx.kind) || nx.inputs.size() != 1) break;
        switch (nx.kind) {
          case FpInstr::Kind::kRequant:
            push_step(epi, FpInstr::EpiOp::kRequant, nx.out_exponent, nx.clamp_lo,
                      nx.clamp_hi);
            break;
          case FpInstr::Kind::kBiasAdd:
            if (!bias.empty() || nx.const_data.empty()) goto chain_done;
            push_step(epi, FpInstr::EpiOp::kBias, 0, 0, 0);
            bias = nx.const_data;
            break;
          case FpInstr::Kind::kRelu:
            push_step(epi, FpInstr::EpiOp::kRelu, 0, 0, 0);
            break;
          case FpInstr::Kind::kRelu6:
            push_step(epi, FpInstr::EpiOp::kClamp, 0, nx.clamp_lo, nx.clamp_hi);
            break;
          case FpInstr::Kind::kLeakyRelu:
            push_step(epi, FpInstr::EpiOp::kLeaky, nx.alpha_exponent, nx.alpha_q, 0);
            break;
          default:
            goto chain_done;
        }
        absorbed.push_back(static_cast<size_t>(ci));
        tail = nx.output;
      }
    chain_done:
      if (absorbed.empty()) continue;
      mm.kind = fused_kind_of(mm.kind);
      mm.output = tail;
      mm.epi_data = std::move(epi);
      mm.bias_data = std::move(bias);
      for (size_t a : absorbed) dead[a] = 1;
      ++st.fused_matmuls;
      st.absorbed_instrs += static_cast<int>(absorbed.size());
    }
  }

  // ---- 2. Cleanup to fixpoint ------------------------------------------
  // (a) Standalone requant pairs where the second shift is zero (equal
  //     target exponents): the second is a pure clamp, and clamp-of-clamp
  //     composes exactly — intersect, or pin to the nearer bound when the
  //     intersection is empty. Pairs with a nonzero second shift are left
  //     alone: collapsing them would change round-half-to-even results.
  // (b) Flatten-of-flatten: the outer reshape subsumes the inner.
  // (c) Dead code: an instruction whose output nothing reads (absorbed
  //     chains expose these only transiently, but a defensive sweep keeps
  //     the invariant simple).
  for (bool changed = true; changed;) {
    changed = false;
    const UseInfo u = build_uses(instrs, dead, n_registers);
    for (size_t i = 0; i < instrs.size() && !changed; ++i) {
      if (dead[i]) continue;
      FpInstr& in = instrs[i];
      if (u.uses[static_cast<size_t>(in.output)] == 0 && in.output != output_register) {
        dead[i] = 1;
        changed = true;
        break;
      }
      if (in.inputs.size() != 1) continue;
      const int src = in.inputs[0];
      const int pi = u.producer[static_cast<size_t>(src)];
      if (pi < 0 || u.uses[static_cast<size_t>(src)] != 1 || src == output_register) {
        continue;
      }
      FpInstr& prev = instrs[static_cast<size_t>(pi)];
      if (in.kind == FpInstr::Kind::kRequant && prev.kind == FpInstr::Kind::kRequant &&
          in.out_exponent == prev.out_exponent) {
        int64_t lo = std::max(prev.clamp_lo, in.clamp_lo);
        int64_t hi = std::min(prev.clamp_hi, in.clamp_hi);
        if (lo > hi) {
          // Disjoint ranges: everything the first clamp admits lands on one
          // bound of the second.
          lo = hi = prev.clamp_hi < in.clamp_lo ? in.clamp_lo : in.clamp_hi;
        }
        prev.clamp_lo = lo;
        prev.clamp_hi = hi;
        prev.output = in.output;
        dead[i] = 1;
        ++st.collapsed_requants;
        changed = true;
      } else if (in.kind == FpInstr::Kind::kFlatten &&
                 prev.kind == FpInstr::Kind::kFlatten) {
        in.inputs[0] = prev.inputs[0];
        dead[pi] = 1;
        changed = true;
      }
    }
  }

  std::vector<FpInstr> out;
  out.reserve(instrs.size());
  for (size_t i = 0; i < instrs.size(); ++i) {
    if (!dead[i]) out.push_back(std::move(instrs[i]));
  }
  instrs = std::move(out);
  st.instrs_after = static_cast<int>(instrs.size());
  return st;
}

void insert_layout_ops(std::vector<FpInstr>& stream, std::vector<fpk::Algo>& algos,
                       int* n_registers, int output_register) {
  // Pre-scan: which registers are produced by a blocked instruction, and
  // which of those are read by anything that cannot consume NC8HW8 lanes
  // (a non-blocked instruction, a second operand slot — blocked kernels are
  // single-input — or the program output).
  const auto is_blocked = [&](size_t i) {
    return i < algos.size() && algos[i] == fpk::Algo::kBlocked;
  };
  std::vector<char> blocked_out(static_cast<size_t>(*n_registers), 0);
  std::vector<char> needs_unpack(static_cast<size_t>(*n_registers), 0);
  for (size_t i = 0; i < stream.size(); ++i) {
    if (is_blocked(i)) blocked_out[static_cast<size_t>(stream[i].output)] = 1;
  }
  for (size_t i = 0; i < stream.size(); ++i) {
    for (size_t a = 0; a < stream[i].inputs.size(); ++a) {
      const int r = stream[i].inputs[a];
      if (!blocked_out[static_cast<size_t>(r)]) continue;
      if (!(is_blocked(i) && a == 0)) needs_unpack[static_cast<size_t>(r)] = 1;
    }
  }
  if (output_register >= 0 && blocked_out[static_cast<size_t>(output_register)]) {
    needs_unpack[static_cast<size_t>(output_register)] = 1;
  }

  std::vector<FpInstr> out;
  std::vector<fpk::Algo> out_algos;
  out.reserve(stream.size() + 4);
  out_algos.reserve(stream.size() + 4);
  // Standard-layout register -> its packed twin; blocked producer's original
  // output id -> the register actually holding the blocked lanes.
  std::vector<int> packed_of(static_cast<size_t>(*n_registers), -1);
  std::vector<int> blocked_reg(static_cast<size_t>(*n_registers), -1);

  for (size_t i = 0; i < stream.size(); ++i) {
    FpInstr in = std::move(stream[i]);
    const fpk::Algo algo = i < algos.size() ? algos[i] : fpk::Algo::kAuto;
    if (algo == fpk::Algo::kBlocked) {
      const int src = in.inputs[0];
      if (blocked_reg[static_cast<size_t>(src)] >= 0) {
        // Chain link: the producer's blocked lanes pass straight through.
        in.inputs[0] = blocked_reg[static_cast<size_t>(src)];
      } else {
        if (packed_of[static_cast<size_t>(src)] < 0) {
          FpInstr pk;
          pk.kind = FpInstr::Kind::kLayoutPack;
          pk.inputs = {src};
          pk.output = (*n_registers)++;
          pk.debug_name = "layout_pack";
          packed_of[static_cast<size_t>(src)] = pk.output;
          out.push_back(std::move(pk));
          out_algos.push_back(fpk::Algo::kAuto);
        }
        in.inputs[0] = packed_of[static_cast<size_t>(src)];
      }
      const int o = in.output;
      if (needs_unpack[static_cast<size_t>(o)]) {
        // Keep the ORIGINAL register id for the unpacked lanes so every
        // standard-layout consumer (and the program output) is untouched;
        // the blocked lanes live in a fresh register.
        in.output = (*n_registers)++;
        blocked_reg[static_cast<size_t>(o)] = in.output;
        out.push_back(std::move(in));
        out_algos.push_back(fpk::Algo::kBlocked);
        FpInstr up;
        up.kind = FpInstr::Kind::kLayoutUnpack;
        up.inputs = {blocked_reg[static_cast<size_t>(o)]};
        up.output = o;
        up.debug_name = "layout_unpack";
        out.push_back(std::move(up));
        out_algos.push_back(fpk::Algo::kAuto);
      } else {
        blocked_reg[static_cast<size_t>(o)] = o;
        out.push_back(std::move(in));
        out_algos.push_back(fpk::Algo::kBlocked);
      }
    } else {
      out.push_back(std::move(in));
      out_algos.push_back(algo);
    }
  }
  stream = std::move(out);
  algos = std::move(out_algos);
}

}  // namespace tqt
