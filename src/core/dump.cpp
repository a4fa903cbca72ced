#include "core/dump.h"

#include <map>
#include <sstream>

namespace newton {
namespace {

std::string prim_name(const Primitive& p) {
  switch (p.kind) {
    case PrimitiveKind::Filter: {
      std::ostringstream os;
      os << "filter(";
      for (std::size_t i = 0; i < p.pred.clauses.size(); ++i) {
        const auto& c = p.pred.clauses[i];
        if (i) os << " && ";
        os << field_name(c.field);
        switch (c.op) {
          case Cmp::Eq: os << "=="; break;
          case Cmp::Ne: os << "!="; break;
          case Cmp::Ge: os << ">="; break;
          case Cmp::Le: os << "<="; break;
          case Cmp::Gt: os << ">"; break;
          case Cmp::Lt: os << "<"; break;
        }
        os << c.value;
        if (c.mask != 0xffffffffu) os << "/&0x" << std::hex << c.mask
                                      << std::dec;
      }
      os << ")";
      return os.str();
    }
    case PrimitiveKind::Map:
    case PrimitiveKind::Distinct:
    case PrimitiveKind::Reduce: {
      std::ostringstream os;
      os << (p.kind == PrimitiveKind::Map
                 ? "map"
                 : p.kind == PrimitiveKind::Distinct ? "distinct" : "reduce");
      os << "(";
      for (std::size_t i = 0; i < p.keys.size(); ++i) {
        if (i) os << ",";
        os << field_name(p.keys[i].field);
      }
      if (p.kind == PrimitiveKind::Reduce)
        os << (p.value_field_is_len ? "; sum bytes" : "; count");
      os << ")";
      return os.str();
    }
    case PrimitiveKind::When: {
      std::ostringstream os;
      os << "when(result";
      switch (p.when_op) {
        case Cmp::Eq: os << "=="; break;
        case Cmp::Ne: os << "!="; break;
        case Cmp::Ge: os << ">="; break;
        case Cmp::Le: os << "<="; break;
        case Cmp::Gt: os << ">"; break;
        case Cmp::Lt: os << "<"; break;
      }
      os << p.when_value << ")";
      return os.str();
    }
  }
  return "?";
}

std::string cmp_token(Cmp op) {
  switch (op) {
    case Cmp::Eq: return "==";
    case Cmp::Ne: return "!=";
    case Cmp::Ge: return ">=";
    case Cmp::Le: return "<=";
    case Cmp::Gt: return ">";
    case Cmp::Lt: return "<";
  }
  return "?";
}

// Prefix length of `mask` within `f`'s width; throws if the mask is not a
// contiguous prefix (the only mask shape the DSL can express).
std::size_t prefix_len(Field f, uint32_t mask) {
  const uint8_t bits = field_bits(f);
  const uint32_t full = field_full_mask(f);
  for (std::size_t len = 0; len <= bits; ++len) {
    const uint32_t pm =
        len == 0 ? 0u : (full >> (bits - len)) << (bits - len);
    if ((mask & full) == pm) return len;
  }
  throw std::invalid_argument("query_to_dsl: non-prefix mask on field " +
                              std::string(field_name(f)));
}

void emit_keys(std::ostringstream& os, const std::vector<KeySel>& keys) {
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i) os << ", ";
    os << field_name(keys[i].field);
    const std::size_t len = prefix_len(keys[i].field, keys[i].mask);
    if (len != field_bits(keys[i].field)) os << "/" << len;
  }
}

void emit_primitive(std::ostringstream& os, const Primitive& p) {
  switch (p.kind) {
    case PrimitiveKind::Filter: {
      os << "filter(";
      for (std::size_t i = 0; i < p.pred.clauses.size(); ++i) {
        const auto& c = p.pred.clauses[i];
        if (i) os << " && ";
        os << field_name(c.field) << " " << cmp_token(c.op) << " " << c.value;
        const std::size_t len = prefix_len(c.field, c.mask);
        if (len != field_bits(c.field)) os << "/" << len;
      }
      os << ")";
      break;
    }
    case PrimitiveKind::Map:
      os << "map(";
      emit_keys(os, p.keys);
      os << ")";
      break;
    case PrimitiveKind::Distinct:
      os << "distinct(";
      emit_keys(os, p.keys);
      os << ")";
      break;
    case PrimitiveKind::Reduce:
      os << "reduce(";
      emit_keys(os, p.keys);
      os << ", " << (p.value_field_is_len ? "bytes" : "count") << ")";
      break;
    case PrimitiveKind::When:
      os << (p.when_stream ? "when_stream(" : "when(") << cmp_token(p.when_op)
         << " " << p.when_value << ")";
      break;
  }
}

}  // namespace

std::string query_to_dsl(const Query& q) {
  if (q.branches.empty())
    throw std::invalid_argument("query_to_dsl: query has no branches");
  std::ostringstream os;
  os << "sketch(" << q.sketch_depth << ", " << q.sketch_width << ")";
  if (q.window_ns % 1'000'000 != 0)
    throw std::invalid_argument("query_to_dsl: window not a whole ms");
  os << " | window(" << q.window_ns / 1'000'000 << "ms)";
  if (q.row_partitions > 1) os << " | partitions(" << q.row_partitions << ")";
  for (std::size_t bi = 0; bi < q.branches.size(); ++bi) {
    if (bi > 0) {
      os << " | branch(";
      if (q.branches[bi].name.empty())
        os << "b" << bi;
      else
        os << q.branches[bi].name;
      os << ")";
    }
    for (const Primitive& p : q.branches[bi].primitives) {
      os << " | ";
      emit_primitive(os, p);
    }
  }
  return os.str();
}

std::string dump_query(const Query& q) {
  std::ostringstream os;
  os << "query " << q.name << "  (sketch " << q.sketch_depth << "x"
     << q.sketch_width;
  if (q.row_partitions > 1) os << " x" << q.row_partitions << " partitions";
  os << ", window " << q.window_ns / 1'000'000 << "ms)\n";
  for (const BranchDef& b : q.branches) {
    os << "  " << b.name << ": ";
    for (std::size_t i = 0; i < b.primitives.size(); ++i) {
      if (i) os << " -> ";
      os << prim_name(b.primitives[i]);
    }
    os << "\n";
  }
  return os.str();
}

std::string dump_compiled(const CompiledQuery& cq) {
  std::ostringstream os;
  os << "compiled " << cq.name << ": " << cq.num_modules() << " module rules, "
     << cq.num_stages() << " stages, " << cq.num_init_entries()
     << " init entries\n";
  for (const auto& b : cq.branches) {
    os << "  branch " << b.name << " (group " << b.chain_group << ")\n";
    std::map<int, std::vector<std::string>> by_stage;
    for (const ModuleSpec& m : b.modules) {
      std::ostringstream cell;
      cell << module_name(m.type) << "[set" << m.set << ",p" << m.prim << "."
           << m.suite << "]";
      by_stage[m.stage].push_back(cell.str());
    }
    for (const auto& [stage, cells] : by_stage) {
      os << "    stage " << stage << ":";
      for (const auto& c : cells) os << " " << c;
      os << "\n";
    }
  }
  return os.str();
}

std::string dump_switch(const NewtonSwitch& sw) {
  std::ostringstream os;
  os << "switch " << sw.id() << ": " << sw.installed_rule_count()
     << " rules, " << sw.slots_used() << " module slots over "
     << sw.stages_used() << " stages\n";
  const auto& inst = sw.modules();
  for (std::size_t s = 0; s < sw.num_stages(); ++s) {
    const std::size_t k = inst.k[s]->table().size();
    const std::size_t h = inst.h[s]->table().size();
    const std::size_t st = inst.s[s]->table().size();
    const std::size_t r = inst.r[s]->table().size();
    if (k + h + st + r == 0) continue;
    os << "  stage " << s << ": K=" << k << " H=" << h << " S=" << st
       << " R=" << r << "\n";
  }
  return os.str();
}

}  // namespace newton
