#include "trace/buffer.hpp"

#include <algorithm>
#include <cinttypes>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace ac::trace {

void pack_record(const TraceRecord& r, SymbolPool& pool, std::vector<PackedRecord>& records,
                 std::vector<PackedOperand>& operands) {
  PackedRecord rec;
  rec.dyn_id = r.dyn_id;
  rec.func = pool.intern(r.func);
  rec.bb = pool.intern(r.bb);
  rec.line = r.line;
  rec.opcode = r.opcode;
  if (operands.size() + r.operands.size() > 0xffffffffull) {
    throw TraceFormatError("trace exceeds the 4G-operand TraceBuffer capacity");
  }
  rec.op_offset = static_cast<std::uint32_t>(operands.size());
  rec.op_count = static_cast<std::uint32_t>(r.operands.size());
  for (const Operand& op : r.operands) {
    PackedOperand p;
    p.raw = PackedOperand::raw_of(op.value);
    p.name = pool.intern(op.name);
    p.index = op.index;
    p.bits = op.bits;
    p.flags = PackedOperand::pack_flags(op.slot, op.value.kind, op.is_reg);
    operands.push_back(p);
  }
  records.push_back(rec);
}

TraceRecord RecordView::materialize() const {
  TraceRecord out;
  out.line = rec_->line;
  out.func = std::string(func());
  out.bb = std::string(bb());
  out.opcode = rec_->opcode;
  out.dyn_id = rec_->dyn_id;
  out.operands.reserve(rec_->op_count);
  for (const PackedOperand* op = ops_; op != operands_end(); ++op) {
    Operand o;
    o.slot = op->slot();
    o.index = op->index;
    o.bits = op->bits;
    o.value = op->value();
    o.is_reg = op->is_reg();
    o.name = std::string(name(*op));
    out.operands.push_back(std::move(o));
  }
  return out;
}

std::string RecordView::to_text() const {
  // Must stay byte-identical to TraceRecord::to_text() — the round-trip
  // property tests pin this.
  std::string out = strf("0,%d,%.*s,%.*s,%d,%" PRIu64 "\n", rec_->line,
                         static_cast<int>(func().size()), func().data(),
                         static_cast<int>(bb().size()), bb().data(),
                         static_cast<int>(rec_->opcode), rec_->dyn_id);
  for (const PackedOperand* op = ops_; op != operands_end(); ++op) {
    std::string slot;
    switch (op->slot()) {
      case OperandSlot::Input: slot = strf("%d", op->index); break;
      case OperandSlot::Callee: slot = "0"; break;
      case OperandSlot::Param: slot = "f"; break;
      case OperandSlot::Result: slot = "r"; break;
    }
    const std::string_view nm = name(*op);
    out += strf("%s,%d,%s,%d,%.*s\n", slot.c_str(), op->bits,
                value_to_text(op->value()).c_str(), op->is_reg() ? 1 : 0,
                nm.empty() ? 1 : static_cast<int>(nm.size()), nm.empty() ? " " : nm.data());
  }
  return out;
}

namespace {

/// Room for `extra` more elements, growing by at least half the current
/// capacity: an exact-fit reserve would re-copy the whole accumulated array
/// on every append of a many-chunk merge.
template <class T>
void reserve_for_append(std::vector<T>& v, std::size_t extra) {
  const std::size_t need = v.size() + extra;
  if (need > v.capacity()) v.reserve(std::max(need, v.capacity() + v.capacity() / 2));
}

}  // namespace

void TraceBuffer::append_buffer(const TraceBuffer& other) {
  append_remapped(other, pool_.merge(other.pool_));
}

void TraceBuffer::append_remapped(const TraceBuffer& other,
                                  const std::vector<std::uint32_t>& remap) {
  auto remap_id = [&](std::uint32_t id) {
    return id == SymbolPool::npos ? SymbolPool::npos : remap[id];
  };
  if (operands_.size() + other.operands_.size() > 0xffffffffull) {
    throw TraceFormatError("trace exceeds the 4G-operand TraceBuffer capacity");
  }
  const auto op_base = static_cast<std::uint32_t>(operands_.size());
  reserve_for_append(operands_, other.operands_.size());
  for (PackedOperand op : other.operands_) {
    op.name = remap_id(op.name);
    operands_.push_back(op);
  }
  reserve_for_append(records_, other.records_.size());
  for (PackedRecord rec : other.records_) {
    rec.func = remap_id(rec.func);
    rec.bb = remap_id(rec.bb);
    rec.op_offset += op_base;
    records_.push_back(rec);
  }
}

}  // namespace ac::trace
