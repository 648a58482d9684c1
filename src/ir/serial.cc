#include "src/ir/serial.h"

namespace cqac {

namespace {
constexpr uint8_t kTagRational = 0;
constexpr uint8_t kTagSymbol = 1;
}  // namespace

void SerializeValue(std::string* out, const Value& v) {
  if (v.is_number()) {
    wire::AppendU8(out, kTagRational);
    wire::AppendI64(out, v.number().num());
    wire::AppendI64(out, v.number().den());
  } else {
    wire::AppendU8(out, kTagSymbol);
    wire::AppendString(out, v.symbol());
  }
}

Value DeserializeValue(wire::Cursor* c) {
  uint8_t tag = c->ReadU8();
  if (tag == kTagRational) {
    int64_t num = c->ReadI64();
    int64_t den = c->ReadI64();
    // A zero denominator can only come from corrupt input the CRC somehow
    // missed; keep Rational's invariant rather than aborting.
    if (den == 0) return Value(Rational(0));
    return Value(Rational(num, den));
  }
  std::string sym = c->ReadString();
  return Value(std::move(sym));
}

void SerializeTuple(std::string* out, const std::vector<Value>& tuple) {
  wire::AppendU32(out, static_cast<uint32_t>(tuple.size()));
  for (const Value& v : tuple) SerializeValue(out, v);
}

std::vector<Value> DeserializeTuple(wire::Cursor* c) {
  uint32_t arity = c->ReadU32();
  std::vector<Value> tuple;
  if (!c->ok() || arity > c->remaining()) return tuple;  // min 1 byte/value
  tuple.reserve(arity);
  for (uint32_t i = 0; i < arity && c->ok(); ++i)
    tuple.push_back(DeserializeValue(c));
  return tuple;
}

}  // namespace cqac
