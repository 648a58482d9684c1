// Stable binary serialization of the IR's value layer, which the durable
// store's snapshots use for tuples (src/store, docs/durability.md).
//
// Values and tuples get a compact tagged binary form: rationals as exact
// num/den int64 pairs (never floats — a snapshot must restore the same
// dense-order constants the paper's comparisons range over), symbols as
// length-prefixed bytes. Queries have no binary form: the store logs and
// snapshots each view's rule text verbatim, as the client sent it, and
// re-parses it with ParseQueryWithInfo on recovery, so view rules recover
// byte-identically.
#ifndef CQAC_IR_SERIAL_H_
#define CQAC_IR_SERIAL_H_

#include <string>
#include <vector>

#include "src/base/wire.h"
#include "src/ir/term.h"

namespace cqac {

/// Appends the tagged binary form of `v` (tag 0: rational num/den; tag 1:
/// symbol bytes).
void SerializeValue(std::string* out, const Value& v);

/// Decodes one value. On malformed input the cursor's ok() latch trips and
/// the returned value is unspecified — check `c->ok()` after the batch.
Value DeserializeValue(wire::Cursor* c);

/// A tuple is its arity followed by that many values.
void SerializeTuple(std::string* out, const std::vector<Value>& tuple);
std::vector<Value> DeserializeTuple(wire::Cursor* c);

}  // namespace cqac

#endif  // CQAC_IR_SERIAL_H_
