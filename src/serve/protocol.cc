#include "src/serve/protocol.h"

#include <cmath>

#include "src/base/strings.h"
#include "src/ir/json.h"

namespace cqac {
namespace serve {

const char* ServeErrorCodeName(ServeErrorCode code) {
  switch (code) {
    case ServeErrorCode::kParseError: return "parse_error";
    case ServeErrorCode::kInvalidRequest: return "invalid_request";
    case ServeErrorCode::kUnknownOp: return "unknown_op";
    case ServeErrorCode::kInvalidArgument: return "invalid_argument";
    case ServeErrorCode::kInconsistent: return "inconsistent";
    case ServeErrorCode::kNotFound: return "not_found";
    case ServeErrorCode::kUnsupported: return "unsupported";
    case ServeErrorCode::kResourceExhausted: return "resource_exhausted";
    case ServeErrorCode::kTooLarge: return "too_large";
    case ServeErrorCode::kOverloaded: return "overloaded";
    case ServeErrorCode::kShuttingDown: return "shutting_down";
    case ServeErrorCode::kInternal: return "internal";
  }
  return "internal";
}

ServeErrorCode ServeErrorCodeFromStatus(StatusCode code) {
  switch (code) {
    case StatusCode::kInvalidArgument: return ServeErrorCode::kInvalidArgument;
    case StatusCode::kInconsistent: return ServeErrorCode::kInconsistent;
    case StatusCode::kNotFound: return ServeErrorCode::kNotFound;
    case StatusCode::kUnsupported: return ServeErrorCode::kUnsupported;
    case StatusCode::kResourceExhausted:
      return ServeErrorCode::kResourceExhausted;
    case StatusCode::kOk:
    case StatusCode::kInternal:
      return ServeErrorCode::kInternal;
  }
  return ServeErrorCode::kInternal;
}

Result<std::string> Request::GetString(const char* key) const {
  const JsonValue* v = body.Find(key);
  if (v == nullptr || !v->is_string())
    return Status::InvalidArgument(
        StrCat("op '", op, "' requires string field \"", key, "\""));
  return v->string_value();
}

Result<std::string> Request::GetStringOr(const char* key,
                                         const std::string& fallback) const {
  const JsonValue* v = body.Find(key);
  if (v == nullptr) return fallback;
  if (!v->is_string())
    return Status::InvalidArgument(
        StrCat("field \"", key, "\" of op '", op, "' must be a string"));
  return v->string_value();
}

Result<Request> ParseRequestEnvelope(JsonValue root) {
  auto fail = [](std::string msg) -> Result<Request> {
    return Status::InvalidArgument(StrCat("request: ", std::move(msg)));
  };

  if (!root.is_object()) return fail("must be a JSON object");

  Request out;
  out.body = std::move(root);

  const JsonValue* op = out.body.Find("op");
  if (op == nullptr || !op->is_string() || op->string_value().empty())
    return fail("missing required string field \"op\"");
  out.op = op->string_value();

  if (const JsonValue* session = out.body.Find("session")) {
    if (!session->is_string() || session->string_value().empty())
      return fail("field \"session\" must be a non-empty string");
    if (session->string_value().size() > 128)
      return fail("session name too long (max 128 bytes)");
    out.session = session->string_value();
  }

  if (const JsonValue* id = out.body.Find("id")) {
    if (id->is_string()) {
      out.id_json = JsonQuote(id->string_value());
    } else if (id->is_number() && std::nearbyint(id->number_value()) ==
                                      id->number_value() &&
               std::abs(id->number_value()) < 1e15) {
      out.id_json = StrCat(static_cast<int64_t>(id->number_value()));
    } else {
      return fail("field \"id\" must be an integer or a string");
    }
  }

  if (const JsonValue* timeout = out.body.Find("timeout_ms")) {
    if (!timeout->is_number() || timeout->number_value() < 0 ||
        std::nearbyint(timeout->number_value()) != timeout->number_value())
      return fail("field \"timeout_ms\" must be a non-negative integer");
    // Casting a value past int64_t is undefined; it saturates instead, and
    // the service clamps it to max_timeout like any other large timeout.
    out.timeout = timeout->number_value() >= 0x1p63
                      ? std::chrono::milliseconds::max()
                      : std::chrono::milliseconds(static_cast<int64_t>(
                            timeout->number_value()));
  }

  return out;
}

std::string BeginResponse(const Request& req) {
  std::string out = StrCat("{\"ok\":true,\"op\":", JsonQuote(req.op));
  if (!req.id_json.empty()) out += StrCat(",\"id\":", req.id_json);
  return out;
}

void JsonField(std::string* out, const char* key, const std::string& raw) {
  *out += StrCat(",\"", key, "\":", raw);
}

void JsonClose(std::string* out) { *out += "}\n"; }

std::string ErrorResponse(const Request* req, ServeErrorCode code,
                          const std::string& message) {
  std::string out = "{\"ok\":false";
  if (req != nullptr) {
    JsonField(&out, "op", JsonQuote(req->op));
    if (!req->id_json.empty()) JsonField(&out, "id", req->id_json);
  }
  JsonField(&out, "error",
            StrCat("{\"code\":\"", ServeErrorCodeName(code),
                   "\",\"message\":", JsonQuote(message), "}"));
  JsonClose(&out);
  return out;
}

std::string ErrorResponse(const Request& req, const Status& status) {
  return ErrorResponse(&req, ServeErrorCodeFromStatus(status.code()),
                       status.ToString());
}

}  // namespace serve
}  // namespace cqac
