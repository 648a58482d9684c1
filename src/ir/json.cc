#include "src/ir/json.h"

#include <cstdio>

#include "src/base/strings.h"

namespace cqac {

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

namespace {

std::string TermToJson(const Query& owner, const Term& t) {
  if (t.is_var())
    return StrCat("{\"kind\":\"var\",\"name\":",
                  JsonQuote(owner.VarName(t.var())), "}");
  if (t.value().is_number())
    return StrCat("{\"kind\":\"number\",\"value\":",
                  JsonQuote(t.value().number().ToString()), "}");
  return StrCat("{\"kind\":\"symbol\",\"value\":",
                JsonQuote(t.value().symbol()), "}");
}

std::string AtomToJson(const Query& owner, const Atom& a) {
  std::vector<std::string> args;
  args.reserve(a.args.size());
  for (const Term& t : a.args) args.push_back(TermToJson(owner, t));
  return StrCat("{\"predicate\":", JsonQuote(a.predicate), ",\"args\":[",
                Join(args, ","), "]}");
}

std::string ComparisonToJson(const Query& owner, const Comparison& c) {
  return StrCat("{\"lhs\":", TermToJson(owner, c.lhs), ",\"op\":",
                JsonQuote(CompOpName(c.op)), ",\"rhs\":",
                TermToJson(owner, c.rhs), "}");
}

std::string QueryToJson(const Query& q) {
  std::vector<std::string> body;
  body.reserve(q.body().size());
  for (const Atom& a : q.body()) body.push_back(AtomToJson(q, a));
  std::vector<std::string> comps;
  comps.reserve(q.comparisons().size());
  for (const Comparison& c : q.comparisons())
    comps.push_back(ComparisonToJson(q, c));
  return StrCat("{\"head\":", AtomToJson(q, q.head()), ",\"body\":[",
                Join(body, ","), "],\"comparisons\":[", Join(comps, ","),
                "]}");
}

}  // namespace

std::string UnionQueryToJson(const UnionQuery& u) {
  std::vector<std::string> parts;
  parts.reserve(u.disjuncts.size());
  for (const Query& q : u.disjuncts) parts.push_back(QueryToJson(q));
  return StrCat("{\"disjuncts\":[", Join(parts, ","), "]}");
}

}  // namespace cqac
