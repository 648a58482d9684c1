#include "src/ir/parser.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "src/base/strings.h"

namespace cqac {
namespace {

enum class TokKind {
  kIdent,    // identifier (variable, symbol or predicate)
  kNumber,   // numeric literal
  kLParen,
  kRParen,
  kComma,
  kArrow,    // :-
  kDot,
  kLt,
  kLe,
  kGt,
  kGe,
  kEq,
  kError,    // a character outside the grammar; text is the lexer's message
  kEnd,
};

struct Token {
  TokKind kind;
  std::string text;
  size_t pos = 0;  // byte offset of the first character
  size_t end = 0;  // byte offset one past the last character
};

class Lexer {
 public:
  Lexer(const std::string& text, const LineMap& lines)
      : text_(text), lines_(lines) {}

  /// Tokenizes the whole text. A character outside the grammar becomes a
  /// kError token and lexing resumes after it; the returned Status is the
  /// first such error, with its position.
  Status Tokenize(std::vector<Token>* out) {
    Status first_error;
    size_t i = 0;
    const size_t n = text_.size();
    while (i < n) {
      char c = text_[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (c == '%') {  // comment to end of line
        while (i < n && text_[i] != '\n') ++i;
        continue;
      }
      size_t start = i;
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        while (i < n && (std::isalnum(static_cast<unsigned char>(text_[i])) ||
                         text_[i] == '_'))
          ++i;
        out->push_back(
            {TokKind::kIdent, text_.substr(start, i - start), start, i});
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) ||
          (c == '-' && i + 1 < n &&
           std::isdigit(static_cast<unsigned char>(text_[i + 1])))) {
        ++i;  // sign or first digit
        while (i < n && std::isdigit(static_cast<unsigned char>(text_[i]))) ++i;
        // Decimal point followed by a digit belongs to the number; a bare
        // '.' is a rule terminator.
        if (i + 1 < n && text_[i] == '.' &&
            std::isdigit(static_cast<unsigned char>(text_[i + 1]))) {
          ++i;
          while (i < n && std::isdigit(static_cast<unsigned char>(text_[i])))
            ++i;
        } else if (i + 1 < n && text_[i] == '/' &&
                   std::isdigit(static_cast<unsigned char>(text_[i + 1]))) {
          ++i;
          while (i < n && std::isdigit(static_cast<unsigned char>(text_[i])))
            ++i;
        }
        out->push_back(
            {TokKind::kNumber, text_.substr(start, i - start), start, i});
        continue;
      }
      std::string error;  // set by the cases that do not lex
      switch (c) {
        case '(':
          out->push_back({TokKind::kLParen, "(", start, start + 1});
          ++i;
          continue;
        case ')':
          out->push_back({TokKind::kRParen, ")", start, start + 1});
          ++i;
          continue;
        case ',':
          out->push_back({TokKind::kComma, ",", start, start + 1});
          ++i;
          continue;
        case '.':
          out->push_back({TokKind::kDot, ".", start, start + 1});
          ++i;
          continue;
        case ':':
          if (i + 1 < n && text_[i + 1] == '-') {
            out->push_back({TokKind::kArrow, ":-", start, start + 2});
            i += 2;
            continue;
          }
          error = "expected ':-'";
          break;
        case '<':
          if (i + 1 < n && text_[i + 1] == '=') {
            out->push_back({TokKind::kLe, "<=", start, start + 2});
            i += 2;
          } else {
            out->push_back({TokKind::kLt, "<", start, start + 1});
            ++i;
          }
          continue;
        case '>':
          if (i + 1 < n && text_[i + 1] == '=') {
            out->push_back({TokKind::kGe, ">=", start, start + 2});
            i += 2;
          } else {
            out->push_back({TokKind::kGt, ">", start, start + 1});
            ++i;
          }
          continue;
        case '=':
          out->push_back({TokKind::kEq, "=", start, start + 1});
          ++i;
          continue;
        case '!':
          error =
              "'!=' comparisons are outside the CQAC fragment "
              "(the paper's theta is in {<, <=, >, >=})";
          break;
        default:
          error = StrCat("unexpected character '", c, "'");
      }
      if (first_error.ok())
        first_error = Status::InvalidArgument(
            StrCat("at ", lines_.At(start).ToString(), ": ", error));
      out->push_back({TokKind::kError, std::move(error), start, start + 1});
      ++i;
    }
    out->push_back({TokKind::kEnd, "", n, n});
    return first_error;
  }

 private:
  const std::string& text_;
  const LineMap& lines_;
};

bool IsVariableName(const std::string& ident) {
  return !ident.empty() &&
         (std::isupper(static_cast<unsigned char>(ident[0])) ||
          ident[0] == '_');
}

class Parser {
 public:
  Parser(std::vector<Token> tokens, const LineMap& lines)
      : toks_(std::move(tokens)), lines_(lines) {}

  Result<std::vector<ParsedQuery>> ParseProgram() {
    std::vector<ParsedQuery> rules;
    while (!At(TokKind::kEnd)) {
      ParsedQuery pq;
      CQAC_RETURN_IF_ERROR(ParseRuleInto(&pq));
      rules.push_back(std::move(pq));
      if (At(TokKind::kDot)) ++i_;
    }
    return rules;
  }

  ParsedProgram ParseProgramRecovering() {
    ParsedProgram out;
    while (!At(TokKind::kEnd)) {
      ParsedQuery pq;
      Status st = ParseRuleInto(&pq);
      if (st.ok() && !At(TokKind::kError)) {
        out.rules.push_back(std::move(pq));
        if (At(TokKind::kDot)) ++i_;
        continue;
      }
      // A lexer error token fails the rule it sits in with the lexer's own
      // message. Any other Status message carries an "at line:col: " prefix
      // for callers that only see the string; the diagnostic's span already
      // encodes the position, so strip the prefix rather than print it
      // twice.
      std::string msg = st.message();
      if (At(TokKind::kError)) {
        msg = Cur().text;
      } else if (msg.rfind("at ", 0) == 0) {
        size_t colon = msg.find(": ", 3);
        if (colon != std::string::npos) msg = msg.substr(colon + 2);
      }
      out.errors.push_back({SpanOf(Cur()), std::move(msg)});
      // Recover: skip to just past the next '.' and try the next rule.
      while (!At(TokKind::kEnd) && !At(TokKind::kDot)) ++i_;
      if (At(TokKind::kDot)) ++i_;
    }
    return out;
  }

  Result<ParsedQuery> ParseSingle() {
    ParsedQuery pq;
    CQAC_RETURN_IF_ERROR(ParseRuleInto(&pq));
    if (At(TokKind::kDot)) ++i_;
    if (!At(TokKind::kEnd))
      return Status::InvalidArgument(
          StrCat("trailing input after rule at ",
                 lines_.At(Cur().pos).ToString()));
    return pq;
  }

 private:
  const Token& Cur() const { return toks_[i_]; }
  bool At(TokKind k) const { return Cur().kind == k; }

  SourceSpan SpanOf(const Token& t) const {
    return {lines_.At(t.pos), lines_.At(t.end)};
  }
  SourceSpan SpanBetween(const Token& from, const Token& to) const {
    return {lines_.At(from.pos), lines_.At(to.end)};
  }

  Status ErrHere(const std::string& msg) {
    return Status::InvalidArgument(
        StrCat("at ", lines_.At(Cur().pos).ToString(), ": ", msg));
  }

  Status Expect(TokKind k, const char* what) {
    if (!At(k))
      return ErrHere(StrCat("expected ", what, ", got '",
                            Cur().text.empty() ? "end of input" : Cur().text,
                            "'"));
    ++i_;
    return Status::OK();
  }

  Status ParseRuleInto(ParsedQuery* pq) {
    Query* q = &pq->query;
    QuerySourceInfo* info = &pq->info;
    const Token& first = Cur();
    CQAC_RETURN_IF_ERROR(ParseAtom(pq, &q->head(), &info->head));
    if (At(TokKind::kDot) || At(TokKind::kEnd)) {  // fact
      info->rule = SpanBetween(first, toks_[i_ > 0 ? i_ - 1 : 0]);
      return Status::OK();
    }
    CQAC_RETURN_IF_ERROR(Expect(TokKind::kArrow, "':-'"));
    while (true) {
      CQAC_RETURN_IF_ERROR(ParseItem(pq));
      if (At(TokKind::kComma)) {
        ++i_;
        continue;
      }
      break;
    }
    info->rule = SpanBetween(first, toks_[i_ > 0 ? i_ - 1 : 0]);
    return Status::OK();
  }

  // An item is an atom or a comparison; both can begin with an identifier,
  // so we look ahead: IDENT '(' starts an atom.
  Status ParseItem(ParsedQuery* pq) {
    if (At(TokKind::kIdent) && i_ + 1 < toks_.size() &&
        toks_[i_ + 1].kind == TokKind::kLParen) {
      Atom a;
      SourceSpan span;
      CQAC_RETURN_IF_ERROR(ParseAtom(pq, &a, &span));
      pq->query.AddBodyAtom(std::move(a));
      pq->info.body.push_back(span);
      return Status::OK();
    }
    return ParseComparison(pq);
  }

  Status ParseAtom(ParsedQuery* pq, Atom* out, SourceSpan* span) {
    const Token& first = Cur();
    if (!At(TokKind::kIdent)) return ErrHere("expected predicate name");
    out->predicate = Cur().text;
    ++i_;
    CQAC_RETURN_IF_ERROR(Expect(TokKind::kLParen, "'('"));
    out->args.clear();
    if (At(TokKind::kRParen)) {
      *span = SpanBetween(first, Cur());
      ++i_;
      return Status::OK();
    }
    while (true) {
      Term t = Term::Const(Value(std::string("?")));
      CQAC_RETURN_IF_ERROR(ParseTerm(pq, &t));
      out->args.push_back(t);
      if (At(TokKind::kComma)) {
        ++i_;
        continue;
      }
      break;
    }
    if (!At(TokKind::kRParen)) return Expect(TokKind::kRParen, "')'");
    *span = SpanBetween(first, Cur());
    ++i_;
    return Status::OK();
  }

  Status ParseTerm(ParsedQuery* pq, Term* out) {
    Query* q = &pq->query;
    if (At(TokKind::kIdent)) {
      const std::string& name = Cur().text;
      if (IsVariableName(name)) {
        bool fresh = q->FindVariable(name) < 0;
        *out = Term::Var(q->FindOrAddVariable(name));
        if (fresh) pq->info.var_first_use.push_back(SpanOf(Cur()));
      } else {
        *out = Term::Const(Value(name));
      }
      ++i_;
      return Status::OK();
    }
    if (At(TokKind::kNumber)) {
      Result<Rational> r = Rational::Parse(Cur().text);
      if (!r.ok())
        return ErrHere(StrCat("bad number '", Cur().text, "': ",
                              r.status().message()));
      *out = Term::Const(Value(std::move(r).value()));
      ++i_;
      return Status::OK();
    }
    return ErrHere(StrCat("expected term, got '",
                          Cur().text.empty() ? "end of input" : Cur().text,
                          "'"));
  }

  Status ParseComparison(ParsedQuery* pq) {
    Query* q = &pq->query;
    const Token& first = Cur();
    Term lhs = Term::Const(Value(std::string("?")));
    CQAC_RETURN_IF_ERROR(ParseTerm(pq, &lhs));
    TokKind op = Cur().kind;
    if (op != TokKind::kLt && op != TokKind::kLe && op != TokKind::kGt &&
        op != TokKind::kGe && op != TokKind::kEq)
      return ErrHere("expected comparison operator");
    ++i_;
    Term rhs = Term::Const(Value(std::string("?")));
    CQAC_RETURN_IF_ERROR(ParseTerm(pq, &rhs));
    // Normalize > and >= by swapping sides.
    switch (op) {
      case TokKind::kLt:
        q->AddComparison(Comparison(lhs, CompOp::kLt, rhs));
        break;
      case TokKind::kLe:
        q->AddComparison(Comparison(lhs, CompOp::kLe, rhs));
        break;
      case TokKind::kGt:
        q->AddComparison(Comparison(rhs, CompOp::kLt, lhs));
        break;
      case TokKind::kGe:
        q->AddComparison(Comparison(rhs, CompOp::kLe, lhs));
        break;
      case TokKind::kEq:
        q->AddComparison(Comparison(lhs, CompOp::kEq, rhs));
        break;
      default:
        return Status::Internal("unreachable comparison op");
    }
    pq->info.comparisons.push_back(
        SpanBetween(first, toks_[i_ > 0 ? i_ - 1 : 0]));
    return Status::OK();
  }

  std::vector<Token> toks_;
  const LineMap& lines_;
  size_t i_ = 0;
};

}  // namespace

Result<Query> ParseQuery(const std::string& text) {
  CQAC_ASSIGN_OR_RETURN(ParsedQuery pq, ParseQueryWithInfo(text));
  return std::move(pq.query);
}

Result<ParsedQuery> ParseQueryWithInfo(const std::string& text) {
  LineMap lines(text);
  std::vector<Token> toks;
  Status st = Lexer(text, lines).Tokenize(&toks);
  if (!st.ok()) return st;
  return Parser(std::move(toks), lines).ParseSingle();
}

Result<std::vector<Query>> ParseRules(const std::string& text) {
  LineMap lines(text);
  std::vector<Token> toks;
  Status st = Lexer(text, lines).Tokenize(&toks);
  if (!st.ok()) return st;
  CQAC_ASSIGN_OR_RETURN(std::vector<ParsedQuery> parsed,
                        Parser(std::move(toks), lines).ParseProgram());
  std::vector<Query> out;
  out.reserve(parsed.size());
  for (ParsedQuery& pq : parsed) out.push_back(std::move(pq.query));
  return out;
}

ParsedProgram ParseProgramWithDiagnostics(const std::string& text) {
  LineMap lines(text);
  std::vector<Token> toks;
  // The lexer's errors stay in the stream as kError tokens, which the
  // recovering parser reports with their spans.
  (void)Lexer(text, lines).Tokenize(&toks);
  return Parser(std::move(toks), lines).ParseProgramRecovering();
}

Query MustParseQuery(const std::string& text) {
  Result<Query> r = ParseQuery(text);
  if (!r.ok()) {
    std::fprintf(stderr, "MustParseQuery(\"%s\"): %s\n", text.c_str(),
                 r.status().ToString().c_str());
    std::abort();
  }
  return std::move(r).value();
}

std::vector<Query> MustParseRules(const std::string& text) {
  Result<std::vector<Query>> r = ParseRules(text);
  if (!r.ok()) {
    std::fprintf(stderr, "MustParseRules: %s\n", r.status().ToString().c_str());
    std::abort();
  }
  return std::move(r).value();
}

}  // namespace cqac
