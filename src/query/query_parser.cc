#include "query/query_parser.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/strings.h"

namespace domd {
namespace {

// Token stream: upper-cased words, numbers, quoted strings, punctuation.
struct Token {
  enum class Kind { kWord, kNumber, kString, kSymbol, kEnd };
  Kind kind = Kind::kEnd;
  std::string text;   ///< upper-cased for words; raw for strings.
  double number = 0;
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  StatusOr<std::vector<Token>> Tokenize() {
    std::vector<Token> tokens;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c))) {
        Token token;
        token.kind = Token::Kind::kWord;
        while (pos_ < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '_')) {
          token.text.push_back(static_cast<char>(
              std::toupper(static_cast<unsigned char>(text_[pos_]))));
          ++pos_;
        }
        tokens.push_back(std::move(token));
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) || c == '-' ||
          c == '.') {
        Token token;
        token.kind = Token::Kind::kNumber;
        std::string digits;
        if (c == '-') {
          digits.push_back(c);
          ++pos_;
        }
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.')) {
          digits.push_back(text_[pos_]);
          ++pos_;
        }
        // Checked parse: the digit sweep admits shapes strtod would
        // silently truncate ("1.2.3" parsed as 1.2); reject them instead.
        const auto number = ParseDouble(digits);
        if (!number.ok()) {
          return Status::InvalidArgument("bad number in query: \"" + digits +
                                         "\"");
        }
        token.number = *number;
        token.text = digits;
        tokens.push_back(std::move(token));
        continue;
      }
      if (c == '\'' || c == '"') {
        const char quote = c;
        ++pos_;
        Token token;
        token.kind = Token::Kind::kString;
        while (pos_ < text_.size() && text_[pos_] != quote) {
          token.text.push_back(text_[pos_]);
          ++pos_;
        }
        if (pos_ >= text_.size()) {
          return Status::InvalidArgument("unterminated string in query");
        }
        ++pos_;  // closing quote
        tokens.push_back(std::move(token));
        continue;
      }
      if (c == '(' || c == ')' || c == '=' || c == ',') {
        Token token;
        token.kind = Token::Kind::kSymbol;
        token.text.push_back(c);
        ++pos_;
        tokens.push_back(std::move(token));
        continue;
      }
      return Status::InvalidArgument(std::string("unexpected character '") +
                                     c + "' in query");
    }
    tokens.push_back(Token{});  // kEnd
    return tokens;
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  StatusOr<ParsedStatusQuery> Parse() {
    ParsedStatusQuery parsed;
    DOMD_RETURN_IF_ERROR(ExpectWord("SELECT"));
    DOMD_RETURN_IF_ERROR(ParseAggregate(&parsed.query));
    DOMD_RETURN_IF_ERROR(ExpectWord("FROM"));
    DOMD_RETURN_IF_ERROR(ExpectWord("RCC"));
    DOMD_RETURN_IF_ERROR(ExpectWord("WHERE"));
    DOMD_RETURN_IF_ERROR(ParsePredicates(&parsed.query));
    if (ConsumeWord("GROUP")) {
      DOMD_RETURN_IF_ERROR(ExpectWord("BY"));
      GroupBySpec spec;
      DOMD_RETURN_IF_ERROR(ParseGroupBy(&spec));
      if (parsed.query.type_filter.has_value() && spec.by_type) {
        return Status::InvalidArgument(
            "cannot both filter and group by TYPE");
      }
      if (parsed.query.swlin_level != 0 && spec.swlin_level != 0) {
        return Status::InvalidArgument(
            "cannot both filter and group by SWLIN");
      }
      parsed.group_by = spec;
    }
    DOMD_RETURN_IF_ERROR(ExpectWord("AT"));
    if (Peek().kind != Token::Kind::kNumber) {
      return Status::InvalidArgument("expected a logical time after AT");
    }
    parsed.t_star = Next().number;
    if (Peek().kind != Token::Kind::kEnd) {
      return Status::InvalidArgument("trailing tokens after AT <t*>");
    }
    return parsed;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Next() { return tokens_[pos_++]; }

  bool ConsumeWord(std::string_view word) {
    if (Peek().kind == Token::Kind::kWord && Peek().text == word) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ExpectWord(std::string_view word) {
    if (!ConsumeWord(word)) {
      return Status::InvalidArgument("expected keyword " + std::string(word));
    }
    return Status::OK();
  }

  Status ExpectSymbol(char symbol) {
    if (Peek().kind == Token::Kind::kSymbol && Peek().text[0] == symbol) {
      ++pos_;
      return Status::OK();
    }
    return Status::InvalidArgument(std::string("expected '") + symbol + "'");
  }

  Status ParseAggregate(StatusQuery* query) {
    if (ConsumeWord("COUNT")) {
      query->aggregate = AggregateFn::kCount;
      // Optional empty parens: COUNT().
      if (Peek().kind == Token::Kind::kSymbol && Peek().text == "(") {
        ++pos_;
        DOMD_RETURN_IF_ERROR(ExpectSymbol(')'));
      }
      return Status::OK();
    }
    AggregateFn fn;
    if (ConsumeWord("SUM")) {
      fn = AggregateFn::kSum;
    } else if (ConsumeWord("AVG")) {
      fn = AggregateFn::kAvg;
    } else if (ConsumeWord("MAX")) {
      fn = AggregateFn::kMax;
    } else {
      return Status::InvalidArgument("expected COUNT, SUM, AVG, or MAX");
    }
    DOMD_RETURN_IF_ERROR(ExpectSymbol('('));
    if (ConsumeWord("AMOUNT") || ConsumeWord("AMT") ||
        ConsumeWord("SETTLED_AMOUNT")) {
      query->attribute = RccAttribute::kSettledAmount;
    } else if (ConsumeWord("DURATION") || ConsumeWord("DUR")) {
      query->attribute = RccAttribute::kDuration;
    } else {
      return Status::InvalidArgument("expected AMOUNT or DURATION");
    }
    DOMD_RETURN_IF_ERROR(ExpectSymbol(')'));
    query->aggregate = fn;
    return Status::OK();
  }

  Status ParseGroupBy(GroupBySpec* spec) {
    do {
      if (ConsumeWord("TYPE")) {
        spec->by_type = true;
      } else if (ConsumeWord("SWLIN")) {
        DOMD_RETURN_IF_ERROR(ExpectSymbol('('));
        if (Peek().kind != Token::Kind::kNumber ||
            (Peek().number != 1.0 && Peek().number != 2.0)) {
          return Status::InvalidArgument("SWLIN level must be 1 or 2");
        }
        spec->swlin_level = static_cast<int>(Next().number);
        DOMD_RETURN_IF_ERROR(ExpectSymbol(')'));
      } else {
        return Status::InvalidArgument(
            "GROUP BY dimension must be TYPE or SWLIN(level)");
      }
    } while (Peek().kind == Token::Kind::kSymbol && Peek().text == "," &&
             (++pos_, true));
    if (spec->by_type && spec->swlin_level == 2) {
      return Status::InvalidArgument(
          "type x level-2 SWLIN groups are not materialized");
    }
    return Status::OK();
  }

  Status ParsePredicates(StatusQuery* query) {
    bool has_status = false;
    do {
      if (ConsumeWord("STATUS")) {
        DOMD_RETURN_IF_ERROR(ExpectSymbol('='));
        if (ConsumeWord("ACTIVE")) {
          query->category = RccStatusCategory::kActive;
        } else if (ConsumeWord("SETTLED")) {
          query->category = RccStatusCategory::kSettled;
        } else if (ConsumeWord("CREATED")) {
          query->category = RccStatusCategory::kCreated;
        } else {
          return Status::InvalidArgument(
              "STATUS must be ACTIVE, SETTLED, or CREATED");
        }
        has_status = true;
      } else if (ConsumeWord("TYPE")) {
        DOMD_RETURN_IF_ERROR(ExpectSymbol('='));
        if (Peek().kind != Token::Kind::kWord) {
          return Status::InvalidArgument("TYPE must be G, N, or NG");
        }
        auto type = RccTypeFromCode(Next().text);
        if (!type.ok()) return type.status();
        query->type_filter = *type;
      } else if (ConsumeWord("SWLIN")) {
        DOMD_RETURN_IF_ERROR(ExpectWord("LIKE"));
        if (Peek().kind != Token::Kind::kString) {
          return Status::InvalidArgument("SWLIN LIKE needs a quoted pattern");
        }
        const std::string pattern = Next().text;
        if (pattern.size() < 2 || pattern.back() != '%') {
          return Status::InvalidArgument(
              "SWLIN pattern must be 'D%' or 'DD%'");
        }
        const std::string prefix = pattern.substr(0, pattern.size() - 1);
        if (prefix.size() > 2) {
          return Status::InvalidArgument(
              "only level-1/level-2 SWLIN prefixes are materialized");
        }
        for (char c : prefix) {
          if (!std::isdigit(static_cast<unsigned char>(c))) {
            return Status::InvalidArgument("SWLIN prefix must be digits");
          }
        }
        query->swlin_level = static_cast<int>(prefix.size());
        query->swlin_prefix = std::atoll(prefix.c_str());
      } else if (ConsumeWord("AVAIL")) {
        DOMD_RETURN_IF_ERROR(ExpectSymbol('='));
        // Checked before the cast: a fractional or huge literal must not
        // reach an undefined double-to-integer conversion, and ids above
        // 2^53 would alias as doubles.
        constexpr double kMaxExactId = 9007199254740991.0;  // 2^53 - 1
        const double id = Peek().number;
        if (Peek().kind != Token::Kind::kNumber || id != std::trunc(id) ||
            std::fabs(id) > kMaxExactId) {
          return Status::InvalidArgument(
              "AVAIL must be an integer id within 2^53 - 1");
        }
        Next();
        query->avail_filter = static_cast<std::int64_t>(id);
      } else {
        return Status::InvalidArgument("unknown predicate in WHERE clause");
      }
    } while (ConsumeWord("AND"));
    if (!has_status) {
      return Status::InvalidArgument(
          "WHERE clause must constrain STATUS (Fig. 3's category)");
    }
    return Status::OK();
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

}  // namespace

StatusOr<ParsedStatusQuery> ParseStatusQuery(std::string_view text) {
  Lexer lexer(text);
  auto tokens = lexer.Tokenize();
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(*tokens));
  return parser.Parse();
}

std::string FormatStatusQuery(const StatusQuery& query, double t_star) {
  std::string out = "SELECT ";
  if (query.aggregate == AggregateFn::kCount) {
    out += "COUNT";
  } else {
    out += AggregateFnToString(query.aggregate);
    out += "(";
    out += query.attribute == RccAttribute::kSettledAmount ? "AMOUNT"
                                                           : "DURATION";
    out += ")";
  }
  out += " FROM RCC WHERE STATUS = ";
  out += RccStatusCategoryToString(query.category);
  if (query.type_filter.has_value()) {
    out += " AND TYPE = ";
    out += RccTypeToCode(*query.type_filter);
  }
  if (query.swlin_level > 0) {
    out += " AND SWLIN LIKE '" + std::to_string(query.swlin_prefix) + "%'";
  }
  if (query.avail_filter.has_value()) {
    out += " AND AVAIL = " + std::to_string(*query.avail_filter);
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%g", t_star);
  out += " AT ";
  out += buffer;
  return out;
}

}  // namespace domd
