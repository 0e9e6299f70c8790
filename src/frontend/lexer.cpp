#include "frontend/lexer.h"

#include <cctype>

namespace repro::frontend {

namespace {

constexpr std::string_view kKeywords[] = {
    "int", "long", "float", "double", "void", "for", "while", "do",
    "if", "else", "return", "break", "continue", "const",
    "__protect",
};

bool
isKeyword(std::string_view text)
{
    for (std::string_view k : kKeywords) {
        if (k == text)
            return true;
    }
    return false;
}

// Longest first so that ">>" wins over ">".
constexpr std::string_view kPuncts[] = {
    "<<=", ">>=", "...",
    "==", "!=", "<=", ">=", "&&", "||", "++", "--", "+=", "-=",
    "*=", "/=", "%=", "<<", ">>", "->",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "&", "|", "^", "~",
    "(", ")", "[", "]", "{", "}", ",", ";", "?", ":", ".",
};

} // namespace

std::vector<Token>
lexMiniC(const std::string &source, DiagEngine &diags)
{
    std::vector<Token> tokens;
    size_t pos = 0;
    int line = 1, col = 1;

    auto advance = [&](size_t n) {
        for (size_t i = 0; i < n && pos < source.size(); ++i) {
            if (source[pos] == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
            ++pos;
        }
    };

    while (pos < source.size()) {
        char c = source[pos];
        if (std::isspace(static_cast<unsigned char>(c))) {
            advance(1);
            continue;
        }
        // Comments.
        if (c == '/' && pos + 1 < source.size()) {
            if (source[pos + 1] == '/') {
                while (pos < source.size() && source[pos] != '\n')
                    advance(1);
                continue;
            }
            if (source[pos + 1] == '*') {
                advance(2);
                while (pos + 1 < source.size() &&
                       !(source[pos] == '*' && source[pos + 1] == '/')) {
                    advance(1);
                }
                advance(2);
                continue;
            }
        }
        SourceLoc loc{line, col};
        const size_t offset = pos;
        // Identifiers and keywords.
        if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
            size_t start = pos;
            while (pos < source.size() &&
                   (std::isalnum(
                        static_cast<unsigned char>(source[pos])) ||
                    source[pos] == '_')) {
                advance(1);
            }
            std::string text = source.substr(start, pos - start);
            TokKind kind = isKeyword(text) ? TokKind::Keyword
                                           : TokKind::Identifier;
            tokens.push_back({kind, std::move(text), loc, offset});
            continue;
        }
        // Numbers.
        if (std::isdigit(static_cast<unsigned char>(c)) ||
            (c == '.' && pos + 1 < source.size() &&
             std::isdigit(static_cast<unsigned char>(source[pos + 1])))) {
            size_t start = pos;
            bool isFloat = false;
            while (pos < source.size()) {
                char d = source[pos];
                if (std::isdigit(static_cast<unsigned char>(d))) {
                    advance(1);
                } else if (d == '.') {
                    isFloat = true;
                    advance(1);
                } else if (d == 'e' || d == 'E') {
                    isFloat = true;
                    advance(1);
                    if (pos < source.size() &&
                        (source[pos] == '+' || source[pos] == '-')) {
                        advance(1);
                    }
                } else if (d == 'f' || d == 'F') {
                    isFloat = true;
                    advance(1);
                    break;
                } else if (d == 'L' || d == 'l' || d == 'u' ||
                           d == 'U') {
                    advance(1);
                } else {
                    break;
                }
            }
            tokens.push_back({isFloat ? TokKind::FloatLiteral
                                      : TokKind::IntLiteral,
                              source.substr(start, pos - start), loc,
                              offset});
            continue;
        }
        // Punctuation.
        bool matched = false;
        for (std::string_view p : kPuncts) {
            if (p[0] == c && source.compare(pos, p.size(), p) == 0) {
                tokens.push_back({TokKind::Punct, std::string(p), loc,
                                  offset});
                advance(p.size());
                matched = true;
                break;
            }
        }
        if (!matched) {
            diags.error(loc, std::string("unexpected character '") + c +
                                 "'");
            advance(1);
        }
    }
    tokens.push_back({TokKind::End, "", {line, col}, pos});
    return tokens;
}

} // namespace repro::frontend
