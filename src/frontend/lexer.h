/**
 * @file
 * Lexer for MiniC, the C subset used to express benchmark kernels.
 */
#ifndef FRONTEND_LEXER_H
#define FRONTEND_LEXER_H

#include <string>
#include <string_view>
#include <vector>

#include "support/diagnostics.h"

namespace repro::frontend {

/** Token categories of MiniC. */
enum class TokKind
{
    End,
    Identifier,
    IntLiteral,
    FloatLiteral,
    Keyword,
    Punct,
};

/** One lexed token. */
struct Token
{
    TokKind kind = TokKind::End;
    std::string text;
    SourceLoc loc;
    /** Byte offset of the token's first character in the source. */
    size_t offset = 0;

    bool is(TokKind k) const { return kind == k; }
    bool
    is(TokKind k, std::string_view t) const
    {
        return kind == k && text == t;
    }
    bool isPunct(std::string_view t) const
    {
        return is(TokKind::Punct, t);
    }
    bool isKeyword(std::string_view t) const
    {
        return is(TokKind::Keyword, t);
    }
};

/** Tokenize @p source; reports malformed input to @p diags. */
std::vector<Token> lexMiniC(const std::string &source, DiagEngine &diags);

} // namespace repro::frontend

#endif // FRONTEND_LEXER_H
