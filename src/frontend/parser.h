/**
 * @file
 * Recursive-descent parser for MiniC.
 */
#ifndef FRONTEND_PARSER_H
#define FRONTEND_PARSER_H

#include <memory>

#include "frontend/ast.h"
#include "frontend/lexer.h"

namespace repro::frontend {

/**
 * Deepest syntactic nesting parseMiniC accepts. Every statement and
 * every expression operand that recurses — a parenthesized
 * subexpression, subscript, call argument, assignment right-hand
 * side, ternary branch or unary operand — opens one level. Deeper
 * input is rejected with a diagnostic naming the limit instead of
 * exhausting the stack: parsing, codegen and the AST's destructors
 * all recurse once per level, and a daemon connection thread runs
 * them on client input.
 */
constexpr int kMaxNestingDepth = 256;

/**
 * Parse @p source into a TranslationUnit. Returns null and fills
 * @p diags when the program is malformed.
 */
std::unique_ptr<TranslationUnit> parseMiniC(const std::string &source,
                                            DiagEngine &diags);

} // namespace repro::frontend

#endif // FRONTEND_PARSER_H
