#include "frontend/parser.h"

#include <map>
#include <string>

namespace repro::frontend {

namespace {

/** Parser state over the token stream. */
class Parser
{
  public:
    Parser(std::vector<Token> tokens, DiagEngine &diags)
        : tokens_(std::move(tokens)), diags_(diags)
    {}

    std::unique_ptr<TranslationUnit>
    parseUnit()
    {
        auto unit = std::make_unique<TranslationUnit>();
        while (!peek().is(TokKind::End)) {
            parseTopLevel(*unit);
        }
        return unit;
    }

  private:
    /** Open one nesting level; rejects the program past the limit. */
    void
    enterLevel()
    {
        if (++depth_ > kMaxNestingDepth) {
            diags_.error(peek().loc,
                         "nesting deeper than the limit of " +
                             std::to_string(kMaxNestingDepth) +
                             " levels");
            throw FatalError("MiniC parse error");
        }
    }

    /** One nesting level for the scope of a recursive descent. */
    class NestingGuard
    {
      public:
        explicit NestingGuard(Parser &parser) : parser_(parser)
        {
            parser_.enterLevel();
        }
        ~NestingGuard() { --parser_.depth_; }
        NestingGuard(const NestingGuard &) = delete;
        NestingGuard &operator=(const NestingGuard &) = delete;

      private:
        Parser &parser_;
    };

    const Token &peek(int ahead = 0) const
    {
        size_t i = pos_ + static_cast<size_t>(ahead);
        return i < tokens_.size() ? tokens_[i] : tokens_.back();
    }

    Token
    next()
    {
        Token t = peek();
        if (pos_ < tokens_.size() - 1)
            ++pos_;
        return t;
    }

    bool
    accept(TokKind kind, const std::string &text)
    {
        if (peek().is(kind, text)) {
            next();
            return true;
        }
        return false;
    }

    bool acceptPunct(const std::string &p)
    {
        return accept(TokKind::Punct, p);
    }

    void
    expectPunct(const std::string &p)
    {
        if (!acceptPunct(p)) {
            diags_.error(peek().loc, "expected '" + p + "' before '" +
                                         peek().text + "'");
            throw FatalError("MiniC parse error");
        }
    }

    bool
    atTypeKeyword() const
    {
        const Token &t = peek();
        return t.isKeyword("int") || t.isKeyword("long") ||
               t.isKeyword("float") || t.isKeyword("double") ||
               t.isKeyword("void") || t.isKeyword("const");
    }

    BaseType
    parseBaseType()
    {
        while (accept(TokKind::Keyword, "const")) {
        }
        Token t = next();
        BaseType base;
        if (t.isKeyword("int")) {
            base = BaseType::Int;
        } else if (t.isKeyword("long")) {
            // Accept "long long" and "long int".
            accept(TokKind::Keyword, "long");
            accept(TokKind::Keyword, "int");
            base = BaseType::Long;
        } else if (t.isKeyword("float")) {
            base = BaseType::Float;
        } else if (t.isKeyword("double")) {
            base = BaseType::Double;
        } else if (t.isKeyword("void")) {
            base = BaseType::Void;
        } else {
            diags_.error(t.loc, "expected type, got '" + t.text + "'");
            throw FatalError("MiniC parse error");
        }
        while (accept(TokKind::Keyword, "const")) {
        }
        return base;
    }

    TypeSpec
    parseTypePrefix()
    {
        TypeSpec type;
        type.base = parseBaseType();
        while (acceptPunct("*"))
            ++type.pointerDepth;
        while (accept(TokKind::Keyword, "const")) {
        }
        return type;
    }

    /** Parse trailing array dimensions after a declarator name. */
    void
    parseArraySuffix(TypeSpec &type, bool allow_unsized)
    {
        bool first = true;
        while (acceptPunct("[")) {
            if (acceptPunct("]")) {
                if (!first || !allow_unsized) {
                    diags_.error(peek().loc,
                                 "unsized dimension only allowed first");
                    throw FatalError("MiniC parse error");
                }
                type.dims.push_back(0);
            } else {
                Token n = next();
                if (!n.is(TokKind::IntLiteral)) {
                    diags_.error(n.loc, "expected array size literal");
                    throw FatalError("MiniC parse error");
                }
                type.dims.push_back(std::stoll(n.text));
                expectPunct("]");
            }
            first = false;
        }
    }

    void
    parseTopLevel(TranslationUnit &unit)
    {
        // Optional reliability annotation: `__protect` or
        // `__protect(eddi)` / `__protect(cfcss)` before the return
        // type marks the following function definition for hardening.
        bool protect = false;
        std::string protect_mode;
        if (accept(TokKind::Keyword, "__protect")) {
            protect = true;
            if (acceptPunct("(")) {
                Token mode = next();
                if (!mode.is(TokKind::Identifier) ||
                    (mode.text != "eddi" && mode.text != "cfcss")) {
                    diags_.error(mode.loc,
                                 "__protect mode must be 'eddi' or "
                                 "'cfcss', got '" +
                                     mode.text + "'");
                    throw FatalError("MiniC parse error");
                }
                protect_mode = mode.text;
                expectPunct(")");
            }
        }
        TypeSpec type = parseTypePrefix();
        Token name = next();
        if (!name.is(TokKind::Identifier)) {
            diags_.error(name.loc, "expected identifier at top level");
            throw FatalError("MiniC parse error");
        }
        if (protect && !peek().isPunct("(")) {
            diags_.error(name.loc,
                         "__protect only applies to functions");
            throw FatalError("MiniC parse error");
        }
        if (peek().isPunct("(")) {
            auto func = std::make_unique<FunctionDecl>();
            func->returnType = type;
            func->name = name.text;
            func->loc = name.loc;
            func->protect = protect;
            func->protectMode = protect_mode;
            expectPunct("(");
            if (!acceptPunct(")")) {
                do {
                    if (peek().isKeyword("void") &&
                        peek(1).isPunct(")")) {
                        next();
                        break;
                    }
                    ParamDecl param;
                    param.type = parseTypePrefix();
                    Token pname = next();
                    if (!pname.is(TokKind::Identifier)) {
                        diags_.error(pname.loc,
                                     "expected parameter name");
                        throw FatalError("MiniC parse error");
                    }
                    param.name = pname.text;
                    parseArraySuffix(param.type, true);
                    func->params.push_back(std::move(param));
                } while (acceptPunct(","));
                expectPunct(")");
            }
            if (acceptPunct(";")) {
                unit.functions.push_back(std::move(func));
                return;
            }
            func->body = parseBlock();
            unit.functions.push_back(std::move(func));
            return;
        }
        // Global variable(s).
        while (true) {
            GlobalDecl g;
            g.type = type;
            g.name = name.text;
            g.loc = name.loc;
            parseArraySuffix(g.type, false);
            unit.globals.push_back(std::move(g));
            if (acceptPunct(",")) {
                name = next();
                continue;
            }
            expectPunct(";");
            break;
        }
    }

    StmtPtr
    parseBlock()
    {
        expectPunct("{");
        auto block = std::make_unique<Stmt>(Stmt::Kind::Block);
        block->loc = peek().loc;
        while (!peek().isPunct("}")) {
            if (peek().is(TokKind::End)) {
                diags_.error(peek().loc, "unterminated block");
                throw FatalError("MiniC parse error");
            }
            block->body.push_back(parseStatement());
        }
        expectPunct("}");
        return block;
    }

    StmtPtr
    parseStatement()
    {
        NestingGuard level(*this);
        const Token &t = peek();
        if (t.isPunct("{"))
            return parseBlock();
        if (t.isPunct(";")) {
            next();
            return std::make_unique<Stmt>(Stmt::Kind::Empty);
        }
        if (atTypeKeyword())
            return parseDecl();
        if (t.isKeyword("if"))
            return parseIf();
        if (t.isKeyword("while"))
            return parseWhile();
        if (t.isKeyword("do"))
            return parseDoWhile();
        if (t.isKeyword("for"))
            return parseFor();
        if (t.isKeyword("return")) {
            next();
            auto stmt = std::make_unique<Stmt>(Stmt::Kind::Return);
            stmt->loc = t.loc;
            if (!peek().isPunct(";"))
                stmt->expr = parseExpr();
            expectPunct(";");
            return stmt;
        }
        if (t.isKeyword("break")) {
            next();
            expectPunct(";");
            auto stmt = std::make_unique<Stmt>(Stmt::Kind::Break);
            stmt->loc = t.loc;
            return stmt;
        }
        if (t.isKeyword("continue")) {
            next();
            expectPunct(";");
            auto stmt = std::make_unique<Stmt>(Stmt::Kind::Continue);
            stmt->loc = t.loc;
            return stmt;
        }
        auto stmt = std::make_unique<Stmt>(Stmt::Kind::ExprStmt);
        stmt->loc = t.loc;
        stmt->expr = parseExpr();
        expectPunct(";");
        return stmt;
    }

    StmtPtr
    parseDecl()
    {
        TypeSpec type = parseTypePrefix();
        auto first = parseOneDecl(type);
        if (peek().isPunct(",")) {
            // Multiple declarators share one statement list: wrap in a
            // block without scoping implications (MiniC has function
            // scope for simplicity).
            auto block = std::make_unique<Stmt>(Stmt::Kind::Block);
            block->loc = first->loc;
            block->body.push_back(std::move(first));
            while (acceptPunct(","))
                block->body.push_back(parseOneDecl(type));
            expectPunct(";");
            return block;
        }
        expectPunct(";");
        return first;
    }

    StmtPtr
    parseOneDecl(TypeSpec base_type)
    {
        TypeSpec type = base_type;
        while (acceptPunct("*"))
            ++type.pointerDepth;
        Token name = next();
        if (!name.is(TokKind::Identifier)) {
            diags_.error(name.loc, "expected variable name");
            throw FatalError("MiniC parse error");
        }
        auto stmt = std::make_unique<Stmt>(Stmt::Kind::Decl);
        stmt->loc = name.loc;
        parseArraySuffix(type, false);
        stmt->declType = type;
        stmt->declName = name.text;
        if (acceptPunct("="))
            stmt->init = parseAssignExpr();
        return stmt;
    }

    StmtPtr
    parseIf()
    {
        Token t = next(); // if
        auto stmt = std::make_unique<Stmt>(Stmt::Kind::If);
        stmt->loc = t.loc;
        expectPunct("(");
        stmt->cond = parseExpr();
        expectPunct(")");
        stmt->body.push_back(parseStatement());
        if (accept(TokKind::Keyword, "else"))
            stmt->elseBody.push_back(parseStatement());
        return stmt;
    }

    StmtPtr
    parseWhile()
    {
        Token t = next(); // while
        auto stmt = std::make_unique<Stmt>(Stmt::Kind::While);
        stmt->loc = t.loc;
        expectPunct("(");
        stmt->cond = parseExpr();
        expectPunct(")");
        stmt->body.push_back(parseStatement());
        return stmt;
    }

    StmtPtr
    parseDoWhile()
    {
        Token t = next(); // do
        auto stmt = std::make_unique<Stmt>(Stmt::Kind::DoWhile);
        stmt->loc = t.loc;
        stmt->body.push_back(parseStatement());
        if (!accept(TokKind::Keyword, "while")) {
            diags_.error(peek().loc, "expected 'while' after do body");
            throw FatalError("MiniC parse error");
        }
        expectPunct("(");
        stmt->cond = parseExpr();
        expectPunct(")");
        expectPunct(";");
        return stmt;
    }

    StmtPtr
    parseFor()
    {
        Token t = next(); // for
        auto stmt = std::make_unique<Stmt>(Stmt::Kind::For);
        stmt->loc = t.loc;
        expectPunct("(");
        if (!peek().isPunct(";")) {
            if (atTypeKeyword()) {
                stmt->initStmt = parseDecl();
            } else {
                auto init = std::make_unique<Stmt>(Stmt::Kind::ExprStmt);
                init->expr = parseExpr();
                expectPunct(";");
                stmt->initStmt = std::move(init);
            }
        } else {
            expectPunct(";");
        }
        if (!peek().isPunct(";"))
            stmt->cond = parseExpr();
        expectPunct(";");
        if (!peek().isPunct(")"))
            stmt->incExpr = parseExpr();
        expectPunct(")");
        stmt->body.push_back(parseStatement());
        return stmt;
    }

    // Expressions ---------------------------------------------------------

    ExprPtr
    parseExpr()
    {
        return parseAssignExpr();
    }

    ExprPtr
    parseAssignExpr()
    {
        NestingGuard level(*this);
        ExprPtr lhs = parseTernary();
        const Token &t = peek();
        static const char *assign_ops[] = {"=",  "+=", "-=",
                                           "*=", "/=", "%="};
        for (const char *op : assign_ops) {
            if (t.isPunct(op)) {
                next();
                auto e = std::make_unique<Expr>(Expr::Kind::Assign);
                e->loc = t.loc;
                e->op = op;
                e->children.push_back(std::move(lhs));
                e->children.push_back(parseAssignExpr());
                return e;
            }
        }
        return lhs;
    }

    ExprPtr
    parseTernary()
    {
        ExprPtr cond = parseBinary(0);
        if (peek().isPunct("?")) {
            Token t = next();
            auto e = std::make_unique<Expr>(Expr::Kind::Ternary);
            e->loc = t.loc;
            e->children.push_back(std::move(cond));
            e->children.push_back(parseAssignExpr());
            expectPunct(":");
            e->children.push_back(parseAssignExpr());
            return e;
        }
        return cond;
    }

    int
    precedenceOf(const std::string &op) const
    {
        static const std::map<std::string, int> prec = {
            {"||", 1}, {"&&", 2}, {"|", 3}, {"^", 4}, {"&", 5},
            {"==", 6}, {"!=", 6}, {"<", 7}, {"<=", 7}, {">", 7},
            {">=", 7}, {"<<", 8}, {">>", 8}, {"+", 9}, {"-", 9},
            {"*", 10}, {"/", 10}, {"%", 10},
        };
        auto it = prec.find(op);
        return it == prec.end() ? -1 : it->second;
    }

    ExprPtr
    parseBinary(int min_prec)
    {
        ExprPtr lhs = parseUnary();
        // Each operator applied to the running left operand nests it
        // one level deeper in the tree: a + b + c is ((a + b) + c).
        int chained = 0;
        while (true) {
            const Token &t = peek();
            if (!t.is(TokKind::Punct))
                break;
            int prec = precedenceOf(t.text);
            if (prec < 0 || prec < min_prec)
                break;
            Token op = next();
            enterLevel();
            ++chained;
            ExprPtr rhs = parseBinary(prec + 1);
            auto e = std::make_unique<Expr>(Expr::Kind::Binary);
            e->loc = op.loc;
            e->op = op.text;
            e->children.push_back(std::move(lhs));
            e->children.push_back(std::move(rhs));
            lhs = std::move(e);
        }
        depth_ -= chained;
        return lhs;
    }

    ExprPtr
    parseUnary()
    {
        const Token &t = peek();
        if (t.isPunct("-") || t.isPunct("!") || t.isPunct("*") ||
            t.isPunct("~") || t.isPunct("+")) {
            Token op = next();
            auto e = std::make_unique<Expr>(Expr::Kind::Unary);
            e->loc = op.loc;
            e->op = op.text;
            NestingGuard level(*this);
            e->children.push_back(parseUnary());
            return e;
        }
        if (t.isPunct("++") || t.isPunct("--")) {
            Token op = next();
            // Lower prefix inc/dec as the matching compound assign.
            auto e = std::make_unique<Expr>(Expr::Kind::Assign);
            e->loc = op.loc;
            e->op = op.text == "++" ? "+=" : "-=";
            NestingGuard level(*this);
            e->children.push_back(parseUnary());
            auto one = std::make_unique<Expr>(Expr::Kind::IntLit);
            one->intValue = 1;
            e->children.push_back(std::move(one));
            return e;
        }
        if (t.isPunct("(") && isCastAhead()) {
            next(); // (
            TypeSpec type = parseTypePrefix();
            expectPunct(")");
            auto e = std::make_unique<Expr>(Expr::Kind::Unary);
            e->loc = t.loc;
            e->op = "cast:" + castName(type);
            NestingGuard level(*this);
            e->children.push_back(parseUnary());
            return e;
        }
        return parsePostfix();
    }

    bool
    isCastAhead() const
    {
        // "( type" where type is a keyword type.
        const Token &t1 = peek(1);
        return t1.isKeyword("int") || t1.isKeyword("long") ||
               t1.isKeyword("float") || t1.isKeyword("double");
    }

    static std::string
    castName(const TypeSpec &type)
    {
        std::string out;
        switch (type.base) {
          case BaseType::Int: out = "int"; break;
          case BaseType::Long: out = "long"; break;
          case BaseType::Float: out = "float"; break;
          case BaseType::Double: out = "double"; break;
          case BaseType::Void: out = "void"; break;
        }
        for (int i = 0; i < type.pointerDepth; ++i)
            out += "*";
        return out;
    }

    ExprPtr
    parsePostfix()
    {
        ExprPtr e = parsePrimary();
        while (true) {
            const Token &t = peek();
            if (t.isPunct("[")) {
                next();
                auto idx = std::make_unique<Expr>(Expr::Kind::Index);
                idx->loc = t.loc;
                idx->children.push_back(std::move(e));
                idx->children.push_back(parseExpr());
                expectPunct("]");
                e = std::move(idx);
            } else if (t.isPunct("++") || t.isPunct("--")) {
                Token op = next();
                auto post =
                    std::make_unique<Expr>(Expr::Kind::PostIncDec);
                post->loc = op.loc;
                post->op = op.text;
                post->children.push_back(std::move(e));
                e = std::move(post);
            } else {
                break;
            }
        }
        return e;
    }

    ExprPtr
    parsePrimary()
    {
        Token t = next();
        if (t.is(TokKind::IntLiteral)) {
            auto e = std::make_unique<Expr>(Expr::Kind::IntLit);
            e->loc = t.loc;
            std::string digits = t.text;
            while (!digits.empty() &&
                   (digits.back() == 'l' || digits.back() == 'L' ||
                    digits.back() == 'u' || digits.back() == 'U')) {
                digits.pop_back();
            }
            e->intValue = std::stoll(digits);
            return e;
        }
        if (t.is(TokKind::FloatLiteral)) {
            auto e = std::make_unique<Expr>(Expr::Kind::FloatLit);
            e->loc = t.loc;
            std::string digits = t.text;
            e->isFloat32 = !digits.empty() && (digits.back() == 'f' ||
                                               digits.back() == 'F');
            if (e->isFloat32)
                digits.pop_back();
            e->floatValue = std::stod(digits);
            return e;
        }
        if (t.is(TokKind::Identifier)) {
            if (peek().isPunct("(")) {
                auto call = std::make_unique<Expr>(Expr::Kind::Call);
                call->loc = t.loc;
                call->name = t.text;
                next(); // (
                if (!acceptPunct(")")) {
                    do {
                        call->children.push_back(parseAssignExpr());
                    } while (acceptPunct(","));
                    expectPunct(")");
                }
                return call;
            }
            auto e = std::make_unique<Expr>(Expr::Kind::VarRef);
            e->loc = t.loc;
            e->name = t.text;
            return e;
        }
        if (t.isPunct("(")) {
            ExprPtr e = parseExpr();
            expectPunct(")");
            return e;
        }
        diags_.error(t.loc, "unexpected token '" + t.text + "'");
        throw FatalError("MiniC parse error");
    }

    std::vector<Token> tokens_;
    DiagEngine &diags_;
    size_t pos_ = 0;
    /** Current nesting level (see kMaxNestingDepth). */
    int depth_ = 0;
};

} // namespace

std::unique_ptr<TranslationUnit>
parseMiniC(const std::string &source, DiagEngine &diags)
{
    std::vector<Token> tokens = lexMiniC(source, diags);
    if (diags.hasErrors())
        return nullptr;
    try {
        Parser parser(std::move(tokens), diags);
        auto unit = parser.parseUnit();
        if (diags.hasErrors())
            return nullptr;
        return unit;
    } catch (const FatalError &) {
        return nullptr;
    }
}

} // namespace repro::frontend
