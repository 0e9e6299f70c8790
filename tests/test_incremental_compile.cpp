/**
 * @file
 * Tests of incremental compilation: compileMiniC reusing the
 * optimized IR of an edit session's previous compile for every
 * function whose source and declaration context did not change.
 *
 * The oracle is a compile from scratch. At every step of scripted
 * edit sessions the reusing compile must print the same IR and report
 * exactly the expected compiled and reused counts, and every reused
 * function must keep the use-list order of the function it was copied
 * from (the solver enumerates users in that order). The service check
 * holds a MatchService session against a service that never reuses.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>

#include "benchmarks/suite.h"
#include "driver/driver.h"
#include "frontend/compiler.h"
#include "ir/clone.h"
#include "ir/printer.h"
#include "service/protocol.h"
#include "service/service.h"

using namespace repro;

namespace {

/** A module as editable parts: globals, then one text per function. */
struct Program
{
    std::vector<std::string> globals = {
        "double g_scale;\n",
        "int g_table[64];\n",
    };
    std::vector<std::string> functions = {
        "double sum(double *a, int n) {\n"
        "    double s = 0.0;\n"
        "    for (int i = 0; i < n; i++)\n"
        "        s = s + a[i] * g_scale;\n"
        "    return s;\n"
        "}\n",
        "int clamp(int x) {\n"
        "    if (x < 0)\n"
        "        return 0;\n"
        "    if (x >= 64)\n"
        "        return 63;\n"
        "    return x;\n"
        "}\n",
        "void histo(int *keys, int n) {\n"
        "    for (int i = 0; i < n; i++)\n"
        "        g_table[clamp(keys[i])] += 1;\n"
        "}\n",
        "void gemm(double *a, double *b, double *c) {\n"
        "    for (int i = 0; i < 16; i++)\n"
        "        for (int j = 0; j < 16; j++) {\n"
        "            double s = 0.0;\n"
        "            for (int p = 0; p < 16; p++)\n"
        "                s = s + a[i * 16 + p] * b[p * 16 + j];\n"
        "            c[i * 16 + j] = s;\n"
        "        }\n"
        "}\n",
        "int helper(int x) {\n"
        "    float f = 1.5f;\n"
        "    return x * 3 + clamp(x) + (x != 7);\n"
        "}\n",
    };

    std::string
    source() const
    {
        std::string s;
        for (const auto &g : globals)
            s += g;
        for (const auto &f : functions)
            s += f;
        return s;
    }
};

/** Replace the one occurrence of @p from in @p text. */
std::string
edited(std::string text, const std::string &from, const std::string &to)
{
    size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos)
        text.replace(at, from.size(), to);
    return text;
}

/**
 * Every use list of @p f, by position: each argument, instruction,
 * constant and global it uses, and the users of that value inside
 * @p f, in use-list order.
 */
std::string
useLists(const ir::Function &f)
{
    std::ostringstream os;
    {
        std::vector<const ir::Value *> local;
        std::map<const ir::Value *, std::string> pos;
        for (size_t i = 0; i < f.numArgs(); ++i) {
            local.push_back(f.arg(i));
            pos[f.arg(i)] = "arg" + std::to_string(i);
        }
        for (size_t b = 0; b < f.blocks().size(); ++b) {
            const auto &insts = f.blocks()[b]->insts();
            for (size_t i = 0; i < insts.size(); ++i) {
                local.push_back(insts[i].get());
                pos[insts[i].get()] =
                    std::to_string(b) + "." + std::to_string(i);
            }
        }
        std::vector<const ir::Value *> shared;
        for (const auto &bb : f.blocks()) {
            for (const auto &inst : bb->insts()) {
                for (const ir::Value *op : inst->operands()) {
                    if (!pos.count(op) &&
                        std::find(shared.begin(), shared.end(), op) ==
                            shared.end())
                        shared.push_back(op);
                }
            }
        }
        auto dump = [&](const ir::Value *v, const std::string &name) {
            os << "  " << name << ":";
            for (const ir::Instruction *u : v->users()) {
                if (u->function() == &f)
                    os << " " << pos.at(u);
            }
            os << "\n";
        };
        for (const ir::Value *v : local)
            dump(v, pos.at(v));
        for (const ir::Value *v : shared)
            dump(v, v->type()->str() + " " + v->handle());
    }
    return os.str();
}

/** Printed IR of a compile from scratch. */
std::string
fresh(const std::string &source)
{
    ir::Module module;
    DiagEngine diags;
    EXPECT_TRUE(frontend::compileMiniC(source, module, diags))
        << diags.dump();
    return ir::printModule(module);
}

/**
 * Every function @p next reused from @p previous has the use lists of
 * the function it was copied from. (Use lists are the history of a
 * compile, not a function of its source, so a compile from scratch is
 * no oracle for them.)
 */
void
expectUseListsKept(const frontend::CompiledModule &next,
                   const frontend::CompiledModule *previous)
{
    if (!previous || next.declarations != previous->declarations)
        return;
    for (size_t i = 0; i < next.definitions.size(); ++i) {
        if (next.definitions[i].empty() ||
            next.definitions[i] != previous->definitions[i])
            continue;
        EXPECT_EQ(useLists(*next.module.functions()[i]),
                  useLists(*previous->module.functions()[i]))
            << next.module.functions()[i]->name();
    }
}

/** An edit session over compileMiniC's incremental form. */
class Session
{
  public:
    /**
     * Compile @p source against the last good compile; it must equal
     * a compile from scratch and compile and reuse exactly the given
     * numbers of functions.
     */
    void
    step(const std::string &source, size_t compiled, size_t reused,
         ir::VerifyMode verify = ir::defaultVerifyMode())
    {
        auto next = std::make_unique<frontend::CompiledModule>();
        DiagEngine diags;
        ASSERT_TRUE(frontend::compileMiniC(source, *next, diags,
                                           last_.get(), verify))
            << diags.dump();
        EXPECT_EQ(next->compiled, compiled);
        EXPECT_EQ(next->reused, reused);
        EXPECT_EQ(ir::printModule(next->module), fresh(source));
        expectUseListsKept(*next, last_.get());
        last_ = std::move(next);
    }

    /** A compile that must fail and leave the last good one. */
    void
    failing(const std::string &source)
    {
        const std::string before = ir::printModule(last_->module);
        frontend::CompiledModule next;
        DiagEngine diags;
        EXPECT_FALSE(
            frontend::compileMiniC(source, next, diags, last_.get()));
        EXPECT_EQ(ir::printModule(last_->module), before);
    }

  private:
    std::unique_ptr<frontend::CompiledModule> last_;
};

} // namespace

TEST(IncrementalCompile, BodyEditsCompileOnlyTheEditedFunctions)
{
    Program p;
    Session s;
    s.step(p.source(), 5, 0);
    s.step(p.source(), 0, 5);

    // Text outside every function (whitespace, comments) is free.
    p.globals.insert(p.globals.begin() + 1, "\n// a comment\n\n");
    s.step(p.source(), 0, 5);

    p.functions[3] = edited(p.functions[3], "p < 16", "p < 17");
    s.step(p.source(), 1, 4);
    p.functions[0] = edited(p.functions[0], "i < n", "i <= n");
    p.functions[1] = edited(p.functions[1], "x < 0", "x > 0");
    s.step(p.source(), 2, 3);

    // A comment inside a function is part of its source text.
    p.functions[2] = edited(p.functions[2], "{\n", "{ /* hot */\n");
    s.step(p.source(), 1, 4);

    // Under pass-boundary verification too.
    p.functions[4] = edited(p.functions[4], "x * 3", "x * 4");
    s.step(p.source(), 1, 4, ir::VerifyMode::Boundaries);
    s.step(p.source(), 0, 5, ir::VerifyMode::Boundaries);
}

TEST(IncrementalCompile, DeclarationChangesCompileEverything)
{
    Program p;
    Session s;
    s.step(p.source(), 5, 0);

    // Global type change, then back.
    p.globals[0] = "float g_scale;\n";
    s.step(p.source(), 5, 0);
    p.globals[0] = "double g_scale;\n";
    s.step(p.source(), 5, 0);
    s.step(p.source(), 0, 5);

    // A new global, then a duplicate name (the first one wins).
    p.globals.push_back("int g_extra;\n");
    s.step(p.source(), 5, 0);
    p.globals.push_back("float g_extra;\n");
    s.step(p.source(), 5, 0);
    s.step(p.source(), 0, 5);

    // Signature change of one function.
    p.functions[1] = edited(p.functions[1], "int clamp(int x)",
                            "long clamp(int x)");
    s.step(p.source(), 5, 0);
    s.step(p.source(), 0, 5);
}

TEST(IncrementalCompile, AddRemoveRenameReorderFunctions)
{
    Program p;
    Session s;
    s.step(p.source(), 5, 0);

    p.functions.push_back("int twice(int x) {\n    return x + x;\n}\n");
    s.step(p.source(), 6, 0);
    s.step(p.source(), 0, 6);

    p.functions.erase(p.functions.begin() + 3); // gemm
    s.step(p.source(), 5, 0);
    s.step(p.source(), 0, 5);

    p.functions.back() = edited(p.functions.back(), "twice", "double_it");
    s.step(p.source(), 5, 0);

    std::swap(p.functions[0], p.functions[4]);
    s.step(p.source(), 5, 0);
    s.step(p.source(), 0, 5);
}

TEST(IncrementalCompile, ProtectAttributeIsPartOfTheDeclarations)
{
    Program p;
    Session s;
    s.step(p.source(), 5, 0);

    p.functions[3] = "__protect " + p.functions[3];
    s.step(p.source(), 5, 0);
    s.step(p.source(), 0, 5);
    p.functions[3] = edited(p.functions[3], "__protect ",
                            "__protect(eddi) ");
    s.step(p.source(), 5, 0);
    p.functions[3] = edited(p.functions[3], "__protect(eddi) ", "");
    s.step(p.source(), 5, 0);
}

TEST(IncrementalCompile, DuplicateNamesAndPrototypes)
{
    Program p;
    Session s;
    s.step(p.source(), 5, 0);

    // A prototype of the same type changes no declaration; its
    // argument name is the one the function keeps.
    p.functions.insert(p.functions.begin() + 1, "int clamp(int bound);\n");
    s.step(p.source(), 0, 5);

    // A second definition of a name is a compile error that keeps
    // the last good compile.
    p.functions.push_back("int helper(int y) {\n    return y;\n}\n");
    s.failing(p.source());
    s.failing(p.source());
    p.functions.pop_back();
    s.step(p.source(), 0, 5);
    s.step(p.source(), 0, 5);
}

TEST(IncrementalCompile, FailedCompileKeepsTheLastGoodOne)
{
    Program p;
    Session s;
    s.step(p.source(), 5, 0);

    s.failing("void broken( {");
    s.failing(edited(p.source(), "return x;", "return nope;"));
    // A definition with more parameters than its declaration.
    s.failing("int f(int a);\nint f(int a, int b) {\n    return a;\n}\n");

    p.functions[3] = edited(p.functions[3], "j < 16", "j < 15");
    s.step(p.source(), 1, 4);
}

TEST(IncrementalCompile, SuiteProgramsReuseEveryFunction)
{
    for (const auto &prog : benchmarks::nasParboilSuite()) {
        SCOPED_TRACE(prog.name);
        frontend::CompiledModule first, second;
        first.module.setName(prog.name);
        second.module.setName(prog.name);
        DiagEngine diags;
        ASSERT_TRUE(
            frontend::compileMiniC(prog.source, first, diags, nullptr));
        ASSERT_TRUE(
            frontend::compileMiniC(prog.source, second, diags, &first));
        EXPECT_GT(first.compiled, 0u);
        EXPECT_EQ(first.reused, 0u);
        EXPECT_EQ(second.compiled, 0u);
        EXPECT_EQ(second.reused, first.compiled);
        ASSERT_EQ(ir::printModule(second.module), fresh(prog.source));
        expectUseListsKept(second, &first);

        // The copies match exactly as the originals, with the same
        // solver effort.
        driver::MatchingDriver a, b;
        driver::MatchReport ra = a.matchModule(first.module);
        driver::MatchReport rb = b.matchModule(second.module);
        ASSERT_EQ(ra.functions.size(), rb.functions.size());
        for (size_t i = 0; i < ra.functions.size(); ++i) {
            const auto &ma = ra.functions[i].matches;
            const auto &mb = rb.functions[i].matches;
            ASSERT_EQ(ma.size(), mb.size());
            for (size_t m = 0; m < ma.size(); ++m) {
                EXPECT_EQ(idioms::matchFingerprint(ma[m]),
                          idioms::matchFingerprint(mb[m]));
            }
        }
        EXPECT_EQ(ra.totals.assignments, rb.totals.assignments);
        EXPECT_EQ(ra.totals.checks, rb.totals.checks);
        EXPECT_EQ(ra.totals.solutions, rb.totals.solutions);
    }
}

TEST(CloneFunctionBody, RejectsADestinationOfAnotherType)
{
    ir::Module from, to;
    DiagEngine diags;
    ASSERT_TRUE(frontend::compileMiniC(
        "int f(int x) {\n    return x;\n}\n", from, diags));
    ir::Function *g = to.createFunction("f", to.types().i64Ty(),
                                        {to.types().i32Ty()});
    EXPECT_THROW(ir::cloneFunctionBody(*from.functionByName("f"), *g),
                 InternalError);
}

// ------------------------------------------------- service sessions

namespace {

/** A SUBMIT response without its timing keys. */
std::string
untimed(const service::SubmitOutcome &outcome)
{
    std::string out;
    for (std::string line : service::formatSubmitResponse(outcome)) {
        for (const char *key : {" compile_ms=", " match_ms="}) {
            size_t at = line.find(key);
            if (at != std::string::npos)
                line.erase(at, line.find(' ', at + 1) - at);
        }
        out += line + "\n";
    }
    return out;
}

std::string
stats(const service::MatchService &svc)
{
    return service::formatStats(svc.cache().counters(), svc.cache().size(),
                                svc.cache().capacity(), svc.sessionCount(),
                                {});
}

} // namespace

TEST(IncrementalService, SessionAnswersAsACompileFromScratch)
{
    // The reference drops its session before each SUBMIT that
    // compiles (a failed one must find it), so it never reuses; both
    // see the same cache traffic.
    service::MatchService session, scratch;
    Program p;
    std::vector<std::string> sources;
    sources.push_back(p.source());
    sources.push_back(p.source());
    p.functions[3] = edited(p.functions[3], "p < 16", "p < 17");
    sources.push_back(p.source());
    sources.push_back("void broken( {");
    p.functions[0] = edited(p.functions[0], "i < n", "i < n - 1");
    sources.push_back(p.source());
    p.globals[0] = "float g_scale;\n";
    sources.push_back(p.source());
    p.functions[2] = edited(p.functions[2], "+= 1", "+= 2");
    sources.push_back(p.source());

    for (size_t i = 0; i < sources.size(); ++i) {
        SCOPED_TRACE("SUBMIT " + std::to_string(i));
        service::SubmitOutcome got = session.submit("m", sources[i]);
        ir::Module probe;
        DiagEngine diags;
        if (frontend::compileMiniC(sources[i], probe, diags))
            scratch.drop("m");
        service::SubmitOutcome want = scratch.submit("m", sources[i]);
        EXPECT_EQ(untimed(got), untimed(want));
        EXPECT_EQ(stats(session), stats(scratch));
    }
    // 5 + 0 + 1 + 1 + 5 + 1 compiled, 0 + 5 + 4 + 4 + 0 + 4 reused.
    EXPECT_EQ(session.compileCounters().compiled, 13u);
    EXPECT_EQ(session.compileCounters().reused, 17u);
    EXPECT_EQ(scratch.compileCounters().compiled, 30u);
    EXPECT_EQ(scratch.compileCounters().reused, 0u);

    // STATS carries both, and RESET clears them with the sessions.
    EXPECT_NE(service::formatStats(session.cache().counters(), 0, 0, 1,
                                   session.compileCounters())
                  .find(" sessions=1 compiled=13 reused=17"),
              std::string::npos);
    session.reset();
    EXPECT_EQ(session.compileCounters().compiled, 0u);
    EXPECT_EQ(session.compileCounters().reused, 0u);
    service::SubmitOutcome after = session.submit("m", sources.back());
    ASSERT_TRUE(after.ok);
    EXPECT_EQ(session.compileCounters().compiled, 5u);

    // DROP frees the module: the next SUBMIT reuses nothing.
    EXPECT_TRUE(session.drop("m"));
    ASSERT_TRUE(session.submit("m", sources.back()).ok);
    EXPECT_EQ(session.compileCounters().compiled, 10u);
    EXPECT_EQ(session.compileCounters().reused, 0u);
}
