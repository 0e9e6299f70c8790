/**
 * @file
 * Invariant tests of the IR core's lazily rebuilt tables.
 *
 * Function keeps block ordinals and predecessor lists, BasicBlock
 * instruction ordinals, and DomTree answers dominance from DFS
 * numbers over them. Every answer is compared with a recomputation
 * from scratch (linear scans, reachability with one block removed)
 * after each mutation API, after RewriteEngine commit and rollback,
 * and after a harden commit. The tables are queried before every
 * mutation, so a mutation that forgets to invalidate them shows up as
 * a stale answer afterwards.
 *
 * Also here: mem2reg must build the same use lists for the same
 * source however the heap is laid out.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/dominators.h"
#include "benchmarks/suite.h"
#include "frontend/compiler.h"
#include "idioms/library.h"
#include "transform/harden.h"
#include "transform/rewrite.h"

using namespace repro;
using ir::BasicBlock;
using ir::Function;
using ir::Instruction;

namespace {

// ------------------------------------------------------------ oracles

int
bruteBlockIndex(const Function &f, const BasicBlock *bb)
{
    for (size_t i = 0; i < f.blocks().size(); ++i) {
        if (f.blocks()[i].get() == bb)
            return static_cast<int>(i);
    }
    return -1;
}

int
bruteIndexOf(const BasicBlock &bb, const Instruction *inst)
{
    for (size_t i = 0; i < bb.size(); ++i) {
        if (bb.insts()[i].get() == inst)
            return static_cast<int>(i);
    }
    return -1;
}

/** Every block that lists @p bb among its successors, in layout order. */
std::vector<BasicBlock *>
brutePreds(const Function &f, const BasicBlock *bb)
{
    std::vector<BasicBlock *> preds;
    for (const auto &b : f.blocks()) {
        const auto &succs = b->successors();
        if (std::find(succs.begin(), succs.end(), bb) != succs.end())
            preds.push_back(b.get());
    }
    return preds;
}

/** Nodes reachable from @p roots over @p edges, never entering @p
 *  avoid. */
std::vector<char>
reach(const std::vector<std::vector<int>> &edges,
      const std::vector<int> &roots, int avoid)
{
    std::vector<char> seen(edges.size(), 0);
    std::vector<int> work;
    for (int r : roots) {
        if (r != avoid && !seen[r]) {
            seen[r] = 1;
            work.push_back(r);
        }
    }
    while (!work.empty()) {
        int n = work.back();
        work.pop_back();
        for (int m : edges[n]) {
            if (m != avoid && !seen[m]) {
                seen[m] = 1;
                work.push_back(m);
            }
        }
    }
    return seen;
}

/**
 * (Post-)dominance by definition: a dominates b when b is reachable
 * from the entry and every entry path to b meets a; a post-dominates
 * b when b reaches a return and every such path meets a.
 */
struct BruteDominance
{
    std::vector<std::vector<char>> dom, postDom;

    explicit BruteDominance(const Function &f)
    {
        const size_t n = f.blocks().size();
        std::vector<std::vector<int>> succ(n), pred(n);
        std::vector<int> exits;
        for (size_t i = 0; i < n; ++i) {
            const BasicBlock &bb = *f.blocks()[i];
            for (BasicBlock *s : bb.successors()) {
                int j = bruteBlockIndex(f, s);
                succ[i].push_back(j);
                pred[j].push_back(static_cast<int>(i));
            }
            if (bb.terminator() && bb.terminator()->is(ir::Opcode::Ret))
                exits.push_back(static_cast<int>(i));
        }
        auto fromEntry = reach(succ, {0}, -1);
        auto toExit = reach(pred, exits, -1);
        dom.assign(n, std::vector<char>(n, 0));
        postDom.assign(n, std::vector<char>(n, 0));
        for (size_t a = 0; a < n; ++a) {
            auto withoutA = reach(succ, {0}, static_cast<int>(a));
            auto exitWithoutA = reach(pred, exits, static_cast<int>(a));
            for (size_t b = 0; b < n; ++b) {
                dom[a][b] = fromEntry[b] && (a == b || !withoutA[b]);
                postDom[a][b] = toExit[b] && (a == b || !exitWithoutA[b]);
            }
        }
    }
};

/** Expected instruction-level answer from block answers and positions. */
bool
expectedDominates(const Function &f, const std::vector<std::vector<char>> &blocks,
                  bool post, const Instruction *a, const Instruction *b)
{
    if (a == b)
        return true;
    if (a->parent() == b->parent()) {
        int ia = bruteIndexOf(*a->parent(), a);
        int ib = bruteIndexOf(*b->parent(), b);
        return post ? ia >= ib : ia <= ib;
    }
    return blocks[bruteBlockIndex(f, a->parent())]
                 [bruteBlockIndex(f, b->parent())];
}

/** First instruction-level disagreement of @p dom with the oracle. */
std::string
instructionMismatch(const Function &f, const analysis::DomTree &dom,
                    const std::vector<std::vector<char>> &blocks, bool post,
                    const Instruction *a, const Instruction *b)
{
    if (dom.dominates(a, b) ==
        expectedDominates(f, blocks, post, a, b))
        return "";
    std::ostringstream os;
    os << (post ? "post-" : "") << "dominates(" << a->handle() << " in %"
       << a->parent()->name() << ", " << b->handle() << " in %"
       << b->parent()->name() << ")";
    return os.str();
}

/**
 * First disagreement of @p f's cached answers with the oracles; empty
 * when none. Queries every table, so it also primes them.
 */
std::string
tableMismatch(Function *f)
{
    std::ostringstream os;
    const auto &blocks = f->blocks();
    if (f->blockIndex(nullptr) != -1)
        return "blockIndex(null)";
    for (size_t i = 0; i < blocks.size(); ++i) {
        const BasicBlock *bb = blocks[i].get();
        if (f->blockIndex(bb) != static_cast<int>(i)) {
            os << "blockIndex(%" << bb->name() << ") = "
               << f->blockIndex(bb) << ", want " << i;
            return os.str();
        }
        for (size_t j = 0; j < bb->size(); ++j) {
            if (bb->indexOf(bb->insts()[j].get()) != static_cast<int>(j)) {
                os << "indexOf in %" << bb->name() << " at " << j;
                return os.str();
            }
        }
        if (bb->indexOf(nullptr) != -1)
            return "indexOf(null)";
        if (bb->predecessors() != brutePreds(*f, bb)) {
            os << "predecessors(%" << bb->name() << ")";
            return os.str();
        }
    }
    if (blocks.empty())
        return "";

    BruteDominance brute(*f);
    analysis::DomTree dom(f, false), postDom(f, true);
    for (size_t a = 0; a < blocks.size(); ++a) {
        for (size_t b = 0; b < blocks.size(); ++b) {
            const BasicBlock *ba = blocks[a].get();
            const BasicBlock *bb = blocks[b].get();
            if (dom.dominates(ba, bb) != bool(brute.dom[a][b]) ||
                postDom.dominates(ba, bb) != bool(brute.postDom[a][b])) {
                os << "block (post-)dominance of %" << ba->name()
                   << " over %" << bb->name();
                return os.str();
            }
            if (ba->empty() || bb->empty())
                continue;
            for (const Instruction *x : {ba->front(), ba->insts().back().get()}) {
                for (const Instruction *y :
                     {bb->front(), bb->insts().back().get()}) {
                    std::string m =
                        instructionMismatch(*f, dom, brute.dom, false, x, y);
                    if (m.empty())
                        m = instructionMismatch(*f, postDom, brute.postDom,
                                                true, x, y);
                    if (!m.empty())
                        return m;
                }
            }
        }
        const BasicBlock &bb = *blocks[a];
        if (bb.size() > 48)
            continue;
        for (const auto &x : bb.insts()) {
            for (const auto &y : bb.insts()) {
                std::string m = instructionMismatch(*f, dom, brute.dom, false,
                                                    x.get(), y.get());
                if (m.empty())
                    m = instructionMismatch(*f, postDom, brute.postDom, true,
                                            x.get(), y.get());
                if (!m.empty())
                    return m;
            }
        }
    }
    return "";
}

void
expectModuleTables(ir::Module &module, const std::string &where)
{
    for (const auto &f : module.functions())
        EXPECT_EQ(tableMismatch(f.get()), "") << where << " @" << f->name();
}

std::unique_ptr<ir::Module>
compile(const std::string &source)
{
    auto module = std::make_unique<ir::Module>();
    frontend::compileMiniCOrDie(source, *module);
    return module;
}

/** A fresh unused `add` of two constants. */
std::unique_ptr<Instruction>
newAdd(ir::Module &module, const std::string &name)
{
    auto inst = std::make_unique<Instruction>(
        ir::Opcode::Add, module.types().i64Ty(), name);
    inst->addOperand(module.intConst(module.types().i64Ty(), 1));
    inst->addOperand(module.intConst(module.types().i64Ty(), 2));
    return inst;
}

/** First block whose terminator satisfies @p want; null if none. */
BasicBlock *
blockEndingIn(Function &f, const std::function<bool(Instruction *)> &want)
{
    for (const auto &bb : f.blocks()) {
        if (bb->terminator() && want(bb->terminator()))
            return bb.get();
    }
    return nullptr;
}

/**
 * One mutation scenario: mutates a function whose tables were just
 * primed, calling @p check after every single mutation.
 */
using Scenario = std::function<void(ir::Module &, Function &,
                                    const std::function<void()> &check)>;

const std::vector<std::pair<std::string, Scenario>> &
scenarios()
{
    static const std::vector<std::pair<std::string, Scenario>> all = {
        {"setBlockTarget",
         [](ir::Module &, Function &f, const std::function<void()> &check) {
             BasicBlock *bb = blockEndingIn(
                 f, [](Instruction *t) { return t->isConditionalBranch(); });
             if (!bb)
                 return;
             Instruction *br = bb->terminator();
             BasicBlock *was = br->blockTargets()[0];
             br->setBlockTarget(0, f.blocks().back().get());
             check();
             br->setBlockTarget(0, f.entry());
             check();
             br->setBlockTarget(0, was);
             check();
         }},
        {"addBlockTarget",
         [](ir::Module &, Function &f, const std::function<void()> &check) {
             BasicBlock *bb = blockEndingIn(f, [](Instruction *t) {
                 return t->is(ir::Opcode::Br) && !t->isConditionalBranch();
             });
             if (!bb)
                 return;
             Instruction *br = bb->terminator();
             br->addBlockTarget(f.entry());
             check();
             // A repeated target lists the block once among the
             // predecessors.
             br->setBlockTarget(1, br->blockTargets()[0]);
             check();
         }},
        {"detach and append a terminator",
         [](ir::Module &, Function &f, const std::function<void()> &check) {
             BasicBlock *bb = blockEndingIn(
                 f, [](Instruction *t) { return !t->blockTargets().empty(); });
             if (!bb)
                 return;
             auto term = bb->detach(bb->terminator());
             check();
             bb->append(std::move(term));
             check();
         }},
        {"insert and erase",
         [](ir::Module &m, Function &f, const std::function<void()> &check) {
             BasicBlock *bb = f.entry();
             for (const auto &b : f.blocks()) {
                 if (b->size() > bb->size())
                     bb = b.get();
             }
             Instruction *first = bb->insert(0, newAdd(m, "first"));
             check();
             Instruction *mid = bb->insert(bb->size() / 2, newAdd(m, "mid"));
             check();
             // After the terminator: the block loses its successors.
             Instruction *last = bb->append(newAdd(m, "last"));
             check();
             bb->erase(first);
             check();
             bb->erase(last);
             check();
             mid->eraseFromParent();
             check();
         }},
        {"createBlock and eraseBlock",
         [](ir::Module &m, Function &f, const std::function<void()> &check) {
             BasicBlock *target = f.blocks().size() > 1
                                      ? f.blocks()[1].get()
                                      : f.entry();
             BasicBlock *a = f.createBlock("extra.a");
             check();
             BasicBlock *b = f.createBlock("extra.b");
             auto br = std::make_unique<Instruction>(
                 ir::Opcode::Br, m.types().voidTy(), "");
             br->addBlockTarget(b);
             a->append(std::move(br));
             check();
             br = std::make_unique<Instruction>(ir::Opcode::Br,
                                                m.types().voidTy(), "");
             br->addBlockTarget(target);
             b->append(std::move(br));
             check();
             a->erase(a->terminator());
             f.eraseBlock(a);
             check();
             b->erase(b->terminator());
             f.eraseBlock(b);
             check();
         }},
        {"eraseInstructions",
         [](ir::Module &m, Function &f, const std::function<void()> &check) {
             std::vector<Instruction *> dead;
             for (const auto &bb : f.blocks()) {
                 Instruction *x = bb->insert(0, newAdd(m, "x"));
                 auto y = newAdd(m, "y");
                 y->setOperand(0, x); // a use inside the dead set
                 dead.push_back(bb->insert(1, std::move(y)));
                 dead.push_back(x);
                 if (dead.size() >= 8)
                     break;
             }
             check();
             f.eraseInstructions(dead);
             check();
         }},
    };
    return all;
}

} // namespace

TEST(IrCore, TablesFollowEveryMutation)
{
    for (const auto &prog : benchmarks::nasParboilSuite()) {
        for (const auto &[name, scenario] : scenarios()) {
            auto module = compile(prog.source);
            for (const auto &f : module->functions()) {
                if (f->isDeclaration())
                    continue;
                ASSERT_EQ(tableMismatch(f.get()), "")
                    << prog.name << " @" << f->name();
                int step = 0;
                scenario(*module, *f, [&, name = name] {
                    ++step;
                    EXPECT_EQ(tableMismatch(f.get()), "")
                        << prog.name << " @" << f->name() << ": " << name
                        << ", after mutation " << step;
                });
            }
        }
    }
}

TEST(IrCore, DomTreeFollowsMovedInstructions)
{
    // Block dominance is a property of the CFG; instruction dominance
    // reads live positions, so a tree survives instruction moves.
    for (const auto &prog : benchmarks::nasParboilSuite()) {
        auto module = compile(prog.source);
        for (const auto &f : module->functions()) {
            if (f->blocks().size() < 2)
                continue;
            analysis::DomTree dom(f.get(), false);
            BruteDominance brute(*f);
            BasicBlock *from = f->entry();
            BasicBlock *to = f->blocks().back().get();
            ASSERT_EQ(tableMismatch(f.get()), "");
            // Move the entry's first non-phi, non-terminator to the
            // front of the last block, and one back again.
            Instruction *moved = from->front();
            if (moved->isTerminator())
                continue;
            to->insert(0, from->detach(moved));
            for (const BasicBlock *bb : {from, to}) {
                for (const auto &x : bb->insts()) {
                    for (const auto &y : to->insts()) {
                        EXPECT_EQ(instructionMismatch(*f, dom, brute.dom,
                                                      false, x.get(),
                                                      y.get()),
                                  "")
                            << prog.name << " @" << f->name();
                    }
                }
            }
            from->insert(0, to->detach(moved));
            EXPECT_EQ(tableMismatch(f.get()), "") << prog.name;
        }
    }
}

TEST(IrCore, TablesHoldAcrossRewriteCommits)
{
    size_t committed = 0;
    for (const auto &prog : benchmarks::nasParboilSuite()) {
        auto module = compile(prog.source);
        idioms::IdiomDetector detector;
        auto matches = detector.detectModule(*module);
        expectModuleTables(*module, prog.name + " before commit");
        transform::RewriteEngine engine(*module);
        committed += engine.applyAll(matches).size();
        expectModuleTables(*module, prog.name + " after commit");
    }
    EXPECT_GT(committed, 0u);
}

TEST(IrCore, TablesHoldAcrossRewriteRollback)
{
    auto module = compile(R"(
        double chain(double *a, double *b, int n) {
            double s = 0.0;
            for (int i = 0; i < n; i++)
                s = s + a[i];
            double t = s;
            for (int j = 0; j < n; j++)
                t = t + b[j];
            return t;
        }
    )");
    idioms::IdiomDetector detector;
    auto matches = detector.detectModule(*module);
    transform::RewriteEngine engine(*module);
    auto plans = engine.planAll(matches);
    ASSERT_EQ(plans.size(), 2u);
    // The second plan's commit fails after the first one retargeted
    // branches: the function is rolled back.
    plans[1].loop.precursor = plans[1].loop.successor;
    expectModuleTables(*module, "before commit");
    EXPECT_TRUE(engine.commit(std::move(plans)).empty());
    EXPECT_EQ(engine.stats().rolledBack, 2u);
    expectModuleTables(*module, "after rollback");
}

TEST(IrCore, TablesHoldAcrossHardenCommits)
{
    for (const auto &prog : benchmarks::nasParboilSuite()) {
        auto module = compile(prog.source);
        transform::RewriteEngine engine(*module);
        std::vector<transform::RewritePlan> plans;
        for (const auto &f : module->functions()) {
            if (!f->isDeclaration())
                plans.push_back(
                    engine.planHarden(f.get(), transform::HardenOptions{}));
        }
        expectModuleTables(*module, prog.name + " before harden");
        EXPECT_FALSE(engine.commit(std::move(plans)).empty());
        expectModuleTables(*module, prog.name + " after harden");
    }
}

namespace {

/**
 * Every value's users, as block/instruction positions, for every
 * function of @p module: constants and globals too, restricted to the
 * function's own users in use-list order.
 */
std::string
useListSignature(ir::Module &module)
{
    std::ostringstream os;
    for (const auto &f : module.functions()) {
        auto users = [&](const ir::Value *v) {
            for (const Instruction *u : v->users()) {
                if (u->function() == f.get())
                    os << " " << bruteBlockIndex(*f, u->parent()) << "."
                       << bruteIndexOf(*u->parent(), u);
            }
            os << "\n";
        };
        os << "@" << f->name() << "\n";
        for (const auto &a : f->args())
            users(a.get());
        for (const auto &bb : f->blocks()) {
            for (const auto &inst : bb->insts()) {
                users(inst.get());
                for (const ir::Value *op : inst->operands()) {
                    if (op->isConstant() || op->isGlobal())
                        users(op);
                }
            }
        }
    }
    return os.str();
}

} // namespace

TEST(IrCore, UseListsDoNotDependOnHeapLayout)
{
    // The solver enumerates users in use-list order, so two compiles
    // of one source must agree on it whatever else the heap holds.
    std::vector<std::unique_ptr<char[]>> noise;
    for (const auto &prog : benchmarks::nasParboilSuite()) {
        std::string first;
        for (int round = 0; round < 4; ++round) {
            // Unrelated allocations of instruction-like sizes, some
            // freed again, shift where the next compile's IR lands.
            for (int k = 0; k < 64; ++k)
                noise.emplace_back(new char[24 + (k * 37 + round * 11) % 360]);
            for (size_t k = round; k < noise.size(); k += 3)
                noise[k].reset();
            auto module = compile(prog.source);
            std::string sig = useListSignature(*module);
            if (round == 0)
                first = sig;
            else
                EXPECT_EQ(sig, first) << prog.name << ", compile " << round;
        }
    }
}
