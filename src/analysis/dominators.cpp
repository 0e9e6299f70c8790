#include "analysis/dominators.h"

#include <algorithm>

#include "support/diagnostics.h"

namespace repro::analysis {

DomTree::DomTree(Function *func, bool post_dom)
    : func_(func), postDom_(post_dom)
{
    build();
}

int
DomTree::indexOf(const BasicBlock *bb) const
{
    int i = func_->blockIndex(bb);
    reproAssert(i >= 0 && static_cast<size_t>(i) < nodes_.size() &&
                    nodes_[i] == bb,
                "DomTree: foreign block");
    return i;
}

void
DomTree::build()
{
    const auto &blocks = func_->blocks();
    int n = static_cast<int>(blocks.size());
    for (int i = 0; i < n; ++i)
        nodes_.push_back(blocks[i].get());

    // Forward edges at block level.
    std::vector<std::vector<int>> succ(n + 1), pred(n + 1);
    for (int i = 0; i < n; ++i) {
        for (BasicBlock *s : blocks[i]->successors()) {
            succ[i].push_back(indexOf(s));
            pred[indexOf(s)].push_back(i);
        }
    }

    int num_nodes = n;
    if (!postDom_) {
        root_ = 0;
    } else {
        // Virtual exit node n: incoming from every block whose
        // terminator is a return.
        root_ = n;
        num_nodes = n + 1;
        for (int i = 0; i < n; ++i) {
            ir::Instruction *term = blocks[i]->terminator();
            if (term && term->is(ir::Opcode::Ret)) {
                succ[i].push_back(n);
                pred[n].push_back(i);
            }
        }
        std::swap(succ, pred); // reverse the CFG
    }

    // Reverse postorder from the root over `succ`.
    std::vector<int> order;
    std::vector<char> seen(num_nodes, 0);
    std::vector<std::pair<int, size_t>> stack;
    stack.emplace_back(root_, 0);
    seen[root_] = 1;
    while (!stack.empty()) {
        auto &[node, edge] = stack.back();
        if (edge < succ[node].size()) {
            int next = succ[node][edge++];
            if (!seen[next]) {
                seen[next] = 1;
                stack.emplace_back(next, 0);
            }
        } else {
            order.push_back(node);
            stack.pop_back();
        }
    }
    std::reverse(order.begin(), order.end());

    std::vector<int> rpoNumber(num_nodes, -1);
    for (size_t i = 0; i < order.size(); ++i)
        rpoNumber[order[i]] = static_cast<int>(i);

    idom_.assign(num_nodes, -1);
    idom_[root_] = root_;

    auto intersect = [&](int a, int b) {
        while (a != b) {
            while (rpoNumber[a] > rpoNumber[b])
                a = idom_[a];
            while (rpoNumber[b] > rpoNumber[a])
                b = idom_[b];
        }
        return a;
    };

    bool changed = true;
    while (changed) {
        changed = false;
        for (int node : order) {
            if (node == root_)
                continue;
            int new_idom = -1;
            for (int p : pred[node]) {
                if (idom_[p] == -1 || rpoNumber[p] == -1)
                    continue;
                new_idom = new_idom == -1 ? p : intersect(p, new_idom);
            }
            if (new_idom != -1 && idom_[node] != new_idom) {
                idom_[node] = new_idom;
                changed = true;
            }
        }
    }

    preds_ = std::move(pred);

    // Preorder in/out numbers over the tree: a dominates b iff b's
    // interval nests in a's.
    std::vector<std::vector<int>> children(num_nodes);
    for (int node : order) {
        if (node != root_ && idom_[node] != -1)
            children[idom_[node]].push_back(node);
    }
    in_.assign(num_nodes, -1);
    out_.assign(num_nodes, -1);
    int clock = 0;
    std::vector<std::pair<int, size_t>> walk;
    walk.emplace_back(root_, 0);
    in_[root_] = clock++;
    while (!walk.empty()) {
        auto &[node, next] = walk.back();
        if (next < children[node].size()) {
            int child = children[node][next++];
            in_[child] = clock++;
            walk.emplace_back(child, 0);
        } else {
            out_[node] = clock++;
            walk.pop_back();
        }
    }
}

void
DomTree::buildFrontiers() const
{
    int n = static_cast<int>(nodes_.size());
    frontiers_.assign(n, {});
    for (int b = 0; b < n; ++b) {
        if (preds_[b].size() < 2)
            continue;
        for (int p : preds_[b]) {
            if (idom_[p] == -1 || idom_[b] == -1)
                continue;
            int runner = p;
            while (runner != idom_[b] && runner != root_) {
                if (runner < n) {
                    auto &fr = frontiers_[runner];
                    BasicBlock *bb =
                        const_cast<BasicBlock *>(nodes_[b]);
                    // All of b's insertions happen here, in a row.
                    if (fr.empty() || fr.back() != bb)
                        fr.push_back(bb);
                }
                if (idom_[runner] == -1)
                    break;
                runner = idom_[runner];
            }
        }
    }
}

BasicBlock *
DomTree::idom(const BasicBlock *bb) const
{
    int i = indexOf(bb);
    if (i == root_ || idom_[i] == -1)
        return nullptr;
    int d = idom_[i];
    if (d >= static_cast<int>(nodes_.size()))
        return nullptr; // virtual exit
    return const_cast<BasicBlock *>(nodes_[d]);
}

bool
DomTree::dominates(const BasicBlock *a, const BasicBlock *b) const
{
    int ia = indexOf(a), ib = indexOf(b);
    if (in_[ia] == -1 || in_[ib] == -1)
        return false; // off the tree (unreachable)
    return in_[ia] <= in_[ib] && out_[ib] <= out_[ia];
}

bool
DomTree::dominates(const Instruction *a, const Instruction *b) const
{
    if (a == b)
        return true;
    const BasicBlock *ba = a->parent();
    const BasicBlock *bb = b->parent();
    if (ba == bb) {
        int ia = ba->indexOf(a);
        int ib = bb->indexOf(b);
        return postDom_ ? ia >= ib : ia <= ib;
    }
    return dominates(ba, bb);
}

bool
DomTree::strictlyDominates(const Instruction *a,
                           const Instruction *b) const
{
    return a != b && dominates(a, b);
}

const std::vector<BasicBlock *> &
DomTree::frontier(const BasicBlock *bb) const
{
    if (!haveFrontiers_) {
        buildFrontiers();
        haveFrontiers_ = true;
    }
    return frontiers_[indexOf(bb)];
}

} // namespace repro::analysis
