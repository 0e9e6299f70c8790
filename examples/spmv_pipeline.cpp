/**
 * @file
 * The full pipeline of section 2.3 (Figures 4, 5 and 6): the NAS CG
 * sparse matrix-vector kernel is detected by the SPMV idiom, the
 * constraint solution is printed (Figure 5), the loop nest is replaced
 * with a cusparseDcsrmv-style call (Figure 6), and the transformed
 * program is executed and verified against the sequential original.
 */
#include <cstdio>

#include "frontend/compiler.h"
#include "idioms/library.h"
#include "interp/interpreter.h"
#include "ir/printer.h"
#include "transform/binder.h"
#include "transform/rewrite.h"

using namespace repro;
using interp::RuntimeValue;

namespace {

const char *kSource = R"(
    void spmv(int m, int *rowstr, int *colidx, double *a, double *z,
              double *r) {
        for (int j = 0; j < m; j++) {
            double d = 0.0;
            for (int k = rowstr[j]; k < rowstr[j+1]; k++)
                d = d + a[k] * z[colidx[k]];
            r[j] = d;
        }
    }
)";

RuntimeValue
I(int64_t v)
{
    return RuntimeValue::makeInt(v);
}

std::vector<double>
runProgram(bool transformed)
{
    ir::Module module;
    frontend::compileMiniCOrDie(kSource, module);
    ir::Function *func = module.functionByName("spmv");

    std::vector<transform::Replacement> replacements;
    if (transformed) {
        idioms::IdiomDetector detector;
        auto matches = detector.detectOne(func, "SPMV");
        std::printf("=== Constraint solution (Figure 5) ===\n");
        const auto &sol = matches.at(0).solution;
        for (const char *var :
             {"iterator", "inner.iter_begin", "inner.iter_end",
              "inner.iterator", "idx_read.value", "seq_read.value",
              "indir_read.value", "output.address", "iter_begin",
              "iter_end", "idx_read.base_pointer",
              "seq_read.base_pointer", "indir_read.base_pointer"}) {
            const ir::Value *v = sol.lookup(var);
            std::printf("  %-24s -> %s\n", var,
                        v ? v->handle().c_str() : "(unbound)");
        }
        transform::RewriteEngine engine(module);
        replacements = engine.applyAll(matches);
        std::printf("\n=== Transformed IR (Figure 6's call) ===\n%s\n",
                    ir::printFunction(func).c_str());
    }

    interp::Memory mem;
    interp::Interpreter interp(module, mem);
    transform::bindReplacements(interp, replacements);

    // A small CSR matrix.
    const int n = 4;
    int32_t rowstr[] = {0, 2, 3, 5, 6};
    int32_t colidx[] = {0, 2, 1, 0, 3, 2};
    double a[] = {2.0, 1.0, 3.0, 4.0, 0.5, 6.0};
    double z[] = {1.0, 10.0, 100.0, 1000.0};
    uint64_t rs = mem.allocate(sizeof(rowstr));
    uint64_t ci = mem.allocate(sizeof(colidx));
    uint64_t av = mem.allocate(sizeof(a));
    uint64_t zv = mem.allocate(sizeof(z));
    uint64_t rv = mem.allocate(n * 8);
    for (int i = 0; i < n + 1; ++i)
        mem.store<int32_t>(rs + 4 * i, rowstr[i]);
    for (int i = 0; i < 6; ++i) {
        mem.store<int32_t>(ci + 4 * i, colidx[i]);
        mem.store<double>(av + 8 * i, a[i]);
    }
    for (int i = 0; i < n; ++i)
        mem.store<double>(zv + 8 * i, z[i]);

    interp.run(func, {I(n), I(rs), I(ci), I(av), I(zv), I(rv)});

    std::vector<double> out(n);
    for (int i = 0; i < n; ++i)
        out[i] = mem.load<double>(rv + 8 * i);
    return out;
}

} // namespace

int
main()
{
    std::printf("=== NAS CG kernel (Figure 4) ===\n%s\n", kSource);
    auto sequential = runProgram(false);
    auto accelerated = runProgram(true);

    std::printf("=== Verification ===\n");
    bool ok = true;
    for (size_t i = 0; i < sequential.size(); ++i) {
        std::printf("  r[%zu] = %-10g (sequential)  %-10g "
                    "(cuSPARSE-style call)\n",
                    i, sequential[i], accelerated[i]);
        ok = ok && sequential[i] == accelerated[i];
    }
    std::printf(ok ? "results identical\n" : "MISMATCH\n");
    return ok ? 0 : 1;
}
