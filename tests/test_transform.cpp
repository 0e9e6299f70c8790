#include <gtest/gtest.h>
#include "benchmarks/suite.h"
#include "frontend/compiler.h"
#include "idioms/library.h"
#include "interp/builtins.h"
#include "interp/interpreter.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "driver/driver.h"
#include "transform/binder.h"
#include "transform/rewrite.h"
#include "transform/transform.h"

using namespace repro;
using interp::RuntimeValue;

namespace {

RuntimeValue I(int64_t v) { return RuntimeValue::makeInt(v); }
RuntimeValue F(double v) { return RuntimeValue::makeFP(v); }

/** Compile source twice: run @p fn sequentially and transformed,
 *  then compare a double array of @p n elements at @p out_addr. */
struct Pipeline
{
    std::unique_ptr<ir::Module> module =
        std::make_unique<ir::Module>();
    std::vector<transform::Replacement> replacements;
    int matches = 0;

    void
    build(const char *src, bool do_transform)
    {
        frontend::compileMiniCOrDie(src, *module);
        if (!do_transform)
            return;
        idioms::IdiomDetector det;
        auto found = det.detectModule(*module);
        matches = static_cast<int>(found.size());
        transform::RewriteEngine engine(*module);
        replacements = engine.applyAll(found);
        auto problems = ir::verifyModule(*module);
        ASSERT_TRUE(problems.empty())
            << problems.front() << "\n"
            << ir::printModule(*module);
    }
};

} // namespace

TEST(Transform, SpmvMatchesSequential)
{
    const char *src = R"(
        void spmv(int m, int *rowstr, int *colidx, double *a,
                  double *z, double *r) {
            for (int j = 0; j < m; j++) {
                double d = 0.0;
                for (int k = rowstr[j]; k < rowstr[j+1]; k++)
                    d = d + a[k] * z[colidx[k]];
                r[j] = d;
            }
        }
    )";
    // Tiny CSR matrix: 3 rows.
    auto run = [&](bool transformed) {
        Pipeline p;
        p.build(src, transformed);
        if (transformed) {
            EXPECT_GE(p.matches, 1);
            EXPECT_EQ(p.replacements.size(), 1u);
            EXPECT_EQ(p.replacements[0].kind, "spmv");
        }
        interp::Memory mem;
        interp::Interpreter it(*p.module, mem);
        interp::registerMathBuiltins(it);
        transform::bindReplacements(it, p.replacements);
        uint64_t rowstr = mem.allocate(4 * 4);
        uint64_t colidx = mem.allocate(5 * 4);
        uint64_t a = mem.allocate(5 * 8);
        uint64_t z = mem.allocate(3 * 8);
        uint64_t r = mem.allocate(3 * 8);
        int32_t rs[4] = {0, 2, 3, 5};
        int32_t ci[5] = {0, 2, 1, 0, 2};
        double av[5] = {1, 2, 3, 4, 5};
        double zv[3] = {1, 10, 100};
        for (int i = 0; i < 4; ++i) mem.store<int32_t>(rowstr+4*i, rs[i]);
        for (int i = 0; i < 5; ++i) mem.store<int32_t>(colidx+4*i, ci[i]);
        for (int i = 0; i < 5; ++i) mem.store<double>(a+8*i, av[i]);
        for (int i = 0; i < 3; ++i) mem.store<double>(z+8*i, zv[i]);
        it.run(p.module->functionByName("spmv"),
               {I(3), I(rowstr), I(colidx), I(a), I(z), I(r)});
        std::vector<double> out(3);
        for (int i = 0; i < 3; ++i) out[i] = mem.load<double>(r+8*i);
        return out;
    };
    auto seq = run(false);
    auto acc = run(true);
    ASSERT_EQ(seq.size(), acc.size());
    for (size_t i = 0; i < seq.size(); ++i)
        EXPECT_DOUBLE_EQ(seq[i], acc[i]) << "row " << i;
    EXPECT_DOUBLE_EQ(seq[0], 201.0);
}

TEST(Transform, ReductionMatchesSequential)
{
    const char *src = R"(
        double norm(double *a, double *b, int n) {
            double s = 0.0;
            for (int i = 0; i < n; i++)
                s += a[i] * b[i];
            return s;
        }
    )";
    auto run = [&](bool transformed) {
        Pipeline p;
        p.build(src, transformed);
        if (transformed)
            EXPECT_EQ(p.replacements.size(), 1u);
        interp::Memory mem;
        interp::Interpreter it(*p.module, mem);
        transform::bindReplacements(it, p.replacements);
        uint64_t a = mem.allocate(8 * 8), b = mem.allocate(8 * 8);
        for (int i = 0; i < 8; ++i) {
            mem.store<double>(a + 8 * i, i + 1.0);
            mem.store<double>(b + 8 * i, 0.5 * i);
        }
        return it.run(p.module->functionByName("norm"),
                      {I(a), I(b), I(8)}).f;
    };
    EXPECT_DOUBLE_EQ(run(false), run(true));
}

TEST(Transform, HistogramMatchesSequential)
{
    const char *src = R"(
        void histo(int *bins, int *key, int n) {
            for (int i = 0; i < n; i++)
                bins[key[i]] += 1;
        }
    )";
    auto run = [&](bool transformed) {
        Pipeline p;
        p.build(src, transformed);
        if (transformed)
            EXPECT_EQ(p.replacements.size(), 1u);
        interp::Memory mem;
        interp::Interpreter it(*p.module, mem);
        transform::bindReplacements(it, p.replacements);
        uint64_t bins = mem.allocate(4 * 4), key = mem.allocate(10 * 4);
        int32_t keys[10] = {0, 1, 2, 3, 0, 1, 2, 0, 1, 0};
        for (int i = 0; i < 10; ++i)
            mem.store<int32_t>(key + 4 * i, keys[i]);
        it.run(p.module->functionByName("histo"),
               {I(bins), I(key), I(10)});
        std::vector<int32_t> out(4);
        for (int i = 0; i < 4; ++i)
            out[i] = mem.load<int32_t>(bins + 4 * i);
        return out;
    };
    auto seq = run(false);
    auto acc = run(true);
    EXPECT_EQ(seq, acc);
    EXPECT_EQ(seq[0], 4);
}

TEST(Transform, GemmFlatMatchesSequential)
{
    const char *src = R"(
        void sgemm(float *A, int lda, float *B, int ldb, float *C,
                   int ldc, int m, int n, int k,
                   float alpha, float beta) {
            for (int mm = 0; mm < m; mm++) {
                for (int nn = 0; nn < n; nn++) {
                    float c = 0.0f;
                    for (int i = 0; i < k; i++)
                        c += A[mm + i * lda] * B[nn + i * ldb];
                    C[mm+nn*ldc] = C[mm+nn*ldc] * beta + alpha * c;
                }
            }
        }
    )";
    const int M = 4, N = 3, K = 5;
    auto run = [&](bool transformed) {
        Pipeline p;
        p.build(src, transformed);
        if (transformed) {
            EXPECT_EQ(p.replacements.size(), 1u);
            EXPECT_EQ(p.replacements[0].kind, "gemm");
        }
        interp::Memory mem;
        interp::Interpreter it(*p.module, mem);
        transform::bindReplacements(it, p.replacements);
        uint64_t A = mem.allocate(M * K * 4);
        uint64_t B = mem.allocate(N * K * 4);
        uint64_t C = mem.allocate(M * N * 4);
        for (int i = 0; i < M * K; ++i)
            mem.store<float>(A + 4 * i, 0.25f * i);
        for (int i = 0; i < N * K; ++i)
            mem.store<float>(B + 4 * i, 1.0f - 0.1f * i);
        for (int i = 0; i < M * N; ++i)
            mem.store<float>(C + 4 * i, 2.0f);
        it.run(p.module->functionByName("sgemm"),
               {I(A), I(M), I(B), I(N), I(C), I(M), I(M), I(N), I(K),
                F(1.5), F(0.5)});
        std::vector<float> out(M * N);
        for (int i = 0; i < M * N; ++i)
            out[i] = mem.load<float>(C + 4 * i);
        return out;
    };
    auto seq = run(false);
    auto acc = run(true);
    for (size_t i = 0; i < seq.size(); ++i)
        EXPECT_FLOAT_EQ(seq[i], acc[i]) << "elem " << i;
}

TEST(Transform, Stencil3dMatchesSequential)
{
    const char *src = R"(
        void stencil(double c0, double c1, double *A0, double *Anext,
                     int nx, int ny, int nz) {
            for (int k = 1; k < nz - 1; k++)
                for (int j = 1; j < ny - 1; j++)
                    for (int i = 1; i < nx - 1; i++)
                        Anext[i + nx * (j + ny * k)] =
                          c1 * (A0[(i+1) + nx * (j + ny * k)] +
                                A0[(i-1) + nx * (j + ny * k)] +
                                A0[i + nx * ((j+1) + ny * k)] +
                                A0[i + nx * ((j-1) + ny * k)] +
                                A0[i + nx * (j + ny * (k+1))] +
                                A0[i + nx * (j + ny * (k-1))]) -
                          c0 * A0[i + nx * (j + ny * k)];
        }
    )";
    const int NX = 6, NY = 5, NZ = 4, TOTAL = NX * NY * NZ;
    auto run = [&](bool transformed) {
        Pipeline p;
        p.build(src, transformed);
        if (transformed) {
            EXPECT_EQ(p.replacements.size(), 1u);
            EXPECT_EQ(p.replacements[0].kind, "stencil3d");
        }
        interp::Memory mem;
        interp::Interpreter it(*p.module, mem);
        transform::bindReplacements(it, p.replacements);
        uint64_t A0 = mem.allocate(TOTAL * 8);
        uint64_t An = mem.allocate(TOTAL * 8);
        for (int i = 0; i < TOTAL; ++i)
            mem.store<double>(A0 + 8 * i, 0.01 * i * (i % 7));
        it.run(p.module->functionByName("stencil"),
               {F(2.0), F(0.1), I(A0), I(An), I(NX), I(NY), I(NZ)});
        std::vector<double> out(TOTAL);
        for (int i = 0; i < TOTAL; ++i)
            out[i] = mem.load<double>(An + 8 * i);
        return out;
    };
    auto seq = run(false);
    auto acc = run(true);
    for (size_t i = 0; i < seq.size(); ++i)
        EXPECT_DOUBLE_EQ(seq[i], acc[i]) << "cell " << i;
}

// Table-driven differential sweep: on every Table 1 suite program the
// transactional engine (applyAll) and the legacy per-match path
// (applyAllReference) must produce byte-identical modules and
// replacement metadata — and the corpus idiom counts must stay at the
// paper's 45/5/6/1/3.
TEST(Transform, EngineMatchesReferenceOnTable1Suite)
{
    int sr = 0, histos = 0, stencils = 0, matrix = 0, sparse = 0;
    for (const auto &b : benchmarks::nasParboilSuite()) {
        ir::Module ref_module, eng_module;
        frontend::compileMiniCOrDie(b.source, ref_module);
        frontend::compileMiniCOrDie(b.source, eng_module);
        idioms::IdiomDetector ref_det, eng_det;
        auto ref_matches = ref_det.detectModule(ref_module);
        auto eng_matches = eng_det.detectModule(eng_module);
        ASSERT_EQ(ref_matches.size(), eng_matches.size()) << b.name;
        for (const auto &m : eng_matches) {
            switch (m.cls) {
              case idioms::IdiomClass::ScalarReduction: ++sr; break;
              case idioms::IdiomClass::HistogramReduction:
                ++histos;
                break;
              case idioms::IdiomClass::Stencil: ++stencils; break;
              case idioms::IdiomClass::MatrixOp: ++matrix; break;
              case idioms::IdiomClass::SparseMatrixOp: ++sparse; break;
              default: break;
            }
        }

        transform::Transformer ref_tr(ref_module);
        auto ref_reps = ref_tr.applyAllReference(ref_matches);
        transform::RewriteEngine engine(eng_module);
        auto eng_reps = engine.applyAll(eng_matches);

        ASSERT_EQ(ref_reps.size(), eng_reps.size()) << b.name;
        for (size_t i = 0; i < ref_reps.size(); ++i) {
            const auto &r = ref_reps[i];
            const auto &e = eng_reps[i];
            EXPECT_EQ(r.kind, e.kind) << b.name;
            EXPECT_EQ(r.calleeName, e.calleeName) << b.name;
            EXPECT_EQ(r.kernel != nullptr, e.kernel != nullptr)
                << b.name;
            if (r.kernel && e.kernel)
                EXPECT_EQ(r.kernel->name(), e.kernel->name());
            EXPECT_EQ(r.indexKernel != nullptr,
                      e.indexKernel != nullptr)
                << b.name;
            EXPECT_EQ(r.numReads, e.numReads) << b.name;
            EXPECT_EQ(r.numInvariants, e.numInvariants) << b.name;
            EXPECT_EQ(r.numIndexInvariants, e.numIndexInvariants)
                << b.name;
            EXPECT_EQ(r.readKinds, e.readKinds) << b.name;
            EXPECT_EQ(r.readOffsets, e.readOffsets) << b.name;
            EXPECT_EQ(r.stencilDims, e.stencilDims) << b.name;
            EXPECT_EQ(r.elemKind, e.elemKind) << b.name;
        }
        EXPECT_EQ(ir::printModule(ref_module),
                  ir::printModule(eng_module))
            << b.name;
        auto ref_problems = ir::verifyModule(ref_module);
        auto eng_problems = ir::verifyModule(eng_module);
        EXPECT_TRUE(ref_problems.empty()) << b.name;
        EXPECT_TRUE(eng_problems.empty()) << b.name;
    }
    EXPECT_EQ(sr, 45);
    EXPECT_EQ(histos, 5);
    EXPECT_EQ(stencils, 6);
    EXPECT_EQ(matrix, 1);
    EXPECT_EQ(sparse, 3);
}

namespace {

/**
 * Negative-oracle fixture: a reduction program whose result is
 * published through a single store to the `out` argument. The tamper
 * hook drops exactly that store, so the watched output keeps its
 * sentinel value and differential verification must notice.
 */
benchmarks::BenchmarkProgram
dotProgram()
{
    benchmarks::BenchmarkProgram p;
    p.name = "oracle-dot";
    p.suite = "test";
    p.entry = "dot";
    p.source = R"(
        double dot(int n, double *a, double *b, double *out) {
            double s = 0.0;
            for (int i = 0; i < n; i++)
                s = s + a[i] * b[i];
            out[0] = s;
            return s;
        }
    )";
    p.setup = [](interp::Memory &mem) {
        const int n = 64;
        benchmarks::Instance inst;
        uint64_t a = mem.allocate(n * 8);
        uint64_t b = mem.allocate(n * 8);
        uint64_t out = mem.allocate(8);
        for (int i = 0; i < n; ++i) {
            mem.store<double>(a + 8 * i, 0.5 + 0.25 * i);
            mem.store<double>(b + 8 * i, 2.0 - 0.125 * i);
        }
        mem.store<double>(out, -1.0); // sentinel the sabotage exposes
        inst.args = {I(n), I(a), I(b), I(out)};
        inst.watchDoubles = {{out, 1}};
        return inst;
    };
    return p;
}

/** Erase every store whose pointer traces to argument @p argIndex of
 *  @p fn (directly or through one GEP). */
void
dropStoresTo(ir::Function *fn, size_t argIndex)
{
    ir::Value *target = fn->arg(argIndex);
    std::vector<ir::Instruction *> victims;
    for (auto &bb : fn->blocks()) {
        for (auto &inst : bb->insts()) {
            if (inst->opcode() != ir::Opcode::Store)
                continue;
            ir::Value *ptr = inst->operand(1);
            if (ptr == target) {
                victims.push_back(inst.get());
                continue;
            }
            auto *gep = dynamic_cast<ir::Instruction *>(ptr);
            if (gep && gep->opcode() == ir::Opcode::GEP &&
                gep->operand(0) == target)
                victims.push_back(inst.get());
        }
    }
    ASSERT_FALSE(victims.empty())
        << "no store to argument " << argIndex << " found";
    for (ir::Instruction *inst : victims)
        inst->parent()->erase(inst);
}

} // namespace

TEST(Transform, NegativeOracleDroppedStoreFailsVerification)
{
    benchmarks::BenchmarkProgram prog = dotProgram();
    driver::MatchingDriver drv;

    // The untampered pipeline must pass and must actually transform
    // (the reduction loop is idiomatic), so the oracle below is
    // exercising verification of rewritten code, not a no-op run.
    driver::TransformVerification clean = drv.verifyTransform(prog);
    ASSERT_TRUE(clean.ok()) << clean.error;
    ASSERT_GE(clean.replacements, 1u);

    // Sabotage: drop the store publishing the result. Verification
    // must fail, and the failure must be attributed to the watched
    // output comparison, not to an engine disagreement.
    driver::TransformVerification broken = drv.verifyTransform(
        prog, [](ir::Module &m) {
            ir::Function *fn = m.functionByName("dot");
            ASSERT_NE(fn, nullptr);
            dropStoresTo(fn, 3);
        });
    EXPECT_FALSE(broken.ok());
    EXPECT_NE(broken.error.find("watched double"), std::string::npos)
        << broken.error;
}

TEST(Transform, NegativeOracleNullTamperMatchesPlainVerify)
{
    // The hook itself must not perturb verification: a present but
    // empty tamper behaves exactly like the 1-argument overload.
    benchmarks::BenchmarkProgram prog = dotProgram();
    driver::MatchingDriver drv;
    driver::TransformVerification hooked =
        drv.verifyTransform(prog, [](ir::Module &) {});
    EXPECT_TRUE(hooked.ok()) << hooked.error;
    driver::TransformVerification plain = drv.verifyTransform(prog);
    EXPECT_EQ(plain.ok(), hooked.ok());
    EXPECT_EQ(plain.originalSteps, hooked.originalSteps);
    EXPECT_EQ(plain.transformedSteps, hooked.transformedSteps);
    EXPECT_EQ(plain.replacements, hooked.replacements);
}
