/**
 * @file
 * The two service workloads: an editor-style edit trace sent as
 * SUBMITs over a unix socket to a repro_serviced child process, one
 * connection (service-warm-edit) or nproc connections
 * (service-concurrent-churn), closed loop.
 */
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "ir/verifier.h"
#include "pipeline.h"
#include "service/protocol.h"
#include "service/service.h"

extern char **environ;

namespace perfbench {

namespace service = repro::service;

namespace {

// ------------------------------------------------------- edit trace

constexpr size_t kFunctions = 10;
/** SUBMITs per pass (pass_ms): one connection's next ten edits. */
constexpr size_t kPassSubmits = 10;

/**
 * One function of a client module. The knob re-draws the function's
 * constants (loop bounds, coefficients) without changing its shape,
 * so an edit changes the function's contentHash and nothing else.
 * Slots 0-5 hold idioms (reduction, dot product, histogram, 1D
 * stencil, CSR SpMV, GEMM nest); 6-9 are plain code.
 */
std::string
functionSource(size_t slot, uint32_t k)
{
    const unsigned n = 64 + k % 100000;
    const unsigned c = 1 + k % 997;
    std::ostringstream os;
    switch (slot) {
      case 0:
        os << "double f0_sum(double *a) {\n"
              "    double s = 0.0;\n"
              "    for (int i = 0; i < " << n << "; i++)\n"
              "        s = s + a[i];\n"
              "    return s;\n}\n";
        break;
      case 1:
        os << "void f1_dot(double *a, double *b, double *out) {\n"
              "    double s = 0.0;\n"
              "    for (int i = 0; i < " << n << "; i++)\n"
              "        s = s + a[i] * b[i];\n"
              "    out[0] = s;\n}\n";
        break;
      case 2:
        os << "void f2_histo(int *keys, int *bins) {\n"
              "    for (int i = 0; i < " << n << "; i++)\n"
              "        bins[keys[i]] = bins[keys[i]] + 1;\n}\n";
        break;
      case 3:
        os << "void f3_stencil(double *in, double *out) {\n"
              "    for (int i = 1; i < " << n << "; i++)\n"
              "        out[i] = " << c << ".5 * in[i - 1] + in[i]"
                                         " + in[i + 1];\n}\n";
        break;
      case 4:
        os << "void f4_spmv(int n, int *rowstr, int *colidx, "
              "double *val, double *x, double *y) {\n"
              "    for (int j = 0; j < n; j++) {\n"
              "        double d = 0.0;\n"
              "        for (int k = rowstr[j]; k < rowstr[j+1]; k++)\n"
              "            d = d + val[k] * x[colidx[k]];\n"
              "        y[j] = " << c << ".25 * d;\n"
              "    }\n}\n";
        break;
      case 5:
        os << "void f5_gemm(double *a, double *b, double *c) {\n"
              "    for (int i = 0; i < " << 8 + k % 61 << "; i++)\n"
              "        for (int j = 0; j < " << 8 + k % 53 << "; j++) {\n"
              "            double s = 0.0;\n"
              "            for (int p = 0; p < 16; p++)\n"
              "                s = s + a[i * 16 + p] * b[p * 64 + j];\n"
              "            c[i * 64 + j] = s;\n"
              "        }\n}\n";
        break;
      case 6:
        os << "void f6_scale(double *a, double *out) {\n"
              "    for (int i = 0; i < " << n << "; i++)\n"
              "        out[i] = a[i] * " << c << ".0;\n}\n";
        break;
      case 7:
        os << "void f7_recur(double *a) {\n"
              "    for (int i = 1; i < " << n << "; i++)\n"
              "        a[i] = a[i] - 0." << c << " * a[i - 1];\n}\n";
        break;
      case 8:
        os << "int f8_clamp(int x) {\n"
              "    if (x < " << c << ")\n"
              "        return " << c << ";\n"
              "    return x;\n}\n";
        break;
      default:
        os << "int f9_mix(int a, int b) {\n"
              "    return a * " << c << " + b * " << n << ";\n}\n";
        break;
    }
    return os.str();
}

/** The traffic shape of one service workload. */
struct Shape
{
    size_t connections = 1;
    /** Functions re-drawn by successive edits, cycling. */
    std::vector<size_t> redraws = {1, 2};
    /** SUBMITs per traced block (after the cold ones). */
    size_t tracedSubmits = 300;
};

/** One client's module and its seeded edit stream. */
struct Client
{
    std::string module;
    std::vector<uint32_t> knobs;
    Rng rng;
    std::vector<size_t> redraws;
    size_t edits = 0;
    /** Slots still to re-draw in the current round. */
    std::vector<size_t> round;

    Client(uint64_t seed, size_t index, const Shape &shape)
        : module("m" + std::to_string(index)),
          rng{seed * 0x100000001b3ull + index}, redraws(shape.redraws)
    {
        for (size_t f = 0; f < kFunctions; ++f)
            knobs.push_back(static_cast<uint32_t>(rng.below(1u << 30)));
    }

    std::string
    source() const
    {
        std::string s;
        for (size_t f = 0; f < kFunctions; ++f)
            s += functionSource(f, knobs[f]);
        return s;
    }

    /**
     * The next edit: re-draw the constants of the next few functions.
     * Slots come from rounds that each visit every function once in
     * a seeded order, so every function is edited equally often and
     * the work mix does not depend on the seed; the seed picks the
     * order and the new constants.
     */
    std::string
    edit()
    {
        const size_t n = redraws[edits++ % redraws.size()];
        std::set<size_t> chosen;
        while (chosen.size() < n) {
            if (round.empty()) {
                for (size_t f = 0; f < kFunctions; ++f)
                    round.push_back(f);
                rng.shuffle(round);
            }
            chosen.insert(round.back());
            round.pop_back();
        }
        for (size_t f : chosen)
            knobs[f] = static_cast<uint32_t>(rng.below(1u << 30));
        return source();
    }
};

std::vector<Client>
makeClients(const Shape &shape, uint64_t seed)
{
    std::vector<Client> clients;
    for (size_t c = 0; c < shape.connections; ++c)
        clients.emplace_back(seed, c, shape);
    return clients;
}

// ------------------------------------------------ daemon and client

/** A repro_serviced child listening on a unix socket. */
class Daemon
{
  public:
    Daemon(const std::string &binary, const std::string &socketPath)
        : path_(socketPath)
    {
        ::unlink(path_.c_str());
        int fds[2];
        if (::pipe(fds) != 0)
            throw repro::FatalError("pipe failed");
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_adddup2(&actions, fds[0], 0);
        // The daemon's log lines go to stderr; keep stdout for the
        // result line.
        posix_spawn_file_actions_adddup2(&actions, 2, 1);
        posix_spawn_file_actions_addclose(&actions, fds[1]);
        std::string unixArg = "--unix=" + path_;
        char *argv[] = {const_cast<char *>(binary.c_str()),
                        const_cast<char *>(unixArg.c_str()), nullptr};
        const int rc = posix_spawn(&pid_, binary.c_str(), &actions,
                                   nullptr, argv, environ);
        posix_spawn_file_actions_destroy(&actions);
        ::close(fds[0]);
        stdin_ = fds[1];
        if (rc != 0) {
            ::close(stdin_);
            throw repro::FatalError("cannot start " + binary + ": " +
                                    std::strerror(rc));
        }
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    ~Daemon() { stop(); }

    const std::string &path() const { return path_; }

    /** The daemon's peak resident set so far (VmHWM), in MiB. */
    double peakRss() const { return vmHwmMb(std::to_string(pid_)); }

    /** QUIT on stdin, then reap; SIGKILL after five seconds. */
    void
    stop()
    {
        if (pid_ <= 0)
            return;
        const char quit[] = "QUIT\n";
        ssize_t ignored = ::write(stdin_, quit, sizeof(quit) - 1);
        (void)ignored;
        ::close(stdin_);
        int status = 0;
        auto t0 = Clock::now();
        while (::waitpid(pid_, &status, WNOHANG) == 0) {
            if (msSince(t0) > 5000.0) {
                ::kill(pid_, SIGKILL);
                ::waitpid(pid_, &status, 0);
                break;
            }
            ::usleep(1000);
        }
        pid_ = -1;
        ::unlink(path_.c_str());
    }

  private:
    std::string path_;
    pid_t pid_ = -1;
    int stdin_ = -1;
};

/** One blocking protocol connection. */
class Connection
{
  public:
    Connection() = default;
    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;
    ~Connection()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    bool
    connect(const std::string &path)
    {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (fd_ < 0 || path.size() >= sizeof(addr.sun_path))
            return false;
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) == 0)
            return true;
        ::close(fd_);
        fd_ = -1;
        return false;
    }

    bool
    send(const std::string &data)
    {
        size_t off = 0;
        while (off < data.size()) {
            ssize_t n = ::send(fd_, data.data() + off, data.size() - off,
                               MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return false;
            off += static_cast<size_t>(n);
        }
        return true;
    }

    bool
    readLine(std::string *line)
    {
        for (;;) {
            size_t nl = buf_.find('\n', pos_);
            if (nl != std::string::npos) {
                line->assign(buf_, pos_, nl - pos_);
                pos_ = nl + 1;
                return true;
            }
            buf_.erase(0, pos_);
            pos_ = 0;
            char tmp[65536];
            ssize_t n = ::recv(fd_, tmp, sizeof(tmp), 0);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return false;
            buf_.append(tmp, static_cast<size_t>(n));
        }
    }

    /** SUBMIT and read the response through END (or one ERR/BUSY). */
    bool
    submit(const std::string &module, const std::string &source,
           std::vector<std::string> *lines)
    {
        lines->clear();
        if (!send("SUBMIT " + module + " " +
                  std::to_string(source.size()) + "\n" + source))
            return false;
        std::string line;
        while (readLine(&line)) {
            lines->push_back(line);
            if (line == "END" || lines->front().rfind("OK", 0) != 0)
                return true;
        }
        return false;
    }

  private:
    int fd_ = -1;
    std::string buf_;
    size_t pos_ = 0;
};

/** Connect (retrying until the daemon listens) and say HELLO. */
bool
hello(Connection &conn, const std::string &path)
{
    auto t0 = Clock::now();
    while (!conn.connect(path)) {
        if (msSince(t0) > 10000.0)
            return false;
        ::usleep(500);
    }
    std::string line;
    return conn.send("HELLO\n") && conn.readLine(&line) &&
           line.rfind("OK service=", 0) == 0;
}

// ------------------------------------------------------------ oracle

/** One SUBMIT as sent and answered. */
struct Exchange
{
    size_t client = 0;
    std::string source;
    std::vector<std::string> response;
    double ms = 0.0;
};

/**
 * The expected FUNC (without source=) and MATCH lines of @p source,
 * from a cache-less batch MatchingDriver.
 */
std::vector<std::string>
goldenLines(const std::string &module, const std::string &source)
{
    ir::Module m;
    m.setName(module);
    driver::MatchingDriver drv;
    driver::MatchReport report = drv.compileAndMatch(source, m);
    std::vector<std::string> out;
    for (const auto &fr : report.functions) {
        out.push_back("FUNC name=" + fr.function->name() +
                      " hash=" +
                      service::hashToken(fr.function->contentHash()) +
                      " matches=" + std::to_string(fr.matches.size()));
    }
    for (const auto &fr : report.functions) {
        for (const auto &mo : fr.matches)
            out.push_back("MATCH function=" + fr.function->name() +
                          " idiom=" + mo.idiom + " class=" +
                          service::classToken(mo.cls));
    }
    return out;
}

/**
 * The comparable part of a response: FUNC lines without their
 * source= key and the MATCH lines. Empty on ERR, BUSY, a degraded
 * solve or a malformed response.
 */
std::vector<std::string>
comparable(const std::vector<std::string> &response)
{
    std::vector<std::string> out;
    if (response.empty() || response.front().rfind("OK module=", 0) != 0 ||
        response.front().find(" degraded=") != std::string::npos ||
        response.back() != "END")
        return {};
    for (size_t i = 1; i + 1 < response.size(); ++i) {
        const std::string &l = response[i];
        if (l.rfind("FUNC ", 0) == 0)
            out.push_back(l.substr(0, l.rfind(" source=")));
        else
            out.push_back(l);
    }
    return out;
}

/**
 * Check every exchange against its golden, computed after the timed
 * phase on @p threads workers. Returns the number of failures.
 */
uint64_t
checkExchanges(const std::vector<Exchange> &xs,
               const std::vector<Client> &clients, unsigned threads,
               bool corruptGolden)
{
    std::map<std::pair<size_t, std::string>, std::vector<std::string>>
        golden;
    for (const auto &x : xs)
        golden[{x.client, x.source}];
    std::vector<decltype(golden)::iterator> todo;
    for (auto it = golden.begin(); it != golden.end(); ++it)
        todo.push_back(it);
    std::atomic<size_t> next{0};
    auto work = [&] {
        for (size_t i = next++; i < todo.size(); i = next++) {
            const auto &key = todo[i]->first;
            try {
                todo[i]->second =
                    goldenLines(clients[key.first].module, key.second);
            } catch (const std::exception &e) {
                std::fprintf(stderr, "perfbench: golden: %s\n",
                             e.what());
            }
        }
    };
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back(work);
    for (auto &t : pool)
        t.join();

    if (corruptGolden) {
        // The negative self-test's defect: one golden MATCH line of
        // the first submission names the wrong idiom.
        for (auto &line : golden[{xs.front().client, xs.front().source}]) {
            if (line.rfind("MATCH ", 0) == 0) {
                line += "X";
                break;
            }
        }
    }

    uint64_t failed = 0;
    for (const auto &x : xs) {
        const auto &expect = golden[{x.client, x.source}];
        if (expect.empty() || comparable(x.response) != expect)
            ++failed;
    }
    return failed;
}

// -------------------------------------------------- untraced workload

std::string
socketPath(const Options &opts, int n)
{
    return opts.workdir + "/d" + std::to_string(::getpid()) + "-" +
           std::to_string(n) + ".sock";
}

RunResult
runServiceTraced(const Options &opts, const Shape &shape);

/**
 * Set-up: daemon spawn to the first HELLO plus every client's cold
 * SUBMIT, repeated @p reps times; the last daemon stays up for the
 * measured phase.
 */
struct Started
{
    std::unique_ptr<Daemon> daemon;
    std::vector<std::unique_ptr<Connection>> conns;
    std::vector<Client> clients;
    double setupS = 0.0;
};

Started
startService(const Options &opts, const Shape &shape, int reps,
             std::vector<Exchange> *cold, RunResult &r)
{
    Started s;
    std::vector<double> times;
    for (int rep = 0; rep < reps; ++rep) {
        s.conns.clear();
        s.daemon.reset();
        s.clients = makeClients(shape, opts.seed);
        auto t0 = Clock::now();
        s.daemon = std::make_unique<Daemon>(opts.daemon,
                                            socketPath(opts, rep));
        for (size_t c = 0; c < shape.connections; ++c) {
            s.conns.push_back(std::make_unique<Connection>());
            if (!hello(*s.conns.back(), s.daemon->path()))
                throw repro::FatalError("daemon did not answer HELLO");
        }
        std::vector<Exchange> xs;
        for (size_t c = 0; c < shape.connections; ++c) {
            Exchange x;
            x.client = c;
            x.source = s.clients[c].source();
            if (!s.conns[c]->submit(s.clients[c].module, x.source,
                                    &x.response))
                r.fail("connection lost on cold SUBMIT");
            xs.push_back(std::move(x));
        }
        times.push_back(msSince(t0) / 1000.0);
        if (rep + 1 == reps)
            *cold = std::move(xs);
    }
    s.setupS = median(times);
    return s;
}

RunResult
runService(const Options &opts, const Shape &shape)
{
    if (opts.trace)
        return runServiceTraced(opts, shape);
    RunResult r;
    r.threads = static_cast<unsigned>(shape.connections);
    std::vector<Exchange> xs;
    Started s = startService(opts, shape, 5, &xs, r);

    // Measured phase: every connection in its own thread, closed loop.
    std::vector<std::vector<Exchange>> perConn(shape.connections);
    std::vector<std::vector<double>> passMs(shape.connections);
    std::atomic<bool> lost{false};
    const auto start = Clock::now();
    auto client = [&](size_t c) {
        Connection &conn = *s.conns[c];
        Client &cl = s.clients[c];
        auto passStart = Clock::now();
        size_t inPass = 0;
        while (msSince(start) < opts.seconds * 1000.0) {
            Exchange x;
            x.client = c;
            x.source = cl.edit();
            auto t0 = Clock::now();
            if (!conn.submit(cl.module, x.source, &x.response)) {
                lost = true;
                return;
            }
            x.ms = msSince(t0);
            perConn[c].push_back(std::move(x));
            if (++inPass == kPassSubmits) {
                passMs[c].push_back(msSince(passStart));
                passStart = Clock::now();
                inPass = 0;
            }
        }
    };
    std::vector<std::thread> threads;
    for (size_t c = 0; c < shape.connections; ++c)
        threads.emplace_back(client, c);
    for (auto &t : threads)
        t.join();
    const double elapsedS = msSince(start) / 1000.0;
    const double rss = s.daemon->peakRss();
    s.conns.clear();
    s.daemon->stop();
    if (lost)
        r.fail("connection lost during the measured phase");

    std::vector<double> submitMs, passes;
    for (size_t c = 0; c < shape.connections; ++c) {
        for (auto &x : perConn[c]) {
            submitMs.push_back(x.ms);
            xs.push_back(std::move(x));
        }
        passes.insert(passes.end(), passMs[c].begin(), passMs[c].end());
    }
    r.attempted = xs.size();
    r.failed = checkExchanges(xs, s.clients, opts.nproc,
                              opts.injectDefect);

    r.metrics["setup_s"] = s.setupS;
    r.metrics["pass_ms_p50"] = median(passes);
    r.metrics["pass_ms_p90"] = quantile(passes, 0.9);
    r.metrics["submit_ms_p50"] = median(submitMs);
    r.metrics["submit_ms_p90"] = quantile(submitMs, 0.9);
    r.metrics["submits_per_s"] =
        static_cast<double>(submitMs.size()) / elapsedS;
    r.metrics["peak_rss_mb"] = rss;
    return r;
}

// ---------------------------------------------------- traced workload

/** Per-function FUNC-line facts the replica must reproduce. */
std::vector<CachedFunctionResult>
funcFacts(const std::vector<std::string> &response)
{
    std::vector<CachedFunctionResult> out;
    for (const auto &l : response) {
        if (l.rfind("FUNC ", 0) != 0)
            continue;
        auto value = [&](const std::string &key) {
            size_t at = l.find(" " + key + "=");
            if (at == std::string::npos)
                return std::string();
            at += key.size() + 2;
            return l.substr(at, l.find(' ', at) - at);
        };
        CachedFunctionResult f;
        f.name = value("name");
        f.matches = std::stoul("0" + value("matches"));
        f.fromCache = value("source") == "cache";
        out.push_back(f);
    }
    return out;
}

/**
 * One traced block: the fixed seeded sequence (cold SUBMITs, then
 * round-robin edits) through (A) the daemon over the socket, one
 * request at a time; (B) the traced replica of MatchService::submit,
 * whose per-function match counts and source=cache flags must equal
 * the daemon's; (C) an in-process MatchService in the same order;
 * and (D) an in-process MatchService driven by one thread per
 * connection, closed loop.
 */
void
tracedBlock(const Options &opts, const Shape &shape, int blockNo,
            RunResult &r, Layers &block)
{
    // The sequence: (client, source) in global order.
    std::vector<Client> clients = makeClients(shape, opts.seed);
    std::vector<std::pair<size_t, std::string>> seq;
    for (size_t c = 0; c < shape.connections; ++c)
        seq.emplace_back(c, clients[c].source());
    for (size_t i = 0; i < shape.tracedSubmits; ++i) {
        const size_t c = i % shape.connections;
        seq.emplace_back(c, clients[c].edit());
    }
    const double n = static_cast<double>(seq.size());

    // (A) the daemon.
    std::vector<Exchange> xs;
    {
        Daemon daemon(opts.daemon, socketPath(opts, 100 + blockNo));
        std::vector<std::unique_ptr<Connection>> conns;
        for (size_t c = 0; c < shape.connections; ++c) {
            conns.push_back(std::make_unique<Connection>());
            if (!hello(*conns.back(), daemon.path()))
                throw repro::FatalError("daemon did not answer HELLO");
        }
        for (const auto &[c, src] : seq) {
            Exchange x;
            x.client = c;
            x.source = src;
            auto t0 = Clock::now();
            if (!conns[c]->submit(clients[c].module, src, &x.response))
                r.fail("connection lost in traced block");
            x.ms = msSince(t0);
            xs.push_back(std::move(x));
        }
        conns.clear();
        daemon.stop();
    }
    r.attempted += xs.size();
    r.failed += checkExchanges(xs, clients, opts.nproc, false);

    // (B) the traced replica, with its own cache of the daemon's
    // default capacity.
    driver::MatchCache cache;
    Layers sum;
    double replicaMs = 0.0;
    for (size_t i = 0; i < seq.size(); ++i) {
        const auto &[c, src] = seq[i];
        auto t0 = Clock::now();
        ir::Module module;
        module.setName(clients[c].module);
        repro::DiagEngine diags;
        std::vector<CachedFunctionResult> got;
        bool ok = tracedCompile(src, module, diags, sum);
        ok = ok && sum.span("ir.verify_detailed_ms", [&] {
            return ir::verifyModuleDetailed(module).errorCount() == 0;
        });
        ok = ok && tracedCachedMatch(module, cache, sum, &got);
        replicaMs += msSince(t0);
        const auto want = funcFacts(xs[i].response);
        bool same = ok && got.size() == want.size();
        for (size_t f = 0; same && f < got.size(); ++f) {
            same = got[f].name == want[f].name &&
                   got[f].matches == want[f].matches &&
                   got[f].fromCache == want[f].fromCache;
        }
        if (!same)
            r.fail("traced replica disagrees with the daemon on "
                   "SUBMIT " + std::to_string(i));
    }
    // Times per SUBMIT; counters per block.
    for (const auto &[k, v] : sum.values()) {
        const bool isTime =
            k.size() > 3 && k.compare(k.size() - 3, 3, "_ms") == 0;
        block.add(k, isTime ? v / n : v);
    }
    const repro::driver::CacheCounters cc = cache.counters();
    block.add("cache.hits", static_cast<double>(cc.hits));
    block.add("cache.misses", static_cast<double>(cc.misses));
    block.add("cache.evictions", static_cast<double>(cc.evictions));
    block.add("cache.hit_rate",
              static_cast<double>(cc.hits) /
                  static_cast<double>(cc.hits + cc.misses));

    // (C) in process, one request at a time, as the daemon saw them.
    std::vector<double> inProcMs;
    {
        service::MatchService svc;
        for (const auto &[c, src] : seq) {
            auto t0 = Clock::now();
            service::SubmitOutcome out = svc.submit(clients[c].module, src);
            inProcMs.push_back(msSince(t0));
            if (!out.ok || !out.degraded.empty())
                r.fail("in-process SUBMIT failed");
        }
    }
    double inProcTotal = 0.0;
    for (double v : inProcMs)
        inProcTotal += v;
    std::vector<double> socketMs;
    for (const auto &x : xs)
        socketMs.push_back(x.ms);
    block.add("service.wire_ms", median(socketMs) - median(inProcMs));
    block.add("trace.overhead_pct",
              100.0 * (replicaMs - inProcTotal) / inProcTotal);

    // (D) in process, one thread per connection: where a SUBMIT waits
    // for the service-wide lock.
    std::vector<std::vector<size_t>> mine(shape.connections);
    for (size_t i = 0; i < seq.size(); ++i)
        mine[seq[i].first].push_back(i);
    std::vector<double> submitMs(seq.size()), compileMs(seq.size()),
        matchMs(seq.size());
    service::MatchService svc;
    auto worker = [&](size_t c) {
        for (size_t i : mine[c]) {
            auto t0 = Clock::now();
            service::SubmitOutcome out =
                svc.submit(clients[c].module, seq[i].second);
            submitMs[i] = msSince(t0);
            compileMs[i] = out.compileMillis;
            matchMs[i] = out.matchMillis;
        }
    };
    std::vector<std::thread> threads;
    for (size_t c = 0; c < shape.connections; ++c)
        threads.emplace_back(worker, c);
    for (auto &t : threads)
        t.join();
    double sub = 0, comp = 0, mat = 0;
    for (size_t i = 0; i < seq.size(); ++i) {
        sub += submitMs[i];
        comp += compileMs[i];
        mat += matchMs[i];
    }
    block.add("service.submit_ms", sub / n);
    block.add("service.compile_ms", comp / n);
    block.add("service.match_ms", mat / n);
    block.add("service.wait_ms", (sub - comp - mat) / n);
}

RunResult
runServiceTraced(const Options &opts, const Shape &shape)
{
    RunResult r;
    r.threads = static_cast<unsigned>(shape.connections);
    {
        // Guard: the staged compile prints the IR of one compileMiniC
        // call, on the first module and a run of edits.
        std::vector<Client> clients = makeClients(shape, opts.seed);
        std::string err = checkCompileSplit(clients[0].source());
        for (int i = 0; i < 16 && err.empty(); ++i)
            err = checkCompileSplit(clients[0].edit());
        if (!err.empty())
            r.fail("service module: " + err);
    }
    LayerSeries blocks;
    auto start = Clock::now();
    for (int b = 0; b < 2 || msSince(start) < opts.seconds * 1000.0;
         ++b) {
        Layers block;
        tracedBlock(opts, shape, b, r, block);
        blocks.push(block);
    }
    blocks.report(r, "blocks");
    return r;
}

} // namespace

RunResult
runServiceWarmEdit(const Options &opts)
{
    Shape shape;
    shape.connections = 1;
    shape.redraws = {1, 2}; // 15% of functions per SUBMIT
    // Enough edits per traced block to fill the 1024-entry cache and
    // evict, as the untraced run does within seconds.
    shape.tracedSubmits = 800;
    return runService(opts, shape);
}

RunResult
runServiceConcurrentChurn(const Options &opts)
{
    Shape shape;
    // nproc connections, but never more than the daemon's default
    // --max-inflight (8): past it the daemon sheds with BUSY, which
    // this workload does not set out to measure.
    shape.connections = std::min<size_t>(opts.nproc, 8);
    shape.redraws = {8}; // 80% of functions per SUBMIT
    shape.tracedSubmits = 240;
    return runService(opts, shape);
}

} // namespace perfbench
