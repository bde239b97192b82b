// perfbench driver: runs one workload of the client-side vadalogd
// benchmark and prints its raw measurements as one JSON line on stdout.
//
// It generates the workload's program and requests from a seed, spawns
// the real vadalogd, loads the generated text over the wire, and drives
// a closed loop of kClients connections from this one process, each
// sending its next request only after the previous reply. Every answer
// is checked against an in-process oracle. It measures several phases,
// each on a fresh daemon; with --trace 1 they alternate between untraced
// and traced, and the driver then replays the workload's inputs through
// the library's public entry points with a timer around each call.
// perfbench/run.py turns the raw samples into the reported metrics; no
// statistics are computed here.
//
//   perfbench_driver --daemon PATH --workload NAME --seed N --seconds S
//                    --trace 0|1

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#include <arpa/inet.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "analysis/classify.h"
#include "ast/parser.h"
#include "base/rng.h"
#include "chase/chase.h"
#include "datalog/seminaive.h"
#include "engine/certain.h"
#include "engine/search_cache.h"
#include "gen/generators.h"
#include "rewriting/pwl_to_datalog.h"
#include "server/json.h"
#include "server/protocol.h"
#include "storage/homomorphism.h"
#include "vadalog/reasoner.h"

extern char** environ;

using namespace vadalog;
using Clock = std::chrono::steady_clock;
using Rows = std::vector<std::string>;  // one rendered row per entry, sorted

namespace {

constexpr int kClients = 4;
constexpr int kPooledPhases = 8;
constexpr const char* kSession = "bench";

#if !defined(NDEBUG)
constexpr bool kAssertionsOn = true;
#else
constexpr bool kAssertionsOn = false;
#endif

double Seconds(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

double Micros(Clock::time_point since) {
  return std::chrono::duration<double, std::micro>(Clock::now() - since)
      .count();
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench_driver: %s\n", message.c_str());
  std::exit(1);
}

// ---------------------------------------------------------------------
// Workloads. Each is a pure function of the seed; the daemon receives
// only the generated text.

// bench_server's 8-fact Example 3.3 ontology.
constexpr const char* kOwlRules = R"(
subclassStar(X, Y) :- subclass(X, Y).
subclassStar(X, Z) :- subclassStar(X, Y), subclass(Y, Z).
type(X, Z) :- type(X, Y), subclassStar(Y, Z).
triple(X, Z, W) :- type(X, Y), restriction(Y, Z).
triple(Z, W, X) :- triple(X, Y, Z), inverse(Y, W).
type(X, W) :- triple(X, Y, Z), restriction(W, Y).
subclass(professor, faculty).
subclass(faculty, employee).
subclass(employee, person).
restriction(teacher, teaches).
inverse(teaches, taughtBy).
restriction(student, taughtBy).
type(ada, professor).
type(ada, teacher).
)";

constexpr const char* kGraphRules = R"(
reach(X, Y) :- edge(X, Y).
reach(X, Z) :- reach(X, Y), edge(Y, Z).
node(X) :- edge(X, Y).
node(Y) :- edge(X, Y).
cut(X) :- node(X), not reach(v0, X).
)";

// owl_chase sizes: small enough that 4 clients complete several hundred
// queries in 20 s, since every query re-chases all of D.
constexpr uint64_t kOntologySeed = 1;
constexpr uint32_t kClasses = 50;
constexpr uint32_t kIndividuals = 300;
constexpr uint32_t kNotes = 3000;

// graph_ingest sizes. A phase's op count follows from its length, not
// from elapsed time, so the final database is the same on every run;
// the nominal rate makes a phase last about its length on a 4-core host.
constexpr uint32_t kGraphNodes = 200;
constexpr uint32_t kGraphEdges = 300;
constexpr uint32_t kEdgesPerBatch = 5;
constexpr uint32_t kEdgePool = 60;
constexpr uint64_t kGraphShapeSeed = 1;
constexpr uint32_t kReachShapes = 16;
constexpr double kIngestNominalOpsPerSecond = 60.0;

// Node width of the PWL -> Datalog rewriting in the layer replay.
constexpr size_t kRewriteWidth = 3;

struct Op {
  int shape = -1;  // index into Workload::shapes, or -1 for ADD_FACTS
  int batch = -1;  // index into Workload::batches when shape == -1
};

struct Workload {
  std::string name;
  std::string program;               // LOAD_PROGRAM text
  std::vector<std::string> config;   // extra vadalogd --config pairs
  std::string engine = "auto";
  std::vector<std::string> shapes;   // inline query texts
  bool warmup = false;               // one sweep of every shape in setup
  int binary_clients = 0;            // clients that negotiate v2 binary
  // Time-bound workloads: each client cycles through its own sequence.
  std::vector<std::vector<Op>> client_ops;
  // Count-bound workloads: one op list shared by all clients in order.
  std::vector<Op> fixed_ops;
  std::vector<std::string> batches;  // ADD_FACTS texts
  // Shapes whose answers may only grow while facts are added.
  std::vector<bool> monotone;
};

std::string Str(uint64_t n) { return std::to_string(n); }

Workload OwlChase(uint64_t seed) {
  Workload w;
  w.name = "owl_chase";
  // The ontology is fixed, so the chase costs about the same on every
  // seed; the seed types the individuals and draws the queries.
  Program program = MakeOwl2QlProgram();
  Rng schema_rng(kOntologySeed);
  AddOntologyFacts(&program, kClasses, 20, 0, &schema_rng);
  w.program = program.ToString();
  Rng rng(seed);
  for (uint32_t i = 0; i < kIndividuals; ++i) {
    w.program += "type(ind" + Str(i) + ", class" + Str(rng.Below(kClasses)) +
                 ").\n";
  }
  for (uint32_t i = 0; i < kNotes; ++i) w.program += "note(c" + Str(i) + ").\n";
  for (uint32_t k = 0; k < kIndividuals; ++k) {
    w.shapes.push_back("?(X) :- type(ind" + Str(k) + ", X).");
  }
  w.client_ops.resize(kClients);
  for (auto& ops : w.client_ops) {
    for (int i = 0; i < 4096; ++i) {
      ops.push_back(Op{static_cast<int>(rng.Below(kIndividuals)), -1});
    }
  }
  return w;
}

Workload OwlLinear(uint64_t seed, bool evict) {
  Workload w;
  w.name = evict ? "owl_linear_evict" : "owl_linear_warm";
  w.engine = "linear";
  w.binary_clients = 2;
  w.program = kOwlRules;
  for (uint32_t i = 0; i < 10; ++i) w.program += "note(c" + Str(i) + ").\n";
  Rng rng(seed);
  std::string irrelevant = "?(X) :- type(c" + Str(rng.Below(10)) + ", X).";
  if (evict) {
    // Every shape's sweep leaves the cache above this cap, so every query
    // evicts and the next one sweeps cold. type(ada, X) is left out: its
    // cold sweep takes over a second, too few samples for a p95.
    w.config.push_back("cache_bytes=8192");
    w.shapes = {"?(X) :- type(X, person).", "?(X) :- type(X, teacher).",
                irrelevant};
  } else {
    w.warmup = true;
    w.shapes = {"?(X) :- type(ada, X).", "?(X) :- type(X, person).",
                irrelevant};
  }
  w.client_ops.resize(kClients);
  for (auto& ops : w.client_ops) {
    for (int i = 0; i < 4096; ++i) {
      ops.push_back(Op{static_cast<int>(rng.Below(w.shapes.size())), -1});
    }
  }
  return w;
}

Workload GraphIngest(uint64_t seed, double seconds) {
  Workload w;
  w.name = "graph_ingest";
  w.program = kGraphRules;
  // The graph's shape is fixed, so EvaluateDatalog costs the same on
  // every seed; the seed names the nodes and draws the ops.
  Rng rng(seed);
  std::vector<uint64_t> names(kGraphNodes);
  for (uint32_t i = 0; i < kGraphNodes; ++i) names[i] = i;
  for (uint32_t i = kGraphNodes - 1; i > 0; --i) {
    std::swap(names[i], names[rng.Below(i + 1)]);
  }
  Rng shape_rng(kGraphShapeSeed);
  auto edge = [&] {
    return "edge(v" + Str(names[shape_rng.Below(kGraphNodes)]) + ", v" +
           Str(names[shape_rng.Below(kGraphNodes)]) + ").";
  };
  for (uint32_t i = 0; i < kGraphEdges; ++i) w.program += edge() + "\n";
  // Batches draw from a fixed pool of new edges, so the database grows
  // by at most kEdgePool facts and the query cost stays level through
  // the run; once the pool is in, batches re-insert existing facts (and
  // still take the exclusive lock).
  std::vector<std::string> pool;
  for (uint32_t i = 0; i < kEdgePool; ++i) pool.push_back(edge());
  w.shapes.push_back("?(X) :- cut(X).");
  w.monotone.push_back(false);
  std::set<uint64_t> sources;
  while (sources.size() < kReachShapes) sources.insert(rng.Below(kGraphNodes));
  for (uint64_t k : sources) {
    w.shapes.push_back("?(X) :- reach(v" + Str(k) + ", X).");
    w.monotone.push_back(true);
  }
  // Groups of five ops: one ADD_FACTS at a seeded position, four QUERYs.
  size_t groups = static_cast<size_t>(
      std::max(1.0, seconds * kIngestNominalOpsPerSecond / 5.0));
  for (size_t g = 0; g < groups; ++g) {
    std::string batch;
    for (uint32_t e = 0; e < kEdgesPerBatch; ++e) {
      batch += pool[rng.Below(pool.size())] + " ";
    }
    w.batches.push_back(batch);
    uint64_t write_at = rng.Below(5);
    for (uint64_t i = 0; i < 5; ++i) {
      if (i == write_at) {
        w.fixed_ops.push_back(Op{-1, static_cast<int>(g)});
      } else {
        w.fixed_ops.push_back(
            Op{static_cast<int>(rng.Below(w.shapes.size())), -1});
      }
    }
  }
  return w;
}

// ---------------------------------------------------------------------
// Oracle: materialize once in-process (chase, or the stratified Datalog
// evaluator for negation), then evaluate every shape. The chase is an
// engine independent of the proof search the linear workloads exercise.

std::vector<Rows> OracleAnswers(const std::string& program_text,
                                const std::vector<std::string>& shapes) {
  std::string error;
  std::unique_ptr<Reasoner> reasoner = Reasoner::FromText(program_text, &error);
  if (reasoner == nullptr) Die("oracle parse: " + error);
  Instance materialized =
      reasoner->classification().uses_negation
          ? EvaluateDatalog(reasoner->program(), reasoner->database()).instance
          : RunChase(reasoner->program(), reasoner->database()).instance;
  std::vector<Rows> answers;
  for (const std::string& text : shapes) {
    std::optional<ConjunctiveQuery> query = reasoner->ParseQuery(text, &error);
    if (!query.has_value()) Die("oracle query: " + error);
    Rows rows;
    for (const auto& tuple : EvaluateQuerySorted(*query, materialized)) {
      rows.push_back(reasoner->TupleToString(tuple));
    }
    std::sort(rows.begin(), rows.end());
    answers.push_back(std::move(rows));
  }
  return answers;
}

std::string RenderRow(const protocol::AnswerTable& table, size_t row) {
  std::string out = "(";
  for (size_t c = 0; c < table.columns; ++c) {
    if (c > 0) out += ", ";
    out += table.cells[row * table.columns + c];
  }
  return out + ")";
}

Rows RowsOf(const protocol::AnswerTable& table) {
  Rows rows;
  for (size_t r = 0; r < table.rows(); ++r) rows.push_back(RenderRow(table, r));
  std::sort(rows.begin(), rows.end());
  return rows;
}

// ---------------------------------------------------------------------
// The daemon process and its connections.

struct Daemon {
  pid_t pid = -1;
  uint16_t port = 0;
};

Daemon SpawnDaemon(const std::string& path,
                   const std::vector<std::string>& config) {
  int out[2];
  if (::pipe(out) != 0) Die("pipe failed");
  std::vector<std::string> args = {path, "--config", "tcp_port=0",
                                   "--print-port"};
  for (const std::string& pair : config) {
    args.push_back("--config");
    args.push_back(pair);
  }
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, out[0]);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, "/dev/null",
                                   O_WRONLY, 0);
  Daemon daemon;
  int rc = posix_spawn(&daemon.pid, path.c_str(), &actions, nullptr,
                       argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(out[1]);
  if (rc != 0) Die("cannot spawn " + path + ": " + std::strerror(rc));
  std::string text;
  auto deadline = Clock::now() + std::chrono::seconds(30);
  while (text.find('\n') == std::string::npos && Clock::now() < deadline) {
    pollfd pfd{out[0], POLLIN, 0};
    if (::poll(&pfd, 1, 100) <= 0) continue;
    char buf[256];
    ssize_t n = ::read(out[0], buf, sizeof buf);
    if (n <= 0) break;
    text.append(buf, static_cast<size_t>(n));
  }
  ::close(out[0]);
  unsigned port = 0;
  if (std::sscanf(text.c_str(), "PORT %u", &port) != 1 || port == 0) {
    ::kill(daemon.pid, SIGKILL);
    ::waitpid(daemon.pid, nullptr, 0);
    Die("vadalogd did not report a port");
  }
  daemon.port = static_cast<uint16_t>(port);
  return daemon;
}

/// Peak resident set of the daemon (VmHWM), in KiB.
uint64_t PeakRssKib(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtoull(line.c_str() + 6,
                                                            nullptr, 10);
  }
  return 0;
}

void StopDaemon(Daemon* daemon) {
  if (daemon->pid < 0) return;
  ::kill(daemon->pid, SIGTERM);
  auto deadline = Clock::now() + std::chrono::seconds(20);
  while (::waitpid(daemon->pid, nullptr, WNOHANG) == 0) {
    if (Clock::now() > deadline) {
      ::kill(daemon->pid, SIGKILL);
      ::waitpid(daemon->pid, nullptr, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  daemon->pid = -1;
}

class Connection {
 public:
  explicit Connection(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (fd_ < 0 ||
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      Die("cannot connect to vadalogd");
    }
    timeval timeout{60, 0};  // a reply slower than this is a lost connection
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// One request/response round trip. The head line is parsed into
  /// `head`; a binary answer frame that follows it lands in `table`, and
  /// JSON "answers" are converted into the same model. False when the
  /// connection was lost or the reply was malformed.
  bool Transact(const std::string& line, JsonValue* head,
                protocol::AnswerTable* table) {
    std::string out = line + "\n";
    for (size_t sent = 0; sent < out.size();) {
      ssize_t n =
          ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    size_t newline;
    while ((newline = buffer_.find('\n')) == std::string::npos) {
      if (!Fill()) return false;
    }
    std::optional<JsonValue> parsed =
        JsonValue::Parse(std::string_view(buffer_).substr(0, newline), nullptr);
    buffer_.erase(0, newline + 1);
    if (!parsed.has_value()) return false;
    *head = std::move(*parsed);
    *table = protocol::AnswerTable();
    if (const JsonValue* frame = head->Find("answers_frame")) {
      size_t bytes = frame->GetUint("bytes");
      while (buffer_.size() < bytes) {
        if (!Fill()) return false;
      }
      std::string error;
      bool ok = protocol::DecodeAnswerFrame(
          std::string_view(buffer_).substr(0, bytes), table, &error);
      buffer_.erase(0, bytes);
      return ok;
    }
    if (const JsonValue* answers = head->Find("answers")) {
      table->row_count = answers->Items().size();
      for (const JsonValue& row : answers->Items()) {
        table->columns = row.Items().size();
        for (const JsonValue& cell : row.Items()) {
          table->cells.push_back(cell.AsString());
        }
      }
    }
    return true;
  }

  JsonValue Call(const std::string& line) {
    JsonValue head;
    protocol::AnswerTable table;
    if (!Transact(line, &head, &table)) Die("control request failed: " + line);
    return head;
  }

 private:
  bool Fill() {
    char chunk[65536];
    ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
    return true;
  }

  int fd_ = -1;
  std::string buffer_;
};

std::string QueryLine(const Workload& w, int shape, bool trace) {
  JsonValue request = JsonValue::Object();
  request.Set("cmd", JsonValue::String("QUERY"));
  request.Set("session", JsonValue::String(kSession));
  request.Set("query", JsonValue::String(w.shapes[static_cast<size_t>(shape)]));
  request.Set("engine", JsonValue::String(w.engine));
  if (trace) request.Set("trace", JsonValue::Bool(true));
  return request.Dump();
}

std::string AddFactsLine(const Workload& w, int batch) {
  JsonValue request = JsonValue::Object();
  request.Set("cmd", JsonValue::String("ADD_FACTS"));
  request.Set("session", JsonValue::String(kSession));
  request.Set("facts",
              JsonValue::String(w.batches[static_cast<size_t>(batch)]));
  return request.Dump();
}

std::string LoadLine(const Workload& w) {
  JsonValue request = JsonValue::Object();
  request.Set("cmd", JsonValue::String("LOAD_PROGRAM"));
  request.Set("session", JsonValue::String(kSession));
  request.Set("program", JsonValue::String(w.program));
  return request.Dump();
}

// ---------------------------------------------------------------------
// Checking. Every failure is counted under a reason.

struct Tally {
  std::mutex mu;
  uint64_t attempted = 0;
  std::map<std::string, uint64_t> failures;

  void Count(const std::string& failure) {
    std::lock_guard<std::mutex> lock(mu);
    ++attempted;
    if (!failure.empty()) ++failures[failure];
  }
};

/// The failure reason for one response, or "" when it is a correct
/// answer. `expected` is the exact answer set, or null when only the
/// bounds apply (answers must lie between `lower` and `upper`).
std::string CheckQuery(bool transported, const JsonValue& head,
                       const protocol::AnswerTable& table, const Rows* expected,
                       const Rows* lower, const Rows* upper, Rows* got) {
  if (!transported) return "lost_connection";
  if (!head.GetBool("ok")) {
    const JsonValue* error = head.Find("error");
    return "error_" + (error ? error->GetString("code") : std::string("?"));
  }
  if (!head.GetBool("complete", true)) return "incomplete";
  *got = RowsOf(table);
  if (expected != nullptr && *got != *expected) return "mismatch";
  if (lower != nullptr &&
      !std::includes(got->begin(), got->end(), lower->begin(), lower->end())) {
    return "shrank";
  }
  if (upper != nullptr &&
      !std::includes(upper->begin(), upper->end(), got->begin(), got->end())) {
    return "mismatch";
  }
  return "";
}

// ---------------------------------------------------------------------
// One setup + (optionally) one measured phase.

struct Sample {
  bool query = true;
  double rtt_us = 0;
  // Server spans of a traced QUERY: queue_wait, parse, lock_wait,
  // search, encode, total (microseconds); -1 when untraced.
  int64_t spans[6] = {-1, -1, -1, -1, -1, -1};
};

struct Oracle {
  std::vector<Rows> exact;  // static workloads: the answer of every shape
  std::vector<Rows> start;  // count-bound workloads: answers before writes
  std::vector<Rows> final;  // ... and after every batch
};

struct Phase {
  bool traced = false;
  double elapsed_s = 0;
  std::vector<Sample> samples;
  JsonValue metrics_before, metrics_after;
  uint64_t peak_rss_kib = 0;
};

constexpr const char* kSpanKeys[6] = {"queue_wait_us", "parse_us",
                                      "lock_wait_us",  "search_us",
                                      "encode_us",     "total_us"};

class Runner {
 public:
  Runner(const Workload& w, const Oracle& oracle, std::string daemon_path,
         double seconds)
      : w_(w), oracle_(oracle), daemon_path_(std::move(daemon_path)),
        seconds_(seconds) {}

  Tally tally;

  /// Spawns and prepares a daemon, runs the measured phase on it, and
  /// stops it; returns the setup seconds.
  double SetupAndRun(Phase* phase) {
    auto start = Clock::now();
    Daemon daemon = SpawnDaemon(daemon_path_, w_.config);
    double setup_s;
    {
      Connection control(daemon.port);
      JsonValue loaded = control.Call(LoadLine(w_));
      if (!loaded.GetBool("ok")) Die("LOAD_PROGRAM failed: " + loaded.Dump());
      if (w_.warmup) {
        for (size_t s = 0; s < w_.shapes.size(); ++s) {
          RunOne(&control, Op{static_cast<int>(s), -1}, false, nullptr,
                 nullptr);
        }
      }
      std::vector<std::unique_ptr<Connection>> clients;
      for (int c = 0; c < kClients; ++c) {
        clients.push_back(std::make_unique<Connection>(daemon.port));
        if (c < w_.binary_clients) {
          JsonValue hello = clients.back()->Call(
              R"({"cmd":"HELLO","max_version":2,"encodings":["binary"]})");
          if (hello.GetString("encoding") != "binary") {
            Die("HELLO did not grant binary: " + hello.Dump());
          }
        }
      }
      setup_s = Seconds(start);
      phase->metrics_before = Metrics(&control);
      Measure(clients, phase);
      phase->metrics_after = Metrics(&control);
      phase->peak_rss_kib = PeakRssKib(daemon.pid);
      if (!w_.fixed_ops.empty()) VerifyFinal(&control);
    }
    StopDaemon(&daemon);
    return setup_s;
  }

 private:
  static JsonValue Metrics(Connection* control) {
    JsonValue response = control->Call(R"({"cmd":"METRICS"})");
    const JsonValue* metrics = response.Find("metrics");
    if (metrics == nullptr) Die("METRICS failed: " + response.Dump());
    return *metrics;
  }

  /// Sends one op, checks its reply, and counts it. `last` holds this
  /// client's previous answer per monotone shape.
  void RunOne(Connection* conn, const Op& op, bool trace, Sample* sample,
              std::map<int, Rows>* last) {
    JsonValue head;
    protocol::AnswerTable table;
    std::string line = op.shape >= 0 ? QueryLine(w_, op.shape, trace)
                                     : AddFactsLine(w_, op.batch);
    auto sent = Clock::now();
    bool transported = conn->Transact(line, &head, &table);
    double rtt_us = Micros(sent);
    std::string failure;
    if (op.shape < 0) {
      failure = !transported        ? "lost_connection"
                : head.GetBool("ok") ? ""
                                     : "error_add_facts";
    } else {
      size_t s = static_cast<size_t>(op.shape);
      const Rows* expected = w_.fixed_ops.empty() ? &oracle_.exact[s] : nullptr;
      const Rows* lower = nullptr;
      const Rows* upper = nullptr;
      bool monotone = s < w_.monotone.size() && w_.monotone[s];
      if (monotone) {
        lower = &oracle_.start[s];
        upper = &oracle_.final[s];
        if (last != nullptr) {
          auto previous = last->find(op.shape);
          if (previous != last->end()) lower = &previous->second;
        }
      }
      Rows got;
      failure = CheckQuery(transported, head, table, expected, lower, upper,
                           &got);
      if (failure.empty() && last != nullptr && monotone) {
        (*last)[op.shape] = std::move(got);
      }
      if (sample != nullptr && trace && failure.empty()) {
        if (const JsonValue* spans = head.Find("trace")) {
          for (int i = 0; i < 6; ++i) {
            sample->spans[i] = static_cast<int64_t>(
                spans->GetUint(kSpanKeys[i]));
          }
        }
      }
    }
    tally.Count(failure);
    if (sample != nullptr) {
      sample->query = op.shape >= 0;
      sample->rtt_us = rtt_us;
    }
  }

  void Measure(const std::vector<std::unique_ptr<Connection>>& clients,
               Phase* phase) {
    std::vector<std::vector<Sample>> per_client(kClients);
    std::atomic<size_t> next{0};
    auto start = Clock::now();
    // Time-bound workloads stop at --seconds; count-bound ones finish
    // their op list but give up at a hard limit well inside the run cap.
    auto deadline = start + std::chrono::duration<double>(
                                w_.fixed_ops.empty() ? seconds_ : 120.0);
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        std::map<int, Rows> last;
        for (size_t i = 0; Clock::now() < deadline; ++i) {
          Op op;
          if (w_.fixed_ops.empty()) {
            const std::vector<Op>& ops = w_.client_ops[static_cast<size_t>(c)];
            op = ops[i % ops.size()];
          } else {
            size_t index = next.fetch_add(1);
            if (index >= w_.fixed_ops.size()) break;
            op = w_.fixed_ops[index];
          }
          Sample sample;
          RunOne(clients[static_cast<size_t>(c)].get(), op, phase->traced,
                 &sample, &last);
          per_client[static_cast<size_t>(c)].push_back(sample);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    phase->elapsed_s = Seconds(start);
    for (auto& samples : per_client) {
      phase->samples.insert(phase->samples.end(), samples.begin(),
                            samples.end());
    }
    // Ops a count-bound run never sent count as failed.
    for (size_t i = next.load(); i < w_.fixed_ops.size(); ++i) {
      tally.Count("not_sent");
    }
  }

  /// After a count-bound run: every shape once more, exact against the
  /// oracle for the initial program plus every batch.
  void VerifyFinal(Connection* control) {
    for (size_t s = 0; s < w_.shapes.size(); ++s) {
      JsonValue head;
      protocol::AnswerTable table;
      bool transported =
          control->Transact(QueryLine(w_, static_cast<int>(s), false), &head,
                            &table);
      Rows got;
      tally.Count(CheckQuery(transported, head, table, &oracle_.final[s],
                             nullptr, nullptr, &got));
    }
  }

  const Workload& w_;
  const Oracle& oracle_;
  const std::string daemon_path_;
  const double seconds_;
};

// ---------------------------------------------------------------------
// In-process layer replay (--trace 1): a timer around each public entry
// point, fed with this workload's own inputs.

class Layers {
 public:
  JsonValue out = JsonValue::Object();

  void Value(const std::string& name, double value) {
    out.Set(name, JsonValue::Number(value));
  }
  /// Runs `fn` `reps` times and records each call's duration (ms when
  /// `millis`, else us) as a list; run.py takes the median.
  void Time(const std::string& name, int reps, const std::function<void()>& fn,
            bool millis) {
    JsonValue list = JsonValue::Array();
    for (int i = 0; i < reps; ++i) {
      auto start = Clock::now();
      fn();
      double us = Micros(start);
      list.Append(JsonValue::Number(millis ? us / 1000.0 : us));
    }
    out.Set(name, std::move(list));
  }
};

size_t ConstantCount(const Instance& instance) {
  size_t constants = 0;
  for (Term t : instance.ActiveDomain()) constants += t.is_constant() ? 1 : 0;
  return constants;
}

JsonValue ReplayLayers(const Workload& w, const Oracle& oracle) {
  Layers layers;
  std::string error;
  std::unique_ptr<Reasoner> reasoner = Reasoner::FromText(w.program, &error);
  const Program& program = reasoner->program();
  const Instance& db = reasoner->database();
  std::vector<ConjunctiveQuery> queries;
  for (const std::string& text : w.shapes) {
    queries.push_back(*reasoner->ParseQuery(text, &error));
  }
  // The first few shapes keep the slow replays short on owl_chase.
  size_t replayed = std::min<size_t>(queries.size(), 8);

  // ast / analysis
  layers.Time("ast.parse_program_ms", 5, [&] { ParseProgram(w.program); },
              true);
  layers.Time("analysis.classify_ms", 5, [&] { ClassifyProgram(program); },
              true);
  // The workload's ADD_FACTS batches, or else its own facts in batches
  // of the same size.
  std::vector<std::string> fact_batches = w.batches;
  if (fact_batches.empty()) {
    for (size_t i = 0; i < program.facts().size(); ++i) {
      if (i % kEdgesPerBatch == 0) fact_batches.emplace_back();
      fact_batches.back() +=
          program.facts()[i].ToString(program.symbols()) + ". ";
    }
  }
  Program scratch = CloneProgram(program);
  layers.Time("ast.parse_facts_us", static_cast<int>(fact_batches.size()),
              [&, i = size_t{0}]() mutable {
                std::string e = ParseInto(fact_batches[i++], &scratch);
                if (!e.empty()) Die("fact batch: " + e);
              },
              false);

  // protocol: the workload's request lines and answer tables.
  std::vector<std::string> lines;
  for (size_t s = 0; s < w.shapes.size(); ++s) {
    lines.push_back(QueryLine(w, static_cast<int>(s), false));
  }
  for (size_t b = 0; b < w.batches.size(); ++b) {
    lines.push_back(AddFactsLine(w, static_cast<int>(b)));
  }
  layers.Time("protocol.parse_request_us", 2000,
              [&, i = size_t{0}]() mutable {
                protocol::Error e;
                JsonValue id;
                if (!protocol::ParseRequest(lines[i++ % lines.size()], &e, &id)) {
                  Die("ParseRequest: " + e.message);
                }
              },
              false);
  const std::vector<Rows>& answers =
      oracle.exact.empty() ? oracle.final : oracle.exact;
  std::vector<protocol::Response> responses;
  for (const Rows& rows : answers) {
    protocol::Response response(protocol::OkResponse(JsonValue::Number(1)));
    response.body.Set("session", JsonValue::String(kSession));
    response.body.Set("complete", JsonValue::Bool(true));
    protocol::AnswerTable table;
    table.row_count = rows.size();
    table.columns = 1;  // every shape has one output variable
    for (const std::string& row : rows) {
      table.cells.push_back(row.substr(1, row.size() - 2));
    }
    response.answers = std::move(table);
    responses.push_back(std::move(response));
  }
  for (auto [name, encoding] :
       {std::pair{"protocol.encode_json_us", protocol::Encoding::kJson},
        std::pair{"protocol.encode_binary_us", protocol::Encoding::kBinary}}) {
    layers.Time(name, 2000,
                [&, i = size_t{0}, encoding = encoding]() mutable {
                  std::string wire = protocol::EncodeResponse(
                      responses[i++ % responses.size()], encoding);
                },
                false);
  }

  // storage + chase
  layers.Value("storage.db_facts", static_cast<double>(db.size()));
  layers.Value("storage.adom_size", static_cast<double>(ConstantCount(db)));
  ChaseResult chased;
  layers.Time("chase.run_ms", 3, [&] { chased = RunChase(program, db); },
              true);
  layers.Value("chase.rounds", static_cast<double>(chased.rounds));
  layers.Value("chase.steps_applied",
               static_cast<double>(chased.steps_applied));
  layers.Value("chase.steps_skipped_isomorphic",
               static_cast<double>(chased.steps_skipped_isomorphic));
  layers.Value("chase.peak_instance_mib",
               static_cast<double>(chased.peak_instance_bytes) / (1 << 20));
  const Instance& materialized =
      chased.Saturated() ? chased.instance
                         : EvaluateDatalog(program, db).instance;
  layers.Time("storage.cq_eval_us", static_cast<int>(queries.size()),
              [&, i = size_t{0}]() mutable {
                auto rows = EvaluateQuerySorted(queries[i++], materialized);
              },
              false);

  // vadalog: the Reasoner entry point the session calls, with the
  // workload's engine and no session cache.
  ReasonerOptions options;
  options.engine = w.engine == "linear" ? EngineChoice::kLinearProof
                                        : EngineChoice::kAuto;
  layers.Time("vadalog.answer_checked_ms", static_cast<int>(replayed),
              [&, i = size_t{0}]() mutable {
                CertainAnswerSet set = reasoner->AnswerChecked(queries[i++],
                                                               options);
                if (!set.error.empty()) Die("AnswerChecked: " + set.error);
              },
              true);

  // engine: a cold sweep on a fresh cache, then the same sweep warm.
  // Only for the linear workloads: on owl_chase one sweep enumerates all
  // of |adom| (hours), and graph_ingest's negation has no proof search.
  double candidates = 0;
  for (const ConjunctiveQuery& q : queries) {
    candidates += std::pow(static_cast<double>(ConstantCount(db)),
                           static_cast<double>(q.output.size()));
  }
  layers.Value("engine.candidates_per_query", candidates / queries.size());
  if (w.engine == "linear") {
    // Cold: every shape once, in order, from a fresh cache (what the
    // warm-up in setup does). Warm: each shape again on that cache.
    ProofSearchCache cache(program, db);
    ProofSearchOptions proof;
    proof.cache = &cache;
    layers.Time("engine.sweep_cold_ms", 1,
                [&] {
                  for (const ConjunctiveQuery& q : queries) {
                    CertainAnswersViaSearchChecked(program, db, q, false,
                                                   proof);
                  }
                },
                true);
    layers.Time("engine.sweep_warm_us", 10 * static_cast<int>(queries.size()),
                [&, i = size_t{0}]() mutable {
                  CertainAnswersViaSearchChecked(
                      program, db, queries[i++ % queries.size()], false, proof);
                },
                false);
  } else {
    layers.Value("engine.sweep_cold_ms", 0);
    layers.Value("engine.sweep_warm_us", 0);
  }

  // datalog: the program itself when it is Datalog (graph_ingest, on the
  // start and the end database); otherwise rewriting PWL -> Datalog and
  // the compiled program on the workload's (unchanging) D.
  if (reasoner->classification().uses_negation) {
    DatalogResult start_result, end_result;
    layers.Time("datalog.evaluate_start_ms", 3,
                [&] { start_result = EvaluateDatalog(program, db); }, true);
    std::string end_text = w.program;
    for (const std::string& batch : w.batches) end_text += batch + "\n";
    std::unique_ptr<Reasoner> end = Reasoner::FromText(end_text, &error);
    layers.Time("datalog.evaluate_ms", 3,
                [&] {
                  end_result =
                      EvaluateDatalog(end->program(), end->database());
                },
                true);
    layers.Value("datalog.rounds", static_cast<double>(end_result.rounds));
    layers.Value("datalog.rule_applications",
                 static_cast<double>(end_result.rule_applications));
    layers.Value("storage.db_facts_end",
                 static_cast<double>(end->database().size()));
    layers.Value("rewriting.rewrite_ms", 0);
    layers.Value("rewriting.rules_emitted", 0);
    layers.Value("rewriting.answers_agree", 0);
  } else {
    // The default width bound f_WARD∩PWL does not finish on Example 3.3
    // (100k states and 0.9M rules after 14 s), so the rewriting runs at
    // a fixed node width; agreement with the oracle is reported.
    RewriteOptions rewrite_options;
    rewrite_options.node_width = kRewriteWidth;
    rewrite_options.max_states = 20000;
    RewriteResult rewrite;
    layers.Time("rewriting.rewrite_ms", 3,
                [&] {
                  rewrite = RewritePwlWardedToDatalog(program, queries[0],
                                                      rewrite_options);
                },
                true);
    if (!rewrite.datalog.has_value()) Die("rewriting exhausted its budget");
    layers.Value("rewriting.rules_emitted",
                 static_cast<double>(rewrite.rules_emitted));
    DatalogResult compiled;
    layers.Time("datalog.evaluate_ms", 3,
                [&] { compiled = EvaluateDatalog(*rewrite.datalog, db); },
                true);
    layers.out.Set("datalog.evaluate_start_ms",
                   *layers.out.Find("datalog.evaluate_ms"));
    Rows via_rewriting;
    for (const auto& tuple : EvaluateQuerySorted(rewrite.goal,
                                                 compiled.instance)) {
      via_rewriting.push_back(
          rewrite.datalog->symbols().TermToString(tuple[0]));
    }
    std::sort(via_rewriting.begin(), via_rewriting.end());
    Rows expected;
    for (const std::string& row : answers[0]) {
      expected.push_back(row.substr(1, row.size() - 2));
    }
    layers.Value("rewriting.answers_agree", via_rewriting == expected);
    layers.Value("datalog.rounds", static_cast<double>(compiled.rounds));
    layers.Value("datalog.rule_applications",
                 static_cast<double>(compiled.rule_applications));
    layers.Value("storage.db_facts_end", static_cast<double>(db.size()));
  }
  return layers.out;
}

JsonValue PhaseJson(const Phase& phase) {
  JsonValue out = JsonValue::Object();
  out.Set("traced", JsonValue::Bool(phase.traced));
  out.Set("elapsed_s", JsonValue::Number(phase.elapsed_s));
  out.Set("peak_rss_kib", JsonValue::Number(phase.peak_rss_kib));
  JsonValue queries = JsonValue::Array(), writes = JsonValue::Array();
  for (const Sample& s : phase.samples) {
    if (!s.query) {
      writes.Append(JsonValue::Number(s.rtt_us));
      continue;
    }
    JsonValue row = JsonValue::Array();
    row.Append(JsonValue::Number(s.rtt_us));
    if (phase.traced) {
      for (int64_t span : s.spans) {
        row.Append(JsonValue::Number(static_cast<double>(span)));
      }
    }
    queries.Append(std::move(row));
  }
  out.Set("queries", std::move(queries));
  out.Set("add_facts", std::move(writes));
  out.Set("metrics_before", phase.metrics_before);
  out.Set("metrics_after", phase.metrics_after);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string daemon_path, workload_name;
  uint64_t seed = 1;
  double seconds = 0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--daemon") daemon_path = value;
    else if (flag == "--workload") workload_name = value;
    else if (flag == "--seed") seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") seconds = std::atof(value.c_str());
    else if (flag == "--trace") trace = std::atoi(value.c_str());
    else Die("unknown flag " + flag);
  }
  if (kAssertionsOn || std::string(PERFBENCH_BUILD_TYPE) == "Debug") {
    Die("refusing to measure a build with assertions on (build type " +
        std::string(PERFBENCH_BUILD_TYPE) + ")");
  }
  if (daemon_path.empty() || seconds <= 0) {
    Die("usage: --daemon PATH --workload NAME --seed N --seconds S "
        "--trace 0|1");
  }
  // kPooledPhases measured phases, each on a fresh daemon, whose samples
  // run.py pools: one daemon's luck (thread placement, lock hand-over
  // timing) moves its latencies by 10-20%, and pooling several evens
  // that out. --trace 1 measures twice as long, alternating untraced and
  // traced phases.
  double phase_seconds = (trace ? 2 : 1) * seconds / kPooledPhases;

  Workload w;
  if (workload_name == "owl_chase") w = OwlChase(seed);
  else if (workload_name == "owl_linear_warm") w = OwlLinear(seed, false);
  else if (workload_name == "owl_linear_evict") w = OwlLinear(seed, true);
  else if (workload_name == "graph_ingest") w = GraphIngest(seed, phase_seconds);
  else Die("unknown workload " + workload_name);

  Oracle oracle;
  if (w.fixed_ops.empty()) {
    oracle.exact = OracleAnswers(w.program, w.shapes);
  } else {
    oracle.start = OracleAnswers(w.program, w.shapes);
    std::string end_text = w.program;
    for (const std::string& batch : w.batches) end_text += batch + "\n";
    oracle.final = OracleAnswers(end_text, w.shapes);
  }

  Runner runner(w, oracle, daemon_path, phase_seconds);
  JsonValue setup_s = JsonValue::Array();
  JsonValue phases = JsonValue::Array();
  for (int r = 0; r < kPooledPhases; ++r) {
    Phase phase;
    phase.traced = trace && r % 2 == 1;
    setup_s.Append(JsonValue::Number(runner.SetupAndRun(&phase)));
    phases.Append(PhaseJson(phase));
  }

  JsonValue out = JsonValue::Object();
  out.Set("workload", JsonValue::String(w.name));
  out.Set("build_type", JsonValue::String(PERFBENCH_BUILD_TYPE));
  out.Set("compiler", JsonValue::String(PERFBENCH_COMPILER));
  out.Set("setup_s", std::move(setup_s));
  out.Set("phases", std::move(phases));
  out.Set("attempted", JsonValue::Number(runner.tally.attempted));
  JsonValue failures = JsonValue::Object();
  for (const auto& [reason, count] : runner.tally.failures) {
    failures.Set(reason, JsonValue::Number(count));
  }
  out.Set("failures", std::move(failures));
  if (trace) out.Set("layers", ReplayLayers(w, oracle));
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}
