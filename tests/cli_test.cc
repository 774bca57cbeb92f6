// Golden smoke tests for kcore_cli: runs the real binary (path baked in via
// KCORE_CLI_PATH) over a fixed tiny graph with the profiling flags and
// diffs normalized output. Numbers are volatile (wall time, modeled jitter
// across thread schedules), so normalization folds every digit run to '#'
// and sorts the kernel-summary rows (their order depends on relative
// modeled totals).
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#ifndef KCORE_CLI_PATH
#error "cli_test requires -DKCORE_CLI_PATH=\"...\" (see tests/CMakeLists.txt)"
#endif
#ifndef KCORE_SOAK_PATH
#error "cli_test requires -DKCORE_SOAK_PATH=\"...\" (see tests/CMakeLists.txt)"
#endif

namespace {

struct CommandResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

CommandResult RunCli(const std::string& args) {
  const std::string command = std::string(KCORE_CLI_PATH) + " " + args + " 2>&1";
  std::FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  CommandResult result;
  if (pipe == nullptr) return result;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, pipe)) > 0) {
    result.output.append(buf, got);
  }
  const int rc = pclose(pipe);
  result.exit_code = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  return result;
}

/// Digit runs -> '#', then the kernel-summary body (everything after its
/// header line) is sorted so the comparison is order-independent.
std::string Normalize(const std::string& raw) {
  std::string folded;
  bool in_digits = false;
  for (char c : raw) {
    if (c >= '0' && c <= '9') {
      if (!in_digits) folded += '#';
      in_digits = true;
    } else {
      in_digits = false;
      folded += c;
    }
  }
  // Split into lines; sort the region after the summary header.
  std::vector<std::string> lines;
  size_t start = 0;
  while (start <= folded.size()) {
    const size_t nl = folded.find('\n', start);
    if (nl == std::string::npos) {
      if (start < folded.size()) lines.push_back(folded.substr(start));
      break;
    }
    lines.push_back(folded.substr(start, nl - start));
    start = nl + 1;
  }
  for (size_t i = 0; i < lines.size(); ++i) {
    if (lines[i] == "--- kernel summary ---" && i + 2 < lines.size()) {
      std::sort(lines.begin() + i + 2, lines.end());  // keep header row
      break;
    }
  }
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

/// Writes `content` to /tmp/kcore_cli_test_<name> and returns the path.
/// gtest_discover_tests runs every TEST as its own process, and ctest -j
/// runs them concurrently — all sharing these paths. Write-to-temp + rename
/// keeps each file atomically either absent or complete, never truncated
/// mid-rewrite under a sibling test's reader.
std::string WriteFixture(const std::string& name, const char* content) {
  const std::string path = "/tmp/kcore_cli_test_" + name;
  const std::string tmp = path + "." + std::to_string(getpid());
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  EXPECT_NE(f, nullptr);
  std::fputs(content, f);
  std::fclose(f);
  EXPECT_EQ(std::rename(tmp.c_str(), path.c_str()), 0);
  return path;
}

/// The paper-figure edge list.
std::string EdgeListPath() {
  return WriteFixture("graph.txt",
                      "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"  // K4: 3-core
                      "0 4\n4 5\n5 6\n6 4\n"            // 2-shell triangle
                      "5 7\n7 8\n");                    // pendant path
}

/// A 5-update stream over EdgeListPath()'s K4: breaks it down to its
/// 2-core and partly rebuilds it.
std::string UpdateStreamPath() {
  return WriteFixture("updates.txt", "- 0 2\n- 1 3\n+ 0 2\n+ 1 3\n- 2 3\n");
}

/// The `k_max` and `rounds` lines of a decompose run, in order.
std::string KMaxAndRounds(const std::string& output) {
  std::string out;
  size_t start = 0;
  while (start < output.size()) {
    size_t nl = output.find('\n', start);
    if (nl == std::string::npos) nl = output.size();
    const std::string line = output.substr(start, nl - start);
    if (line.rfind("k_max ", 0) == 0 || line.rfind("rounds ", 0) == 0) {
      out += line + "\n";
    }
    start = nl + 1;
  }
  return out;
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return "";
  std::string content;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) {
    content.append(buf, got);
  }
  std::fclose(f);
  return content;
}

TEST(CliGolden, GpuTraceSimcheckAndSummary) {
  const std::string trace_path = "/tmp/kcore_cli_test_gpu_trace.json";
  std::remove(trace_path.c_str());
  CommandResult r =
      RunCli("decompose " + EdgeListPath() + " gpu --simcheck --trace=" +
          trace_path + " --prof-summary");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  const std::string expected =
      "engine       gpu\n"
      "k_max        #\n"
      "rounds       #\n"
      "modeled_ms   #.#\n"
      "wall_ms      #.#\n"
      "peak_device  #.# MB\n"
      "simcheck     clean\n"
      "trace        /tmp/kcore_cli_test_gpu_trace.json\n"
      "--- kernel summary ---\n"
      "kernel                count   time%     total_ms       avg_us"
      "       min_us       max_us\n"
      "loop                      #   #.#%        #.#        #.#        #.#"
      "        #.#\n"
      "scan                      #   #.#%        #.#        #.#        #.#"
      "        #.#\n"
      // Active-vertex compaction rebuilds once on this graph (survivors
      // halve entering the k=3 round).
      "compact                   #    #.#%        #.#        #.#        #.#"
      "        #.#\n";
  EXPECT_EQ(Normalize(r.output), Normalize(expected)) << r.output;

  const std::string trace = ReadFileOrEmpty(trace_path);
  ASSERT_FALSE(trace.empty());
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"scan\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"loop\""), std::string::npos);
}

TEST(CliGolden, MultiGpuTrace) {
  const std::string trace_path = "/tmp/kcore_cli_test_mg_trace.json";
  std::remove(trace_path.c_str());
  CommandResult r = RunCli("decompose " + EdgeListPath() +
                        " multigpu --trace=" + trace_path);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  const std::string expected =
      "engine       multigpu\n"
      "k_max        #\n"
      "rounds       #\n"
      "modeled_ms   #.#\n"
      "wall_ms      #.#\n"
      "peak_device  #.# KB\n"
      "trace        /tmp/kcore_cli_test_mg_trace.json\n";
  EXPECT_EQ(Normalize(r.output), Normalize(expected)) << r.output;

  const std::string trace = ReadFileOrEmpty(trace_path);
  ASSERT_FALSE(trace.empty());
  // One process group per device: the master plus the default 4 workers.
  EXPECT_NE(trace.find("\"master\""), std::string::npos);
  EXPECT_NE(trace.find("\"node0.dev0\""), std::string::npos);
  EXPECT_NE(trace.find("\"node3.dev0\""), std::string::npos);
  EXPECT_NE(trace.find("border_exchange"), std::string::npos);
}

TEST(CliGolden, VetgaSummary) {
  CommandResult r =
      RunCli("decompose " + EdgeListPath() + " vetga --prof-summary --simcheck");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("engine       vetga"), std::string::npos);
  EXPECT_NE(r.output.find("simcheck     clean"), std::string::npos);
  EXPECT_NE(r.output.find("--- kernel summary ---"), std::string::npos);
  // The six vector primitives all appear as summary rows.
  for (const char* op : {"vt_compare_mask", "vt_nonzero", "vt_scatter",
                         "vt_gather", "vt_bincount", "vt_deg_update"}) {
    EXPECT_NE(r.output.find(op), std::string::npos) << op;
  }
}

TEST(CliGolden, ClusterSummaryAndSimcheck) {
  CommandResult r = RunCli("decompose " + EdgeListPath() +
                           " cluster --nodes=3 --partition=edgecut --simcheck");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  const std::string expected =
      "engine       cluster\n"
      "k_max        #\n"
      "rounds       #\n"
      "modeled_ms   #.#\n"
      "wall_ms      #.#\n"
      "peak_device  #.# KB\n"
      "simcheck     clean\n"
      "--- cluster ---\n"
      "nodes           #\n"
      "partition       edgecut\n"
      "comm_ms         #.#\n"
      "comm_bytes      # B\n"
      "comm_messages   #\n"
      "comm/compute    #.#\n";
  EXPECT_EQ(Normalize(r.output), Normalize(expected)) << r.output;
}

TEST(CliGolden, ClusterTraceCarriesNodeLanesAndNetwork) {
  const std::string trace_path = "/tmp/kcore_cli_test_cluster_trace.json";
  std::remove(trace_path.c_str());
  CommandResult r = RunCli("decompose " + EdgeListPath() +
                           " cluster --nodes=3 --trace=" + trace_path);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  const std::string trace = ReadFileOrEmpty(trace_path);
  ASSERT_FALSE(trace.empty());
  // One lane per node device, plus the master's network/rounds threads.
  EXPECT_NE(trace.find("node0.dev0"), std::string::npos);
  EXPECT_NE(trace.find("node2.dev0"), std::string::npos);
  EXPECT_NE(trace.find("\"network\""), std::string::npos);
  EXPECT_NE(trace.find("border_exchange"), std::string::npos);
}

TEST(CliGolden, ExpandRejectedOffTheGpuEngine) {
  // The scale-out engines' lanes do not run the loop kernel.
  for (const std::string engine : {"multigpu", "cluster"}) {
    CommandResult r = RunCli("decompose " + EdgeListPath() + " " + engine +
                             " --expand=auto");
    EXPECT_EQ(r.exit_code, 1) << engine;
    EXPECT_NE(r.output.find("--expand only applies to the gpu engine"),
              std::string::npos)
        << r.output;
  }
  EXPECT_NE(RunCli("").output.find("(gpu only)"), std::string::npos);
}

TEST(CliGolden, ClusterFlagsRejectedOffTheClusterEngine) {
  CommandResult r = RunCli("decompose " + EdgeListPath() + " gpu --nodes=2");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("--nodes/--partition only apply"),
            std::string::npos)
      << r.output;
  CommandResult s =
      RunCli("decompose " + EdgeListPath() + " bz --partition=degree");
  EXPECT_EQ(s.exit_code, 1);
  CommandResult t =
      RunCli("decompose " + EdgeListPath() + " cluster --partition=metis");
  EXPECT_EQ(t.exit_code, 1);
  EXPECT_NE(t.output.find("unknown --partition strategy"), std::string::npos)
      << t.output;
  CommandResult u =
      RunCli("decompose " + EdgeListPath() + " cluster --nodes=0");
  EXPECT_EQ(u.exit_code, 1);
  EXPECT_NE(u.output.find("node count must be >= 1"), std::string::npos);
}

TEST(CliGolden, TraceRejectsCpuEngines) {
  CommandResult r = RunCli("decompose " + EdgeListPath() + " bz --trace=/tmp/x");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("--trace/--prof-summary only apply"),
            std::string::npos)
      << r.output;
  CommandResult s = RunCli("decompose " + EdgeListPath() + " park --prof-summary");
  EXPECT_EQ(s.exit_code, 1);
}

TEST(CliGolden, UsageMentionsProfilingFlags) {
  CommandResult r = RunCli("");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--trace=<out.json>"), std::string::npos);
  EXPECT_NE(r.output.find("--prof-summary"), std::string::npos);
  EXPECT_NE(r.output.find("--timeout-ms=<N>"), std::string::npos);
}

TEST(CliGolden, UpdateStreamVerifiesAgainstBz) {
  CommandResult r = RunCli("decompose " + EdgeListPath() + " gpu --updates=" +
                           UpdateStreamPath() + " --update-batch=2");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("verify       ok (bz)"), std::string::npos)
      << r.output;
}

TEST(CliGolden, EmptyUpdateStreamCommitsNoEpoch) {
  CommandResult r =
      RunCli("decompose " + EdgeListPath() + " gpu --updates=" +
             WriteFixture("updates_empty.txt", ""));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("epochs       0\n"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("verify       ok (bz)"), std::string::npos)
      << r.output;
}

TEST(CliGolden, SingleKAgreesOnGpuAndXiang) {
  for (const std::string engine : {"xiang", "gpu"}) {
    CommandResult r =
        RunCli("decompose " + EdgeListPath() + " " + engine + " --k=3");
    EXPECT_EQ(r.exit_code, 0) << engine << "\n" << r.output;
    EXPECT_NE(r.output.find("core_size    4\n"), std::string::npos)
        << engine << "\n" << r.output;
  }
}

TEST(CliGolden, RenumberAndFuseKeepTheFlaglessAnswer) {
  const std::string want =
      KMaxAndRounds(RunCli("decompose " + EdgeListPath() + " gpu").output);
  ASSERT_EQ(want, "k_max        3\nrounds       4\n");
  for (const std::string args :
       {"gpu --renumber", "multigpu --renumber", "gpu --fuse"}) {
    CommandResult r = RunCli("decompose " + EdgeListPath() + " " + args);
    EXPECT_EQ(r.exit_code, 0) << args << "\n" << r.output;
    EXPECT_EQ(KMaxAndRounds(r.output), want) << args << "\n" << r.output;
  }
}

TEST(CliGolden, HostEnginesFindTheThreeCore) {
  for (const std::string engine : {"bz", "pkc", "park", "mpm"}) {
    CommandResult r = RunCli("decompose " + EdgeListPath() + " " + engine);
    EXPECT_EQ(r.exit_code, 0) << engine << "\n" << r.output;
    EXPECT_NE(r.output.find("engine       " + engine + "\n"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("k_max        3\n"), std::string::npos)
        << engine << "\n" << r.output;
  }
}

// ------------------------------------------- exit codes and deadlines ----
// Exit contract: 0 success, 1 error, 2 usage, 4 degraded success. Every
// nonzero path emits a one-line structured `error code=... msg="..."` on
// stderr so scripts can key on the code.

TEST(CliExitCodes, DegradedDecomposeExitsFourWithStructuredError) {
  CommandResult r = RunCli("decompose " + EdgeListPath() +
                           " gpu '--faults=device_lost@launch=2'");
  EXPECT_EQ(r.exit_code, 4) << r.output;
  // The answer is still printed (exact, from the CPU warm-start)...
  EXPECT_NE(r.output.find("k_max        3"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("degraded            yes"), std::string::npos);
  // ...and the degradation is machine-visible.
  EXPECT_NE(r.output.find("error code=DegradedSuccess"), std::string::npos)
      << r.output;
}

TEST(CliExitCodes, DegradedSingleKExitsFour) {
  CommandResult r = RunCli("decompose " + EdgeListPath() +
                           " gpu --k=3 '--faults=device_lost@launch=1'");
  EXPECT_EQ(r.exit_code, 4) << r.output;
  EXPECT_NE(r.output.find("core_size    4"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("error code=DegradedSuccess"), std::string::npos);
}

TEST(CliExitCodes, DegradedUpdateStreamExitsFour) {
  CommandResult r = RunCli("decompose " + EdgeListPath() + " gpu --updates=" +
                           UpdateStreamPath() +
                           " --update-batch=2 '--faults=device_lost@launch=3'");
  EXPECT_EQ(r.exit_code, 4) << r.output;
  EXPECT_NE(r.output.find("error code=DegradedSuccess"), std::string::npos)
      << r.output;
}

TEST(CliExitCodes, MalformedUpdateLineIsStructuredError) {
  CommandResult r =
      RunCli("decompose " + EdgeListPath() + " gpu --updates=" +
             WriteFixture("updates_bad.txt", "+ 0\n"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("error code=InvalidArgument"), std::string::npos)
      << r.output;
}

TEST(CliExitCodes, MalformedOrMisroutedKIsStructuredError) {
  for (const std::string args :
       {"gpu --k=0", "gpu --k=abc", "gpu --k=", "bz --k=2"}) {
    CommandResult r = RunCli("decompose " + EdgeListPath() + " " + args);
    EXPECT_EQ(r.exit_code, 1) << args << "\n" << r.output;
    EXPECT_NE(r.output.find("error code=InvalidArgument"), std::string::npos)
        << args << "\n" << r.output;
  }
}

TEST(CliExitCodes, TransientFaultsRecoverCleanExitZero) {
  // A single retryable launch failure is absorbed by the engine's op retry:
  // not degraded, exit 0.
  CommandResult r = RunCli("decompose " + EdgeListPath() +
                           " gpu '--faults=launch_fail@1'");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("degraded            no"), std::string::npos);
}

TEST(CliExitCodes, ExpiredTimeoutExitsOneWithDeadlineExceeded) {
  CommandResult r =
      RunCli("decompose " + EdgeListPath() + " gpu --timeout-ms=0");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("error code=DeadlineExceeded"), std::string::npos)
      << r.output;
  // The structured line names the enforcement point: a round boundary.
  EXPECT_NE(r.output.find("round boundary"), std::string::npos) << r.output;
}

TEST(CliExitCodes, GenerousTimeoutCompletesNormally) {
  CommandResult r =
      RunCli("decompose " + EdgeListPath() + " gpu --timeout-ms=60000");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("k_max        3"), std::string::npos);
}

TEST(CliExitCodes, TimeoutOnSingleKPath) {
  CommandResult ok =
      RunCli("decompose " + EdgeListPath() + " gpu --k=2 --timeout-ms=60000");
  EXPECT_EQ(ok.exit_code, 0) << ok.output;
  CommandResult expired =
      RunCli("decompose " + EdgeListPath() + " gpu --k=2 --timeout-ms=0");
  EXPECT_EQ(expired.exit_code, 1) << expired.output;
  EXPECT_NE(expired.output.find("error code=DeadlineExceeded"),
            std::string::npos);
}

TEST(CliExitCodes, TimeoutRejectedOffTheGpuEngines) {
  CommandResult r =
      RunCli("decompose " + EdgeListPath() + " bz --timeout-ms=5");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("error code=InvalidArgument"), std::string::npos);
  CommandResult s = RunCli("stats " + EdgeListPath() + " --timeout-ms=5");
  EXPECT_EQ(s.exit_code, 1);
}

TEST(CliExitCodes, MalformedTimeoutIsStructuredError) {
  CommandResult r =
      RunCli("decompose " + EdgeListPath() + " gpu --timeout-ms=soon");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("error code=InvalidArgument"), std::string::npos)
      << r.output;
}

TEST(CliExitCodes, ExtractRejectsNonNumericK) {
  // Used to silently become k=0 via atoi; now a structured error.
  CommandResult r =
      RunCli("extract " + EdgeListPath() + " foo /tmp/kcore_cli_test_out.txt");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("error code=InvalidArgument"), std::string::npos)
      << r.output;
}

TEST(CliExitCodes, MissingGraphFileIsStructuredError) {
  CommandResult r = RunCli("decompose /tmp/kcore_cli_test_nonexistent.txt gpu");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("error code="), std::string::npos) << r.output;
}

TEST(CliExitCodes, ClusterNodeLossDegradesToExitFour) {
  // --faults applies the plan to every device of every node, so a device
  // loss kills the whole cluster: the run must still print the exact answer
  // from the CPU fallback and report degradation via exit 4.
  CommandResult r = RunCli("decompose " + EdgeListPath() +
                           " cluster --nodes=2 '--faults=device_lost@launch=2'");
  EXPECT_EQ(r.exit_code, 4) << r.output;
  EXPECT_NE(r.output.find("k_max        3"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("error code=DegradedSuccess"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("degraded            yes"), std::string::npos);
}

// ------------------------------------------------------- soak harness ----
// The soak binary shares the CLI's exit contract; its flag validation is
// part of the same surface (a fraction outside [0,1] must be a usage
// error, not a silently clamped value).

CommandResult RunSoak(const std::string& args) {
  const std::string command =
      std::string(KCORE_SOAK_PATH) + " " + args + " 2>&1";
  std::FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  CommandResult result;
  if (pipe == nullptr) return result;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, pipe)) > 0) {
    result.output.append(buf, got);
  }
  const int rc = pclose(pipe);
  result.exit_code = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  return result;
}

TEST(SoakExitCodes, UpdateFractionOutsideUnitIntervalIsUsageError) {
  for (const char* bad : {"--update-fraction=1.5", "--update-fraction=-0.2",
                          "--update-fraction=nan"}) {
    CommandResult r = RunSoak(bad);
    EXPECT_EQ(r.exit_code, 2) << bad << "\n" << r.output;
    EXPECT_NE(r.output.find("usage:"), std::string::npos) << bad;
    // The usage text documents the mutation-slice flags it just rejected.
    EXPECT_NE(r.output.find("--update-fraction=<frac>"), std::string::npos);
    EXPECT_NE(r.output.find("--update-batch=N"), std::string::npos);
  }
}

}  // namespace
