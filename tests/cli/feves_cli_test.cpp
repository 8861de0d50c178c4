// Drives the feves_cli binary (and the quickstart example, which shares its
// argument-error handling) as a child process on bad arguments: each case
// must end in a non-zero exit status with a usage message, never in a
// signal (an uncaught exception ends in abort()).
#include <gtest/gtest.h>

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

extern char** environ;

namespace {

struct CliRun {
  int wait_status = 0;
  std::string err;  ///< everything the binary wrote to stderr
};

CliRun run_cli(const std::vector<std::string>& args,
               const char* bin = FEVES_CLI_BIN) {
  const std::string err_path = testing::TempDir() + "feves_cli_stderr.txt";
  std::vector<std::string> argv_s{bin};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, "/dev/null", O_WRONLY,
                                   0);
  posix_spawn_file_actions_addopen(&fa, STDERR_FILENO, err_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  pid_t pid = 0;
  const int rc =
      posix_spawn(&pid, argv[0], &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  CliRun run;
  EXPECT_EQ(rc, 0) << "could not start " << argv[0];
  if (rc != 0) return run;
  EXPECT_EQ(waitpid(pid, &run.wait_status, 0), pid);
  std::ifstream in(err_path);
  std::ostringstream os;
  os << in.rdbuf();
  run.err = os.str();
  return run;
}

struct BadArgsCase {
  const char* name;
  std::vector<std::string> args;
  const char* bin = FEVES_CLI_BIN;
};

TEST(FevesCli, BadArgumentsExitWithUsageNotASignal) {
  const std::vector<BadArgsCase> cases = {
      {"height not a multiple of 16",
       {"--synthetic", "2", "--width", "64", "--height", "1080"}},
      {"zero reference frames",
       {"--synthetic", "2", "--width", "64", "--height", "48", "--refs", "0"}},
      {"flag missing its value", {"--synthetic", "2", "--width"}},
      {"unknown flag", {"--synthetic", "2", "--bogus", "1"}},
      {"quickstart width not a multiple of 16",
       {"100", "100", "2"},
       FEVES_QUICKSTART_BIN},
  };
  for (const BadArgsCase& c : cases) {
    SCOPED_TRACE(c.name);
    const CliRun run = run_cli(c.args, c.bin);
    EXPECT_FALSE(WIFSIGNALED(run.wait_status))
        << "killed by signal " << WTERMSIG(run.wait_status);
    ASSERT_TRUE(WIFEXITED(run.wait_status));
    EXPECT_EQ(WEXITSTATUS(run.wait_status), 2);
    EXPECT_NE(run.err.find("usage:"), std::string::npos) << run.err;
  }
}

TEST(FevesCli, ValidArgumentsExitZero) {
  // Control row: the harness above tells a clean run from a failing one.
  const CliRun run = run_cli({"--synthetic", "2", "--width", "64", "--height",
                              "48", "--sa", "8", "--output", "/dev/null"});
  ASSERT_TRUE(WIFEXITED(run.wait_status)) << run.err;
  EXPECT_EQ(WEXITSTATUS(run.wait_status), 0) << run.err;
}

TEST(FevesCli, QuickstartValidArgumentsExitZero) {
  const CliRun run = run_cli({"64", "48", "2"}, FEVES_QUICKSTART_BIN);
  ASSERT_TRUE(WIFEXITED(run.wait_status)) << run.err;
  EXPECT_EQ(WEXITSTATUS(run.wait_status), 0) << run.err;
}

}  // namespace
