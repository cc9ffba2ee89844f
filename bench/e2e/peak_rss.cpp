// peak_rss — runs a program and reports the program's own peak resident set.
//
//   peak_rss REPORT PROGRAM [ARGS...]
//
// A process forked from the Python runner carries the runner's resident-set
// high-water mark across exec, so wait4's ru_maxrss there reads the runner's
// memory whenever the program uses less. This launcher is small: the child
// it forks starts from the launcher's few MB, so the ru_maxrss that wait4
// reports here is the program's own. It writes "<ru_maxrss in KiB>\n" to
// REPORT and exits with the program's exit code (128 + signal number when
// a signal ended it).
//
// The launcher keeps no copy of the stdin and stdout it hands down, so end
// of file on those pipes behaves as if the runner had started the program
// itself. SIGTERM and SIGINT kill the program, which is always waited for;
// if the launcher itself dies, the kernel kills the program too.

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>

namespace {

volatile sig_atomic_t g_child = 0;

void kill_child(int) {
  if (g_child > 0) kill(g_child, SIGKILL);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: peak_rss REPORT PROGRAM [ARGS...]\n");
    return 2;
  }
  struct sigaction action = {};
  action.sa_handler = kill_child;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);

  const pid_t launcher = getpid();
  const pid_t child = fork();
  if (child < 0) {
    std::perror("peak_rss: fork");
    return 1;
  }
  if (child == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != launcher) _exit(1);
    execvp(argv[2], argv + 2);
    std::perror("peak_rss: exec");
    _exit(127);
  }
  g_child = child;
  close(STDIN_FILENO);
  close(STDOUT_FILENO);

  int status = 0;
  struct rusage usage = {};
  while (wait4(child, &status, 0, &usage) < 0) {
    if (errno != EINTR) {
      std::perror("peak_rss: wait4");
      return 1;
    }
  }
  if (FILE* report = std::fopen(argv[1], "w")) {
    std::fprintf(report, "%ld\n", usage.ru_maxrss);
    std::fclose(report);
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}
