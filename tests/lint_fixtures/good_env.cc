// Good fixture for env-read: settings arrive as options, the words getenv
// and secure_getenv in comments or strings never match, identifiers merely
// containing them are not reads, and a read behind an explicit suppression
// survives.
#include <cstdlib>

struct Options {
  int threads = 1;
};

int threads_of(const Options& opts) { return opts.threads; }

const char* doc = "set TAILGUARD_THREADS; do not call getenv() here";
int getenv_calls_avoided = 0;

// tg-lint: allow(env-read)
const char* legacy = std::getenv("TAILGUARD_LEGACY");
