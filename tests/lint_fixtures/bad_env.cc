// Bad fixture for env-read: environment reads in what lints as library
// code. Four findings: std::getenv, ::getenv, bare getenv, secure_getenv.
#include <cstdlib>

const char* a = std::getenv("TAILGUARD_A");
const char* b = ::getenv("TAILGUARD_B");
const char* c = getenv("TAILGUARD_C");
const char* d = secure_getenv("TAILGUARD_D");
