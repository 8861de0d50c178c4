// Shared main() wrapper for the example programs: a feves::Error escaping
// a program's body — a configuration, topology or input the library
// rejects, usually because of a bad argument — is a usage error, not a
// crash. It prints "<program>: <message>" and the usage line and exits 2
// instead of ending in abort().
#pragma once

#include "common/check.hpp"

#include <cstdio>
#include <cstring>

namespace feves::examples {

/// Prints "usage: <argv0> <args>" to stderr.
inline void print_usage(const char* argv0, const char* args) {
  std::fprintf(stderr, "usage: %s %s\n", argv0, args);
}

/// Returns `body(argc, argv)`, or 2 after reporting a feves::Error it threw.
inline int guarded_main(int argc, char** argv, const char* usage_args,
                        int (*body)(int, char**)) {
  try {
    return body(argc, argv);
  } catch (const Error& e) {
    const char* slash = std::strrchr(argv[0], '/');
    std::fprintf(stderr, "%s: %s\n", slash != nullptr ? slash + 1 : argv[0],
                 e.what());
    print_usage(argv[0], usage_args);
    return 2;
  }
}

}  // namespace feves::examples
