// Golden violation for the determinism rule: system randomness and
// clock reads in solver/kernel code make fits irreproducible. Every
// construct below must be flagged.
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <random>

#include "src/util/stopwatch.h"

double NondeterministicInit() {
  std::srand(static_cast<unsigned>(time(nullptr)));
  std::random_device entropy;
  return static_cast<double>(rand()) + static_cast<double>(entropy());
}

double TimedInit() {
  const auto epoch = std::chrono::system_clock::now().time_since_epoch();
  const auto start = std::chrono::steady_clock::now();
  const auto stop = std::chrono::high_resolution_clock::now();
  const triclust::Stopwatch watch;
  return watch.ElapsedSeconds() +
         std::chrono::duration<double>(stop - start + epoch).count();
}
